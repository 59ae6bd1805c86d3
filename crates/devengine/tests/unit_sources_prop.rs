//! Property test: the three unit sources — streaming conversion
//! (`Fresh`), cached-plan slicing (`Cached`) and arithmetic generation
//! for vector-shaped types (`Vector`) — describe the *same byte
//! movement* for any committed datatype at any fragment size. The
//! fragment engine picks between them purely on cost grounds; this
//! pins down that the choice can never change what gets copied.
//!
//! Units differ per source (unit-size splits, fragment-boundary splits,
//! whole-block vector ops), so coverage is compared as the multiset of
//! `(src_off, dst_off, len)` after merging ops that are adjacent on
//! both sides — the normalized form is the canonical byte mapping.

use datatype::testutil::arb_datatype;
use datatype::DataType;
use devengine::{build_plan, build_plan_opt, flip_units_in_place, DevCursor};
use simcore::par::CopyOp;
use simcore::rng::SimRng;

/// Canonical byte mapping: sort by packed offset, drop empties, merge
/// runs contiguous on both the typed and the packed side.
fn normalize(mut ops: Vec<CopyOp>) -> Vec<(usize, usize, usize)> {
    ops.sort_by_key(|u| u.dst_off);
    let mut out: Vec<(usize, usize, usize)> = Vec::new();
    for u in ops {
        if u.len == 0 {
            continue;
        }
        if let Some(last) = out.last_mut() {
            if last.0 + last.2 == u.src_off && last.1 + last.2 == u.dst_off {
                last.2 += u.len;
                continue;
            }
        }
        out.push((u.src_off, u.dst_off, u.len));
    }
    out
}

/// `Fresh`: stream units fragment by fragment through the convertor.
fn fresh_units(ty: &DataType, count: u64, unit_size: u64, frag: u64) -> Vec<CopyOp> {
    let mut cur = DevCursor::new(ty, count, unit_size).unwrap();
    let mut ops = Vec::new();
    while !cur.finished() {
        ops.extend(cur.next_units(frag));
    }
    ops
}

/// `Cached`: materialize the plan once, then slice the same fragment
/// windows through the production `slice_into` path (which rebases
/// packed offsets per fragment — undo that to compare absolutes).
fn cached_units(ty: &DataType, count: u64, unit_size: u64, frag: u64) -> Vec<CopyOp> {
    let plan = build_plan(ty, count, unit_size).unwrap();
    let mut ops = Vec::new();
    let mut buf = Vec::new();
    let mut pos = 0u64;
    while pos < plan.total_bytes {
        let to = (pos + frag).min(plan.total_bytes);
        plan.slice_into(pos, to, &mut buf);
        for u in &buf {
            ops.push(CopyOp {
                src_off: u.src_off,
                dst_off: u.dst_off + pos as usize,
                len: u.len,
            });
        }
        pos = to;
    }
    ops
}

/// `Vector`: arithmetic unit generation, exactly as the fragment
/// engine's specialized path computes it (no descriptors at all).
fn vector_units(ty: &DataType, count: u64, frag: u64) -> Option<Vec<CopyOp>> {
    let effective = if count <= 1 {
        ty.clone()
    } else {
        DataType::contiguous(count, ty).unwrap().commit()
    };
    let (_, block_bytes, stride, first_disp) = effective.vector_shape()?;
    let base_shift = ty.true_lb().min(0);
    let total = ty.size() * count;
    let mut ops = Vec::new();
    let mut pos = 0u64;
    while pos < total {
        let to = (pos + frag).min(total);
        let mut p = pos;
        while p < to {
            let block = p / block_bytes;
            let intra = p % block_bytes;
            let take = (block_bytes - intra).min(to - p);
            let disp = first_disp + block as i64 * stride + intra as i64;
            ops.push(CopyOp {
                src_off: (disp - base_shift) as usize,
                dst_off: p as usize,
                len: take as usize,
            });
            p += take;
        }
        pos = to;
    }
    Some(ops)
}

/// `Strided2D`: the doubly-strided arithmetic path, exactly as the
/// fragment engine's specialized kernel computes it.
fn strided2d_units(ty: &DataType, count: u64, frag: u64) -> Option<Vec<CopyOp>> {
    let effective = if count <= 1 {
        ty.clone()
    } else {
        DataType::contiguous(count, ty).unwrap().commit()
    };
    let shape = effective.strided2d_shape()?;
    let base_shift = ty.true_lb().min(0);
    let total = ty.size() * count;
    let mut ops = Vec::new();
    let mut pos = 0u64;
    while pos < total {
        let to = (pos + frag).min(total);
        let mut p = pos;
        while p < to {
            let block = p / shape.block_bytes;
            let intra = p % shape.block_bytes;
            let take = (shape.block_bytes - intra).min(to - p);
            let i = (block / shape.inner) as i64;
            let j = (block % shape.inner) as i64;
            let disp =
                shape.first_disp + i * shape.outer_stride + j * shape.inner_stride + intra as i64;
            ops.push(CopyOp {
                src_off: (disp - base_shift) as usize,
                dst_off: p as usize,
                len: take as usize,
            });
            p += take;
        }
        pos = to;
    }
    Some(ops)
}

/// Optimizer-transformed plan (canonicalization and/or coalescing),
/// sliced fragment by fragment like the cached source does.
fn optimized_units(
    ty: &DataType,
    count: u64,
    unit_size: u64,
    frag: u64,
    canonicalize: bool,
    coalesce: bool,
) -> Vec<CopyOp> {
    let work = if canonicalize {
        ty.canonical()
    } else {
        ty.clone()
    };
    let plan = build_plan_opt(&work, count, unit_size, coalesce).unwrap();
    let mut ops = Vec::new();
    let mut buf = Vec::new();
    let mut pos = 0u64;
    while pos < plan.total_bytes {
        let to = (pos + frag).min(plan.total_bytes);
        plan.slice_into(pos, to, &mut buf);
        for u in &buf {
            ops.push(CopyOp {
                src_off: u.src_off,
                dst_off: u.dst_off + pos as usize,
                len: u.len,
            });
        }
        pos = to;
    }
    ops
}

fn check(ty: &DataType, count: u64, seed_note: &str) {
    let total = ty.size() * count;
    for unit_size in [8u64, 64, 1024] {
        // Fragment sizes straddle unit, block and total boundaries.
        for frag in [1u64, 7, 64, total.max(1).div_ceil(3), u64::MAX] {
            let fresh = normalize(fresh_units(ty, count, unit_size, frag));
            let cached = normalize(cached_units(ty, count, unit_size, frag));
            assert_eq!(
                fresh, cached,
                "{seed_note}: fresh vs cached, count={count} unit={unit_size} frag={frag}"
            );
            if let Some(vec_ops) = vector_units(ty, count, frag) {
                assert_eq!(
                    fresh,
                    normalize(vec_ops),
                    "{seed_note}: fresh vs vector, count={count} frag={frag}"
                );
            }
            let covered: usize = fresh.iter().map(|&(_, _, l)| l).sum();
            assert_eq!(covered as u64, total, "{seed_note}: bytes covered");

            // Every optimizer toggle combination must describe the same
            // byte mapping as the unoptimized plan: the passes reshape
            // units (fewer descriptors, merged runs), never the bytes.
            for canon in [false, true] {
                for coalesce in [false, true] {
                    let opt =
                        normalize(optimized_units(ty, count, unit_size, frag, canon, coalesce));
                    assert_eq!(
                        fresh, opt,
                        "{seed_note}: fresh vs optimized(canon={canon}, \
                         coalesce={coalesce}), count={count} unit={unit_size} frag={frag}"
                    );
                }
            }
            if let Some(s2d) = strided2d_units(ty, count, frag) {
                assert_eq!(
                    fresh,
                    normalize(s2d),
                    "{seed_note}: fresh vs strided2d, count={count} frag={frag}"
                );
            }
        }
    }
}

#[test]
fn all_sources_agree_on_arbitrary_types() {
    let mut vector_shaped = 0u32;
    for seed in 0..120u64 {
        let mut rng = SimRng::new(0xDD7 ^ seed);
        let ty = arb_datatype(&mut rng).commit();
        if ty.vector_shape().is_some() {
            vector_shaped += 1;
        }
        for count in [1u64, 2] {
            check(&ty, count, &format!("seed {seed}"));
        }
    }
    // The generator must actually exercise the specialized path, not
    // just the two descriptor-based sources.
    assert!(
        vector_shaped >= 10,
        "only {vector_shaped} vector-shaped types out of 120"
    );
}

#[test]
fn sources_agree_on_the_paper_workloads() {
    // Triangular (indexed) and submatrix (vector) shapes from the
    // figures, small enough for the exhaustive fragment sweep.
    let lens: Vec<u64> = (0..24u64).map(|c| 24 - c).collect();
    let disps: Vec<i64> = (0..24i64).map(|c| c * 24 + c).collect();
    let tri = DataType::indexed(&lens, &disps, &DataType::double())
        .unwrap()
        .commit();
    check(&tri, 1, "triangular");
    let sub = DataType::vector(16, 16, 32, &DataType::double())
        .unwrap()
        .commit();
    check(&sub, 1, "submatrix");
    check(&sub, 2, "submatrix x2");
    // Matrix transpose (fig12): a doubly-strided tree that must hit the
    // arithmetic Strided2D source, not just agree on descriptors.
    let n = 24u64;
    let col = DataType::vector(n, 1, n as i64, &DataType::double()).unwrap();
    let transpose = DataType::hvector(n, 1, 8, &col).unwrap().commit();
    assert!(
        transpose.strided2d_shape().is_some(),
        "transpose must be strided2d-shaped"
    );
    check(&transpose, 1, "transpose");
}

#[test]
fn unpack_slices_are_flipped_pack_slices() {
    // The cached source slices straight into unpack orientation; that
    // must be exactly the pack slice with every unit flipped, for any
    // window, including empty and mid-unit ones.
    let mut flipped = Vec::new();
    let mut unpack = Vec::new();
    for seed in 0..120u64 {
        let mut rng = SimRng::new(0x5_11CE ^ seed);
        let ty = arb_datatype(&mut rng).commit();
        let count = rng.range_u64(1, 4);
        let unit_size = *rng.choose(&[8u64, 64, 1024]);
        let coalesce = rng.chance(0.5);
        let plan = build_plan_opt(&ty, count, unit_size, coalesce).unwrap();
        for _ in 0..24 {
            let from = rng.range_u64(0, plan.total_bytes + 1);
            let to = rng.range_u64(from, plan.total_bytes + 1);
            plan.slice_into(from, to, &mut flipped);
            flip_units_in_place(&mut flipped);
            plan.slice_unpack_into(from, to, &mut unpack);
            assert_eq!(
                unpack, flipped,
                "seed {seed}: window {from}..{to} of {} (unit {unit_size}, coalesce {coalesce})",
                plan.total_bytes
            );
        }
    }
}

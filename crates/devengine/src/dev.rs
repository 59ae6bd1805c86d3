//! DEV generation: datatype → segment stream → CUDA-DEV work units.
//!
//! Work units are emitted in *packed-stream order*: for a pack, a unit's
//! `dst_off` equals its byte position in the packed stream (and
//! symmetrically `src_off` for an unpack). This ordering is what lets a
//! fragment of the packed stream be described by a contiguous run of
//! units, which both the fragment engine and the cache slicing rely on.

use datatype::{Convertor, DataType, PackKind, Segment, TypeError};
use simcore::par::CopyOp;

/// A borrowed view of the units covering one packed range: at most one
/// boundary-trimmed unit on each side plus an untouched middle run of
/// the plan's own units. All offsets are the plan's *absolute* packed
/// offsets — see [`DevPlan::slice_into`] for the rebased form a fragment
/// buffer needs.
#[derive(Debug)]
pub struct SliceParts<'a> {
    /// First unit, trimmed, when the range starts mid-unit.
    pub head: Option<CopyOp>,
    /// Units fully inside the range, borrowed from the plan.
    pub middle: &'a [CopyOp],
    /// Last unit, trimmed, when the range ends mid-unit.
    pub tail: Option<CopyOp>,
}

/// A fully materialized CUDA-DEV plan for `count` instances of a type,
/// in **pack orientation** (src = typed memory, dst = packed stream).
#[derive(Clone, Debug)]
pub struct DevPlan {
    /// Work units in packed-stream order.
    pub units: Vec<CopyOp>,
    /// Displacement subtracted from every typed-side offset so that all
    /// offsets are non-negative (`min(0, true_lb)`); the kernel's typed
    /// base pointer must be shifted by this amount.
    pub base_shift: i64,
    /// Total packed bytes.
    pub total_bytes: u64,
    /// Unit size the plan was built with.
    pub unit_size: u64,
}

impl DevPlan {
    /// Approximate device memory the cached descriptor array occupies
    /// (the paper's "a few MBs of GPU memory to cache the CUDA DEVs").
    pub fn descriptor_bytes(&self) -> u64 {
        self.units.len() as u64 * 32
    }

    /// The units covering packed range `[from, to)` as a borrowed view:
    /// the interior units come straight from the plan (no copy), with at
    /// most two boundary-split ops materialized for ranges that start or
    /// end mid-unit. Offsets stay absolute.
    pub fn slice_parts(&self, from: u64, to: u64) -> SliceParts<'_> {
        debug_assert!(from <= to && to <= self.total_bytes);
        // Units are sorted by dst_off; binary search both boundaries.
        let start = self
            .units
            .partition_point(|u| (u.dst_off + u.len) as u64 <= from);
        let end = self.units.partition_point(|u| (u.dst_off as u64) < to);
        let mut middle = &self.units[start..end];
        let mut head = None;
        let mut tail = None;
        if let Some(first) = middle.first() {
            let u_start = first.dst_off as u64;
            let u_end = u_start + first.len as u64;
            let lo = from.max(u_start);
            let hi = to.min(u_end);
            if hi <= lo {
                // Empty window (from == to) landing inside a unit.
                middle = &middle[..0];
            } else if lo > u_start || hi < u_end {
                head = Some(CopyOp {
                    src_off: first.src_off + (lo - u_start) as usize,
                    dst_off: lo as usize,
                    len: (hi - lo) as usize,
                });
                middle = &middle[1..];
            }
        }
        if let Some(last) = middle.last() {
            let u_start = last.dst_off as u64;
            let u_end = u_start + last.len as u64;
            let hi = to.min(u_end);
            if hi < u_end {
                tail = Some(CopyOp {
                    src_off: last.src_off,
                    dst_off: last.dst_off,
                    len: (hi - u_start) as usize,
                });
                middle = &middle[..middle.len() - 1];
            }
        }
        SliceParts { head, middle, tail }
    }

    /// Fill `out` (cleared first) with the units covering packed range
    /// `[from, to)`, rebased so the packed-side offset is relative to
    /// `from` (a fragment buffer). Units straddling the boundary are
    /// trimmed. Allocation-free once `out` has warmed up.
    pub fn slice_into(&self, from: u64, to: u64, out: &mut Vec<CopyOp>) {
        let from_us = from as usize;
        self.slice_mapped(from, to, out, |u| CopyOp {
            src_off: u.src_off,
            dst_off: u.dst_off - from_us,
            len: u.len,
        });
    }

    /// [`Self::slice_into`] in unpack orientation: the rebased packed
    /// offset is the source and the typed offset the destination —
    /// `slice_into` followed by [`flip_units_in_place`], in one pass.
    pub fn slice_unpack_into(&self, from: u64, to: u64, out: &mut Vec<CopyOp>) {
        let from_us = from as usize;
        self.slice_mapped(from, to, out, |u| CopyOp {
            src_off: u.dst_off - from_us,
            dst_off: u.src_off,
            len: u.len,
        });
    }

    fn slice_mapped(
        &self,
        from: u64,
        to: u64,
        out: &mut Vec<CopyOp>,
        map: impl Fn(&CopyOp) -> CopyOp,
    ) {
        out.clear();
        let parts = self.slice_parts(from, to);
        if let Some(h) = &parts.head {
            out.push(map(h));
        }
        out.extend(parts.middle.iter().map(&map));
        if let Some(t) = &parts.tail {
            out.push(map(t));
        }
    }

    /// Allocating convenience wrapper over [`Self::slice_into`].
    pub fn slice(&self, from: u64, to: u64) -> Vec<CopyOp> {
        let mut out = Vec::new();
        self.slice_into(from, to, &mut out);
        out
    }
}

/// Swap pack orientation into unpack orientation (packed stream becomes
/// the source, typed memory the destination).
pub fn flip_units(units: &[CopyOp]) -> Vec<CopyOp> {
    units
        .iter()
        .map(|u| CopyOp {
            src_off: u.dst_off,
            dst_off: u.src_off,
            len: u.len,
        })
        .collect()
}

/// In-place variant of [`flip_units`] for the allocation-free unpack
/// path (the unit buffer is scratch anyway).
pub fn flip_units_in_place(units: &mut [CopyOp]) {
    for u in units {
        std::mem::swap(&mut u.src_off, &mut u.dst_off);
    }
}

/// One-shot DEV walk: the full unit list for `count` elements of `ty`
/// in pack orientation (`src_off` typed, `dst_off` packed from 0),
/// plus the typed-side `base_shift`. Whole-message consumers — the
/// stream-triggered capture bakes its graph kernels from this — get
/// their program without driving a cursor fragment by fragment.
pub fn whole_units(
    ty: &DataType,
    count: u64,
    unit_size: u64,
    coalesce: bool,
) -> Result<(Vec<CopyOp>, i64), TypeError> {
    let mut cur = DevCursor::with_coalesce(ty, count, unit_size, coalesce)?;
    let shift = cur.base_shift();
    let mut units = Vec::new();
    cur.next_units_into(u64::MAX, &mut units);
    Ok((units, shift))
}

/// Streaming DEV generator: wraps the stack-based convertor and splits
/// segments into `unit_size` work units on demand — the CPU half of the
/// paper's pipeline.
pub struct DevCursor {
    cv: Convertor,
    unit_size: u64,
    /// Coalesce mode: one work unit per contiguous run instead of
    /// splitting runs at `unit_size` boundaries (the optimizer's DEV
    /// coalescing pass — fewer, larger units for the cost model).
    coalesce: bool,
    base_shift: i64,
    /// Reused batch buffer for the convertor's segment output, so
    /// steady-state streaming does not allocate per batch.
    seg_buf: Vec<(Segment, u64)>,
}

impl DevCursor {
    pub fn new(ty: &DataType, count: u64, unit_size: u64) -> Result<DevCursor, TypeError> {
        DevCursor::with_coalesce(ty, count, unit_size, false)
    }

    /// Like [`DevCursor::new`] with an explicit coalescing mode.
    pub fn with_coalesce(
        ty: &DataType,
        count: u64,
        unit_size: u64,
        coalesce: bool,
    ) -> Result<DevCursor, TypeError> {
        Ok(DevCursor {
            cv: Convertor::new(ty, count, PackKind::Pack)?,
            unit_size,
            coalesce,
            base_shift: ty.true_lb().min(0),
            seg_buf: Vec::new(),
        })
    }

    pub fn base_shift(&self) -> i64 {
        self.base_shift
    }

    pub fn total_bytes(&self) -> u64 {
        self.cv.total_bytes()
    }

    pub fn position(&self) -> u64 {
        self.cv.position()
    }

    pub fn finished(&self) -> bool {
        self.cv.finished()
    }

    /// Produce the units covering the next `max_packed` bytes of the
    /// packed stream (pack orientation, absolute packed offsets).
    pub fn next_units(&mut self, max_packed: u64) -> Vec<CopyOp> {
        let mut units = Vec::new();
        self.next_units_into(max_packed, &mut units);
        units
    }

    /// Allocation-free variant of [`Self::next_units`]: clears `out` and
    /// fills it, reusing the cursor's internal segment batch buffer.
    pub fn next_units_into(&mut self, max_packed: u64, out: &mut Vec<CopyOp>) {
        out.clear();
        let mut segs = std::mem::take(&mut self.seg_buf);
        self.cv.next_segments_into(max_packed, &mut segs);
        for (seg, packed_pos) in &segs {
            if self.coalesce {
                push_coalesced(seg.disp - self.base_shift, *packed_pos, seg.len, out);
            } else {
                split_segment(
                    seg.disp - self.base_shift,
                    *packed_pos,
                    seg.len,
                    self.unit_size,
                    out,
                );
            }
        }
        self.seg_buf = segs;
    }
}

/// Append one coalesced work unit, merging with the previous unit when
/// the two are adjacent on both the typed and the packed side (a run the
/// convertor clipped at a batch boundary).
fn push_coalesced(src_disp: i64, packed_pos: u64, len: u64, out: &mut Vec<CopyOp>) {
    debug_assert!(
        src_disp >= 0,
        "segment displacement not normalized: {src_disp}"
    );
    if let Some(last) = out.last_mut() {
        if last.src_off + last.len == src_disp as usize
            && last.dst_off + last.len == packed_pos as usize
        {
            last.len += len as usize;
            return;
        }
    }
    out.push(CopyOp {
        src_off: src_disp as usize,
        dst_off: packed_pos as usize,
        len: len as usize,
    });
}

/// Split one DEV (a contiguous segment) into CUDA-DEV units of at most
/// `unit_size` bytes. The residue stays a smaller unit, treated like any
/// other (the paper found delegating residues to a second stream not
/// worth the extra launch).
fn split_segment(src_disp: i64, packed_pos: u64, len: u64, unit_size: u64, out: &mut Vec<CopyOp>) {
    debug_assert!(
        src_disp >= 0,
        "segment displacement not normalized: {src_disp}"
    );
    let mut off = 0u64;
    while off < len {
        let l = (len - off).min(unit_size);
        out.push(CopyOp {
            src_off: (src_disp as u64 + off) as usize,
            dst_off: (packed_pos + off) as usize,
            len: l as usize,
        });
        off += l;
    }
}

/// Materialize the complete plan for `count` instances (what the cache
/// stores).
pub fn build_plan(ty: &DataType, count: u64, unit_size: u64) -> Result<DevPlan, TypeError> {
    build_plan_opt(ty, count, unit_size, false)
}

/// [`build_plan`] with an explicit coalescing mode: with `coalesce` each
/// maximal contiguous run becomes one work unit regardless of
/// `unit_size` (the recorded `unit_size` still names the configuration
/// the plan was built for, i.e. the cache key).
pub fn build_plan_opt(
    ty: &DataType,
    count: u64,
    unit_size: u64,
    coalesce: bool,
) -> Result<DevPlan, TypeError> {
    let mut cur = DevCursor::with_coalesce(ty, count, unit_size, coalesce)?;
    let total = cur.total_bytes();
    let mut units = Vec::new();
    while !cur.finished() {
        units.extend(cur.next_units(u64::MAX));
    }
    Ok(DevPlan {
        units,
        base_shift: cur.base_shift(),
        total_bytes: total,
        unit_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatype::DataType;

    fn dbl() -> DataType {
        DataType::double()
    }

    #[test]
    fn plan_conserves_bytes_and_order() {
        let v = DataType::vector(8, 4, 7, &dbl()).unwrap().commit();
        let plan = build_plan(&v, 2, 1024).unwrap();
        assert_eq!(plan.total_bytes, v.size() * 2);
        let sum: usize = plan.units.iter().map(|u| u.len).sum();
        assert_eq!(sum as u64, plan.total_bytes);
        // dst offsets are the packed stream: strictly increasing and
        // gapless.
        let mut pos = 0usize;
        for u in &plan.units {
            assert_eq!(u.dst_off, pos);
            pos += u.len;
        }
    }

    #[test]
    fn large_blocks_split_into_units() {
        // One 10 KB contiguous block with S = 1 KB -> 10 units.
        let c = DataType::contiguous(1280, &dbl()).unwrap().commit();
        let plan = build_plan(&c, 1, 1024).unwrap();
        assert_eq!(plan.units.len(), 10);
        assert!(plan.units.iter().all(|u| u.len == 1024));
    }

    #[test]
    fn residue_units_are_kept_inline() {
        // 1.5 KB blocks -> one 1 KB unit + one 512 B residue each.
        let v = DataType::vector(4, 192, 300, &dbl()).unwrap().commit();
        let plan = build_plan(&v, 1, 1024).unwrap();
        assert_eq!(plan.units.len(), 8);
        assert_eq!(plan.units[0].len, 1024);
        assert_eq!(plan.units[1].len, 512);
        // Residue is followed immediately by the next block's first unit.
        assert_eq!(plan.units[2].dst_off, 1536);
    }

    #[test]
    fn cursor_chunks_agree_with_full_plan() {
        let n = 16u64;
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        let t = DataType::indexed(&lens, &disps, &dbl()).unwrap().commit();
        let plan = build_plan(&t, 1, 256).unwrap();

        let mut cur = DevCursor::new(&t, 1, 256).unwrap();
        let mut units = Vec::new();
        while !cur.finished() {
            units.extend(cur.next_units(300)); // awkward chunk size
        }
        // Chunked generation may split units at chunk boundaries; the
        // byte coverage must be identical though.
        let cover = |us: &[CopyOp]| -> Vec<(usize, usize, usize)> {
            let mut v: Vec<(usize, usize, usize)> =
                us.iter().map(|u| (u.dst_off, u.src_off, u.len)).collect();
            v.sort_unstable();
            // Merge adjacent spans that are contiguous in both spaces.
            let mut m: Vec<(usize, usize, usize)> = Vec::new();
            for (d, s, l) in v {
                match m.last_mut() {
                    Some((md, ms, ml)) if *md + *ml == d && *ms + *ml == s => *ml += l,
                    _ => m.push((d, s, l)),
                }
            }
            m
        };
        assert_eq!(cover(&units), cover(&plan.units));
    }

    #[test]
    fn coalesced_plan_is_one_unit_per_run() {
        // One 10 KB contiguous block: 10 units at S=1 KB, 1 coalesced.
        let c = DataType::contiguous(1280, &dbl()).unwrap().commit();
        let plan = build_plan_opt(&c, 1, 1024, true).unwrap();
        assert_eq!(plan.units.len(), 1);
        assert_eq!(plan.units[0].len as u64, plan.total_bytes);
        // Strided rows stay one unit per row.
        let v = DataType::vector(4, 192, 300, &dbl()).unwrap().commit();
        let plan = build_plan_opt(&v, 1, 1024, true).unwrap();
        assert_eq!(plan.units.len(), 4);
        assert!(plan.units.iter().all(|u| u.len == 1536));
    }

    #[test]
    fn coalesced_plan_covers_same_bytes() {
        let n = 16u64;
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        let t = DataType::indexed(&lens, &disps, &dbl()).unwrap().commit();
        let plain = build_plan(&t, 2, 256).unwrap();
        let coal = build_plan_opt(&t, 2, 256, true).unwrap();
        assert_eq!(coal.total_bytes, plain.total_bytes);
        assert_eq!(coal.base_shift, plain.base_shift);
        assert!(coal.units.len() <= plain.units.len());
        // Normalized (merged) coverage must be identical.
        let cover = |us: &[CopyOp]| -> Vec<(usize, usize, usize)> {
            let mut m: Vec<(usize, usize, usize)> = Vec::new();
            for u in us {
                match m.last_mut() {
                    Some((md, ms, ml)) if *md + *ml == u.dst_off && *ms + *ml == u.src_off => {
                        *ml += u.len
                    }
                    _ => m.push((u.dst_off, u.src_off, u.len)),
                }
            }
            m
        };
        assert_eq!(cover(&coal.units), cover(&plain.units));
        // Coalesced units are maximal: no two adjacent in both spaces.
        assert_eq!(cover(&coal.units).len(), coal.units.len());
    }

    #[test]
    fn coalesced_cursor_merges_across_batch_clips() {
        // A 4 KB contiguous run streamed in 1000-byte batches: the
        // cursor cannot merge across calls (different fragments), but
        // each call's units must be internally maximal.
        let c = DataType::contiguous(512, &dbl()).unwrap().commit();
        let mut cur = DevCursor::with_coalesce(&c, 1, 256, true).unwrap();
        let mut calls = 0;
        while !cur.finished() {
            let units = cur.next_units(1000);
            assert_eq!(units.len(), 1, "one maximal unit per batch");
            calls += 1;
        }
        assert_eq!(calls, 5);
    }

    #[test]
    fn negative_lb_is_normalized() {
        let r = DataType::resized(&dbl(), -8, 16).unwrap();
        let t = DataType::hindexed(&[1, 1], &[-16, 0], &r).unwrap().commit();
        let plan = build_plan(&t, 1, 1024).unwrap();
        assert_eq!(plan.base_shift, -16);
        assert!(plan.units.iter().all(|u| u.src_off as i64 >= 0));
        assert_eq!(plan.units[0].src_off, 0); // disp -16 shifted by +16
    }

    #[test]
    fn slice_trims_and_rebases() {
        let c = DataType::contiguous(512, &dbl()).unwrap().commit(); // 4 KB
        let plan = build_plan(&c, 1, 1024).unwrap();
        assert_eq!(plan.units.len(), 4);
        // Take bytes 1500..2600: should touch units 1 and 2, trimmed.
        let s = plan.slice(1500, 2600);
        assert_eq!(s.len(), 2);
        assert_eq!(
            s[0],
            CopyOp {
                src_off: 1500,
                dst_off: 0,
                len: 548
            }
        );
        assert_eq!(
            s[1],
            CopyOp {
                src_off: 2048,
                dst_off: 548,
                len: 552
            }
        );
        let total: usize = s.iter().map(|u| u.len).sum();
        assert_eq!(total, 1100);
    }

    #[test]
    fn slice_whole_range_is_identity_coverage() {
        let v = DataType::vector(6, 2, 5, &dbl()).unwrap().commit();
        let plan = build_plan(&v, 3, 256).unwrap();
        let s = plan.slice(0, plan.total_bytes);
        assert_eq!(s.len(), plan.units.len());
        assert_eq!(s, plan.units);
    }

    #[test]
    fn slice_empty_range_is_empty() {
        let c = DataType::contiguous(512, &dbl()).unwrap().commit();
        let plan = build_plan(&c, 1, 1024).unwrap();
        assert!(plan.slice(100, 100).is_empty());
        assert!(plan.slice(plan.total_bytes, plan.total_bytes).is_empty());
    }

    #[test]
    fn slice_parts_borrows_interior_units() {
        let c = DataType::contiguous(512, &dbl()).unwrap().commit(); // 4 KB
        let plan = build_plan(&c, 1, 1024).unwrap();
        // 1500..3500 crosses units 1..3: trimmed head + trimmed tail,
        // one untouched unit borrowed in between.
        let p = plan.slice_parts(1500, 3500);
        assert_eq!(
            p.head,
            Some(CopyOp {
                src_off: 1500,
                dst_off: 1500,
                len: 548
            })
        );
        assert_eq!(p.middle.len(), 1);
        assert!(
            std::ptr::eq(&p.middle[0], &plan.units[2]),
            "middle is borrowed"
        );
        assert_eq!(
            p.tail,
            Some(CopyOp {
                src_off: 3072,
                dst_off: 3072,
                len: 428
            })
        );
        // Unit-aligned range: pure borrow, no boundary splits.
        let p = plan.slice_parts(1024, 3072);
        assert!(p.head.is_none() && p.tail.is_none());
        assert_eq!(p.middle, &plan.units[1..3]);
        // Range inside a single unit: head only.
        let p = plan.slice_parts(100, 200);
        assert_eq!(
            p.head,
            Some(CopyOp {
                src_off: 100,
                dst_off: 100,
                len: 100
            })
        );
        assert!(p.middle.is_empty() && p.tail.is_none());
    }

    #[test]
    fn slice_into_matches_slice_and_reuses_buffer() {
        let v = DataType::vector(9, 3, 7, &dbl()).unwrap().commit();
        let plan = build_plan(&v, 2, 64).unwrap();
        let mut buf = Vec::new();
        let mut from = 0u64;
        while from < plan.total_bytes {
            let to = (from + 100).min(plan.total_bytes);
            plan.slice_into(from, to, &mut buf);
            assert_eq!(buf, plan.slice(from, to), "window {from}..{to}");
            from = to;
        }
    }

    #[test]
    fn next_units_into_matches_next_units() {
        let n = 12u64;
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        let t = DataType::indexed(&lens, &disps, &dbl()).unwrap().commit();
        let mut a = DevCursor::new(&t, 2, 96).unwrap();
        let mut b = DevCursor::new(&t, 2, 96).unwrap();
        let mut buf = Vec::new();
        while !a.finished() {
            b.next_units_into(250, &mut buf);
            assert_eq!(a.next_units(250), buf);
        }
        assert!(b.finished());
    }

    #[test]
    fn flip_in_place_matches_flip() {
        let v = DataType::vector(5, 2, 6, &dbl()).unwrap().commit();
        let plan = build_plan(&v, 1, 64).unwrap();
        let mut inplace = plan.units.clone();
        flip_units_in_place(&mut inplace);
        assert_eq!(inplace, flip_units(&plan.units));
    }

    #[test]
    fn descriptor_bytes_track_units() {
        let v = DataType::vector(7, 1, 3, &dbl()).unwrap().commit();
        let plan = build_plan(&v, 1, 1024).unwrap();
        assert_eq!(plan.descriptor_bytes(), plan.units.len() as u64 * 32);
    }

    #[test]
    fn cursor_handles_unit_exact_boundaries() {
        // Segments exactly equal to the unit size: no residues.
        let c = DataType::contiguous(128, &dbl()).unwrap(); // 1 KB
        let v = DataType::vector(4, 1, 2, &c).unwrap().commit();
        let plan = build_plan(&v, 1, 1024).unwrap();
        assert_eq!(plan.units.len(), 4);
        assert!(plan.units.iter().all(|u| u.len == 1024));
    }

    #[test]
    fn flip_swaps_roles() {
        let v = DataType::vector(2, 1, 3, &dbl()).unwrap().commit();
        let plan = build_plan(&v, 1, 1024).unwrap();
        let f = flip_units(&plan.units);
        for (a, b) in plan.units.iter().zip(&f) {
            assert_eq!(a.src_off, b.dst_off);
            assert_eq!(a.dst_off, b.src_off);
            assert_eq!(a.len, b.len);
        }
    }
}

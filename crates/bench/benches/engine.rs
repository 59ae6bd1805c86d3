//! Wall-clock benchmarks of the engine's host-side hot paths (the
//! simulated-time figures live in `src/bin/fig*`; these measure the
//! real Rust code: datatype traversal, DEV generation, packing
//! throughput and simulator event rate).
//!
//! Plain `std::time::Instant` harness — no external benchmarking
//! crates, so the workspace builds fully offline. Run with
//! `cargo bench -p bench`.

use datatype::convertor::pack_all;
use datatype::testutil::{buffer_span, pattern};
use datatype::DataType;
use devengine::{build_plan, DevCache};
use simcore::par::{par_transfer, CopyOp, POOL_THREADS_ENV};
use std::hint::black_box;
use std::time::Instant;

fn triangular(n: u64) -> DataType {
    let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
    let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
    DataType::indexed(&lens, &disps, &DataType::double())
        .unwrap()
        .commit()
}

fn submatrix(n: u64) -> DataType {
    DataType::vector(n, n, 2 * n as i64, &DataType::double())
        .unwrap()
        .commit()
}

/// Time `f` over enough iterations to fill ~200 ms, after a short
/// warm-up, and report ns/iter plus optional GB/s.
fn bench(name: &str, bytes: u64, mut f: impl FnMut()) {
    // Warm-up + calibration round.
    let t0 = Instant::now();
    let mut calib = 0u32;
    while t0.elapsed().as_millis() < 50 {
        f();
        calib += 1;
    }
    let iters = (calib * 4).max(1);
    let t1 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = t1.elapsed();
    let per_iter = elapsed.as_nanos() as f64 / iters as f64;
    if bytes > 0 {
        let gbps = bytes as f64 / per_iter;
        println!("{name:<40} {per_iter:>12.0} ns/iter {gbps:>8.2} GB/s");
    } else {
        println!("{name:<40} {per_iter:>12.0} ns/iter");
    }
}

/// CPU cost of turning a datatype into CUDA-DEV work units — the
/// quantity the paper pipelines and caches.
fn bench_dev_generation() {
    for n in [256u64, 1024] {
        let t = triangular(n);
        bench(&format!("dev_generation/triangular/{n}"), t.size(), || {
            black_box(build_plan(&t, 1, 1024).unwrap().units.len());
        });
        let v = submatrix(n);
        bench(&format!("dev_generation/submatrix/{n}"), v.size(), || {
            black_box(build_plan(&v, 1, 1024).unwrap().units.len());
        });
    }
}

/// Stack-convertor pack throughput on host memory.
fn bench_cpu_pack() {
    for n in [256u64, 1024] {
        for (name, ty) in [("triangular", triangular(n)), ("submatrix", submatrix(n))] {
            let (base, len) = buffer_span(&ty, 1);
            let typed = pattern(len);
            bench(&format!("cpu_pack/{name}/{n}"), ty.size(), || {
                black_box(pack_all(&ty, 1, &typed, base).len());
            });
        }
    }
}

/// Raw segment-move throughput (the functional half of a kernel).
fn bench_par_transfer() {
    let seg = 1024usize;
    for count in [1usize << 10, 1 << 13] {
        let src = pattern(seg * count * 2);
        let mut dst = vec![0u8; seg * count];
        let ops: Vec<CopyOp> = (0..count)
            .map(|i| CopyOp {
                src_off: i * 2 * seg,
                dst_off: i * seg,
                len: seg,
            })
            .collect();
        bench(
            &format!("par_transfer/{count}"),
            (seg * count) as u64,
            || {
                par_transfer(&mut dst, &src, &ops);
                black_box(dst[0]);
            },
        );
    }
}

/// Structural vs identity cache keying on the re-built-datatype pattern
/// (a fresh Session constructing the same types each epoch): the
/// structural key hits, the identity key rebuilt the full plan.
fn bench_devcache_keying() {
    let n = 1024u64;
    let mut cache = DevCache::default();
    cache.get_or_build(&triangular(n), 1, 1024).unwrap(); // warm
    bench("devcache/structural_hit_rebuilt_type", 0, || {
        let t = triangular(n); // distinct tree, same structure
        let (_, hit) = cache.get_or_build(&t, 1, 1024).unwrap();
        black_box(hit);
    });
    bench("devcache/identity_key_rebuilds_plan", 0, || {
        let t = triangular(n);
        black_box(build_plan(&t, 1, 1024).unwrap().units.len());
    });
}

/// Segment-stream traversal rate for deep nested types.
fn bench_segment_walk() {
    let inner = DataType::vector(8, 2, 3, &DataType::double()).unwrap();
    let mid = DataType::hvector(16, 2, 1024, &inner).unwrap();
    let outer = DataType::contiguous(32, &mid).unwrap().commit();
    bench("segment_walk_nested", 0, || {
        let mut n = 0u64;
        outer.for_each_segment(4, |_, len| n += len);
        black_box(n);
    });
}

/// Discrete-event simulator throughput: a full GPU-to-GPU ping-pong,
/// measuring wall-clock per simulated transfer.
fn bench_sim_throughput() {
    use gpusim::GpuWorld as _;
    use memsim::MemSpace;
    use mpirt::api::PingPongSpec;
    use mpirt::{ping_pong, MpiConfig, MpiWorld};

    let t = triangular(256);
    bench("simulated_pingpong_T256", 0, || {
        let mut sim = simcore::Sim::new(MpiWorld::two_ranks_two_gpus(MpiConfig::default()));
        let gpu0 = sim.world.mpi.ranks[0].gpu;
        let gpu1 = sim.world.mpi.ranks[1].gpu;
        let len = t.true_ub() as u64;
        let b0 = sim.world.mem().alloc(MemSpace::Device(gpu0), len).unwrap();
        let b1 = sim.world.mem().alloc(MemSpace::Device(gpu1), len).unwrap();
        let rtt = ping_pong(
            &mut sim,
            PingPongSpec {
                ty0: t.clone(),
                count0: 1,
                buf0: b0,
                ty1: t.clone(),
                count1: 1,
                buf1: b1,
                iters: 1,
            },
        );
        black_box(rtt);
    });
}

fn main() {
    // On single-core runners the lazily-started pool would size itself
    // to one inline lane (the pooled path becomes a plain memcpy), so
    // force a small pool before anything starts it — an explicit user
    // choice always wins.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 2 && std::env::var(POOL_THREADS_ENV).is_err() {
        std::env::set_var(POOL_THREADS_ENV, "4");
    }
    println!("# copy pool: {} lanes", simcore::par::pool_info().threads);
    bench_dev_generation();
    bench_cpu_pack();
    bench_par_transfer();
    bench_devcache_keying();
    bench_segment_walk();
    bench_sim_throughput();
}

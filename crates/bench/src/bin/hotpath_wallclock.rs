//! Wall-clock regression harness for the engine's own hot paths.
//!
//! The figure binaries report *simulated* time; this binary times the
//! real Rust code executing representative runs — fig7-style triangular
//! packs, a fig10-style shared-memory ping-pong, the raw event loop and
//! the parallel copy layer — and emits `BENCH_hotpath.json` at the repo
//! root so future changes have a measured trajectory to compare against
//! (ROADMAP: "as fast as the hardware allows", with receipts).
//!
//! Virtual-time results are asserted non-zero but otherwise ignored:
//! this harness exists purely for wall-clock and allocation pressure.
//!
//! Usage:
//!   hotpath_wallclock [--smoke] [--out <path>]
//!
//! `--smoke` shrinks every workload for CI (seconds, not minutes); the
//! JSON keeps the same shape with `"mode": "smoke"` and size-suffixed
//! series names.

use bench::runner::{solo_session, Topo};
use bench::workloads::{alloc_typed, triangular};
use devengine::{pack_async, DevCache, EngineConfig};
use gpusim::GpuWorld as _;
use memsim::MemSpace;
use mpirt::api::PingPongSpec;
use mpirt::{ping_pong, MpiConfig, MpiWorld};
use simcore::par::{par_transfer, par_transfer_lanes, CopyOp};
use simcore::{scratch, Sim, SimTime};
use std::cell::RefCell;
use std::hint::black_box;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

struct Opts {
    smoke: bool,
    out: PathBuf,
}

fn parse_opts() -> Opts {
    let default_out = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_hotpath.json"
    ));
    let mut smoke = false;
    let mut out = default_out;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(args.next().expect("--out needs a path")),
            other => panic!("unknown argument {other:?} (expected --smoke / --out <path>)"),
        }
    }
    Opts { smoke, out }
}

/// One measured series: a name plus (key, value) fields, all of which
/// the CI smoke check requires to be strictly positive.
struct Series {
    name: String,
    fields: Vec<(&'static str, f64)>,
}

fn ms(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1e6
}

/// Wall-clock one fig7-style triangular pack (pipelined, cached, D2D).
/// The first call per size warms the structural cache; steady-state
/// repetitions measure the cached + pooled + recycled hot path.
fn pack_wallclock(n: u64, reps: u32, cache: &Rc<RefCell<DevCache>>) -> Series {
    let ty = triangular(n);
    let total = ty.size();
    let mut sess = solo_session(gpusim::GpuArch::default_arch(), MpiConfig::default(), false);
    let typed = alloc_typed(&mut sess, 0, &ty, 1, true, true);
    let gpu = sess.world.mpi.ranks[0].gpu;
    let packed = sess
        .world
        .mem()
        .alloc(MemSpace::Device(gpu), total)
        .unwrap();
    let stream = sess.world.mpi.ranks[0].kernel_stream;

    let once = |sess: &mut mpirt::Session| -> SimTime {
        let sim: &mut Sim<MpiWorld> = sess;
        let start = sim.now();
        pack_async(
            sim,
            0,
            stream,
            &ty,
            1,
            typed,
            packed,
            EngineConfig::default(),
            Some(cache),
            |_, _| {},
        );
        sim.run() - start
    };

    let sim_t = once(&mut sess); // warm: cache miss + page-in
    let wall = Instant::now();
    for _ in 0..reps {
        black_box(once(&mut sess));
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3 / reps as f64;
    assert!(sim_t > SimTime::ZERO);
    Series {
        name: format!("triangular_pack_{n}"),
        fields: vec![
            ("wall_ms", wall_ms),
            ("sim_ms", ms(sim_t)),
            ("bytes", total as f64),
            ("sim_bytes_per_sec", total as f64 / (ms(sim_t) / 1e3)),
            ("wall_bytes_per_sec", total as f64 / (wall_ms / 1e3)),
        ],
    }
}

/// Wall-clock a fig10-style shared-memory GPU↔GPU ping-pong, including
/// world construction (the per-session costs the structural cache and
/// scratch shelf amortize are part of what regression-watch here).
fn pingpong_wallclock(n: u64, iters: u32, reps: u32) -> Series {
    let ty = triangular(n);
    let mut last_rtt = SimTime::ZERO;
    let wall = Instant::now();
    for _ in 0..reps {
        let mut sess = Topo::Sm2Gpu
            .session(gpusim::GpuArch::default_arch(), MpiConfig::default())
            .build();
        let b0 = alloc_typed(&mut sess, 0, &ty, 1, true, true);
        let b1 = alloc_typed(&mut sess, 1, &ty, 1, true, false);
        last_rtt = ping_pong(
            &mut sess,
            PingPongSpec {
                ty0: ty.clone(),
                count0: 1,
                buf0: b0,
                ty1: ty.clone(),
                count1: 1,
                buf1: b1,
                iters,
            },
        );
        black_box(&last_rtt);
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3 / reps as f64;
    assert!(last_rtt > SimTime::ZERO);
    Series {
        name: format!("sm_pingpong_triangular_{n}"),
        fields: vec![
            ("wall_ms", wall_ms),
            ("sim_rtt_ms", ms(last_rtt)),
            ("bytes", ty.size() as f64),
        ],
    }
}

/// Raw DES throughput: a self-sustaining event cascade mixing calendar
/// events (future instants) with same-instant fast-lane events, shaped
/// like the fragment pipeline's callback pattern. Best-of-`reps`: on
/// shared single-vCPU runners individual runs vary ±30%, and the best
/// run is the one that reflects the code rather than the neighbours.
fn events_wallclock(target_events: u64, reps: u32) -> Series {
    fn tick(sim: &mut Sim<u64>, remaining: u64) {
        if remaining == 0 {
            return;
        }
        // Three deferred same-instant callbacks per future event — the
        // ratio process_fragment produces under pipelining.
        for _ in 0..3 {
            sim.schedule_now(|s| s.world += 1);
        }
        sim.schedule_in(SimTime::from_nanos(10), move |s| tick(s, remaining - 1));
    }
    // Kept out-of-line: folding this body into the rep loop demotes the
    // scheduler's inlined fast paths and costs ~30% measured throughput.
    #[inline(never)]
    fn one_run(target_events: u64) -> (u64, f64) {
        let mut sim = Sim::new(0u64);
        let wall = Instant::now();
        tick(&mut sim, target_events / 4);
        sim.run();
        (sim.executed_events(), wall.elapsed().as_secs_f64())
    }
    let mut best: Option<(u64, f64)> = None; // (executed, secs)
    for _ in 0..reps {
        let (executed, secs) = one_run(target_events);
        assert!(executed >= target_events);
        if best.is_none_or(|(_, b)| secs < b) {
            best = Some((executed, secs));
        }
    }
    let (executed, secs) = best.unwrap();
    Series {
        name: "events_per_sec".to_string(),
        fields: vec![
            ("events", executed as f64),
            ("wall_ms", secs * 1e3),
            ("events_per_sec", executed as f64 / secs),
        ],
    }
}

/// Pooled `par_transfer` on a ≥1 MB gather of 4 KB segments.
fn transfer_wallclock(mb: usize, reps: u32) -> Series {
    let seg = 4096usize;
    let count = (mb << 20) / seg;
    let src: Vec<u8> = (0..seg * count * 2).map(|i| (i % 251) as u8).collect();
    let mut dst = vec![0u8; seg * count];
    let ops: Vec<CopyOp> = (0..count)
        .map(|i| CopyOp {
            src_off: i * 2 * seg,
            dst_off: i * seg,
            len: seg,
        })
        .collect();
    let bytes = (seg * count) as f64;
    par_transfer(&mut dst, &src, &ops); // warm
    let wall = Instant::now();
    for _ in 0..reps {
        par_transfer(&mut dst, &src, &ops);
        black_box(dst[0]);
    }
    Series {
        name: format!("par_transfer_pooled_{mb}mb"),
        fields: vec![(
            "gbps",
            bytes * reps as f64 / wall.elapsed().as_secs_f64() / 1e9,
        )],
    }
}

/// The same gather pinned to each lane count the pool can actually
/// provide (1, 2, 4, … up to its worker count): the honest per-core
/// scaling curve of the pooled path on *this* machine. On a single-core
/// runner this is one series — claiming more would measure
/// oversubscription, not the code.
fn transfer_lanes_wallclock(mb: usize, reps: u32) -> Vec<Series> {
    let seg = 4096usize;
    let count = (mb << 20) / seg;
    let src: Vec<u8> = (0..seg * count * 2).map(|i| (i % 251) as u8).collect();
    let mut dst = vec![0u8; seg * count];
    let ops: Vec<CopyOp> = (0..count)
        .map(|i| CopyOp {
            src_off: i * 2 * seg,
            dst_off: i * seg,
            len: seg,
        })
        .collect();
    let bytes = (seg * count) as f64;
    let max_lanes = simcore::par::pool_info().threads;
    let mut series = Vec::new();
    let mut lanes = 1usize;
    while lanes <= max_lanes {
        par_transfer_lanes(&mut dst, &src, &ops, lanes); // warm
        let wall = Instant::now();
        for _ in 0..reps {
            par_transfer_lanes(&mut dst, &src, &ops, lanes);
            black_box(dst[0]);
        }
        let gbps = bytes * reps as f64 / wall.elapsed().as_secs_f64() / 1e9;
        series.push(Series {
            name: format!("par_transfer_pooled_{mb}mb_{lanes}lane"),
            fields: vec![("gbps", gbps), ("lanes", lanes as f64)],
        });
        lanes *= 2;
    }
    series
}

/// Fine-grained gather: 64-byte segments, the regime where the chunked
/// head+tail copy tiers beat a per-segment `memcpy` call (above ~128 B
/// the libc copy wins and `copy_segment` defers to it).
fn fine_transfer_wallclock(mb: usize, reps: u32) -> Series {
    let seg = 64usize;
    let count = (mb << 20) / seg;
    let src: Vec<u8> = (0..seg * count * 2).map(|i| (i % 251) as u8).collect();
    let mut dst = vec![0u8; seg * count];
    let ops: Vec<CopyOp> = (0..count)
        .map(|i| CopyOp {
            src_off: i * 2 * seg,
            dst_off: i * seg,
            len: seg,
        })
        .collect();
    let bytes = (seg * count) as f64;
    par_transfer(&mut dst, &src, &ops); // warm
    let wall = Instant::now();
    for _ in 0..reps {
        par_transfer(&mut dst, &src, &ops);
        black_box(dst[0]);
    }
    let gbps = bytes * reps as f64 / wall.elapsed().as_secs_f64() / 1e9;
    Series {
        name: format!("par_transfer_fine_{mb}mb"),
        fields: vec![("gbps", gbps)],
    }
}

fn json_escape_check(s: &str) -> &str {
    assert!(
        s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
        "series names are [A-Za-z0-9_] by construction: {s}"
    );
    s
}

fn write_json(opts: &Opts, pool: simcore::par::PoolInfo, series: &[Series]) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"hotpath-wallclock/v1\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if opts.smoke { "smoke" } else { "full" }
    ));
    out.push_str(&format!("  \"pool_threads\": {},\n", pool.threads));
    out.push_str(&format!("  \"pool_from_env\": {},\n", pool.from_env));
    out.push_str("  \"series\": {\n");
    for (i, s) in series.iter().enumerate() {
        out.push_str(&format!("    \"{}\": {{", json_escape_check(&s.name)));
        for (j, (k, v)) in s.fields.iter().enumerate() {
            assert!(
                v.is_finite() && *v > 0.0,
                "{}.{k} must be positive, got {v}",
                s.name
            );
            out.push_str(&format!("\"{k}\": {v:.6}"));
            if j + 1 < s.fields.len() {
                out.push_str(", ");
            }
        }
        out.push('}');
        out.push_str(if i + 1 < series.len() { ",\n" } else { "\n" });
    }
    out.push_str("  },\n");
    let st = scratch::stats();
    out.push_str("  \"alloc\": {");
    out.push_str(&format!(
        "\"takes\": {}, \"fresh\": {}, \"recycled\": {}, \"dropped\": {}, \
         \"trimmed\": {}, \"trimmed_units\": {}, \"decayed\": {}, \
         \"retained_units\": {}, \"peak_retained_units\": {}",
        st.takes,
        st.fresh,
        st.recycled,
        st.dropped,
        st.trimmed,
        st.trimmed_units,
        st.decayed,
        st.retained_units,
        st.peak_retained_units
    ));
    out.push_str("}\n}\n");
    std::fs::write(&opts.out, &out).unwrap_or_else(|e| panic!("write {}: {e}", opts.out.display()));
    println!("wrote {}", opts.out.display());
}

fn main() {
    let opts = parse_opts();
    // The pool sizes itself to the machine (one inline lane on a
    // single-core runner — the honest configuration; forcing extra
    // threads there only measures oversubscription). An explicit
    // GPU_DDT_COPY_THREADS still wins.
    let pool = simcore::par::pool_info(); // starts workers, logs sizing
    scratch::reset_stats();

    let (pack_sizes, pack_reps): (&[u64], u32) = if opts.smoke {
        (&[256, 512], 3)
    } else {
        (&[2048, 8192], 3)
    };
    let (pp_n, pp_iters, pp_reps) = if opts.smoke { (128, 1, 2) } else { (512, 2, 3) };
    let target_events: u64 = if opts.smoke { 200_000 } else { 2_000_000 };
    let (transfer_mb, transfer_reps) = if opts.smoke { (1, 40) } else { (4, 200) };

    let mut series: Vec<Series> = Vec::new();

    // Fig7-style packs share one structural cache across sessions — the
    // second size misses once, repetitions all hit.
    let cache = Rc::new(RefCell::new(DevCache::default()));
    for &n in pack_sizes {
        eprintln!("# triangular pack {n}...");
        series.push(pack_wallclock(n, pack_reps, &cache));
    }
    eprintln!("# sm ping-pong {pp_n}...");
    series.push(pingpong_wallclock(pp_n, pp_iters, pp_reps));
    eprintln!("# event loop...");
    series.push(events_wallclock(target_events, 5));
    eprintln!("# par_transfer pooled...");
    series.push(transfer_wallclock(transfer_mb, transfer_reps));
    eprintln!("# par_transfer per-lane scaling...");
    series.extend(transfer_lanes_wallclock(transfer_mb, transfer_reps));
    eprintln!("# par_transfer fine-grained (64 B segments)...");
    series.push(fine_transfer_wallclock(transfer_mb, transfer_reps));

    // The full-size pack workload is the one that used to balloon the
    // scratch shelf to 9468 idle units; assert the trim policy actually
    // engaged and held the high-water mark at the cap.
    if !opts.smoke {
        let st = scratch::stats();
        assert!(
            st.trimmed_units > 0,
            "high-water trim never engaged (peak {} units)",
            st.peak_retained_units
        );
        assert!(
            st.peak_retained_units <= scratch::SHELF_CAP_UNITS,
            "shelf exceeded its cap: {} > {}",
            st.peak_retained_units,
            scratch::SHELF_CAP_UNITS
        );
    }

    for s in &series {
        let fields: Vec<String> = s
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v:.3}"))
            .collect();
        println!("{:<32} {}", s.name, fields.join("  "));
    }
    write_json(&opts, pool, &series);
}

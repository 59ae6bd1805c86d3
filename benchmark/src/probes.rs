//! Per-layer measurements for the traced run. Each probe times the
//! benchmark's own calls into one layer's public functions, on the
//! workload's own datatypes, or reads counters the program exposes
//! (`Session::metrics()`, `scratch::stats()`, `MemPool::peak`).

use crate::common::{mpi_config, pattern, span_ms, TypedBuf};
use crate::spans::Spans;
use crate::stats::median;
use bench::runner::{solo_session, Topo};
use datatype::convertor::pack_all;
use datatype::testutil::buffer_span;
use datatype::DataType;
use devengine::{build_plan_opt, pack_async};
use gpusim::{GpuArch, GpuWorld as _};
use memsim::{GpuId, MemSpace};
use mpirt::protocol::Side;
use mpirt::tuner::{select_path, tuned_shape, PathClass};
use mpirt::Session;
use simcore::par::par_transfer;
use simcore::trace::names;
use simcore::{Sim, SimTime};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub type Layers = BTreeMap<&'static str, f64>;

/// Repetitions behind each probe timing; the median is reported.
const REPS: usize = 5;

/// Median host seconds of `REPS` calls of `f`, each inside span `name`.
fn median_s(spans: &mut Spans, name: &'static str, mut f: impl FnMut()) -> f64 {
    let s: Vec<f64> = (0..REPS)
        .map(|_| span_ms(spans, name, &mut f).1 / 1e3)
        .collect();
    median(&s)
}

/// Share of scratch-shelf takes served without allocating, since the
/// workload's last `scratch::reset_stats`.
pub fn scratch_recycle(l: &mut Layers) {
    let st = simcore::scratch::stats();
    l.insert(
        "simcore.scratch.recycle_ratio",
        st.recycled as f64 / st.takes.max(1) as f64,
    );
}

/// Counters the sessions expose, per timed operation, plus the timed
/// `Session::metrics()` call itself and the memory pools' peaks.
pub fn session_counters(sessions: &mut [Session], ops: f64, spans: &mut Spans, l: &mut Layers) {
    const PER_OP: [&str; 12] = [
        names::MPIRT_WIRE_BYTES,
        names::GPUSIM_KERNEL_LAUNCHES,
        names::GPUSIM_KERNEL_UNITS,
        names::GPUSIM_KERNEL_BYTES,
        names::GPUSIM_MEMCPY_D2H_BYTES,
        names::GPUSIM_MEMCPY_H2D_BYTES,
        names::GPUSIM_MEMCPY_P2P_BYTES,
        names::NETSIM_AM_COUNT,
        names::NETSIM_RDMA_BYTES,
        names::OPTIMIZER_FRAG_TUNED,
        names::OPTIMIZER_FRAG_CACHE_HIT,
        names::DEVENGINE_CACHE_EVICT,
    ];
    const CACHE: [&str; 2] = [names::DEVENGINE_CACHE_HIT, names::DEVENGINE_CACHE_MISS];
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    let mut metrics_ms = Vec::new();
    let mut peak = 0u64;
    for sess in sessions.iter_mut() {
        let (m, ms) = span_ms(spans, "mpirt.metrics", || sess.metrics());
        metrics_ms.push(ms);
        for &name in PER_OP.iter().chain(&CACHE) {
            *totals.entry(name).or_default() += m.counter(name);
        }
        let mem = sess.world.mem();
        let mut spaces = vec![MemSpace::Host];
        for g in 0..mem.gpu_count() {
            spaces.push(MemSpace::Device(GpuId(g)));
        }
        peak += spaces.into_iter().map(|s| mem.pool(s).peak()).sum::<u64>();
    }
    for name in PER_OP {
        l.insert(name, totals[name] as f64 / ops);
    }
    let (hit, miss) = (
        totals[names::DEVENGINE_CACHE_HIT],
        totals[names::DEVENGINE_CACHE_MISS],
    );
    l.insert(
        "devengine.cache.hit_ratio",
        hit as f64 / (hit + miss).max(1) as f64,
    );
    l.insert("mpirt.metrics_ms", median(&metrics_ms));
    l.insert("memsim.peak_bytes", peak as f64);
    scratch_recycle(l);
}

/// Datatype and engine layers on the workload's own layouts:
/// construction + commit + canonicalization (via `rebuild`), DEV plan
/// builds and their descriptor size, `par_transfer` over the plans'
/// copy lists, the CPU convertor on `host` layouts, and a solo-session
/// `pack_async` on `device` layouts.
pub fn datatype_layers(
    mut rebuild: impl FnMut() -> Vec<DataType>,
    device: &[(DataType, u64)],
    host: &[(DataType, u64)],
    seed: u64,
    spans: &mut Spans,
    l: &mut Layers,
) {
    let mut built = 0usize;
    let build_s = median_s(spans, "datatype.build_commit", || {
        let tys = rebuild();
        for t in &tys {
            black_box(t.canonical());
        }
        built = tys.len();
    });
    l.insert(
        "datatype.build_commit_us",
        build_s * 1e6 / built.max(1) as f64,
    );

    let unit = mpi_config().engine.unit_size;
    let (mut plan_s, mut desc, mut copy_s, mut copy_bytes) = (0.0, 0u64, 0.0, 0u64);
    for (ty, count) in device {
        let mut plan = None;
        plan_s += median_s(spans, "devengine.build_plan", || {
            plan = Some(build_plan_opt(ty, *count, unit, true).expect("plan"));
        });
        let plan = plan.expect("built");
        desc += plan.descriptor_bytes();
        let (base, len) = buffer_span(ty, *count);
        let src = pattern(len, seed);
        let src = &src[(base + plan.base_shift) as usize..];
        let mut dst = vec![0u8; plan.total_bytes as usize];
        copy_s += median_s(spans, "simcore.par.transfer", || {
            par_transfer(&mut dst, src, &plan.units)
        });
        copy_bytes += plan.total_bytes;
    }
    let n = device.len().max(1) as f64;
    l.insert("devengine.plan_build_us", plan_s * 1e6 / n);
    l.insert("devengine.descriptor_bytes", desc as f64 / n);
    l.insert("simcore.par.copy_gbps", copy_bytes as f64 / copy_s / 1e9);

    let (mut cpu_s, mut cpu_bytes) = (0.0, 0u64);
    for (ty, count) in host {
        let (base, len) = buffer_span(ty, *count);
        let typed = pattern(len, seed);
        cpu_s += median_s(spans, "datatype.cpu_pack", || {
            black_box(pack_all(ty, *count, &typed, base));
        });
        cpu_bytes += ty.size() * count;
    }
    if !host.is_empty() {
        l.insert("datatype.cpu_pack_gbps", cpu_bytes as f64 / cpu_s / 1e9);
    }

    l.insert(
        "devengine.pack_host_gbps",
        pack_host_gbps(device, seed, spans),
    );
}

/// Host throughput of the GPU pack engine alone: `pack_async` plus
/// `Sim::run` in a one-rank session, DEV cache warm.
fn pack_host_gbps(device: &[(DataType, u64)], seed: u64, spans: &mut Spans) -> f64 {
    let mut sess = solo_session(GpuArch::named("k40"), mpi_config(), false);
    let cfg = mpi_config().engine;
    let cache = sess.world.mpi.ranks[0].dev_cache.clone();
    let stream = sess.world.mpi.ranks[0].kernel_stream;
    let (mut secs, mut bytes) = (0.0, 0u64);
    for (ty, count) in device {
        let (base, len) = buffer_span(ty, *count);
        let total = ty.size() * count;
        let typed = TypedBuf::alloc(&mut sess, 0, true, len, Some(&pattern(len, seed)));
        let packed = TypedBuf::alloc(&mut sess, 0, true, total as usize, None);
        let once = |sess: &mut Session| {
            pack_async(
                sess,
                0,
                stream,
                ty,
                *count,
                typed.at(base),
                packed.raw,
                cfg.clone(),
                Some(&cache),
                |_, _| {},
            );
            sess.run();
        };
        once(&mut sess); // warm: plan build + cache fill
        secs += median_s(spans, "devengine.pack_async", || once(&mut sess));
        bytes += total;
        sess.world.mem().free(typed.raw).expect("free");
        sess.world.mem().free(packed.raw).expect("free");
    }
    bytes as f64 / secs / 1e9
}

/// One transfer shape whose tuning decision the tuner probe times.
pub struct TunerCase {
    pub topo: Topo,
    pub sty: DataType,
    pub rty: DataType,
    pub count: u64,
    pub send_dev: bool,
    pub recv_dev: bool,
}

/// `tuner::select_path` + `tuner::tuned_shape` on keys the probe
/// session has never seen (a fresh session per case), as the protocol
/// layer calls them: same-node device pairs take the IPC ring, the rest
/// ask the path selector first.
pub fn tuner_decide(cases: &[TunerCase], spans: &mut Spans, l: &mut Layers) {
    let cfg = mpi_config();
    let mut us = Vec::new();
    for c in cases {
        let mut sess = c.topo.session(GpuArch::named("k40"), cfg.clone()).build();
        let sbuf = TypedBuf::alloc(&mut sess, 0, c.send_dev, 1, None);
        let rbuf = TypedBuf::alloc(&mut sess, 1, c.recv_dev, 1, None);
        let s = Side {
            rank: 0,
            ty: c.sty.clone(),
            count: c.count,
            buf: sbuf.raw,
        };
        let r = Side {
            rank: 1,
            ty: c.rty.clone(),
            count: c.count,
            buf: rbuf.raw,
        };
        let same_node = sess.world.same_node(0, 1);
        let (_, ms) = span_ms(spans, "mpirt.tuner.decide", || {
            let class = if same_node && c.send_dev && c.recv_dev {
                PathClass::SmIpc
            } else {
                select_path(&mut sess, &s, &r, same_node)
            };
            black_box(tuned_shape(
                &mut sess,
                &s,
                &r,
                class,
                cfg.frag_size,
                cfg.pipeline_depth,
            ))
        });
        us.push(ms * 1e3);
    }
    l.insert("mpirt.tuner.decide_us", median(&us));
}

/// The engine's floor: a bare self-sustaining cascade of three
/// same-instant callbacks per future event (the fragment pipeline's
/// ratio), timed as host ns per executed event.
pub fn event_cascade(spans: &mut Spans, l: &mut Layers) {
    fn tick(sim: &mut Sim<u64>, remaining: u64) {
        if remaining == 0 {
            return;
        }
        for _ in 0..3 {
            sim.schedule_now(|s| s.world += 1);
        }
        sim.schedule_in(SimTime::from_nanos(10), move |s| tick(s, remaining - 1));
    }
    let mut ns = Vec::new();
    for _ in 0..REPS {
        let mut sim = Sim::new(0u64);
        let t = Instant::now();
        spans.time("simcore.event.cascade", || {
            tick(&mut sim, 250_000);
            sim.run();
        });
        ns.push(t.elapsed().as_nanos() as f64 / sim.executed_events() as f64);
    }
    l.insert("simcore.event.cascade_ns_per_event", median(&ns));
}

//! `collective_scale`: 1024-rank collectives on the message-level scale
//! model (`mpirt::scale`) over a fat tree, with a transient `WireCopy`
//! fault plan live, on one shard. No datatypes, no bytes moved: pure
//! dispatch through the `simcore` calendar queue, the scale model,
//! faultsim rolls and netsim latency.
//!
//! The ops come from `mpirt::scale::random_program` in program order,
//! grouped into five jobs per size — alltoall, bcast, barrier,
//! allgather, and an RMA epoch (a put ring then a get ring) — and nine
//! sizes make a 45-job block. A pass runs one size's jobs, the cheap
//! ones more than once ([`RUNS`]), so every run measures the same mix
//! whatever its seed: the median lands inside the RMA class and the p90
//! inside the alltoall/allgather class, never on the edge between two.
//!
//! One operation is one job run on 1024 ranks: built untimed, then
//! `ShardedSim::run` + `scale::finish` are timed. Each run is checked
//! rank by rank against the message counts its ops imply; a job's first
//! run is its reference, and every later run of it must reproduce its
//! digest and end time bit for bit.

use crate::check::msgs_mismatch;
use crate::common::{overhead_ratio, repeat_setup, span_ms, Opts, Outcome};
use crate::probes::{self, Layers};
use crate::spans::{Spans, OP};
use crate::stats::{median, Json};
use faultsim::{FaultKind, FaultOp, FaultPlan, FaultSim};
use mpirt::scale::{self, random_program, ScaleConfig, ScaleModel, ScaleOp, ScaleReport};
use netsim::Topology;
use simcore::rng::SimRng;
use simcore::shard::ShardedSim;
use simcore::trace::names;
use simcore::SimTime;
use std::hint::black_box;
use std::time::Instant;

const RANKS: u32 = 1024;
/// `random_program` draws message sizes `64 << 0..9`.
const SIZES: usize = 9;
/// Op kinds, in the order [`kind`] numbers them.
const KINDS: usize = 6;
/// Jobs per size: the put and get rings share one.
const JOBS: usize = 5;
/// Runs of each job per pass, in job order (alltoall, bcast, barrier,
/// allgather, RMA): ten runs, two of them the expensive collectives.
const RUNS: [usize; JOBS] = [1, 3, 2, 1, 3];

fn kind(op: &ScaleOp) -> usize {
    match op {
        ScaleOp::Alltoall { .. } => 0,
        ScaleOp::Bcast { .. } => 1,
        ScaleOp::Barrier => 2,
        ScaleOp::Allgather { .. } => 3,
        ScaleOp::PutRing { .. } => 4,
        ScaleOp::GetRing { .. } => 5,
    }
}

fn size_class(op: &ScaleOp) -> Option<usize> {
    match *op {
        ScaleOp::Bcast { bytes, .. }
        | ScaleOp::Allgather { bytes }
        | ScaleOp::Alltoall { bytes }
        | ScaleOp::PutRing { bytes }
        | ScaleOp::GetRing { bytes } => Some((bytes / 64).trailing_zeros() as usize),
        ScaleOp::Barrier => None,
    }
}

/// The first op of every (kind, size) class in `random_program(seed)`
/// order (barriers, which carry no size, fill their nine slots in
/// order), as job programs laid out size-major so each consecutive five
/// jobs hold every kind.
pub fn block(seed: u64) -> Vec<Vec<ScaleOp>> {
    let mut slots = [[None::<ScaleOp>; SIZES]; KINDS];
    let mut len = 1024;
    loop {
        for op in random_program(seed, RANKS, len) {
            let row = &mut slots[kind(&op)];
            let col = size_class(&op).or_else(|| row.iter().position(Option::is_none));
            if let Some(c) = col {
                row[c].get_or_insert(op);
            }
        }
        if slots.iter().flatten().all(Option::is_some) {
            break;
        }
        len *= 2;
    }
    let op = |k: usize, c: usize| slots[k][c].expect("every class filled");
    (0..SIZES)
        .flat_map(|c| {
            [
                vec![op(0, c)],
                vec![op(1, c)],
                vec![op(2, c)],
                vec![op(3, c)],
                vec![op(4, c), op(5, c)],
            ]
        })
        .collect()
}

pub fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::empty().with_seed(seed ^ 0xFA17).with_rule(
        Some(FaultOp::WireCopy),
        FaultKind::Transient,
        0.01,
    )
}

/// One job, with its own jitter stream.
fn job(program: Vec<ScaleOp>, j: usize, seed: u64) -> ScaleConfig {
    ScaleConfig {
        ranks: RANKS,
        topo: Topology::FatTree {
            ranks_per_node: 8,
            radix: 4,
        },
        program,
        fault_plan: fault_plan(seed),
        seed: SimRng::for_stream(seed, j as u64).next_u64(),
    }
}

/// The block's jobs for `seed`.
pub fn jobs(seed: u64) -> Vec<ScaleConfig> {
    block(seed)
        .into_iter()
        .enumerate()
        .map(|(j, program)| job(program, j, seed))
        .collect()
}

/// The scale-model layers, measured on the first pass of the block
/// `cfgs`: messages, fault injections and retries per job run, the cost
/// of a `FaultSim::roll`, and the 2- vs 1-shard speed-up. The traced runs
/// of this workload and of `ddt_churn` both report them. Fails when a
/// job's message counts or its 2-shard run are wrong.
pub fn scale_layers(
    cfgs: &[ScaleConfig],
    seed: u64,
    spans: &mut Spans,
    l: &mut Layers,
) -> Result<(), String> {
    let mut acc = LayerAcc::default();
    for (i, &n) in RUNS.iter().enumerate() {
        for _ in 0..n {
            let (rep, _) = timed_run(&cfgs[i], 1, scale::build(&cfgs[i], 1), spans, &mut acc);
            verdict(&cfgs[i], &rep, None)?;
        }
    }
    let runs = acc.runs as f64;
    l.insert("scale.msgs", acc.msgs as f64 / runs);
    l.insert("fault.injected", acc.injected as f64 / runs);
    l.insert("retry.attempts", acc.retries as f64 / runs);
    fault_rolls(seed, spans, l);
    shard_speedup(cfgs, spans, l).map_err(|e| format!("2-shard run failed its identity check: {e}"))
}

/// Why a finished job is wrong, if it is.
fn verdict(
    cfg: &ScaleConfig,
    rep: &ScaleReport,
    reference: Option<(u64, u64)>,
) -> Result<(), String> {
    let ops = &cfg.program;
    if let Some((r, got, want)) = msgs_mismatch(ops, RANKS, |r| {
        rep.trace.counter_at(names::SCALE_MSGS, r, 0)
    }) {
        return Err(format!(
            "{ops:?}: rank {r} received {got} messages, expected {want}"
        ));
    }
    if rep.executed != rep.msgs + u64::from(RANKS) {
        return Err(format!(
            "{ops:?}: {} deliveries for {} messages",
            rep.executed, rep.msgs
        ));
    }
    match reference {
        Some(want) if want != (rep.digest, rep.end_time.as_nanos()) => Err(format!(
            "{ops:?}: digest/end time {:?} differs from its reference {want:?}",
            (rep.digest, rep.end_time.as_nanos())
        )),
        _ => Ok(()),
    }
}

#[derive(Default)]
struct LayerAcc {
    run_ns: f64,
    events: u64,
    msgs: u64,
    injected: u64,
    retries: u64,
    runs: u64,
}

/// Time `run` + `finish` of a built job.
fn timed_run(
    cfg: &ScaleConfig,
    shards: u32,
    sim: ShardedSim<ScaleModel>,
    spans: &mut Spans,
    acc: &mut LayerAcc,
) -> (ScaleReport, f64) {
    let t = Instant::now();
    let (run, run_ms) = span_ms(spans, "simcore.shard.run", || sim.run());
    let rep = spans.time("mpirt.scale.finish", || scale::finish(cfg, shards, run));
    let host_ms = t.elapsed().as_secs_f64() * 1e3;
    acc.run_ns += run_ms * 1e6;
    acc.events += rep.executed;
    acc.msgs += rep.msgs;
    acc.injected += rep.trace.counter(names::FAULT_INJECTED);
    acc.retries += rep.trace.counter(names::RETRY_ATTEMPTS);
    acc.runs += 1;
    (rep, host_ms)
}

pub fn run(opts: &Opts, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let mut acc = LayerAcc::default();
    // Set-up builds every job of the block once. The timed loop builds
    // each job again just before running it, so every operation starts
    // from the same freshly built state.
    let cfgs = repeat_setup(&mut out, || {
        let cfgs = jobs(opts.seed);
        let sims: Vec<_> = spans.time("mpirt.scale.build", || {
            cfgs.iter().map(|c| scale::build(c, 1)).collect()
        });
        drop(sims);
        cfgs
    });
    out.ref_ops = cfgs.len();
    let schedule: Vec<usize> = (0..cfgs.len())
        .flat_map(|i| std::iter::repeat_n(i, RUNS[i % JOBS]))
        .collect();
    let per_pass = RUNS.iter().sum::<usize>();
    let mut reference: Vec<Option<(u64, u64)>> = vec![None; cfgs.len()];
    simcore::scratch::reset_stats();

    let mut j = 0usize;
    while j < schedule.len() || out.measuring(opts) || !j.is_multiple_of(per_pass) {
        let i = schedule[j % schedule.len()];
        let cfg = &cfgs[i];
        spans.set_op(j as u64);
        spans.enter(OP);
        let sim = spans.time("mpirt.scale.build", || scale::build(cfg, 1));
        let (rep, host_ms) = timed_run(cfg, 1, sim, spans, &mut acc);
        let v = spans.time("bench.check", || verdict(cfg, &rep, reference[i]));
        spans.exit();
        if let Err(e) = &v {
            eprintln!("collective failed its check: {e}");
        }
        out.tally(v.is_ok());
        out.record(host_ms);
        if reference[i].is_none() {
            reference[i] = Some((rep.digest, rep.end_time.as_nanos()));
            out.sim_ns += rep.end_time.as_nanos();
            out.digest.add(rep.end_time.as_nanos());
            out.digest.add(rep.digest);
        }
        j += 1;
    }
    out.notes.push(("ranks", Json::Int(RANKS as u64)));
    out.notes.push(("block_jobs", Json::Int(cfgs.len() as u64)));
    out.notes
        .push(("runs_per_pass", Json::Int(per_pass as u64)));

    if spans.on() {
        let ops = out.op_ms.len() as f64;
        let l = &mut out.layers;
        l.insert("simcore.event.executed", acc.events as f64 / ops);
        l.insert("simcore.event.ns_per_event", acc.run_ns / acc.events as f64);
        l.insert(
            "simcore.event.events_per_s",
            acc.events as f64 / (acc.run_ns / 1e9),
        );
        probes::scratch_recycle(l);
        if let Err(e) = scale_layers(&cfgs, opts.seed, spans, l) {
            eprintln!("{e}");
            out.tally(false);
        }
        // Tracing overhead on the block's first pass.
        let ratio = overhead_ratio(|sp| {
            schedule[..per_pass]
                .iter()
                .map(|&i| &cfgs[i])
                .map(|cfg| timed_run(cfg, 1, scale::build(cfg, 1), sp, &mut LayerAcc::default()).1)
                .sum()
        });
        out.layers.insert("bench.trace.overhead_ratio", ratio);
    }
    out
}

/// Host ns per `FaultSim::roll` under the workload's plan.
fn fault_rolls(seed: u64, spans: &mut Spans, l: &mut Layers) {
    const ROLLS: u64 = 1 << 20;
    let mut ns = Vec::new();
    for _ in 0..3 {
        let mut f = FaultSim::for_rank(&fault_plan(seed), 0);
        let (_, ms) = span_ms(spans, "faultsim.roll", || {
            for t in 0..ROLLS {
                black_box(f.roll(FaultOp::WireCopy, SimTime::from_nanos(t)));
            }
        });
        ns.push(ms * 1e6 / ROLLS as f64);
    }
    l.insert("faultsim.roll_ns", median(&ns));
}

/// Events/s of the block's alltoall on two shards over one, after
/// checking the two-shard run bit-identical to the one-shard run.
fn shard_speedup(cfgs: &[ScaleConfig], spans: &mut Spans, l: &mut Layers) -> Result<(), String> {
    let cfg = cfgs
        .iter()
        .find(|c| matches!(c.program[0], ScaleOp::Alltoall { .. }))
        .expect("block holds an alltoall");
    let mut rate = [0.0f64; 2];
    let mut key = [(0u64, 0u64, 0u64); 2];
    for (k, shards) in [1u32, 2].into_iter().enumerate() {
        let mut secs = Vec::new();
        for _ in 0..3 {
            let sim = scale::build(cfg, shards);
            let (rep, ms) = timed_run(cfg, shards, sim, spans, &mut LayerAcc::default());
            secs.push(ms / 1e3);
            key[k] = (rep.digest, rep.msgs, rep.end_time.as_nanos());
            rate[k] = rep.executed as f64;
        }
        rate[k] /= median(&secs);
    }
    l.insert("simcore.shard.speedup_2v1", rate[1] / rate[0]);
    if key[0] == key[1] {
        Ok(())
    } else {
        Err(format!("1 shard {:?} vs 2 shards {:?}", key[0], key[1]))
    }
}

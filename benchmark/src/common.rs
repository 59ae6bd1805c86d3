//! What every workload shares: options, the outcome record, the
//! environment-independent runtime config and typed simulator buffers.

use crate::spans::Spans;
use crate::stats::{median, Fnv, Json};
use devengine::{EngineConfig, OptimizerConfig};
use faultsim::FaultPlan;
use gpusim::GpuWorld as _;
use memsim::{MemSpace, Ptr};
use mpirt::{MpiConfig, MpiWorld};
use simcore::Sim;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Command-line options of one run.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything a workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host ms of each timed operation, and their sum.
    pub op_ms: Vec<f64>,
    timed_ms: f64,
    /// Operations attempted (timed ones plus set-up warm-ups).
    pub attempted: u64,
    /// Operations that failed: an `MpiError`, a byte mismatch with the
    /// reference pack, or a digest or message-count mismatch.
    pub failed: u64,
    /// Simulated ns summed over the workload's reference operations.
    pub sim_ns: u64,
    /// FNV over every simulated time the reference operations produced.
    pub digest: Fnv,
    /// How many operations the reference set holds.
    pub ref_ops: usize,
    /// Per-layer metrics (traced run only), keyed by metric name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra workload facts for the report line.
    pub notes: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Record one timed operation's host ms.
    pub fn record(&mut self, ms: f64) {
        self.op_ms.push(ms);
        self.timed_ms += ms;
    }

    pub fn timed_s(&self) -> f64 {
        self.timed_ms / 1e3
    }

    /// Whether the timed loop should go on: until `seconds` of timed
    /// host time and at least [`MIN_OPS`] operations, so the p90 always
    /// rests on ten or more larger samples.
    pub fn measuring(&self, opts: &Opts) -> bool {
        self.op_ms.len() < MIN_OPS || self.timed_s() < opts.seconds
    }

    /// Count one checked operation; `ok` false records a failure.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Host-time tallies of the session-based workloads for their layer
/// metrics.
#[derive(Default)]
pub struct SessionAcc {
    pub session_build_ms: Vec<f64>,
    pub alloc_fill_ms: f64,
    wait_ms: Vec<f64>,
    wait_events: u64,
}

impl SessionAcc {
    /// Record one timed `wait_all` of `ms` that executed `events`.
    pub fn wait(&mut self, ms: f64, events: u64) {
        self.wait_ms.push(ms);
        self.wait_events += events;
    }

    pub fn report(&self, ops: f64, l: &mut BTreeMap<&'static str, f64>) {
        let wait_ns = self.wait_ms.iter().sum::<f64>() * 1e6;
        let events = self.wait_events as f64;
        l.insert("mpirt.session.build_ms", median(&self.session_build_ms));
        l.insert("memsim.alloc_fill_ms", self.alloc_fill_ms);
        l.insert("mpirt.wait_ms", median(&self.wait_ms));
        l.insert("simcore.event.executed", events / ops);
        l.insert("simcore.event.ns_per_event", wait_ns / events);
        l.insert("simcore.event.events_per_s", events / (wait_ns / 1e9));
    }
}

/// Timed operations every run measures at least.
pub const MIN_OPS: usize = 100;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Run `setup` [`SETUP_REPS`] times, recording each repetition's host
/// time, and keep the last result (earlier ones are dropped before the
/// next starts, so memory holds one copy).
pub fn repeat_setup<T>(out: &mut Outcome, mut setup: impl FnMut() -> T) -> T {
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup());
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    kept.expect("at least one set-up")
}

/// The runtime configuration every workload uses: the library defaults
/// with every environment knob pinned, so a stray `GPU_DDT_*` variable
/// cannot change what is measured.
pub fn mpi_config() -> MpiConfig {
    MpiConfig {
        nic_offload: false,
        stream_trigger: false,
        fault_plan: FaultPlan::empty(),
        engine: EngineConfig {
            optimizer: OptimizerConfig::enabled(),
            ..EngineConfig::default()
        },
        ..MpiConfig::default()
    }
}

/// The position pattern salted by the workload seed: non-zero bytes,
/// so a receive that never landed (zeroed buffer) cannot pass.
pub fn pattern(len: usize, salt: u64) -> Vec<u8> {
    let s = (salt % 255) as usize;
    (0..len)
        .map(|i| ((i * 131 + 17 + s) % 255 + 1) as u8)
        .collect()
}

/// A simulator allocation holding typed data.
#[derive(Clone, Copy)]
pub struct TypedBuf {
    pub raw: Ptr,
    pub len: usize,
}

impl TypedBuf {
    /// Allocate `len` bytes on `rank`'s GPU (or the host), filled with
    /// `fill` when given.
    pub fn alloc(
        sim: &mut Sim<MpiWorld>,
        rank: usize,
        device: bool,
        len: usize,
        fill: Option<&[u8]>,
    ) -> TypedBuf {
        let space = if device {
            MemSpace::Device(sim.world.mpi.ranks[rank].gpu)
        } else {
            MemSpace::Host
        };
        let raw = sim
            .world
            .mem()
            .alloc(space, len.max(1) as u64)
            .expect("typed buffer");
        if let Some(bytes) = fill {
            sim.world.mem().write(raw, &bytes[..len]).expect("fill");
        }
        TypedBuf { raw, len }
    }

    /// The pointer a datatype with buffer base `base` is sent from.
    pub fn at(&self, base: i64) -> Ptr {
        self.raw.add(base as u64)
    }

    /// Zero the first `len` bytes (before a receive lands in them).
    pub fn zero(&self, sim: &mut Sim<MpiWorld>, len: usize) {
        sim.world
            .mem()
            .slice_mut(self.raw, len as u64)
            .expect("zero")
            .fill(0);
    }

    /// Borrow the first `len` bytes.
    pub fn bytes<'a>(&self, sim: &'a mut Sim<MpiWorld>, len: usize) -> &'a [u8] {
        sim.world.mem().slice(self.raw, len as u64).expect("read")
    }
}

/// Host memory high-water mark of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time `f`, returning its result and the elapsed host time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Tracing overhead: host ms of the same batch run with spans over run
/// without, in ABBA order so cache warm-up and drift weigh on both.
pub fn overhead_ratio(mut batch: impl FnMut(&mut Spans) -> f64) -> f64 {
    let mut ms = [0.0f64; 2];
    for on in [false, true, true, false] {
        ms[on as usize] += batch(&mut Spans::new(on));
    }
    ms[1] / ms[0]
}

/// Host ms of `f` on the benchmark's span clock: inside span `name`
/// when tracing, bare otherwise.
pub fn span_ms<R>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = spans.time(name, f);
    (r, t.elapsed().as_secs_f64() * 1e3)
}

//! The analytic auto-tuner: picks work-unit size, pipeline granularity,
//! fragment size and ring depth per datatype layout in closed form (no
//! simulation runs).
//!
//! There is one cost model, and it is the simulator's. A [`Stage`]
//! prices one fragment by calling the function the simulator charges
//! for that work — [`gpusim::KernelRates`] for kernels,
//! [`gpusim::contiguous_copy_time`] for staging copies, [`prep_time`]
//! for CPU DEV preparation, link and NIC functions from `netsim` for the
//! wire — in integer nanoseconds, at the fragment sizes the pipeline
//! composition asks for. This module owns only that composition
//! ([`pipeline_makespan_ns`]) and the pickers built on it. Every picker
//! includes the static default among its candidates and only deviates
//! when the model predicts a win beyond a safety margin, so a tuned run
//! is never *predicted* worse than the default; the `ablation_optimizer`
//! bench asserts the simulated times agree.

use crate::config::EngineConfig;
use crate::engine::prep_time;
use gpusim::{KernelRates, KernelShape, Placement};
use simcore::{Bandwidth, SimTime};

/// One pipeline stage: the time one fragment of a given byte size spends
/// in it, priced by a simulator charge function.
pub struct Stage<'a>(Box<dyn Fn(u64) -> SimTime + 'a>);

impl<'a> Stage<'a> {
    /// A stage priced by `price(fragment_bytes)`.
    pub fn new(price: impl Fn(u64) -> SimTime + 'a) -> Stage<'a> {
        Stage(Box::new(price))
    }

    /// A fixed per-fragment cost: an active message, a doorbell re-arm.
    pub fn fixed(t: SimTime) -> Stage<'a> {
        Stage::new(move |_| t)
    }

    /// A contiguous leg at `bw` plus a fixed `latency`: the wire, the
    /// CPU convertor.
    pub fn leg(bw: Bandwidth, latency: SimTime) -> Stage<'a> {
        Stage::new(move |b| bw.time_for(b) + latency)
    }

    /// Nanoseconds one `bytes`-sized fragment spends in this stage.
    pub fn time_ns(&self, bytes: u64) -> u64 {
        (self.0)(bytes).as_nanos()
    }
}

/// How a layout shatters into work units: `units` units over `total`
/// packed bytes, spread evenly over the fragments.
#[derive(Clone, Copy, Debug)]
pub struct Shatter {
    pub units: u64,
    pub total: u64,
}

impl Shatter {
    /// Units in a `bytes`-sized fragment, pro rata.
    pub fn units_in(&self, bytes: u64) -> u64 {
        (self.units as f64 * bytes as f64 / self.total.max(1) as f64).round() as u64
    }
}

/// Launched time of a transfer kernel over one `bytes`-sized fragment of
/// a layout that shatters as `shatter`, typed side in the executing
/// GPU's DRAM and packed side at `far`: the fragment's shape estimate
/// ([`KernelShape::estimate`]) priced at `rates`.
pub fn fragment_kernel_time(
    rates: &KernelRates,
    far: Placement,
    shatter: Shatter,
    descriptors: bool,
    bytes: u64,
) -> SimTime {
    let shape = KernelShape::estimate(shatter.units_in(bytes), bytes, rates);
    rates.time(&shape, Placement::Local, far, descriptors)
}

/// Makespan estimate for `total` bytes moved through `stages` in
/// fragments of `frag` bytes with at most `depth` fragments in flight:
/// the first fragment fills the whole pipe, every further fragment costs
/// the bottleneck stage (or the fill time divided by the ring depth when
/// the ring is what limits overlap). The last fragment is charged at its
/// *actual* size — billing the tail as a full round systematically
/// overprices large fragments and makes shrinking look profitable when
/// it isn't.
pub fn pipeline_makespan_ns(total: u64, frag: u64, depth: usize, stages: &[Stage]) -> f64 {
    assert!(frag > 0 && depth > 0, "degenerate pipeline shape");
    let total = total.max(1);
    let first = frag.min(total);
    let nf = total.div_ceil(first);
    let times = |b: u64| stages.iter().map(move |s| s.time_ns(b) as f64);
    let fill = |b: u64| times(b).sum::<f64>();
    let per_round = |b: u64| {
        let bottleneck = times(b).fold(0.0f64, f64::max);
        bottleneck.max(fill(b) / depth as f64)
    };
    let tail = total - (nf - 1) * first;
    let mut cost = fill(first);
    if nf >= 2 {
        cost += (nf - 2) as f64 * per_round(first) + per_round(tail);
    }
    cost
}

/// Work-unit candidates from §3.2 (the paper sweeps S ∈ {1, 2, 4} KB).
pub const UNIT_CANDIDATES: [u64; 3] = [1024, 2048, 4096];

/// Pick the work-unit size S for the generic DEV path: a layout with
/// `segments` contiguous runs totalling `total` bytes shatters into
/// about `segments + total / S` units, and each unit costs its CPU
/// preparation plus its descriptor and partial lines in the kernel
/// (`rates`, both sides local). The static `cfg.unit_size` is always a
/// candidate and wins ties.
pub fn pick_unit_size(cfg: &EngineConfig, rates: &KernelRates, total: u64, segments: u64) -> u64 {
    let cost = |s: u64| {
        let units = segments + total / s.max(1);
        let shatter = Shatter { units, total };
        prep_time(cfg, units as usize)
            + fragment_kernel_time(rates, Placement::Local, shatter, true, total)
    };
    let mut best = cfg.unit_size;
    let mut best_cost = cost(best);
    for cand in UNIT_CANDIDATES {
        let c = cost(cand);
        if c < best_cost {
            best_cost = c;
            best = cand;
        }
    }
    best
}

/// Only deviate from the default when the model predicts at least this
/// much improvement (guards against model/simulator disagreement).
const CHUNK_MARGIN: f64 = 0.97;

/// Pick the CPU→kernel pipeline chunk for a streaming (Fresh) job of a
/// layout that shatters as `shatter`. With cheap preparation the
/// per-chunk kernel launch dominates and a single launch wins; with
/// expensive preparation overlapping chunks win — the two-stage makespan
/// of [`prep_time`] against an in-device kernel at `rates` decides, with
/// the configured `cfg.pipeline_chunk` always a candidate.
pub fn pick_pipeline_chunk(cfg: &EngineConfig, rates: &KernelRates, shatter: Shatter) -> u64 {
    let stages = [
        Stage::new(|b| prep_time(cfg, shatter.units_in(b) as usize)),
        Stage::new(|b| fragment_kernel_time(rates, Placement::Local, shatter, true, b)),
    ];
    // Depth 2: the CPU prepares one chunk ahead of the kernel.
    let model = |chunk: u64| pipeline_makespan_ns(shatter.total, chunk, 2, &stages);
    let default_chunk = cfg.pipeline_chunk;
    let default_cost = model(default_chunk);
    let mut best = default_chunk;
    let mut best_cost = default_cost;
    for cand in [
        default_chunk.saturating_mul(2),
        default_chunk.saturating_mul(4),
        u64::MAX,
    ] {
        let c = model(cand);
        if c < best_cost {
            best_cost = c;
            best = cand;
        }
    }
    if best_cost < default_cost * CHUNK_MARGIN {
        best
    } else {
        default_chunk
    }
}

/// Only deviate from the configured fragment/depth when the model
/// predicts at least a 7% win.
const FRAG_MARGIN: f64 = 0.93;

/// Never tune a transport fragment below this (rendezvous bookkeeping
/// per fragment stops amortizing).
pub const MIN_FRAG: u64 = 64 << 10;

/// Pick the transport fragment size and ring depth for a pipelined
/// protocol whose per-fragment stages are `stages`. Candidates shrink
/// the configured fragment (the ring slots are allocated at `frag0`
/// bytes, so a tuned fragment must never exceed it) and may halve the
/// ring depth; `(frag0, depth0)` always competes and wins ties.
pub fn pick_fragment(total: u64, frag0: u64, depth0: usize, stages: &[Stage]) -> (u64, usize) {
    let depth0 = depth0.max(1);
    // Below three fragments at the configured size the pipeline never
    // reaches a steady state and the makespan model systematically
    // overvalues the shorter fill ramp of small fragments; splitting a
    // message that barely fragments only adds per-fragment overhead.
    if total.div_ceil(frag0.max(1)) < 3 {
        return (frag0, depth0);
    }
    let default_cost = pipeline_makespan_ns(total, frag0, depth0, stages);
    let mut best = (frag0, depth0);
    let mut best_cost = default_cost;
    for shift in [1u32, 2] {
        let f = (frag0 >> shift) & !255;
        if f < MIN_FRAG || f == 0 {
            continue;
        }
        for d in [depth0, (depth0 / 2).max(1)] {
            let c = pipeline_makespan_ns(total, f, d, stages);
            if c < best_cost {
                best_cost = c;
                best = (f, d);
            }
        }
    }
    if best_cost < default_cost * FRAG_MARGIN {
        best
    } else {
        (frag0, depth0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::GpuSystem;
    use memsim::GpuId;

    /// A stage of `fixed_ns` plus `ns_per_byte` per byte.
    fn linear(fixed_ns: u64, ns_per_byte: f64) -> Stage<'static> {
        Stage::leg(
            Bandwidth::from_bytes_per_sec(1e9 / ns_per_byte),
            SimTime::from_nanos(fixed_ns),
        )
    }

    fn k40_rates() -> KernelRates {
        KernelRates::of(&GpuSystem::k40_node(1), GpuId(0), Placement::Local, None)
    }

    #[test]
    fn makespan_reduces_to_serial_for_one_fragment() {
        let stages = [linear(1000, 1.0), linear(6000, 0.5)];
        let total = 1 << 20;
        let serial = pipeline_makespan_ns(total, u64::MAX, 2, &stages);
        let expect: u64 = stages.iter().map(|s| s.time_ns(total)).sum();
        assert_eq!(serial, expect as f64);
    }

    #[test]
    fn makespan_pipelining_approaches_bottleneck() {
        let stages = [linear(0, 1.0), linear(0, 1.0)];
        let total = 1u64 << 20;
        let piped = pipeline_makespan_ns(total, 1 << 14, 4, &stages);
        // 64 fragments: ~total * 1 ns/B bottleneck, not 2x (the serial sum).
        assert!(piped < 1.2 * total as f64);
        assert!(piped >= total as f64);
    }

    #[test]
    fn shatter_spreads_units_pro_rata() {
        let sh = Shatter {
            units: 1000,
            total: 1 << 20,
        };
        assert_eq!(sh.units_in(1 << 20), 1000);
        assert_eq!(sh.units_in(1 << 19), 500);
        assert_eq!(sh.units_in(0), 0);
    }

    #[test]
    fn fragment_kernel_prices_the_estimated_shape() {
        // The stage is the launch charge of the fragment's estimated
        // shape, with the units spread pro rata.
        let sys = GpuSystem::k40_node(1);
        let local = KernelRates::of(&sys, GpuId(0), Placement::Local, None);
        let sh = Shatter {
            units: 64,
            total: 1 << 20,
        };
        let shape = KernelShape::estimate(32, 1 << 19, &local);
        assert_eq!(
            fragment_kernel_time(&local, Placement::Local, sh, true, 1 << 19),
            local.time(&shape, Placement::Local, Placement::Local, true)
        );
        // The off-GPU side rides PCIe: a mapped-host fragment is slower.
        let host = KernelRates::of(&sys, GpuId(0), Placement::MappedHost, None);
        assert!(
            fragment_kernel_time(&host, Placement::MappedHost, sh, true, 1 << 19)
                > fragment_kernel_time(&local, Placement::Local, sh, true, 1 << 19)
        );
    }

    #[test]
    fn unit_size_prefers_fewer_units() {
        // Monotone model: the largest candidate wins for any shattered
        // layout; an explicitly larger base survives as the incumbent.
        let rates = k40_rates();
        let cfg = EngineConfig::default();
        assert_eq!(pick_unit_size(&cfg, &rates, 1 << 20, 1000), 4096);
        let big = EngineConfig {
            unit_size: 8192,
            pipeline_chunk: 1 << 20,
            ..EngineConfig::default()
        };
        assert_eq!(pick_unit_size(&big, &rates, 1 << 20, 1000), 8192);
    }

    #[test]
    fn chunk_collapses_to_single_kernel_when_prep_is_cheap() {
        // Coalesced triangular: ~2k units over 17 MB, launch 6 us.
        let sh = Shatter {
            units: 2048,
            total: 17 << 20,
        };
        let cfg = EngineConfig::default();
        assert_eq!(pick_pipeline_chunk(&cfg, &k40_rates(), sh), u64::MAX);
    }

    #[test]
    fn chunk_keeps_pipelining_when_prep_dominates() {
        // 256-byte units: ~70k units of prep (~0.8 ms) vs ~0.2 ms of
        // kernel, so overlapping chunks hide most of the kernel time.
        let sh = Shatter {
            units: (17 << 20) / 256,
            total: 17 << 20,
        };
        let cfg = EngineConfig::default();
        assert_eq!(pick_pipeline_chunk(&cfg, &k40_rates(), sh), 1 << 20);
    }

    #[test]
    fn fragment_default_always_competes() {
        // A pipe dominated by per-fragment fixed cost: shrinking can
        // only hurt, the default must survive.
        let stages = [linear(100_000, 0.01)];
        let (f, d) = pick_fragment(8 << 20, 512 << 10, 4, &stages);
        assert_eq!((f, d), (512 << 10, 4));
    }

    #[test]
    fn fragment_shrinks_when_fill_dominates() {
        // Four fragments of a 2 MB message through a deep per-byte pipe:
        // halving the fragment shortens the fill ramp.
        let stages = [linear(100, 1.0), linear(100, 1.0), linear(100, 1.0)];
        let (f, _) = pick_fragment(2 << 20, 512 << 10, 4, &stages);
        assert!(f < 512 << 10, "expected a shorter ramp, kept {f}");
        assert!(f >= MIN_FRAG);
    }

    #[test]
    fn fragment_keeps_default_when_message_barely_fragments() {
        // One or two fragments: no steady state to model, never split.
        let stages = [linear(100, 1.0), linear(100, 1.0), linear(100, 1.0)];
        for total in [256u64 << 10, 1 << 20] {
            let (f, d) = pick_fragment(total, 512 << 10, 4, &stages);
            assert_eq!((f, d), (512 << 10, 4));
        }
    }
}

//! Protocol-level fragment-size / ring-depth auto-tuning.
//!
//! The rendezvous protocols pipeline a transfer through a ring of
//! `pipeline_depth` fragments of `frag_size` bytes, both hand-picked
//! constants in [`crate::MpiConfig`]. This module lists the stages one
//! fragment passes through on each path and prices every stage with the
//! function the simulator charges for it — [`gpusim::KernelRates`] and
//! the engine's preparation charge for the conversion kernels,
//! [`gpusim::contiguous_copy_time`] for staging copies, the link rate
//! and latency for the wire and the per-fragment active messages,
//! [`netsim::program_time`] and [`gpusim::replay_cost`] for the offload
//! classes. There is no second set of cost constants here to drift: the
//! stages fold into a closed-form pipeline makespan
//! ([`devengine::tune::pipeline_makespan_ns`]) and
//! [`devengine::tune::pick_fragment`] choose a (fragment, depth) shape
//! per *(canonical sender layout, canonical receiver layout, message
//! size, path class)*.
//!
//! Two hard safety properties:
//!
//! * the static configuration always competes and wins ties (plus a 7%
//!   margin), so a tuned transfer is never predicted slower than the
//!   default — `ablation_optimizer` asserts the simulated times agree;
//! * tuned fragments only ever *shrink* and tuned depths never grow, so
//!   the rings allocated at connection establishment (at the configured
//!   shape) always fit the tuned schedule.
//!
//! Decisions are cached in [`crate::world::MpiState::tuned_shapes`] and
//! surfaced through the `optimizer.frag.*` trace counters.

use crate::config::MpiConfig;
use crate::protocol::Side;
use crate::world::MpiWorld;
use datatype::DataType;
use devengine::engine::prep_time;
use devengine::tune::{fragment_kernel_time, pick_fragment, pipeline_makespan_ns, Shatter, Stage};
use devengine::OptimizerConfig;
use gpusim::{
    contiguous_copy_time, op_issue_time, replay_cost, CopyDirection, GpuWorld as _, KernelRates,
    Placement,
};
use memsim::GpuId;
use netsim::am::AM_HEADER_BYTES;
use netsim::{program_time, NetWorld as _, NicCosts};
use simcore::trace::names;
use simcore::{Sim, SimTime};

/// Which transfer pipeline a rendezvous took.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PathClass {
    /// Same-node CUDA IPC fragment ring (`protocol::sm`, §4.1).
    SmIpc,
    /// Copy-in/copy-out with explicit `cudaMemcpy` staging hops
    /// (`protocol::copyio`, §4.2).
    CopyInOut,
    /// Copy-in/copy-out with zero-copy mapped host fragments: the
    /// device↔host hop rides inside the pack/unpack kernels.
    ZeroCopy,
    /// Cross-node NIC DEV-executor path: the NIC packet processor runs
    /// the merged gather/scatter program in-line with the wire stream —
    /// no GPU pack kernel, no packed staging (`protocol::offload`).
    NicOffload,
    /// Cross-node stream-triggered path: the transfer is captured once
    /// into a GPU stream-op graph and replayed per iteration with zero
    /// CPU events on the critical path (`protocol::offload`).
    StreamTriggered,
}

/// One cached tuning decision.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TuneKey {
    /// GPU architecture the model constants came from. The cache lives
    /// on a single-arch `MpiState` today, but keying on the arch keeps
    /// cached decisions honest if states are ever shared or compared
    /// across worlds (and makes per-arch divergence directly testable).
    pub arch: &'static str,
    /// Structural fingerprint of the sender layout (canonical form when
    /// canonicalization is on, so equivalent trees share a decision).
    pub s_layout: u64,
    /// Structural fingerprint of the receiver layout.
    pub r_layout: u64,
    /// Total message size in bytes.
    pub total: u64,
    /// Protocol pipeline the transfer takes.
    pub class: PathClass,
}

fn side_fingerprint(side: &Side, opt: &OptimizerConfig) -> u64 {
    let mut fp = layout(side, opt).layout_fingerprint();
    // Fold in count, density and placement: the same element layout
    // tunes differently on host vs device, dense vs strided.
    for word in [side.count, side.dense() as u64, side.device() as u64] {
        fp = (fp ^ word).wrapping_mul(0x100_0000_01b3);
    }
    fp
}

/// Cache key for per-shape offload state (compiled NIC programs,
/// captured stream graphs): the same canonical-layout fingerprinting as
/// tuning decisions, so equivalent datatype trees share one program.
pub(crate) fn cache_key(sim: &Sim<MpiWorld>, s: &Side, r: &Side, class: PathClass) -> TuneKey {
    let opt = sim.world.mpi.config.engine.optimizer;
    TuneKey {
        arch: sim.world.gpus_ref().arch.name,
        s_layout: side_fingerprint(s, &opt),
        r_layout: side_fingerprint(r, &opt),
        total: s.total(),
        class,
    }
}

/// `side`'s layout as the engine plans it (canonical form when
/// canonicalization is on).
fn layout(side: &Side, opt: &OptimizerConfig) -> DataType {
    if opt.canonicalize {
        side.ty.canonical()
    } else {
        side.ty.clone()
    }
}

/// Contiguous runs of `side`'s layout (at least one).
fn segments(ty: &DataType, side: &Side) -> u64 {
    ty.segment_estimate().saturating_mul(side.count).max(1)
}

/// How a non-dense `side` shatters into work units, and whether its
/// kernel streams descriptors: the specialized arithmetic kernels still
/// emit a (prep-charged) unit per contiguous run but stream no
/// descriptors; the general DEV kernel also splits runs at the unit
/// size unless coalescing merges them.
fn shatter(side: &Side, cfg: &MpiConfig) -> (Shatter, bool) {
    let opt = cfg.engine.optimizer;
    let ty = layout(side, &opt);
    let arithmetic = opt.vector_dispatch
        && (ty.vector_shape().is_some()
            || ty.strided2d_shape().is_some()
            || ty.is_contiguous(side.count));
    let total = side.total().max(1);
    let mut units = segments(&ty, side);
    if !arithmetic && !opt.coalesce {
        units += total / cfg.engine.unit_size;
    }
    (Shatter { units, total }, !arithmetic)
}

/// Per-fragment stage list for one transfer down a given path, every
/// stage priced by the function the simulator charges for that work.
/// Dense sides contribute their staging copies only; non-dense sides
/// their conversion engines.
fn path_stages<'a>(sim: &'a Sim<MpiWorld>, s: &Side, r: &Side, class: PathClass) -> Vec<Stage<'a>> {
    let sys = sim.world.gpus_ref();
    let cfg = &sim.world.mpi.config;
    let ch = sim.world.net_ref().channel(s.rank, r.rank);
    let s_gpu = sim.world.mpi.ranks[s.rank].gpu;
    let r_gpu = sim.world.mpi.ranks[r.rank].gpu;
    // A pack/unpack kernel on `gpu` over the fragment plus the CPU
    // preparation of its units; `side`'s typed buffer is local, the
    // fragment sits at `far`. A graph-baked kernel skips the driver
    // launch and pays one stream op issue instead.
    let kernel = |side: &Side, gpu: GpuId, far: Placement, graph: bool| {
        let (shatter, descriptors) = shatter(side, cfg);
        let rates = KernelRates::of(sys, gpu, far, cfg.engine.blocks);
        let issue = op_issue_time(&sys.topo, 1);
        Stage::new(move |b| {
            let mut t = fragment_kernel_time(&rates, far, shatter, descriptors, b);
            if graph {
                t = t - rates.launch_overhead() + issue;
            }
            t + prep_time(&cfg.engine, shatter.units_in(b) as usize)
        })
    };
    let copy = |gpu: GpuId, dir: CopyDirection| {
        Stage::new(move |b| contiguous_copy_time(sys, gpu, dir, b))
    };
    let wire = || Stage::leg(ch.data.bandwidth, ch.data.latency);
    let cpu = || Stage::leg(cfg.cpu_pack_bw, SimTime::ZERO);
    // One per-fragment active message on the control link (unpack
    // requests, slot acks).
    let am = || Stage::fixed(ch.ctrl.wire_time(AM_HEADER_BYTES) + ch.ctrl.latency);
    let mut stages = Vec::new();
    match class {
        PathClass::SmIpc => {
            let staged = cfg.recv_local_staging && s_gpu != r_gpu;
            if !s.dense() {
                // Pack into the sender-local ring slot.
                stages.push(kernel(s, s_gpu, Placement::Local, false));
            }
            if staged {
                // Receiver GETs the fragment into local staging.
                stages.push(copy(r_gpu, CopyDirection::PeerToPeer));
            }
            if !r.dense() {
                let far = if staged || s_gpu == r_gpu {
                    Placement::Local
                } else {
                    Placement::Peer
                };
                stages.push(kernel(r, r_gpu, far, false));
            } else if !s.dense() {
                // receiver-dense: the packed fragment is PUT to its
                // final window at bulk P2P rate.
                stages.push(copy(s_gpu, CopyDirection::PeerToPeer));
            }
            stages.push(am());
        }
        PathClass::CopyInOut | PathClass::ZeroCopy => {
            let zero = class == PathClass::ZeroCopy;
            // Sender conversion into the host fragment.
            match (s.dense(), s.device()) {
                (false, true) if zero => {
                    stages.push(kernel(s, s_gpu, Placement::MappedHost, false));
                }
                (false, true) => {
                    stages.push(kernel(s, s_gpu, Placement::Local, false));
                    stages.push(copy(s_gpu, CopyDirection::DeviceToHost));
                }
                (false, false) => stages.push(cpu()),
                (true, true) => stages.push(copy(s_gpu, CopyDirection::DeviceToHost)),
                (true, false) => {} // registered host data wires directly
            }
            stages.push(wire());
            // Receiver consumption out of the arrived fragment.
            match (r.dense(), r.device()) {
                (false, true) if zero => {
                    stages.push(kernel(r, r_gpu, Placement::MappedHost, false));
                }
                (false, true) => {
                    stages.push(copy(r_gpu, CopyDirection::HostToDevice));
                    stages.push(kernel(r, r_gpu, Placement::Local, false));
                }
                (false, false) => stages.push(cpu()),
                (true, true) => stages.push(copy(r_gpu, CopyDirection::HostToDevice)),
                (true, false) => {} // the wire landed in the user buffer
            }
            stages.push(am());
        }
        PathClass::NicOffload => {
            // One stage: the NIC program — descriptor issue on the
            // handler cores, then the payload streaming at the slower of
            // the wire and the gather/scatter DMA. No pack kernels, no
            // staging copies, no per-fragment active messages.
            let opt = cfg.engine.optimizer;
            let descriptors = Shatter {
                units: segments(&layout(s, &opt), s) + segments(&layout(r, &opt), r),
                total: s.total().max(1),
            };
            let costs = NicCosts::of(&sys.topo);
            stages.push(Stage::new(move |b| {
                program_time(&costs, &ch.data, descriptors.units_in(b), b)
            }));
        }
        PathClass::StreamTriggered => {
            // Replay re-arm of the five captured nodes, then the graph's
            // own legs: zero-copy pack into the mapped bounce, the wire,
            // zero-copy unpack. Completion is the graph's flag write —
            // no per-fragment active messages, no CPU.
            stages.push(Stage::fixed(replay_cost(&sys.topo, 5)));
            stages.push(kernel(s, s_gpu, Placement::MappedHost, true));
            stages.push(wire());
            stages.push(kernel(r, r_gpu, Placement::MappedHost, true));
        }
    }
    stages
}

/// Fraction of the incumbent's predicted makespan an offload candidate
/// must beat to be selected: the never-worse gate with a 10% hysteresis
/// band, mirroring the 7% tie margin inside `pick_fragment`.
const SELECT_MARGIN: f64 = 0.9;

/// Choose the path class for one cross-node rendezvous. The incumbent
/// GPU-pack pipeline (zero-copy when healthy and both sides live on
/// device, staged copy-in/out otherwise) always competes; an offload
/// class is returned only when its knob is on, its runtime-health flag
/// is up, both sides are device-resident, and the analytic model
/// predicts a win past [`SELECT_MARGIN`]. With both knobs off this
/// returns the incumbent immediately — no model evaluation, no
/// counters, so default runs stay byte-identical.
pub fn select_path(sim: &mut Sim<MpiWorld>, s: &Side, r: &Side, same_node: bool) -> PathClass {
    let (zero_copy, nic_knob, stream_knob, frag0, depth0) = {
        let cfg = &sim.world.mpi.config;
        (
            cfg.zero_copy,
            cfg.nic_offload,
            cfg.stream_trigger,
            cfg.frag_size,
            cfg.pipeline_depth,
        )
    };
    let incumbent = if zero_copy && sim.world.mpi.zero_copy_runtime_ok && s.device() && r.device() {
        PathClass::ZeroCopy
    } else {
        PathClass::CopyInOut
    };
    let nic_ok = nic_knob && sim.world.mpi.nic_offload_runtime_ok;
    let stream_ok = stream_knob && sim.world.mpi.stream_trigger_runtime_ok;
    if (!nic_ok && !stream_ok) || same_node || !s.device() || !r.device() {
        return incumbent;
    }
    let total = s.total().max(1);
    let inc_stages = path_stages(sim, s, r, incumbent);
    let inc_ns = pipeline_makespan_ns(total, frag0.min(total), depth0, &inc_stages);
    let mut best = incumbent;
    // The candidate must beat the incumbent by the margin; between the
    // two offload classes, plain better-than wins.
    let mut best_ns = inc_ns * SELECT_MARGIN;
    for (ok, class) in [
        (nic_ok, PathClass::NicOffload),
        (stream_ok, PathClass::StreamTriggered),
    ] {
        if !ok {
            continue;
        }
        let ns = pipeline_makespan_ns(total, total, 1, &path_stages(sim, s, r, class));
        if ns < best_ns {
            best = class;
            best_ns = ns;
        }
    }
    best
}

/// Pick the pipeline shape for one transfer: the configured
/// `(frag0, depth0)` unless the auto-tuner is enabled *and* the cost
/// model predicts a ≥7% win for a smaller fragment / shallower ring.
/// Decisions are cached per (layouts, size, path) and counted in the
/// trace (`optimizer.frag.tuned` / `.default` / `.cache.hit`).
pub fn tuned_shape(
    sim: &mut Sim<MpiWorld>,
    s: &Side,
    r: &Side,
    class: PathClass,
    frag0: u64,
    depth0: usize,
) -> (u64, usize) {
    let opt = sim.world.mpi.config.engine.optimizer;
    if !opt.autotune {
        return (frag0, depth0);
    }
    let total = s.total();
    let key = TuneKey {
        arch: sim.world.gpus_ref().arch.name,
        s_layout: side_fingerprint(s, &opt),
        r_layout: side_fingerprint(r, &opt),
        total,
        class,
    };
    if let Some(&shape) = sim.world.mpi.tuned_shapes.get(&key) {
        sim.trace.count(
            names::OPTIMIZER_FRAG_CACHE_HIT,
            s.rank as u32,
            r.rank as u32,
            1,
        );
        return shape;
    }
    let shape = pick_fragment(total, frag0, depth0, &path_stages(sim, s, r, class));
    sim.world.mpi.tuned_shapes.insert(key, shape);
    let counter = if shape == (frag0, depth0) {
        names::OPTIMIZER_FRAG_DEFAULT
    } else {
        names::OPTIMIZER_FRAG_TUNED
    };
    sim.trace.count(counter, s.rank as u32, r.rank as u32, 1);
    shape
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpiConfig;
    use datatype::DataType;
    use devengine::EngineConfig;
    use memsim::MemSpace;

    fn world(opt: OptimizerConfig) -> Sim<MpiWorld> {
        let config = MpiConfig {
            engine: EngineConfig {
                optimizer: opt,
                ..EngineConfig::default()
            },
            ..MpiConfig::default()
        };
        Sim::new(MpiWorld::two_ranks_two_gpus(config))
    }

    fn strided_side(sim: &mut Sim<MpiWorld>, rank: usize) -> Side {
        let ty = DataType::vector(4096, 2, 4, &DataType::double())
            .unwrap()
            .commit();
        let gpu = sim.world.mpi.ranks[rank].gpu;
        let buf = sim
            .world
            .mem()
            .alloc(MemSpace::Device(gpu), ty.extent() as u64)
            .unwrap();
        Side {
            rank,
            ty,
            count: 1,
            buf,
        }
    }

    #[test]
    fn disabled_tuner_returns_the_configured_shape() {
        let mut sim = world(OptimizerConfig::disabled());
        let s = strided_side(&mut sim, 0);
        let r = strided_side(&mut sim, 1);
        let shape = tuned_shape(&mut sim, &s, &r, PathClass::SmIpc, 512 << 10, 4);
        assert_eq!(shape, (512 << 10, 4));
        assert!(sim.world.mpi.tuned_shapes.is_empty());
    }

    #[test]
    fn tuned_fragment_never_grows_and_decisions_are_cached() {
        let mut sim = world(OptimizerConfig::enabled());
        let s = strided_side(&mut sim, 0);
        let r = strided_side(&mut sim, 1);
        let (f, d) = tuned_shape(&mut sim, &s, &r, PathClass::SmIpc, 512 << 10, 4);
        assert!(f <= 512 << 10, "fragments must fit the allocated ring");
        assert!(d <= 4, "depth must fit the allocated ring");
        assert!(f >= devengine::tune::MIN_FRAG);
        assert_eq!(sim.world.mpi.tuned_shapes.len(), 1);
        let again = tuned_shape(&mut sim, &s, &r, PathClass::SmIpc, 512 << 10, 4);
        assert_eq!(again, (f, d));
        assert_eq!(sim.trace.counter("optimizer.frag.cache.hit"), 1);
        assert_eq!(sim.world.mpi.tuned_shapes.len(), 1);
    }

    fn ib_world(arch: &str, nic: bool, stream: bool) -> Sim<MpiWorld> {
        use crate::world::RankSpec;
        use gpusim::GpuArch;
        use memsim::GpuId;
        let config = MpiConfig {
            nic_offload: nic,
            stream_trigger: stream,
            ..MpiConfig::default()
        };
        let specs = [
            RankSpec {
                gpu: GpuId(0),
                node: 0,
            },
            RankSpec {
                gpu: GpuId(1),
                node: 1,
            },
        ];
        Sim::new(MpiWorld::on_arch(GpuArch::named(arch), &specs, 2, config))
    }

    fn side_on(sim: &mut Sim<MpiWorld>, rank: usize, ty: &DataType, count: u64) -> Side {
        let gpu = sim.world.mpi.ranks[rank].gpu;
        let buf = sim
            .world
            .mem()
            .alloc(MemSpace::Device(gpu), ty.extent() as u64 * count)
            .unwrap();
        Side {
            rank,
            ty: ty.clone(),
            count,
            buf,
        }
    }

    /// Coarse-grained strided layout: 32 KiB contiguous blocks, so the
    /// per-descriptor NIC issue cost is negligible against the stream.
    fn coarse_ty() -> DataType {
        DataType::vector(64, 4096, 8192, &DataType::double())
            .unwrap()
            .commit()
    }

    /// Fine-grained strided layout: 16-byte blocks, where descriptor
    /// issue dominates the NIC model and the graph kernels slow down.
    fn fine_ty() -> DataType {
        DataType::vector(65536, 2, 4, &DataType::double())
            .unwrap()
            .commit()
    }

    /// Latency-bound medium layout (128 KiB): two kernel launches plus
    /// the per-fragment active message outweigh one stream re-arm.
    fn medium_ty() -> DataType {
        DataType::vector(512, 32, 64, &DataType::double())
            .unwrap()
            .commit()
    }

    #[test]
    fn offload_knobs_off_select_the_incumbent() {
        let mut sim = ib_world("a100", false, false);
        let s = side_on(&mut sim, 0, &coarse_ty(), 1);
        let r = side_on(&mut sim, 1, &coarse_ty(), 1);
        assert_eq!(select_path(&mut sim, &s, &r, false), PathClass::ZeroCopy);
        assert!(sim.world.mpi.tuned_shapes.is_empty());
    }

    #[test]
    fn offload_requires_cross_node_device_endpoints() {
        // Same node: the offload classes never compete.
        let mut sim = ib_world("a100", true, true);
        let s = side_on(&mut sim, 0, &coarse_ty(), 1);
        let r = side_on(&mut sim, 1, &coarse_ty(), 1);
        assert_eq!(select_path(&mut sim, &s, &r, true), PathClass::ZeroCopy);
        // A host-resident endpoint disqualifies them too (and the
        // incumbent degrades to staged copy-in/out).
        let mut sim = ib_world("a100", true, true);
        let s = side_on(&mut sim, 0, &coarse_ty(), 1);
        let ty = coarse_ty();
        let buf = sim
            .world
            .mem()
            .alloc(MemSpace::Host, ty.extent() as u64)
            .unwrap();
        let r = Side {
            rank: 1,
            ty,
            count: 1,
            buf,
        };
        assert_eq!(select_path(&mut sim, &s, &r, false), PathClass::CopyInOut);
    }

    #[test]
    fn nic_offload_wins_only_where_dma_outruns_the_wire() {
        // NVLink-era NICs gather faster than the wire drains: the
        // kernel-free path wins for coarse-grained layouts.
        for arch in ["p100", "v100", "a100"] {
            let mut sim = ib_world(arch, true, false);
            let s = side_on(&mut sim, 0, &coarse_ty(), 1);
            let r = side_on(&mut sim, 1, &coarse_ty(), 1);
            assert_eq!(
                select_path(&mut sim, &s, &r, false),
                PathClass::NicOffload,
                "{arch} coarse"
            );
        }
        // The K40 testbed's NIC DMA (5 GB/s) is slower than the wire:
        // inflating the stream loses to the pipelined pack path.
        let mut sim = ib_world("k40", true, false);
        let s = side_on(&mut sim, 0, &coarse_ty(), 1);
        let r = side_on(&mut sim, 1, &coarse_ty(), 1);
        assert_eq!(select_path(&mut sim, &s, &r, false), PathClass::ZeroCopy);
        // Fine-grained layouts pay per-descriptor issue on the handler
        // cores; the model keeps them on the incumbent everywhere.
        let mut sim = ib_world("a100", true, false);
        let s = side_on(&mut sim, 0, &fine_ty(), 1);
        let r = side_on(&mut sim, 1, &fine_ty(), 1);
        assert_eq!(select_path(&mut sim, &s, &r, false), PathClass::ZeroCopy);
    }

    #[test]
    fn stream_trigger_wins_latency_bound_medium_messages() {
        let mut sim = ib_world("p100", false, true);
        let s = side_on(&mut sim, 0, &medium_ty(), 1);
        let r = side_on(&mut sim, 1, &medium_ty(), 1);
        assert_eq!(
            select_path(&mut sim, &s, &r, false),
            PathClass::StreamTriggered
        );
        // Large coarse transfers pipeline on the incumbent but replay
        // serially on the stream graph: the model keeps them off.
        let mut sim = ib_world("p100", false, true);
        let s = side_on(&mut sim, 0, &coarse_ty(), 1);
        let r = side_on(&mut sim, 1, &coarse_ty(), 1);
        assert_ne!(
            select_path(&mut sim, &s, &r, false),
            PathClass::StreamTriggered
        );
        // The K40's 3 µs doorbell eats the saved launches.
        let mut sim = ib_world("k40", false, true);
        let s = side_on(&mut sim, 0, &medium_ty(), 1);
        let r = side_on(&mut sim, 1, &medium_ty(), 1);
        assert_eq!(select_path(&mut sim, &s, &r, false), PathClass::ZeroCopy);
    }

    #[test]
    fn demoted_runtime_flags_disqualify_offload_classes() {
        let mut sim = ib_world("a100", true, true);
        sim.world.mpi.nic_offload_runtime_ok = false;
        sim.world.mpi.stream_trigger_runtime_ok = false;
        let s = side_on(&mut sim, 0, &coarse_ty(), 1);
        let r = side_on(&mut sim, 1, &coarse_ty(), 1);
        assert_eq!(select_path(&mut sim, &s, &r, false), PathClass::ZeroCopy);
    }

    #[test]
    fn path_classes_tune_independently() {
        let mut sim = world(OptimizerConfig::enabled());
        let s = strided_side(&mut sim, 0);
        let r = strided_side(&mut sim, 1);
        tuned_shape(&mut sim, &s, &r, PathClass::SmIpc, 512 << 10, 4);
        tuned_shape(&mut sim, &s, &r, PathClass::ZeroCopy, 512 << 10, 4);
        tuned_shape(&mut sim, &s, &r, PathClass::CopyInOut, 512 << 10, 4);
        assert_eq!(sim.world.mpi.tuned_shapes.len(), 3);
    }
}

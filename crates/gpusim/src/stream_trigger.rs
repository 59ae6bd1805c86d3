//! Stream-triggered communication: capture once, replay from the GPU
//! stream with zero CPU events on the critical path.
//!
//! HPE's "Exploring Fully Offloaded GPU Stream-Aware Message Passing"
//! moves the send/recv *control* path onto the GPU stream: the host
//! captures the communication once into a graph of stream ops —
//! trigger (wait for the producer kernel), doorbell (the MMIO store
//! that releases the NIC command), completion (the flag write the
//! consumer polls) — and every later iteration merely re-arms the
//! graph on the stream front-end. The CPU never appears between the
//! compute kernel and the wire.
//!
//! This module owns the op vocabulary and the only way to build a
//! graph: the [`GraphCapture`] builder, mirroring `cudaStreamBegin/
//! EndCapture`. The `xtask lint` offload rule bans naming [`StreamOp`]
//! anywhere else, so graphs cannot be hand-assembled behind the
//! capture API's back. Replay charges the owning stream for the
//! doorbell latency plus per-op issue — both per-arch constants from
//! the node topology tables — which makes this file a charge wrapper
//! in the fault-coverage sense (it is listed in the lint's
//! `CHARGE_WRAPPERS`).

use crate::kernel::{kernel_rates, kernel_shape};
use crate::spec::NodeTopology;
use crate::system::{GpuWorld, StreamId};
use faultsim::FaultOp;
use memsim::Ptr;
use simcore::par::CopyOp;
use simcore::trace::names;
use simcore::{Sim, SimTime, Track};

/// One node of a captured stream-op graph.
///
/// Construction is confined to this module (lint-enforced): protocol
/// code describes intent through [`GraphCapture`] and replays through
/// [`replay_issue`], never by assembling op lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamOp {
    /// Wait for the producing stream work (kernel/event) to land.
    Trigger,
    /// Ring the NIC command doorbell for a `bytes`-sized send.
    Doorbell { bytes: u64 },
    /// A pack/unpack kernel node embedded in the graph (the kernel
    /// itself is charged by `kernel::launch_transfer_kernel`; the graph
    /// node only pays re-arm issue cost).
    Kernel,
    /// Write the completion flag the consumer polls on.
    Completion,
}

/// A captured, replayable stream-op graph. Opaque: fields are private
/// and there is no constructor besides [`GraphCapture::finish`].
#[derive(Clone, Debug)]
pub struct StreamGraph {
    stream: StreamId,
    ops: Vec<StreamOp>,
    doorbell_bytes: u64,
}

impl StreamGraph {
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Total bytes rung through doorbell ops.
    pub fn doorbell_bytes(&self) -> u64 {
        self.doorbell_bytes
    }
}

/// Builder for one stream-op graph — the analogue of CUDA stream
/// capture, and the only sanctioned constructor of [`StreamGraph`].
pub struct GraphCapture {
    stream: StreamId,
    ops: Vec<StreamOp>,
}

impl GraphCapture {
    /// Begin capturing on `stream` (like `cudaStreamBeginCapture`).
    pub fn begin(stream: StreamId) -> GraphCapture {
        GraphCapture {
            stream,
            ops: Vec::new(),
        }
    }

    /// Record a producer-side trigger (wait) node.
    pub fn trigger(mut self) -> Self {
        self.ops.push(StreamOp::Trigger);
        self
    }

    /// Record a doorbell node releasing a `bytes`-sized NIC command.
    pub fn doorbell(mut self, bytes: u64) -> Self {
        self.ops.push(StreamOp::Doorbell { bytes });
        self
    }

    /// Record an embedded pack/unpack kernel node.
    pub fn kernel(mut self) -> Self {
        self.ops.push(StreamOp::Kernel);
        self
    }

    /// Record the completion-flag write node.
    pub fn completion(mut self) -> Self {
        self.ops.push(StreamOp::Completion);
        self
    }

    /// End capture: charge the one-time capture cost on the stream (the
    /// driver walks the graph once to bake command buffers — one op
    /// issue per node) and return the replayable graph.
    pub fn finish<W: GpuWorld>(self, sim: &mut Sim<W>) -> StreamGraph {
        let cost = op_issue_time(&sim.world.gpus_ref().topo, self.ops.len());
        let now = sim.now();
        let (start, end) = sim.world.gpus().stream_mut(self.stream).reserve(now, cost);
        sim.trace.span_at(
            start,
            end,
            names::CAT_GPUSIM,
            names::SPAN_STREAM_CAPTURE,
            Track::Stream {
                gpu: self.stream.gpu.0,
                index: self.stream.index as u32,
            },
        );
        sim.trace.count(names::OFFLOAD_STREAM_CAPTURES, 0, 0, 1);
        let doorbell_bytes = self
            .ops
            .iter()
            .map(|op| match op {
                StreamOp::Doorbell { bytes } => *bytes,
                _ => 0,
            })
            .sum();
        StreamGraph {
            stream: self.stream,
            ops: self.ops,
            doorbell_bytes,
        }
    }
}

/// Stream front-end issue time of `ops` graph nodes.
pub fn op_issue_time(topo: &NodeTopology, ops: usize) -> SimTime {
    SimTime::from_nanos(topo.stream_op_issue.as_nanos().saturating_mul(ops as u64))
}

/// What re-arming a captured graph of `ops` nodes charges its stream:
/// the doorbell latency once plus per-op issue.
pub fn replay_cost(topo: &NodeTopology, ops: usize) -> SimTime {
    topo.stream_doorbell_lat + op_issue_time(topo, ops)
}

/// Re-arm a captured graph for one iteration: the stream front-end
/// pays the doorbell latency once plus per-op issue for every node,
/// then `armed` runs — at which point the graph's kernels and wire
/// legs proceed with no CPU event in between.
///
/// Degradation windows on [`FaultOp::StreamDoorbell`] stretch the
/// charge; transient/permanent doorbell faults are rolled by the
/// protocol layer *before* replay (a lost doorbell demotes the path,
/// it does not corrupt an issued one).
pub fn replay_issue<W: GpuWorld>(
    sim: &mut Sim<W>,
    graph: &StreamGraph,
    armed: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    let cost = replay_cost(&sim.world.gpus_ref().topo, graph.op_count());
    let cost = crate::fault::fault_scaled(sim, FaultOp::StreamDoorbell, cost);
    let now = sim.now();
    let stream = graph.stream;
    let (start, end) = sim.world.gpus().stream_mut(stream).reserve(now, cost);
    sim.trace.span_at(
        start,
        end,
        names::CAT_GPUSIM,
        names::SPAN_STREAM_REPLAY,
        Track::Stream {
            gpu: stream.gpu.0,
            index: stream.index as u32,
        },
    );
    sim.trace.count(names::OFFLOAD_STREAM_REPLAYS, 0, 0, 1);
    sim.schedule_at(end, move |sim| armed(sim, end));
}

/// Run one kernel node of a captured graph: the same coalescing cost
/// model as [`crate::kernel::launch_transfer_kernel`], minus the driver
/// launch overhead — the graph pre-baked the launch and the stream
/// front-end already paid per-op issue at replay. Degradation windows
/// on [`FaultOp::KernelLaunch`] still stretch the charge; loss faults
/// are the doorbell's to absorb (the whole replay demotes), so no
/// retry loop lives here.
pub fn graph_kernel<W: GpuWorld>(
    sim: &mut Sim<W>,
    stream: StreamId,
    src: Ptr,
    dst: Ptr,
    units: Vec<CopyOp>,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    let (shape, duration) = {
        let sys = sim.world.gpus_ref();
        let shape = kernel_shape(&units, src.offset, dst.offset, &sys.gpu(stream.gpu).spec);
        let (rates, s, d) = kernel_rates(sys, stream.gpu, src, dst, None);
        (shape, rates.body_time(&shape, s, d, true))
    };
    let duration = crate::fault::fault_scaled(sim, FaultOp::KernelLaunch, duration);
    let now = sim.now();
    let (start, end) = sim.world.gpus().stream_mut(stream).reserve(now, duration);
    sim.trace.span_at(
        start,
        end,
        names::CAT_GPUSIM,
        names::SPAN_KERNEL,
        Track::Stream {
            gpu: stream.gpu.0,
            index: stream.index as u32,
        },
    );
    sim.schedule_at(end, move |sim| {
        sim.world
            .mem()
            .transfer(src, dst, &units)
            .expect("graph kernel transfer failed");
        sim.trace
            .count(names::GPUSIM_KERNEL_BYTES, stream.gpu.0, 0, shape.payload);
        sim.trace
            .count(names::GPUSIM_KERNEL_UNITS, stream.gpu.0, 0, shape.units);
        simcore::scratch::recycle_units_buf(units);
        done(sim, sim.now());
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::NodeWorld;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn graph(sim: &mut Sim<NodeWorld>) -> StreamGraph {
        let stream = sim.world.gpu_system.default_stream(memsim::GpuId(0));
        GraphCapture::begin(stream)
            .trigger()
            .kernel()
            .doorbell(1 << 20)
            .kernel()
            .completion()
            .finish(sim)
    }

    #[test]
    fn capture_records_ops_and_charges_once() {
        let mut sim = Sim::new(NodeWorld::new(1));
        let g = graph(&mut sim);
        assert_eq!(g.op_count(), 5);
        assert_eq!(g.doorbell_bytes(), 1 << 20);
        let busy_until = sim.world.gpu_system.stream(g.stream()).free_at();
        assert!(busy_until > SimTime::ZERO, "capture charged stream time");
    }

    #[test]
    fn replay_charges_doorbell_plus_issue() {
        let mut sim = Sim::new(NodeWorld::new(1));
        let g = graph(&mut sim);
        let capture_end = sim.world.gpu_system.stream(g.stream()).free_at();
        let topo_cost = {
            let topo = &sim.world.gpu_system.topo;
            topo.stream_doorbell_lat
                + SimTime::from_nanos(topo.stream_op_issue.as_nanos() * g.op_count() as u64)
        };
        let armed_at = Rc::new(RefCell::new(SimTime::ZERO));
        let a = Rc::clone(&armed_at);
        replay_issue(&mut sim, &g, move |_, at| *a.borrow_mut() = at);
        sim.run();
        assert_eq!(*armed_at.borrow(), capture_end + topo_cost);
    }

    #[test]
    fn graph_kernel_charges_the_launch_minus_its_overhead() {
        use crate::arch::GpuArch;
        use crate::kernel::{launch_transfer_kernel, KernelConfig};
        use memsim::{GpuId, MemSpace};
        // Misaligned, mixed-length units so every cost term is live.
        let units: Vec<CopyOp> = (0..64)
            .map(|i| CopyOp {
                src_off: i * 1000 + 8,
                dst_off: i * 700,
                len: 300 + i * 5,
            })
            .collect();
        for arch in GpuArch::registry() {
            for far in [
                MemSpace::Device(GpuId(0)),
                MemSpace::Host,
                MemSpace::Device(GpuId(1)),
            ] {
                let run = |graph: bool| -> SimTime {
                    let mut sim = Sim::new(NodeWorld::for_arch(arch, 2));
                    let gpu = GpuId(0);
                    let src = sim
                        .world
                        .memory
                        .alloc(MemSpace::Device(gpu), 1 << 17)
                        .unwrap();
                    let dst = sim.world.memory.alloc(far, 1 << 17).unwrap();
                    let stream = sim.world.gpu_system.default_stream(gpu);
                    if graph {
                        graph_kernel(&mut sim, stream, src, dst, units.clone(), |_, _| {});
                    } else {
                        let cfg = KernelConfig::default();
                        launch_transfer_kernel(
                            &mut sim,
                            stream,
                            src,
                            dst,
                            units.clone(),
                            cfg,
                            |_, _| {},
                        );
                    }
                    sim.run()
                };
                assert_eq!(
                    run(true),
                    run(false) - arch.spec().launch_overhead,
                    "{} with the far side in {far:?}",
                    arch.name
                );
            }
        }
    }

    #[test]
    fn replays_serialize_on_the_stream() {
        let mut sim = Sim::new(NodeWorld::new(1));
        let g = graph(&mut sim);
        sim.run();
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let t = Rc::clone(&times);
            replay_issue(&mut sim, &g, move |_, at| t.borrow_mut().push(at));
        }
        sim.run();
        let ts = times.borrow();
        assert_eq!(ts.len(), 3);
        assert!(ts[0] < ts[1] && ts[1] < ts[2], "FIFO stream order: {ts:?}");
    }
}

//! `cudaMemcpy` / `cudaMemcpy2D` equivalents.

use crate::fault;
use crate::system::{GpuSystem, GpuWorld, StreamId};
use faultsim::{Backoff, FaultDecision, FaultOp};
use memsim::{GpuId, MemSpace, Ptr};
use simcore::par::CopyOp;
use simcore::trace::names;
use simcore::{Sim, SimTime, Track};

/// Direction of a contiguous copy, derived from the pointer spaces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CopyDirection {
    HostToHost,
    HostToDevice,
    DeviceToHost,
    DeviceToDevice,
    /// Between two different GPUs (peer-to-peer over PCIe).
    PeerToPeer,
}

impl CopyDirection {
    pub fn of(src: Ptr, dst: Ptr) -> CopyDirection {
        match (src.space, dst.space) {
            (MemSpace::Host, MemSpace::Host) => CopyDirection::HostToHost,
            (MemSpace::Host, MemSpace::Device(_)) => CopyDirection::HostToDevice,
            (MemSpace::Device(_), MemSpace::Host) => CopyDirection::DeviceToHost,
            (MemSpace::Device(a), MemSpace::Device(b)) if a == b => CopyDirection::DeviceToDevice,
            (MemSpace::Device(_), MemSpace::Device(_)) => CopyDirection::PeerToPeer,
        }
    }

    /// Byte-counter name for this direction (same identity every run,
    /// so tests can sum per-direction traffic).
    pub fn counter(self) -> &'static str {
        match self {
            CopyDirection::HostToHost => names::GPUSIM_MEMCPY_H2H_BYTES,
            CopyDirection::HostToDevice => names::GPUSIM_MEMCPY_H2D_BYTES,
            CopyDirection::DeviceToHost => names::GPUSIM_MEMCPY_D2H_BYTES,
            CopyDirection::DeviceToDevice => names::GPUSIM_MEMCPY_D2D_BYTES,
            CopyDirection::PeerToPeer => names::GPUSIM_MEMCPY_P2P_BYTES,
        }
    }
}

/// Time a contiguous copy of `bytes` in direction `dir` issued on `gpu`
/// takes: the single copy cost definition, charged by [`memcpy`] and
/// priced by the tuners' staging stages.
pub fn contiguous_copy_time(
    sys: &GpuSystem,
    gpu: GpuId,
    dir: CopyDirection,
    bytes: u64,
) -> SimTime {
    let topo = &sys.topo;
    let g = sys.gpu(gpu);
    let lat = g.spec.memcpy_latency;
    match dir {
        CopyDirection::HostToHost => topo.host_memcpy_bw.time_for(bytes) + lat,
        CopyDirection::HostToDevice => topo.pcie_h2d.time_for(bytes) + topo.pcie_latency + lat,
        CopyDirection::DeviceToHost => topo.pcie_d2h.time_for(bytes) + topo.pcie_latency + lat,
        CopyDirection::PeerToPeer => topo.pcie_p2p.time_for(bytes) + topo.pcie_latency + lat,
        CopyDirection::DeviceToDevice => {
            // In-device copy: 2 bytes of DRAM traffic per payload byte.
            g.effective_traffic_bw().time_for(bytes * 2) + lat
        }
    }
}

/// Asynchronous contiguous copy on `stream` (like `cudaMemcpyAsync`).
/// Moves the bytes at completion time and then invokes `done`.
///
/// Fault charge point (`FaultOp::Memcpy`): transient injections re-issue
/// the copy after a capped exponential backoff (the engine charges the
/// stream again per attempt); degradation windows stretch the charge.
pub fn memcpy<W: GpuWorld>(
    sim: &mut Sim<W>,
    stream: StreamId,
    src: Ptr,
    dst: Ptr,
    bytes: u64,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    memcpy_attempt(sim, stream, src, dst, bytes, fault::default_backoff(), done);
}

fn memcpy_attempt<W: GpuWorld>(
    sim: &mut Sim<W>,
    stream: StreamId,
    src: Ptr,
    dst: Ptr,
    bytes: u64,
    mut backoff: Backoff,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    let dir = CopyDirection::of(src, dst);
    let duration = contiguous_copy_time(sim.world.gpus_ref(), stream.gpu, dir, bytes);
    let duration = fault::fault_scaled(sim, FaultOp::Memcpy, duration);
    let now = sim.now();
    let (start, end) = sim.world.gpus().stream_mut(stream).reserve(now, duration);
    let track = Track::Stream {
        gpu: stream.gpu.0,
        index: stream.index as u32,
    };
    sim.trace
        .span_at(start, end, names::CAT_GPUSIM, names::SPAN_MEMCPY, track);
    let verdict = fault::fault_roll(sim, FaultOp::Memcpy);
    sim.schedule_at(end, move |sim| {
        if verdict.is_fault() {
            if verdict == FaultDecision::Lost || backoff.attempts() >= fault::RETRY_MAX {
                fault::retries_exhausted(FaultOp::Memcpy, backoff.attempts());
            }
            fault::count_retry(sim, FaultOp::Memcpy);
            let delay = backoff.next_delay();
            sim.schedule_in(delay, move |sim| {
                memcpy_attempt(sim, stream, src, dst, bytes, backoff, done);
            });
            return;
        }
        sim.world
            .mem()
            .copy(src, dst, bytes)
            .expect("memcpy failed");
        sim.trace.count(dir.counter(), stream.gpu.0, 0, bytes);
        done(sim, sim.now());
    });
}

/// Asynchronous strided 2-D copy (like `cudaMemcpy2DAsync`): `height`
/// rows of `width` bytes, rows `src_pitch`/`dst_pitch` bytes apart.
///
/// Timing reproduces the behaviour the paper leans on in Figure 8:
/// through the DMA engine (any H2D/D2H direction) the effective
/// bandwidth collapses when `width` is not a multiple of 64 bytes, and
/// every row pays a descriptor overhead. Device-internal 2-D copies run
/// as a kernel and behave like our own pack kernels.
#[allow(clippy::too_many_arguments)]
pub fn memcpy_2d<W: GpuWorld>(
    sim: &mut Sim<W>,
    stream: StreamId,
    src: Ptr,
    src_pitch: u64,
    dst: Ptr,
    dst_pitch: u64,
    width: u64,
    height: u64,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    assert!(
        src_pitch >= width && dst_pitch >= width,
        "pitch smaller than width"
    );
    memcpy_2d_attempt(
        sim,
        stream,
        src,
        src_pitch,
        dst,
        dst_pitch,
        width,
        height,
        fault::default_backoff(),
        done,
    );
}

#[allow(clippy::too_many_arguments)]
fn memcpy_2d_attempt<W: GpuWorld>(
    sim: &mut Sim<W>,
    stream: StreamId,
    src: Ptr,
    src_pitch: u64,
    dst: Ptr,
    dst_pitch: u64,
    width: u64,
    height: u64,
    mut backoff: Backoff,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    let dir = CopyDirection::of(src, dst);
    let bytes = width * height;
    let duration = {
        let sys = sim.world.gpus_ref();
        let topo = &sys.topo;
        let g = sys.gpu(stream.gpu);
        let row_overhead = SimTime::from_nanos(topo.memcpy2d_row_overhead.as_nanos() * height);
        match dir {
            CopyDirection::DeviceToDevice => {
                // Kernel-backed: charge coalesced traffic per row.
                let spec = &g.spec;
                let mut traffic = 0u64;
                for r in 0..height {
                    let s_off = src.offset + r * src_pitch;
                    let d_off = dst.offset + r * dst_pitch;
                    traffic += row_traffic(s_off, width, spec) + row_traffic(d_off, width, spec);
                }
                g.effective_traffic_bw().time_for(traffic) + spec.launch_overhead
            }
            _ => {
                let base_bw = match dir {
                    CopyDirection::HostToDevice => topo.pcie_h2d,
                    CopyDirection::DeviceToHost => topo.pcie_d2h,
                    CopyDirection::PeerToPeer => topo.pcie_p2p,
                    CopyDirection::HostToHost => topo.host_memcpy_bw,
                    CopyDirection::DeviceToDevice => unreachable!(),
                };
                let eff = if width.is_multiple_of(64) {
                    base_bw
                } else {
                    base_bw.derated(topo.memcpy2d_misaligned_factor)
                };
                eff.time_for(bytes) + topo.pcie_latency + g.spec.memcpy_latency + row_overhead
            }
        }
    };

    let duration = fault::fault_scaled(sim, FaultOp::Memcpy, duration);
    let now = sim.now();
    let (start, end) = sim.world.gpus().stream_mut(stream).reserve(now, duration);
    let track = Track::Stream {
        gpu: stream.gpu.0,
        index: stream.index as u32,
    };
    sim.trace
        .span_at(start, end, names::CAT_GPUSIM, names::SPAN_MEMCPY2D, track);
    let verdict = fault::fault_roll(sim, FaultOp::Memcpy);
    sim.schedule_at(end, move |sim| {
        if verdict.is_fault() {
            if verdict == FaultDecision::Lost || backoff.attempts() >= fault::RETRY_MAX {
                fault::retries_exhausted(FaultOp::Memcpy, backoff.attempts());
            }
            fault::count_retry(sim, FaultOp::Memcpy);
            let delay = backoff.next_delay();
            sim.schedule_in(delay, move |sim| {
                memcpy_2d_attempt(
                    sim, stream, src, src_pitch, dst, dst_pitch, width, height, backoff, done,
                );
            });
            return;
        }
        let ops: Vec<CopyOp> = (0..height)
            .map(|r| CopyOp {
                src_off: (r * src_pitch) as usize,
                dst_off: (r * dst_pitch) as usize,
                len: width as usize,
            })
            .collect();
        sim.world
            .mem()
            .transfer(src, dst, &ops)
            .expect("memcpy2d failed");
        sim.trace.count(dir.counter(), stream.gpu.0, 0, bytes);
        done(sim, sim.now());
    });
}

fn row_traffic(off: u64, width: u64, spec: &crate::spec::GpuSpec) -> u64 {
    // Same access-lines rule as the kernel model: one row is one unit.
    crate::kernel::access_lines(off, width, spec) * spec.transaction_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuSpec;
    use crate::system::NodeWorld;
    use memsim::GpuId;

    fn setup(gpus: u32) -> Sim<NodeWorld> {
        Sim::new(NodeWorld::new(gpus))
    }

    #[test]
    fn direction_classification() {
        let h = Ptr {
            space: MemSpace::Host,
            alloc: memsim::AllocId(0),
            offset: 0,
        };
        let d0 = Ptr {
            space: MemSpace::Device(GpuId(0)),
            alloc: memsim::AllocId(1),
            offset: 0,
        };
        let d1 = Ptr {
            space: MemSpace::Device(GpuId(1)),
            alloc: memsim::AllocId(2),
            offset: 0,
        };
        assert_eq!(CopyDirection::of(h, d0), CopyDirection::HostToDevice);
        assert_eq!(CopyDirection::of(d0, h), CopyDirection::DeviceToHost);
        assert_eq!(CopyDirection::of(d0, d0), CopyDirection::DeviceToDevice);
        assert_eq!(CopyDirection::of(d0, d1), CopyDirection::PeerToPeer);
        assert_eq!(CopyDirection::of(h, h), CopyDirection::HostToHost);
    }

    #[test]
    fn h2d_moves_bytes_at_pcie_rate() {
        let mut sim = setup(1);
        let len = 10u64 << 20; // 10 MiB
        let h = sim.world.memory.alloc(MemSpace::Host, len).unwrap();
        let d = sim
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), len)
            .unwrap();
        let data: Vec<u8> = (0..len).map(|i| (i % 255) as u8).collect();
        sim.world.memory.write(h, &data).unwrap();
        let st = sim.world.gpu_system.default_stream(GpuId(0));
        memcpy(&mut sim, st, h, d, len, |_, _| {});
        let end = sim.run();
        assert_eq!(sim.world.memory.read_vec(d, len).unwrap(), data);
        let secs = end.as_secs_f64();
        let rate = len as f64 / secs / 1e9;
        assert!((9.0..=10.0).contains(&rate), "PCIe rate was {rate} GB/s");
    }

    #[test]
    fn d2d_is_much_faster_than_pcie() {
        let mut sim = setup(1);
        let len = 10u64 << 20;
        let a = sim
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), len)
            .unwrap();
        let b = sim
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), len)
            .unwrap();
        let st = sim.world.gpu_system.default_stream(GpuId(0));
        memcpy(&mut sim, st, a, b, len, |_, _| {});
        let t_d2d = sim.run();

        let mut sim2 = setup(1);
        let h = sim2.world.memory.alloc(MemSpace::Host, len).unwrap();
        let d = sim2
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), len)
            .unwrap();
        let st2 = sim2.world.gpu_system.default_stream(GpuId(0));
        memcpy(&mut sim2, st2, h, d, len, |_, _| {});
        let t_h2d = sim2.run();
        assert!(t_d2d.as_nanos() * 10 < t_h2d.as_nanos());
    }

    #[test]
    fn stream_serializes_copies() {
        let mut sim = setup(1);
        let len = 1u64 << 20;
        let h = sim.world.memory.alloc(MemSpace::Host, len).unwrap();
        let d = sim
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), len)
            .unwrap();
        let st = sim.world.gpu_system.default_stream(GpuId(0));
        memcpy(&mut sim, st, h, d, len, |_, _| {});
        memcpy(&mut sim, st, h, d, len, |_, _| {});
        let serial_end = sim.run();

        // Same two copies on two different streams overlap.
        let mut sim2 = setup(1);
        let h2 = sim2.world.memory.alloc(MemSpace::Host, len).unwrap();
        let d2 = sim2
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), len)
            .unwrap();
        let st_a = sim2.world.gpu_system.default_stream(GpuId(0));
        let st_b = sim2.world.gpu_system.create_stream(GpuId(0));
        memcpy(&mut sim2, st_a, h2, d2, len, |_, _| {});
        memcpy(&mut sim2, st_b, h2, d2, len, |_, _| {});
        let parallel_end = sim2.run();
        assert!(parallel_end < serial_end);
    }

    #[test]
    fn memcpy2d_aligned_vs_misaligned_cliff() {
        let run = |width: u64| -> SimTime {
            let mut sim = setup(1);
            let rows = 1024u64;
            let pitch = 2048u64;
            let d = sim
                .world
                .memory
                .alloc(MemSpace::Device(GpuId(0)), pitch * rows)
                .unwrap();
            let h = sim
                .world
                .memory
                .alloc(MemSpace::Host, pitch * rows)
                .unwrap();
            let st = sim.world.gpu_system.default_stream(GpuId(0));
            memcpy_2d(&mut sim, st, d, pitch, h, width, width, rows, |_, _| {});
            sim.run()
        };
        let aligned = run(1024); // multiple of 64
        let misaligned = run(1000); // not a multiple of 64
                                    // Less data but much slower.
        assert!(
            misaligned.as_nanos() > aligned.as_nanos() * 3,
            "expected the 64-byte cliff: {misaligned} vs {aligned}"
        );
    }

    #[test]
    fn memcpy2d_moves_the_right_rows() {
        let mut sim = setup(1);
        let src = sim
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), 64)
            .unwrap();
        let dst = sim.world.memory.alloc(MemSpace::Host, 16).unwrap();
        let data: Vec<u8> = (0..64).collect();
        sim.world.memory.write(src, &data).unwrap();
        let st = sim.world.gpu_system.default_stream(GpuId(0));
        // 4 rows of 4 bytes from a pitch-16 matrix.
        memcpy_2d(&mut sim, st, src, 16, dst, 4, 4, 4, |_, _| {});
        sim.run();
        let out = sim.world.memory.read_vec(dst, 16).unwrap();
        assert_eq!(
            out,
            vec![0, 1, 2, 3, 16, 17, 18, 19, 32, 33, 34, 35, 48, 49, 50, 51]
        );
    }

    #[test]
    fn contention_slows_d2d_but_not_pcie() {
        let len = 8u64 << 20;
        let run = |share: f64| -> (SimTime, SimTime) {
            let mut sim = setup(1);
            sim.world.gpu_system.gpu_mut(GpuId(0)).bandwidth_share = share;
            let a = sim
                .world
                .memory
                .alloc(MemSpace::Device(GpuId(0)), len)
                .unwrap();
            let b = sim
                .world
                .memory
                .alloc(MemSpace::Device(GpuId(0)), len)
                .unwrap();
            let h = sim.world.memory.alloc(MemSpace::Host, len).unwrap();
            let st = sim.world.gpu_system.default_stream(GpuId(0));
            memcpy(&mut sim, st, a, b, len, |_, _| {});
            let t_d2d = sim.run();
            let st2 = sim.world.gpu_system.create_stream(GpuId(0));
            let start = sim.now();
            memcpy(&mut sim, st2, h, a, len, |_, _| {});
            (t_d2d, sim.run() - start)
        };
        let (d2d_full, h2d_full) = run(1.0);
        let (d2d_half, h2d_half) = run(0.5);
        assert!(
            d2d_half.as_nanos() > d2d_full.as_nanos() * 18 / 10,
            "DRAM-bound copy slows"
        );
        assert_eq!(
            h2d_full, h2d_half,
            "PCIe copy unaffected by DRAM contention"
        );
    }

    #[test]
    #[should_panic(expected = "pitch smaller than width")]
    fn memcpy2d_rejects_bad_pitch() {
        let mut sim = setup(1);
        let d = sim
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), 1024)
            .unwrap();
        let h = sim.world.memory.alloc(MemSpace::Host, 1024).unwrap();
        let st = sim.world.gpu_system.default_stream(GpuId(0));
        memcpy_2d(&mut sim, st, d, 32, h, 64, 64, 4, |_, _| {});
    }

    #[test]
    fn per_call_latency_penalizes_many_small_copies() {
        // The baseline's weakness: issuing N tiny copies costs N×latency.
        let mut sim = setup(1);
        let len = 1u64 << 10;
        let h = sim.world.memory.alloc(MemSpace::Host, len * 64).unwrap();
        let d = sim
            .world
            .memory
            .alloc(MemSpace::Device(GpuId(0)), len * 64)
            .unwrap();
        let st = sim.world.gpu_system.default_stream(GpuId(0));
        for i in 0..64 {
            memcpy(&mut sim, st, h.add(i * len), d.add(i * len), len, |_, _| {});
        }
        let many = sim.run();
        let lat = GpuSpec::k40().memcpy_latency;
        assert!(many.as_nanos() >= 64 * lat.as_nanos());
    }
}

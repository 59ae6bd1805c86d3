//! The transfer (pack/unpack) kernel: functional execution plus the
//! coalescing cost model.
//!
//! A work unit is a `(src_off, dst_off, len)` segment move — the
//! `cuda_dev_dist` struct of the paper. The kernel walks units with a
//! grid-stride loop; each warp moves one 256-byte chunk per iteration
//! (32 threads × 8 bytes). The cost model counts the 128-byte cache
//! lines each chunk touches on each side:
//!
//! * an aligned chunk touches 2 lines (256 B of traffic) per side;
//! * a misaligned chunk straddles 3 lines (384 B) per side — a 1.5×
//!   traffic penalty, which is exactly where the triangular matrix loses
//!   its ~20% of bandwidth in Figure 6;
//! * every unit also streams its 32-byte descriptor from global memory,
//!   which penalizes datatypes shattered into tiny blocks (Figure 12's
//!   transpose with 8-byte units).
//!
//! Sides that live off-GPU (zero-copy mapped host memory, or a peer
//! GPU's memory accessed through IPC) are charged PCIe time instead of
//! DRAM traffic; kernel time is the max of the two, since the hardware
//! overlaps them.

use crate::fault;
use crate::spec::GpuSpec;
use crate::system::{GpuSystem, GpuWorld, StreamId};
use faultsim::{Backoff, FaultDecision, FaultOp};
use memsim::{GpuId, MemSpace, Ptr};
use simcore::par::CopyOp;
use simcore::trace::names;
use simcore::{Bandwidth, Sim, SimTime, Track};

/// Launch configuration for a transfer kernel.
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Thread-block count override; `None` launches enough blocks to
    /// fill every SM.
    pub blocks: Option<u32>,
    /// Whether the kernel streams a CUDA-DEV descriptor array from
    /// global memory. The specialized *vector* kernel computes its
    /// offsets arithmetically from `(blocklength, stride, count)` and
    /// sets this false; the general DEV kernel sets it true.
    pub descriptor_stream: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            blocks: None,
            descriptor_stream: true,
        }
    }
}

/// Transaction geometry of one GPU as shift/mask pairs. Transaction
/// and warp-chunk sizes are powers of two on every registered part
/// (32- or 128-byte lines, 256-byte chunks), so line counting needs no
/// division; [`LineGeometry::of`] refuses a spec that breaks this.
#[derive(Clone, Copy, Debug)]
struct LineGeometry {
    txn_shift: u32,
    txn_mask: u64,
    chunk_shift: u32,
    chunk_mask: u64,
    /// Lines a transaction-aligned full chunk touches (`chunk / txn`).
    lines_per_chunk: u64,
}

impl LineGeometry {
    fn of(spec: &GpuSpec) -> LineGeometry {
        let txn = spec.transaction_bytes;
        let chunk = spec.warp_chunk();
        assert!(
            txn.is_power_of_two() && chunk.is_power_of_two() && chunk >= txn,
            "GpuSpec {:?}: transaction_bytes ({txn}) and warp_chunk ({chunk}) must be \
             powers of two with the chunk a multiple of the transaction size",
            spec.name
        );
        LineGeometry {
            txn_shift: txn.trailing_zeros(),
            txn_mask: txn - 1,
            chunk_shift: chunk.trailing_zeros(),
            chunk_mask: chunk - 1,
            lines_per_chunk: chunk / txn,
        }
    }

    /// Lines touched by one warp-chunked access of `len` bytes at byte
    /// address `disp`. Full chunks all share the start's phase (the
    /// chunk is a multiple of the line), so this is O(1): an aligned
    /// chunk touches `chunk / txn` lines, a misaligned one straddles
    /// one more, and the residue covers whatever lines its bytes span.
    #[inline]
    fn lines(&self, disp: u64, len: u64) -> u64 {
        let full_chunks = len >> self.chunk_shift;
        let misaligned = (disp & self.txn_mask != 0) as u64;
        let mut lines = full_chunks * (self.lines_per_chunk + misaligned);
        let residue = len & self.chunk_mask;
        if residue > 0 {
            let start = disp + (full_chunks << self.chunk_shift);
            lines += ((start + residue - 1) >> self.txn_shift) - (start >> self.txn_shift) + 1;
        }
        lines
    }
}

/// Transaction-sized lines touched by one warp-chunked access of `len`
/// bytes at byte address `disp`. The single line-counting rule every
/// charge site uses: kernel units through [`kernel_shape`], and
/// `cudaMemcpy2D` rows in [`crate::copy`].
pub(crate) fn access_lines(disp: u64, len: u64, spec: &GpuSpec) -> u64 {
    LineGeometry::of(spec).lines(disp, len)
}

/// Everything the kernel cost model needs from a unit list, gathered in
/// one pass: the unit count (descriptor traffic), the payload (PCIe
/// bytes and the byte counters) and the lines each side touches when
/// it sits in the executing GPU's DRAM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelShape {
    /// Work units (descriptors) in the launch.
    pub units: u64,
    /// Payload bytes the launch moves.
    pub payload: u64,
    /// Lines touched on the source side, based at `src_base`.
    pub src_lines: u64,
    /// Lines touched on the destination side, based at `dst_base`.
    pub dst_lines: u64,
}

/// Summarize `units` for pricing, with the source and destination
/// buffers at byte offsets `src_base` and `dst_base`.
pub fn kernel_shape(units: &[CopyOp], src_base: u64, dst_base: u64, spec: &GpuSpec) -> KernelShape {
    let geo = LineGeometry::of(spec);
    let mut shape = KernelShape {
        units: units.len() as u64,
        ..KernelShape::default()
    };
    for u in units {
        let len = u.len as u64;
        shape.payload += len;
        shape.src_lines += geo.lines(src_base + u.src_off as u64, len);
        shape.dst_lines += geo.lines(dst_base + u.dst_off as u64, len);
    }
    shape
}

impl KernelShape {
    /// Estimate the shape of a `payload`-byte launch of `units` units
    /// without a unit list, from the average run length alone: the typed
    /// side (the source) is scattered — a misaligned run pays one extra
    /// line per warp chunk plus a partial line — and the packed side (the
    /// destination) is dense but still pays a partial line per unit.
    /// This is what the tuners price a fragment they have not cut yet at.
    pub fn estimate(units: u64, payload: u64, rates: &KernelRates) -> KernelShape {
        let geo = &rates.geo;
        let base = (payload >> geo.txn_shift) + units.min(payload);
        KernelShape {
            units,
            payload,
            src_lines: base + (payload >> geo.chunk_shift),
            dst_lines: base,
        }
    }
}

/// Where one side of a transfer kernel lives, relative to the executing
/// GPU.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// In the executing GPU's own DRAM.
    Local,
    /// Zero-copy mapped host memory, reached over PCIe.
    MappedHost,
    /// A peer GPU's memory reached over PCIe P2P (IPC mapping).
    Peer,
}

impl Placement {
    pub fn of(ptr: Ptr, exec_gpu: GpuId) -> Placement {
        match ptr.space {
            MemSpace::Host => Placement::MappedHost,
            MemSpace::Device(g) if g == exec_gpu => Placement::Local,
            MemSpace::Device(_) => Placement::Peer,
        }
    }

    /// The off-GPU side of a kernel between `src` and `dst` (`Local`
    /// when both live in the executing GPU).
    fn far(src: Placement, dst: Placement) -> Placement {
        if src == Placement::Local {
            dst
        } else {
            src
        }
    }
}

/// The rates one GPU charges a transfer kernel at, resolved once per
/// (GPU, off-GPU placement, block limit): the derated DRAM traffic rate,
/// the PCIe rate and latency of the far side, the launch overhead and
/// the line geometry. The one kernel cost definition: launches, graph
/// kernels and the analytic tuners all price a [`KernelShape`] here.
#[derive(Clone, Copy, Debug)]
pub struct KernelRates {
    geo: LineGeometry,
    launch: SimTime,
    descriptor_bytes: u64,
    dram: Bandwidth,
    pcie: Bandwidth,
    pcie_latency: SimTime,
}

impl KernelRates {
    /// Rates for a kernel on `gpu` whose off-GPU side (if any) sits at
    /// `far`, limited to `blocks` thread blocks (`None`: every SM).
    pub fn of(sys: &GpuSystem, gpu: GpuId, far: Placement, blocks: Option<u32>) -> KernelRates {
        let g = sys.gpu(gpu);
        let mut dram = g
            .effective_traffic_bw()
            .derated(g.spec.pack_kernel_efficiency);
        if let Some(blocks) = blocks {
            let occ = (blocks as f64 / g.spec.sm_count as f64).min(1.0);
            dram = dram.derated(occ.max(f64::MIN_POSITIVE));
        }
        let topo = &sys.topo;
        // Zero-copy traffic rides the host link, peer traffic the
        // derated P2P link (h2d and d2h rates are symmetric in every
        // topology table).
        let pcie = match far {
            Placement::MappedHost => topo.pcie_h2d,
            Placement::Local | Placement::Peer => {
                topo.pcie_p2p.derated(topo.peer_kernel_efficiency)
            }
        };
        KernelRates {
            geo: LineGeometry::of(&g.spec),
            launch: g.spec.launch_overhead,
            descriptor_bytes: g.spec.descriptor_bytes,
            dram,
            pcie,
            pcie_latency: topo.pcie_latency,
        }
    }

    /// The driver launch overhead every non-graph launch pays.
    pub fn launch_overhead(&self) -> SimTime {
        self.launch
    }

    /// Kernel body time, launch excluded: DRAM traffic (both local
    /// sides' lines plus the descriptor stream) against the far side's
    /// PCIe bytes plus latency — the hardware overlaps the two, so the
    /// body takes the longer.
    pub fn body_time(
        &self,
        shape: &KernelShape,
        src: Placement,
        dst: Placement,
        descriptor_stream: bool,
    ) -> SimTime {
        assert!(
            src == Placement::Local || dst == Placement::Local,
            "transfer kernel must touch the executing GPU's memory on at least one side"
        );
        // The general DEV kernel streams its descriptors from local DRAM.
        let mut dram_traffic = if descriptor_stream {
            shape.units * self.descriptor_bytes
        } else {
            0
        };
        let mut pcie_bytes = 0u64;
        for (side, lines) in [(src, shape.src_lines), (dst, shape.dst_lines)] {
            match side {
                Placement::Local => dram_traffic += lines << self.geo.txn_shift,
                Placement::MappedHost | Placement::Peer => pcie_bytes += shape.payload,
            }
        }
        let dram_time = self.dram.time_for(dram_traffic);
        let pcie_time = if pcie_bytes > 0 {
            self.pcie.time_for(pcie_bytes) + self.pcie_latency
        } else {
            SimTime::ZERO
        };
        dram_time.max(pcie_time)
    }

    /// Launched kernel time: the launch overhead plus the body.
    pub fn time(
        &self,
        shape: &KernelShape,
        src: Placement,
        dst: Placement,
        descriptor_stream: bool,
    ) -> SimTime {
        self.launch + self.body_time(shape, src, dst, descriptor_stream)
    }
}

/// Resolve the rates and placements of a kernel between `src` and `dst`
/// on `gpu`: the pricing prologue launches and graph kernels share.
pub(crate) fn kernel_rates(
    sys: &GpuSystem,
    gpu: GpuId,
    src: Ptr,
    dst: Ptr,
    blocks: Option<u32>,
) -> (KernelRates, Placement, Placement) {
    let (s, d) = (Placement::of(src, gpu), Placement::of(dst, gpu));
    (
        KernelRates::of(sys, gpu, Placement::far(s, d), blocks),
        s,
        d,
    )
}

/// Launch a pack/unpack kernel on `stream`: reserves the stream for the
/// modeled duration, moves the bytes when it completes, then calls
/// `done` with the completion time.
///
/// Fault charge point (`FaultOp::KernelLaunch`): transient injections
/// re-launch with the same unit list after a capped backoff; degrade
/// windows stretch the charge.
pub fn launch_transfer_kernel<W: GpuWorld>(
    sim: &mut Sim<W>,
    stream: StreamId,
    src: Ptr,
    dst: Ptr,
    units: Vec<CopyOp>,
    cfg: KernelConfig,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    // One pass over the units prices every attempt and feeds the
    // completion's byte counters.
    let shape = kernel_shape(
        &units,
        src.offset,
        dst.offset,
        &sim.world.gpus_ref().gpu(stream.gpu).spec,
    );
    launch_attempt(
        sim,
        stream,
        src,
        dst,
        units,
        shape,
        cfg,
        fault::default_backoff(),
        done,
    );
}

#[allow(clippy::too_many_arguments)]
fn launch_attempt<W: GpuWorld>(
    sim: &mut Sim<W>,
    stream: StreamId,
    src: Ptr,
    dst: Ptr,
    units: Vec<CopyOp>,
    shape: KernelShape,
    cfg: KernelConfig,
    mut backoff: Backoff,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    let duration = {
        let (rates, s, d) = kernel_rates(sim.world.gpus_ref(), stream.gpu, src, dst, cfg.blocks);
        rates.time(&shape, s, d, cfg.descriptor_stream)
    };
    let duration = fault::fault_scaled(sim, FaultOp::KernelLaunch, duration);
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
    let verdict = fault::fault_roll(sim, FaultOp::KernelLaunch);
    sim.schedule_at(end, move |sim| {
        if verdict.is_fault() {
            if verdict == FaultDecision::Lost || backoff.attempts() >= fault::RETRY_MAX {
                fault::retries_exhausted(FaultOp::KernelLaunch, backoff.attempts());
            }
            fault::count_retry(sim, FaultOp::KernelLaunch);
            let delay = backoff.next_delay();
            sim.schedule_in(delay, move |sim| {
                launch_attempt(sim, stream, src, dst, units, shape, cfg, backoff, done);
            });
            return;
        }
        sim.world
            .mem()
            .transfer(src, dst, &units)
            .expect("kernel transfer failed");
        sim.trace
            .count(names::GPUSIM_KERNEL_BYTES, stream.gpu.0, 0, shape.payload);
        // Units per launch make the optimizer's coalescing visible in
        // metrics: fewer, larger units at the same byte count.
        sim.trace
            .count(names::GPUSIM_KERNEL_UNITS, stream.gpu.0, 0, shape.units);
        sim.trace
            .count(names::GPUSIM_KERNEL_LAUNCHES, stream.gpu.0, 0, 1);
        // Unit buffers cycle back to the scratch shelf so the fragment
        // pipeline reuses a handful of allocations at steady state.
        simcore::scratch::recycle_units_buf(units);
        done(sim, sim.now());
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::NodeWorld;
    use memsim::GpuId;

    fn spec() -> GpuSpec {
        GpuSpec::k40()
    }

    /// Rates with explicit DRAM and PCIe figures, for analytic checks.
    fn rates(s: &GpuSpec, dram: Bandwidth, pcie: Bandwidth, pcie_latency: SimTime) -> KernelRates {
        KernelRates {
            geo: LineGeometry::of(s),
            launch: s.launch_overhead,
            descriptor_bytes: s.descriptor_bytes,
            dram,
            pcie,
            pcie_latency,
        }
    }

    fn price(r: &KernelRates, src: Ptr, dst: Ptr, exec: GpuId, shape: &KernelShape) -> SimTime {
        r.time(
            shape,
            Placement::of(src, exec),
            Placement::of(dst, exec),
            true,
        )
    }

    /// The per-unit pricing walk the shape pass replaced, kept as the
    /// oracle: division-based line counting, one traffic walk per
    /// local side, and the payload summed separately.
    mod oracle {
        use super::*;

        pub fn access_lines(disp: u64, len: u64, spec: &GpuSpec) -> u64 {
            if len == 0 {
                return 0;
            }
            let txn = spec.transaction_bytes;
            let chunk = spec.warp_chunk();
            let full_chunks = len / chunk;
            let phase = disp % txn;
            let lines_per_full = if phase == 0 {
                chunk / txn
            } else {
                chunk / txn + 1
            };
            let mut lines = full_chunks * lines_per_full;
            let residue = len % chunk;
            if residue > 0 {
                let start = disp + full_chunks * chunk;
                lines += (start + residue - 1) / txn - start / txn + 1;
            }
            lines
        }

        pub fn side_traffic_bytes(
            units: &[CopyOp],
            base_off: u64,
            side_src: bool,
            spec: &GpuSpec,
        ) -> u64 {
            units
                .iter()
                .map(|u| {
                    let off = base_off + if side_src { u.src_off } else { u.dst_off } as u64;
                    access_lines(off, u.len as u64, spec) * spec.transaction_bytes
                })
                .sum()
        }

        #[allow(clippy::too_many_arguments)]
        pub fn transfer_kernel_time(
            spec: &GpuSpec,
            eff_traffic_bw: Bandwidth,
            pcie_bw: Bandwidth,
            pcie_latency: SimTime,
            src: Ptr,
            dst: Ptr,
            exec_gpu: memsim::GpuId,
            units: &[CopyOp],
            descriptor_stream: bool,
        ) -> SimTime {
            let payload: u64 = units.iter().map(|u| u.len as u64).sum();
            let src_side = Placement::of(src, exec_gpu);
            let dst_side = Placement::of(dst, exec_gpu);
            let mut dram_traffic = if descriptor_stream {
                units.len() as u64 * spec.descriptor_bytes
            } else {
                0
            };
            let mut pcie_bytes = 0u64;
            for (side, is_src, base) in
                [(src_side, true, src.offset), (dst_side, false, dst.offset)]
            {
                match side {
                    Placement::Local => {
                        dram_traffic += side_traffic_bytes(units, base, is_src, spec);
                    }
                    Placement::MappedHost | Placement::Peer => pcie_bytes += payload,
                }
            }
            let dram_time = eff_traffic_bw.time_for(dram_traffic);
            let pcie_time = if pcie_bytes > 0 {
                pcie_bw.time_for(pcie_bytes) + pcie_latency
            } else {
                SimTime::ZERO
            };
            spec.launch_overhead + dram_time.max(pcie_time)
        }
    }

    /// A random unit list: mostly short units at any phase, some longer
    /// than a warp chunk, occasionally empty ones.
    fn random_units(rng: &mut simcore::rng::SimRng) -> Vec<CopyOp> {
        let n = rng.range(0, 48);
        (0..n)
            .map(|_| {
                let len = match rng.range(0, 10) {
                    0 => 0,
                    1..=5 => rng.range(1, 300),
                    6..=8 => rng.range(256, 5000),
                    _ => rng.range(5000, 70_000),
                };
                CopyOp {
                    src_off: rng.range(0, 1 << 20),
                    dst_off: rng.range(0, 1 << 20),
                    len,
                }
            })
            .collect()
    }

    #[test]
    fn shape_pricing_matches_the_per_unit_oracle() {
        let exec = GpuId(0);
        let mut rng = simcore::rng::rng(0x5eed_ca11);
        for arch in crate::arch::GpuArch::registry() {
            let s = arch.spec();
            for case in 0..400 {
                let units = random_units(&mut rng);
                let ptr = |space: MemSpace, alloc: u64, offset: u64| Ptr {
                    space,
                    alloc: memsim::AllocId(alloc),
                    offset,
                };
                let places = [
                    MemSpace::Device(exec),
                    MemSpace::Host,
                    MemSpace::Device(GpuId(1)),
                ];
                // At least one side must sit in the executing GPU.
                let (src_space, dst_space) = match rng.range(0, 5) {
                    0 => (places[0], places[0]),
                    1 => (places[0], places[1]),
                    2 => (places[1], places[0]),
                    3 => (places[0], places[2]),
                    _ => (places[2], places[0]),
                };
                let src = ptr(src_space, 0, rng.range_u64(0, 4096));
                let dst = ptr(dst_space, 1, rng.range_u64(0, 4096));

                let shape = kernel_shape(&units, src.offset, dst.offset, &s);
                assert_eq!(shape.units, units.len() as u64);
                assert_eq!(
                    shape.payload,
                    units.iter().map(|u| u.len as u64).sum::<u64>()
                );
                assert_eq!(
                    shape.src_lines * s.transaction_bytes,
                    oracle::side_traffic_bytes(&units, src.offset, true, &s),
                    "{} case {case}: src lines",
                    arch.name
                );
                assert_eq!(
                    shape.dst_lines * s.transaction_bytes,
                    oracle::side_traffic_bytes(&units, dst.offset, false, &s),
                    "{} case {case}: dst lines",
                    arch.name
                );
                for u in &units {
                    assert_eq!(
                        access_lines(src.offset + u.src_off as u64, u.len as u64, &s),
                        oracle::access_lines(src.offset + u.src_off as u64, u.len as u64, &s)
                    );
                }
                let bw = s.dram_traffic_bw.derated(s.pack_kernel_efficiency);
                let pcie = Bandwidth::from_gbps(10.0);
                let lat = SimTime::from_micros(2);
                let r = rates(&s, bw, pcie, lat);
                let (sp, dp) = (Placement::of(src, exec), Placement::of(dst, exec));
                for descriptor_stream in [true, false] {
                    assert_eq!(
                        r.time(&shape, sp, dp, descriptor_stream),
                        oracle::transfer_kernel_time(
                            &s,
                            bw,
                            pcie,
                            lat,
                            src,
                            dst,
                            exec,
                            &units,
                            descriptor_stream
                        ),
                        "{} case {case}: kernel time",
                        arch.name
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be powers of two")]
    fn non_power_of_two_transaction_is_refused() {
        let s = GpuSpec {
            transaction_bytes: 96,
            ..spec()
        };
        access_lines(0, 256, &s);
    }

    #[test]
    #[should_panic(expected = "chunk a multiple of the transaction size")]
    fn chunk_smaller_than_transaction_is_refused() {
        // 32 threads x 2 bytes = a 64-byte chunk under 128-byte lines.
        let s = GpuSpec {
            bytes_per_thread: 2,
            ..spec()
        };
        kernel_shape(
            &[CopyOp {
                src_off: 0,
                dst_off: 0,
                len: 64,
            }],
            0,
            0,
            &s,
        );
    }

    #[test]
    fn aligned_chunk_touches_two_lines() {
        let s = spec();
        assert_eq!(access_lines(0, 256, &s), 2);
        assert_eq!(access_lines(128, 256, &s), 2);
        assert_eq!(access_lines(0, 1024, &s), 8);
    }

    #[test]
    fn misaligned_chunk_touches_three_lines() {
        let s = spec();
        assert_eq!(access_lines(8, 256, &s), 3);
        assert_eq!(access_lines(120, 256, &s), 3);
        // 1 KB misaligned: 4 chunks × 3 lines.
        assert_eq!(access_lines(8, 1024, &s), 12);
    }

    #[test]
    fn residue_lines() {
        let s = spec();
        // 8 bytes at offset 0: one line.
        assert_eq!(access_lines(0, 8, &s), 1);
        // 8 bytes straddling a line boundary: two lines.
        assert_eq!(access_lines(124, 8, &s), 2);
        // 300 bytes aligned: one full chunk (2 lines) + 44-byte residue (1 line).
        assert_eq!(access_lines(0, 300, &s), 3);
        assert_eq!(access_lines(0, 0, &s), 0);
    }

    #[test]
    fn aligned_copy_reaches_peak_rate() {
        // A large aligned D2D unit list should approach the practical
        // peak copy rate (traffic = 2 bytes per payload byte).
        let s = spec();
        let units: Vec<CopyOp> = (0..16384)
            .map(|i| CopyOp {
                src_off: i * 4096,
                dst_off: i * 4096,
                len: 4096,
            })
            .collect();
        let payload: u64 = units.iter().map(|u| u.len as u64).sum();
        let gpu = GpuId(0);
        let d = Ptr {
            space: MemSpace::Device(gpu),
            alloc: memsim::AllocId(0),
            offset: 0,
        };
        let d2 = Ptr {
            space: MemSpace::Device(gpu),
            alloc: memsim::AllocId(1),
            offset: 0,
        };
        let r = rates(
            &s,
            s.dram_traffic_bw,
            Bandwidth::from_gbps(10.0),
            SimTime::from_micros(2),
        );
        let t = price(&r, d, d2, gpu, &kernel_shape(&units, 0, 0, &s));
        let rate = payload as f64 / t.as_secs_f64() / 1e9;
        let peak = s.peak_copy_rate().as_gbps();
        assert!(rate > 0.9 * peak, "rate {rate} vs peak {peak}");
        assert!(rate <= peak);
    }

    #[test]
    fn misaligned_units_lose_about_a_third() {
        let s = spec();
        let gpu = GpuId(0);
        let mk = |phase: usize| -> Vec<CopyOp> {
            (0..16384)
                .map(|i| CopyOp {
                    src_off: i * 4096 + phase,
                    dst_off: i * 4096 + phase,
                    len: 4096,
                })
                .collect()
        };
        let d = Ptr {
            space: MemSpace::Device(gpu),
            alloc: memsim::AllocId(0),
            offset: 0,
        };
        let d2 = Ptr {
            space: MemSpace::Device(gpu),
            alloc: memsim::AllocId(1),
            offset: 0,
        };
        let r = rates(
            &s,
            s.dram_traffic_bw,
            Bandwidth::from_gbps(10.0),
            SimTime::ZERO,
        );
        let t_aligned = price(&r, d, d2, gpu, &kernel_shape(&mk(0), 0, 0, &s));
        let t_misaligned = price(&r, d, d2, gpu, &kernel_shape(&mk(8), 0, 0, &s));
        let ratio = t_misaligned.as_secs_f64() / t_aligned.as_secs_f64();
        assert!(
            (1.4..1.6).contains(&ratio),
            "misalignment should cost ~1.5x traffic, got {ratio}"
        );
    }

    #[test]
    fn launch_moves_bytes_and_charges_stream() {
        let mut sim = Sim::new(NodeWorld::new(1));
        let gpu = GpuId(0);
        let src = sim.world.memory.alloc(MemSpace::Device(gpu), 4096).unwrap();
        let dst = sim.world.memory.alloc(MemSpace::Device(gpu), 2048).unwrap();
        let bytes: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        sim.world.memory.write(src, &bytes).unwrap();
        // Gather the even 256-byte chunks.
        let units: Vec<CopyOp> = (0..8)
            .map(|i| CopyOp {
                src_off: i * 512,
                dst_off: i * 256,
                len: 256,
            })
            .collect();
        let stream = sim.world.gpu_system.default_stream(gpu);
        launch_transfer_kernel(
            &mut sim,
            stream,
            src,
            dst,
            units,
            KernelConfig::default(),
            move |sim, at| {
                assert!(at > SimTime::ZERO);
                let out = sim.world.memory.read_vec(dst, 2048).unwrap();
                for i in 0..8usize {
                    assert_eq!(
                        &out[i * 256..(i + 1) * 256],
                        &(0..256)
                            .map(|j| ((i * 512 + j) % 251) as u8)
                            .collect::<Vec<_>>()[..],
                        "chunk {i}"
                    );
                }
            },
        );
        sim.run();
        assert!(sim.now() >= GpuSpec::k40().launch_overhead);
        assert_eq!(sim.world.gpu_system.stream(stream).op_count(), 1);
    }

    #[test]
    fn block_limit_slows_kernel_proportionally() {
        let mk_units = || {
            (0..256)
                .map(|i| CopyOp {
                    src_off: i * 8192,
                    dst_off: i * 8192,
                    len: 8192,
                })
                .collect::<Vec<_>>()
        };
        let run = |blocks: Option<u32>| -> SimTime {
            let mut sim = Sim::new(NodeWorld::new(1));
            let gpu = GpuId(0);
            let src = sim
                .world
                .memory
                .alloc(MemSpace::Device(gpu), 256 * 8192)
                .unwrap();
            let dst = sim
                .world
                .memory
                .alloc(MemSpace::Device(gpu), 256 * 8192)
                .unwrap();
            let stream = sim.world.gpu_system.default_stream(gpu);
            launch_transfer_kernel(
                &mut sim,
                stream,
                src,
                dst,
                mk_units(),
                KernelConfig {
                    blocks,
                    ..KernelConfig::default()
                },
                |_, _| {},
            );
            sim.run()
        };
        let full = run(None);
        let third = run(Some(5));
        let launch = GpuSpec::k40().launch_overhead;
        let work_full = (full - launch).as_secs_f64();
        let work_third = (third - launch).as_secs_f64();
        assert!(
            (work_third / work_full - 3.0).abs() < 0.05,
            "5/15 blocks should be ~3x slower: {work_third} vs {work_full}"
        );
    }

    #[test]
    fn zero_copy_is_pcie_bound() {
        let mut sim = Sim::new(NodeWorld::new(1));
        let gpu = GpuId(0);
        let len: usize = 1 << 20;
        let host = sim.world.memory.alloc(MemSpace::Host, len as u64).unwrap();
        let dev = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), len as u64)
            .unwrap();
        let stream = sim.world.gpu_system.default_stream(gpu);
        let units = vec![CopyOp {
            src_off: 0,
            dst_off: 0,
            len,
        }];
        launch_transfer_kernel(
            &mut sim,
            stream,
            dev,
            host,
            units,
            KernelConfig::default(),
            |_, _| {},
        );
        let end = sim.run();
        // 1 MB over 10 GB/s PCIe is ~105 us; DRAM side alone would be ~6 us.
        let pcie_expect = 1.048576e6 / 10e9;
        assert!(
            (end.as_secs_f64() - pcie_expect).abs() / pcie_expect < 0.2,
            "zero-copy kernel should run at PCIe speed, took {end}"
        );
    }
}

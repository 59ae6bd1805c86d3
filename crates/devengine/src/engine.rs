//! The pack/unpack execution engine: CPU preparation pipelined with GPU
//! kernels, fragment by fragment.

use crate::cache::DevCache;
use crate::config::EngineConfig;
use crate::dev::{DevCursor, DevPlan};
use crate::tune;
use datatype::{DataType, Strided2D, TypeError};
use gpusim::{launch_transfer_kernel, GpuWorld, KernelConfig, KernelRates, Placement, StreamId};
use memsim::Ptr;
use simcore::par::CopyOp;
use simcore::trace::names;
use simcore::{Sim, SimTime, Track};
use std::cell::RefCell;
use std::rc::Rc;

/// Whether the typed side is the source (pack) or destination (unpack).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    Pack,
    Unpack,
}

/// Where work units come from.
enum UnitSource {
    /// Streaming conversion on the CPU (charged preparation time).
    Fresh(DevCursor),
    /// A cached CUDA-DEV plan (no preparation cost).
    Cached { plan: Rc<DevPlan>, pos: u64 },
    /// Vector-shaped type: units are computed arithmetically by the
    /// specialized kernel — no descriptor array, no per-unit CPU cost.
    Vector {
        block_bytes: u64,
        stride: i64,
        first_disp: i64,
        pos: u64,
        total: u64,
    },
    /// Doubly-strided type (e.g. a matrix transpose): units come from
    /// two nested strides computed arithmetically by the kernel — like
    /// `Vector`, no descriptor array and no per-unit CPU cost.
    Strided2D {
        shape: Strided2D,
        pos: u64,
        total: u64,
    },
}

/// Drives one logical pack or unpack job fragment by fragment.
///
/// Each fragment covers the next contiguous window of the *packed
/// stream*. The CPU stage (DEV preparation) and the GPU stage (the
/// kernel) are separated so callers can start preparing fragment `i+1`
/// the moment fragment `i`'s preparation finishes — the paper's §3.2
/// pipeline — while kernels queue up on the CUDA stream.
pub struct FragmentEngine {
    source: UnitSource,
    dir: Direction,
    cfg: EngineConfig,
    rank: usize,
    stream: StreamId,
    typed: Ptr,
    base_shift: i64,
    total: u64,
    pos: u64,
    descriptor_stream: bool,
    /// Auto-tuned pipeline chunk for streaming sources (None = use the
    /// configured default).
    chunk_hint: Option<u64>,
}

impl FragmentEngine {
    /// Build an engine for `count` instances of `ty` at `typed`
    /// (displacement-0 pointer into GPU or mapped-host memory).
    ///
    /// When `cache` is given, a miss materializes the full plan and
    /// charges its preparation once, up front; hits are free — exactly
    /// the paper's cached-CUDA-DEV behaviour.
    #[allow(clippy::too_many_arguments)] // mirrors the convertor-creation surface
    pub fn new<W: GpuWorld>(
        sim: &mut Sim<W>,
        rank: usize,
        stream: StreamId,
        ty: &DataType,
        count: u64,
        typed: Ptr,
        dir: Direction,
        cfg: EngineConfig,
        cache: Option<&Rc<RefCell<DevCache>>>,
    ) -> Result<FragmentEngine, TypeError> {
        let cfg = cfg.validated();
        let opt = cfg.optimizer;
        let total = ty.size() * count;
        let base_shift = ty.true_lb().min(0);

        // Commit-time canonicalization: structurally equivalent layouts
        // collapse to one tree, so they share DEV plans (and cache
        // entries) and the shape recognizers below see the simple form.
        let work_ty = if opt.canonicalize {
            ty.canonical()
        } else {
            ty.clone()
        };
        let effective = if count <= 1 {
            work_ty.clone()
        } else {
            let c = DataType::contiguous(count, &work_ty)?.commit();
            if opt.canonicalize {
                c.canonical()
            } else {
                c
            }
        };

        // Specialized vector kernel path.
        if let Some((_, block_bytes, stride, first_disp)) = effective.vector_shape() {
            sim.trace
                .count(names::DEVENGINE_SOURCE_VECTOR, rank as u32, 0, 1);
            return Ok(FragmentEngine {
                source: UnitSource::Vector {
                    block_bytes,
                    stride,
                    first_disp,
                    pos: 0,
                    total,
                },
                dir,
                cfg,
                rank,
                stream,
                typed,
                base_shift,
                total,
                pos: 0,
                descriptor_stream: false,
                chunk_hint: None,
            });
        }

        // Doubly-strided layouts (transposes, submatrices of vectors)
        // also compute their offsets arithmetically — no descriptor
        // array, no CPU preparation.
        if opt.vector_dispatch {
            if let Some(shape) = effective.strided2d_shape() {
                sim.trace
                    .count(names::DEVENGINE_SOURCE_STRIDED2D, rank as u32, 0, 1);
                return Ok(FragmentEngine {
                    source: UnitSource::Strided2D {
                        shape,
                        pos: 0,
                        total,
                    },
                    dir,
                    cfg,
                    rank,
                    stream,
                    typed,
                    base_shift,
                    total,
                    pos: 0,
                    descriptor_stream: false,
                    chunk_hint: None,
                });
            }
        }

        // Work-unit size: with coalescing the plan no longer splits at S
        // so there is nothing to tune; otherwise evaluate the analytic
        // per-unit cost over the paper's candidate sizes.
        let segments = work_ty.segment_estimate().saturating_mul(count).max(1);
        // The launch rates the tuners price kernels at (the packed side
        // is assumed in-device).
        let rates = KernelRates::of(
            sim.world.gpus_ref(),
            stream.gpu,
            Placement::Local,
            cfg.blocks,
        );
        let unit_size = if opt.autotune && !opt.coalesce {
            let picked = tune::pick_unit_size(&cfg, &rates, total, segments);
            if picked != cfg.unit_size {
                sim.trace
                    .count(names::OPTIMIZER_UNIT_TUNED, rank as u32, 0, 1);
            }
            picked
        } else {
            cfg.unit_size
        };

        let source = if let Some(cache) = cache {
            let (plan, hit, evicted) = {
                let mut c = cache.borrow_mut();
                let ev0 = c.evictions();
                let (plan, hit) = c.get_or_build_opt(&work_ty, count, unit_size, opt.coalesce)?;
                (plan, hit, c.evictions() - ev0)
            };
            let now = sim.now();
            let cpu_track = Track::Cpu { rank: rank as u32 };
            if evicted > 0 {
                sim.trace
                    .count(names::DEVENGINE_CACHE_EVICT, rank as u32, 0, evicted);
            }
            if !hit {
                // First encounter: pay the one-time conversion.
                let prep = prep_time(&cfg, plan.units.len());
                let (s, e) = sim.world.cpu(rank).reserve(now, prep);
                sim.trace.instant(
                    now,
                    names::CAT_DEVENGINE,
                    names::SPAN_DEV_CACHE_MISS,
                    cpu_track,
                );
                sim.trace
                    .span_at(s, e, names::CAT_DEVENGINE, names::SPAN_PREP, cpu_track);
                sim.trace
                    .count(names::DEVENGINE_CACHE_MISS, rank as u32, 0, 1);
            } else {
                sim.trace.instant(
                    now,
                    names::CAT_DEVENGINE,
                    names::SPAN_DEV_CACHE_HIT,
                    cpu_track,
                );
                sim.trace
                    .count(names::DEVENGINE_CACHE_HIT, rank as u32, 0, 1);
            }
            sim.trace
                .count(names::DEVENGINE_SOURCE_CACHED, rank as u32, 0, 1);
            UnitSource::Cached { plan, pos: 0 }
        } else {
            sim.trace
                .count(names::DEVENGINE_SOURCE_FRESH, rank as u32, 0, 1);
            UnitSource::Fresh(DevCursor::with_coalesce(
                &work_ty,
                count,
                unit_size,
                opt.coalesce,
            )?)
        };

        // Pipeline-granularity tuning for streaming sources: weigh the
        // CPU preparation that pipelining hides against the extra kernel
        // launches it costs, priced by the same functions the simulator
        // charges.
        let mut chunk_hint = None;
        if opt.autotune && cfg.pipeline && total > 0 {
            if let UnitSource::Fresh(_) = source {
                let units = if opt.coalesce {
                    segments
                } else {
                    segments + total / unit_size
                };
                let picked =
                    tune::pick_pipeline_chunk(&cfg, &rates, tune::Shatter { units, total });
                if picked != cfg.pipeline_chunk {
                    sim.trace
                        .count(names::OPTIMIZER_CHUNK_TUNED, rank as u32, 0, 1);
                    chunk_hint = Some(picked);
                }
            }
        }

        Ok(FragmentEngine {
            source,
            dir,
            cfg,
            rank,
            stream,
            typed,
            base_shift,
            total,
            pos: 0,
            descriptor_stream: true,
            chunk_hint,
        })
    }

    /// The auto-tuner's pipeline-chunk pick, if it deviated from the
    /// configured default.
    pub fn pipeline_chunk_hint(&self) -> Option<u64> {
        self.chunk_hint
    }

    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    pub fn position(&self) -> u64 {
        self.pos
    }

    pub fn finished(&self) -> bool {
        self.pos >= self.total
    }

    /// Does this engine have a CPU preparation stage at all? Vector
    /// and cached sources are prep-free — the paper launches a single
    /// kernel for those instead of pipelining CPU chunks.
    pub fn cpu_stage_free(&self) -> bool {
        !matches!(self.source, UnitSource::Fresh(_))
    }

    /// Fill `units` (cleared first) with the units for the next `n`
    /// packed bytes, packed offsets rebased to the fragment and already
    /// oriented for `self.dir` (typed side as the source for a pack, as
    /// the destination for an unpack). Returns whether CPU prep is owed.
    /// Writing into a caller-supplied buffer keeps the steady-state
    /// fragment loop allocation-free — the buffers themselves cycle
    /// through [`simcore::scratch`].
    fn take_units_into(&mut self, n: u64, units: &mut Vec<CopyOp>) -> bool {
        let from = self.pos;
        let dir = self.dir;
        match &mut self.source {
            UnitSource::Fresh(cur) => {
                cur.next_units_into(n, units);
                for u in units {
                    *u = oriented(dir, u.src_off, u.dst_off - from as usize, u.len);
                }
                true
            }
            UnitSource::Cached { plan, pos } => {
                let to = (*pos + n).min(plan.total_bytes);
                match dir {
                    Direction::Pack => plan.slice_into(*pos, to, units),
                    Direction::Unpack => plan.slice_unpack_into(*pos, to, units),
                }
                *pos = to;
                false
            }
            UnitSource::Vector {
                block_bytes,
                stride,
                first_disp,
                pos,
                total,
            } => {
                units.clear();
                let to = (*pos + n).min(*total);
                let bb = *block_bytes;
                let mut p = *pos;
                while p < to {
                    let block = p / bb;
                    let intra = p % bb;
                    let take = (bb - intra).min(to - p);
                    let disp = *first_disp + block as i64 * *stride + intra as i64;
                    units.push(oriented(
                        dir,
                        (disp - self.base_shift) as usize,
                        (p - from) as usize,
                        take as usize,
                    ));
                    p += take;
                }
                *pos = to;
                false
            }
            UnitSource::Strided2D { shape, pos, total } => {
                units.clear();
                let to = (*pos + n).min(*total);
                let bb = shape.block_bytes;
                let mut p = *pos;
                while p < to {
                    let block = p / bb;
                    let intra = p % bb;
                    let take = (bb - intra).min(to - p);
                    let i = (block / shape.inner) as i64;
                    let j = (block % shape.inner) as i64;
                    let disp = shape.first_disp
                        + i * shape.outer_stride
                        + j * shape.inner_stride
                        + intra as i64;
                    units.push(oriented(
                        dir,
                        (disp - self.base_shift) as usize,
                        (p - from) as usize,
                        take as usize,
                    ));
                    p += take;
                }
                *pos = to;
                false
            }
        }
    }

    /// Process the next fragment: up to `cap` packed bytes moved
    /// between the typed buffer and `frag` (a pointer to the fragment's
    /// contiguous storage — GPU, peer-GPU or mapped-host memory).
    ///
    /// `on_prepped` fires when the CPU stage is done (the caller may
    /// immediately start the next fragment — that is the pipeline);
    /// `on_complete` fires when the kernel has moved the bytes, with the
    /// fragment's size.
    pub fn process_fragment<W: GpuWorld>(
        &mut self,
        sim: &mut Sim<W>,
        frag: Ptr,
        cap: u64,
        on_prepped: impl FnOnce(&mut Sim<W>) + 'static,
        on_complete: impl FnOnce(&mut Sim<W>, u64) + 'static,
    ) {
        let n = cap.min(self.total - self.pos);
        if n == 0 {
            // Defer so callers never see their callbacks re-enter while
            // they still hold state borrows.
            sim.schedule_now(move |sim| {
                on_prepped(sim);
                on_complete(sim, 0);
            });
            return;
        }
        // The kernel completion recycles this buffer once the bytes have
        // moved, so steady-state streaming reuses a handful of Vecs.
        let mut units = simcore::scratch::take_units_buf();
        let charge_prep = self.take_units_into(n, &mut units);
        self.pos += n;
        debug_assert_eq!(units.iter().map(|u| u.len as u64).sum::<u64>(), n);

        let typed = self.typed.offset_by(self.base_shift);
        let (ksrc, kdst) = match self.dir {
            Direction::Pack => (typed, frag),
            Direction::Unpack => (frag, typed),
        };
        let kcfg = KernelConfig {
            blocks: self.cfg.blocks,
            descriptor_stream: self.descriptor_stream,
        };
        let stream = self.stream;
        let rank = self.rank as u32;
        let bytes_counter = match self.dir {
            Direction::Pack => names::DEVENGINE_PACK_BYTES,
            Direction::Unpack => names::DEVENGINE_UNPACK_BYTES,
        };

        if charge_prep {
            let prep = prep_time(&self.cfg, units.len());
            let now = sim.now();
            let (s, prep_end) = sim.world.cpu(self.rank).reserve(now, prep);
            sim.trace.span_at(
                s,
                prep_end,
                names::CAT_DEVENGINE,
                names::SPAN_PREP,
                Track::Cpu { rank },
            );
            sim.schedule_at(prep_end, move |sim| {
                on_prepped(sim);
                launch_transfer_kernel(sim, stream, ksrc, kdst, units, kcfg, move |sim, _| {
                    sim.trace.count(bytes_counter, rank, 0, n);
                    on_complete(sim, n);
                });
            });
        } else {
            // No CPU stage owed: the caller may continue at the same
            // virtual time, but deferred to the next event so callbacks
            // never re-enter the caller's borrows.
            sim.schedule_now(move |sim| on_prepped(sim));
            launch_transfer_kernel(sim, stream, ksrc, kdst, units, kcfg, move |sim, _| {
                sim.trace.count(bytes_counter, rank, 0, n);
                on_complete(sim, n);
            });
        }
    }
}

/// One unit moving `len` bytes between typed offset `typed` and packed
/// offset `packed`, in the kernel orientation `dir` needs.
#[inline]
fn oriented(dir: Direction, typed: usize, packed: usize, len: usize) -> CopyOp {
    match dir {
        Direction::Pack => CopyOp {
            src_off: typed,
            dst_off: packed,
            len,
        },
        Direction::Unpack => CopyOp {
            src_off: packed,
            dst_off: typed,
            len,
        },
    }
}

/// CPU time one preparation batch of `units` CUDA-DEV units costs: the
/// charge every streaming fragment and cache miss pays.
pub fn prep_time(cfg: &EngineConfig, units: usize) -> SimTime {
    SimTime::from_nanos(cfg.prep_per_unit.as_nanos() * units as u64) + cfg.prep_call
}

/// Pack `count` instances of `ty` from `typed` into the contiguous
/// buffer at `packed`, then call `done` with the completion time.
///
/// With `cfg.pipeline` the conversion runs in `pipeline_chunk` windows
/// overlapped with kernel execution; without it the whole datatype is
/// converted first and a single kernel is launched (Figure 7's
/// non-pipelined baseline).
#[allow(clippy::too_many_arguments)]
pub fn pack_async<W: GpuWorld>(
    sim: &mut Sim<W>,
    rank: usize,
    stream: StreamId,
    ty: &DataType,
    count: u64,
    typed: Ptr,
    packed: Ptr,
    cfg: EngineConfig,
    cache: Option<&Rc<RefCell<DevCache>>>,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    run_async(
        sim,
        rank,
        stream,
        ty,
        count,
        typed,
        packed,
        Direction::Pack,
        cfg,
        cache,
        done,
    );
}

/// Unpack the contiguous buffer at `packed` into `count` instances of
/// `ty` at `typed`.
#[allow(clippy::too_many_arguments)]
pub fn unpack_async<W: GpuWorld>(
    sim: &mut Sim<W>,
    rank: usize,
    stream: StreamId,
    ty: &DataType,
    count: u64,
    typed: Ptr,
    packed: Ptr,
    cfg: EngineConfig,
    cache: Option<&Rc<RefCell<DevCache>>>,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    run_async(
        sim,
        rank,
        stream,
        ty,
        count,
        typed,
        packed,
        Direction::Unpack,
        cfg,
        cache,
        done,
    );
}

#[allow(clippy::too_many_arguments)]
fn run_async<W: GpuWorld>(
    sim: &mut Sim<W>,
    rank: usize,
    stream: StreamId,
    ty: &DataType,
    count: u64,
    typed: Ptr,
    packed: Ptr,
    dir: Direction,
    cfg: EngineConfig,
    cache: Option<&Rc<RefCell<DevCache>>>,
    done: impl FnOnce(&mut Sim<W>, SimTime) + 'static,
) {
    let pipeline_chunk = if cfg.pipeline {
        cfg.pipeline_chunk
    } else {
        u64::MAX
    };
    let engine = FragmentEngine::new(sim, rank, stream, ty, count, typed, dir, cfg, cache)
        .expect("datatype must be committed and valid");
    // The CPU pipeline only exists when there is CPU work to overlap;
    // prep-free sources launch one kernel for the whole datatype.
    let chunk = if engine.cpu_stage_free() {
        u64::MAX
    } else {
        engine.pipeline_chunk_hint().unwrap_or(pipeline_chunk)
    };
    let state = Rc::new(RefCell::new(Driver {
        engine: Some(engine),
        packed,
        chunk,
        inflight: 0,
        launched_all: false,
        done: Some(Box::new(done)),
    }));
    Driver::step(sim, state);
}

type DoneFn<W> = Box<dyn FnOnce(&mut Sim<W>, SimTime)>;

/// Whole-message driver: keeps the CPU converting ahead while kernels
/// drain on the stream.
struct Driver<W: GpuWorld> {
    engine: Option<FragmentEngine>,
    packed: Ptr,
    chunk: u64,
    inflight: u32,
    launched_all: bool,
    done: Option<DoneFn<W>>,
}

impl<W: GpuWorld> Driver<W> {
    fn finish_if_idle(sim: &mut Sim<W>, state: &Rc<RefCell<Driver<W>>>) {
        let done = {
            let mut s = state.borrow_mut();
            if s.launched_all && s.inflight == 0 {
                s.done.take()
            } else {
                None
            }
        };
        if let Some(done) = done {
            done(sim, sim.now());
        }
    }

    fn step(sim: &mut Sim<W>, state: Rc<RefCell<Driver<W>>>) {
        let (frag, cap) = {
            let mut s = state.borrow_mut();
            let engine = s.engine.as_ref().expect("engine in use");
            if engine.finished() {
                s.launched_all = true;
                drop(s);
                Driver::finish_if_idle(sim, &state);
                return;
            }
            let frag = s.packed.add(engine.position());
            s.inflight += 1;
            (frag, s.chunk)
        };
        // Take the engine out so its callbacks (which are deferred by
        // process_fragment) can re-enter this driver safely.
        let mut engine = state.borrow_mut().engine.take().expect("engine present");
        let st_prep = Rc::clone(&state);
        let st_done = Rc::clone(&state);
        engine.process_fragment(
            sim,
            frag,
            cap,
            move |sim| {
                // CPU free: convert the next fragment immediately.
                Driver::step(sim, st_prep);
            },
            move |sim, _bytes| {
                st_done.borrow_mut().inflight -= 1;
                Driver::finish_if_idle(sim, &st_done);
            },
        );
        state.borrow_mut().engine = Some(engine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizerConfig;
    use datatype::testutil::{buffer_span, pattern, reference_pack};
    use gpusim::{GpuSpec, NodeWorld};
    use memsim::{GpuId, MemSpace};

    fn world() -> Sim<NodeWorld> {
        Sim::new(NodeWorld::new(2))
    }

    /// Allocate a device buffer holding `count` instances of `ty`,
    /// filled with the position pattern; returns (typed ptr at
    /// displacement 0, full buffer bytes, base index).
    fn setup_typed(
        sim: &mut Sim<NodeWorld>,
        ty: &DataType,
        count: u64,
        gpu: GpuId,
    ) -> (Ptr, Vec<u8>, i64) {
        let (base, len) = buffer_span(ty, count);
        let buf = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), len as u64)
            .unwrap();
        let bytes = pattern(len);
        sim.world.memory.write(buf, &bytes).unwrap();
        (buf.add(base as u64), bytes, base)
    }

    fn run_pack(
        ty: &DataType,
        count: u64,
        cfg: EngineConfig,
        cache: Option<&Rc<RefCell<DevCache>>>,
    ) -> (Vec<u8>, SimTime) {
        let mut sim = world();
        let gpu = GpuId(0);
        let (typed, bytes, base) = setup_typed(&mut sim, ty, count, gpu);
        let total = ty.size() * count;
        let packed = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), total)
            .unwrap();
        let stream = sim.world.gpu_system.default_stream(gpu);
        pack_async(
            &mut sim,
            0,
            stream,
            ty,
            count,
            typed,
            packed,
            cfg,
            cache,
            |_, _| {},
        );
        let end = sim.run();
        let got = sim.world.memory.read_vec(packed, total).unwrap();
        let expect = reference_pack(ty, count, &bytes, base);
        assert_eq!(got, expect, "pack bytes for {ty}");
        (got, end)
    }

    fn triangular(n: u64) -> DataType {
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        DataType::indexed(&lens, &disps, &DataType::double())
            .unwrap()
            .commit()
    }

    fn submatrix(n: u64) -> DataType {
        // n columns of n doubles out of a (2n x n) leading dimension.
        DataType::vector(n, n, 2 * n as i64, &DataType::double())
            .unwrap()
            .commit()
    }

    #[test]
    fn vector_pack_is_correct() {
        run_pack(&submatrix(32), 1, EngineConfig::default(), None);
    }

    #[test]
    fn indexed_pack_is_correct_all_modes() {
        let t = triangular(24);
        run_pack(&t, 1, EngineConfig::default(), None);
        run_pack(
            &t,
            1,
            EngineConfig {
                pipeline: false,
                ..Default::default()
            },
            None,
        );
        let cache = Rc::new(RefCell::new(DevCache::default()));
        run_pack(&t, 1, EngineConfig::default(), Some(&cache));
        // Warm cache second run.
        run_pack(&t, 1, EngineConfig::default(), Some(&cache));
        assert!(cache.borrow().hit_rate() > 0.0);
    }

    #[test]
    fn multi_count_pack() {
        let v = DataType::vector(4, 2, 5, &DataType::double())
            .unwrap()
            .commit();
        run_pack(&v, 3, EngineConfig::default(), None);
    }

    #[test]
    fn struct_type_pack() {
        let s = DataType::structure(&[2, 3], &[0, 32], &[DataType::int(), DataType::double()])
            .unwrap()
            .commit();
        run_pack(&s, 2, EngineConfig::default(), None);
    }

    #[test]
    fn unpack_roundtrip_on_gpu() {
        let t = triangular(16);
        let mut sim = world();
        let gpu = GpuId(0);
        let (typed, bytes, base) = setup_typed(&mut sim, &t, 1, gpu);
        let total = t.size();
        let packed = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), total)
            .unwrap();
        let stream = sim.world.gpu_system.default_stream(gpu);
        pack_async(
            &mut sim,
            0,
            stream,
            &t,
            1,
            typed,
            packed,
            EngineConfig::default(),
            None,
            |_, _| {},
        );
        sim.run();

        // Scatter into a second, zeroed buffer and compare segments.
        let (base2, len2) = buffer_span(&t, 1);
        assert_eq!(base, base2);
        let out = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), len2 as u64)
            .unwrap();
        let typed_out = out.add(base2 as u64);
        unpack_async(
            &mut sim,
            0,
            stream,
            &t,
            1,
            typed_out,
            packed,
            EngineConfig::default(),
            None,
            |_, _| {},
        );
        sim.run();
        let got = sim.world.memory.read_vec(out, len2 as u64).unwrap();
        for s in t.segments(1) {
            let r = (base + s.disp) as usize..(base + s.disp) as usize + s.len as usize;
            assert_eq!(&got[r.clone()], &bytes[r], "segment at {}", s.disp);
        }
    }

    /// Unpack `ty` fragment by fragment from its reference pack and
    /// check every typed segment lands; returns whether the engine's
    /// source was prep-free (cached, vector or strided2d).
    fn unpack_in_fragments(
        ty: &DataType,
        cfg: EngineConfig,
        cache: Option<&Rc<RefCell<DevCache>>>,
    ) -> bool {
        let mut sim = world();
        let gpu = GpuId(0);
        let (base, len) = buffer_span(ty, 1);
        let bytes = pattern(len);
        let total = ty.size();
        let packed = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), total)
            .unwrap();
        sim.world
            .memory
            .write(packed, &reference_pack(ty, 1, &bytes, base))
            .unwrap();
        let out = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), len as u64)
            .unwrap();
        let stream = sim.world.gpu_system.default_stream(gpu);
        let mut eng = FragmentEngine::new(
            &mut sim,
            0,
            stream,
            ty,
            1,
            out.add(base as u64),
            Direction::Unpack,
            cfg,
            cache,
        )
        .unwrap();
        let prep_free = eng.cpu_stage_free();
        while !eng.finished() {
            let frag = packed.add(eng.position());
            eng.process_fragment(&mut sim, frag, 1000, |_| {}, |_, _| {});
            sim.run();
        }
        let got = sim.world.memory.read_vec(out, len as u64).unwrap();
        for s in ty.segments(1) {
            let r = (base + s.disp) as usize..(base + s.disp) as usize + s.len as usize;
            assert_eq!(&got[r.clone()], &bytes[r], "{ty}: segment at {}", s.disp);
        }
        prep_free
    }

    #[test]
    fn every_source_unpacks_in_fragments() {
        // Each unit source emits unpack-oriented units itself; all four
        // must scatter the packed stream back to the typed layout.
        let opt = EngineConfig {
            optimizer: OptimizerConfig::enabled(),
            ..Default::default()
        };
        let tri = triangular(40);
        assert!(!unpack_in_fragments(&tri, EngineConfig::default(), None));
        let cache = Rc::new(RefCell::new(DevCache::default()));
        for _ in 0..2 {
            assert!(unpack_in_fragments(
                &tri,
                EngineConfig::default(),
                Some(&cache)
            ));
        }
        assert!(unpack_in_fragments(&submatrix(24), opt.clone(), None));
        let n = 24u64;
        let col = DataType::vector(n, 1, n as i64, &DataType::double()).unwrap();
        let transpose = DataType::hvector(n, 1, 8, &col).unwrap().commit();
        assert!(transpose.strided2d_shape().is_some());
        assert!(unpack_in_fragments(&transpose, opt, None));
    }

    #[test]
    fn pipeline_beats_no_pipeline_on_indexed() {
        // Pinned to the pre-optimizer engine: coalescing shrinks the CPU
        // prep below the per-fragment launch overhead, at which point
        // pipelining (correctly) stops paying — this test is about the
        // pipeline mechanics themselves.
        let base = EngineConfig {
            optimizer: OptimizerConfig::disabled(),
            ..Default::default()
        };
        let t = triangular(2048); // ~17 MB triangular matrix
        let (_, piped) = run_pack(&t, 1, base.clone(), None);
        let (_, serial) = run_pack(
            &t,
            1,
            EngineConfig {
                pipeline: false,
                ..base
            },
            None,
        );
        assert!(
            piped < serial,
            "pipelining should overlap prep with kernels: {piped} vs {serial}"
        );
    }

    #[test]
    fn optimizer_never_slower_and_bytes_identical_on_indexed() {
        let t = triangular(96);
        let on = EngineConfig {
            optimizer: OptimizerConfig::enabled(),
            ..Default::default()
        };
        let off = EngineConfig {
            optimizer: OptimizerConfig::disabled(),
            ..Default::default()
        };
        let (pa, ta) = run_pack(&t, 1, on, None);
        let (pb, tb) = run_pack(&t, 1, off, None);
        assert_eq!(pa, pb, "optimizations must not change packed bytes");
        assert!(ta <= tb, "optimized pack got slower: {ta} vs {tb}");
    }

    #[test]
    fn strided2d_dispatch_beats_descriptor_path_on_transpose() {
        // The fig12 shape: column-vector of a row-vector (a transpose).
        let n = 128u64;
        let col = DataType::vector(n, 1, n as i64, &DataType::double()).unwrap();
        let t = DataType::hvector(n, 1, 8, &col).unwrap().commit();
        assert!(t.vector_shape().is_none());
        assert!(t.strided2d_shape().is_some());
        let on = EngineConfig {
            optimizer: OptimizerConfig::enabled(),
            ..Default::default()
        };
        let off = EngineConfig {
            optimizer: OptimizerConfig::disabled(),
            ..Default::default()
        };
        let (pa, ta) = run_pack(&t, 1, on, None);
        let (pb, tb) = run_pack(&t, 1, off, None);
        assert_eq!(pa, pb, "strided2d kernel must pack identical bytes");
        assert!(
            ta < tb,
            "arithmetic dispatch should beat descriptor streaming: {ta} vs {tb}"
        );
    }

    #[test]
    fn strided2d_fragments_match_oneshot() {
        let n = 48u64;
        let col = DataType::vector(n, 1, n as i64, &DataType::double()).unwrap();
        let t = DataType::hvector(n, 1, 8, &col).unwrap().commit();
        let mut sim = world();
        let gpu = GpuId(0);
        let (typed, bytes, base) = setup_typed(&mut sim, &t, 1, gpu);
        let total = t.size();
        let packed = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), total)
            .unwrap();
        let stream = sim.world.gpu_system.default_stream(gpu);
        let mut eng = FragmentEngine::new(
            &mut sim,
            0,
            stream,
            &t,
            1,
            typed,
            Direction::Pack,
            EngineConfig {
                optimizer: OptimizerConfig::enabled(),
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert!(eng.cpu_stage_free(), "strided2d source has no CPU stage");
        while !eng.finished() {
            let frag = packed.add(eng.position());
            eng.process_fragment(&mut sim, frag, 1000, |_| {}, |_, _| {});
            sim.run();
        }
        let got = sim.world.memory.read_vec(packed, total).unwrap();
        assert_eq!(got, reference_pack(&t, 1, &bytes, base));
    }

    #[test]
    fn cached_beats_fresh_on_indexed() {
        let t = triangular(512);
        let cache = Rc::new(RefCell::new(DevCache::default()));
        // Warm it.
        run_pack(&t, 1, EngineConfig::default(), Some(&cache));
        let (_, warm) = run_pack(&t, 1, EngineConfig::default(), Some(&cache));
        let (_, fresh) = run_pack(&t, 1, EngineConfig::default(), None);
        assert!(
            warm < fresh,
            "cached CUDA-DEVs skip preparation: {warm} vs {fresh}"
        );
    }

    #[test]
    fn uniform_indexed_normalizes_to_vector_path() {
        // A uniform indexed layout is recognized as vector-shaped and
        // takes the specialized kernel: identical bytes, identical time.
        let n = 256u64;
        let v = submatrix(n);
        let lens: Vec<u64> = (0..n).map(|_| n).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * 2 * n as i64).collect();
        let idx = DataType::indexed(&lens, &disps, &DataType::double())
            .unwrap()
            .commit();
        assert!(idx.vector_shape().is_some());
        let (pv, tv) = run_pack(&v, 1, EngineConfig::default(), None);
        let (pi, ti) = run_pack(&idx, 1, EngineConfig::default(), None);
        assert_eq!(pv, pi, "identical layouts pack identically");
        assert_eq!(tv, ti, "both should take the vector kernel");
    }

    #[test]
    fn general_path_costs_more_than_vector_path() {
        // An irregular indexed type of the same total size must pay for
        // CPU preparation and descriptor streaming that the vector
        // kernel avoids.
        let n = 256u64;
        let v = submatrix(n);
        let lens: Vec<u64> = (0..n)
            .map(|c| if c % 2 == 0 { n - 1 } else { n + 1 })
            .collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * 2 * n as i64).collect();
        let idx = DataType::indexed(&lens, &disps, &DataType::double())
            .unwrap()
            .commit();
        assert!(idx.vector_shape().is_none());
        assert_eq!(idx.size(), v.size());
        let (_, tv) = run_pack(&v, 1, EngineConfig::default(), None);
        let (_, ti) = run_pack(&idx, 1, EngineConfig::default(), None);
        assert!(tv < ti, "vector path should win: {tv} vs {ti}");
    }

    #[test]
    fn fragments_match_oneshot() {
        let t = triangular(64);
        let mut sim = world();
        let gpu = GpuId(0);
        let (typed, bytes, base) = setup_typed(&mut sim, &t, 1, gpu);
        let total = t.size();
        let packed = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), total)
            .unwrap();
        let stream = sim.world.gpu_system.default_stream(gpu);
        let mut eng = FragmentEngine::new(
            &mut sim,
            0,
            stream,
            &t,
            1,
            typed,
            Direction::Pack,
            EngineConfig::default(),
            None,
        )
        .unwrap();
        // Drive fragments of 1000 bytes manually.
        while !eng.finished() {
            let frag = packed.add(eng.position());
            eng.process_fragment(&mut sim, frag, 1000, |_| {}, |_, _| {});
            sim.run();
        }
        let got = sim.world.memory.read_vec(packed, total).unwrap();
        assert_eq!(got, reference_pack(&t, 1, &bytes, base));
    }

    #[test]
    fn zero_copy_pack_to_host_is_pcie_bound() {
        let v = submatrix(512); // 2 MB payload
        let mut sim = world();
        let gpu = GpuId(0);
        let (typed, _, _) = setup_typed(&mut sim, &v, 1, gpu);
        let total = v.size();
        let host = sim.world.memory.alloc(MemSpace::Host, total).unwrap();
        let stream = sim.world.gpu_system.default_stream(gpu);
        pack_async(
            &mut sim,
            0,
            stream,
            &v,
            1,
            typed,
            host,
            EngineConfig::default(),
            None,
            |_, _| {},
        );
        let end = sim.run();
        let rate = total as f64 / end.as_secs_f64() / 1e9;
        // PCIe is 10 GB/s; the d2d pack of the same data is ~15x faster.
        assert!(
            rate < 10.5,
            "zero-copy pack cannot beat PCIe, got {rate} GB/s"
        );
        assert!(
            rate > 6.0,
            "pipeline should keep PCIe mostly busy, got {rate} GB/s"
        );
    }

    #[test]
    fn exactly_one_kernel_when_not_pipelined() {
        let t = triangular(128);
        let mut sim = world();
        let gpu = GpuId(0);
        let (typed, _, _) = setup_typed(&mut sim, &t, 1, gpu);
        let packed = sim
            .world
            .memory
            .alloc(MemSpace::Device(gpu), t.size())
            .unwrap();
        let stream = sim.world.gpu_system.default_stream(gpu);
        pack_async(
            &mut sim,
            0,
            stream,
            &t,
            1,
            typed,
            packed,
            EngineConfig {
                pipeline: false,
                ..Default::default()
            },
            None,
            |_, _| {},
        );
        sim.run();
        assert_eq!(sim.world.gpu_system.stream(stream).op_count(), 1);
        let _ = GpuSpec::k40();
    }
}

//! sPIN-style NIC DEV executor: the packet processor runs the datatype
//! program itself.
//!
//! "Network-Accelerated Non-Contiguous Memory Transfers" (sPIN) shows a
//! NIC packet processor can execute the sender's gather program and the
//! receiver's scatter program in-line with the stream, eliminating both
//! the GPU pack kernel and the intermediate packed buffer. This module
//! models that path: a DEV descriptor program is *compiled* once from
//! the two endpoint datatypes (the same `DevCursor` walk the GPU and
//! CPU engines use), then *executed* per message — the NIC handler
//! issues one gather/scatter descriptor per work unit and streams the
//! payload straight from the sender's typed GPU buffer into the
//! receiver's typed GPU buffer.
//!
//! Timing rides three per-NIC constants from the node topology tables
//! (`nic_desc_issue`, `nic_dma_bw`; `nic_handler_setup` is paid by the
//! connection layer at handler-install time): the handler front-end
//! serializes descriptor issue, then the message streams at the lesser
//! of the NIC's gather-DMA rate and the wire rate — the NIC pipelines
//! gather, wire and scatter per packet, so the legs overlap instead of
//! adding. The wire leg goes through [`crate::wire::wire_send`], which
//! keeps this path under the same fault charge point
//! (`FaultOp::WireCopy`) and retransmission machinery as every other
//! data-link hop.
//!
//! This file is one of the three sanctioned DEV interpreters (with
//! `devengine` and `mpirt`'s CPU convertor) — the `xtask lint` offload
//! rule bans descriptor-walking outside them.

use crate::channel::{Link, NetError};
use crate::wire::wire_send;
use crate::world::NetWorld;
use datatype::{DataType, TypeError};
use devengine::DevCursor;
use gpusim::NodeTopology;
use memsim::Ptr;
use simcore::par::CopyOp;
use simcore::trace::names;
use simcore::{Bandwidth, Sim, SimTime, Track};

/// Per-NIC packet-processor cost constants, lifted from the node
/// topology tables (the single source of raw arch numbers).
#[derive(Clone, Copy, Debug)]
pub struct NicCosts {
    /// One-time DEV handler install (paid by the connection layer).
    pub handler_setup: SimTime,
    /// Per-descriptor issue cost on the handler cores.
    pub desc_issue: SimTime,
    /// Gather/scatter DMA streaming rate from/into GPU memory.
    pub dma_bw: Bandwidth,
}

impl NicCosts {
    pub fn of(topo: &NodeTopology) -> Self {
        NicCosts {
            handler_setup: topo.nic_handler_setup,
            desc_issue: topo.nic_desc_issue,
            dma_bw: topo.nic_dma_bw,
        }
    }

    /// Handler front-end serialization: issue of `descriptors`
    /// gather/scatter descriptors.
    pub fn issue_time(&self, descriptors: u64) -> SimTime {
        SimTime::from_nanos(self.desc_issue.as_nanos().saturating_mul(descriptors))
    }

    /// Bytes the data link is reserved for to stream a `bytes` payload.
    /// The NIC pipelines gather-DMA, wire and scatter-DMA per packet, so
    /// the stream runs at the slowest leg: a DMA engine slower than the
    /// wire shows up as extra serialization on the link.
    pub fn stream_bytes(&self, wire_bw: Bandwidth, bytes: u64) -> u64 {
        if self.dma_bw.bytes_per_sec() < wire_bw.bytes_per_sec() {
            (bytes as f64 * wire_bw.bytes_per_sec() / self.dma_bw.bytes_per_sec()) as u64
        } else {
            bytes
        }
    }
}

/// What executing a program of `descriptors` descriptors that moves
/// `bytes` takes on an idle data link `wire`: handler issue, the stream
/// at the slowest leg, then the link latency — the sum
/// [`execute_program`] charges before `done` runs.
pub fn program_time(costs: &NicCosts, wire: &Link, descriptors: u64, bytes: u64) -> SimTime {
    costs.issue_time(descriptors)
        + wire.wire_time(costs.stream_bytes(wire.bandwidth, bytes))
        + wire.latency
}

/// A compiled NIC DEV program: the merged gather/scatter descriptor
/// list for one `(send type, recv type)` pair, ready to execute per
/// message. Fields are private — programs exist only through
/// [`compile_program`], mirroring how stream-op graphs exist only
/// through their capture API.
#[derive(Clone, Debug)]
pub struct NicProgram {
    /// Direct sender-typed → receiver-typed moves (packed stream
    /// eliminated): `src_off` relative to the shifted send buffer,
    /// `dst_off` relative to the shifted recv buffer.
    units: Vec<CopyOp>,
    /// Descriptors the handler issues (gather + scatter sides).
    descriptors: u64,
    /// Payload bytes the program moves.
    bytes: u64,
    /// `true_lb` adjustments for the two typed buffers.
    send_shift: i64,
    recv_shift: i64,
}

impl NicProgram {
    pub fn descriptors(&self) -> u64 {
        self.descriptors
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Compile the DEV programs of both endpoints into one NIC descriptor
/// program. Walks each datatype with the shared `DevCursor` machinery
/// and merges the two packed-order unit lists into direct typed→typed
/// moves — the packed intermediate exists only as a merge index, never
/// as memory.
pub fn compile_program(
    send_ty: &DataType,
    send_count: u64,
    recv_ty: &DataType,
    recv_count: u64,
) -> Result<NicProgram, TypeError> {
    let mut s_cur = DevCursor::with_coalesce(send_ty, send_count, u64::MAX, true)?;
    let mut r_cur = DevCursor::with_coalesce(recv_ty, recv_count, u64::MAX, true)?;
    let send_shift = s_cur.base_shift();
    let recv_shift = r_cur.base_shift();
    let bytes = s_cur.total_bytes();
    let mut s_units = Vec::new();
    let mut r_units = Vec::new();
    s_cur.next_units_into(u64::MAX, &mut s_units);
    r_cur.next_units_into(u64::MAX, &mut r_units);
    let descriptors = (s_units.len() + r_units.len()) as u64;

    // Merge the two pack-orientation lists (both ordered by packed
    // offset, both covering [0, bytes)) into direct typed→typed moves.
    let mut units = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    let (mut si, mut rj) = (0usize, 0usize);
    while let (Some(s), Some(r)) = (s_units.get(i), r_units.get(j)) {
        let take = (s.len - si).min(r.len - rj);
        units.push(CopyOp {
            src_off: s.src_off + si,
            dst_off: r.src_off + rj,
            len: take,
        });
        si += take;
        rj += take;
        if si == s.len {
            i += 1;
            si = 0;
        }
        if rj == r.len {
            j += 1;
            rj = 0;
        }
    }
    Ok(NicProgram {
        units,
        descriptors,
        bytes,
        send_shift,
        recv_shift,
    })
}

/// Execute a compiled program for one message on the NIC pair
/// `from → to`: charge the handler front-end, stream the payload over
/// the data link at `min(dma_bw, wire_bw)`, then land the bytes and run
/// `done`.
///
/// Functionally this is one direct gather/scatter: the sender's typed
/// GPU buffer maps straight into the receiver's typed GPU buffer with
/// no packed staging and no kernel launches. The wire leg inherits
/// `FaultOp::WireCopy` injection and retransmission from
/// [`wire_send`]; a lost fragment retransmits before `done` runs, so
/// delivery stays exactly-once.
#[allow(clippy::too_many_arguments)]
pub fn execute_program<W: NetWorld>(
    sim: &mut Sim<W>,
    from: usize,
    to: usize,
    send_buf: Ptr,
    recv_buf: Ptr,
    prog: &NicProgram,
    costs: &NicCosts,
    done: impl FnOnce(&mut Sim<W>) + 'static,
) -> Result<(), NetError> {
    let wire_bw = sim.world.net().try_channel(from, to)?.data.bandwidth;
    let issue = costs.issue_time(prog.descriptors);
    let bytes = prog.bytes;
    let wire_bytes = costs.stream_bytes(wire_bw, bytes);
    let now = sim.now();
    sim.trace.span_at(
        now,
        now + issue,
        names::CAT_NETSIM,
        names::SPAN_NIC_PROGRAM,
        Track::LinkData {
            from: from as u32,
            to: to as u32,
        },
    );
    let src = send_buf.offset_by(prog.send_shift);
    let dst = recv_buf.offset_by(prog.recv_shift);
    let units = prog.units.clone();
    let (from_u, to_u) = (from as u32, to as u32);
    sim.schedule_in(issue, move |sim| {
        // Existence was checked above; the channel is an invariant here.
        let sent = wire_send(sim, from, to, wire_bytes, move |sim| {
            // The endpoints validated both pointers when the program was
            // installed; a failure here is simulator-state corruption.
            sim.world
                .mem()
                .transfer(src, dst, &units)
                .expect("nic gather/scatter failed");
            sim.trace
                .count(names::OFFLOAD_NIC_PROGRAMS, from_u, to_u, 1);
            sim.trace
                .count(names::OFFLOAD_NIC_BYTES, from_u, to_u, bytes);
            done(sim);
        });
        debug_assert!(sent.is_ok());
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelKind;
    use crate::world::ClusterWorld;
    use datatype::testutil::{buffer_span, pattern, reference_pack};
    use gpusim::GpuWorld;
    use memsim::MemSpace;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn world() -> Sim<ClusterWorld> {
        let mut w = ClusterWorld::new(2);
        w.net_system.connect(0, 1, ChannelKind::InfiniBand);
        Sim::new(w)
    }

    #[test]
    fn program_moves_bytes_like_pack_then_unpack() {
        let s_ty = datatype::DataType::vector(24, 3, 7, &datatype::DataType::double())
            .unwrap()
            .commit();
        let blocklens: Vec<u64> = [9u64, 3].repeat(12);
        let displs: Vec<i64> = (0..24).map(|i| i * 20).collect();
        let r_ty = datatype::DataType::indexed(&blocklens, &displs, &datatype::DataType::double())
            .unwrap()
            .commit();
        let count = 2u64;
        assert_eq!(s_ty.size() * count, r_ty.size());
        let mut sim = world();
        let (s_base, s_len) = buffer_span(&s_ty, count);
        let (r_base, r_len) = buffer_span(&r_ty, 1);
        let src = sim
            .world
            .memory
            .alloc(MemSpace::Host, s_len as u64)
            .unwrap();
        let dst = sim
            .world
            .memory
            .alloc(MemSpace::Host, r_len as u64)
            .unwrap();
        let bytes = pattern(s_len);
        sim.world.memory.write(src, &bytes).unwrap();

        let prog = compile_program(&s_ty, count, &r_ty, 1).unwrap();
        assert_eq!(prog.bytes(), s_ty.size() * count);
        assert!(prog.descriptors() > 0);
        let costs = NicCosts::of(&sim.world.gpus_ref().topo);
        let hit = Rc::new(RefCell::new(false));
        let h = Rc::clone(&hit);
        execute_program(
            &mut sim,
            0,
            1,
            src.add(s_base as u64),
            dst.add(r_base as u64),
            &prog,
            &costs,
            move |_| *h.borrow_mut() = true,
        )
        .unwrap();
        let end = sim.run();
        assert!(*hit.borrow());
        assert!(end > SimTime::ZERO, "NIC execution charges virtual time");

        // The scatter result equals reference pack → reference unpack.
        let packed = reference_pack(&s_ty, count, &bytes, s_base);
        let got = sim.world.memory.read_vec(dst, r_len as u64).unwrap();
        let mut pos = 0usize;
        for seg in r_ty.segments(1) {
            let off = (r_base + seg.disp) as usize;
            assert_eq!(
                &got[off..off + seg.len as usize],
                &packed[pos..pos + seg.len as usize]
            );
            pos += seg.len as usize;
        }
    }

    #[test]
    fn unconnected_pair_is_a_typed_error() {
        let mut sim = world();
        let ty = datatype::DataType::double().commit();
        let prog = compile_program(&ty, 8, &ty, 8).unwrap();
        let costs = NicCosts::of(&sim.world.gpus_ref().topo);
        let p = sim.world.memory.alloc(MemSpace::Host, 64).unwrap();
        let err = execute_program(&mut sim, 0, 9, p, p, &prog, &costs, |_| {}).unwrap_err();
        assert_eq!(err, NetError::NoChannel { from: 0, to: 9 });
    }
}

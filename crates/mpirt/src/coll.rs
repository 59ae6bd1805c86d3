//! Collective operations built on the point-to-point stack.
//!
//! The paper notes that a committed datatype is usable in "any
//! point-to-point, collective, I/O and one-sided" operation; this
//! module demonstrates that the GPU datatype engine composes with
//! classic collective algorithms unchanged — every underlying transfer
//! goes through the same protocol selection (pipelined IPC RDMA /
//! copy-in/out / eager) as a plain send.
//!
//! The algorithms (binomial-tree broadcast, ring allgather, pairwise
//! alltoall, dissemination barrier) are defined once, as round-by-round
//! schedules in [`crate::sched`]; this module is their full-stack
//! executor. Each rank posts its round's `irecv` and `isend`s, and
//! moves to the next round when they have all completed.
//!
//! Buffers are passed as one pointer per rank (each rank's buffer in
//! its own memory space), since all ranks live in one simulation.

use crate::api::{irecv, isend, RecvArgs, SendArgs};
use crate::request::{join, Request};
use crate::sched::{Coll, Sends, Step};
use crate::world::MpiWorld;
use datatype::DataType;
use gpusim::GpuWorld as _;
use memsim::Ptr;
use simcore::Sim;
use std::cell::Cell;
use std::rc::Rc;

/// Tag space reserved for collectives (far above user tags).
const COLL_TAG_BASE: u64 = 1 << 40;

/// One collective call: its schedule, element type and buffers, and the
/// request that completes once every rank has run its last round. Rank
/// `r`'s block `b` is sent from `send[r] + b·stride` and received into
/// `recv[r] + b·stride`.
struct Exec {
    coll: Coll,
    ty: DataType,
    count: u64,
    /// Tag of round 0; round `k` uses `tag + k`.
    tag: u64,
    send: Rc<[Ptr]>,
    recv: Rc<[Ptr]>,
    stride: u64,
    running: Cell<usize>,
    done: Request,
}

impl Exec {
    fn new(
        coll: Coll,
        ty: DataType,
        count: u64,
        tag: u64,
        bufs: [Rc<[Ptr]>; 2],
        stride: u64,
    ) -> Rc<Exec> {
        let [send, recv] = bufs;
        let running = Cell::new(send.len());
        let done = Request::new();
        Rc::new(Exec {
            coll,
            ty,
            count,
            tag,
            send,
            recv,
            stride,
            running,
            done,
        })
    }

    fn n(&self) -> u32 {
        self.send.len() as u32
    }

    /// Start every rank at round 0.
    fn start(self: Rc<Exec>, sim: &mut Sim<MpiWorld>) -> Request {
        for r in 0..self.send.len() {
            run_rank(sim, Rc::clone(&self), r, 0);
        }
        self.done.clone()
    }

    fn post_sends(
        &self,
        sim: &mut Sim<MpiWorld>,
        r: usize,
        tag: u64,
        sends: Sends,
    ) -> Vec<Request> {
        let args = |s: Step| SendArgs {
            from: r,
            to: s.peer as usize,
            tag,
            ty: self.ty.clone(),
            count: self.count,
            buf: self.send[r].add(u64::from(s.block) * self.stride),
        };
        sends.map(|s| isend(sim, args(s))).collect()
    }
}

/// Run rank `r`'s rounds from `round` on: post the round's sends and
/// receive, and recurse once they have all completed.
fn run_rank(sim: &mut Sim<MpiWorld>, x: Rc<Exec>, r: usize, round: u32) {
    if round == x.coll.rounds(x.n()) {
        x.running.set(x.running.get() - 1);
        if x.running.get() == 0 {
            x.done.complete(sim, Ok(0));
        }
        return;
    }
    let plan = x.coll.round(x.n(), r as u32, round);
    let tag = x.tag + u64::from(round);
    let next = move |sim: &mut Sim<MpiWorld>, x: Rc<Exec>, reqs: Vec<Request>| {
        join(sim, &reqs).on_complete(sim, move |sim, res| {
            res.as_ref().expect("collective round failed");
            run_rank(sim, x, r, round + 1);
        });
    };
    let mut reqs = Vec::new();
    if !plan.sends_wait {
        reqs = x.post_sends(sim, r, tag, plan.sends);
    }
    if let Some(s) = plan.recv {
        let args = RecvArgs {
            rank: r,
            src: Some(s.peer as usize),
            tag: Some(tag),
            ty: x.ty.clone(),
            count: x.count,
            buf: x.recv[r].add(u64::from(s.block) * x.stride),
        };
        let rv = irecv(sim, args);
        if plan.sends_wait {
            // Forward only what has landed.
            rv.on_complete(sim, move |sim, res| {
                res.as_ref().expect("collective receive failed");
                let reqs = x.post_sends(sim, r, tag, plan.sends);
                next(sim, x, reqs);
            });
            return;
        }
        reqs.push(rv);
    }
    next(sim, x, reqs);
}

/// Bytes between consecutive blocks of `count` instances of `ty`.
fn block_bytes(ty: &DataType, count: u64) -> u64 {
    count * ty.extent().max(ty.size() as i64) as u64
}

/// Broadcast `count` instances of `ty` from `root`'s buffer to every
/// rank, binomial tree. Completes when all ranks have the data.
pub fn bcast(
    sim: &mut Sim<MpiWorld>,
    root: usize,
    ty: &DataType,
    count: u64,
    bufs: &[Ptr],
    op_tag: u64,
) -> Request {
    assert_eq!(bufs.len(), sim.world.mpi.ranks.len(), "one buffer per rank");
    let bufs: Rc<[Ptr]> = bufs.into();
    let coll = Coll::Bcast { root: root as u32 };
    let tag = COLL_TAG_BASE + op_tag;
    Exec::new(coll, ty.clone(), count, tag, [bufs.clone(), bufs], 0).start(sim)
}

/// Ring allgather: every rank contributes `count` instances of `ty`
/// from `send_bufs[r]`; each rank's `recv_bufs[r]` holds `p` blocks
/// (block `i` at offset `i * count * extent`). Completes when all ranks
/// hold everything.
pub fn allgather(
    sim: &mut Sim<MpiWorld>,
    ty: &DataType,
    count: u64,
    send_bufs: &[Ptr],
    recv_bufs: &[Ptr],
    op_tag: u64,
) -> Request {
    assert_eq!(send_bufs.len(), recv_bufs.len());
    let block = block_bytes(ty, count);
    let recv: Rc<[Ptr]> = recv_bufs.into();
    let tag = COLL_TAG_BASE + (1 << 20) + op_tag;
    let x = Exec::new(
        Coll::Allgather,
        ty.clone(),
        count,
        tag,
        [recv.clone(), recv],
        block,
    );

    // Local copy of own contribution into slot `r` (charged as a
    // device/host copy on the rank's copy stream). The ring starts
    // only once the copy lands: round 0 sends slot `r` itself, and an
    // eager-path send snapshots the block when posted — posting before
    // the copy completes would ship uninitialized bytes (seen at 32
    // ranks with small host blocks; device rendezvous masked it).
    for (r, &src) in send_bufs.iter().enumerate() {
        let stream = sim.world.mpi.ranks[r].copy_stream;
        let dst = x.recv[r].add(r as u64 * block);
        let x = Rc::clone(&x);
        gpusim::memcpy(sim, stream, src, dst, block, move |sim, _| {
            run_rank(sim, x, r, 0);
        });
    }
    x.done.clone()
}

/// Pairwise alltoall: rank r's `send_bufs[r]` holds `p` blocks of
/// `count` instances; block `i` goes to rank `i`, landing in block `r`
/// of `recv_bufs[i]`. `p-1` exchange rounds plus a local copy.
pub fn alltoall(
    sim: &mut Sim<MpiWorld>,
    ty: &DataType,
    count: u64,
    send_bufs: &[Ptr],
    recv_bufs: &[Ptr],
    op_tag: u64,
) -> Request {
    assert_eq!(send_bufs.len(), recv_bufs.len());
    let block = block_bytes(ty, count);

    // Local block r -> r.
    let mut reqs: Vec<Request> = (0..send_bufs.len())
        .map(|r| {
            let stream = sim.world.mpi.ranks[r].copy_stream;
            let req = Request::new();
            let req2 = req.clone();
            let src = send_bufs[r].add(r as u64 * block);
            let dst = recv_bufs[r].add(r as u64 * block);
            let size = ty.size() * count;
            gpusim::memcpy(sim, stream, src, dst, block, move |sim, _| {
                req2.complete(sim, Ok(size));
            });
            req
        })
        .collect();
    let tag = COLL_TAG_BASE + (2 << 20) + op_tag;
    let bufs = [send_bufs.into(), recv_bufs.into()];
    reqs.push(Exec::new(Coll::Alltoall, ty.clone(), count, tag, bufs, block).start(sim));
    join(sim, &reqs)
}

/// Dissemination barrier over 1-byte eager messages. The per-rank host
/// scratch they carry is freed when the barrier completes.
pub fn barrier(sim: &mut Sim<MpiWorld>, op_tag: u64) -> Request {
    let p = sim.world.mpi.ranks.len();
    let scratch: Rc<[Ptr]> = (0..p)
        .map(|_| sim.world.mem().alloc(memsim::MemSpace::Host, 8).unwrap())
        .collect();
    let byte = DataType::byte().commit();
    let tag = COLL_TAG_BASE + (3 << 20) + op_tag;
    let bufs = [scratch.clone(), scratch.clone()];
    let done = Exec::new(Coll::Barrier, byte, 1, tag, bufs, 0).start(sim);
    done.on_complete(sim, move |sim, _| {
        for &b in scratch.iter() {
            sim.world.mem().free(b).expect("barrier scratch");
        }
    });
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpiConfig;
    use crate::world::RankSpec;
    use datatype::testutil::pattern;
    use memsim::{GpuId, MemSpace};

    /// A 4-rank job: two nodes with two GPUs each (SM within a node,
    /// IB across).
    fn four_ranks() -> Sim<MpiWorld> {
        let specs = [
            RankSpec {
                gpu: GpuId(0),
                node: 0,
            },
            RankSpec {
                gpu: GpuId(1),
                node: 0,
            },
            RankSpec {
                gpu: GpuId(2),
                node: 1,
            },
            RankSpec {
                gpu: GpuId(3),
                node: 1,
            },
        ];
        Sim::new(MpiWorld::new(&specs, 4, MpiConfig::default()))
    }

    fn dev_alloc(sim: &mut Sim<MpiWorld>, rank: usize, bytes: u64) -> Ptr {
        let gpu = sim.world.mpi.ranks[rank].gpu;
        sim.world.mem().alloc(MemSpace::Device(gpu), bytes).unwrap()
    }

    #[test]
    fn bcast_delivers_to_all() {
        let mut sim = four_ranks();
        let ty = DataType::vector(64, 8, 16, &DataType::double())
            .unwrap()
            .commit();
        let len = ty.extent() as u64;
        let bufs: Vec<Ptr> = (0..4).map(|r| dev_alloc(&mut sim, r, len)).collect();
        let data = pattern(len as usize);
        sim.world.mem().write(bufs[2], &data).unwrap(); // root = 2
        let req = bcast(&mut sim, 2, &ty, 1, &bufs, 0);
        sim.run();
        assert!(req.is_complete());
        for (r, b) in bufs.iter().enumerate() {
            let got = sim.world.mem().read_vec(*b, len).unwrap();
            for s in ty.segments(1) {
                let range = s.disp as usize..(s.disp + s.len as i64) as usize;
                assert_eq!(&got[range.clone()], &data[range], "rank {r}");
            }
        }
    }

    #[test]
    fn allgather_assembles_all_blocks() {
        let mut sim = four_ranks();
        let ty = DataType::contiguous(1024, &DataType::double())
            .unwrap()
            .commit();
        let block = ty.size();
        let sends: Vec<Ptr> = (0..4).map(|r| dev_alloc(&mut sim, r, block)).collect();
        let recvs: Vec<Ptr> = (0..4).map(|r| dev_alloc(&mut sim, r, block * 4)).collect();
        let mut datas = Vec::new();
        for (r, s) in sends.iter().enumerate() {
            let mut d = pattern(block as usize);
            d[0] = r as u8 + 1; // distinguish contributions
            sim.world.mem().write(*s, &d).unwrap();
            datas.push(d);
        }
        let req = allgather(&mut sim, &ty, 1, &sends, &recvs, 0);
        sim.run();
        assert!(req.is_complete());
        for (r, b) in recvs.iter().enumerate() {
            let got = sim.world.mem().read_vec(*b, block * 4).unwrap();
            for (i, d) in datas.iter().enumerate() {
                assert_eq!(
                    &got[i * block as usize..(i + 1) * block as usize],
                    &d[..],
                    "rank {r}, block {i}"
                );
            }
        }
    }

    #[test]
    fn alltoall_transposes_blocks() {
        let mut sim = four_ranks();
        let ty = DataType::contiguous(512, &DataType::double())
            .unwrap()
            .commit();
        let block = ty.size();
        let sends: Vec<Ptr> = (0..4).map(|r| dev_alloc(&mut sim, r, block * 4)).collect();
        let recvs: Vec<Ptr> = (0..4).map(|r| dev_alloc(&mut sim, r, block * 4)).collect();
        // send_bufs[r] block i = filled with marker (r*4 + i + 1).
        for (r, s) in sends.iter().enumerate() {
            let mut d = vec![0u8; (block * 4) as usize];
            for i in 0..4 {
                d[i * block as usize..(i + 1) * block as usize].fill((r * 4 + i + 1) as u8);
            }
            sim.world.mem().write(*s, &d).unwrap();
        }
        let req = alltoall(&mut sim, &ty, 1, &sends, &recvs, 0);
        sim.run();
        assert!(req.is_complete());
        for (r, b) in recvs.iter().enumerate() {
            let got = sim.world.mem().read_vec(*b, block * 4).unwrap();
            for i in 0..4usize {
                // recv_bufs[r] block i came from rank i's block r.
                let expect = (i * 4 + r + 1) as u8;
                assert!(
                    got[i * block as usize..(i + 1) * block as usize]
                        .iter()
                        .all(|&x| x == expect),
                    "rank {r} block {i}: expected {expect}"
                );
            }
        }
    }

    #[test]
    fn barrier_completes() {
        let mut sim = four_ranks();
        let req = barrier(&mut sim, 0);
        sim.run();
        assert!(req.is_complete());
        assert_eq!(sim.world.mpi.matcher.pending(), 0);
    }

    #[test]
    fn barriers_free_their_scratch() {
        let mut sim = four_ranks();
        let before = sim.world.mem().pool(MemSpace::Host).used();
        for epoch in 0..10 {
            let req = barrier(&mut sim, epoch);
            sim.run();
            assert!(req.is_complete());
        }
        assert_eq!(sim.world.mem().pool(MemSpace::Host).used(), before);
    }

    #[test]
    fn bcast_single_rank_is_trivial() {
        let specs = [RankSpec {
            gpu: GpuId(0),
            node: 0,
        }];
        let mut sim = Sim::new(MpiWorld::new(&specs, 1, MpiConfig::default()));
        let ty = DataType::double().commit();
        let b = dev_alloc(&mut sim, 0, 8);
        let req = bcast(&mut sim, 0, &ty, 1, &[b], 0);
        assert!(req.is_complete());
    }
}

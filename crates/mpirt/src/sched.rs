//! Collective schedules: the one definition of each algorithm's rounds
//! and peers.
//!
//! A collective is a sequence of rounds. In each round a rank posts at
//! most one receive and a list of sends, each naming a peer and a block
//! index. Two executors read these schedules: [`crate::coll`] turns
//! every step into an `isend`/`irecv` through the full protocol stack,
//! and [`crate::scale`] turns it into a whole-message envelope on the
//! sharded engine. Neither knows an algorithm's peer arithmetic.

/// A collective algorithm (the classic Open MPI/MPICH defaults).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Coll {
    /// MPICH's binomial tree on relative ranks `v = (rank − root) mod n`
    /// (`root` taken modulo `n`). The parent of `v` clears its lowest
    /// set bit; the children are `v + mask` for each power-of-two `mask`
    /// below that bit (below the tree's top for the root), descending.
    /// One round, in which a rank forwards only once its copy landed.
    Bcast { root: u32 },
    /// Ring: in round `s` rank `r` sends block `(r − s) mod n` to
    /// `r + 1` and receives block `(r − s − 1) mod n` from `r − 1`.
    /// `n − 1` rounds.
    Allgather,
    /// Pairwise rotation: in round `i` rank `r` sends block `r + i + 1`
    /// of its send buffer to that rank, and receives from `r − i − 1`
    /// into that rank's block. `n − 1` rounds.
    Alltoall,
    /// Dissemination: in round `k` rank `r` signals `r + 2^k` and waits
    /// for `r − 2^k`. `⌈log₂ n⌉` rounds.
    Barrier,
}

/// One scheduled transfer: the peer rank and the block index it moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    pub peer: u32,
    pub block: u32,
}

/// What one rank does in one round.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// The receive the round waits for, if any.
    pub recv: Option<Step>,
    /// The sends, in posting order.
    pub sends: Sends,
    /// The sends are posted only once `recv` has landed (a bcast tree
    /// node forwards what it received). Never set without a `recv`.
    pub sends_wait: bool,
}

/// A round's sends, in posting order.
#[derive(Clone, Copy, Debug)]
pub enum Sends {
    /// The single send of a ring, rotation or dissemination round.
    One(Option<Step>),
    /// Bcast children: relative rank, root, job size, next mask.
    Tree {
        v: u32,
        root: u32,
        n: u32,
        mask: u32,
    },
}

impl Iterator for Sends {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        match self {
            Sends::One(s) => s.take(),
            Sends::Tree { v, root, n, mask } => {
                while *mask > 0 {
                    let child = *v + *mask;
                    *mask >>= 1;
                    if child < *n {
                        let peer = (child + *root) % *n;
                        return Some(Step { peer, block: 0 });
                    }
                }
                None
            }
        }
    }
}

/// `⌈log₂ n⌉`, 0 for `n ≤ 1`.
fn ceil_log2(n: u32) -> u32 {
    n.max(1).next_power_of_two().trailing_zeros()
}

impl Coll {
    /// Rounds the collective takes on `n` ranks (0 when there is
    /// nothing to exchange).
    pub fn rounds(self, n: u32) -> u32 {
        match self {
            Coll::Bcast { .. } => u32::from(n > 1),
            Coll::Allgather | Coll::Alltoall => n.saturating_sub(1),
            Coll::Barrier => ceil_log2(n),
        }
    }

    /// Rank `rank`'s part of round `round` on `n` ranks.
    pub fn round(self, n: u32, rank: u32, round: u32) -> Round {
        debug_assert!(
            rank < n && round < self.rounds(n),
            "{self:?} {n} {rank} {round}"
        );
        // A ring, rotation or dissemination round: send `(to, block)`,
        // receive `(from, block)`, independently.
        let pair = |to, send_block, from, recv_block| Round {
            recv: Some(Step {
                peer: from,
                block: recv_block,
            }),
            sends: Sends::One(Some(Step {
                peer: to,
                block: send_block,
            })),
            sends_wait: false,
        };
        match self {
            Coll::Bcast { root } => {
                let root = root % n;
                let v = (rank + n - root) % n;
                let low = v & v.wrapping_neg(); // lowest set bit; 0 at the root
                let mask = if v == 0 {
                    n.next_power_of_two() >> 1
                } else {
                    low >> 1
                };
                let recv = (v != 0).then(|| Step {
                    peer: (v - low + root) % n,
                    block: 0,
                });
                let sends = Sends::Tree { v, root, n, mask };
                Round {
                    recv,
                    sends,
                    sends_wait: recv.is_some(),
                }
            }
            Coll::Allgather => {
                let (right, left) = ((rank + 1) % n, (rank + n - 1) % n);
                pair(right, (rank + n - round) % n, left, (left + n - round) % n)
            }
            Coll::Alltoall => {
                let (to, from) = ((rank + round + 1) % n, (rank + n - round - 1) % n);
                pair(to, to, from, from)
            }
            Coll::Barrier => {
                let d = 1 << round;
                pair((rank + d) % n, 0, (rank + n - d) % n, 0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every collective shape on `n` ranks: each bcast root, then the
    /// three rootless algorithms.
    fn all_colls(n: u32) -> impl Iterator<Item = Coll> {
        (0..n).map(|root| Coll::Bcast { root }).chain([
            Coll::Allgather,
            Coll::Alltoall,
            Coll::Barrier,
        ])
    }

    /// Receives per rank that the algorithm's message count fixes.
    fn analytic_recvs(c: Coll, n: u32, r: u32) -> u32 {
        if n <= 1 {
            return 0;
        }
        match c {
            Coll::Bcast { root } => u32::from(r != root % n),
            Coll::Allgather | Coll::Alltoall => n - 1,
            Coll::Barrier => ceil_log2(n),
        }
    }

    #[test]
    fn schedules_pair_up_and_match_the_analytic_counts() {
        for n in 1..=33u32 {
            for c in all_colls(n) {
                let mut recv_count = vec![0u32; n as usize];
                for round in 0..c.rounds(n) {
                    let plan: Vec<Round> = (0..n).map(|r| c.round(n, r, round)).collect();
                    let mut sends = 0;
                    for (r, p) in plan.iter().enumerate() {
                        let r = r as u32;
                        assert!(
                            !p.sends_wait || p.recv.is_some(),
                            "{c:?} n={n} r={r}: waits on no receive"
                        );
                        for s in p.sends {
                            sends += 1;
                            assert_ne!(s.peer, r, "{c:?} n={n}: self-send");
                            // Exactly one receive at the peer names us
                            // in this round.
                            let at_peer = plan[s.peer as usize].recv;
                            assert_eq!(
                                at_peer.map(|x| x.peer),
                                Some(r),
                                "{c:?} n={n} round={round}: {r}->{} unmatched",
                                s.peer
                            );
                            // Block bookkeeping agrees on both ends.
                            let recv_block = at_peer.unwrap().block;
                            match c {
                                Coll::Alltoall => {
                                    assert_eq!((s.block, recv_block), (s.peer, r))
                                }
                                _ => assert_eq!(s.block, recv_block, "{c:?} n={n}"),
                            }
                        }
                        if p.recv.is_some() {
                            recv_count[r as usize] += 1;
                        }
                    }
                    let recvs = plan.iter().filter(|p| p.recv.is_some()).count();
                    assert_eq!(sends, recvs, "{c:?} n={n} round={round}: orphan receive");
                }
                for r in 0..n {
                    assert_eq!(
                        recv_count[r as usize],
                        analytic_recvs(c, n, r),
                        "{c:?} n={n} rank {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn gathers_deliver_every_other_block_exactly_once() {
        for n in 1..=33u32 {
            for c in [Coll::Allgather, Coll::Alltoall] {
                for r in 0..n {
                    let got: Vec<u32> = (0..c.rounds(n))
                        .map(|round| c.round(n, r, round).recv.unwrap().block)
                        .collect();
                    let unique: BTreeSet<u32> = got.iter().copied().collect();
                    let want: BTreeSet<u32> = (0..n).filter(|&b| b != r).collect();
                    assert_eq!(got.len(), unique.len(), "{c:?} n={n} r={r}: duplicate");
                    assert_eq!(unique, want, "{c:?} n={n} r={r}");
                }
            }
        }
    }

    #[test]
    fn ring_ranks_forward_only_blocks_they_hold() {
        for n in 1..=33u32 {
            for r in 0..n {
                let mut held = BTreeSet::from([r]);
                for round in 0..Coll::Allgather.rounds(n) {
                    let p = Coll::Allgather.round(n, r, round);
                    for s in p.sends {
                        assert!(held.contains(&s.block), "n={n} r={r} round={round}");
                    }
                    held.insert(p.recv.unwrap().block);
                }
            }
        }
    }

    #[test]
    fn barrier_leaves_every_rank_having_heard_from_all() {
        for n in 1..=33u32 {
            let mut heard: Vec<BTreeSet<u32>> = (0..n).map(|r| BTreeSet::from([r])).collect();
            for round in 0..Coll::Barrier.rounds(n) {
                let before = heard.clone();
                for r in 0..n {
                    let from = Coll::Barrier.round(n, r, round).recv.unwrap().peer;
                    heard[r as usize].extend(&before[from as usize]);
                }
            }
            assert!(heard.iter().all(|h| h.len() == n as usize), "n={n}");
        }
    }

    #[test]
    fn bcast_is_mpich_lowest_set_bit_tree() {
        let kids = |n, root, r| -> Vec<u32> {
            Coll::Bcast { root }
                .round(n, r, 0)
                .sends
                .map(|s| s.peer)
                .collect()
        };
        // Root 0 on 8: descending masks.
        assert_eq!(kids(8, 0, 0), [4, 2, 1]);
        assert_eq!(kids(8, 0, 4), [6, 5]);
        assert_eq!(kids(8, 0, 6), [7]);
        // Non-power-of-two size, shifted root: relative 4 (rank 3) has
        // children relative 6 and 5.
        assert_eq!(kids(7, 6, 3), [5, 4]);
        let p = Coll::Bcast { root: 6 }.round(13, 6 + 4, 0);
        assert_eq!(
            p.recv.map(|s| s.peer),
            Some(6),
            "relative 4's parent is the root"
        );
        assert!(p.sends_wait);
        assert!(!Coll::Bcast { root: 6 }.round(13, 6, 0).sends_wait);
    }
}

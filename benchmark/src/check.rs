//! Output checks. Every received buffer is compared byte for byte with
//! `datatype::testutil::reference_pack`; every scale-model job is
//! compared with the message counts its program implies, rank by rank.
//! The checks run outside the timed region.

use datatype::testutil::reference_pack;
use datatype::DataType;
use mpirt::scale::ScaleOp;

/// Does the typed buffer `typed` (displacement 0 at index `base`) hold
/// exactly the packed stream `want` under `count` instances of `ty`?
pub fn typed_matches(ty: &DataType, count: u64, typed: &[u8], base: i64, want: &[u8]) -> bool {
    reference_pack(ty, count, typed, base) == want
}

/// Messages rank `r` of an `n`-rank job must receive to finish `op` in
/// the scale model's algorithms: binomial bcast (one per non-root),
/// ring allgather and rotation alltoall (`n − 1`), dissemination
/// barrier (`⌈log₂ n⌉`), put/get rings (the data or request from the
/// left plus the ack or data from the right).
pub fn expected_msgs(op: ScaleOp, n: u32, r: u32) -> u64 {
    if n <= 1 {
        return 0;
    }
    match op {
        ScaleOp::Bcast { root, .. } => u64::from(r != root % n),
        ScaleOp::Allgather { .. } | ScaleOp::Alltoall { .. } => u64::from(n - 1),
        ScaleOp::Barrier => u64::from(32 - (n - 1).leading_zeros()),
        ScaleOp::PutRing { .. } | ScaleOp::GetRing { .. } => 2,
    }
}

/// Compare per-rank delivered counts of a job running `program` with
/// [`expected_msgs`] summed over it. Returns the first mismatching rank
/// as `(rank, got, want)`.
pub fn msgs_mismatch(
    program: &[ScaleOp],
    n: u32,
    delivered: impl Fn(u32) -> u64,
) -> Option<(u32, u64, u64)> {
    (0..n)
        .map(|r| {
            let want = program.iter().map(|&op| expected_msgs(op, n, r)).sum();
            (r, delivered(r), want)
        })
        .find(|(_, got, want)| got != want)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatype::testutil::{buffer_span, pattern};
    use mpirt::scale::{run, ScaleConfig};
    use simcore::trace::names;

    fn tri(n: u64) -> DataType {
        let lens: Vec<u64> = (0..n).map(|c| n - c).collect();
        let disps: Vec<i64> = (0..n as i64).map(|c| c * n as i64 + c).collect();
        DataType::indexed(&lens, &disps, &DataType::double())
            .unwrap()
            .commit()
    }

    #[test]
    fn intact_buffer_passes_and_corrupted_buffer_fails() {
        let ty = tri(16);
        let (base, len) = buffer_span(&ty, 2);
        let typed = pattern(len);
        let want = reference_pack(&ty, 2, &typed, base);
        assert!(typed_matches(&ty, 2, &typed, base, &want));

        // One flipped byte inside the layout is caught...
        let seg = ty.segments(2)[7];
        let mut bad = typed.clone();
        bad[(base + seg.disp) as usize] ^= 0x5a;
        assert!(!typed_matches(&ty, 2, &bad, base, &want));
        // ...and so is a receive that never landed.
        assert!(!typed_matches(&ty, 2, &vec![0u8; len], base, &want));
    }

    #[test]
    fn bytes_outside_the_layout_are_not_payload() {
        let ty = tri(8);
        let (base, len) = buffer_span(&ty, 1);
        let typed = pattern(len);
        let want = reference_pack(&ty, 1, &typed, base);
        // Element n (byte 64) is row 0 of column 1, above the diagonal:
        // a gap the receive never writes.
        let mut other = typed.clone();
        other[8 * 8] ^= 0xff;
        assert!(typed_matches(&ty, 1, &other, base, &want));
    }

    #[test]
    fn analytic_counts_match_the_scale_model() {
        let n = 12u32;
        let ops = [
            ScaleOp::Bcast {
                root: 5,
                bytes: 256,
            },
            ScaleOp::Allgather { bytes: 64 },
            ScaleOp::Alltoall { bytes: 64 },
            ScaleOp::Barrier,
            ScaleOp::PutRing { bytes: 128 },
            ScaleOp::GetRing { bytes: 128 },
        ];
        let programs: Vec<Vec<ScaleOp>> = ops
            .iter()
            .map(|&op| vec![op])
            .chain([ops[4..].to_vec()])
            .collect();
        for program in programs {
            let rep = run(&ScaleConfig::new(n, program.clone()), 1, false);
            let per_rank = |r: u32| rep.trace.counter_at(names::SCALE_MSGS, r, 0);
            assert_eq!(msgs_mismatch(&program, n, per_rank), None, "{program:?}");
            let total: u64 = (0..n)
                .flat_map(|r| program.iter().map(move |&op| expected_msgs(op, n, r)))
                .sum();
            assert_eq!(rep.msgs, total, "{program:?}");
        }
    }

    #[test]
    fn wrong_message_count_is_rejected() {
        let program = [ScaleOp::Barrier];
        let n = 8;
        // A rank that stalled one round short of the barrier.
        let short = |r: u32| if r == 3 { 2 } else { 3 };
        assert_eq!(msgs_mismatch(&program, n, short), Some((3, 2, 3)));
        // A duplicated delivery is as wrong as a lost one.
        let dup = |r: u32| 3 + u64::from(r == 0);
        assert_eq!(msgs_mismatch(&program, n, dup), Some((0, 4, 3)));
    }
}

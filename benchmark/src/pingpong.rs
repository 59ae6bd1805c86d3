//! `pingpong_steady`: Figs. 9–12-style GPU-resident round trips on K40
//! over sm1, sm2 and ib. Five datatype pairs (T↔T, V↔V, T-stair↔T-stair,
//! V→C reshape, C→transpose) share one session per topology and repeat,
//! so the DEV and tuned-shape caches are warm after the set-up round.
//!
//! One operation is one round trip: rank 0 sends its layout to rank 1,
//! rank 1 sends it back. The receive buffer is zeroed before each leg
//! and checked against the reference pack after it, outside the timed
//! region. Every round trip of the first timed pass feeds `sim_time_ms`
//! and the digest.

use crate::check::typed_matches;
use crate::common::{
    mpi_config, overhead_ratio, pattern, repeat_setup, span_ms, timed, Opts, Outcome, SessionAcc,
    TypedBuf,
};
use crate::probes;
use crate::spans::{Spans, OP};
use crate::stats::Json;
use bench::runner::Topo;
use bench::workloads::{
    contiguous_matrix, stair_triangular, submatrix, transpose_type, triangular,
};
use datatype::testutil::{buffer_span, reference_pack};
use datatype::DataType;
use gpusim::GpuArch;
use mpirt::api::{irecv, isend, wait_all, RecvArgs, SendArgs};
use mpirt::Session;
use simcore::rng::SimRng;
use std::time::Duration;

const TOPOS: [Topo; 3] = [Topo::Sm1Gpu, Topo::Sm2Gpu, Topo::Ib];

/// One datatype pair: rank 0 holds `ty0`, rank 1 holds `ty1`.
pub struct Pair {
    pub name: &'static str,
    pub ty0: DataType,
    pub ty1: DataType,
}

/// The five pairs, each sized so its round trips cost a comparable
/// share of host time; the seed nudges every matrix order by up to 7.
pub fn pairs(seed: u64) -> Vec<Pair> {
    let mut rng = SimRng::for_stream(seed, 0x9196);
    let mut n = |base: u64| base + rng.range_u64(0, 8);
    let (t, v, s, r, x) = (n(640), n(448), n(640), n(384), n(160));
    vec![
        Pair {
            name: "T-T",
            ty0: triangular(t),
            ty1: triangular(t),
        },
        Pair {
            name: "V-V",
            ty0: submatrix(v),
            ty1: submatrix(v),
        },
        Pair {
            name: "Tstair-Tstair",
            ty0: stair_triangular(s, 128),
            ty1: stair_triangular(s, 128),
        },
        Pair {
            name: "V-C",
            ty0: submatrix(r),
            ty1: contiguous_matrix(r),
        },
        Pair {
            name: "C-transpose",
            ty0: contiguous_matrix(x),
            ty1: transpose_type(x),
        },
    ]
}

/// One (topology, pair) combination with its buffers and the packed
/// stream both ends must hold after every leg.
struct Combo {
    sess: usize,
    pair: usize,
    b0: TypedBuf,
    base0: i64,
    b1: TypedBuf,
    base1: i64,
    want: Vec<u8>,
}

struct Setup {
    sessions: Vec<Session>,
    combos: Vec<Combo>,
}

fn setup(pairs: &[Pair], seed: u64, spans: &mut Spans, layers: &mut SessionAcc) -> Setup {
    let arch = GpuArch::named("k40");
    let mut sessions = Vec::new();
    let mut combos = Vec::new();
    for (si, topo) in TOPOS.into_iter().enumerate() {
        let (mut sess, build_ms) = span_ms(spans, "mpirt.session.build", || {
            topo.session(arch, mpi_config()).build()
        });
        layers.session_build_ms.push(build_ms);
        for (pi, p) in pairs.iter().enumerate() {
            let (base0, len0) = buffer_span(&p.ty0, 1);
            let (base1, len1) = buffer_span(&p.ty1, 1);
            let fill = pattern(len0, seed);
            let want = reference_pack(&p.ty0, 1, &fill, base0);
            let ((b0, b1), ms) = span_ms(spans, "memsim.alloc_fill", || {
                (
                    TypedBuf::alloc(&mut sess, 0, true, len0, Some(&fill)),
                    TypedBuf::alloc(&mut sess, 1, true, len1, None),
                )
            });
            layers.alloc_fill_ms += ms;
            combos.push(Combo {
                sess: si,
                pair: pi,
                b0,
                base0,
                b1,
                base1,
                want,
            });
        }
        sessions.push(sess);
    }
    Setup { sessions, combos }
}

/// What one round trip produced.
struct Trip {
    host: Duration,
    sim_ns: u64,
    ok: bool,
}

/// One round trip on `c`: two timed legs, each followed by an untimed
/// byte-exact check of the buffer it filled.
fn round_trip(
    s: &mut Setup,
    pairs: &[Pair],
    i: usize,
    spans: &mut Spans,
    acc: &mut SessionAcc,
) -> Trip {
    let c = &s.combos[i];
    let p = &pairs[c.pair];
    let sess = &mut s.sessions[c.sess];
    let t0 = sess.now();
    let mut host = Duration::ZERO;
    let mut ok = true;
    let legs = [
        (0, 1, &p.ty0, c.b0, c.base0, &p.ty1, c.b1, c.base1),
        (1, 0, &p.ty1, c.b1, c.base1, &p.ty0, c.b0, c.base0),
    ];
    for (from, to, sty, sbuf, sbase, rty, rbuf, rbase) in legs {
        spans.time("memsim.zero", || rbuf.zero(sess, rbuf.len));
        spans.enter("bench.leg");
        let ev0 = sess.executed_events();
        let (res, dt) = timed(|| {
            let sreq = spans.time("mpirt.isend", || {
                isend(
                    sess,
                    SendArgs::new(from, to, sbuf.at(sbase), sty, 1).tag(99),
                )
            });
            let rreq = spans.time("mpirt.irecv", || {
                irecv(
                    sess,
                    RecvArgs::new(to, from, rbuf.at(rbase), rty, 1).tag(99),
                )
            });
            let (res, wait) = span_ms(spans, "mpirt.wait_all", || wait_all(sess, &[sreq, rreq]));
            acc.wait(wait, sess.executed_events() - ev0);
            res
        });
        spans.exit();
        host += dt;
        let landed = res.is_ok() && {
            let bytes = rbuf.bytes(sess, rbuf.len);
            spans.time("bench.check", || {
                typed_matches(rty, 1, bytes, rbase, &c.want)
            })
        };
        ok &= landed;
    }
    Trip {
        host,
        sim_ns: (sess.now() - t0).as_nanos(),
        ok,
    }
}

pub fn run(opts: &Opts, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let mut acc = SessionAcc::default();
    let pairs = pairs(opts.seed);
    let (mut s, warm) = repeat_setup(&mut out, || {
        acc = SessionAcc::default();
        let mut s = setup(&pairs, opts.seed, spans, &mut acc);
        // The warm-up round (connection set-up, IPC mapping, DEV and
        // tuner caches) is part of set-up; its outputs are checked too.
        let warm: Vec<bool> = (0..s.combos.len())
            .map(|i| round_trip(&mut s, &pairs, i, spans, &mut SessionAcc::default()).ok)
            .collect();
        (s, warm)
    });
    // The kept set-up's warm-ups count as attempted operations.
    for ok in warm {
        if !ok {
            eprintln!("a warm-up round trip failed its check");
        }
        out.tally(ok);
    }
    out.ref_ops = s.combos.len();
    simcore::scratch::reset_stats();

    // Whole passes over every combination, so the mix of the timed
    // sample is the same in every run.
    let mut pass = 0usize;
    while pass == 0 || out.measuring(opts) {
        for i in 0..s.combos.len() {
            spans.set_op(out.attempted);
            spans.enter(OP);
            let trip = round_trip(&mut s, &pairs, i, spans, &mut acc);
            spans.exit();
            out.tally(trip.ok);
            if !trip.ok {
                let c = &s.combos[i];
                eprintln!(
                    "round trip failed: {} on {:?}",
                    pairs[c.pair].name, TOPOS[c.sess]
                );
            }
            out.record(trip.host.as_secs_f64() * 1e3);
            if pass == 0 {
                out.sim_ns += trip.sim_ns;
                out.digest.add(trip.sim_ns);
            }
        }
        pass += 1;
    }
    out.notes.push(("passes", Json::Int(pass as u64)));
    // Each pair's share of the timed host time (no pair may dominate).
    let mut share = vec![0.0; pairs.len()];
    for (k, ms) in out.op_ms.iter().enumerate() {
        share[s.combos[k % s.combos.len()].pair] += ms / 1e3 / out.timed_s();
    }
    out.notes.push((
        "pair_time_share",
        Json::Obj(
            pairs
                .iter()
                .zip(share)
                .map(|(p, x)| (p.name.to_string(), Json::Num(x)))
                .collect(),
        ),
    ));

    if spans.on() {
        let ops = out.op_ms.len() as f64;
        acc.report(ops, &mut out.layers);
        probes::session_counters(&mut s.sessions, ops, spans, &mut out.layers);
        let flat = |ps: Vec<Pair>| -> Vec<DataType> {
            ps.into_iter().flat_map(|p| [p.ty0, p.ty1]).collect()
        };
        let device: Vec<(DataType, u64)> = flat(self::pairs(opts.seed))
            .into_iter()
            .map(|t| (t, 1))
            .collect();
        probes::datatype_layers(
            || flat(self::pairs(opts.seed)),
            &device,
            &[],
            opts.seed,
            spans,
            &mut out.layers,
        );
        probes::tuner_decide(&tuner_cases(&pairs), spans, &mut out.layers);
        // Tracing overhead on ten more passes.
        let n = s.combos.len();
        let ratio = overhead_ratio(|sp| {
            (0..10 * n)
                .map(|k| {
                    let trip = round_trip(&mut s, &pairs, k % n, sp, &mut SessionAcc::default());
                    trip.host.as_secs_f64() * 1e3
                })
                .sum()
        });
        out.layers.insert("bench.trace.overhead_ratio", ratio);
    }
    out
}

/// Every (topology, pair) transfer shape, for the tuner probe.
fn tuner_cases(pairs: &[Pair]) -> Vec<probes::TunerCase> {
    TOPOS
        .into_iter()
        .flat_map(|topo| {
            pairs.iter().map(move |p| probes::TunerCase {
                topo,
                sty: p.ty0.clone(),
                rty: p.ty1.clone(),
                count: 1,
                send_dev: true,
                recv_dev: true,
            })
        })
        .collect()
}

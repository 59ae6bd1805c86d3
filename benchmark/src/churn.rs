//! `ddt_churn`: a stream of messages whose derived datatypes keep
//! changing. Layouts come from a seeded pool larger than the DEV cache
//! holds: `datatype::testutil::arb_datatype` trees and LAMMPS-style
//! `indexed_block` atom lists, 8–256 KiB per message, over sm1, sm2 and
//! ib. Some messages use host buffers (the CPU convertor path), some a
//! receive layout that differs from the send layout.
//!
//! Reuse is skewed: most messages repeat one of the few layouts used
//! last, the rest walk on through the pool, so the cache sees both hits
//! and evictions. Each message rebuilds and commits its datatypes, as an
//! application that re-derives them every exchange step does.
//!
//! One operation is one message: build + commit, `isend`/`irecv`,
//! `wait_all`. The receive region is zeroed before the message and
//! compared byte for byte with the reference pack after it, untimed.

use crate::check::typed_matches;
use crate::collective;
use crate::common::{
    mpi_config, overhead_ratio, pattern, repeat_setup, span_ms, Opts, Outcome, SessionAcc, TypedBuf,
};
use crate::probes::{self, TunerCase};
use crate::spans::{Spans, OP};
use crate::stats::Json;
use bench::runner::Topo;
use datatype::testutil::{arb_datatype, buffer_span, reference_pack};
use datatype::{DataType, Primitive};
use gpusim::GpuArch;
use mpirt::api::{irecv, isend, wait_all, RecvArgs, SendArgs};
use mpirt::Session;
use simcore::rng::SimRng;
use std::collections::VecDeque;
use std::time::Instant;

const TOPOS: [Topo; 3] = [Topo::Sm1Gpu, Topo::Sm2Gpu, Topo::Ib];
/// Distinct layouts in the pool; their DEV plans far exceed the 8 MiB,
/// 256-entry cache of each rank.
const POOL: usize = 1920;
/// Size of every typed buffer; layouts whose span exceeds it are
/// redrawn, so buffer memory is the same whatever the seed.
const BUF_BYTES: usize = 3 << 20;
/// Share of messages that repeat a recently used layout.
const REUSE: f64 = 0.7;
/// How many recently used layouts a repeat draws from.
const WINDOW: usize = 12;
/// Messages whose simulated times form `sim_time_ms` and the digest.
const REF_OPS: usize = 6400;
/// Layouts sampled by each traced-run layer probe.
const PROBE_SAMPLE: usize = 24;

/// How to (re)build one pool layout, and how it travels.
#[derive(Clone)]
struct Recipe {
    seed: u64,
    lammps: bool,
    target: u64,
    topo: usize,
    /// Sender rank; the receiver is the other one.
    from: usize,
    send_dev: bool,
    recv_dev: bool,
    /// Receive into a different layout with the same signature.
    reshape: bool,
}

/// A seeded permutation of `n` values `f(0..n)`: exact shares of each
/// attribute in every pool, random pairings between attributes.
fn shuffled<T>(rng: &mut SimRng, n: usize, f: impl Fn(usize) -> T) -> Vec<T> {
    let mut v: Vec<T> = (0..n).map(f).collect();
    rng.shuffle(&mut v);
    v
}

fn recipes(seed: u64) -> Vec<Recipe> {
    let mut rng = SimRng::for_stream(seed, 0xC4C4);
    // Message sizes log-uniform over 8 KiB–256 KiB.
    let target = shuffled(&mut rng, POOL, |i| {
        (8192.0 * 32f64.powf(i as f64 / (POOL - 1) as f64)) as u64
    });
    let topo = shuffled(&mut rng, POOL, |i| i % 3);
    let from = shuffled(&mut rng, POOL, |i| i % 2);
    let lammps = shuffled(&mut rng, POOL, |i| i % 3 == 0);
    // Five of eight device→device; host→device, device→host, host→host.
    let spaces = shuffled(&mut rng, POOL, |i| match i % 8 {
        5 => (true, false),
        6 => (false, true),
        7 => (false, false),
        _ => (true, true),
    });
    let reshape = shuffled(&mut rng, POOL, |i| i % 4 == 0);
    (0..POOL)
        .map(|k| {
            let mut r = Recipe {
                seed: 0,
                lammps: lammps[k],
                target: target[k],
                topo: topo[k],
                from: from[k],
                send_dev: spaces[k].0,
                recv_dev: spaces[k].1,
                reshape: reshape[k],
            };
            // Redraw layouts whose typed span would not fit a buffer.
            loop {
                r.seed = rng.next_u64();
                let (s, d, count) = build(&r);
                if buffer_span(&s, count).1.max(buffer_span(&d, count).1) <= BUF_BYTES {
                    break r;
                }
            }
        })
        .collect()
}

/// The same primitive sequence as `ty`, regrouped into one contiguous
/// field per run with small gaps between fields.
fn regrouped(ty: &DataType, rng: &mut SimRng) -> DataType {
    let mut runs: Vec<(Primitive, u64)> = Vec::new();
    ty.for_each_primitive(|p, n| runs.push((p, n)));
    let mut at = 0i64;
    let (mut disps, mut fields) = (Vec::new(), Vec::new());
    for (p, n) in runs {
        fields.push(DataType::contiguous(n, &DataType::primitive(p)).expect("field"));
        disps.push(at);
        at += (n * p.size()) as i64 + rng.range_u64(0, 9) as i64;
    }
    let st = DataType::structure(&vec![1; fields.len()], &disps, &fields).expect("struct");
    DataType::resized(&st, 0, at).expect("resized")
}

/// LAMMPS-style exchange list: `atoms` atoms of three doubles each,
/// picked in increasing order with random gaps.
fn atom_list(atoms: u64, rng: &mut SimRng) -> DataType {
    let mut idx = 0i64;
    let displs: Vec<i64> = (0..atoms)
        .map(|_| {
            idx += 1 + rng.range_u64(0, 4) as i64;
            3 * idx
        })
        .collect();
    DataType::indexed_block(3, &displs, &DataType::double()).expect("atom list")
}

/// Build and commit a recipe's send and receive types: `(send, recv,
/// count)`.
fn build(r: &Recipe) -> (DataType, DataType, u64) {
    let mut rng = SimRng::new(r.seed);
    if r.lammps {
        let atoms = (r.target / 24).max(1);
        let s = atom_list(atoms, &mut rng).commit();
        let d = if r.reshape {
            atom_list(atoms, &mut rng).commit()
        } else {
            s.clone()
        };
        (s, d, 1)
    } else {
        let t = arb_datatype(&mut rng);
        let count = (r.target / t.size()).max(1);
        let d = if r.reshape {
            regrouped(&t, &mut rng).commit()
        } else {
            t.clone().commit()
        };
        (t.commit(), d, count)
    }
}

/// Per-rank buffers of one session, [`BUF_BYTES`] each: send buffers
/// hold the pattern, receive buffers are zeroed before every message.
struct Bufs {
    send: [[TypedBuf; 2]; 2],
    recv: [[TypedBuf; 2]; 2],
}

struct Setup {
    sessions: Vec<Session>,
    bufs: Vec<Bufs>,
    fill: Vec<u8>,
}

fn setup(seed: u64, spans: &mut Spans, acc: &mut SessionAcc) -> Setup {
    let fill = pattern(BUF_BYTES, seed);
    let arch = GpuArch::named("k40");
    let mut sessions = Vec::new();
    let mut bufs = Vec::new();
    for topo in TOPOS {
        let (mut sess, ms) = span_ms(spans, "mpirt.session.build", || {
            topo.session(arch, mpi_config()).build()
        });
        acc.session_build_ms.push(ms);
        let (b, ms) = span_ms(spans, "memsim.alloc_fill", || {
            let mut one = |rank: usize, dev: bool, filled: bool| {
                TypedBuf::alloc(&mut sess, rank, dev, BUF_BYTES, filled.then_some(&fill[..]))
            };
            // Index [rank][device as usize].
            Bufs {
                send: [0, 1].map(|r| [one(r, false, true), one(r, true, true)]),
                recv: [0, 1].map(|r| [one(r, false, false), one(r, true, false)]),
            }
        });
        acc.alloc_fill_ms += ms;
        sessions.push(sess);
        bufs.push(b);
    }
    Setup {
        sessions,
        bufs,
        fill,
    }
}

/// Skewed reuse: with probability [`REUSE`] repeat one of the last
/// [`WINDOW`] layouts, otherwise take the next layout of the pool.
struct Picker {
    rng: SimRng,
    next: usize,
    recent: VecDeque<usize>,
}

impl Picker {
    fn new(seed: u64) -> Picker {
        Picker {
            rng: SimRng::for_stream(seed, 0x9E7),
            next: 0,
            recent: VecDeque::new(),
        }
    }

    fn pick(&mut self) -> usize {
        if !self.recent.is_empty() && self.rng.chance(REUSE) {
            return self.recent[self.rng.range(0, self.recent.len())];
        }
        let k = self.next;
        self.next = (self.next + 1) % POOL;
        self.recent.push_front(k);
        self.recent.truncate(WINDOW);
        k
    }
}

struct Msg {
    host_ms: f64,
    sim_ns: u64,
    ok: bool,
}

/// Send one message of recipe `r`: timed build + transfer, untimed
/// zeroing before and byte-exact check after.
fn message(s: &mut Setup, r: &Recipe, spans: &mut Spans, acc: &mut SessionAcc) -> Msg {
    let t = Instant::now();
    let (sty, rty, count) = spans.time("datatype.build_commit", || build(r));
    let mut host_ms = t.elapsed().as_secs_f64() * 1e3;

    let (from, to) = (r.from, 1 - r.from);
    let (sbase, slen) = buffer_span(&sty, count);
    let (rbase, rlen) = buffer_span(&rty, count);
    let sess = &mut s.sessions[r.topo];
    let sbuf = s.bufs[r.topo].send[from][r.send_dev as usize];
    let rbuf = s.bufs[r.topo].recv[to][r.recv_dev as usize];
    spans.time("memsim.zero", || rbuf.zero(sess, rlen));

    let t0 = sess.now();
    let ev0 = sess.executed_events();
    let t = Instant::now();
    let sreq = spans.time("mpirt.isend", || {
        isend(sess, SendArgs::new(from, to, sbuf.at(sbase), &sty, count))
    });
    let rreq = spans.time("mpirt.irecv", || {
        irecv(sess, RecvArgs::new(to, from, rbuf.at(rbase), &rty, count))
    });
    let (res, wait) = span_ms(spans, "mpirt.wait_all", || wait_all(sess, &[sreq, rreq]));
    host_ms += t.elapsed().as_secs_f64() * 1e3;
    acc.wait(wait, sess.executed_events() - ev0);

    let ok = res.is_ok() && {
        let want = reference_pack(&sty, count, &s.fill[..slen], sbase);
        let got = rbuf.bytes(sess, rlen);
        spans.time("bench.check", || {
            typed_matches(&rty, count, got, rbase, &want)
        })
    };
    Msg {
        host_ms,
        sim_ns: (sess.now() - t0).as_nanos(),
        ok,
    }
}

pub fn run(opts: &Opts, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let mut acc = SessionAcc::default();
    let (pool, mut s) = repeat_setup(&mut out, || {
        acc = SessionAcc::default();
        let pool = spans.time("datatype.build_commit", || recipes(opts.seed));
        (pool, setup(opts.seed, spans, &mut acc))
    });
    out.ref_ops = REF_OPS;
    simcore::scratch::reset_stats();

    let mut picker = Picker::new(opts.seed);
    while out.op_ms.len() < REF_OPS || out.measuring(opts) {
        let r = &pool[picker.pick()];
        spans.set_op(out.attempted);
        spans.enter(OP);
        let m = message(&mut s, r, spans, &mut acc);
        spans.exit();
        out.tally(m.ok);
        if !m.ok {
            eprintln!(
                "message {} failed: layout seed {:#x} on {:?}",
                out.attempted, r.seed, TOPOS[r.topo]
            );
        }
        if out.op_ms.len() < REF_OPS {
            out.sim_ns += m.sim_ns;
            out.digest.add(m.sim_ns);
        }
        out.record(m.host_ms);
    }
    out.notes.push(("pool_layouts", Json::Int(POOL as u64)));

    if spans.on() {
        let ops = out.op_ms.len() as f64;
        acc.report(ops, &mut out.layers);
        probes::session_counters(&mut s.sessions, ops, spans, &mut out.layers);

        let sample: Vec<&Recipe> = pool.iter().take(2 * PROBE_SAMPLE).collect();
        let built: Vec<(&Recipe, (DataType, DataType, u64))> =
            sample.iter().map(|r| (*r, build(r))).collect();
        let pick = |want_dev: bool| -> Vec<(DataType, u64)> {
            built
                .iter()
                .filter(|(r, _)| (r.send_dev && r.recv_dev) == want_dev)
                .take(PROBE_SAMPLE)
                .map(|(_, (s, _, c))| (s.clone(), *c))
                .collect()
        };
        probes::datatype_layers(
            || {
                sample
                    .iter()
                    .flat_map(|r| {
                        let (s, d, _) = build(r);
                        [s, d]
                    })
                    .collect()
            },
            &pick(true),
            &pick(false),
            opts.seed,
            spans,
            &mut out.layers,
        );
        let cases: Vec<TunerCase> = built
            .iter()
            .take(PROBE_SAMPLE)
            .map(|(r, (s, d, c))| TunerCase {
                topo: TOPOS[r.topo],
                sty: s.clone(),
                rty: d.clone(),
                count: *c,
                send_dev: r.send_dev,
                recv_dev: r.recv_dev,
            })
            .collect();
        probes::tuner_decide(&cases, spans, &mut out.layers);
        // The scale-model layers ride on this workload's traced run, so
        // they are measured on a benchmark workload (see the README).
        let scale_jobs = collective::jobs(opts.seed);
        if let Err(e) = collective::scale_layers(&scale_jobs, opts.seed, spans, &mut out.layers) {
            eprintln!("{e}");
            out.tally(false);
        }

        // Tracing overhead on the next 200 messages of the stream.
        let batch: Vec<usize> = (0..200).map(|_| picker.pick()).collect();
        let ratio = overhead_ratio(|sp| {
            batch
                .iter()
                .map(|&k| message(&mut s, &pool[k], sp, &mut SessionAcc::default()).host_ms)
                .sum()
        });
        out.layers.insert("bench.trace.overhead_ratio", ratio);
    }
    out
}

//! The repository benchmark: one command, three workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from traced runs.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <pingpong_steady|ddt_churn|collective_scale> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every output is checked; any failure makes the result `correct:
//! false` and the exit code 1. The last line of standard output is the
//! result object; the line before it is a report stamped with the
//! seed, core count, copy-pool threads, git revision, build profile,
//! sample counts, quartiles and the simulated-result digest.

mod check;
mod churn;
mod collective;
mod common;
mod pingpong;
mod probes;
mod spans;
mod stats;

use common::{peak_rss_mb, Opts, Outcome};
use spans::Spans;
use stats::{median, Json, Quantiles};
use std::path::Path;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["pingpong_steady", "ddt_churn", "collective_scale"];

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not exercise reads 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("simcore.event.ns_per_event", "ns"),
    ("simcore.event.executed", "count/op"),
    ("simcore.event.events_per_s", "1/s"),
    ("simcore.event.cascade_ns_per_event", "ns"),
    ("simcore.par.copy_gbps", "GB/s"),
    ("simcore.scratch.recycle_ratio", "ratio"),
    ("simcore.shard.speedup_2v1", "ratio"),
    ("datatype.build_commit_us", "us"),
    ("datatype.cpu_pack_gbps", "GB/s"),
    ("devengine.plan_build_us", "us"),
    ("devengine.descriptor_bytes", "bytes"),
    ("devengine.cache.hit_ratio", "ratio"),
    ("devengine.cache.evict", "count/op"),
    ("devengine.pack_host_gbps", "GB/s"),
    ("gpusim.kernel.launches", "count/op"),
    ("gpusim.kernel.units", "count/op"),
    ("gpusim.kernel.bytes", "bytes/op"),
    ("gpusim.memcpy.d2h.bytes", "bytes/op"),
    ("gpusim.memcpy.h2d.bytes", "bytes/op"),
    ("gpusim.memcpy.p2p.bytes", "bytes/op"),
    ("memsim.alloc_fill_ms", "ms"),
    ("memsim.peak_bytes", "bytes"),
    ("netsim.am.count", "count/op"),
    ("netsim.rdma.bytes", "bytes/op"),
    ("mpirt.wire.bytes", "bytes/op"),
    ("mpirt.session.build_ms", "ms"),
    ("mpirt.wait_ms", "ms"),
    ("mpirt.tuner.decide_us", "us"),
    ("optimizer.frag.tuned", "count/op"),
    ("optimizer.frag.cache.hit", "count/op"),
    ("mpirt.metrics_ms", "ms"),
    ("scale.msgs", "count/op"),
    ("fault.injected", "count/op"),
    ("retry.attempts", "count/op"),
    ("faultsim.roll_ns", "ns"),
    ("bench.trace.overhead_ratio", "ratio"),
];

/// Layers the timed operations call into; a traced run reports each
/// one's self time per operation as `self_us_per_op.<layer>`.
const SELF_LAYERS: [&str; 5] = ["bench", "simcore", "datatype", "memsim", "mpirt"];

fn usage() -> String {
    format!(
        "usage: ddtbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checked-out revision, read from `.git` without spawning git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool_threads = simcore::par::pool_info().threads;
    let mut spans = Spans::new(opts.trace);
    let mut out: Outcome = match opts.workload.as_str() {
        "pingpong_steady" => pingpong::run(&opts, &mut spans),
        "ddt_churn" => churn::run(&opts, &mut spans),
        _ => collective::run(&opts, &mut spans),
    };
    let peak_rss = peak_rss_mb();
    let q = Quantiles::of(&out.op_ms).expect("every workload times at least one operation");

    let mut report = vec![
        ("workload", Json::Str(opts.workload.clone())),
        ("seed", Json::Int(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("cores", Json::Int(cores as u64)),
        ("pool_threads", Json::Int(pool_threads as u64)),
        (
            "copy_threads_env",
            Json::Str(std::env::var(simcore::par::POOL_THREADS_ENV).unwrap_or_default()),
        ),
        ("git_rev", Json::Str(git_rev())),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("timed_s", Json::Num(out.timed_s())),
        // The sample behind op_host_ms_p50 and op_host_ms_p90.
        ("op_host_ms_samples", Json::Int(q.n as u64)),
        ("op_host_ms_p90_beyond", Json::Int(q.beyond_p90 as u64)),
        ("op_host_ms_q1", Json::Num(q.q1)),
        ("op_host_ms_q3", Json::Num(q.q3)),
        ("setup_reps", Json::Int(out.setup_s.len() as u64)),
        ("reference_ops", Json::Int(out.ref_ops as u64)),
        (
            "sim_digest",
            Json::Str(format!("{:016x}", out.digest.value())),
        ),
        (
            "fail_ratio",
            Json::Num(out.failed as f64 / out.attempted.max(1) as f64),
        ),
    ];
    report.append(&mut out.notes);

    let metrics = if opts.trace {
        probes::event_cascade(&mut spans, &mut out.layers);
        let mut m: Vec<(String, Json)> = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let v = out.layers.remove(name).unwrap_or(0.0);
                (name.to_string(), metric(v, unit))
            })
            .collect();
        let self_ns = spans.self_ns_per_op();
        for layer in SELF_LAYERS {
            let us = self_ns.get(layer).copied().unwrap_or(0.0) / 1e3;
            m.push((format!("self_us_per_op.{layer}"), metric(us, "us/op")));
        }
        assert!(
            out.layers.is_empty(),
            "layer metrics missing from the table: {:?}",
            out.layers.keys()
        );
        let dir = Path::new(".bench_out");
        let file = dir.join(format!("spans-{}-{}.json", opts.workload, opts.seed));
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&file, spans.chrome_json()))
        {
            Ok(()) => report.push(("spans_file", Json::Str(file.display().to_string()))),
            Err(e) => eprintln!("could not write {}: {e}", file.display()),
        }
        report.push(("spans", Json::Int(spans.len() as u64)));
        Json::Obj(m)
    } else {
        Json::obj(vec![
            ("setup_s", metric(median(&out.setup_s), "s")),
            ("ops_per_s", metric(q.n as f64 / out.timed_s(), "ops/s")),
            ("op_host_ms_p50", metric(q.p50, "ms")),
            ("op_host_ms_p90", metric(q.p90, "ms")),
            ("sim_time_ms", metric(out.sim_ns as f64 / 1e6, "ms")),
            ("peak_rss_mb", metric(peak_rss, "MB")),
        ])
    };
    println!("{}", Json::obj(report).render());
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(out.failed == 0)),
            ("attempted", Json::Int(out.attempted)),
            ("failed", Json::Int(out.failed)),
            ("metrics", metrics),
        ])
        .render()
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_the_full_command_line() {
        let o = parse_args(args("--workload ddt_churn --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("ddt_churn", 7, 3.0, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(args("--workload nope")).is_err());
        assert!(parse_args(args("--workload ddt_churn --trace 2")).is_err());
        assert!(parse_args(args("--workload ddt_churn --seconds -1")).is_err());
        assert!(parse_args(args("--seed 3")).is_err());
        assert!(parse_args(args("--workload ddt_churn --seed 1 --seconds 2")).is_err());
    }
}

//! The repository's benchmark runner (see `README.md` beside this crate and
//! `BENCHMARK.json` at the repository root).
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--ops <n>] [--out <dir>]
//! ```
//!
//! One invocation runs one workload in this process, from one driver thread
//! (closed loop, one client; the library's own scoped threads fan out to
//! `available_parallelism()`). `--trace 0` reports the end-to-end metrics
//! with every span and the global telemetry off; `--trace 1` reports the
//! per-layer metrics and writes the spans to `<out>/benchmark-trace-<workload>.json`.
//! The last line of stdout is the result object; everything for humans goes
//! to stderr.

#![forbid(unsafe_code)]

mod clock;
mod ladder;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use zkdet_telemetry::Value;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use stats::{median, summarise, OpSample};
use trace::Tracer;
use workloads::audit_lineage::AuditLineage;
use workloads::exchange_small::ExchangeSmall;
use workloads::market_load::MarketLoad;
use workloads::publish_large::PublishLarge;
use workloads::{drive, Budget, Driven, Failure, Workload};

const USAGE: &str =
    "usage: benchmark --workload <name> --seed <u64> (--seconds <s> | --ops <n>) [--trace <0|1>] [--out <dir>]";

/// Where a traced run writes its spans unless `--out` says otherwise.
const DEFAULT_OUT_DIR: &str = ".bench_trace";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    budget: Budget,
    trace: bool,
    out: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut ops) = (None, None, None, None);
    let (mut trace, mut out) = (false, PathBuf::from(DEFAULT_OUT_DIR));
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(parse(&flag, &value()?)?),
            "--seconds" => seconds = Some(parse::<f64>(&flag, &value()?)?),
            "--ops" => ops = Some(parse::<usize>(&flag, &value()?)?),
            "--out" => out = PathBuf::from(value()?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let budget = match (ops, seconds) {
        (Some(n), _) if n >= 1 => Budget::Ops(n),
        (None, Some(s)) if s > 0.0 && s.is_finite() => Budget::Seconds(s),
        _ => return Err("give --seconds <s> above 0, or --ops <n> of at least 1".into()),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget,
        trace,
        out,
    })
}

fn parse<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot read {text:?}"))
}

/// What one invocation produced.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Report {
    /// The result object the benchmark contract asks for.
    fn to_json(&self) -> Value {
        Value::object()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", self.metrics.to_json())
    }
}

fn dispatch(args: &Args, tr: &mut Tracer, layers: &mut Metrics) -> Result<Driven, Failure> {
    let (seed, budget, traced) = (args.seed, args.budget, args.trace);
    match args.workload.as_str() {
        ExchangeSmall::NAME => drive::<ExchangeSmall>(seed, budget, traced, tr, layers),
        PublishLarge::NAME => drive::<PublishLarge>(seed, budget, traced, tr, layers),
        AuditLineage::NAME => drive::<AuditLineage>(seed, budget, traced, tr, layers),
        MarketLoad::NAME => drive::<MarketLoad>(seed, budget, traced, tr, layers),
        other => Err(format!(
            "unknown workload {other}; there are {}",
            workloads::NAMES.join(", ")
        )),
    }
}

fn run(args: &Args) -> Result<Report, Failure> {
    let started = clock::now();
    let mut tr = Tracer::new();
    let mut layers = Metrics::new(PER_LAYER);
    let driven = dispatch(args, &mut tr, &mut layers)?;
    let summary = summarise(&driven.samples);
    if let Err(why) = &driven.checks {
        eprintln!("{}: output check failed: {why}", args.workload);
    }
    let mut correct = driven.checks.is_ok() && summary.failed == 0;

    let metrics = if args.trace {
        span_metrics(&tr, &mut layers);
        counter_metrics(&driven.samples, &mut layers);
        layers.set_opt(
            "bench.trace_overhead.share",
            trace_overhead(&driven.samples),
        );
        ladder::run(args.seed, &mut layers)?;
        layers
    } else {
        let passed = summary.attempted - summary.failed;
        let mut e2e = Metrics::new(END_TO_END);
        e2e.set_opt("setup_s", median(&driven.setups_s));
        e2e.set_opt("ops_per_s", summary.ops_per_s);
        e2e.set_opt("op_p50_ms", summary.op_p50_ms);
        if passed > 0 {
            e2e.set_opt(
                "cpu_s_per_op",
                driven.loop_cpu_s.map(|cpu| cpu / passed as f64),
            );
        }
        e2e.set_opt("peak_rss_mb", clock::peak_rss_mib());
        // An end-to-end metric without a value is a failed run, not a zero.
        let missing = e2e.missing();
        if !missing.is_empty() {
            eprintln!("{}: no value for {missing:?}", args.workload);
            correct = false;
        }
        e2e
    };

    let stamp = stamp(args, &driven, &summary, clock::seconds_since(started));
    eprintln!("{}", stamp.encode_pretty());
    eprint!("{}", metrics.render());
    if args.trace {
        let path = write_trace(args, &stamp, &metrics, &tr)?;
        eprintln!("spans written to {}", path.display());
    }
    Ok(Report {
        correct,
        attempted: summary.attempted,
        failed: summary.failed,
        metrics,
    })
}

/// `core.<function>.ms|us` ← mean duration of the runner's span
/// `core.<function>`, for every such metric whose span was recorded; plus
/// the share of the operations' wall time those spans cover.
fn span_metrics(tr: &Tracer, layers: &mut Metrics) {
    for def in PER_LAYER {
        let (span, per_ms) = match def.name.rsplit_once('.') {
            Some((span, "ms")) => (span, 1.0),
            Some((span, "us")) => (span, 1e3),
            _ => continue,
        };
        if let Some(ms) = tr.mean_ms(span) {
            layers.set(def.name, ms * per_ms);
        }
    }
    layers.set_opt("core.step_cover.share", tr.step_cover_share());
}

/// Counts read, unchanged, from the global `zkdet_telemetry` registry, which
/// was collecting during the traced operations only.
fn counter_metrics(samples: &[OpSample], layers: &mut Metrics) {
    let counters = zkdet_telemetry::snapshot().counters;
    let count = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let ops: u64 = samples
        .iter()
        .filter(|s| s.traced)
        .map(|s| s.attempted)
        .sum();
    if ops > 0 {
        for (metric, counter) in [
            ("plonk.prove.calls_per_op", "zkdet.plonk.prove.calls"),
            ("plonk.verify.calls_per_op", "zkdet.plonk.verify.calls"),
            ("kzg.commit.calls_per_op", "zkdet.kzg.commit.calls"),
            ("curve.msm.calls_per_op", "zkdet.curve.msm.calls"),
            ("poly.coset_fft.calls_per_op", "zkdet.poly.coset_fft.calls"),
            (
                "storage.publish.bytes_per_op",
                "zkdet.storage.publish.bytes",
            ),
            ("chain.gas_per_op", "zkdet.chain.gas.total"),
        ] {
            layers.set(metric, count(counter) / ops as f64);
        }
    }
    let retrievals = count("zkdet.storage.retrieve.calls");
    if retrievals > 0.0 {
        layers.set(
            "storage.retrieve.attempts_per_call",
            count("zkdet.storage.retrieve.attempts") / retrievals,
        );
    }
}

/// Median latency of the traced operations ÷ that of the untraced ones − 1.
fn trace_overhead(samples: &[OpSample]) -> Option<f64> {
    let p50 = |traced: bool| summarise(samples.iter().filter(|s| s.traced == traced)).op_p50_ms;
    Some(p50(true)? / p50(false)? - 1.0)
}

/// Everything needed to tell two outputs apart: machine, toolchain, build,
/// commit, seed, and how much was run.
fn stamp(args: &Args, driven: &Driven, summary: &stats::Summary, wall_s: f64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let timed_wall_s: f64 = driven.samples.iter().map(|s| s.wall_s).sum();
    let mut stamp = Value::object()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("trace", args.trace)
        .with("nproc", nproc)
        .with("rustc", env!("BENCHMARK_RUSTC_VERSION"))
        .with(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (lto=thin)"
            },
        )
        .with(
            "git_commit",
            git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
        )
        .with("setups", driven.setups_s.len())
        .with("timed_calls", driven.samples.len())
        .with("ops_attempted", summary.attempted)
        .with("ops_failed", summary.failed)
        .with("timed_wall_s", timed_wall_s)
        .with("process_wall_s", wall_s);
    if let Some(tail) = summary.op_tail_ms {
        stamp.set(
            "op_tail_ms",
            Value::object()
                .with("percentile", tail.percentile)
                .with("value", tail.value)
                .with("samples", tail.samples),
        );
    }
    stamp
}

/// The checked-out commit, when `repo` is a git work tree (the driver's
/// checkout is not).
fn git_commit(repo: &Path) -> Option<String> {
    let head = std::fs::read_to_string(repo.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => std::fs::read_to_string(repo.join(".git").join(reference))
            .ok()
            .map(|hash| hash.trim().to_string()),
    }
}

fn write_trace(
    args: &Args,
    stamp: &Value,
    metrics: &Metrics,
    tr: &Tracer,
) -> Result<PathBuf, Failure> {
    let doc = Value::object()
        .with("schema", "zkdet-benchmark-trace-v1")
        .with("meta", stamp.clone())
        .with("per_layer", metrics.to_json())
        .with("spans", tr.to_json());
    let path = args
        .out
        .join(format!("benchmark-trace-{}.json", args.workload));
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, doc.encode_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json().encode());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(why) => {
            eprintln!("{}: {why}", args.workload);
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload market_load --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("market_load", 7, true)
        );
        assert!(matches!(a.budget, Budget::Seconds(s) if s == 10.0));
        assert_eq!(a.out, PathBuf::from(DEFAULT_OUT_DIR));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "--seed 1 --seconds 1",
            "--workload exchange_small --seconds 1",
            "--workload exchange_small --seed 1",
            "--workload exchange_small --seed 1 --seconds 0",
            "--workload exchange_small --seed x --seconds 1",
            "--workload exchange_small --seed 1 --seconds 1 --trace yes",
            "--workload exchange_small --seed 1 --seconds 1 --frobnicate",
            "--workload exchange_small --seed 1 --ops 0",
        ] {
            assert!(args(line).is_err(), "{line}");
        }
    }

    #[test]
    fn an_unknown_workload_prints_no_result() {
        let a = args("--workload nope --seed 1 --ops 1").expect("parses");
        assert!(run(&a).is_err());
    }

    /// The smoke path: two real exchanges, negative controls and output
    /// checks included, in seconds.
    #[test]
    fn exchange_small_two_ops_smoke() {
        let a = args("--workload exchange_small --seed 1 --ops 2").expect("parses");
        let report = run(&a).expect("the run completes");
        assert!(report.correct);
        assert_eq!((report.attempted, report.failed), (2, 0));
        assert!(report.metrics.missing().is_empty());
        for def in END_TO_END {
            assert!(
                report.metrics.get(def.name).is_some_and(|v| v > 0.0),
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn overhead_compares_traced_and_untraced_medians() {
        let op = |wall_s, traced| OpSample {
            wall_s,
            attempted: 1,
            failed: 0,
            traced,
        };
        let samples = [op(1.0, false), op(1.1, true), op(1.0, false), op(1.1, true)];
        let overhead = trace_overhead(&samples).expect("both kinds present");
        assert!((overhead - 0.1).abs() < 1e-9);
        assert_eq!(trace_overhead(&samples[..1]), None);
    }
}

//! Regression gate over bench artefacts.
//!
//! Compares every `BENCH_*.json` in the baseline directory against the
//! same-named artefact in the fresh directory:
//!
//! ```text
//! cargo run --release -p zkdet-bench --bin bench_diff -- <baseline_dir> <fresh_dir>
//! ```
//!
//! Exit status 1 if any `*_ns` measurement regressed by more than 15%
//! (warnings at 5% are printed but pass; a delta under 50 µs never
//! counts, whatever its percentage). Artefact pairs measured over
//! different workloads — differing `meta.bench_seed`, changed sweep
//! shape — are skipped with a warning instead of producing a bogus
//! verdict; a fresh artefact missing entirely is likewise a skip (the
//! bench may not run in every job).

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use zkdet_bench::diff::{render, DiffOutcome};
use zkdet_bench::{diff_reports, Verdict};
use zkdet_telemetry::Value;

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn baseline_artefacts(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut found = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            found.push(path);
        }
    }
    found.sort();
    Ok(found)
}

fn run(baseline_dir: &Path, fresh_dir: &Path) -> Result<bool, String> {
    let baselines = baseline_artefacts(baseline_dir)?;
    if baselines.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines under {}",
            baseline_dir.display()
        ));
    }
    let mut regressed = false;
    let mut compared = 0usize;
    for base_path in baselines {
        let name = base_path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("BENCH_?.json")
            .to_string();
        let fresh_path = fresh_dir.join(&name);
        if !fresh_path.exists() {
            println!("{name}: SKIPPED — no fresh artefact in {}", fresh_dir.display());
            continue;
        }
        let base = load(&base_path)?;
        let fresh = load(&fresh_path)?;
        let outcome = diff_reports(&base, &fresh)?;
        print!("{}", render(&name, &outcome));
        if matches!(outcome, DiffOutcome::Compared(_)) {
            compared += 1;
        }
        if outcome.worst() == Verdict::Fail {
            regressed = true;
        }
    }
    println!();
    if regressed {
        println!("FAIL: at least one measurement regressed by more than {}%", zkdet_bench::FAIL_PCT);
    } else {
        println!("OK: {compared} artefact(s) within the {}% regression budget", zkdet_bench::FAIL_PCT);
    }
    Ok(regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_dir, fresh_dir] = args.as_slice() else {
        eprintln!("usage: bench_diff <baseline_dir> <fresh_dir>");
        return ExitCode::from(2);
    };
    match run(Path::new(baseline_dir), Path::new(fresh_dir)) {
        Ok(true) => ExitCode::FAILURE,
        Ok(false) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::from(2)
        }
    }
}

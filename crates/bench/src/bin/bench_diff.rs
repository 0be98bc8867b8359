//! Pin gate over bench artefacts.
//!
//! Compares every `BENCH_*.json` in the baseline directory against the
//! same-named artefact in the fresh directory:
//!
//! ```text
//! cargo run --release -p zkdet-bench --bin bench_diff -- <baseline_dir> <fresh_dir>
//! ```
//!
//! Every `meta` and row key that is not wall time (`*_ns`, `*micros`) must
//! hold the same value in both, with the same row count; wall time is
//! printed with its percent change and never fails (`zkdet_bench::diff`).
//! Exit status 1 if any pin moved or a baseline has no fresh artefact,
//! 2 on an unreadable or unparsable file.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

use zkdet_bench::diff_reports;
use zkdet_telemetry::Value;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn run(baseline_dir: &Path, fresh_dir: &Path) -> Result<bool, String> {
    let mut names = Vec::new();
    for entry in
        std::fs::read_dir(baseline_dir).map_err(|e| format!("{}: {e}", baseline_dir.display()))?
    {
        let name = entry.map_err(|e| e.to_string())?.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            names.push(name.into_owned());
        }
    }
    if names.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines under {}",
            baseline_dir.display()
        ));
    }
    names.sort();
    let mut failed = 0usize;
    for name in &names {
        let fresh_path = fresh_dir.join(name);
        let fresh = fresh_path.exists().then(|| load(&fresh_path)).transpose()?;
        let diff = diff_reports(&load(&baseline_dir.join(name))?, fresh.as_ref());
        print!("{}", diff.render(name));
        failed += usize::from(!diff.moved.is_empty());
    }
    println!();
    if failed > 0 {
        println!(
            "FAIL: {failed} of {} artefact(s) moved a pin or have no fresh artefact",
            names.len()
        );
    } else {
        println!("OK: every pin held in {} artefact(s)", names.len());
    }
    Ok(failed > 0)
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

//! `circuit_lint` — the CI gate for circuit soundness.
//!
//! Instantiates every circuit in the `zkdet_circuits::registry()` at two
//! seeded witnesses, runs the static analyzer on the first, checks the
//! structural digests of both agree (witness-independent structure), and
//! emits a deterministic `zkdet-lint-v1` JSON report. Exit status:
//!
//! * `0` — no finding at or above the threshold (default: `warning`);
//! * `1` — at least one gating finding;
//! * `2` — usage error.
//!
//! ```text
//! circuit_lint [--severity info|warning|error] [--json-out report.json]
//! ```

// The report and summary are this binary's contract with CI; printing *is*
// the job here, unlike in the library crates the workspace lints police.
#![allow(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

use std::process::ExitCode;

use zkdet_lint::{analyze, digest_hex, structural_digest, Finding, LintClass, Severity};
use zkdet_telemetry::Value;

/// Witness seeds: the analysis runs on `SEED_A`; `SEED_B` exists only to
/// cross-check the structural digest. Any two distinct values work — these
/// are fixed so the report is reproducible byte-for-byte.
const SEED_A: u64 = 0xA11CE;
const SEED_B: u64 = 0xB0B;

struct Options {
    threshold: Severity,
    out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!("usage: circuit_lint [--severity info|warning|error] [--json-out report.json]");
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Options, ()> {
    let mut opts = Options {
        threshold: Severity::Warning,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--severity" => {
                let label = it.next().ok_or(())?;
                opts.threshold = Severity::parse(label).ok_or(())?;
            }
            "--json-out" => {
                opts.out = Some(it.next().ok_or(())?.clone());
            }
            _ => return Err(()),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Ok(opts) = parse_args(&args) else {
        return usage();
    };

    let mut circuits_json: Vec<Value> = Vec::new();
    let mut total = (0usize, 0usize, 0usize); // (errors, warnings, infos)
    let mut gating = 0usize;

    for entry in zkdet_circuits::registry() {
        let builder = entry.builder(SEED_A);
        let mut analysis = analyze(&builder);

        // Witness-independence check: same circuit, two witnesses, one
        // structural digest. A mismatch means gadget code branched on
        // witness values — reported as a finding, not a crash, so it flows
        // through the same severity gate and JSON artefact as everything
        // else.
        let digest = structural_digest(&builder);
        let digest_b = structural_digest(&entry.builder(SEED_B));
        if digest != digest_b {
            analysis.findings.insert(
                0,
                Finding::new(
                    LintClass::WitnessDependentStructure,
                    format!(
                        "structural digests differ across witness seeds \
                         ({} vs {}): selectors, wiring or public-input \
                         layout depend on witness values",
                        digest_hex(digest),
                        digest_hex(digest_b),
                    ),
                ),
            );
        }

        let (errors, warnings, infos) = analysis.counts();
        total.0 += errors;
        total.1 += warnings;
        total.2 += infos;
        let circuit_gating = analysis.at_or_above(opts.threshold).count();
        gating += circuit_gating;

        println!(
            "{:<24} gates={:<5} classes={:<5} free={:<3} digest={}…  \
             {} error(s), {} warning(s), {} info(s)",
            entry.name,
            analysis.dof.gates,
            analysis.dof.copy_classes,
            analysis.dof.free_classes,
            &digest_hex(digest)[..16],
            errors,
            warnings,
            infos,
        );
        for f in analysis.at_or_above(opts.threshold) {
            println!("  [{}] {}: {}", f.severity.label(), f.class.slug(), f.message);
        }

        circuits_json.push(
            Value::object()
                .with("name", entry.name)
                .with("description", entry.description)
                .with("structural_digest", digest_hex(digest))
                .with("dof", analysis.dof.to_value())
                .with(
                    "counts",
                    Value::object()
                        .with("error", errors)
                        .with("warning", warnings)
                        .with("info", infos),
                )
                .with(
                    "findings",
                    analysis
                        .findings
                        .iter()
                        .map(Finding::to_value)
                        .collect::<Vec<Value>>(),
                ),
        );
    }

    let report = Value::object()
        .with("schema", "zkdet-lint-v1")
        .with("severity_threshold", opts.threshold.label())
        .with(
            "seeds",
            Value::object().with("analysis", SEED_A).with("digest_check", SEED_B),
        )
        .with("circuits", circuits_json)
        .with(
            "totals",
            Value::object()
                .with("error", total.0)
                .with("warning", total.1)
                .with("info", total.2)
                .with("gating", gating),
        );

    let encoded = report.encode_pretty();
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, &encoded) {
            eprintln!("circuit_lint: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("report written to {path}");
    } else {
        println!("{encoded}");
    }

    if gating > 0 {
        eprintln!(
            "circuit_lint: {gating} finding(s) at or above '{}'",
            opts.threshold.label()
        );
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

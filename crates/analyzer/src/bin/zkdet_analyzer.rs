//! `zkdet_analyzer` — the CI gate for circuit soundness and workspace
//! determinism.
//!
//! Runs the circuit pass over every registered protocol circuit (with the
//! two-seed structural-digest cross-check), scans every workspace crate's
//! sources with the determinism lint, and emits one deterministic
//! `zkdet-analyzer-v2` JSON report. Exit status:
//!
//! * `0` — no unallowed finding at or above the threshold (default:
//!   `warning`);
//! * `1` — at least one gating finding;
//! * `2` — usage or I/O error.
//!
//! ```text
//! zkdet_analyzer [--root <dir>] [--severity info|warning|error] [--json-out report.json]
//! ```

// The report and summary are this binary's contract with CI; printing *is*
// the job here, unlike in the library crates the workspace lints police.
#![allow(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

use std::process::ExitCode;

use zkdet_analyzer::circuit::digest_hex;
use zkdet_analyzer::report::to_value;
use zkdet_analyzer::{check_registry, scan_workspace, Finding, Severity};

struct Options {
    root: String,
    threshold: Severity,
    json_out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: zkdet_analyzer [--root <dir>] [--severity info|warning|error] [--json-out report.json]"
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Options, ()> {
    let mut opts = Options {
        root: ".".to_string(),
        threshold: Severity::Warning,
        json_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => opts.root = it.next().ok_or(())?.clone(),
            "--severity" => {
                let label = it.next().ok_or(())?;
                opts.threshold = Severity::parse(label).ok_or(())?;
            }
            "--json-out" => opts.json_out = Some(it.next().ok_or(())?.clone()),
            _ => return Err(()),
        }
    }
    Ok(opts)
}

/// Prints the findings that gate at `min`, returning how many did.
fn print_gating(findings: &[Finding], min: Severity) -> usize {
    let gating: Vec<&Finding> = findings.iter().filter(|f| f.gates(min)).collect();
    for f in &gating {
        let at = if f.file.is_empty() {
            String::new()
        } else {
            format!("{}:{} ", f.file, f.line)
        };
        println!(
            "  [{}] {at}{}: {}",
            f.severity().label(),
            f.rule.slug(),
            f.message
        );
    }
    gating.len()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Ok(opts) = parse_args(&args) else {
        return usage();
    };

    let circuits = check_registry();
    let scan = match scan_workspace(std::path::Path::new(&opts.root)) {
        Ok(scan) => scan,
        Err(e) => {
            eprintln!("zkdet_analyzer: scan of {} failed: {e}", opts.root);
            return ExitCode::from(2);
        }
    };

    let mut gating = 0;
    for c in &circuits {
        let dof = &c.analysis.dof;
        println!(
            "{:<24} gates={:<5} rows={:<5} domain={:<5} classes={:<5} free={:<5} digest={}…  {} finding(s)",
            c.name,
            dof.gates,
            c.rows_used,
            c.domain,
            dof.copy_classes,
            dof.free_classes,
            &digest_hex(c.digest)[..16],
            c.analysis.findings.len(),
        );
        gating += print_gating(&c.analysis.findings, opts.threshold);
    }
    let allowed = scan.findings.iter().filter(|f| f.allowed.is_some()).count();
    println!(
        "scanned {} files: {} finding(s), {} allowlisted",
        scan.files_scanned,
        scan.findings.len(),
        allowed,
    );
    gating += print_gating(&scan.findings, opts.threshold);

    let encoded = to_value(&circuits, &scan, opts.threshold, &opts.root).encode_pretty();
    if let Some(path) = &opts.json_out {
        if let Err(e) = std::fs::write(path, &encoded) {
            eprintln!("zkdet_analyzer: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("report written to {path}");
    }

    if gating == 0 {
        println!("0 gating at '{}'", opts.threshold.label());
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "zkdet_analyzer: {gating} finding(s) at or above '{}'",
            opts.threshold.label()
        );
        ExitCode::from(1)
    }
}

//! The deterministic `zkdet-analyzer-v2` JSON report: the circuit pass and
//! the source scan in one artefact, one finding encoding, one totals block.
//!
//! Shares the zkdet-telemetry codec (sorted object keys, stable number
//! formatting) so two runs over the same tree produce identical bytes —
//! the report is itself an artefact the determinism suite can diff.

use zkdet_telemetry::Value;

use crate::circuit::{digest_hex, CircuitReport, DofAccount, SEED_A, SEED_B};
use crate::rules::{Finding, Severity};
use crate::scan::ScanReport;
use crate::ALL_RULES;

/// The report's `schema` tag.
pub const SCHEMA: &str = "zkdet-analyzer-v2";

/// Serializes one finding of either pass, at its effective severity.
pub fn finding_to_value(f: &Finding) -> Value {
    let mut v = Value::object()
        .with("rule", f.rule.slug())
        .with("severity", f.severity().label())
        .with("message", f.message.as_str())
        .with("allowed", f.allowed.is_some());
    if !f.file.is_empty() {
        v.set("file", f.file.as_str());
        v.set("line", u64::from(f.line));
    }
    if let Some(var) = f.variable {
        v.set("variable", var);
    }
    if let Some(gate) = f.gate {
        v.set("gate", gate);
    }
    if let Some(reason) = &f.allowed {
        v.set("reason", reason.as_str());
    }
    v
}

fn dof_to_value(d: &DofAccount) -> Value {
    Value::object()
        .with("variables", d.variables)
        .with("copy_classes", d.copy_classes)
        .with("gates", d.gates)
        .with("linear_gates", d.linear_gates)
        .with("nonlinear_gates", d.nonlinear_gates)
        .with("public_inputs", d.public_inputs)
        .with("pinned_classes", d.pinned_classes)
        .with("propagated_classes", d.propagated_classes)
        .with("statement_classes", d.statement_classes)
        .with("free_classes", d.free_classes)
}

/// Counts per effective severity, allowlisted and gating at `threshold`.
fn totals<'a>(findings: impl Iterator<Item = &'a Finding>, threshold: Severity) -> Value {
    let (mut error, mut warning, mut info, mut allowed, mut gating) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for f in findings {
        match f.severity() {
            Severity::Error => error += 1,
            Severity::Warning => warning += 1,
            Severity::Info => info += 1,
        }
        allowed += u64::from(f.allowed.is_some());
        gating += u64::from(f.gates(threshold));
    }
    Value::object()
        .with("error", error)
        .with("warning", warning)
        .with("info", info)
        .with("allowed", allowed)
        .with("gating", gating)
}

/// Builds the full report: the registry circuits, then the workspace scan
/// of `root`, then totals over the findings of both.
pub fn to_value(
    circuits: &[CircuitReport],
    scan: &ScanReport,
    threshold: Severity,
    root: &str,
) -> Value {
    let circuit_findings = circuits.iter().flat_map(|c| &c.analysis.findings);
    Value::object()
        .with("schema", SCHEMA)
        .with("root", root)
        .with("severity_threshold", threshold.label())
        .with(
            "rules",
            ALL_RULES
                .into_iter()
                .map(|r| {
                    Value::object()
                        .with("slug", r.slug())
                        .with("severity", r.severity().label())
                        .with("description", r.description())
                })
                .collect::<Vec<Value>>(),
        )
        .with(
            "seeds",
            Value::object()
                .with("analysis", SEED_A)
                .with("digest_check", SEED_B),
        )
        .with(
            "circuits",
            circuits
                .iter()
                .map(|c| {
                    Value::object()
                        .with("name", c.name)
                        .with("description", c.description)
                        .with("structural_digest", digest_hex(c.digest))
                        .with("rows_used", c.rows_used)
                        .with("domain", c.domain)
                        .with("dof", dof_to_value(&c.analysis.dof))
                        .with(
                            "findings",
                            c.analysis
                                .findings
                                .iter()
                                .map(finding_to_value)
                                .collect::<Vec<Value>>(),
                        )
                })
                .collect::<Vec<Value>>(),
        )
        .with("files_scanned", scan.files_scanned as u64)
        .with(
            "findings",
            scan.findings
                .iter()
                .map(finding_to_value)
                .collect::<Vec<Value>>(),
        )
        .with(
            "totals",
            totals(circuit_findings.chain(&scan.findings), threshold),
        )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::circuit::{analyze, structural_digest};
    use crate::rules::Rule;
    use crate::scan::{scan_source, FileClass};
    use zkdet_field::{Field, Fr};
    use zkdet_plonk::CircuitBuilder;

    #[test]
    fn both_passes_gate_through_one_predicate_into_one_report() {
        let mut b = CircuitBuilder::new();
        let z = b.zero();
        b.raw_gate(z, z, z, [Fr::ZERO; 5]);
        let circuits = [CircuitReport {
            name: "dead_gate",
            description: "one pinned zero and one all-zero gate",
            digest: structural_digest(&b),
            rows_used: 3,
            domain: 8,
            analysis: analyze(&b),
        }];
        let src = "fn f() { let t = Instant::now(); }";
        let scan = ScanReport {
            findings: scan_source("x.rs", src, FileClass { library: true }),
            files_scanned: 1,
        };
        let gating: Vec<Rule> = circuits[0]
            .analysis
            .findings
            .iter()
            .chain(&scan.findings)
            .filter(|f| f.gates(Severity::Warning))
            .map(|f| f.rule)
            .collect();
        assert_eq!(gating, [Rule::DeadGate, Rule::WallClock]);

        let a = to_value(&circuits, &scan, Severity::Warning, ".").encode_pretty();
        let b = to_value(&circuits, &scan, Severity::Warning, ".").encode_pretty();
        assert_eq!(a, b);
        let report = Value::parse(&a).unwrap();
        assert_eq!(report.get("schema").and_then(Value::as_str), Some(SCHEMA));
        let mut encoded: Vec<&Value> = report
            .get("findings")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .collect();
        for c in report.get("circuits").unwrap().as_array().unwrap() {
            encoded.extend(c.get("findings").unwrap().as_array().unwrap());
        }
        let totals = report.get("totals").unwrap();
        for sev in ["error", "warning", "info"] {
            let n = encoded
                .iter()
                .filter(|f| f.get("severity").and_then(Value::as_str) == Some(sev))
                .count();
            assert_eq!(
                totals.get(sev).and_then(Value::as_u64),
                Some(n as u64),
                "{sev}"
            );
        }
        assert_eq!(totals.get("gating").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn finding_encodes_optional_locations() {
        let f = Finding::new(Rule::DeadGate, "all-zero selectors".into()).at_gate(3);
        let v = finding_to_value(&f);
        assert_eq!(v.get("rule").and_then(Value::as_str), Some("dead-gate"));
        assert_eq!(v.get("severity").and_then(Value::as_str), Some("warning"));
        assert_eq!(v.get("gate").and_then(Value::as_u64), Some(3));
        assert!(v.get("variable").is_none());
        assert!(v.get("file").is_none());
    }

    #[test]
    fn allowed_findings_carry_their_reason() {
        let mut f = Finding::new(Rule::UnorderedIteration, "m.iter()".into()).at_line("m.rs", 3);
        f.allowed = Some("lookup table; export sorts".into());
        let v = finding_to_value(&f);
        assert!(matches!(v.get("allowed"), Some(Value::Bool(true))));
        assert_eq!(
            v.get("reason").and_then(Value::as_str),
            Some("lookup table; export sorts")
        );
    }

    #[test]
    fn allowlisted_wall_clock_encodes_info() {
        let src = "fn f() {\n    // zkdet-analyzer: allow(wall-clock) measurement only\n    let t = Instant::now();\n}";
        let findings = scan_source("x.rs", src, FileClass { library: true });
        assert_eq!(findings.len(), 1);
        let v = finding_to_value(&findings[0]);
        assert_eq!(v.get("rule").and_then(Value::as_str), Some("wall-clock"));
        assert_eq!(v.get("severity").and_then(Value::as_str), Some("info"));
    }
}

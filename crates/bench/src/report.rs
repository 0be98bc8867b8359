//! Machine-readable bench artefacts.
//!
//! Every bench binary emits a `BENCH_<name>.json` file next to its text
//! table (schema `zkdet-bench-v1`), so figures and tables can be diffed
//! and plotted across runs. The file carries the measured rows, free-form
//! metadata, and a full telemetry snapshot (per-phase span timings,
//! counters, histograms) taken at write time.
//!
//! The schema is validated by [`check`], which the `bench_check` binary
//! (and the CI telemetry job) runs over emitted artefacts.

use std::path::PathBuf;

use zkdet_telemetry::Value;

/// Current artefact schema identifier.
pub const SCHEMA: &str = "zkdet-bench-v1";

/// Builder for one `BENCH_<name>.json` artefact.
pub struct BenchReport {
    name: String,
    meta: Value,
    rows: Vec<Value>,
}

impl BenchReport {
    /// A report named after its figure/table (e.g. `"fig6_proving"`).
    pub fn new(name: &str) -> BenchReport {
        BenchReport {
            name: name.to_string(),
            meta: Value::object(),
            rows: Vec::new(),
        }
    }

    /// Attaches a free-form metadata entry (preset, axis units, …).
    pub fn meta(&mut self, key: &str, value: impl Into<Value>) {
        self.meta.set(key, value);
    }

    /// Appends one measured row (must be a JSON object).
    pub fn row(&mut self, row: Value) {
        debug_assert!(row.as_object().is_some(), "bench rows are objects");
        self.rows.push(row);
    }

    /// Assembles the artefact, snapshotting global telemetry now.
    ///
    /// Stamps `meta.bench_seed` (the deterministic workload seed) and
    /// `meta.row_count`, pins that `bench_diff` fails on when two runs
    /// measured different workloads. A bin that sweeps a different
    /// seed may set `bench_seed` explicitly before writing.
    pub fn to_value(&self) -> Value {
        let mut meta = self.meta.clone();
        if meta.get("bench_seed").is_none() {
            meta.set("bench_seed", crate::BENCH_SEED);
        }
        meta.set("row_count", self.rows.len() as u64);
        Value::object()
            .with("schema", SCHEMA)
            .with("name", self.name.as_str())
            .with("meta", meta)
            .with("rows", self.rows.clone())
            .with("telemetry", zkdet_telemetry::snapshot().to_json())
    }

    /// Writes `BENCH_<name>.json` under `$ZKDET_BENCH_DIR` (default: the
    /// current directory) and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating the directory or file.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = std::env::var("ZKDET_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_value().encode_pretty())?;
        Ok(path)
    }
}

/// Writes the attribution-profiler artefacts for the current global
/// telemetry snapshot under `$ZKDET_BENCH_DIR`:
///
/// * `PROFILE_<name>.txt` — the self/total attribution table (all rows);
/// * `PROFILE_<name>.folded` — collapsed stacks in the format
///   `flamegraph.pl` / inferno consume.
///
/// Returns the rendered top-`top_n` table for the caller to print.
///
/// # Errors
///
/// Propagates filesystem errors from creating the directory or files.
pub fn write_profile(name: &str, top_n: usize) -> std::io::Result<String> {
    let snap = zkdet_telemetry::snapshot();
    let rows = zkdet_telemetry::attribute(&snap.spans);
    let table = zkdet_telemetry::render_attribution(&rows, rows.len(), false);
    let folded = zkdet_telemetry::collapsed_stacks(&snap.spans);
    let dir = std::env::var("ZKDET_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("PROFILE_{name}.txt")), table)?;
    std::fs::write(dir.join(format!("PROFILE_{name}.folded")), folded)?;
    Ok(zkdet_telemetry::render_attribution(&rows, top_n, false))
}

/// Enables global telemetry unless `ZKDET_TELEMETRY` is `0`/`off` (the
/// override exists to measure instrumentation overhead). Returns whether
/// telemetry ended up on.
pub fn init_telemetry() -> bool {
    let off = std::env::var("ZKDET_TELEMETRY")
        .map(|v| v == "0" || v.eq_ignore_ascii_case("off"))
        .unwrap_or(false);
    if !off {
        zkdet_telemetry::enable();
    }
    !off
}

fn expect_object<'a>(v: &'a Value, what: &str) -> Result<&'a [(String, Value)], String> {
    v.as_object().ok_or_else(|| format!("{what} must be an object"))
}

fn expect_u64(v: Option<&Value>, what: &str) -> Result<u64, String> {
    v.and_then(Value::as_u64)
        .ok_or_else(|| format!("{what} must be a non-negative integer"))
}

/// Validates a parsed artefact against schema `zkdet-bench-v1`.
///
/// # Errors
///
/// Returns a human-readable description of the first violation found.
pub fn check(artefact: &Value) -> Result<(), String> {
    expect_object(artefact, "artefact")?;
    match artefact.get("schema").and_then(Value::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("unknown schema {s:?} (expected {SCHEMA:?})")),
        None => return Err("missing \"schema\" string".to_string()),
    }
    match artefact.get("name").and_then(Value::as_str) {
        Some(n) if !n.is_empty() => {}
        _ => return Err("missing or empty \"name\"".to_string()),
    }
    let meta = artefact.get("meta").ok_or("missing \"meta\"")?;
    expect_object(meta, "\"meta\"")?;
    expect_u64(meta.get("bench_seed"), "\"meta.bench_seed\"")?;
    let row_count = expect_u64(meta.get("row_count"), "\"meta.row_count\"")?;
    let rows = artefact
        .get("rows")
        .and_then(Value::as_array)
        .ok_or("missing \"rows\" array")?;
    if rows.len() as u64 != row_count {
        return Err(format!(
            "\"meta.row_count\" says {row_count} but \"rows\" has {} entries",
            rows.len()
        ));
    }
    for (i, row) in rows.iter().enumerate() {
        expect_object(row, &format!("rows[{i}]"))?;
    }

    let telemetry = artefact.get("telemetry").ok_or("missing \"telemetry\"")?;
    expect_object(telemetry, "\"telemetry\"")?;
    let spans = telemetry
        .get("spans")
        .and_then(Value::as_array)
        .ok_or("missing \"telemetry.spans\" array")?;
    for (i, span) in spans.iter().enumerate() {
        let what = format!("spans[{i}]");
        expect_object(span, &what)?;
        expect_u64(span.get("id"), &format!("{what}.id"))?;
        match span.get("parent") {
            Some(Value::Null) | Some(Value::UInt(_)) => {}
            _ => return Err(format!("{what}.parent must be null or an id")),
        }
        match span.get("name").and_then(Value::as_str) {
            Some(n) if !n.is_empty() => {}
            _ => return Err(format!("{what}.name must be a non-empty string")),
        }
        expect_u64(span.get("start_ns"), &format!("{what}.start_ns"))?;
        expect_u64(span.get("duration_ns"), &format!("{what}.duration_ns"))?;
        for (k, v) in expect_object(
            span.get("fields").ok_or_else(|| format!("{what}.fields missing"))?,
            &format!("{what}.fields"),
        )? {
            expect_u64(Some(v), &format!("{what}.fields.{k}"))?;
        }
    }
    for (name, v) in expect_object(
        telemetry.get("counters").ok_or("missing \"telemetry.counters\"")?,
        "\"telemetry.counters\"",
    )? {
        expect_u64(Some(v), &format!("counter {name}"))?;
    }
    for (name, h) in expect_object(
        telemetry
            .get("histograms")
            .ok_or("missing \"telemetry.histograms\"")?,
        "\"telemetry.histograms\"",
    )? {
        let what = format!("histogram {name}");
        expect_object(h, &what)?;
        let bounds = h
            .get("bounds")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{what}.bounds missing"))?;
        let counts = h
            .get("counts")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{what}.counts missing"))?;
        if counts.len() != bounds.len() + 1 {
            return Err(format!(
                "{what}: counts must have bounds+1 entries ({} vs {})",
                counts.len(),
                bounds.len()
            ));
        }
        let total = expect_u64(h.get("count"), &format!("{what}.count"))?;
        expect_u64(h.get("sum"), &format!("{what}.sum"))?;
        let bucket_sum: u64 = counts.iter().filter_map(Value::as_u64).sum();
        if bucket_sum != total {
            return Err(format!(
                "{what}: bucket counts sum to {bucket_sum}, \"count\" says {total}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_report_passes_check() {
        let mut report = BenchReport::new("unit_test");
        report.meta("preset", "small");
        report.row(Value::object().with("n", 1u64).with("ms", 2.5f64));
        let artefact = report.to_value();
        assert_eq!(check(&artefact), Ok(()));
        // And survives an encode/parse cycle.
        let text = artefact.encode_pretty();
        let back = Value::parse(&text).expect("reparse");
        assert_eq!(check(&back), Ok(()));
    }

    #[test]
    fn check_rejects_wrong_schema() {
        let mut report = BenchReport::new("unit_test");
        report.meta("preset", "small");
        let mut artefact = report.to_value();
        artefact.set("schema", "zkdet-bench-v0");
        assert!(check(&artefact).is_err());
    }

    #[test]
    fn check_rejects_histogram_count_mismatch() {
        let artefact = BenchReport::new("unit_test").to_value().with(
            "telemetry",
            Value::object()
                .with("spans", Vec::<Value>::new())
                .with("counters", Value::object())
                .with(
                    "histograms",
                    Value::object().with(
                        "h",
                        Value::object()
                            .with("bounds", vec![Value::UInt(1)])
                            .with("counts", vec![Value::UInt(1), Value::UInt(0)])
                            .with("count", 7u64)
                            .with("sum", 0u64),
                    ),
                ),
        );
        assert!(check(&artefact).unwrap_err().contains("bucket counts"));
    }
}

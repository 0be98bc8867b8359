//! Bench-artefact comparison (the `bench_diff` binary).
//!
//! One rule, applied to `meta` and to every row of a committed baseline
//! and a fresh `BENCH_<name>.json`:
//!
//! * a key whose name ends in `_ns` or `micros` is **wall time**: it is
//!   printed with its percent change and never fails;
//! * every other key (`bench_seed` and `preset` included) is a **pin**:
//!   it must appear in both artefacts with the same value, and the row
//!   counts must match. Any difference fails, naming the row, the key and
//!   both values. So does a baseline with no fresh artefact.
//!
//! Ticks, gas, digests, byte and call counts are deterministic functions
//! of the seeded workload, so a moved pin is a changed workload or a
//! changed program. A single wall-time sample is neither: it moves with
//! the box. Wall time is gated by `benchmark/`'s paired runs, so nothing
//! here depends on the machine, and `telemetry` is not compared.

use zkdet_telemetry::Value;

/// Whether `key` holds wall time (nanosecond rows from the proving
/// benches, microsecond rows from the storage/audit benches).
fn is_wall_time(key: &str) -> bool {
    key.ends_with("_ns") || key.ends_with("micros")
}

/// The comparison of one baseline with its fresh artefact.
#[derive(Debug, Default)]
pub struct Diff {
    /// Pins that held.
    pins: usize,
    /// One line per wall-time value: where, both values, percent change.
    timings: Vec<String>,
    /// One line per pin that moved; empty means the pair passes.
    pub moved: Vec<String>,
}

/// Compares a baseline with its fresh artefact (`None`: there is none,
/// which fails).
pub fn diff_reports(base: &Value, fresh: Option<&Value>) -> Diff {
    let mut diff = Diff::default();
    let Some(fresh) = fresh else {
        diff.moved.push("no fresh artefact".to_string());
        return diff;
    };
    diff.compare("meta", base.get("meta"), fresh.get("meta"));
    fn rows(v: &Value) -> &[Value] {
        v.get("rows").and_then(Value::as_array).unwrap_or(&[])
    }
    let (base_rows, fresh_rows) = (rows(base), rows(fresh));
    if base_rows.len() == fresh_rows.len() {
        diff.pins += 1;
    } else {
        diff.moved.push(format!(
            "row count: {} -> {}",
            base_rows.len(),
            fresh_rows.len()
        ));
    }
    for (i, (b, f)) in base_rows.iter().zip(fresh_rows).enumerate() {
        diff.compare(&format!("rows[{i}]"), Some(b), Some(f));
    }
    diff
}

impl Diff {
    /// Applies the rule to every key of two objects found at `at`.
    fn compare(&mut self, at: &str, base: Option<&Value>, fresh: Option<&Value>) {
        fn fields(v: Option<&Value>) -> &[(String, Value)] {
            v.and_then(Value::as_object).unwrap_or(&[])
        }
        let (base, fresh) = (fields(base), fields(fresh));
        for (key, b) in base {
            match fresh.iter().find(|(k, _)| k == key).map(|(_, f)| f) {
                None => self
                    .moved
                    .push(format!("{at}.{key}: {} -> (absent)", b.encode())),
                Some(f) if is_wall_time(key) => {
                    let num = |v: &Value| v.as_u64().unwrap_or(0) as f64;
                    let pct = (num(f) - num(b)) * 100.0 / num(b);
                    let (b, f) = (b.encode(), f.encode());
                    self.timings
                        .push(format!("{at}.{key:<16} {b:>14} -> {f:>14}  {pct:+.1}%"));
                }
                Some(f) if f != b => {
                    self.moved
                        .push(format!("{at}.{key}: {} -> {}", b.encode(), f.encode()))
                }
                Some(_) => self.pins += 1,
            }
        }
        for (key, f) in fresh
            .iter()
            .filter(|(k, _)| base.iter().all(|(b, _)| b != k))
        {
            self.moved
                .push(format!("{at}.{key}: (absent) -> {}", f.encode()));
        }
    }

    /// Renders the comparison as a report block for artefact `name`.
    pub fn render(&self, name: &str) -> String {
        let mut out = format!(
            "{name}: {} pins held, {} moved; {} wall-time values (not gated)\n",
            self.pins,
            self.moved.len(),
            self.timings.len()
        );
        for line in &self.timings {
            out.push_str(&format!("  time  {line}\n"));
        }
        for line in &self.moved {
            out.push_str(&format!("  MOVED {line}\n"));
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    /// A `fig_storage`-shaped artefact: two rows, one timing key each.
    fn artefact() -> Value {
        let rows: Vec<Value> = [(0u64, 1_467u64, 24u64), (1, 1_426, 24)]
            .into_iter()
            .map(|(killed, micros, ok)| {
                Value::object()
                    .with("killed_nodes", killed)
                    .with("read_micros", micros)
                    .with("reads_ok", ok)
            })
            .collect();
        Value::object()
            .with("schema", crate::SCHEMA)
            .with("name", "fig_storage")
            .with(
                "meta",
                Value::object()
                    .with("preset", "small")
                    .with("bench_seed", crate::BENCH_SEED)
                    .with("row_count", 2u64),
            )
            .with("rows", rows)
            .with("telemetry", Value::object().with("counters", 7u64))
    }

    /// `artefact()` with `edit(i, row)` applied to every row.
    fn edit_rows(edit: impl Fn(usize, &mut Value)) -> Value {
        let v = artefact();
        let mut rows = v.get("rows").and_then(Value::as_array).unwrap().to_vec();
        for (i, row) in rows.iter_mut().enumerate() {
            edit(i, row);
        }
        v.with("rows", rows)
    }

    /// `artefact()` with every wall-time value scaled by `factor`.
    fn scale_timings(factor: f64) -> Value {
        edit_rows(|_, row| {
            let t = row.get("read_micros").and_then(Value::as_u64).unwrap();
            row.set("read_micros", (t as f64 * factor) as u64);
        })
    }

    /// `artefact()` with its `meta.preset` set to the default preset.
    fn default_preset() -> Value {
        let base = artefact();
        let meta = base.get("meta").unwrap().clone().with("preset", "default");
        base.with("meta", meta)
    }

    /// `artefact()` with its second row dropped.
    fn one_row() -> Value {
        let base = artefact();
        let first = base.get("rows").unwrap().as_array().unwrap()[0].clone();
        base.with("rows", vec![first])
    }

    /// Compares `fresh` with `artefact()` and checks the verdict and the
    /// lines the report must print.
    fn check(case: &str, fresh: Option<Value>, passes: bool, printed: &[&str]) {
        let diff = diff_reports(&artefact(), fresh.as_ref());
        let report = diff.render("BENCH_fig_storage.json");
        assert_eq!(diff.moved.len(), usize::from(!passes), "{case}: {report}");
        for line in printed {
            assert!(report.contains(line), "{case}: {line:?} not in {report}");
        }
    }

    /// The case table of the rule, one test per case:
    /// `case: fresh artefact, whether the pair passes, lines printed`.
    macro_rules! case_table {
        ($($case:ident: $fresh:expr, $passes:expr, $printed:expr;)*) => {$(
            #[test]
            fn $case() {
                check(stringify!($case), $fresh, $passes, $printed);
            }
        )*};
    }

    case_table! {
        identical: Some(artefact()), true, &["8 pins held, 0 moved"];
        telemetry_is_not_compared:
            Some(artefact().with("telemetry", Value::object())), true, &[];
        an_exact_row_value_changed:
            Some(edit_rows(|i, r| {
                if i == 1 {
                    r.set("reads_ok", 23u64)
                }
            })),
            false,
            &["MOVED rows[1].reads_ok: 24 -> 23"];
        a_meta_key_changed_default_preset_vs_small:
            Some(default_preset()),
            false,
            &["MOVED meta.preset: \"small\" -> \"default\""];
        a_key_added:
            Some(edit_rows(|i, r| {
                if i == 0 {
                    r.set("lost", 0u64)
                }
            })),
            false,
            &["MOVED rows[0].lost: (absent) -> 0"];
        a_key_removed:
            Some(edit_rows(|i, r| {
                if let (0, Value::Object(fields)) = (i, r) {
                    fields.retain(|(k, _)| k != "reads_ok");
                }
            })),
            false,
            &["MOVED rows[0].reads_ok: 24 -> (absent)"];
        the_row_count_changed: Some(one_row()), false, &["MOVED row count: 2 -> 1"];
        every_timing_x3:
            Some(scale_timings(3.0)),
            true,
            &["rows[0].read_micros", "1467 ->           4401  +200.0%"];
        every_timing_x0_3:
            Some(scale_timings(0.3)),
            true,
            &["rows[1].read_micros", "1426 ->            427  -70.1%"];
        no_fresh_artefact: None, false, &["MOVED no fresh artefact"];
    }
}

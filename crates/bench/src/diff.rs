//! Bench-artefact regression diffing (the `bench_diff` binary).
//!
//! Compares a freshly measured `BENCH_<name>.json` against a committed
//! baseline and classifies every timing measurement (`*_ns` and
//! `*micros` row keys):
//!
//! * more than [`FAIL_PCT`] slower → **regression** (`bench_diff` exits
//!   non-zero);
//! * more than [`WARN_PCT`] slower → warning;
//! * faster by more than [`WARN_PCT`] → improvement (informational — a
//!   nudge to refresh the baseline);
//! * otherwise → within noise.
//!
//! A delta smaller than [`FLOOR_MICROS`] in absolute terms is within noise
//! whatever its percentage: a 1 µs row reading 2 µs is +100 % of nothing.
//!
//! Comparisons are refused — skipped with a warning, never failed — when
//! the two artefacts did not measure the same workload: different
//! `meta.bench_seed`, different row counts, or a missing/duplicate
//! measurement key. An apples-to-oranges diff that "passes" (or "fails")
//! is worse than no diff at all.

use zkdet_telemetry::Value;

/// Percent slowdown above which a measurement is a hard regression.
pub const FAIL_PCT: f64 = 15.0;
/// Percent slowdown above which a measurement draws a warning.
pub const WARN_PCT: f64 = 5.0;
/// Absolute delta below which a measurement is within noise (50 000 for
/// `_ns` keys). The smallest real timing row, `fig_storage` repair at
/// ≈ 785 µs, still fails a 15 % slowdown (118 µs).
pub const FLOOR_MICROS: u64 = 50;

/// Classification of one measurement's delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within noise (±[`WARN_PCT`]).
    Ok,
    /// Faster than baseline by more than [`WARN_PCT`].
    Improved,
    /// Slower by more than [`WARN_PCT`] but at most [`FAIL_PCT`].
    Warn,
    /// Slower by more than [`FAIL_PCT`].
    Fail,
}

/// One `*_ns` measurement compared across the two artefacts.
#[derive(Clone, Debug)]
pub struct RowDelta {
    /// Row index in the artefact's `rows` array.
    pub row: usize,
    /// A human label for the row (its non-measurement axis values).
    pub label: String,
    /// Measurement key (e.g. `pi_e_ns`).
    pub key: String,
    /// Baseline value.
    pub base: u64,
    /// Fresh value.
    pub fresh: u64,
    /// Percent change, positive = slower.
    pub delta_pct: f64,
    /// Classification against the thresholds.
    pub verdict: Verdict,
}

/// The result of diffing one artefact pair.
#[derive(Clone, Debug)]
pub enum DiffOutcome {
    /// The artefacts are not comparable; the reason says why.
    Skipped(String),
    /// Every shared `*_ns` measurement, in row order.
    Compared(Vec<RowDelta>),
}

impl DiffOutcome {
    /// The worst verdict across the comparison ([`Verdict::Ok`] for a
    /// skip — skips are surfaced separately, they are not failures).
    pub fn worst(&self) -> Verdict {
        match self {
            DiffOutcome::Skipped(_) => Verdict::Ok,
            DiffOutcome::Compared(deltas) => {
                let mut worst = Verdict::Ok;
                for d in deltas {
                    worst = match (worst, d.verdict) {
                        (_, Verdict::Fail) | (Verdict::Fail, _) => Verdict::Fail,
                        (_, Verdict::Warn) | (Verdict::Warn, _) => Verdict::Warn,
                        (_, Verdict::Improved) | (Verdict::Improved, _) => Verdict::Improved,
                        _ => Verdict::Ok,
                    };
                }
                worst
            }
        }
    }
}

fn meta_u64(artefact: &Value, key: &str) -> Option<u64> {
    artefact.get("meta")?.get(key)?.as_u64()
}

fn classify(key: &str, base: u64, fresh: u64) -> (f64, Verdict) {
    let floor = if key.ends_with("_ns") {
        FLOOR_MICROS * 1_000
    } else {
        FLOOR_MICROS
    };
    // A zero baseline cannot yield a ratio; growth past the floor warns.
    let pct = if base == 0 {
        0.0
    } else {
        (fresh as f64 - base as f64) * 100.0 / base as f64
    };
    let verdict = if base.abs_diff(fresh) < floor {
        Verdict::Ok
    } else if base == 0 {
        Verdict::Warn
    } else if pct > FAIL_PCT {
        Verdict::Fail
    } else if pct > WARN_PCT {
        Verdict::Warn
    } else if pct < -WARN_PCT {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (pct, verdict)
}

/// Timing measurement keys: nanosecond rows from the proving benches and
/// microsecond rows from the storage/audit benches.
fn is_measurement(key: &str) -> bool {
    key.ends_with("_ns") || key.ends_with("micros")
}

/// The row's leading axis values (non-measurement fields), rendered
/// `key=value`; capped at three parts to keep report lines readable.
fn row_label(row: &Value) -> String {
    let Some(fields) = row.as_object() else {
        return String::new();
    };
    let parts: Vec<String> = fields
        .iter()
        .filter(|(k, _)| !is_measurement(k))
        .filter_map(|(k, v)| {
            v.as_u64()
                .map(|n| format!("{k}={n}"))
                .or_else(|| v.as_str().map(|s| format!("{k}={s}")))
        })
        .take(3)
        .collect();
    parts.join(" ")
}

/// Diffs two parsed artefacts of the same bench.
///
/// # Errors
///
/// Returns an error only for malformed artefacts (missing `rows`);
/// incomparable-but-well-formed pairs come back as
/// [`DiffOutcome::Skipped`].
pub fn diff_reports(base: &Value, fresh: &Value) -> Result<DiffOutcome, String> {
    let base_seed = meta_u64(base, "bench_seed");
    let fresh_seed = meta_u64(fresh, "bench_seed");
    match (base_seed, fresh_seed) {
        (Some(b), Some(f)) if b != f => {
            return Ok(DiffOutcome::Skipped(format!(
                "bench_seed differs (baseline {b}, fresh {f}) — different workloads"
            )));
        }
        (None, _) | (_, None) => {
            return Ok(DiffOutcome::Skipped(
                "bench_seed missing from meta — cannot prove same workload".to_string(),
            ));
        }
        _ => {}
    }

    let base_rows = base
        .get("rows")
        .and_then(Value::as_array)
        .ok_or("baseline has no \"rows\" array")?;
    let fresh_rows = fresh
        .get("rows")
        .and_then(Value::as_array)
        .ok_or("fresh artefact has no \"rows\" array")?;
    if base_rows.len() != fresh_rows.len() {
        return Ok(DiffOutcome::Skipped(format!(
            "row counts differ (baseline {}, fresh {}) — sweep shape changed",
            base_rows.len(),
            fresh_rows.len()
        )));
    }

    let mut deltas = Vec::new();
    for (i, (b_row, f_row)) in base_rows.iter().zip(fresh_rows).enumerate() {
        let Some(b_fields) = b_row.as_object() else {
            return Err(format!("baseline rows[{i}] is not an object"));
        };
        for (key, b_val) in b_fields {
            if !is_measurement(key) {
                continue;
            }
            let Some(base_ns) = b_val.as_u64() else {
                return Err(format!("baseline rows[{i}].{key} is not an integer"));
            };
            let Some(fresh_ns) = f_row.get(key).and_then(Value::as_u64) else {
                return Ok(DiffOutcome::Skipped(format!(
                    "fresh rows[{i}] lacks {key} — measurement set changed"
                )));
            };
            let (delta_pct, verdict) = classify(key, base_ns, fresh_ns);
            deltas.push(RowDelta {
                row: i,
                label: row_label(b_row),
                key: key.clone(),
                base: base_ns,
                fresh: fresh_ns,
                delta_pct,
                verdict,
            });
        }
    }
    Ok(DiffOutcome::Compared(deltas))
}

/// Renders one artefact's diff as an aligned report block.
pub fn render(name: &str, outcome: &DiffOutcome) -> String {
    let mut out = String::new();
    match outcome {
        DiffOutcome::Skipped(reason) => {
            out.push_str(&format!("{name}: SKIPPED — {reason}\n"));
        }
        DiffOutcome::Compared(deltas) => {
            out.push_str(&format!("{name}: {} measurements\n", deltas.len()));
            for d in deltas {
                let tag = match d.verdict {
                    Verdict::Ok => "     ok",
                    Verdict::Improved => " faster",
                    Verdict::Warn => "   WARN",
                    Verdict::Fail => "REGRESS",
                };
                out.push_str(&format!(
                    "  [{tag}] row {:>2} {:<24} {:<12} {:>14} -> {:>14}  {:+.1}%\n",
                    d.row, d.label, d.key, d.base, d.fresh, d.delta_pct
                ));
            }
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn artefact(seed: u64, pi_e: &[u64]) -> Value {
        let rows: Vec<Value> = pi_e
            .iter()
            .enumerate()
            .map(|(i, ns)| {
                Value::object()
                    .with("blocks", 32u64 << i)
                    .with("pi_e_ns", *ns)
                    .with("pi_k_ns", 1_000u64)
            })
            .collect();
        Value::object()
            .with("schema", crate::SCHEMA)
            .with("name", "fig6_proving")
            .with(
                "meta",
                Value::object()
                    .with("bench_seed", seed)
                    .with("row_count", pi_e.len() as u64),
            )
            .with("rows", rows)
    }

    #[test]
    fn twenty_percent_regression_fails() {
        let base = artefact(1, &[1_000_000, 2_000_000]);
        let fresh = artefact(1, &[1_200_000, 2_000_000]);
        let outcome = diff_reports(&base, &fresh).unwrap();
        assert_eq!(outcome.worst(), Verdict::Fail);
        let DiffOutcome::Compared(deltas) = &outcome else {
            panic!("expected a comparison");
        };
        let bad = deltas
            .iter()
            .find(|d| d.verdict == Verdict::Fail)
            .expect("the regressed row");
        assert_eq!(bad.key, "pi_e_ns");
        assert_eq!(bad.row, 0);
        assert!((bad.delta_pct - 20.0).abs() < 1e-9);
        assert!(render("fig6_proving", &outcome).contains("REGRESS"));
    }

    #[test]
    fn ten_percent_slowdown_warns_but_passes() {
        let base = artefact(1, &[1_000_000]);
        let fresh = artefact(1, &[1_100_000]);
        let outcome = diff_reports(&base, &fresh).unwrap();
        assert_eq!(outcome.worst(), Verdict::Warn);
    }

    #[test]
    fn identical_runs_are_clean_and_speedups_are_noted() {
        let base = artefact(1, &[1_000_000]);
        assert_eq!(diff_reports(&base, &base).unwrap().worst(), Verdict::Ok);
        let fresh = artefact(1, &[800_000]);
        assert_eq!(
            diff_reports(&base, &fresh).unwrap().worst(),
            Verdict::Improved
        );
    }

    #[test]
    fn different_seeds_skip_instead_of_failing() {
        let base = artefact(1, &[1_000_000]);
        let fresh = artefact(2, &[9_000_000]); // 9× slower — but a different workload
        let outcome = diff_reports(&base, &fresh).unwrap();
        assert!(matches!(&outcome, DiffOutcome::Skipped(r) if r.contains("bench_seed")));
        assert_eq!(outcome.worst(), Verdict::Ok);
    }

    #[test]
    fn missing_seed_or_changed_shape_skips() {
        let mut unstamped = artefact(1, &[1_000_000]);
        unstamped.set("meta", Value::object());
        let stamped = artefact(1, &[1_000_000]);
        assert!(matches!(
            diff_reports(&unstamped, &stamped).unwrap(),
            DiffOutcome::Skipped(_)
        ));
        let longer = artefact(1, &[1_000_000, 2_000_000]);
        assert!(matches!(
            diff_reports(&stamped, &longer).unwrap(),
            DiffOutcome::Skipped(_)
        ));
    }

    #[test]
    fn zero_baseline_never_divides() {
        let base = artefact(1, &[0]);
        let outcome = diff_reports(&base, &artefact(1, &[5])).unwrap();
        assert_eq!(outcome.worst(), Verdict::Ok);
        let outcome = diff_reports(&base, &artefact(1, &[60_000])).unwrap();
        assert_eq!(outcome.worst(), Verdict::Warn);
    }

    #[test]
    fn sub_floor_deltas_do_not_regress() {
        let storage = |repair: &[u64]| {
            let rows: Vec<Value> = repair
                .iter()
                .map(|us| Value::object().with("repair_micros", *us))
                .collect();
            Value::object()
                .with("meta", Value::object().with("bench_seed", 1u64))
                .with("rows", rows)
        };
        // `fig_storage` row 0: 1 → 2 µs is +100 % of one microsecond.
        let base = storage(&[1, 785]);
        assert_eq!(
            diff_reports(&base, &storage(&[2, 785])).unwrap().worst(),
            Verdict::Ok
        );
        // The smallest real row still fails a 15 % (118 µs) slowdown.
        assert_eq!(
            diff_reports(&base, &storage(&[1, 903])).unwrap().worst(),
            Verdict::Fail
        );
        // `_ns` keys floor at 50 000 ns.
        let base = artefact(1, &[40_000]);
        assert_eq!(
            diff_reports(&base, &artefact(1, &[80_000]))
                .unwrap()
                .worst(),
            Verdict::Ok
        );
    }
}

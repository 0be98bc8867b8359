//! Summary statistics and failure accounting for one run.

/// Median of a sample (mean of the two middle values for an even count).
/// `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Whole percentile, e.g. 79 for p79.
    pub percentile: u32,
    /// The latency at that percentile.
    pub value: f64,
    /// Size of the sample it was taken from.
    pub samples: usize,
}

/// Tail percentile by the "at least ten samples beyond" rule: with `n`
/// samples the value with exactly ten larger ones is reported as
/// p⌊100·(n−10)/n⌋ (48 samples → p79, 100 → p90). Below 20 samples that
/// percentile would not even reach the median, so there is no tail.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n < 2 * TAIL_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: (100 * (n - TAIL_BEYOND) / n) as u32,
        value: sorted[n - TAIL_BEYOND - 1],
        samples: n,
    })
}

/// What one timed operation did. A workload's `op` may stand for several
/// user-visible operations (`market_load`: one `run_load` call carries
/// every exchange and swap of that call).
#[derive(Clone, Debug, PartialEq)]
pub struct OpSample {
    /// Wall seconds of the timed part, output checks excluded.
    pub wall_s: f64,
    /// User-visible operations attempted.
    pub attempted: u64,
    /// Of those, how many errored or failed their output check.
    pub failed: u64,
    /// Whether the runner's spans and the global telemetry were on.
    pub traced: bool,
}

/// End-to-end summary over a set of samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed their check.
    pub failed: u64,
    /// Operations that passed ÷ wall seconds of the timed parts.
    pub ops_per_s: Option<f64>,
    /// Median wall milliseconds per operation, over samples with no failure.
    pub op_p50_ms: Option<f64>,
    /// Tail latency in milliseconds, when the sample is large enough.
    pub op_tail_ms: Option<Tail>,
}

/// Folds samples into a [`Summary`]. A failed operation counts in
/// `attempted` and `failed`, adds its wall time to the denominator of
/// `ops_per_s` but nothing to its numerator, and contributes no latency
/// sample: failing can only make the throughput read worse.
pub fn summarise<'a>(samples: impl IntoIterator<Item = &'a OpSample>) -> Summary {
    let (mut attempted, mut failed, mut wall) = (0u64, 0u64, 0.0f64);
    let mut latencies_ms = Vec::new();
    for s in samples {
        attempted += s.attempted;
        failed += s.failed;
        wall += s.wall_s;
        if s.failed == 0 && s.attempted > 0 {
            latencies_ms.push(s.wall_s * 1e3 / s.attempted as f64);
        }
    }
    let passed = attempted - failed;
    Summary {
        attempted,
        failed,
        ops_per_s: (passed > 0 && wall > 0.0).then(|| passed as f64 / wall),
        op_p50_ms: median(&latencies_ms),
        op_tail_ms: tail(&latencies_ms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(wall_s: f64, attempted: u64, failed: u64) -> OpSample {
        OpSample {
            wall_s,
            attempted,
            failed,
            traced: false,
        }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1..=48: ten values (39..=48) lie beyond 38, which is p79.
        let s48: Vec<f64> = (1..=48).rev().map(f64::from).collect();
        let t = tail(&s48).expect("48 samples have a tail");
        assert_eq!((t.percentile, t.value, t.samples), (79, 38.0, 48));
        assert_eq!(s48.iter().filter(|v| **v > t.value).count(), TAIL_BEYOND);

        let s100: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&s100).expect("100 samples have a tail");
        assert_eq!((t.percentile, t.value), (90, 90.0));

        // 20 samples is the smallest sample with a tail (p50); 19 has none.
        let s20: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            tail(&s20).map(|t| (t.percentile, t.value)),
            Some((50, 10.0))
        );
        assert_eq!(tail(&s20[..19]), None);
    }

    #[test]
    fn a_failed_op_is_counted_and_missing_from_throughput() {
        let clean = summarise(&[op(1.0, 1, 0), op(1.0, 1, 0), op(1.0, 1, 0), op(1.0, 1, 0)]);
        assert_eq!((clean.attempted, clean.failed), (4, 0));
        assert_eq!(clean.ops_per_s, Some(1.0));

        let one_bad = summarise(&[op(1.0, 1, 0), op(1.0, 1, 1), op(1.0, 1, 0), op(3.0, 1, 0)]);
        assert_eq!((one_bad.attempted, one_bad.failed), (4, 1));
        // Three passed over six seconds of wall, the failed second included.
        assert_eq!(one_bad.ops_per_s, Some(0.5));
        // The failed op gives no latency sample: median of {1000, 1000, 3000}.
        assert_eq!(one_bad.op_p50_ms, Some(1000.0));
    }

    #[test]
    fn a_batched_op_reports_amortised_latency_and_partial_failures() {
        // One run_load-like call: 6 operations in 3 s, one ended aborted.
        let s = summarise(&[op(3.0, 6, 0), op(3.0, 6, 1)]);
        assert_eq!((s.attempted, s.failed), (12, 1));
        assert_eq!(s.ops_per_s, Some(11.0 / 6.0));
        assert_eq!(s.op_p50_ms, Some(500.0));
    }

    #[test]
    fn nothing_passed_means_no_throughput() {
        let s = summarise(&[op(1.0, 1, 1)]);
        assert_eq!(s.ops_per_s, None);
        assert_eq!(s.op_p50_ms, None);
        assert_eq!(s.op_tail_ms, None);
    }
}

//! Named counters and fixed-bucket histograms.
//!
//! The [`Registry`] maps metric names to atomically-updated values. Names
//! follow the `zkdet.<crate>.<unit>` convention (DESIGN.md §10). Handles
//! are `Arc`-shared, so a hot path can resolve a name once and then pay
//! only an atomic add per event; the convenience by-name methods take a
//! read lock plus a hash lookup, which is still far off any inner loop.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default histogram buckets: powers of two from 1 to 2^32. Wide enough
/// for ns timings, byte sizes, gas, and constraint counts alike.
fn default_bounds() -> Vec<u64> {
    (0..=32).map(|i| 1u64 << i).collect()
}

/// A fixed-bucket histogram with inclusive upper bounds.
///
/// `counts` has one slot per bound plus a final overflow slot for values
/// above the last bound.
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bounds (must be sorted
    /// ascending; duplicates are tolerated but pointless).
    pub fn new(bounds: Vec<u64>) -> Self {
        let slots = bounds.len() + 1;
        Histogram {
            bounds,
            counts: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|b| *b < value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; last entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`) as a bucket upper
    /// bound: the inclusive bound of the bucket holding the
    /// `ceil(q·count)`-th smallest observation. `None` when the histogram
    /// is empty — an empty latency distribution has no p50, and reporting
    /// a zero sample would fabricate a measurement;
    /// `Some(`[`u64::MAX`]`)` when the quantile falls in the overflow
    /// bucket.
    ///
    /// The resolution is the bucket width (a factor of 2 for the default
    /// power-of-two bounds) — good enough for p50/p99 latency reporting,
    /// which is what it exists for.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil without going through floats for the boundary cases.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bounds.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }
}

/// Shared access to one of the registry's maps. The maps only gain entries,
/// each in a single insert, so a panic while a guard was held cannot leave
/// one half-updated: a poisoned lock is recovered, not propagated.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive access to one of the registry's maps; see [`read`].
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// A registry of named counters and histograms.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Resolves (creating on first use) the counter handle for `name`.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = read(&self.counters).get(name) {
            return Arc::clone(c);
        }
        let mut map = write(&self.counters);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Adds `delta` to the named counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.counter(name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value of the named counter (0 if it was never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        read(&self.counters)
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Resolves (creating with default power-of-two buckets) the histogram
    /// handle for `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with_bounds(name, default_bounds)
    }

    /// Resolves the histogram for `name`, creating it with `bounds()` if
    /// absent. Bounds of an existing histogram are never changed.
    pub fn histogram_with_bounds(
        &self,
        name: &str,
        bounds: impl FnOnce() -> Vec<u64>,
    ) -> Arc<Histogram> {
        if let Some(h) = read(&self.histograms).get(name) {
            return Arc::clone(h);
        }
        let mut map = write(&self.histograms);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds()))),
        )
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        self.histogram(name).observe(value);
    }

    /// Name-sorted snapshot of all counters.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = read(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        out.sort();
        out
    }

    /// Name-sorted snapshot of all histograms.
    pub fn histograms_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        let mut out: Vec<(String, HistogramSnapshot)> = read(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Zeroes every counter and histogram in place, keeping registrations
    /// (and any `Arc` handles hot paths already resolved).
    pub fn reset(&self) {
        // zkdet-analyzer: allow(unordered-iteration) every entry is zeroed; the order cannot show
        for c in read(&self.counters).values() {
            c.store(0, Ordering::Relaxed);
        }
        // zkdet-analyzer: allow(unordered-iteration) every entry is zeroed; the order cannot show
        for h in read(&self.histograms).values() {
            for slot in &h.counts {
                slot.store(0, Ordering::Relaxed);
            }
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.counter_add("zkdet.test.calls", 1);
        r.counter_add("zkdet.test.calls", 2);
        assert_eq!(r.counter_value("zkdet.test.calls"), 3);
        assert_eq!(r.counter_value("zkdet.test.other"), 0);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        let h = Histogram::new(vec![10, 100]);
        h.observe(10); // first bucket: value <= 10
        h.observe(11); // second bucket
        h.observe(100); // second bucket (inclusive)
        h.observe(101); // overflow
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![1, 2, 1]);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 222);
        assert_eq!(snap.mean(), 55);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let h = Histogram::new(vec![1, 2, 4, 8]);
        for v in [1, 1, 2, 3, 5] {
            h.observe(v);
        }
        let snap = h.snapshot();
        // ranks: q=0.5 over 5 obs -> 3rd smallest (2) -> bound 2.
        assert_eq!(snap.quantile(0.5), Some(2));
        // 5th smallest (5) lands in the (4,8] bucket.
        assert_eq!(snap.quantile(0.99), Some(8));
        assert_eq!(snap.quantile(1.0), Some(8));
        // q=0 clamps to the first observation's bucket.
        assert_eq!(snap.quantile(0.0), Some(1));
    }

    #[test]
    fn quantile_edge_cases() {
        // No observations ⇒ no quantile, not a fabricated zero sample.
        let empty = Histogram::new(vec![1]).snapshot();
        assert_eq!(empty.quantile(0.5), None);
        let h = Histogram::new(vec![1]);
        h.observe(100); // overflow bucket
        assert_eq!(h.snapshot().quantile(0.5), Some(u64::MAX));
    }

    #[test]
    fn zero_lands_in_first_bucket() {
        let h = Histogram::new(default_bounds());
        h.observe(0);
        h.observe(1);
        assert_eq!(h.snapshot().counts[0], 2);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new();
        r.counter_add("b", 1);
        r.counter_add("a", 1);
        let snap = r.counters_snapshot();
        let names: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations() {
        let r = Registry::new();
        r.counter_add("c", 5);
        r.observe("h", 9);
        r.reset();
        assert_eq!(r.counter_value("c"), 0);
        let hists = r.histograms_snapshot();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].1.count, 0);
    }

    #[test]
    fn poisoned_maps_are_recovered() {
        let r = Registry::new();
        r.counter_add("c", 2);
        r.observe("h", 9);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _counters = write(&r.counters);
            let _histograms = write(&r.histograms);
            panic!("poison both maps");
        }));
        assert!(poisoned.is_err());
        assert!(r.counters.is_poisoned() && r.histograms.is_poisoned());
        r.counter_add("c", 3);
        r.observe("h", 9);
        assert_eq!(r.counter_value("c"), 5);
        assert_eq!(r.histograms_snapshot()[0].1.count, 2);
    }
}

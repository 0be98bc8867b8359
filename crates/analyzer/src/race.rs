//! Schedule-log race detector: a vector-clock happens-before checker over
//! the declared World-state accesses of a `zkdet-exec` run.
//!
//! ## Model (DESIGN.md §12.5)
//!
//! Tasks declare semantic protocol resources they touch —
//! `(shard, key, read|write)` via [`zkdet_exec::TaskCx::declare_read`] /
//! [`zkdet_exec::TaskCx::declare_write`] — and the executor appends each
//! declaration to the access log in step order. The happens-before
//! relation the scheduler actually guarantees is:
//!
//! 1. **Program order**: accesses by the same task are ordered by step.
//! 2. **Tick frontier**: the executor's clock is monotone and every task
//!    stepping at tick `t` observes all effects from ticks `< t`, so every
//!    access at an earlier tick happens-before every access at a later one.
//!
//! What is *not* ordered is two different tasks stepping at the **same**
//! tick: their relative order is decided by the seed-derived tiebreak, so
//! any conflicting pair there (same resource, at least one write) is a
//! race — replay under this seed is still byte-identical, but the outcome
//! silently depends on the tiebreak and would change under another seed.
//! The checker reports exactly those pairs, naming both access sites.
//!
//! The tick frontier keeps the vector clocks tiny: clocks reset at every
//! tick boundary, so the checker holds per-task clocks for one tick bucket
//! at a time instead of the whole run.

use std::collections::BTreeMap;

use zkdet_exec::AccessRecord;

/// One side of a conflicting pair.
#[derive(Clone, Debug)]
pub struct AccessSite {
    /// The task that declared the access.
    pub task: u64,
    /// The task's display label.
    pub label: String,
    /// Tick of the access.
    pub tick: u64,
    /// Global step counter at the access.
    pub step: u64,
    /// Whether this side wrote.
    pub write: bool,
}

impl From<&AccessRecord> for AccessSite {
    fn from(r: &AccessRecord) -> Self {
        AccessSite {
            task: r.task,
            label: r.label.clone(),
            tick: r.tick,
            step: r.step,
            write: r.write,
        }
    }
}

/// A conflicting, unordered access pair on one resource.
#[derive(Clone, Debug)]
pub struct Conflict {
    /// Shard of the contested resource.
    pub shard: u32,
    /// Resource key.
    pub key: String,
    /// The earlier access (log order).
    pub first: AccessSite,
    /// The later access (log order).
    pub second: AccessSite,
}

impl core::fmt::Display for Conflict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "race on {}/{} at tick {}: task {} `{}` ({}) vs task {} `{}` ({}) — ordered only by the seed tiebreak",
            self.shard,
            self.key,
            self.first.tick,
            self.first.task,
            self.first.label,
            if self.first.write { "write" } else { "read" },
            self.second.task,
            self.second.label,
            if self.second.write { "write" } else { "read" },
        )
    }
}

/// Outcome of a race check.
#[derive(Clone, Debug, Default)]
pub struct RaceReport {
    /// Unordered conflicting pairs (empty on a clean run). Capped at
    /// [`MAX_CONFLICTS`]; `truncated` says whether the cap was hit.
    pub conflicts: Vec<Conflict>,
    /// Total accesses checked.
    pub accesses: usize,
    /// Distinct `(shard, key)` resources seen.
    pub resources: usize,
    /// Distinct ticks with at least one declared access.
    pub ticks: usize,
    /// Whether the conflict list was truncated at the cap.
    pub truncated: bool,
}

impl RaceReport {
    /// True when no conflicts were found.
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty()
    }
}

/// Conflict-list cap: enough to diagnose, bounded against a pathological
/// workload where everything races.
pub const MAX_CONFLICTS: usize = 64;

/// Per-task vector clock. With only program-order edges inside a tick
/// bucket each task's clock is its own step counter, but the check is
/// written against the general `vc ≤ vc` test so future edge kinds
/// (e.g. explicit task-to-task signals) slot in without rewriting it.
type VectorClock = BTreeMap<u64, u64>;

fn happens_before(a: &VectorClock, b: &VectorClock) -> bool {
    a.iter().all(|(task, step)| b.get(task).is_some_and(|s| s >= step))
}

/// Runs the happens-before check over an access log (in log order, as
/// returned by [`zkdet_exec::Executor::access_log`]).
pub fn check_accesses(records: &[AccessRecord]) -> RaceReport {
    let mut report = RaceReport {
        accesses: records.len(),
        ..RaceReport::default()
    };
    let mut all_resources: std::collections::BTreeSet<(u32, &str)> =
        std::collections::BTreeSet::new();
    for r in records {
        all_resources.insert((r.shard, r.key.as_str()));
    }
    report.resources = all_resources.len();

    // Process one tick bucket at a time; the frontier orders buckets.
    let mut i = 0;
    while i < records.len() {
        let tick = records[i].tick;
        let mut j = i;
        while j < records.len() && records[j].tick == tick {
            j += 1;
        }
        report.ticks += 1;
        check_bucket(&records[i..j], &mut report);
        i = j;
    }
    report
}

/// Checks one same-tick bucket: builds each access's vector clock from the
/// intra-tick edges (program order today) and reports conflicting pairs
/// whose clocks do not order them.
fn check_bucket(bucket: &[AccessRecord], report: &mut RaceReport) {
    // Clock state per task as the bucket replays in log order.
    let mut task_clock: BTreeMap<u64, VectorClock> = BTreeMap::new();
    // Per resource: every prior access in this bucket with its clock.
    let mut prior: BTreeMap<(u32, &str), Vec<(usize, VectorClock)>> = BTreeMap::new();

    for (idx, r) in bucket.iter().enumerate() {
        let clock = task_clock.entry(r.task).or_default();
        *clock.entry(r.task).or_insert(0) = r.step;
        let clock = clock.clone();
        let slot = prior.entry((r.shard, r.key.as_str())).or_default();
        for (prev_idx, prev_clock) in slot.iter() {
            let prev = &bucket[*prev_idx];
            if prev.task == r.task {
                continue;
            }
            if !(prev.write || r.write) {
                continue;
            }
            if happens_before(prev_clock, &clock) {
                continue;
            }
            if report.conflicts.len() >= MAX_CONFLICTS {
                report.truncated = true;
                return;
            }
            report.conflicts.push(Conflict {
                shard: r.shard,
                key: r.key.clone(),
                first: AccessSite::from(prev),
                second: AccessSite::from(r),
            });
        }
        slot.push((idx, clock));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn rec(tick: u64, step: u64, task: u64, key: &str, write: bool) -> AccessRecord {
        AccessRecord {
            tick,
            step,
            task,
            label: format!("task-{task}"),
            shard: 0,
            key: key.to_string(),
            write,
        }
    }

    #[test]
    fn same_tick_write_write_conflicts() {
        let report = check_accesses(&[
            rec(0, 1, 1, "escrow/42", true),
            rec(0, 2, 2, "escrow/42", true),
        ]);
        assert_eq!(report.conflicts.len(), 1);
        let c = &report.conflicts[0];
        assert_eq!((c.first.task, c.second.task), (1, 2));
        assert!(c.to_string().contains("task-1") && c.to_string().contains("task-2"));
    }

    #[test]
    fn read_read_is_not_a_conflict() {
        let report = check_accesses(&[
            rec(0, 1, 1, "price/7", false),
            rec(0, 2, 2, "price/7", false),
        ]);
        assert!(report.is_clean());
    }

    #[test]
    fn tick_frontier_orders_across_ticks() {
        let report = check_accesses(&[
            rec(0, 1, 1, "escrow/42", true),
            rec(5, 9, 2, "escrow/42", true),
        ]);
        assert!(report.is_clean(), "{:?}", report.conflicts);
    }

    #[test]
    fn program_order_within_a_task_is_ordered() {
        let report = check_accesses(&[
            rec(3, 4, 1, "swap/0/9", true),
            rec(3, 4, 1, "swap/0/9", true),
        ]);
        assert!(report.is_clean());
    }

    #[test]
    fn write_read_same_tick_conflicts_but_disjoint_keys_do_not() {
        let report = check_accesses(&[
            rec(2, 1, 1, "a", true),
            rec(2, 2, 2, "a", false),
            rec(2, 3, 3, "b", true),
        ]);
        assert_eq!(report.conflicts.len(), 1);
        assert_eq!(report.resources, 2);
    }

    #[test]
    fn conflict_cap_truncates() {
        let mut records = Vec::new();
        for task in 0..200u64 {
            records.push(rec(0, task, task, "hot", true));
        }
        let report = check_accesses(&records);
        assert!(report.truncated);
        assert_eq!(report.conflicts.len(), MAX_CONFLICTS);
    }
}

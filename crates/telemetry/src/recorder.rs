//! Hierarchical span recording.
//!
//! A [`Recorder`] collects finished [`SpanRecord`]s into a mutex-guarded
//! buffer. Open spans live on a thread-local stack, so nesting is tracked
//! per thread with zero cross-thread contention: a span opened on a worker
//! thread (e.g. inside a `std::thread::scope`) becomes a root span on that
//! thread rather than racing for its parent's children.
//!
//! Two clock modes exist:
//! - **wall** (default): nanoseconds since the recorder's creation, from
//!   `std::time::Instant` (monotonic).
//! - **manual**: an explicit `u64` tick counter matching the storage
//!   layer's deterministic simulation clock. With the manual clock, a
//!   given op sequence always yields byte-identical exports — the property
//!   the determinism proptest pins down.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Clock selector values for [`Recorder`].
const CLOCK_WALL: u8 = 0;
const CLOCK_MANUAL: u8 = 1;

/// A completed span, as stored by the recorder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id, assigned in open order (1-based).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Static span name, e.g. `"plonk.prove.round3.quotient"`.
    pub name: &'static str,
    /// Start time: nanoseconds since recorder creation (wall mode) or
    /// ticks (manual mode).
    pub start: u64,
    /// Duration in the same unit as `start`.
    pub duration: u64,
    /// Attached key/value fields (constraint counts, bytes, gas, retries…).
    pub fields: Vec<(&'static str, u64)>,
}

/// Thread-safe collector of spans.
pub struct Recorder {
    finished: Mutex<Vec<SpanRecord>>,
    next_id: AtomicU64,
    epoch: Instant,
    clock_mode: AtomicU8,
    manual_now: AtomicU64,
}

thread_local! {
    // Stack of (recorder identity, span id) for open spans on this thread.
    // The identity is the recorder's address, so independent recorders
    // (tests run many in parallel) never see each other's frames.
    static ACTIVE: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder using the monotonic wall clock.
    pub fn new() -> Self {
        Recorder {
            finished: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            // zkdet-analyzer: allow(wall-clock) span wall timestamps are observability-only; replay state never reads them
            epoch: Instant::now(),
            clock_mode: AtomicU8::new(CLOCK_WALL),
            manual_now: AtomicU64::new(0),
        }
    }

    /// A recorder driven by an explicit tick counter (deterministic mode,
    /// matching the storage layer's simulated clock).
    pub fn with_manual_clock() -> Self {
        let r = Recorder::new();
        r.clock_mode.store(CLOCK_MANUAL, Ordering::Relaxed);
        r
    }

    /// True when the recorder runs on the manual tick clock.
    pub fn is_manual(&self) -> bool {
        self.clock_mode.load(Ordering::Relaxed) == CLOCK_MANUAL
    }

    /// Advances the manual clock by `ticks`. No-op in wall mode.
    pub fn advance_ticks(&self, ticks: u64) {
        self.manual_now.fetch_add(ticks, Ordering::Relaxed);
    }

    /// Sets the manual clock to an absolute tick value. No-op in wall mode.
    pub fn set_ticks(&self, ticks: u64) {
        self.manual_now.store(ticks, Ordering::Relaxed);
    }

    /// Current time in the recorder's unit (ns since creation, or ticks).
    pub fn now(&self) -> u64 {
        if self.is_manual() {
            self.manual_now.load(Ordering::Relaxed)
        } else {
            // u64 nanoseconds cover ~584 years of process uptime.
            self.epoch.elapsed().as_nanos() as u64
        }
    }

    fn identity(&self) -> usize {
        std::ptr::from_ref(self) as usize
    }

    /// Opens a span; it is recorded when the returned guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let me = self.identity();
        let parent = ACTIVE.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack
                .iter()
                .rev()
                .find(|(owner, _)| *owner == me)
                .map(|(_, id)| *id);
            stack.push((me, id));
            parent
        });
        // Stamp the ambient trace (if one is active on this thread) so a
        // trace's spans can be picked back out of a mixed snapshot.
        let fields = match crate::trace::current_trace() {
            Some(t) => vec![(crate::trace::TRACE_FIELD, t.as_u64())],
            None => Vec::new(),
        };
        SpanGuard {
            active: Some(ActiveSpan {
                recorder: self,
                record: SpanRecord {
                    id,
                    parent,
                    name,
                    start: self.now(),
                    duration: 0,
                    fields,
                },
            }),
        }
    }

    /// The finished-span buffer. A panic while it was held leaves it
    /// consistent (every critical section is one `Vec` call), so a
    /// poisoned lock is recovered rather than propagated.
    fn spans(&self) -> MutexGuard<'_, Vec<SpanRecord>> {
        self.finished.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn finish(&self, mut record: SpanRecord) {
        let end = self.now();
        record.duration = end.saturating_sub(record.start);
        let me = self.identity();
        ACTIVE.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|(owner, id)| *owner == me && *id == record.id)
            {
                stack.remove(pos);
            }
        });
        self.spans().push(record);
    }

    /// Snapshot of all finished spans, sorted by id (open order) so the
    /// export is stable regardless of which thread finished first.
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        let mut spans = self.spans().clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Drops all finished spans and restarts id assignment.
    pub fn reset(&self) {
        self.spans().clear();
        self.next_id.store(1, Ordering::Relaxed);
        self.manual_now.store(0, Ordering::Relaxed);
    }
}

struct ActiveSpan<'a> {
    recorder: &'a Recorder,
    record: SpanRecord,
}

/// RAII guard for an open span; records on drop. The no-op variant
/// (telemetry disabled) holds `None` and costs nothing beyond the
/// `Option` check in `Drop`.
pub struct SpanGuard<'a> {
    active: Option<ActiveSpan<'a>>,
}

impl SpanGuard<'_> {
    /// A guard that records nothing (used when telemetry is off).
    pub fn disabled() -> SpanGuard<'static> {
        SpanGuard { active: None }
    }

    /// Attaches a numeric field to the span (last write wins per key).
    pub fn record(&mut self, key: &'static str, value: u64) {
        if let Some(active) = &mut self.active {
            if let Some(slot) = active
                .record
                .fields
                .iter_mut()
                .find(|(k, _)| *k == key)
            {
                slot.1 = value;
            } else {
                active.record.fields.push((key, value));
            }
        }
    }

    /// True when this guard actually records (telemetry enabled).
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            active.recorder.finish(active.record);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_tracked_per_thread() {
        let r = Recorder::new();
        {
            let _outer = r.span("outer");
            {
                let _inner = r.span("inner");
            }
        }
        let spans = r.finished_spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
    }

    #[test]
    fn fields_last_write_wins() {
        let r = Recorder::new();
        {
            let mut s = r.span("s");
            s.record("bytes", 1);
            s.record("bytes", 2);
            s.record("gas", 7);
        }
        let spans = r.finished_spans();
        assert_eq!(spans[0].fields, vec![("bytes", 2), ("gas", 7)]);
    }

    #[test]
    fn manual_clock_is_deterministic() {
        let r = Recorder::with_manual_clock();
        {
            let _s = r.span("a");
            r.advance_ticks(5);
        }
        r.advance_ticks(3);
        {
            let _s = r.span("b");
            r.advance_ticks(2);
        }
        let spans = r.finished_spans();
        assert_eq!((spans[0].start, spans[0].duration), (0, 5));
        assert_eq!((spans[1].start, spans[1].duration), (8, 2));
    }

    #[test]
    fn independent_recorders_do_not_nest_into_each_other() {
        let r1 = Recorder::new();
        let r2 = Recorder::new();
        let _a = r1.span("a");
        let b = r2.span("b");
        drop(b);
        drop(_a);
        assert_eq!(r2.finished_spans()[0].parent, None);
    }

    #[test]
    fn disabled_guard_records_nothing() {
        let mut g = SpanGuard::disabled();
        g.record("x", 1);
        assert!(!g.is_recording());
    }

    #[test]
    fn poisoned_span_buffer_is_recovered() {
        let r = Recorder::with_manual_clock();
        drop(r.span("before"));
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = r.spans();
            panic!("poison the span buffer");
        }));
        assert!(poisoned.is_err());
        assert!(r.finished.is_poisoned());
        drop(r.span("after"));
        let names: Vec<_> = r.finished_spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["before", "after"]);
    }
}

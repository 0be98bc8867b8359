//! The runner's own spans: one around every call it makes into a layer's
//! public API, kept in memory and written out when the run ends. Spans
//! *inside* the program are a later change; these are taken from outside.

use std::time::Instant;

use zkdet_telemetry::Value;

use crate::clock;

/// Name of the span that brackets one timed operation.
pub const OP_SPAN: &str = "op";

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<function>`, or [`OP_SPAN`].
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The timed operation this span belongs to; `None` during set-up,
    /// end-of-run checks and the ladder.
    pub op: Option<u64>,
}

impl Span {
    /// End − start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded span recorder. The runner drives every workload from one
/// thread, so parentage is the stack of open spans.
pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_recording`].
    pub fn new() -> Self {
        Tracer {
            recording: false,
            origin: clock::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    /// Turns recording on or off. While off, [`Tracer::call`] runs the
    /// closure and nothing else.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Whether spans are being recorded.
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Tags the spans that follow with a timed operation's index.
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.recording {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.recording {
            return;
        }
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` as one timed operation and returns its wall seconds with its
    /// result. While recording, `f` runs inside an [`OP_SPAN`] and the global
    /// `zkdet_telemetry` registry collects for exactly that long, so its
    /// counts exclude set-up, output checks and the ladder.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> (f64, T) {
        if self.recording {
            zkdet_telemetry::enable();
        }
        let t0 = clock::now();
        self.enter(OP_SPAN);
        let out = f(self);
        self.exit();
        let wall_s = clock::seconds_since(t0);
        zkdet_telemetry::disable();
        (wall_s, out)
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Runs `f` with recording paused: for set-up warm-ups that go through
    /// the same code as a timed operation but must not count as one.
    pub fn paused<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let was = std::mem::replace(&mut self.recording, false);
        let out = f(self);
        self.recording = was;
        out
    }

    /// Every span recorded so far, in open order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of closed spans called `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Mean duration of the spans called `name`, in milliseconds.
    pub fn mean_ms(&self, name: &str) -> Option<f64> {
        let calls = self.calls(name);
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        (calls > 0).then(|| total as f64 / calls as f64 / 1e6)
    }

    /// Share of the timed operations' wall time that their step spans
    /// cover: `1 − Σ self(op) ÷ Σ duration(op)`.
    pub fn step_cover_share(&self) -> Option<f64> {
        let (mut total, mut own) = (0u64, 0u64);
        for (idx, span) in self.spans.iter().enumerate() {
            if span.name == OP_SPAN {
                total += span.duration_ns();
                own += self_time_ns(&self.spans, idx);
            }
        }
        (total > 0).then(|| 1.0 - own as f64 / total as f64)
    }

    /// The trace as JSON: one object per span, with its self time.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(idx, s)| {
                    Value::object()
                        .with("id", idx)
                        .with("name", s.name)
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with("self_ns", self_time_ns(&self.spans, idx))
                        .with("parent", s.parent.map_or(Value::Null, Value::from))
                        .with("op", s.op.map_or(Value::Null, Value::from))
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover. Children are clipped to the parent and overlapping
/// children are counted once.
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let parent = &spans[idx];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let (mut covered, mut frontier) = (0u64, parent.start_ns);
    for (start, end) in children {
        let start = start.max(frontier);
        if end > start {
            covered += end - start;
            frontier = end;
        }
    }
    parent.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_intervals() {
        let spans = vec![
            span(OP_SPAN, 100, 1_100, None),
            span("a", 150, 350, Some(0)),          // 200
            span("b", 300, 500, Some(0)),          // overlaps a: adds 150
            span("c", 900, 1_300, Some(0)),        // clipped to the parent: 200
            span("grandchild", 160, 340, Some(1)), // not a direct child
            span("elsewhere", 0, 5_000, None),
        ];
        assert_eq!(self_time_ns(&spans, 0), 1_000 - (200 + 150 + 200));
        assert_eq!(self_time_ns(&spans, 1), 200 - 180);
        assert_eq!(self_time_ns(&spans, 4), 180);
    }

    #[test]
    fn a_childless_span_is_all_self_time() {
        let spans = vec![span("leaf", 10, 40, None)];
        assert_eq!(self_time_ns(&spans, 0), 30);
    }

    #[test]
    fn recording_tracks_parents_ops_and_cover() {
        let mut tr = Tracer::new();
        tr.call("ignored", || ());
        assert!(tr.spans().is_empty(), "nothing is recorded while off");

        tr.set_recording(true);
        tr.call("setup.step", || ());
        tr.set_op(Some(7));
        let (wall_s, out) = tr.op(|tr| {
            tr.call("layer.g", || ());
            tr.call("layer.f", || 41 + 1)
        });
        assert!(wall_s > 0.0);
        tr.set_op(None);

        assert_eq!(out, 42);
        let names: Vec<_> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["setup.step", OP_SPAN, "layer.g", "layer.f"]);
        assert_eq!(tr.spans()[0].op, None);
        assert_eq!(tr.spans()[2].parent, Some(1));
        assert_eq!(tr.spans()[3].parent, Some(1));
        assert_eq!(tr.spans()[3].op, Some(7));
        assert_eq!(tr.calls("layer.f"), 1);
        assert!(tr.mean_ms("layer.f").is_some());
        assert_eq!(tr.mean_ms("never.called"), None);
        let cover = tr.step_cover_share().expect("one op span");
        assert!((0.0..=1.0).contains(&cover));
    }
}

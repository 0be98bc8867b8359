//! Span nesting and ordering under concurrent threads.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use zkdet_telemetry::{Recorder, Registry};

#[test]
fn spans_nest_per_thread_under_a_thread_scope() {
    let recorder = Recorder::new();
    {
        let mut outer = recorder.span("orchestrate");
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|worker| {
                    let recorder = &recorder;
                    scope.spawn(move || {
                        let mut s = recorder.span("worker");
                        s.record("index", worker);
                        {
                            let _inner = recorder.span("worker.step");
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("worker");
            }
        });
        outer.record("workers", 4);
        drop(outer);
    };

    let spans = recorder.finished_spans();
    assert_eq!(spans.len(), 9, "1 orchestrate + 4 workers + 4 steps");

    // Snapshot order is id order (open order), regardless of which worker
    // finished first.
    for pair in spans.windows(2) {
        assert!(pair[0].id < pair[1].id);
    }

    let orchestrate = spans.iter().find(|s| s.name == "orchestrate").unwrap();
    assert_eq!(orchestrate.parent, None);
    assert_eq!(orchestrate.fields, vec![("workers", 4)]);

    // Worker spans opened on other threads are roots there — they must NOT
    // claim the main thread's open span as parent.
    let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker").collect();
    assert_eq!(workers.len(), 4);
    let mut indices: Vec<u64> = workers
        .iter()
        .map(|s| s.fields.iter().find(|(k, _)| *k == "index").unwrap().1)
        .collect();
    indices.sort_unstable();
    assert_eq!(indices, vec![0, 1, 2, 3]);
    for w in &workers {
        assert_eq!(w.parent, None, "worker spans are per-thread roots");
    }

    // Each step nests under the worker span of its own thread.
    let worker_ids: Vec<u64> = workers.iter().map(|s| s.id).collect();
    for step in spans.iter().filter(|s| s.name == "worker.step") {
        let parent = step.parent.expect("step has a parent");
        assert!(worker_ids.contains(&parent));
    }
}

#[test]
fn trace_context_is_thread_local_without_cross_talk() {
    // Four workers each enter a distinct trace (the partitioned
    // parallel-verify shape): every span a worker opens must carry its own
    // trace id, and a thread with no context must stamp nothing — even
    // while other threads have contexts active.
    let recorder = Recorder::new();
    let _outer = zkdet_telemetry::enter_trace(zkdet_telemetry::TraceId::for_exchange(999));
    std::thread::scope(|scope| {
        for worker in 0..4u64 {
            let recorder = &recorder;
            scope.spawn(move || {
                // Worker threads do NOT inherit the spawner's context.
                assert_eq!(zkdet_telemetry::current_trace(), None);
                let trace = zkdet_telemetry::TraceId::for_exchange(worker);
                let _g = zkdet_telemetry::enter_trace(trace);
                for _ in 0..64 {
                    let mut s = recorder.span("verify.partition");
                    s.record("worker", worker);
                }
            });
        }
        scope.spawn(|| {
            // A context-free worker alongside the traced ones.
            assert_eq!(zkdet_telemetry::current_trace(), None);
            let _s = recorder.span("verify.untraced");
        });
    });

    let spans = recorder.finished_spans();
    assert_eq!(spans.len(), 4 * 64 + 1);
    for s in &spans {
        let trace = s.fields.iter().find(|(k, _)| *k == "trace").map(|(_, v)| *v);
        match s.name {
            "verify.untraced" => assert_eq!(trace, None, "no ambient context, no stamp"),
            _ => {
                let worker = s.fields.iter().find(|(k, _)| *k == "worker").unwrap().1;
                let expected = zkdet_telemetry::TraceId::for_exchange(worker).as_u64();
                assert_eq!(trace, Some(expected), "span stamped with a foreign trace");
            }
        }
    }
}

#[test]
fn counters_are_consistent_under_contention() {
    let registry = Registry::new();
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let registry = &registry;
            scope.spawn(move || {
                // Resolve the handle once, then hammer it — the hot-path
                // usage pattern.
                let c = registry.counter("zkdet.test.contended");
                for _ in 0..PER_THREAD {
                    c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                for i in 0..64 {
                    registry.observe("zkdet.test.hist", i);
                }
            });
        }
    });
    assert_eq!(
        registry.counter_value("zkdet.test.contended"),
        THREADS * PER_THREAD
    );
    let hists = registry.histograms_snapshot();
    assert_eq!(hists.len(), 1);
    assert_eq!(hists[0].1.count, THREADS * 64);
}

#[test]
fn guard_dropped_on_another_statement_order_is_open_order() {
    let recorder = Recorder::new();
    let a = recorder.span("a");
    let b = recorder.span("b");
    drop(a); // a finishes first but was opened first too
    drop(b);
    let spans = recorder.finished_spans();
    assert_eq!(spans[0].name, "a");
    assert_eq!(spans[1].name, "b");
    // b opened while a was still open on this thread: nested.
    assert_eq!(spans[1].parent, Some(spans[0].id));
}

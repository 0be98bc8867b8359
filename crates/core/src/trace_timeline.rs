//! Causal timeline reconstruction for one exchange (DESIGN.md §15).
//!
//! Every exchange carries a deterministic [`TraceId`] (minted from its
//! token by [`exchange_trace`]); the journaled exchange steps stamp it
//! into WAL records and the ambient context stamps it into every span
//! opened while the exchange is driven — including prover invocations,
//! quorum storage reads, repair ticks, and chain settlement. This module
//! folds both sources back into one [`Timeline`]:
//!
//! * journal events first, in WAL order — the authoritative step
//!   sequence, which survives crashes and shows the recovery replay
//!   (resumed intents, back-filled completions) inline after the
//!   pre-crash steps;
//! * then trace-stamped spans in open (id) order — the measured story,
//!   with durations and recorded fields.
//!
//! Both orders are deterministic, so a replayed run reconstructs a
//! byte-identical timeline (see the trace-replay proptest in
//! `tests/tests/crash_recovery.rs`).

use zkdet_chain::TokenId;
use zkdet_telemetry::{SpanRecord, Timeline, TraceId, TRACE_FIELD};

use crate::error::ZkdetError;
use crate::journal::ExchangeWal;

/// The trace id the marketplace mints for the exchange of `token`.
///
/// Deterministic: the same token yields the same trace in every process,
/// which is how a crash-restarted replay re-links to the original story.
pub fn exchange_trace(token: TokenId) -> TraceId {
    TraceId::for_exchange(token.0)
}

/// Reconstructs the causal story of `token`'s exchange from its journal
/// and a set of finished spans (e.g.
/// [`zkdet_telemetry::Snapshot::spans`]).
///
/// Journal events use the record's WAL index as their `at`; span events
/// use the span's start time and duration. Spans keep their recorded
/// fields minus the `trace` stamp itself (it is the timeline's header).
///
/// # Errors
///
/// [`ZkdetError::Journal`] / [`ZkdetError::Codec`] if the journal bytes
/// fail to replay — same conditions as [`ExchangeWal::records`].
pub fn trace_timeline(
    wal: &ExchangeWal,
    token: TokenId,
    spans: &[SpanRecord],
) -> Result<Timeline, ZkdetError> {
    let trace = exchange_trace(token);
    let mut timeline = Timeline::new(trace);
    for (index, (rec_trace, rec)) in wal.traced_records()?.into_iter().enumerate() {
        if rec_trace != Some(trace.as_u64()) {
            continue;
        }
        timeline.push("journal", rec.step_name(), index as u64, 0, vec![]);
    }
    let mut traced: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| {
            s.fields
                .iter()
                .any(|(k, v)| *k == TRACE_FIELD && *v == trace.as_u64())
        })
        .collect();
    traced.sort_by_key(|s| s.id);
    for s in traced {
        let fields = s
            .fields
            .iter()
            .filter(|(k, _)| *k != TRACE_FIELD)
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect();
        timeline.push("span", s.name, s.start, s.duration, fields);
    }
    Ok(timeline)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::exchange::ExchangeOutcome;
    use crate::journal::{ExchangeRecord, RetrieveIntent, Terminal};
    use zkdet_chain::contracts::ListingId;

    fn span(id: u64, name: &'static str, fields: Vec<(&'static str, u64)>) -> SpanRecord {
        SpanRecord {
            id,
            parent: None,
            name,
            start: id * 10,
            duration: 5,
            fields,
        }
    }

    #[test]
    fn timeline_folds_journal_then_spans_and_filters_foreign_traces() {
        let token = TokenId(9);
        let trace = exchange_trace(token);
        let other = exchange_trace(TokenId(10));

        let mut wal = ExchangeWal::new();
        {
            let _g = zkdet_telemetry::enter_trace(trace);
            wal.append(&ExchangeRecord::RetrieveIntent(RetrieveIntent {
                listing: ListingId(1),
                attempt: 1,
            }))
            .unwrap();
        }
        {
            let _g = zkdet_telemetry::enter_trace(other);
            wal.append(&ExchangeRecord::RetrieveIntent(RetrieveIntent {
                listing: ListingId(2),
                attempt: 1,
            }))
            .unwrap();
        }
        {
            let _g = zkdet_telemetry::enter_trace(trace);
            wal.append(&ExchangeRecord::Terminal(Terminal {
                listing: ListingId(1),
                outcome: ExchangeOutcome::Settled,
                reason: String::new(),
            }))
            .unwrap();
        }

        let spans = vec![
            span(3, "exchange.drive", vec![(TRACE_FIELD, trace.as_u64()), ("attempts", 2)]),
            span(1, "exchange.recover", vec![(TRACE_FIELD, trace.as_u64())]),
            span(2, "exchange.drive", vec![(TRACE_FIELD, other.as_u64())]),
            span(4, "market.bootstrap", vec![]),
        ];

        let tl = trace_timeline(&wal, token, &spans).unwrap();
        let story: Vec<(&str, &str, u64)> = tl
            .events
            .iter()
            .map(|e| (e.source, e.name.as_str(), e.at))
            .collect();
        assert_eq!(
            story,
            vec![
                ("journal", "retrieve_intent", 0),
                ("journal", "terminal", 2),
                ("span", "exchange.recover", 10),
                ("span", "exchange.drive", 30),
            ]
        );
        // The trace stamp is stripped from span fields; others survive.
        assert_eq!(tl.events[3].fields, vec![("attempts".to_string(), 2)]);
        // Deterministic: folding again is byte-identical.
        let again = trace_timeline(&wal, token, &spans).unwrap();
        assert_eq!(again.to_json().encode(), tl.to_json().encode());
    }
}

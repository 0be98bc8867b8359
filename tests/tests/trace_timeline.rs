//! Causal trace-timeline reconstruction (DESIGN.md §15).
//!
//! Every exchange carries a deterministic [`TraceId`] minted from its
//! token. The journaled step wrappers stamp it into WAL records and the
//! ambient thread-local context stamps it into every span opened while
//! the exchange runs — prover invocations, quorum reads, repair passes.
//! These tests check the two properties the observability layer promises:
//!
//! * a crash-interrupted exchange folds back into ONE causal story: the
//!   pre-crash steps, the recovery replay, and follow-up repair ticks all
//!   reconstruct under the same trace id;
//! * the reconstruction is deterministic — two identically-seeded
//!   crash/recover replays produce byte-identical timelines (proptest
//!   over the crash point);
//! * the ambient context never leaks across threads: concurrent workers
//!   each stamp their own trace, and untraced workers stamp nothing.

use proptest::prelude::*;
use rand::rngs::StdRng;
use std::cell::RefCell;
use zkdet_circuits::exchange::RangePredicate;
use zkdet_core::{
    exchange_trace, trace_timeline, DataOwner, Dataset, ExchangeReport, ExchangeWal, Marketplace,
    ZkdetError,
};
use zkdet_field::Fr;
use zkdet_telemetry::{TraceId, TRACE_FIELD};
use zkdet_tests::rng;
use zkdet_wal::CrashMode;

/// One fresh exchange inside a shared marketplace.
struct Life {
    seller: DataOwner,
    buyer: DataOwner,
    token: zkdet_chain::TokenId,
}

fn fresh_life(m: &mut Marketplace, r: &mut StdRng) -> Life {
    let mut seller = m.register();
    let buyer = m.register();
    let data = Dataset::from_entries(vec![Fr::from(7u64), Fr::from(13u64)]);
    let token = m
        .publish_original(&mut seller, data, r)
        .expect("publish");
    Life {
        seller,
        buyer,
        token,
    }
}

/// The journaled happy-path flow; the injected crash propagates out.
fn journaled_flow(
    m: &mut Marketplace,
    wal: &mut ExchangeWal,
    life: &mut Life,
    r: &mut StdRng,
) -> Result<ExchangeReport, ZkdetError> {
    let listing = m.journaled_list_for_sale(
        wal,
        &life.seller,
        life.token,
        100,
        50,
        1,
        "u8".into(),
        r,
    )?;
    let pkg = m.seller_validation_package(&life.seller, life.token, RangePredicate { bits: 8 }, r)?;
    let session = m.journaled_validate_and_lock(wal, &life.buyer, listing.listing, &pkg, r)?;
    m.journaled_seller_settle(wal, &life.seller, &listing, session.k_v_message(), r)?;
    m.journaled_drive_to_completion(wal, &mut life.buyer, &session)
}

/// Crashes the flow at append `k`, restarts, recovers, and reconstructs
/// the journal-only timeline twice (JSON + ASCII). Journal-only keeps the
/// artefact free of wall-clock span timestamps, so replays can be
/// compared byte-for-byte.
fn crash_recover_timeline(m: &mut Marketplace, k: u64, seed: u64) -> (Vec<u8>, String) {
    let mut r = rng(seed);
    let mut life = fresh_life(m, &mut r);
    let mode = if k % 2 == 1 {
        CrashMode::Torn
    } else {
        CrashMode::Clean
    };
    let mut wal = ExchangeWal::new();
    wal.set_crash_after(k, mode);
    let err = journaled_flow(m, &mut wal, &mut life, &mut r).expect_err("flow must crash");
    assert!(matches!(
        err,
        ZkdetError::Journal(zkdet_wal::WalError::Crashed)
    ));

    let mut wal = ExchangeWal::open(wal.durable_bytes().to_vec()).expect("reopen journal");
    m.recover(&mut wal, Some(&life.seller), &mut life.buyer, &mut r)
        .expect("recovery");

    let tl = trace_timeline(&wal, life.token, &[]).expect("timeline");
    // Refolding the same durable bytes is byte-identical.
    let again = trace_timeline(&wal, life.token, &[]).expect("refold");
    assert_eq!(again.to_json().encode(), tl.to_json().encode());
    (tl.to_json().encode().into_bytes(), tl.render_ascii())
}

#[test]
fn crash_interrupted_exchange_folds_into_one_causal_story() {
    zkdet_telemetry::enable();
    let mut r = rng(0x7AC3_0001);
    let mut m = Marketplace::bootstrap(1 << 14, 10, &mut r).expect("bootstrap");
    let mut life = fresh_life(&mut m, &mut r);
    let trace = exchange_trace(life.token);

    // Crash on the 7th append (the SettleDone boundary): the settlement
    // landed on chain but its completion record did not.
    let mut wal = ExchangeWal::new();
    wal.set_crash_after(7, CrashMode::Clean);
    let err = journaled_flow(&mut m, &mut wal, &mut life, &mut r)
        .expect_err("flow must crash at the settle boundary");
    assert!(matches!(
        err,
        ZkdetError::Journal(zkdet_wal::WalError::Crashed)
    ));

    // Restart: sessions die, durable bytes survive.
    let mut wal = ExchangeWal::open(wal.durable_bytes().to_vec()).expect("reopen journal");
    m.recover(&mut wal, Some(&life.seller), &mut life.buyer, &mut r)
        .expect("recovery");

    // A follow-up repair pass run on the exchange's behalf: the operator
    // re-enters the deterministic trace, so the repair span joins the
    // same causal story the crashed process started.
    {
        let _g = zkdet_telemetry::enter_trace(trace);
        m.storage.schedule_repair_scan();
        m.storage.advance_clock(zkdet_storage::REPAIR_INTERVAL_TICKS);
        m.tick_storage_repairs();
    }

    // Every durable record carries the one trace — pre-crash appends and
    // the recovery replay's appends alike.
    let traced = wal.traced_records().expect("traced records");
    assert!(
        traced.len() > 7,
        "recovery must append past the crash point: {} records",
        traced.len()
    );
    for (t, rec) in &traced {
        assert_eq!(
            *t,
            Some(trace.as_u64()),
            "{} is missing the trace stamp",
            rec.step_name()
        );
    }

    let snap = zkdet_telemetry::snapshot();
    let tl = trace_timeline(&wal, life.token, &snap.spans).expect("timeline");

    // The journal story: the pre-crash steps in WAL order, then the
    // replayed completion, ending terminal.
    let journal: Vec<&str> = tl
        .events
        .iter()
        .filter(|e| e.source == "journal")
        .map(|e| e.name.as_str())
        .collect();
    assert!(
        journal.starts_with(&[
            "list_intent",
            "list_done",
            "pay_intent",
            "pay_done",
            "settle_intent",
            "prove_done",
        ]),
        "pre-crash steps must lead the story: {journal:?}"
    );
    // Recovery does not re-settle (the settlement already landed on
    // chain); it resumes from retrieval and drives to the end, appending
    // its replay steps to the same journal under the same trace.
    for resumed in ["retrieve_intent", "retrieve_done", "decrypt_done"] {
        assert!(
            journal.contains(&resumed),
            "recovery replay must append {resumed}: {journal:?}"
        );
    }
    assert_eq!(*journal.last().expect("terminal"), "terminal");
    let at: Vec<u64> = tl
        .events
        .iter()
        .filter(|e| e.source == "journal")
        .map(|e| e.at)
        .collect();
    assert!(
        at.windows(2).all(|w| w[0] < w[1]),
        "journal events keep WAL order"
    );

    // The measured story: prover, storage, drive, and repair spans all
    // joined the trace via the ambient context.
    let spans: Vec<&str> = tl
        .events
        .iter()
        .filter(|e| e.source == "span")
        .map(|e| e.name.as_str())
        .collect();
    for expected in [
        "plonk.prove",
        "storage.retrieve",
        "exchange.drive",
        "storage.repair.run",
    ] {
        assert!(
            spans.contains(&expected),
            "span {expected} missing from the trace: {spans:?}"
        );
    }
    assert!(tl.render_ascii().starts_with(&format!("trace {trace}\n")));
}

#[test]
fn trace_context_does_not_leak_across_threads() {
    zkdet_telemetry::enable();
    let t_a = TraceId::from_u64(0xA11C_E000_0000_0001);
    let t_b = TraceId::from_u64(0xB0B0_0000_0000_0002);
    let worker = |trace: Option<TraceId>, name: &'static str| {
        std::thread::spawn(move || {
            let _g = trace.map(zkdet_telemetry::enter_trace);
            for _ in 0..64 {
                let _s = zkdet_telemetry::span(name);
            }
        })
    };
    let handles = vec![
        worker(Some(t_a), "tracetest.worker.a"),
        worker(Some(t_b), "tracetest.worker.b"),
        worker(None, "tracetest.worker.plain"),
    ];
    for h in handles {
        h.join().expect("worker");
    }

    let snap = zkdet_telemetry::snapshot();
    let stamp = |s: &zkdet_telemetry::SpanRecord| {
        s.fields
            .iter()
            .find(|(k, _)| *k == TRACE_FIELD)
            .map(|(_, v)| *v)
    };
    let mut seen = [0usize; 3];
    for s in &snap.spans {
        match s.name {
            "tracetest.worker.a" => {
                assert_eq!(stamp(s), Some(t_a.as_u64()), "worker a stamps only its trace");
                seen[0] += 1;
            }
            "tracetest.worker.b" => {
                assert_eq!(stamp(s), Some(t_b.as_u64()), "worker b stamps only its trace");
                seen[1] += 1;
            }
            "tracetest.worker.plain" => {
                assert_eq!(stamp(s), None, "an untraced thread stamps nothing");
                seen[2] += 1;
            }
            _ => {}
        }
    }
    assert_eq!(seen, [64, 64, 64]);
}

// Two identically-seeded marketplaces, kept in lock-step across proptest
// cases: every case runs the same crash/recover replay on both and the
// reconstructed timelines must match byte-for-byte.
thread_local! {
    static PAIR: RefCell<Option<(Marketplace, Marketplace)>> = const { RefCell::new(None) };
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]
    #[test]
    fn trace_reconstruction_is_byte_identical_across_replay(k in 1u64..=7) {
        PAIR.with(|cell| {
            let mut pair = cell.borrow_mut();
            let (a, b) = pair.get_or_insert_with(|| {
                let mut ra = rng(0x7AC3_0002);
                let mut rb = rng(0x7AC3_0002);
                (
                    Marketplace::bootstrap(1 << 14, 10, &mut ra).expect("bootstrap a"),
                    Marketplace::bootstrap(1 << 14, 10, &mut rb).expect("bootstrap b"),
                )
            });
            let seed = 0x7AC3_1000 ^ k;
            let (json_a, ascii_a) = crash_recover_timeline(a, k, seed);
            let (json_b, ascii_b) = crash_recover_timeline(b, k, seed);
            prop_assert_eq!(json_a, json_b);
            prop_assert_eq!(ascii_a, ascii_b);
            Ok(())
        })?;
    }
}

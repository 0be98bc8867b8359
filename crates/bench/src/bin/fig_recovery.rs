//! **Recovery figure** — crash-recovery latency (not in the paper, which
//! assumes immortal participants; the durability layer deserves its own
//! measurement).
//!
//! Two sweeps over the write-ahead exchange journal:
//!
//! * `crash_point` — one exchange is crashed at every journal append
//!   boundary in turn; the journal is reopened from its durable bytes and
//!   [`Marketplace::recover`] is timed driving the exchange to a terminal
//!   state. The interesting shape is the cost cliff between "resume from
//!   the settle step" (re-proves nothing, replays the retrieval) and
//!   "resume from the listing" (no buyer engaged, nothing to drive).
//! * `journal_length` — N completed exchanges share one journal; recovery
//!   replays the whole record stream and finds every exchange terminal.
//!   This isolates pure replay cost vs. journal length from the cost of
//!   re-driving work.
//!
//! Emits `BENCH_fig_recovery.json` (schema `zkdet-bench-v1`).
//!
//! ```text
//! cargo run --release -p zkdet-bench --bin fig_recovery [--full|--small]
//! ```

#![forbid(unsafe_code)]

use rand::rngs::StdRng;

use zkdet_bench::{bench_rng, fmt_duration, time, BenchReport};
use zkdet_chain::TokenId;
use zkdet_circuits::exchange::RangePredicate;
use zkdet_core::{
    DataOwner, Dataset, ExchangeReport, ExchangeWal, Marketplace, RecoveryOutcome, ZkdetError,
};
use zkdet_field::Fr;
use zkdet_telemetry::Value;
use zkdet_wal::CrashMode;

/// One exchange's cast: its own seller, buyer, and published token.
struct Cast {
    seller: DataOwner,
    buyer: DataOwner,
    token: TokenId,
}

fn fresh_cast(m: &mut Marketplace, rng: &mut StdRng) -> Cast {
    let mut seller = m.register();
    let buyer = m.register();
    let data = Dataset::from_entries(vec![Fr::from(7u64), Fr::from(13u64)]);
    let token = m.publish_original(&mut seller, data, rng).expect("publish");
    Cast {
        seller,
        buyer,
        token,
    }
}

/// Drives one full exchange through the journaled step wrappers; the
/// injected `WalError::Crashed` (if a crash point is armed) propagates.
fn journaled_flow(
    m: &mut Marketplace,
    wal: &mut ExchangeWal,
    cast: &mut Cast,
    rng: &mut StdRng,
) -> Result<ExchangeReport, ZkdetError> {
    let listing =
        m.journaled_list_for_sale(wal, &cast.seller, cast.token, 100, 50, 1, "u8".into(), rng)?;
    let pkg = m.seller_validation_package(&cast.seller, cast.token, RangePredicate { bits: 8 }, rng)?;
    let session = m.journaled_validate_and_lock(wal, &cast.buyer, listing.listing, &pkg, rng)?;
    m.journaled_seller_settle(wal, &cast.seller, &listing, session.k_v_message(), rng)?;
    m.journaled_drive_to_completion(wal, &mut cast.buyer, &session)
}

fn outcome_label(outcome: &RecoveryOutcome) -> &'static str {
    match outcome {
        RecoveryOutcome::Listed => "listed",
        RecoveryOutcome::Completed(rep) => match rep.outcome {
            zkdet_core::ExchangeOutcome::Settled => "settled",
            zkdet_core::ExchangeOutcome::Refunded => "refunded",
            zkdet_core::ExchangeOutcome::Aborted => "aborted",
        },
        RecoveryOutcome::AlreadyTerminal(_) => "already_terminal",
    }
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let small = std::env::args().any(|a| a == "--small");
    let telemetry_on = zkdet_bench::init_telemetry();
    let mut rng = bench_rng();
    let (preset, lengths): (&str, &[usize]) = if full {
        ("full", &[1, 4, 16, 32])
    } else if small {
        ("small", &[1, 2, 4])
    } else {
        ("default", &[1, 4, 8])
    };
    let mut report = BenchReport::new("fig_recovery");
    report.meta("preset", preset);
    report.meta("telemetry", telemetry_on);

    let mut m = Marketplace::bootstrap(1 << 14, 10, &mut rng).expect("bootstrap");

    // ---- probe: count the appends of one uncrashed flow --------------
    // This enumerates the crash points and fixes the records-per-exchange
    // axis scale for the journal-length sweep.
    let mut cast = fresh_cast(&mut m, &mut rng);
    let mut probe = ExchangeWal::new();
    journaled_flow(&mut m, &mut probe, &mut cast, &mut rng).expect("probe flow");
    let records = probe.record_count();
    report.meta("records_per_exchange", records);
    println!("clean settled exchange journals {records} records");
    println!(
        "{:<14} {:>14} {:>14} {:>12} {:>10}",
        "sweep", "crash_point", "replayed", "time", "outcome"
    );

    // ---- sweep 1: crash at every append boundary ---------------------
    for k in 1..=records {
        let mut cast = fresh_cast(&mut m, &mut rng);
        let mut wal = ExchangeWal::new();
        wal.set_crash_after(k, CrashMode::Clean);
        let err = journaled_flow(&mut m, &mut wal, &mut cast, &mut rng)
            .expect_err("armed crash point must fire");
        assert!(matches!(
            err,
            ZkdetError::Journal(zkdet_wal::WalError::Crashed)
        ));

        // Restart: only the durable bytes survive.
        let mut wal = ExchangeWal::open(wal.durable_bytes().to_vec()).expect("reopen");
        let (rec, elapsed) = time(|| {
            m.recover(&mut wal, Some(&cast.seller), &mut cast.buyer, &mut rng)
                .expect("recover")
        });
        let (outcome, resumed_from) = match rec.exchanges.as_slice() {
            [] => ("nothing_durable", "-"),
            [ex] => (outcome_label(&ex.outcome), ex.resumed_from),
            more => panic!("one journal, one exchange — got {}", more.len()),
        };
        println!(
            "{:<14} {k:>14} {:>14} {:>12} {outcome:>10}",
            "crash_point",
            rec.records_replayed,
            fmt_duration(elapsed)
        );
        report.row(
            Value::object()
                .with("sweep", "crash_point")
                .with("crash_point", k)
                .with("durable_records", k.saturating_sub(1))
                .with("records_replayed", rec.records_replayed)
                .with("recover_micros", elapsed.as_micros() as u64)
                .with("outcome", outcome)
                .with("resumed_from", resumed_from),
        );
    }

    // ---- sweep 2: replay cost vs. journal length ---------------------
    for &n in lengths {
        let mut wal = ExchangeWal::new();
        let mut last_cast = None;
        for _ in 0..n {
            let mut cast = fresh_cast(&mut m, &mut rng);
            journaled_flow(&mut m, &mut wal, &mut cast, &mut rng).expect("clean flow");
            last_cast = Some(cast);
        }
        let mut cast = last_cast.expect("at least one exchange");
        let mut wal = ExchangeWal::open(wal.durable_bytes().to_vec()).expect("reopen");
        let (rec, elapsed) = time(|| {
            m.recover(&mut wal, Some(&cast.seller), &mut cast.buyer, &mut rng)
                .expect("recover")
        });
        assert_eq!(rec.exchanges.len(), n, "one recovered entry per exchange");
        assert!(
            rec.exchanges
                .iter()
                .all(|ex| matches!(ex.outcome, RecoveryOutcome::AlreadyTerminal(_))),
            "completed journals replay as already-terminal"
        );
        println!(
            "{:<14} {:>14} {:>14} {:>12} {:>10}",
            "journal_length",
            format!("{n} exch"),
            rec.records_replayed,
            fmt_duration(elapsed),
            "terminal"
        );
        report.row(
            Value::object()
                .with("sweep", "journal_length")
                .with("exchanges", n)
                .with("records", wal.record_count())
                .with("records_replayed", rec.records_replayed)
                .with("recover_micros", elapsed.as_micros() as u64),
        );
    }

    match report.write() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write artefact: {e}"),
    }
}

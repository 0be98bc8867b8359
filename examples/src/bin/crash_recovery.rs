//! Crash-recovery: a seller lists, a buyer pays, and the process dies
//! mid-settlement — then restarts from the write-ahead journal's durable
//! bytes and recovers the exchange without double-settling (DESIGN.md §13).
//!
//! ```text
//! cargo run --release -p zkdet-examples --bin crash_recovery
//! ```

#![forbid(unsafe_code)]

use rand::{rngs::StdRng, SeedableRng};
use zkdet_circuits::exchange::RangePredicate;
use zkdet_core::{ExchangeOutcome, ExchangeWal, Marketplace, RecoveryOutcome, ZkdetError};
use zkdet_examples::{banner, readings};
use zkdet_wal::CrashMode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(42);

    banner("setup");
    let mut market = Marketplace::bootstrap(1 << 14, 8, &mut rng)?;
    let mut alice = market.register(); // seller
    let mut bob = market.register(); // buyer
    let data = readings(&[17, 4, 25, 99]);
    let token = market.publish_original(&mut alice, data.clone(), &mut rng)?;
    println!("alice published token {token}; bob wants it");

    banner("journaled exchange (doomed)");
    // Every step appends an intent record to the WAL before its side
    // effect and a completion record after. We arm a crash on the 6th
    // append — the ProveDone record — so the process dies with the π_k
    // proof computed but the settlement not yet journaled as submitted.
    let mut wal = ExchangeWal::new();
    wal.set_crash_after(6, CrashMode::Torn);
    let doomed = || -> Result<(), ZkdetError> {
        let listing =
            market.journaled_list_for_sale(&mut wal, &alice, token, 100, 50, 1, "u8".into(), &mut rng)?;
        println!("listed as {:?} (WAL: {} records)", listing.listing, wal.record_count());
        let pkg =
            market.seller_validation_package(&alice, token, RangePredicate { bits: 8 }, &mut rng)?;
        let session =
            market.journaled_validate_and_lock(&mut wal, &bob, listing.listing, &pkg, &mut rng)?;
        println!("bob validated π_p and locked payment (WAL: {} records)", wal.record_count());
        market.journaled_seller_settle(&mut wal, &alice, &listing, session.k_v_message(), &mut rng)?;
        market.journaled_drive_to_completion(&mut wal, &mut bob, &session)?;
        Ok(())
    }();
    let err = doomed.expect_err("the armed crash must fire");
    println!("💥 process died mid-settle: {err}");
    println!(
        "durable journal: {} intact records + a torn tail of {} bytes",
        ExchangeWal::open(wal.durable_bytes().to_vec())?.record_count(),
        wal.durable_bytes().len()
            - ExchangeWal::open(wal.durable_bytes().to_vec())?.durable_bytes().len(),
    );

    banner("restart & recover");
    // Sessions are gone; the chain, the storage network, and the journal's
    // durable bytes survive. Recovery folds the record stream, reconciles
    // each unfinished intent against on-chain state, and drives the
    // exchange to a terminal outcome — settling at most once.
    let mut wal = ExchangeWal::open(wal.durable_bytes().to_vec())?;
    let report = market.recover(&mut wal, Some(&alice), &mut bob, &mut rng)?;
    println!("replayed {} records", report.records_replayed);
    let [ex] = report.exchanges.as_slice() else {
        panic!("expected one recovered exchange");
    };
    println!("exchange for token {} resumed from `{}`", ex.token, ex.resumed_from);
    let RecoveryOutcome::Completed(rep) = &ex.outcome else {
        panic!("expected a driven-to-completion exchange");
    };
    assert_eq!(rep.outcome, ExchangeOutcome::Settled);
    assert_eq!(rep.data.as_ref(), Some(&data));
    println!("bob decrypted the dataset; outcome: {:?}", rep.outcome);

    banner("exactly once");
    // A second recovery over the healed journal finds the Terminal record
    // and touches nothing — the settlement journal would reject a replay
    // anyway.
    let again = market.recover(&mut wal, Some(&alice), &mut bob, &mut rng)?;
    assert!(matches!(
        again.exchanges[0].outcome,
        RecoveryOutcome::AlreadyTerminal(ExchangeOutcome::Settled)
    ));
    println!("second recovery: already terminal, no state touched");
    println!(
        "balances — alice: {}, bob: {}",
        market.chain.state.balance(&alice.address),
        market.chain.state.balance(&bob.address)
    );

    banner("done");
    println!("the crash cost a re-proof, not the money and not the data");
    Ok(())
}

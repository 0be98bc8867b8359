//! The key-secure exchange is one protocol on three paths: inline without
//! a journal, inline over an [`ExchangeWal`], and as an executor
//! [`zkdet_core::ExchangeMachine`]. From one seed the two inline paths
//! must leave the same chain and hand the buyer the same plaintext, and
//! the journal an inline run writes must be, step for step, the journal a
//! machine writes for its token — for a settled exchange and for a
//! withheld one that ends in a refund. FairSwap machines drive the plain
//! baseline steps, which keep no journal.

use rand::rngs::StdRng;
use zkdet_circuits::exchange::RangePredicate;
use zkdet_core::throughput::{run_load, LoadConfig};
use zkdet_core::{
    exchange_trace, Dataset, ExchangeOutcome, ExchangeWal, Journal, Marketplace, NoJournal,
};
use zkdet_field::Fr;
use zkdet_tests::rng;

const SETTLED_STEPS: [&str; 11] = [
    "list_intent",
    "list_done",
    "pay_intent",
    "pay_done",
    "settle_intent",
    "prove_done",
    "settle_done",
    "retrieve_intent",
    "retrieve_done",
    "decrypt_done",
    "terminal",
];

const REFUNDED_STEPS: [&str; 7] = [
    "list_intent",
    "list_done",
    "pay_intent",
    "pay_done",
    "refund_intent",
    "refund_done",
    "terminal",
];

/// One exchange from a fixed seed over `journal`; returns the chain
/// digest it ends with and what the buyer recovered.
fn inline_exchange(journal: &mut impl Journal, withhold: bool) -> ([u8; 32], Option<Dataset>) {
    let r: &mut StdRng = &mut rng(0x5a3e);
    let mut m = Marketplace::bootstrap(1 << 13, 8, r).expect("bootstrap");
    let mut seller = m.register();
    let mut buyer = m.register();
    let data = Dataset::from_entries(vec![Fr::from(7u64), Fr::from(13u64)]);
    let token = m.publish_original(&mut seller, data, r).expect("publish");
    let listing = m
        .journaled_list_for_sale(journal, &seller, token, 1_200, 400, 2, "u8".into(), r)
        .expect("list");
    let package = m
        .seller_validation_package(&seller, token, RangePredicate { bits: 8 }, r)
        .expect("π_p");
    let session = m
        .journaled_validate_and_lock(journal, &buyer, listing.listing, &package, r)
        .expect("lock");
    if !withhold {
        m.journaled_seller_settle(journal, &seller, &listing, session.k_v_message(), r)
            .expect("settle");
    }
    let report = m
        .journaled_drive_to_completion(journal, &mut buyer, &session)
        .expect("drive");
    let expected = if withhold {
        ExchangeOutcome::Refunded
    } else {
        ExchangeOutcome::Settled
    };
    assert_eq!(report.outcome, expected);
    (m.chain.export_digest(), report.data)
}

fn step_names(wal: &ExchangeWal, trace: Option<u64>) -> Vec<&'static str> {
    wal.traced_records()
        .expect("journal replays")
        .iter()
        .filter(|(t, _)| trace.is_none() || *t == trace)
        .map(|(_, rec)| rec.step_name())
        .collect()
}

#[test]
fn plain_and_journaled_paths_agree_and_machines_write_the_same_journal() {
    for (withhold, steps) in [(false, &SETTLED_STEPS[..]), (true, &REFUNDED_STEPS[..])] {
        let plain = inline_exchange(&mut NoJournal, withhold);
        let mut wal = ExchangeWal::new();
        let journaled = inline_exchange(&mut wal, withhold);
        assert_eq!(
            plain, journaled,
            "withhold={withhold}: chain digest and plaintext"
        );
        assert_eq!(plain.1.is_some(), !withhold);
        assert_eq!(
            step_names(&wal, None),
            steps,
            "withhold={withhold}: inline journal"
        );
    }

    // One settled and one withheld exchange as executor machines on one
    // shard; each token's records are picked out of the shared journal by
    // its trace id.
    let load = run_load(&LoadConfig {
        seed: 0x5a3e,
        shards: 1,
        sim_workers: 2,
        exchanges: 2,
        withheld: 1,
        swaps: 0,
        dataset_len: 2,
        bits: 8,
        max_constraints: 1 << 13,
        storage_nodes: 8,
        chaos: false,
    })
    .expect("load");
    assert!(
        load.invariant_failures.is_empty(),
        "{:?}",
        load.invariant_failures
    );
    let wal = ExchangeWal::open(load.replay.journals[0].clone()).expect("shard journal");
    assert_eq!(load.results.len(), 2);
    for result in &load.results {
        let steps = match result.outcome {
            ExchangeOutcome::Settled => &SETTLED_STEPS[..],
            ExchangeOutcome::Refunded => &REFUNDED_STEPS[..],
            ExchangeOutcome::Aborted => panic!("no faults were injected"),
        };
        let trace = exchange_trace(result.token).as_u64();
        assert_eq!(
            step_names(&wal, Some(trace)),
            steps,
            "machine for {:?}",
            result.token
        );
    }
    assert_eq!((load.settled, load.refunded), (1, 1));
}

/// Swap machines complete their swaps, pay each seller exactly once, and
/// leave the shard journal empty: the FairSwap baseline has no durable
/// records.
#[test]
fn swap_machines_complete_and_journal_nothing() {
    let load = run_load(&LoadConfig {
        seed: 0xfa15,
        shards: 1,
        sim_workers: 2,
        exchanges: 0,
        withheld: 0,
        swaps: 4,
        dataset_len: 4,
        bits: 8,
        max_constraints: 1 << 12,
        storage_nodes: 4,
        chaos: false,
    })
    .expect("load");
    assert!(
        load.invariant_failures.is_empty(),
        "{:?}",
        load.invariant_failures
    );
    assert_eq!(load.swaps_completed, 4);
    assert!(load.results.is_empty());
    let wal = ExchangeWal::open(load.replay.journals[0].clone()).expect("shard journal");
    assert_eq!(wal.record_count(), 0);
}

//! The key-secure exchange is one protocol on three paths: inline without
//! a journal, inline over an [`ExchangeWal`], and as an executor
//! [`zkdet_core::ExchangeMachine`]. From one seed the two inline paths
//! must leave the same chain and hand the buyer the same plaintext, and
//! the journal an inline run writes must be, step for step, the journal a
//! machine writes for its token — for a settled exchange and for a
//! withheld one that ends in a refund. The FairSwap baseline has the same
//! property on its two inline paths, for an honest swap and for one the
//! buyer disputes.

use rand::rngs::StdRng;
use zkdet_circuits::exchange::RangePredicate;
use zkdet_core::fairswap::FairSwapSeller;
use zkdet_core::throughput::{run_load, LoadConfig};
use zkdet_core::{
    exchange_trace, Dataset, ExchangeOutcome, ExchangeRecord, ExchangeWal, Journal, Marketplace,
    NoJournal,
};
use zkdet_crypto::mimc::MimcCtr;
use zkdet_crypto::poseidon::Poseidon;
use zkdet_crypto::MerkleTree;
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

const SWAP_HONEST_STEPS: [&str; 8] = [
    "swap_offer_intent",
    "swap_offer_done",
    "swap_accept_intent",
    "swap_accept_done",
    "swap_reveal_intent",
    "swap_reveal_done",
    "swap_finish_intent",
    "swap_finish_done",
];

/// The cheating seller posts its offer straight on chain (the offer step
/// would refuse to lie about the plaintext root), so the journal starts
/// at the buyer's accept.
const SWAP_DISPUTED_STEPS: [&str; 6] = [
    "swap_accept_intent",
    "swap_accept_done",
    "swap_reveal_intent",
    "swap_reveal_done",
    "swap_finish_intent",
    "swap_finish_done",
];

/// One FairSwap from a fixed seed over `journal`; with `cheat` the seller
/// encrypts a file whose block 2 is wrong under the honest file's root.
/// Returns the chain digest and the plaintext, if the buyer got one.
fn inline_swap(journal: &mut impl Journal, cheat: bool) -> ([u8; 32], Option<Dataset>) {
    let r: &mut StdRng = &mut rng(0xfa15);
    let mut m = Marketplace::bootstrap(1 << 12, 4, r).expect("bootstrap");
    let seller = m.register();
    let buyer = m.register();
    let fs = m.deploy_fairswap_contract();
    let file = |vals: [u64; 4]| Dataset::from_entries(vals.map(Fr::from).to_vec());
    let real = file([10, 20, 30, 40]);
    let (s_state, served) = if cheat {
        let garbage = file([10, 20, 99, 40]);
        let (key, nonce) = (Fr::from(777u64), Fr::from(1u64));
        let ct = MimcCtr::new(key, nonce).encrypt(garbage.entries());
        let (swap, _) = m
            .chain
            .fairswap_offer(
                fs,
                seller.address,
                500,
                MerkleTree::new(&ct.blocks).root(),
                MerkleTree::new(real.entries()).root(),
                Poseidon::hash(&[key]),
                4,
                nonce,
            )
            .expect("lying offer");
        let state = FairSwapSeller {
            swap,
            key,
            nonce,
            data: garbage,
            ciphertext_blocks: ct.blocks.clone(),
        };
        (state, ct.blocks)
    } else {
        m.journaled_fairswap_offer(journal, fs, &seller, real.clone(), 500, r)
            .expect("offer")
    };
    let b_state = m
        .journaled_fairswap_accept(journal, fs, &buyer, s_state.swap, served, &real)
        .expect("accept");
    m.journaled_fairswap_reveal(journal, fs, &seller, &s_state)
        .expect("reveal");
    let outcome = m
        .journaled_fairswap_finish(journal, fs, &b_state)
        .expect("finish");
    assert_eq!(outcome.is_err(), cheat, "disputed exactly when cheated");
    (m.chain.export_digest(), outcome.ok())
}

#[test]
fn plain_and_journaled_fairswap_agree() {
    for (cheat, steps) in [(false, &SWAP_HONEST_STEPS[..]), (true, &SWAP_DISPUTED_STEPS[..])] {
        let plain = inline_swap(&mut NoJournal, cheat);
        let mut wal = ExchangeWal::new();
        let journaled = inline_swap(&mut wal, cheat);
        assert_eq!(plain, journaled, "cheat={cheat}: chain digest and plaintext");
        assert_eq!(plain.1.is_some(), !cheat);
        assert_eq!(step_names(&wal, None), steps, "cheat={cheat}: journal");
        let records = wal.records().expect("journal replays");
        assert!(
            matches!(
                records.last(),
                Some(ExchangeRecord::SwapFinishDone(done)) if done.disputed == cheat
            ),
            "cheat={cheat}: {:?}",
            records.last()
        );
    }
}

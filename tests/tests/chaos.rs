//! Chaos suite: full buy → retrieve → decrypt → settle flows under seeded
//! fault schedules.
//!
//! Every scenario installs a deterministic [`FaultPlan`] into the storage
//! network and drives the key-secure exchange to a terminal state with
//! [`Marketplace::drive_exchange_to_completion`]. The invariants, checked
//! by every test:
//!
//! 1. the exchange ends `Settled` with the exact plaintext, or terminates
//!    `Refunded`/`Aborted` — never a wedged intermediate;
//! 2. the auction contract holds zero escrow afterwards;
//! 3. nothing panics.
//!
//! Seeds are fixed so each schedule replays bit-for-bit.

use rand::rngs::StdRng;
use zkdet_chain::ChainError;
use zkdet_circuits::exchange::RangePredicate;
use zkdet_core::exchange::SellerListing;
use zkdet_core::{BuyerSession, Dataset, DataOwner, ExchangeOutcome, Marketplace, ZkdetError};
use zkdet_field::Fr;
use zkdet_storage::{xor_distance, Cid, FaultPlan, NodeId, StorageError};
use zkdet_tests::invariants::{
    assert_acked_publishes_durable, assert_no_wedged_escrow, assert_terminal_consistent,
    INITIAL_BALANCE,
};
use zkdet_tests::rng;

/// A marketplace with one published token, listed and locked by the buyer —
/// the point where infrastructure faults start mattering.
struct LockedExchange {
    m: Marketplace,
    seller: DataOwner,
    buyer: DataOwner,
    data: Dataset,
    listing: SellerListing,
    session: BuyerSession,
    r: StdRng,
}

fn setup_locked_exchange(seed: u64) -> LockedExchange {
    let mut r = rng(seed);
    let mut m = Marketplace::bootstrap(1 << 14, 10, &mut r).expect("bootstrap");
    let mut seller = m.register();
    let buyer = m.register();
    let data = Dataset::from_entries(vec![Fr::from(11u64), Fr::from(22u64), Fr::from(33u64)]);
    let token = m
        .publish_original(&mut seller, data.clone(), &mut r)
        .expect("publish");
    let listing = m
        .list_for_sale(&seller, token, 100, 50, 1, "u8".into(), &mut r)
        .expect("list");
    let pkg = m
        .seller_validation_package(&seller, token, RangePredicate { bits: 8 }, &mut r)
        .expect("π_p");
    let session = m
        .buyer_validate_and_lock(&buyer, listing.listing, &pkg, &mut r)
        .expect("lock");
    LockedExchange {
        m,
        seller,
        buyer,
        data,
        listing,
        session,
        r,
    }
}

/// The ciphertext CID of the token under exchange.
fn ciphertext_cid(x: &LockedExchange) -> Cid {
    x.m.chain
        .nft(&x.m.nft_addr)
        .expect("nft contract")
        .token_meta(x.session.token)
        .expect("token meta")
        .cid
}

/// Replica holders of `cid`, closest-first in the XOR metric — the order a
/// lookup contacts them in.
fn replicas_closest_first(x: &LockedExchange, cid: &Cid) -> Vec<NodeId> {
    let mut nodes = x.m.storage.replica_nodes(cid);
    nodes.sort_by_key(|n| xor_distance(n, cid));
    nodes
}

#[test]
fn exchange_survives_request_drops() {
    let mut x = setup_locked_exchange(101);
    x.m.storage
        .set_fault_plan(FaultPlan::seeded(101).with_global_drop(0.4));
    x.m.seller_settle(&x.seller, &x.listing, x.session.k_v_message(), &mut x.r)
        .expect("settle");
    let report =
        x.m.drive_exchange_to_completion(&mut x.buyer, &x.session)
            .expect("drive");
    assert_eq!(report.outcome, ExchangeOutcome::Settled);
    assert_eq!(report.data.as_ref(), Some(&x.data));
    // The policy had to fight for at least one of the fetches.
    assert!(x.m.robustness().attempts >= x.m.robustness().retrievals);
    assert_no_wedged_escrow(&x.m);
    assert_eq!(
        x.m.chain.state.balance(&x.seller.address),
        INITIAL_BALANCE + x.session.price
    );
}

#[test]
fn corrupt_replica_is_quarantined_and_refetched() {
    // Satellite of StorageError::DigestMismatch recovery: the closest
    // replica serves tampered bytes; retrieval quarantines it and re-fetches
    // from the next-closest copy, and the exchange still settles.
    let mut x = setup_locked_exchange(102);
    let cid = ciphertext_cid(&x);
    let holders = replicas_closest_first(&x, &cid);
    assert!(holders.len() >= 2, "need a second replica to fall back to");
    x.m.storage
        .set_fault_plan(FaultPlan::seeded(102).with_corrupt_replica(holders[0], cid));
    x.m.seller_settle(&x.seller, &x.listing, x.session.k_v_message(), &mut x.r)
        .expect("settle");
    let report =
        x.m.drive_exchange_to_completion(&mut x.buyer, &x.session)
            .expect("drive");
    assert_eq!(report.outcome, ExchangeOutcome::Settled);
    assert_eq!(report.data.as_ref(), Some(&x.data));
    assert!(
        x.m.robustness().quarantined >= 1,
        "the tampered replica must have been quarantined"
    );
    assert!(x.m.storage.quarantined_nodes().contains(&holders[0]));
    // Health scoring mirrors the quarantine: the tamperer carries tamper
    // evidence and a non-zero suspicion score, while every other node
    // scores clean.
    let census = x.m.storage.node_health();
    let villain = census
        .iter()
        .find(|s| s.node == holders[0])
        .expect("tamperer appears in the census");
    assert!(villain.tamper_shares >= 1 && villain.quarantined);
    assert!(villain.suspicion >= 600);
    for s in census.iter().filter(|s| s.node != holders[0]) {
        assert_eq!(s.suspicion, 0, "honest nodes carry no suspicion");
    }
    assert_no_wedged_escrow(&x.m);
}

#[test]
fn slow_replica_is_hedged() {
    let mut x = setup_locked_exchange(103);
    let cid = ciphertext_cid(&x);
    let holders = replicas_closest_first(&x, &cid);
    // The first-contacted replica answers far above the hedge threshold.
    x.m.storage
        .set_fault_plan(FaultPlan::seeded(103).with_latency(holders[0], 50));
    x.m.seller_settle(&x.seller, &x.listing, x.session.k_v_message(), &mut x.r)
        .expect("settle");
    let report =
        x.m.drive_exchange_to_completion(&mut x.buyer, &x.session)
            .expect("drive");
    assert_eq!(report.outcome, ExchangeOutcome::Settled);
    assert_eq!(report.data.as_ref(), Some(&x.data));
    assert!(
        x.m.robustness().hedges >= 1,
        "the slow replica must have triggered a hedged probe"
    );
    assert_no_wedged_escrow(&x.m);
}

#[test]
fn crashed_replica_fails_over() {
    let mut x = setup_locked_exchange(104);
    let cid = ciphertext_cid(&x);
    let holders = replicas_closest_first(&x, &cid);
    // The closest replica is down from tick 0; the lookup must fail over.
    x.m.storage
        .set_fault_plan(FaultPlan::seeded(104).with_crash_at(holders[0], 0));
    x.m.seller_settle(&x.seller, &x.listing, x.session.k_v_message(), &mut x.r)
        .expect("settle");
    let report =
        x.m.drive_exchange_to_completion(&mut x.buyer, &x.session)
            .expect("drive");
    assert_eq!(report.outcome, ExchangeOutcome::Settled);
    assert_eq!(report.data.as_ref(), Some(&x.data));
    assert_no_wedged_escrow(&x.m);
}

#[test]
fn churn_and_stale_records_fail_over() {
    let mut x = setup_locked_exchange(105);
    let cid = ciphertext_cid(&x);
    let holders = replicas_closest_first(&x, &cid);
    assert!(holders.len() >= 3, "quorum placement should give at least 3 share holders");
    // One replica churns away entirely; another still advertises the block
    // but has garbage-collected it.
    x.m.storage.kill_node(holders[0]);
    x.m.storage
        .set_fault_plan(FaultPlan::seeded(105).with_stale_record(holders[1], cid));
    x.m.seller_settle(&x.seller, &x.listing, x.session.k_v_message(), &mut x.r)
        .expect("settle");
    let report =
        x.m.drive_exchange_to_completion(&mut x.buyer, &x.session)
            .expect("drive");
    assert_eq!(report.outcome, ExchangeOutcome::Settled);
    assert_eq!(report.data.as_ref(), Some(&x.data));
    assert!(
        x.m.robustness().hedges >= 1,
        "the stale record must have triggered a hedged probe"
    );
    assert_no_wedged_escrow(&x.m);
}

#[test]
fn exchange_survives_combined_faults() {
    let mut x = setup_locked_exchange(106);
    let cid = ciphertext_cid(&x);
    let holders = replicas_closest_first(&x, &cid);
    let plan = FaultPlan::seeded(106)
        .with_global_drop(0.2)
        .with_latency(holders[0], 20)
        .with_corrupt_replica(holders[1], cid)
        .with_crash_at(holders[2], 500);
    x.m.storage.set_fault_plan(plan);
    x.m.seller_settle(&x.seller, &x.listing, x.session.k_v_message(), &mut x.r)
        .expect("settle");
    let report =
        x.m.drive_exchange_to_completion(&mut x.buyer, &x.session)
            .expect("drive");
    // Whatever the schedule did, the exchange must be terminal and clean.
    if report.outcome == ExchangeOutcome::Settled {
        assert_eq!(report.data.as_ref(), Some(&x.data));
    }
    assert_terminal_consistent(&report);
    assert_no_wedged_escrow(&x.m);
}

#[test]
fn unrecoverable_ciphertext_aborts_cleanly() {
    // Every replica of the ciphertext is tampered with after settlement:
    // recovery is impossible, but the run must end in a clean Aborted state
    // (escrow released at settlement, token with the buyer) — not a panic,
    // not a wedge.
    let mut x = setup_locked_exchange(107);
    let cid = ciphertext_cid(&x);
    x.m.seller_settle(&x.seller, &x.listing, x.session.k_v_message(), &mut x.r)
        .expect("settle");
    let mut plan = FaultPlan::seeded(107);
    for node in x.m.storage.replica_nodes(&cid) {
        plan = plan.with_corrupt_replica(node, cid);
    }
    x.m.storage.set_fault_plan(plan);
    let report =
        x.m.drive_exchange_to_completion(&mut x.buyer, &x.session)
            .expect("drive");
    assert_eq!(report.outcome, ExchangeOutcome::Aborted);
    assert!(report.data.is_none());
    assert!(report.failure.expect("failure reason").contains("digest"));
    // The token still moved at settlement; the escrow is fully released.
    let owner =
        x.m.chain
            .nft(&x.m.nft_addr)
            .expect("nft")
            .owner_of(x.session.token)
            .expect("owner");
    assert_eq!(owner, x.buyer.address);
    assert_no_wedged_escrow(&x.m);
}

#[test]
fn buyer_refunds_after_seller_timeout() {
    let mut x = setup_locked_exchange(108);
    // Refund before the timeout is refused — and classified transient, so a
    // resilient driver keeps waiting instead of giving up.
    match x.m.buyer_refund(&x.session) {
        Err(e) => {
            assert!(matches!(
                e,
                zkdet_core::ZkdetError::Chain(ChainError::RefundTooEarly { .. })
            ));
            assert_eq!(e.recovery(), zkdet_core::Recovery::Transient);
        }
        Ok(_) => panic!("refund must not be available before the timeout"),
    }

    // The seller never settles; the driver waits out REFUND_TIMEOUT_BLOCKS
    // and reclaims the escrow.
    let report =
        x.m.drive_exchange_to_completion(&mut x.buyer, &x.session)
            .expect("drive");
    assert_eq!(report.outcome, ExchangeOutcome::Refunded);
    assert!(report.blocks_waited >= zkdet_chain::contracts::REFUND_TIMEOUT_BLOCKS);
    assert_eq!(
        x.m.chain.state.balance(&x.buyer.address),
        INITIAL_BALANCE,
        "refund must restore the buyer's full balance"
    );
    assert_eq!(
        x.m.chain.state.balance(&x.seller.address),
        INITIAL_BALANCE,
        "an unsettled seller earns nothing"
    );
    assert_no_wedged_escrow(&x.m);
}

#[test]
fn reorg_and_duplicate_settle_pay_exactly_once() {
    let mut x = setup_locked_exchange(109);
    x.m.seller_settle(&x.seller, &x.listing, x.session.k_v_message(), &mut x.r)
        .expect("settle");
    let settled_at =
        x.m.chain
            .settlement_height(x.m.auction_addr, x.listing.listing)
            .expect("settlement journal records the listing");

    // A shallow re-org orphans the settlement block; its receipts return to
    // the pending pool, and the published k_c is no longer in a mined block.
    let disturbed = x.m.chain.reorg(1);
    assert!(disturbed >= 1);
    assert!(x.m.published_k_c(x.session.listing).is_none());

    // The seller, unsure whether the settle landed, resubmits: the journal
    // recognises the duplicate and the call is an idempotent no-op.
    x.m.seller_settle(&x.seller, &x.listing, x.session.k_v_message(), &mut x.r)
        .expect("duplicate settle is idempotent");
    assert_eq!(
        x.m.chain
            .settlement_height(x.m.auction_addr, x.listing.listing),
        Some(settled_at)
    );

    // Re-mine the orphaned receipts and finish the exchange.
    x.m.chain.mine_block();
    let report =
        x.m.drive_exchange_to_completion(&mut x.buyer, &x.session)
            .expect("drive");
    assert_eq!(report.outcome, ExchangeOutcome::Settled);
    assert_eq!(report.data.as_ref(), Some(&x.data));

    // Paid exactly once despite the replay.
    assert_eq!(
        x.m.chain.state.balance(&x.seller.address),
        INITIAL_BALANCE + x.session.price
    );
    assert_eq!(
        x.m.chain.state.balance(&x.buyer.address),
        INITIAL_BALANCE - x.session.price
    );
    assert_no_wedged_escrow(&x.m);
}

#[test]
fn redundancy_recovers_after_storage_churn() {
    // Two share holders churn away mid-exchange. The drive loop's repair
    // ticks must re-encode and re-place the lost shares, so the run ends
    // not just settled but with *full* redundancy restored — churn may
    // not leave the blob permanently one fault from loss.
    let mut x = setup_locked_exchange(111);
    let cid = ciphertext_cid(&x);
    let holders = replicas_closest_first(&x, &cid);
    x.m.storage.kill_node(holders[0]);
    x.m.storage.kill_node(holders[1]);
    assert!(
        x.m.storage.pending_repairs() > 0,
        "churn must enqueue repair work"
    );
    x.m.seller_settle(&x.seller, &x.listing, x.session.k_v_message(), &mut x.r)
        .expect("settle");
    let report =
        x.m.drive_exchange_to_completion(&mut x.buyer, &x.session)
            .expect("drive");
    assert_eq!(report.outcome, ExchangeOutcome::Settled);
    assert_eq!(report.data.as_ref(), Some(&x.data));
    assert!(
        x.m.robustness().repaired_shares >= 2,
        "the drive loop's repair ticks must have re-placed the lost shares"
    );
    let durability =
        x.m.storage
            .durability_report(&cid)
            .expect("exchanged ciphertext still tracked");
    assert!(
        durability.fully_redundant(),
        "repair must restore every share slot, got {}/{} intact",
        durability.intact_shares,
        durability.total_shares
    );
    assert_eq!(x.m.storage.pending_repairs(), 0);
    assert_acked_publishes_durable(&x.m);
    assert_no_wedged_escrow(&x.m);
}

#[test]
fn byzantine_quorum_exchange_settles_within_fault_budget() {
    // The headline acceptance scenario: of the 8 share holders, 2 serve
    // forged shares (Byzantine) and 2 are crashed — exactly the n − k = 4
    // fault budget. The exchange must settle with the exact plaintext,
    // the forgers must be caught with share-level attribution, and the
    // whole run must replay byte-identically under the fixed seed.
    let run = || {
        let mut x = setup_locked_exchange(112);
        let cid = ciphertext_cid(&x);
        let holders = replicas_closest_first(&x, &cid);
        assert!(holders.len() >= 8, "quorum publish spreads 8 shares");
        let plan = FaultPlan::seeded(112)
            .with_byzantine_node(holders[0])
            .with_byzantine_node(holders[1])
            .with_crash_at(holders[2], 0)
            .with_crash_at(holders[3], 0);
        x.m.storage.set_fault_plan(plan);
        x.m.seller_settle(&x.seller, &x.listing, x.session.k_v_message(), &mut x.r)
            .expect("settle");
        let report =
            x.m.drive_exchange_to_completion(&mut x.buyer, &x.session)
                .expect("drive");
        assert_eq!(report.outcome, ExchangeOutcome::Settled);
        assert_eq!(report.data.as_ref(), Some(&x.data));
        // Both forgers were caught, and the evidence names the slot.
        let evidence = x.m.storage.tamper_evidence();
        assert!(!evidence.is_empty(), "forged shares must leave evidence");
        assert!(evidence
            .iter()
            .all(|e| e.node == holders[0] || e.node == holders[1]));
        for villain in &holders[..2] {
            assert!(x.m.storage.quarantined_nodes().contains(villain));
        }
        // Every acked publish is still reconstructible, and a repair pass
        // restores what the faults degraded.
        assert_acked_publishes_durable(&x.m);
        let _ = x.m.storage.run_pending_repairs();
        assert_no_wedged_escrow(&x.m);
        (
            report.outcome,
            report.data,
            x.m.robustness(),
            evidence,
            x.m.storage.durability_report(&cid),
        )
    };
    assert_eq!(run(), run(), "fixed seed must replay byte-identically");
}

#[test]
fn withheld_acks_reject_publish_cleanly() {
    // A publish whose write quorum is starved by ack-withholding nodes
    // must fail loudly — a clean, abortable error before anything touches
    // the chain — never an unacknowledged write that quietly exists.
    let mut r = rng(113);
    let mut m = Marketplace::bootstrap(1 << 14, 10, &mut r).expect("bootstrap");
    let mut seller = m.register();
    let ids = m.storage.node_ids();
    let mut plan = FaultPlan::seeded(113);
    // 5 withholders of 10 nodes: at most 5 of the 8 share holders can
    // ack, below the write quorum of 6.
    for id in &ids[..5] {
        plan = plan.with_ack_withholding(*id);
    }
    m.storage.set_fault_plan(plan);
    let data = Dataset::from_entries(vec![Fr::from(7u64), Fr::from(8u64)]);
    let err = m
        .publish_original(&mut seller, data.clone(), &mut r)
        .expect_err("starved write quorum must reject the publish");
    assert!(
        matches!(
            err,
            ZkdetError::Storage(StorageError::InsufficientAcks { .. })
        ),
        "got {err:?}"
    );
    assert_eq!(err.recovery(), zkdet_core::Recovery::AbortAndRefund);
    // Nothing was acknowledged, nothing reached the chain.
    assert!(m.storage.acknowledged_publishes().is_empty());
    // Once the network heals, the same publish goes through.
    m.storage.set_fault_plan(FaultPlan::none());
    let token = m
        .publish_original(&mut seller, data, &mut r)
        .expect("publish after the network heals");
    assert_eq!(
        m.storage.acknowledged_publishes().len(),
        2,
        "ciphertext and proof bundle both acked"
    );
    assert!(m.chain.nft(&m.nft_addr).expect("nft").owner_of(token).is_ok());
    assert_acked_publishes_durable(&m);
}

#[test]
fn inert_fault_plan_changes_nothing() {
    // Acceptance guard: with every fault off, the resilient pipeline ends in
    // the same place as the plain one — same plaintext, same balances, zero
    // robustness anomalies.
    let mut x = setup_locked_exchange(110);
    x.m.storage.set_fault_plan(FaultPlan::seeded(110)); // inert
    x.m.seller_settle(&x.seller, &x.listing, x.session.k_v_message(), &mut x.r)
        .expect("settle");
    let report =
        x.m.drive_exchange_to_completion(&mut x.buyer, &x.session)
            .expect("drive");
    assert_eq!(report.outcome, ExchangeOutcome::Settled);
    assert_eq!(report.data.as_ref(), Some(&x.data));
    assert_eq!(report.recover_attempts, 1);
    let rb = x.m.robustness();
    assert_eq!(rb.attempts, rb.retrievals, "one attempt per fetch");
    assert_eq!(rb.hedges, 0);
    assert_eq!(rb.quarantined, 0);
    assert_eq!(rb.backoff_ticks, 0);
    assert_no_wedged_escrow(&x.m);
}

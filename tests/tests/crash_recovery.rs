//! Kill-at-every-step crash-recovery harness.
//!
//! The process model: the exchange runs through the journaled step
//! wrappers, which append an intent record to the [`ExchangeWal`] before
//! every side effect; the chain records whether it landed. A crash is injected
//! at the *n*-th append — cleanly (the record never makes it) or torn
//! (a prefix of the frame survives) — which makes every record boundary
//! of every schedule a crash point. The "restart" reopens the journal
//! from its durable bytes (the chain and storage network are durable
//! external systems; session state and undurable appends are lost) and
//! calls [`Marketplace::recover`], which must drive every in-flight
//! exchange to a terminal state upholding the shared invariants:
//! no wedged escrow, exactly-once payment, coherent audit caches.
//!
//! Schedules are seed-derived and cycle through storage-fault flavours
//! (inert, request drops, slow replica, stale record, corrupt replica,
//! node churn) plus a seller-withholding flavour that must end in a
//! refund. The churn flavour removes the closest share holder outright,
//! so every crash point also exercises the repair scheduler's re-spread
//! of the lost erasure shares. The schedule count is
//! `ZKDET_CRASH_SCHEDULES` (default 2 for local runs; CI runs ≥ 100).

use rand::rngs::StdRng;
use zkdet_chain::contracts::{ListingId, REFUND_TIMEOUT_BLOCKS};
use zkdet_chain::Event;
use zkdet_circuits::exchange::RangePredicate;
use zkdet_core::journal::PayIntent;
use zkdet_core::{
    DataOwner, Dataset, ExchangeOutcome, ExchangeRecord, ExchangeReport, ExchangeWal, Marketplace,
    Recovery, RecoveryOutcome, ZkdetError,
};
use zkdet_field::Fr;
use zkdet_plonk::Plonk;
use zkdet_storage::{xor_distance, FaultPlan, RetrievalPolicy};
use zkdet_tests::invariants::{
    assert_exchange_invariants, assert_no_wedged_escrow, assert_paid_exactly_once,
    assert_terminal_consistent, INITIAL_BALANCE,
};
use zkdet_tests::rng;
use zkdet_wal::CrashMode;

fn schedule_count() -> u64 {
    std::env::var("ZKDET_CRASH_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// One seeded chaos schedule: a storage-fault flavour plus whether the
/// seller settles at all.
#[derive(Clone, Copy, Debug)]
struct Schedule {
    seed: u64,
    kind: u64,
}

impl Schedule {
    fn new(seed: u64) -> Self {
        Schedule {
            seed,
            kind: seed % 7,
        }
    }

    fn seller_withholds(&self) -> bool {
        self.kind == 5
    }
}

/// One fresh exchange attempt inside a shared marketplace: its own
/// seller, buyer, token, journal, and fault plan.
struct Life {
    seller: DataOwner,
    buyer: DataOwner,
    data: Dataset,
    token: zkdet_chain::TokenId,
}

fn fresh_life(m: &mut Marketplace, sched: Schedule, r: &mut StdRng) -> Life {
    let mut seller = m.register();
    let buyer = m.register();
    let data = Dataset::from_entries(vec![Fr::from(7u64), Fr::from(13u64)]);
    let token = m
        .publish_original(&mut seller, data.clone(), r)
        .expect("publish");
    // Install the schedule's fault plan now that the ciphertext CID (and
    // its replica set) exist.
    let cid = m
        .chain
        .nft(&m.nft_addr)
        .expect("nft")
        .token_meta(token)
        .expect("meta")
        .cid;
    let mut replicas = m.storage.replica_nodes(&cid);
    replicas.sort_by_key(|n| xor_distance(n, &cid));
    let plan = match sched.kind {
        1 => FaultPlan::seeded(sched.seed).with_global_drop(0.25),
        2 => FaultPlan::seeded(sched.seed).with_latency(replicas[0], 20),
        3 => FaultPlan::seeded(sched.seed).with_stale_record(replicas[0], cid),
        4 => FaultPlan::seeded(sched.seed).with_corrupt_replica(replicas[0], cid),
        6 => {
            // Churn: the closest share holder leaves the network for good
            // and the repair scheduler must re-spread its erasure shares
            // while the exchange keeps crashing and recovering. A cluster
            // floor keeps many schedules from whittling the network below
            // its write quorum; past the floor, the holder merely crashes
            // for this life instead of leaving.
            if m.storage.node_ids().len() > 8 {
                m.storage.kill_node(replicas[0]);
                FaultPlan::seeded(sched.seed)
            } else {
                FaultPlan::seeded(sched.seed).with_crash_at(replicas[0], 0)
            }
        }
        _ => FaultPlan::seeded(sched.seed), // inert (kinds 0 and 5)
    };
    m.storage.set_fault_plan(plan);
    Life {
        seller,
        buyer,
        data,
        token,
    }
}

/// Drives one exchange through the journaled steps. Any error — most
/// importantly the injected `WalError::Crashed` — propagates.
fn journaled_flow(
    m: &mut Marketplace,
    wal: &mut ExchangeWal,
    life: &mut Life,
    withhold: bool,
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
    if !withhold {
        m.journaled_seller_settle(wal, &life.seller, &listing, session.k_v_message(), r)?;
    }
    m.journaled_drive_to_completion(wal, &mut life.buyer, &session)
}

/// Runs one schedule end-to-end with a crash at append `crash_at`
/// (`None` = probe run, no crash), restarts, recovers, and checks every
/// terminal-state invariant. Returns the number of WAL appends the
/// uncrashed flow makes, so the caller can enumerate crash points.
fn run_crash_point(
    m: &mut Marketplace,
    sched: Schedule,
    crash_at: Option<(u64, CrashMode)>,
    r: &mut StdRng,
) -> u64 {
    let mut life = fresh_life(m, sched, r);
    let mut wal = ExchangeWal::new();
    if let Some((after, mode)) = crash_at {
        wal.set_crash_after(after, mode);
    }
    let withhold = sched.seller_withholds();

    match journaled_flow(m, &mut wal, &mut life, withhold, r) {
        Ok(report) => {
            // The flow outran the crash point (or none was set): it must
            // already be terminal and clean.
            assert!(
                crash_at.is_none() || wal.record_count() < crash_at.expect("crash point").0,
                "a crashed flow cannot return Ok"
            );
            if report.outcome == ExchangeOutcome::Settled {
                assert_eq!(report.data.as_ref(), Some(&life.data));
            }
            assert_exchange_invariants(
                m,
                life.seller.address,
                life.buyer.address,
                life.token,
                &report,
                r,
            );
        }
        Err(e) => {
            // Only the injected crash may abort the flow, and it must be
            // classified fatal (restart-and-recover, not retry).
            assert!(
                matches!(&e, ZkdetError::Journal(zkdet_wal::WalError::Crashed)),
                "unexpected flow error: {e}"
            );
            assert_eq!(e.recovery(), Recovery::Fatal);

            // ---- restart: sessions die, durable bytes survive ---------
            let mut wal = ExchangeWal::open(wal.durable_bytes().to_vec()).expect("reopen journal");
            let seller = if withhold { None } else { Some(&life.seller) };
            let report = m
                .recover(&mut wal, seller, &mut life.buyer, r)
                .expect("recovery");
            assert_no_wedged_escrow(m);

            match report.exchanges.as_slice() {
                // Crash before the first record became durable: nothing
                // happened, nothing to recover.
                [] => {
                    assert_eq!(m.chain.state.balance(&life.seller.address), INITIAL_BALANCE);
                    assert_eq!(m.chain.state.balance(&life.buyer.address), INITIAL_BALANCE);
                }
                [ex] => {
                    assert_eq!(ex.token, life.token);
                    match &ex.outcome {
                        RecoveryOutcome::Listed => {
                            // No buyer funds at risk; both parties whole.
                            assert_eq!(
                                m.chain.state.balance(&life.buyer.address),
                                INITIAL_BALANCE
                            );
                        }
                        RecoveryOutcome::Completed(rep) => {
                            assert_terminal_consistent(rep);
                            if rep.outcome == ExchangeOutcome::Settled {
                                assert_eq!(rep.data.as_ref(), Some(&life.data));
                            }
                            if withhold {
                                assert_eq!(
                                    rep.outcome,
                                    ExchangeOutcome::Refunded,
                                    "a withholding seller must end in a refund"
                                );
                            }
                            assert_paid_exactly_once(
                                m,
                                life.seller.address,
                                life.buyer.address,
                                &rep.outcome,
                            );
                        }
                        RecoveryOutcome::AlreadyTerminal(_) => {
                            panic!("first recovery cannot find a terminal journal")
                        }
                    }
                }
                more => panic!("one journal, one exchange — got {}", more.len()),
            }

            // ---- recovery is idempotent: a second replay is a no-op ----
            let before_seller = m.chain.state.balance(&life.seller.address);
            let before_buyer = m.chain.state.balance(&life.buyer.address);
            let again = m
                .recover(&mut wal, seller, &mut life.buyer, r)
                .expect("second recovery");
            for ex in &again.exchanges {
                assert!(
                    matches!(
                        ex.outcome,
                        RecoveryOutcome::AlreadyTerminal(_) | RecoveryOutcome::Listed
                    ),
                    "second recovery must not re-drive: {:?}",
                    ex.outcome
                );
            }
            assert_eq!(m.chain.state.balance(&life.seller.address), before_seller);
            assert_eq!(m.chain.state.balance(&life.buyer.address), before_buyer);
        }
    }
    // Reset the schedule's infrastructure damage so the next crash point
    // starts from a healthy network (the chain state stays, as it would).
    m.storage.set_fault_plan(FaultPlan::none());
    m.storage.clear_quarantine();
    wal_final_count(crash_at, &wal)
}

/// Appends the uncrashed probe run made (meaningless after a crash run).
fn wal_final_count(crash_at: Option<(u64, CrashMode)>, wal: &ExchangeWal) -> u64 {
    if crash_at.is_none() {
        wal.record_count()
    } else {
        0
    }
}

#[test]
fn kill_at_every_step_always_terminates_clean() {
    let schedules = schedule_count();
    let mut r = rng(0xC4A5);
    let mut m = Marketplace::bootstrap(1 << 14, 10, &mut r).expect("bootstrap");
    // Deterministic jittered backoff: replays of a schedule stay
    // byte-identical because the jitter is salted by the plan seed.
    m.set_retrieval_policy(RetrievalPolicy {
        jitter_ticks: 3,
        ..RetrievalPolicy::default()
    });

    for s in 0..schedules {
        let sched = Schedule::new(0x5EED_0000 + s);
        // Probe: count the appends of the uncrashed flow, which
        // enumerates this schedule's crash points.
        let records = run_crash_point(&mut m, sched, None, &mut r);
        // Settled: list, pay, settle and retrieve intents, then terminal.
        // Withheld: list, pay and refund intents, then terminal.
        let min = if sched.seller_withholds() { 4 } else { 5 };
        assert!(records >= min, "clean flow journals every step: {records}");

        for k in 1..=records {
            let mode = if k % 2 == 1 {
                CrashMode::Torn
            } else {
                CrashMode::Clean
            };
            run_crash_point(&mut m, sched, Some((k, mode)), &mut r);
        }
    }
}

#[test]
fn recovery_resumes_after_crash_between_settle_and_retrieve() {
    // A focused probe of the trickiest window: the settlement landed on
    // chain but the RetrieveIntent record did not. Recovery must NOT
    // settle twice (exactly-once via the settlement journal) and the
    // buyer must still decrypt.
    let mut r = rng(0xC4A6);
    let mut m = Marketplace::bootstrap(1 << 14, 10, &mut r).expect("bootstrap");
    let sched = Schedule::new(0); // inert faults, seller settles
    let mut life = fresh_life(&mut m, sched, &mut r);
    let mut wal = ExchangeWal::new();
    // Clean flow appends: ListIntent, PayIntent, SettleIntent → crash on
    // the 4th append (RetrieveIntent), strictly after the on-chain
    // settlement succeeded.
    wal.set_crash_after(4, CrashMode::Clean);
    let err = journaled_flow(&mut m, &mut wal, &mut life, false, &mut r)
        .expect_err("flow must crash at the settle boundary");
    assert!(matches!(
        err,
        ZkdetError::Journal(zkdet_wal::WalError::Crashed)
    ));
    let settled_at = m
        .chain
        .settlement_height(m.auction_addr, ListingId(0))
        .expect("settlement landed before the crash");

    let mut wal = ExchangeWal::open(wal.durable_bytes().to_vec()).expect("reopen");
    let report = m
        .recover(&mut wal, Some(&life.seller), &mut life.buyer, &mut r)
        .expect("recover");
    let [ex] = report.exchanges.as_slice() else {
        panic!("expected exactly one recovered exchange");
    };
    let RecoveryOutcome::Completed(rep) = &ex.outcome else {
        panic!("expected a completed exchange, got {:?}", ex.outcome);
    };
    assert_eq!(rep.outcome, ExchangeOutcome::Settled);
    assert_eq!(rep.data.as_ref(), Some(&life.data));
    // Exactly once: the settlement height did not move.
    assert_eq!(
        m.chain.settlement_height(m.auction_addr, ListingId(0)),
        Some(settled_at)
    );
    assert_exchange_invariants(
        &mut m,
        life.seller.address,
        life.buyer.address,
        life.token,
        rep,
        &mut r,
    );
}

/// The chain events (mined and pending) that `pick` selects.
fn count_events(m: &Marketplace, pick: impl Fn(&Event) -> bool) -> usize {
    m.chain
        .blocks()
        .iter()
        .flat_map(|block| &block.receipts)
        .chain(m.chain.pending_receipts())
        .flat_map(|receipt| &receipt.events)
        .filter(|event| pick(event))
        .count()
}

#[test]
fn recovery_settles_once_after_crash_between_prove_and_submit() {
    // The window between proving π_k and submitting it journals nothing,
    // so kill-at-every-step never lands in it: the process dies here
    // with a proof in memory and only the SettleIntent durable.
    let mut r = rng(0xC4A7);
    let mut m = Marketplace::bootstrap(1 << 14, 10, &mut r).expect("bootstrap");
    let mut life = fresh_life(&mut m, Schedule::new(0), &mut r);
    let mut wal = ExchangeWal::new();
    let listing = m
        .journaled_list_for_sale(
            &mut wal,
            &life.seller,
            life.token,
            100,
            50,
            1,
            "u8".into(),
            &mut r,
        )
        .expect("list");
    let pkg = m
        .seller_validation_package(&life.seller, life.token, RangePredicate { bits: 8 }, &mut r)
        .expect("π_p");
    let session = m
        .journaled_validate_and_lock(&mut wal, &life.buyer, listing.listing, &pkg, &mut r)
        .expect("lock");
    let witness = m
        .seller_begin_settlement(&mut wal, &life.seller, &listing, session.k_v_message())
        .expect("begin settlement")
        .expect("not settled yet");
    let (pk, vk) = Plonk::preprocess(m.key_registry().srs(), &witness.circuit).expect("keys");
    assert_eq!(
        vk.to_bytes(),
        m.keyneg_vk().to_bytes(),
        "the deployment's π_k relation"
    );
    Plonk::prove(&pk, &witness.circuit, &mut r).expect("π_k");
    // ---- crash: the proof dies with the process, unsubmitted ----------
    assert!(m
        .chain
        .settlement_height(m.auction_addr, listing.listing)
        .is_none());

    let mut wal = ExchangeWal::open(wal.durable_bytes().to_vec()).expect("reopen");
    let settle_k_v = match wal.records().expect("replay").as_slice() {
        [ExchangeRecord::ListIntent(_), ExchangeRecord::PayIntent(_), ExchangeRecord::SettleIntent(s)] => {
            s.k_v
        }
        other => panic!("journal must end at the settle intent: {other:?}"),
    };
    let report = m
        .recover(&mut wal, Some(&life.seller), &mut life.buyer, &mut r)
        .expect("recover");
    let [ex] = report.exchanges.as_slice() else {
        panic!("expected exactly one recovered exchange");
    };
    assert_eq!(ex.resumed_from, "settle");
    let RecoveryOutcome::Completed(rep) = &ex.outcome else {
        panic!("expected a completed exchange, got {:?}", ex.outcome);
    };
    assert_eq!(rep.outcome, ExchangeOutcome::Settled);
    assert_eq!(rep.data.as_ref(), Some(&life.data));
    // Exactly once, under the journaled k_v: one published k_c, and it
    // blinds the key with the SettleIntent's k_v.
    let published = count_events(
        &m,
        |e| matches!(e, Event::KeyPublished { listing: l, .. } if *l == listing.listing),
    );
    assert_eq!(published, 1);
    let key = life.seller.secret(life.token).expect("seller key").key;
    assert_eq!(m.published_k_c(listing.listing), Some(key + settle_k_v));
    assert_eq!(witness.k_c, key + settle_k_v);
    assert_exchange_invariants(
        &mut m,
        life.seller.address,
        life.buyer.address,
        life.token,
        rep,
        &mut r,
    );
}

#[test]
fn recovery_reports_a_landed_refund_without_settling() {
    // A withheld flow dies on its Terminal append, after the refund
    // landed: the journal ends at RefundIntent, the chain holds the
    // refund. The seller is back, so only the refund intent keeps
    // recovery from trying to settle an open listing.
    let mut r = rng(0xC4A8);
    let mut m = Marketplace::bootstrap(1 << 14, 10, &mut r).expect("bootstrap");
    let sched = Schedule::new(5);
    assert!(sched.seller_withholds());
    let mut life = fresh_life(&mut m, sched, &mut r);
    let mut wal = ExchangeWal::new();
    wal.set_crash_after(4, CrashMode::Clean);
    let err = journaled_flow(&mut m, &mut wal, &mut life, true, &mut r)
        .expect_err("flow must crash on its terminal record");
    assert!(matches!(
        err,
        ZkdetError::Journal(zkdet_wal::WalError::Crashed)
    ));
    let buyer = life.buyer.address;
    let refunds = |m: &Marketplace| {
        count_events(
            m,
            |e| matches!(e, Event::Refunded { buyer: b, .. } if *b == buyer),
        )
    };
    assert_eq!(refunds(&m), 1, "the refund landed before the crash");

    let mut wal = ExchangeWal::open(wal.durable_bytes().to_vec()).expect("reopen");
    let report = m
        .recover(&mut wal, Some(&life.seller), &mut life.buyer, &mut r)
        .expect("recover");
    let [ex] = report.exchanges.as_slice() else {
        panic!("expected exactly one recovered exchange");
    };
    assert_eq!(ex.resumed_from, "refund");
    let RecoveryOutcome::Completed(rep) = &ex.outcome else {
        panic!("expected a completed exchange, got {:?}", ex.outcome);
    };
    assert_eq!(rep.outcome, ExchangeOutcome::Refunded);
    let listing = ex.listing.expect("listing");
    assert_eq!(m.chain.settlement_height(m.auction_addr, listing), None);
    assert_eq!(refunds(&m), 1, "refunded exactly once");
    assert_paid_exactly_once(&m, life.seller.address, life.buyer.address, &rep.outcome);
    assert_no_wedged_escrow(&m);

    // A second recovery finds the Terminal record and appends nothing.
    let count = wal.record_count();
    let again = m
        .recover(&mut wal, Some(&life.seller), &mut life.buyer, &mut r)
        .expect("second recovery");
    assert!(matches!(
        again.exchanges.as_slice(),
        [ex] if matches!(ex.outcome, RecoveryOutcome::AlreadyTerminal(ExchangeOutcome::Refunded))
    ));
    assert_eq!(wal.record_count(), count);
}

#[test]
fn recovery_reports_a_refunded_buyer_after_another_buyer_locked() {
    // Buyer A's journaled flow locks listing L, is refunded, and dies on
    // its Terminal append. Buyer B then locks L under a journal of its
    // own. Recovering A's journal must report A's landed refund, whoever
    // holds L now, and move nothing.
    let mut r = rng(0xC4AA);
    let mut m = Marketplace::bootstrap(1 << 14, 10, &mut r).expect("bootstrap");
    let mut life = fresh_life(&mut m, Schedule::new(5), &mut r);
    let mut wal_a = ExchangeWal::new();
    wal_a.set_crash_after(4, CrashMode::Clean);
    let err = journaled_flow(&mut m, &mut wal_a, &mut life, true, &mut r)
        .expect_err("A's flow must crash on its terminal record");
    assert!(matches!(
        err,
        ZkdetError::Journal(zkdet_wal::WalError::Crashed)
    ));

    let mut wal_a = ExchangeWal::open(wal_a.durable_bytes().to_vec()).expect("reopen");
    let mut wal_b = ExchangeWal::new();
    let listing = match wal_a.records().expect("replay").as_slice() {
        [ExchangeRecord::ListIntent(_), ExchangeRecord::PayIntent(pay), ExchangeRecord::RefundIntent(_)] => {
            pay.listing
        }
        other => panic!("A's journal must end at the refund intent: {other:?}"),
    };
    let buyer_b = m.register();
    let pkg = m
        .seller_validation_package(&life.seller, life.token, RangePredicate { bits: 8 }, &mut r)
        .expect("π_p");
    m.journaled_validate_and_lock(&mut wal_b, &buyer_b, listing, &pkg, &mut r)
        .expect("B locks");

    let parties = [
        life.seller.address,
        life.buyer.address,
        buyer_b.address,
        m.auction_addr,
    ];
    let balances = |m: &Marketplace| parties.map(|a| m.chain.state.balance(&a));
    let before = balances(&m);
    let report = m
        .recover(&mut wal_a, Some(&life.seller), &mut life.buyer, &mut r)
        .expect("recover A");
    let [ex] = report.exchanges.as_slice() else {
        panic!("expected exactly one recovered exchange");
    };
    let RecoveryOutcome::Completed(rep) = &ex.outcome else {
        panic!("expected a completed exchange, got {:?}", ex.outcome);
    };
    assert_eq!(rep.outcome, ExchangeOutcome::Refunded);
    assert_eq!(ex.listing, Some(listing));
    assert_eq!(balances(&m), before, "recovering A moved funds");
    assert_eq!(m.chain.settlement_height(m.auction_addr, listing), None);

    let count = wal_a.record_count();
    let again = m
        .recover(&mut wal_a, Some(&life.seller), &mut life.buyer, &mut r)
        .expect("second recovery");
    assert!(matches!(
        again.exchanges.as_slice(),
        [ex] if matches!(ex.outcome, RecoveryOutcome::AlreadyTerminal(ExchangeOutcome::Refunded))
    ));
    assert_eq!(wal_a.record_count(), count);
    assert_eq!(balances(&m), before);
}

#[test]
fn a_refunded_buyer_driven_again_after_another_buyer_locked_stays_refunded() {
    // Buyer A locks listing L and is refunded; buyer B then locks L.
    // Driving A's session again must report A's landed refund at once,
    // both while B waits on the seller and after B settled, and move
    // nothing: no refund of a lock A no longer holds, no unblinding of
    // B's k_c with A's k_v.
    let mut r = rng(0xC4AB);
    let mut m = Marketplace::bootstrap(1 << 14, 10, &mut r).expect("bootstrap");
    let life = fresh_life(&mut m, Schedule::new(0), &mut r);
    let listing = m
        .list_for_sale(&life.seller, life.token, 100, 50, 1, "u8".into(), &mut r)
        .expect("list");
    let pkg = m
        .seller_validation_package(&life.seller, life.token, RangePredicate { bits: 8 }, &mut r)
        .expect("π_p");
    let mut buyer_a = m.register();
    let session_a = m
        .buyer_validate_and_lock(&buyer_a, listing.listing, &pkg, &mut r)
        .expect("A locks");
    for _ in 0..REFUND_TIMEOUT_BLOCKS {
        m.chain.mine_block();
    }
    let rep = m
        .drive_exchange_to_completion(&mut buyer_a, &session_a)
        .expect("A's refund");
    assert_eq!(rep.outcome, ExchangeOutcome::Refunded);

    let buyer_b = m.register();
    let session_b = m
        .buyer_validate_and_lock(&buyer_b, listing.listing, &pkg, &mut r)
        .expect("B locks");
    let parties = [
        life.seller.address,
        buyer_a.address,
        buyer_b.address,
        m.auction_addr,
    ];
    let balances = |m: &Marketplace| parties.map(|a| m.chain.state.balance(&a));
    let mut drive_a_again = |m: &mut Marketplace, case: &str| {
        let before = balances(m);
        let mut wal = ExchangeWal::new();
        let rep = m
            .journaled_drive_to_completion(&mut wal, &mut buyer_a, &session_a)
            .unwrap_or_else(|e| panic!("{case}: driving A again: {e}"));
        assert_eq!(rep.outcome, ExchangeOutcome::Refunded, "{case}");
        assert_eq!(rep.blocks_waited, 0, "{case}: A waited on B's lock");
        // At most a retrieve attempt (B's k_c, which A cannot unblind)
        // before the terminal record; never a refund intent.
        let records = wal.records().expect("replay");
        assert!(
            matches!(
                records.as_slice(),
                [ExchangeRecord::Terminal(t)]
                    | [ExchangeRecord::RetrieveIntent(_), ExchangeRecord::Terminal(t)]
                    if t.reason == "refund landed before the crash"
            ),
            "{case}: {records:?}"
        );
        assert_eq!(balances(m), before, "{case}: driving A again moved funds");
    };
    drive_a_again(&mut m, "B waiting");
    m.seller_settle(&life.seller, &listing, session_b.k_v_message(), &mut r)
        .expect("settle to B");
    drive_a_again(&mut m, "B settled");
    let owner = m
        .chain
        .nft(&m.nft_addr)
        .expect("nft")
        .owner_of(life.token)
        .expect("owner");
    assert_eq!(owner, buyer_b.address);
    assert!(buyer_a.secret(life.token).is_none(), "A learned B's key");
}

#[test]
fn recovery_relocks_for_a_buyer_whose_lock_never_landed() {
    // Buyer A locks listing L and is refunded; buyer B's pay intent is
    // durable but B's lock never landed. The chain's lock on L is A's,
    // so recovery must re-lock for B and settle, not read A's refund as
    // B's.
    let mut r = rng(0xC4A9);
    let mut m = Marketplace::bootstrap(1 << 14, 10, &mut r).expect("bootstrap");
    let mut life = fresh_life(&mut m, Schedule::new(0), &mut r);
    let mut wal = ExchangeWal::new();
    let listing = m
        .journaled_list_for_sale(
            &mut wal,
            &life.seller,
            life.token,
            100,
            50,
            1,
            "u8".into(),
            &mut r,
        )
        .expect("list");
    let pkg = m
        .seller_validation_package(&life.seller, life.token, RangePredicate { bits: 8 }, &mut r)
        .expect("π_p");

    let mut buyer_a = m.register();
    let session_a = m
        .buyer_validate_and_lock(&buyer_a, listing.listing, &pkg, &mut r)
        .expect("A locks");
    for _ in 0..REFUND_TIMEOUT_BLOCKS {
        m.chain.mine_block();
    }
    let rep_a = m
        .drive_exchange_to_completion(&mut buyer_a, &session_a)
        .expect("A's refund");
    assert_eq!(rep_a.outcome, ExchangeOutcome::Refunded);

    // B's pay intent, journaled; the process dies before the lock.
    let commitment = m
        .chain
        .nft(&m.nft_addr)
        .expect("nft")
        .token_meta(life.token)
        .expect("meta")
        .commitment;
    wal.append(&ExchangeRecord::PayIntent(PayIntent {
        listing: listing.listing,
        token: life.token,
        buyer: life.buyer.address,
        k_v: Fr::from(0xB0B_u64),
        expected_commitment: commitment,
    }))
    .expect("pay intent");

    let mut wal = ExchangeWal::open(wal.durable_bytes().to_vec()).expect("reopen");
    let report = m
        .recover(&mut wal, Some(&life.seller), &mut life.buyer, &mut r)
        .expect("recover");
    let [ex] = report.exchanges.as_slice() else {
        panic!("expected exactly one recovered exchange");
    };
    assert_eq!(ex.listing, Some(listing.listing));
    let RecoveryOutcome::Completed(rep) = &ex.outcome else {
        panic!("expected a completed exchange, got {:?}", ex.outcome);
    };
    assert_eq!(
        rep.outcome,
        ExchangeOutcome::Settled,
        "B was re-locked and served"
    );
    assert_eq!(rep.data.as_ref(), Some(&life.data));
    let locks_by_b = count_events(&m, |e| {
        matches!(e, Event::AuctionLocked { listing: l, buyer, .. }
            if *l == listing.listing && *buyer == life.buyer.address)
    });
    assert_eq!(locks_by_b, 1);
    assert_eq!(m.chain.state.balance(&buyer_a.address), INITIAL_BALANCE);
    assert_paid_exactly_once(&m, life.seller.address, life.buyer.address, &rep.outcome);
    assert_no_wedged_escrow(&m);
}

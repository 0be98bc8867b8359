//! Sharded crash-recovery: kill-at-every-step across per-shard journals.
//!
//! The sharded marketplace keeps one write-ahead exchange journal per
//! shard, and [`ShardedMarketplace::recover`] replays them in shard-index
//! order — a deterministic total order over journals. This harness
//! crashes a two-shard deployment at every record boundary: shard 0 runs
//! a key-secure exchange whose seller settles, shard 1 one whose seller
//! withholds, each against its own journal with its own injected crash
//! point. The restart reopens both journals from their durable bytes and
//! recovers the whole deployment in one call, which must leave every
//! shard terminal and paid **exactly once**:
//!
//! * shard 0 settles: its settlement height must not move when recovery
//!   replays a journal whose settlement already landed;
//! * shard 1's seller is gone, so its buyer is refunded and the seller
//!   earns nothing;
//! * neither auction contract holds escrow afterwards, and a second
//!   recovery is a balance-preserving no-op.

use rand::rngs::StdRng;
use zkdet_chain::contracts::ListingId;
use zkdet_circuits::exchange::RangePredicate;
use zkdet_core::{
    DataOwner, Dataset, ExchangeOutcome, ExchangeWal, MarketShard, RecoveryOutcome, RecoveryReport,
    ShardParties, ShardedMarketplace, ZkdetError,
};
use zkdet_field::Fr;
use zkdet_tests::invariants::{
    assert_no_wedged_escrow, assert_paid_exactly_once, assert_terminal_consistent, INITIAL_BALANCE,
};
use zkdet_tests::rng;
use zkdet_wal::CrashMode;

struct ExchangeLife {
    seller: DataOwner,
    buyer: DataOwner,
    data: Dataset,
    token: zkdet_chain::TokenId,
}

fn fresh_exchange_life(shard: &mut MarketShard, r: &mut StdRng) -> ExchangeLife {
    let mut seller = shard.market.register();
    let buyer = shard.market.register();
    let data = Dataset::from_entries(vec![Fr::from(7u64), Fr::from(13u64)]);
    let token = shard
        .market
        .publish_original(&mut seller, data.clone(), r)
        .expect("publish");
    ExchangeLife {
        seller,
        buyer,
        data,
        token,
    }
}

/// The journaled key-secure exchange flow on one shard. A withholding
/// seller never settles, and the buyer drives on to the refund.
fn exchange_flow(
    shard: &mut MarketShard,
    life: &mut ExchangeLife,
    withhold: bool,
    r: &mut StdRng,
) -> Result<(), ZkdetError> {
    let listing = shard.market.journaled_list_for_sale(
        &mut shard.wal,
        &life.seller,
        life.token,
        100,
        50,
        1,
        "u8".into(),
        r,
    )?;
    let pkg = shard.market.seller_validation_package(
        &life.seller,
        life.token,
        RangePredicate { bits: 8 },
        r,
    )?;
    let session = shard.market.journaled_validate_and_lock(
        &mut shard.wal,
        &life.buyer,
        listing.listing,
        &pkg,
        r,
    )?;
    if !withhold {
        shard.market.journaled_seller_settle(
            &mut shard.wal,
            &life.seller,
            &listing,
            session.k_v_message(),
            r,
        )?;
    }
    shard
        .market
        .journaled_drive_to_completion(&mut shard.wal, &mut life.buyer, &session)?;
    Ok(())
}

fn is_crash(e: &ZkdetError) -> bool {
    matches!(e, ZkdetError::Journal(zkdet_wal::WalError::Crashed))
}

/// Shard `s` after the first recovery: no escrow is left, and its one
/// exchange is untouched, still listed, or terminal with `want` and the
/// price paid exactly once. Returns the listing and whether the recovery
/// drove the exchange to a terminal state.
fn assert_recovered(
    sharded: &ShardedMarketplace,
    s: usize,
    report: &RecoveryReport,
    life: &ExchangeLife,
    want: ExchangeOutcome,
) -> (Option<ListingId>, bool) {
    let m = &sharded.shard(s).market;
    assert_no_wedged_escrow(m);
    match report.exchanges.as_slice() {
        [] => {
            // Crash before the first record became durable.
            assert_eq!(m.chain.state.balance(&life.seller.address), INITIAL_BALANCE);
            assert_eq!(m.chain.state.balance(&life.buyer.address), INITIAL_BALANCE);
            (None, false)
        }
        [ex] => {
            assert_eq!(ex.token, life.token);
            match &ex.outcome {
                RecoveryOutcome::Listed => {
                    // No buyer funds at risk; both parties whole.
                    assert_eq!(m.chain.state.balance(&life.buyer.address), INITIAL_BALANCE);
                    (ex.listing, false)
                }
                RecoveryOutcome::Completed(rep) => {
                    assert_terminal_consistent(rep);
                    assert_eq!(rep.outcome, want, "shard {s}");
                    if rep.outcome == ExchangeOutcome::Settled {
                        assert_eq!(rep.data.as_ref(), Some(&life.data));
                    }
                    assert_paid_exactly_once(
                        m,
                        life.seller.address,
                        life.buyer.address,
                        &rep.outcome,
                    );
                    (ex.listing, true)
                }
                RecoveryOutcome::AlreadyTerminal(_) => {
                    panic!("shard {s}: first recovery cannot find a terminal journal")
                }
            }
        }
        more => panic!("shard {s}: one journal, one exchange — got {}", more.len()),
    }
}

#[test]
fn sharded_kill_at_every_step_settles_each_shard_exactly_once() {
    let mut r = rng(0x0005_4A2D);
    let mut sharded = ShardedMarketplace::bootstrap(2, 1 << 14, 10, &mut r).expect("bootstrap");

    // ---- probe: record counts of the uncrashed flows ------------------
    let mut lives = [
        fresh_exchange_life(sharded.shard_mut(0), &mut r),
        fresh_exchange_life(sharded.shard_mut(1), &mut r),
    ];
    for (s, life) in lives.iter_mut().enumerate() {
        let withhold = s == 1;
        exchange_flow(sharded.shard_mut(s), life, withhold, &mut r).expect("clean exchange");
    }
    let settle_records = sharded.shard(0).wal.record_count();
    let refund_records = sharded.shard(1).wal.record_count();
    assert!(settle_records >= 7, "exchange journals every step");
    assert_eq!(
        refund_records, 7,
        "list/pay/refund, intent+done, then terminal"
    );

    // ---- kill at every step, restart, recover shard-by-shard ----------
    // Stride 2 keeps the debug-mode proving budget sane; the crash mode
    // alternates along the stride so both torn and clean crashes are hit.
    let mut terminal_seen = [false, false];
    let mut k = 1;
    while k <= settle_records {
        let mode = if (k / 2) % 2 == 0 {
            CrashMode::Torn
        } else {
            CrashMode::Clean
        };
        let crash_points = [k, 1 + (k * 3) % refund_records];

        // Fresh lives and fresh journals, crash points armed.
        for (s, after) in crash_points.into_iter().enumerate() {
            sharded.shard_mut(s).wal = ExchangeWal::new();
            sharded.shard_mut(s).wal.set_crash_after(after, mode);
        }
        let mut lives = [
            fresh_exchange_life(sharded.shard_mut(0), &mut r),
            fresh_exchange_life(sharded.shard_mut(1), &mut r),
        ];
        for (s, life) in lives.iter_mut().enumerate() {
            match exchange_flow(sharded.shard_mut(s), life, s == 1, &mut r) {
                Ok(()) => panic!("shard {s} must hit crash point {}", crash_points[s]),
                Err(e) => assert!(is_crash(&e), "shard {s}: unexpected error: {e}"),
            }
        }

        // Restart: only durable journal bytes survive, sessions die. Shard
        // 1's seller does not come back.
        for s in 0..2 {
            let bytes = sharded.shard(s).wal.durable_bytes().to_vec();
            sharded.shard_mut(s).wal = ExchangeWal::open(bytes).expect("reopen journal");
        }
        let mut parties = [
            ShardParties {
                seller: Some(lives[0].seller.clone()),
                buyer: lives[0].buyer.clone(),
            },
            ShardParties {
                seller: None,
                buyer: lives[1].buyer.clone(),
            },
        ];
        let reports = sharded.recover(&mut parties, &mut r).expect("recover");
        assert_eq!(reports.len(), 2, "one report per shard, in shard order");

        let mut settled_heights = [None, None];
        for (s, want) in [ExchangeOutcome::Settled, ExchangeOutcome::Refunded]
            .into_iter()
            .enumerate()
        {
            let (listing, terminal) = assert_recovered(&sharded, s, &reports[s], &lives[s], want);
            terminal_seen[s] |= terminal;
            let m = &sharded.shard(s).market;
            settled_heights[s] = listing.and_then(|l| m.chain.settlement_height(m.auction_addr, l));
            if terminal {
                // Settled on shard 0, never on shard 1.
                assert_eq!(settled_heights[s].is_some(), s == 0, "shard {s}");
            }
        }

        // ---- recovery is idempotent, shard order deterministic --------
        let balances = |sharded: &ShardedMarketplace| -> Vec<u128> {
            lives
                .iter()
                .enumerate()
                .flat_map(|(s, life)| {
                    let state = &sharded.shard(s).market.chain.state;
                    [
                        state.balance(&life.seller.address),
                        state.balance(&life.buyer.address),
                    ]
                })
                .collect()
        };
        let before = balances(&sharded);
        let again = sharded
            .recover(&mut parties, &mut r)
            .expect("second recovery");
        for (s, report) in again.iter().enumerate() {
            for ex in &report.exchanges {
                assert!(
                    matches!(
                        ex.outcome,
                        RecoveryOutcome::AlreadyTerminal(_) | RecoveryOutcome::Listed
                    ),
                    "shard {s}: second recovery must not re-drive: {:?}",
                    ex.outcome
                );
                let m = &sharded.shard(s).market;
                let height = ex
                    .listing
                    .and_then(|l| m.chain.settlement_height(m.auction_addr, l));
                assert_eq!(
                    height, settled_heights[s],
                    "shard {s}: replaying a journal must not settle again"
                );
            }
        }
        assert_eq!(
            before,
            balances(&sharded),
            "second recovery is a balance no-op"
        );

        k += 2;
    }
    assert_eq!(
        terminal_seen,
        [true, true],
        "some crash point must leave each shard's exchange for recovery to finish"
    );
}

//! Sharded crash-recovery: kill-at-every-step across per-shard journals.
//!
//! The sharded marketplace keeps one write-ahead exchange journal per
//! shard, and [`ShardedMarketplace::recover`] replays them in shard-index
//! order — a deterministic total order over journals. This harness
//! crashes a two-shard deployment at every record boundary: shard 0 runs
//! a full key-secure exchange, shard 1 a FairSwap session, each against
//! its own journal with its own injected crash point. The restart
//! reopens both journals from their durable bytes and recovers the whole
//! deployment in one call, which must leave every shard terminal and
//! settled **exactly once**:
//!
//! * shard 0's settlement height must not move when recovery replays a
//!   journal whose settlement already landed, and a second recovery is a
//!   balance-preserving no-op;
//! * shard 1's escrow must release to the seller exactly once — the
//!   finalize after the complaint window succeeds once and the contract
//!   refuses a second collection.

use rand::rngs::StdRng;
use zkdet_chain::contracts::COMPLAINT_WINDOW_BLOCKS;
use zkdet_circuits::exchange::RangePredicate;
use zkdet_core::{
    DataOwner, Dataset, ExchangeOutcome, ExchangeWal, MarketShard, RecoveryOutcome, ShardParties,
    ShardedMarketplace, ZkdetError,
};
use zkdet_field::Fr;
use zkdet_tests::invariants::{
    assert_no_wedged_escrow, assert_paid_exactly_once, assert_terminal_consistent, INITIAL_BALANCE,
};
use zkdet_tests::rng;
use zkdet_wal::CrashMode;

const SWAP_PRICE: u128 = 400;

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

/// The journaled key-secure exchange flow on one shard (seller settles).
fn exchange_flow(
    shard: &mut MarketShard,
    life: &mut ExchangeLife,
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
    shard
        .market
        .journaled_seller_settle(&mut shard.wal, &life.seller, &listing, session.k_v_message(), r)?;
    shard
        .market
        .journaled_drive_to_completion(&mut shard.wal, &mut life.buyer, &session)?;
    Ok(())
}

/// The journaled FairSwap flow on one shard (through finish; finalize is
/// post-window and exercised by the recovery assertions).
fn swap_flow(
    shard: &mut MarketShard,
    contract: zkdet_chain::Address,
    seller: &DataOwner,
    buyer: &DataOwner,
    data: &Dataset,
    r: &mut StdRng,
) -> Result<(), ZkdetError> {
    let (s_state, ct) = shard.market.journaled_fairswap_offer(
        &mut shard.wal,
        contract,
        seller,
        data.clone(),
        SWAP_PRICE,
        r,
    )?;
    let b_state = shard.market.journaled_fairswap_accept(
        &mut shard.wal,
        contract,
        buyer,
        s_state.swap,
        ct,
        data,
    )?;
    shard
        .market
        .journaled_fairswap_reveal(&mut shard.wal, contract, seller, &s_state)?;
    let finished = shard
        .market
        .journaled_fairswap_finish(&mut shard.wal, contract, &b_state)?;
    assert!(finished.is_ok(), "honest swap must not be disputed");
    Ok(())
}

fn is_crash(e: &ZkdetError) -> bool {
    matches!(e, ZkdetError::Journal(zkdet_wal::WalError::Crashed))
}

#[test]
fn sharded_kill_at_every_step_settles_each_shard_exactly_once() {
    let mut r = rng(0x54A2_D);
    let mut sharded = ShardedMarketplace::bootstrap(2, 1 << 14, 10, &mut r).expect("bootstrap");
    let fs_contract = sharded.shard_mut(1).market.deploy_fairswap_contract();
    let swap_data = Dataset::from_entries(vec![Fr::from(21u64), Fr::from(34u64)]);

    // ---- probe: record counts of the uncrashed flows ------------------
    sharded.shard_mut(0).wal = ExchangeWal::new();
    sharded.shard_mut(1).wal = ExchangeWal::new();
    let mut life = fresh_exchange_life(sharded.shard_mut(0), &mut r);
    exchange_flow(sharded.shard_mut(0), &mut life, &mut r).expect("clean exchange");
    let swap_seller = sharded.shard_mut(1).market.register();
    let swap_buyer = sharded.shard_mut(1).market.register();
    swap_flow(
        sharded.shard_mut(1),
        fs_contract,
        &swap_seller,
        &swap_buyer,
        &swap_data,
        &mut r,
    )
    .expect("clean swap");
    let exchange_records = sharded.shard(0).wal.record_count();
    let swap_records = sharded.shard(1).wal.record_count();
    assert!(exchange_records >= 7, "exchange journals every step");
    assert_eq!(swap_records, 8, "offer/accept/reveal/finish, intent+done");

    // ---- kill at every step, restart, recover shard-by-shard ----------
    // Stride 2 keeps the debug-mode proving budget sane while still
    // hitting both torn and clean crashes on both journal parities.
    let mut k = 1;
    while k <= exchange_records {
        let mode = if k % 2 == 1 {
            CrashMode::Torn
        } else {
            CrashMode::Clean
        };
        let swap_crash = 1 + (k * 3) % swap_records;

        // Fresh lives and fresh journals, crash points armed.
        sharded.shard_mut(0).wal = ExchangeWal::new();
        sharded.shard_mut(0).wal.set_crash_after(k, mode);
        sharded.shard_mut(1).wal = ExchangeWal::new();
        sharded.shard_mut(1).wal.set_crash_after(swap_crash, mode);
        let mut life = fresh_exchange_life(sharded.shard_mut(0), &mut r);
        let swap_seller = sharded.shard_mut(1).market.register();
        let swap_buyer = sharded.shard_mut(1).market.register();

        match exchange_flow(sharded.shard_mut(0), &mut life, &mut r) {
            Ok(()) => panic!("exchange flow must hit crash point {k}"),
            Err(e) => assert!(is_crash(&e), "unexpected exchange error: {e}"),
        }
        match swap_flow(
            sharded.shard_mut(1),
            fs_contract,
            &swap_seller,
            &swap_buyer,
            &swap_data,
            &mut r,
        ) {
            Ok(()) => panic!("swap flow must hit crash point {swap_crash}"),
            Err(e) => assert!(is_crash(&e), "unexpected swap error: {e}"),
        }

        // Restart: only durable journal bytes survive, sessions die.
        for s in 0..2 {
            let bytes = sharded.shard(s).wal.durable_bytes().to_vec();
            sharded.shard_mut(s).wal = ExchangeWal::open(bytes).expect("reopen journal");
        }
        let mut parties = [
            ShardParties {
                seller: Some(life.seller.clone()),
                buyer: life.buyer.clone(),
                fairswap: None,
            },
            ShardParties {
                seller: Some(swap_seller.clone()),
                buyer: swap_buyer.clone(),
                fairswap: Some(fs_contract),
            },
        ];
        let reports = sharded.recover(&mut parties, &mut r).expect("recover");
        assert_eq!(reports.len(), 2, "one report per shard, in shard order");

        // ---- shard 0: the exchange is terminal, paid exactly once -----
        assert_no_wedged_escrow(&sharded.shard(0).market);
        match reports[0].exchanges.as_slice() {
            [] => {
                // Crash before the first record became durable.
                let m = &sharded.shard(0).market;
                assert_eq!(m.chain.state.balance(&life.seller.address), INITIAL_BALANCE);
                assert_eq!(m.chain.state.balance(&life.buyer.address), INITIAL_BALANCE);
            }
            [ex] => {
                assert_eq!(ex.token, life.token);
                match &ex.outcome {
                    RecoveryOutcome::Listed => {}
                    RecoveryOutcome::Completed(rep) => {
                        assert_terminal_consistent(rep);
                        if rep.outcome == ExchangeOutcome::Settled {
                            assert_eq!(rep.data.as_ref(), Some(&life.data));
                        }
                        assert_paid_exactly_once(
                            &sharded.shard(0).market,
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
        let settled_height = sharded
            .shard(0)
            .market
            .chain
            .settlement_height(
                sharded.shard(0).market.auction_addr,
                zkdet_chain::contracts::ListingId(0),
            );

        // ---- shard 1: escrow reaches exactly one terminal owner -------
        let swap_state = reports[1].swaps.first().map(|s| s.state);
        let m = &sharded.shard(1).market;
        match swap_state {
            None | Some("offered") => {
                // No escrow ever landed (or the offer stands unbought).
                assert_eq!(m.chain.state.balance(&swap_buyer.address), INITIAL_BALANCE);
                assert_eq!(m.chain.state.balance(&swap_seller.address), INITIAL_BALANCE);
            }
            Some("revealed") => {
                // Escrowed and decryptable: the seller collects once the
                // complaint window closes — and only once.
                assert_eq!(
                    m.chain.state.balance(&swap_buyer.address),
                    INITIAL_BALANCE - SWAP_PRICE
                );
                let swap = reports[1].swaps[0].swap.expect("swap id");
                for _ in 0..=COMPLAINT_WINDOW_BLOCKS {
                    sharded.shard_mut(1).market.chain.mine_block();
                }
                sharded
                    .shard_mut(1)
                    .market
                    .chain
                    .fairswap_finalize(fs_contract, swap_seller.address, swap)
                    .expect("first finalize collects");
                let m = &sharded.shard(1).market;
                assert_eq!(
                    m.chain.state.balance(&swap_seller.address),
                    INITIAL_BALANCE + SWAP_PRICE
                );
                sharded
                    .shard_mut(1)
                    .market
                    .chain
                    .fairswap_finalize(fs_contract, swap_seller.address, swap)
                    .expect_err("second finalize must be refused");
            }
            Some(other) => panic!("unexpected recovered swap state {other:?}"),
        }

        // ---- recovery is idempotent, shard order deterministic --------
        let balances: Vec<u128> = [
            (0, life.seller.address),
            (0, life.buyer.address),
            (1, swap_seller.address),
            (1, swap_buyer.address),
        ]
        .iter()
        .map(|(s, a)| sharded.shard(*s).market.chain.state.balance(a))
        .collect();
        let again = sharded.recover(&mut parties, &mut r).expect("second recovery");
        for ex in &again[0].exchanges {
            assert!(
                matches!(
                    ex.outcome,
                    RecoveryOutcome::AlreadyTerminal(_) | RecoveryOutcome::Listed
                ),
                "second recovery must not re-drive: {:?}",
                ex.outcome
            );
        }
        assert_eq!(
            sharded.shard(0).market.chain.settlement_height(
                sharded.shard(0).market.auction_addr,
                zkdet_chain::contracts::ListingId(0),
            ),
            settled_height,
            "replaying a settled journal must not settle again"
        );
        let after: Vec<u128> = [
            (0, life.seller.address),
            (0, life.buyer.address),
            (1, swap_seller.address),
            (1, swap_buyer.address),
        ]
        .iter()
        .map(|(s, a)| sharded.shard(*s).market.chain.state.balance(a))
        .collect();
        assert_eq!(balances, after, "second recovery is a balance no-op");

        k += 2;
    }
}

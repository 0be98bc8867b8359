//! Crash recovery (DESIGN.md §13).
//!
//! Every exchange step writes an intent record (carrying any freshly
//! drawn randomness) to its journal *before* the side effect and a
//! completion record after — the key-secure steps in [`crate::exchange`],
//! the FairSwap ones in [`crate::fairswap`].
//! [`crate::market::Marketplace::recover`] replays an [`ExchangeWal`]
//! against durable chain state and resumes every in-flight exchange from
//! its last completed step — or drives it to a refund — by calling those
//! same steps, with exactly-once settlement guaranteed by the chain's
//! settlement journal and the idempotent submit paths.
//!
//! The durability model: process memory (sessions, drawn secrets like
//! `k_v`) is volatile and lost at a crash; the WAL bytes, the chain and
//! the storage network are durable. Participants' long-term key material
//! (the [`DataOwner`] secrets) is durable key-management state outside
//! this subsystem's scope.

use std::collections::BTreeMap;

use rand::Rng;
use zkdet_chain::contracts::{ListingId, ListingState, SwapId, SwapState};
use zkdet_chain::{Address, Event, TokenId, Wei};
use zkdet_crypto::poseidon::Poseidon;

use crate::error::ZkdetError;
use crate::exchange::{BuyerSession, ExchangeOutcome, ExchangeReport, SellerListing};
use crate::fairswap::FairSwapBuyer;
use crate::journal::{
    ExchangeRecord, ExchangeWal, ListDone, ListIntent, PayDone, PayIntent, SettleIntent,
    SwapAcceptDone, SwapAcceptIntent, SwapOfferIntent,
};
use crate::market::{DataOwner, Marketplace};

/// Why a recovered exchange is in the state it is.
#[derive(Clone, Debug)]
pub enum RecoveryOutcome {
    /// The listing is open with no buyer engaged — nothing at risk, the
    /// sale simply continues.
    Listed,
    /// The exchange was resumed and driven to a terminal state.
    Completed(ExchangeReport),
    /// The journal already recorded a terminal state; nothing to do.
    AlreadyTerminal(ExchangeOutcome),
}

/// One exchange's recovery result.
#[derive(Clone, Debug)]
pub struct RecoveredExchange {
    /// The token being exchanged.
    pub token: TokenId,
    /// The listing, if it had been created before the crash (or was
    /// re-created during recovery).
    pub listing: Option<ListingId>,
    /// The step the exchange was resumed from.
    pub resumed_from: &'static str,
    /// What recovery did.
    pub outcome: RecoveryOutcome,
}

/// One FairSwap session's recovery result.
#[derive(Clone, Debug)]
pub struct RecoveredSwap {
    /// The swap, if it had been posted before the crash (or was re-posted
    /// during recovery).
    pub swap: Option<SwapId>,
    /// The swap's on-chain state after recovery ("offered", "paid",
    /// "revealed", "completed", "refunded", or "unposted").
    pub state: &'static str,
}

/// Summary of a [`Marketplace::recover`] run.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Key-secure exchanges found in the journal, in first-record order.
    pub exchanges: Vec<RecoveredExchange>,
    /// FairSwap sessions found in the journal, in first-record order.
    pub swaps: Vec<RecoveredSwap>,
    /// Intact records replayed from the journal.
    pub records_replayed: u64,
}

/// Replayed per-exchange progress, folded from the record stream. The
/// intents are the journaled values themselves, handed back unchanged to
/// the effect halves that first executed them.
#[derive(Debug, Default)]
struct Progress {
    list_intent: Option<ListIntent>,
    listing: Option<ListingId>,
    pay_intent: Option<PayIntent>,
    paid: Option<Wei>,
    settle_intent: Option<SettleIntent>,
    settle_done: bool,
    retrieve_started: bool,
    refund_intent: bool,
    refund_done: bool,
    terminal: Option<ExchangeOutcome>,
}

/// Replayed per-swap progress.
#[derive(Debug, Default)]
struct SwapProgress {
    offer_intent: Option<SwapOfferIntent>,
    swap: Option<SwapId>,
    accept_intent: Option<SwapAcceptIntent>,
    accepted: Option<Wei>,
    revealed: bool,
    finished: bool,
}

impl Progress {
    fn resumed_from(&self) -> &'static str {
        if self.terminal.is_some() {
            "terminal"
        } else if self.refund_intent || self.refund_done {
            "refund"
        } else if self.retrieve_started {
            "retrieve"
        } else if self.settle_done || self.settle_intent.is_some() {
            "settle"
        } else if self.pay_intent.is_some() {
            "pay"
        } else {
            "list"
        }
    }
}

impl Marketplace {
    // ------------------------------------------------------------------ //
    //  Recovery                                                          //
    // ------------------------------------------------------------------ //

    /// Replays the journal against durable chain state and resumes every
    /// in-flight exchange from its last completed step.
    ///
    /// - Intent records without a completion are reconciled against the
    ///   chain: if the side effect landed (found by idempotency key — the
    ///   listing's `(seller, token, key_commitment)`, the lock's
    ///   `(buyer, h_v)`, the settlement journal, a swap's offer roots),
    ///   the completion is back-filled; otherwise the step re-executes
    ///   with the *journaled* randomness, never fresh dice.
    /// - Exchanges with a buyer engaged are then driven to a terminal
    ///   state ([`Marketplace::journaled_drive_to_completion`]): settled
    ///   if the seller can still settle, refunded past the timeout.
    /// - `seller` supplies the settle capability; pass `None` to model a
    ///   withholding or dead seller (the buyer is refunded).
    /// - `fairswap` names the FairSwap contract if swap records may be
    ///   present.
    ///
    /// Recovery appends to the same journal it replays, so a crash
    /// *during* recovery is itself recoverable, and a second recovery of
    /// a completed journal is a no-op reporting terminal states.
    pub fn recover<R: Rng + ?Sized>(
        &mut self,
        wal: &mut ExchangeWal,
        seller: Option<&DataOwner>,
        buyer: &mut DataOwner,
        fairswap: Option<Address>,
        rng: &mut R,
    ) -> Result<RecoveryReport, ZkdetError> {
        let mut replay_span = zkdet_telemetry::span("recovery.replay");
        zkdet_telemetry::counter_add("zkdet.recovery.replays", 1);
        let records = wal.records()?;
        let records_replayed = records.len() as u64;
        zkdet_telemetry::counter_add("zkdet.recovery.records_replayed", records_replayed);
        replay_span.record("records", records_replayed);

        let (progress, swaps) = fold_records(records);
        let mut report = RecoveryReport {
            records_replayed,
            ..RecoveryReport::default()
        };

        for (token, p) in progress {
            let recovered = self.recover_exchange(wal, token, p, seller, buyer, rng)?;
            match recovered.outcome {
                RecoveryOutcome::AlreadyTerminal(_) => {
                    zkdet_telemetry::counter_add("zkdet.recovery.already_terminal", 1);
                }
                _ => zkdet_telemetry::counter_add("zkdet.recovery.exchanges_resumed", 1),
            }
            report.exchanges.push(recovered);
        }
        for sp in swaps {
            let recovered = self.recover_swap(wal, sp, seller, fairswap)?;
            zkdet_telemetry::counter_add("zkdet.recovery.swaps_resumed", 1);
            report.swaps.push(recovered);
        }
        Ok(report)
    }

    fn recover_exchange<R: Rng + ?Sized>(
        &mut self,
        wal: &mut ExchangeWal,
        token: TokenId,
        p: Progress,
        seller: Option<&DataOwner>,
        buyer: &mut DataOwner,
        rng: &mut R,
    ) -> Result<RecoveredExchange, ZkdetError> {
        // Re-enter the exchange's deterministic trace: every step the
        // replay back-fills or re-executes re-links to the causal story
        // the crashed process started.
        let _trace = zkdet_telemetry::enter_trace(zkdet_telemetry::TraceId::for_exchange(token.0));
        let resumed_from = p.resumed_from();
        if let Some(outcome) = &p.terminal {
            return Ok(RecoveredExchange {
                token,
                listing: p.listing,
                resumed_from,
                outcome: RecoveryOutcome::AlreadyTerminal(outcome.clone()),
            });
        }

        // 1. List intent without completion: find the listing on-chain by
        //    its idempotency key, else re-create it from the journaled
        //    intent.
        let unlisted = RecoveredExchange {
            token,
            listing: None,
            resumed_from,
            outcome: RecoveryOutcome::Listed,
        };
        let listing_id = match (p.listing, &p.list_intent) {
            (Some(listing), _) => listing,
            // A journal fragment with neither a listing nor the intent to
            // create one — nothing to recover.
            (None, None) => return Ok(unlisted),
            (None, Some(intent)) => {
                let found = self
                    .chain
                    .auction(&self.auction_addr)?
                    .listings()
                    .find(|(_, l)| {
                        l.token == token
                            && l.key_commitment == intent.key_commitment
                            && seller.is_none_or(|s| l.seller == s.address)
                    })
                    .map(|(id, _)| id);
                match (found, seller) {
                    (Some(listing), _) => {
                        wal.append(&ExchangeRecord::ListDone(ListDone { listing, token }))?;
                        listing
                    }
                    (None, Some(owner)) => self.create_listing(wal, owner.address, intent)?,
                    // The listing never landed and the seller is gone: the
                    // intent is abandoned with nothing durable to unwind.
                    (None, None) => return Ok(unlisted),
                }
            }
        };

        // No buyer engaged: the listing stands, nothing further to drive.
        let Some(pay) = p.pay_intent else {
            return Ok(RecoveredExchange {
                listing: Some(listing_id),
                ..unlisted
            });
        };
        if pay.buyer != buyer.address {
            return Err(ZkdetError::Protocol(
                "journal's buyer does not match the recovering buyer".into(),
            ));
        }

        // 2. Pay intent without completion: did the lock land?
        let listing_state = self
            .chain
            .auction(&self.auction_addr)?
            .listing(listing_id)?
            .state
            .clone();
        let price = match (p.paid, &listing_state) {
            (Some(price), _) => price,
            (
                None,
                ListingState::Locked {
                    buyer: b,
                    payment,
                    h_v,
                    ..
                },
            ) => {
                if *b != pay.buyer || *h_v != Poseidon::hash(&[pay.k_v]) {
                    return Err(ZkdetError::Protocol(
                        "listing is locked by a different buyer".into(),
                    ));
                }
                let price = *payment;
                wal.append(&ExchangeRecord::PayDone(PayDone {
                    listing: listing_id,
                    price,
                }))?;
                price
            }
            // The lock never landed: re-lock at the current clock price
            // with the journaled k_v.
            (None, ListingState::Open) => self.lock_payment(wal, &pay)?,
            (None, _) => {
                // Settled without a journaled payment: the lock landed in
                // a previous life — reconstruct it from the chain's log.
                self.find_event(|event| match event {
                    Event::AuctionLocked {
                        listing, payment, ..
                    } if *listing == listing_id => Some(*payment),
                    _ => None,
                })
                .ok_or_else(|| {
                    ZkdetError::Protocol("settled listing has no AuctionLocked event".into())
                })?
            }
        };
        let session = BuyerSession::from_intent(&pay, price);

        // 3. Settle side: if the settlement has not landed and the seller
        //    can still settle, resume there (idempotent under replays).
        if self
            .chain
            .settlement_height(self.auction_addr, listing_id)
            .is_none()
            && !p.refund_intent
            && !p.refund_done
        {
            let k_v = p.settle_intent.map_or(pay.k_v, |settle| settle.k_v);
            if let (Some(owner), Some(intent)) = (seller, &p.list_intent) {
                if owner.secret(token).is_some() {
                    let seller_listing = SellerListing::from_intent(intent, listing_id);
                    self.journaled_seller_settle(wal, owner, &seller_listing, k_v, rng)?;
                }
            }
        }

        // 4. Drive the buyer side to a terminal state.
        let report = self.journaled_drive_to_completion(wal, buyer, &session)?;
        Ok(RecoveredExchange {
            token,
            listing: Some(listing_id),
            resumed_from,
            outcome: RecoveryOutcome::Completed(report),
        })
    }

    fn recover_swap(
        &mut self,
        wal: &mut ExchangeWal,
        sp: SwapProgress,
        seller: Option<&DataOwner>,
        fairswap: Option<Address>,
    ) -> Result<RecoveredSwap, ZkdetError> {
        let contract = fairswap.ok_or_else(|| {
            ZkdetError::Protocol(
                "journal has FairSwap records but no contract address was supplied".into(),
            )
        })?;

        // 1. Offer intent without completion: find the swap by its offer
        //    roots, else re-post it from the journaled intent.
        let swap = match (sp.swap, &sp.offer_intent) {
            (Some(swap), _) => swap,
            (None, None) => {
                return Ok(RecoveredSwap {
                    swap: None,
                    state: "unposted",
                })
            }
            (None, Some(intent)) => {
                let sealed = intent.seal();
                let found = self
                    .chain
                    .fairswap(&contract)?
                    .swaps()
                    .find(|(_, s)| {
                        s.root_c == sealed.root_c
                            && s.root_d == sealed.root_d
                            && s.key_hash == sealed.key_hash
                    })
                    .map(|(id, _)| id);
                match (found, seller) {
                    (Some(swap), _) => {
                        wal.append(&ExchangeRecord::SwapOfferDone(swap))?;
                        swap
                    }
                    (None, Some(owner)) => self.post_swap_offer(wal, contract, owner, intent)?.swap,
                    (None, None) => {
                        return Err(ZkdetError::Protocol(
                            "journal has an unposted swap offer but no seller was supplied".into(),
                        ))
                    }
                }
            }
        };
        let state_of = |market: &Marketplace| -> Result<SwapState, ZkdetError> {
            Ok(market.chain.fairswap(&contract)?.swap(swap)?.state.clone())
        };

        // 2. Accept intent without completion: did the escrow land?
        if let (Some(intent), None) = (&sp.accept_intent, sp.accepted) {
            match state_of(self)? {
                // It did not: re-execute the intent through the checks the
                // live step ran. Blocks that step rejected are rejected
                // again — nothing is escrowed and the swap stays offered.
                SwapState::Offered => match self.escrow_swap_accept(wal, contract, intent) {
                    Ok(_) | Err(ZkdetError::Inconsistent(_)) => {}
                    Err(e) => return Err(e),
                },
                SwapState::Paid { buyer, payment } | SwapState::Revealed { buyer, payment, .. } => {
                    if buyer != intent.buyer {
                        return Err(ZkdetError::Protocol(
                            "swap is escrowed by a different buyer".into(),
                        ));
                    }
                    wal.append(&ExchangeRecord::SwapAcceptDone(SwapAcceptDone {
                        swap,
                        payment,
                    }))?;
                }
                SwapState::Completed | SwapState::Refunded => {}
            }
        }

        // 3. Reveal: if the escrow stands and the key is not on-chain yet,
        //    the seller (if present, with the journaled key) reveals.
        if matches!(state_of(self)?, SwapState::Paid { .. }) && !sp.revealed {
            if let (Some(owner), Some(intent)) = (seller, &sp.offer_intent) {
                let seller_state = intent.seal().posted_as(swap, intent);
                self.journaled_fairswap_reveal(wal, contract, owner, &seller_state)?;
            }
        }

        // 4. Finish: with a revealed key and journaled buyer blocks, the
        //    buyer decrypts and finishes or disputes.
        if let (SwapState::Revealed { payment, .. }, false, Some(intent)) =
            (state_of(self)?, sp.finished, &sp.accept_intent)
        {
            let buyer_state = FairSwapBuyer::from_intent(intent, payment);
            // Finished or disputed: the state read below reports which.
            let _ = self.journaled_fairswap_finish(wal, contract, &buyer_state)?;
        }

        Ok(RecoveredSwap {
            swap: Some(swap),
            state: match state_of(self)? {
                SwapState::Offered => "offered",
                SwapState::Paid { .. } => "paid",
                SwapState::Revealed { .. } => "revealed",
                SwapState::Completed => "completed",
                SwapState::Refunded => "refunded",
            },
        })
    }
}

/// The fold's working state: exchanges keyed by token (the journal-level
/// idempotency key: one active exchange per token per journal) in
/// first-record order, the listing → token map that attaches id-only
/// records, and the swaps in first-record order.
#[derive(Default)]
struct Fold {
    order: Vec<TokenId>,
    by_token: BTreeMap<TokenId, Progress>,
    listing_token: BTreeMap<ListingId, TokenId>,
    swaps: Vec<SwapProgress>,
}

impl Fold {
    /// The exchange of `token`, opened on first sight.
    fn token(&mut self, token: TokenId) -> &mut Progress {
        self.by_token.entry(token).or_insert_with(|| {
            self.order.push(token);
            Progress::default()
        })
    }

    /// The exchange of `token`, now known to run as `listing`.
    fn listed(&mut self, token: TokenId, listing: ListingId) -> &mut Progress {
        self.listing_token.insert(listing, token);
        let p = self.token(token);
        p.listing = Some(listing);
        p
    }

    /// Applies `f` to the exchange running as `listing`; a record whose
    /// listing no earlier record tied to a token is ignored.
    fn on_listing(&mut self, listing: ListingId, f: impl FnOnce(&mut Progress)) {
        if let Some(p) = self
            .listing_token
            .get(&listing)
            .and_then(|t| self.by_token.get_mut(t))
        {
            f(p);
        }
    }

    /// The swap with id `swap`, opened by id on first sight.
    fn swap(&mut self, swap: SwapId) -> &mut SwapProgress {
        let i = self
            .swaps
            .iter()
            .position(|s| s.swap == Some(swap))
            .unwrap_or_else(|| {
                self.swaps.push(SwapProgress {
                    swap: Some(swap),
                    ..SwapProgress::default()
                });
                self.swaps.len() - 1
            });
        &mut self.swaps[i]
    }
}

/// Folds the record stream into per-exchange and per-swap progress, both
/// in first-record order. A `SwapOfferDone` binds to the most recent offer
/// without an id; every other swap record attaches by swap id.
fn fold_records(records: Vec<ExchangeRecord>) -> (Vec<(TokenId, Progress)>, Vec<SwapProgress>) {
    use ExchangeRecord as R;
    let mut f = Fold::default();
    for rec in records {
        match rec {
            R::ListIntent(intent) => {
                let p = f.token(intent.token);
                p.list_intent = Some(intent);
            }
            R::ListDone(done) => {
                f.listed(done.token, done.listing);
            }
            R::PayIntent(intent) => {
                let p = f.listed(intent.token, intent.listing);
                p.pay_intent = Some(intent);
            }
            R::PayDone(done) => f.on_listing(done.listing, |p| p.paid = Some(done.price)),
            R::SettleIntent(intent) => {
                let p = f.listed(intent.token, intent.listing);
                p.settle_intent = Some(intent);
            }
            R::SettleDone(listing) => f.on_listing(listing, |p| p.settle_done = true),
            R::RetrieveIntent(intent) => {
                f.on_listing(intent.listing, |p| p.retrieve_started = true)
            }
            R::RetrieveDone(listing) | R::DecryptDone(listing) => {
                f.on_listing(listing, |p| p.retrieve_started = true);
            }
            R::RefundIntent(listing) => f.on_listing(listing, |p| p.refund_intent = true),
            R::RefundDone(listing) => f.on_listing(listing, |p| p.refund_done = true),
            R::Terminal(t) => f.on_listing(t.listing, |p| p.terminal = Some(t.outcome)),
            R::SwapOfferIntent(intent) => f.swaps.push(SwapProgress {
                offer_intent: Some(intent),
                ..SwapProgress::default()
            }),
            R::SwapOfferDone(swap) => match f.swaps.iter_mut().rev().find(|s| s.swap.is_none()) {
                Some(unposted) => unposted.swap = Some(swap),
                None => {
                    f.swap(swap);
                }
            },
            R::SwapAcceptIntent(intent) => {
                let sp = f.swap(intent.swap);
                sp.accept_intent = Some(intent);
            }
            R::SwapAcceptDone(done) => f.swap(done.swap).accepted = Some(done.payment),
            R::SwapRevealDone(swap) => f.swap(swap).revealed = true,
            R::SwapFinishDone(done) => f.swap(done.swap).finished = true,
            // No progress to note: proving has no side effect (a replay
            // re-proves), and a reveal or finish intent is reconciled from
            // the swap's on-chain state alone.
            R::ProveDone(_) | R::SwapRevealIntent(_) | R::SwapFinishIntent(_) => {}
        }
    }
    let Fold {
        order,
        mut by_token,
        swaps,
        ..
    } = f;
    let progress = order
        .into_iter()
        .filter_map(|t| by_token.remove(&t).map(|p| (t, p)))
        .collect();
    (progress, swaps)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::journal::{SwapFinishDone, Terminal};
    use rand::{rngs::StdRng, SeedableRng};
    use zkdet_field::Fr;

    fn list_intent(token: u64) -> ExchangeRecord {
        ExchangeRecord::ListIntent(ListIntent {
            token: TokenId(token),
            start_price: 100,
            floor_price: 10,
            decay_per_block: 1,
            key_commitment: Fr::from(token),
            key_opening: Fr::from(token + 1),
            predicate: "any".into(),
        })
    }

    fn list_done(listing: u64, token: u64) -> ExchangeRecord {
        ExchangeRecord::ListDone(ListDone {
            listing: ListingId(listing),
            token: TokenId(token),
        })
    }

    fn pay_intent(listing: u64, token: u64) -> ExchangeRecord {
        ExchangeRecord::PayIntent(PayIntent {
            listing: ListingId(listing),
            token: TokenId(token),
            buyer: Address::from_seed(1),
            k_v: Fr::from(5u64),
            expected_commitment: Fr::from(6u64),
        })
    }

    fn pay_done(listing: u64, price: Wei) -> ExchangeRecord {
        ExchangeRecord::PayDone(PayDone {
            listing: ListingId(listing),
            price,
        })
    }

    fn terminal(listing: u64) -> ExchangeRecord {
        ExchangeRecord::Terminal(Terminal {
            listing: ListingId(listing),
            outcome: ExchangeOutcome::Settled,
            reason: String::new(),
        })
    }

    fn swap_offer(key: u64) -> ExchangeRecord {
        ExchangeRecord::SwapOfferIntent(SwapOfferIntent {
            key: Fr::from(key),
            nonce: Fr::from(1u64),
            data: vec![Fr::from(2u64)],
            price: 50,
        })
    }

    #[test]
    fn interleaved_tokens_fold_in_first_record_order() {
        let (exchanges, swaps) = fold_records(vec![
            list_intent(9),
            list_intent(4),
            list_done(0, 4),
            list_done(1, 9),
            pay_intent(1, 9),
            pay_done(0, 40),
            pay_done(1, 90),
            ExchangeRecord::SettleDone(ListingId(0)),
            terminal(1),
        ]);
        assert!(swaps.is_empty());
        let tokens: Vec<u64> = exchanges.iter().map(|(t, _)| t.0).collect();
        assert_eq!(tokens, [9, 4]);
        let (nine, four) = (&exchanges[0].1, &exchanges[1].1);
        assert_eq!((nine.listing, nine.paid), (Some(ListingId(1)), Some(90)));
        assert_eq!(nine.terminal, Some(ExchangeOutcome::Settled));
        assert_eq!(nine.pay_intent.as_ref().map(|i| i.token), Some(TokenId(9)));
        let opening = nine.list_intent.as_ref().map(|i| i.key_opening);
        assert_eq!(opening, Some(Fr::from(10u64)));
        assert!(!nine.settle_done);
        assert_eq!((four.listing, four.paid), (Some(ListingId(0)), Some(40)));
        assert!(four.settle_done && four.pay_intent.is_none() && four.terminal.is_none());
        assert_eq!(nine.resumed_from(), "terminal");
        assert_eq!(four.resumed_from(), "settle");
    }

    #[test]
    fn id_only_records_before_their_listing_is_known_are_ignored() {
        // Listing 7 is tied to a token only by the last record: everything
        // before it names a listing the fold cannot place, and must not
        // land on the one exchange that is open.
        let (exchanges, _) = fold_records(vec![
            list_intent(3),
            pay_done(7, 99),
            ExchangeRecord::SettleDone(ListingId(7)),
            ExchangeRecord::RefundDone(ListingId(7)),
            terminal(7),
            list_done(7, 3),
        ]);
        assert_eq!(exchanges.len(), 1);
        let p = &exchanges[0].1;
        assert_eq!((p.listing, p.paid), (Some(ListingId(7)), None));
        assert!(p.terminal.is_none() && !p.settle_done && !p.refund_done);
        assert_eq!(p.resumed_from(), "list");
    }

    #[test]
    fn swap_offer_done_binds_to_the_latest_offer_without_an_id() {
        let accept = |swap| {
            ExchangeRecord::SwapAcceptDone(SwapAcceptDone {
                swap: SwapId(swap),
                payment: 50,
            })
        };
        let (_, swaps) = fold_records(vec![
            swap_offer(11),
            ExchangeRecord::SwapOfferDone(SwapId(0)),
            swap_offer(12),
            swap_offer(13),
            // Binds to offer 13, the latest without an id; 12 still waits.
            ExchangeRecord::SwapOfferDone(SwapId(1)),
            accept(1),
            ExchangeRecord::SwapOfferDone(SwapId(2)),
            // No offer is waiting for an id: opens an entry by id.
            ExchangeRecord::SwapOfferDone(SwapId(5)),
            ExchangeRecord::SwapRevealDone(SwapId(5)),
            // So does any other record naming an unseen swap.
            ExchangeRecord::SwapFinishDone(SwapFinishDone {
                swap: SwapId(6),
                disputed: false,
            }),
        ]);
        let view: Vec<_> = swaps
            .iter()
            .map(|s| (s.offer_intent.as_ref().map(|i| i.key), s.swap.map(|id| id.0)))
            .collect();
        assert_eq!(
            view,
            [
                (Some(Fr::from(11u64)), Some(0)),
                (Some(Fr::from(12u64)), Some(2)),
                (Some(Fr::from(13u64)), Some(1)),
                (None, Some(5)),
                (None, Some(6)),
            ]
        );
        assert_eq!(swaps[2].accepted, Some(50));
        assert!(swaps[3].revealed && !swaps[3].finished);
        assert!(swaps[4].finished && !swaps[4].revealed);
    }

    #[test]
    fn recovering_a_completed_journal_appends_nothing() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut m = Marketplace::bootstrap(1 << 12, 4, &mut rng).unwrap();
        let (seller, mut buyer) = (m.register(), m.register());
        let fs = m.deploy_fairswap_contract();
        let mut wal = ExchangeWal::new();
        // A key-secure exchange the journal already closed…
        for rec in [list_intent(3), list_done(0, 3), pay_intent(0, 3), terminal(0)] {
            wal.append(&rec).unwrap();
        }
        // …and a swap driven through every step.
        let d = Dataset::from_entries((1..=4u64).map(Fr::from).collect());
        let (s_state, ct) = m
            .journaled_fairswap_offer(&mut wal, fs, &seller, d.clone(), 500, &mut rng)
            .unwrap();
        let b_state = m
            .journaled_fairswap_accept(&mut wal, fs, &buyer, s_state.swap, ct, &d)
            .unwrap();
        m.journaled_fairswap_reveal(&mut wal, fs, &seller, &s_state)
            .unwrap();
        let got = m.journaled_fairswap_finish(&mut wal, fs, &b_state).unwrap();
        assert_eq!(got.unwrap(), d);

        let (count, digest) = (wal.record_count(), m.chain.export_digest());
        for _ in 0..2 {
            let report = m
                .recover(&mut wal, Some(&seller), &mut buyer, Some(fs), &mut rng)
                .unwrap();
            assert!(matches!(
                report.exchanges[0].outcome,
                RecoveryOutcome::AlreadyTerminal(ExchangeOutcome::Settled)
            ));
            assert_eq!(report.swaps[0].state, "revealed");
            assert_eq!(report.records_replayed, count);
            assert_eq!(wal.record_count(), count);
            assert_eq!(m.chain.export_digest(), digest);
        }
    }
}

//! Crash recovery (DESIGN.md §13).
//!
//! Every key-secure exchange step in [`crate::exchange`] writes an intent
//! record (carrying any freshly drawn randomness) to its journal *before*
//! its side effect, and nothing after it: the chain is the record of
//! every listing, lock, settlement and refund that landed.
//! [`crate::market::Marketplace::recover`] folds an [`ExchangeWal`], asks
//! the chain which intents took effect, and resumes every in-flight
//! exchange from the first one that did not — or drives it to a refund —
//! by calling those same steps, with exactly-once settlement guaranteed
//! by the chain's settlement journal and the idempotent submit paths.
//!
//! The durability model: process memory (sessions, drawn secrets like
//! `k_v`) is volatile and lost at a crash; the WAL bytes, the chain and
//! the storage network are durable. Participants' long-term key material
//! (the [`DataOwner`] secrets) is durable key-management state outside
//! this subsystem's scope.

use std::collections::BTreeMap;

use rand::Rng;
use zkdet_chain::contracts::{ListingId, ListingState};
use zkdet_chain::{Address, Event, TokenId, Wei};
use zkdet_crypto::poseidon::Poseidon;

use crate::error::ZkdetError;
use crate::exchange::{
    finish_exchange, BuyerSession, ExchangeOutcome, ExchangeReport, SellerListing, REFUND_LANDED,
};
use crate::journal::{ExchangeRecord, ExchangeWal, ListIntent, PayIntent, SettleIntent};
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

/// Summary of a [`Marketplace::recover`] run.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Key-secure exchanges found in the journal, in first-record order.
    pub exchanges: Vec<RecoveredExchange>,
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
    settle_intent: Option<SettleIntent>,
    retrieve_started: bool,
    refund_intent: bool,
    terminal: Option<ExchangeOutcome>,
}

impl Progress {
    fn resumed_from(&self) -> &'static str {
        if self.terminal.is_some() {
            "terminal"
        } else if self.refund_intent {
            "refund"
        } else if self.retrieve_started {
            "retrieve"
        } else if self.settle_intent.is_some() {
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
    /// in-flight exchange from the first step whose effect is not on
    /// chain.
    ///
    /// - Each intent is paired with the chain's record of its effect,
    ///   found by idempotency key: the listing by `(seller, token,
    ///   key_commitment)`, the lock by this buyer's latest
    ///   `AuctionLocked` event on the listing (with `h_v` checked against
    ///   the journaled `k_v` while the escrow is held), the settlement by
    ///   the chain's settlement journal. An effect that is not there
    ///   re-executes with the *journaled* randomness, never fresh dice.
    /// - Exchanges with a buyer engaged are then driven to a terminal
    ///   state ([`Marketplace::journaled_drive_to_completion`]): settled
    ///   if the seller can still settle, refunded past the timeout.
    /// - `seller` supplies the settle capability; pass `None` to model a
    ///   withholding or dead seller (the buyer is refunded).
    ///
    /// Recovery appends to the same journal it replays, so a crash
    /// *during* recovery is itself recoverable, and a second recovery of
    /// a completed journal is a no-op reporting terminal states.
    pub fn recover<R: Rng + ?Sized>(
        &mut self,
        wal: &mut ExchangeWal,
        seller: Option<&DataOwner>,
        buyer: &mut DataOwner,
        rng: &mut R,
    ) -> Result<RecoveryReport, ZkdetError> {
        let mut replay_span = zkdet_telemetry::span("recovery.replay");
        zkdet_telemetry::counter_add("zkdet.recovery.replays", 1);
        let records = wal.records()?;
        let records_replayed = records.len() as u64;
        zkdet_telemetry::counter_add("zkdet.recovery.records_replayed", records_replayed);
        replay_span.record("records", records_replayed);

        let progress = fold_records(records);
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
        // replay re-executes re-links to the causal story the crashed
        // process started.
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

        // 1. No buyer has named the listing yet: find it on-chain by its
        //    idempotency key, else re-create it from the journaled intent.
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
                    (Some(listing), _) => listing,
                    (None, Some(owner)) => self.create_listing(owner.address, intent)?,
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

        // 2. Did this buyer's lock land? The chain's log answers, matched
        //    on listing *and* buyer: a listing another buyer locked and
        //    was refunded is open to this one, not refunded to it.
        let listing_state = self
            .chain
            .auction(&self.auction_addr)?
            .listing(listing_id)?
            .state
            .clone();
        let landed = self.landed_lock(listing_id, pay.buyer);
        // This buyer's lock landed and was refunded, and the listing has
        // moved on to another buyer since: the exchange ended refunded,
        // whoever holds the listing now. (An open listing takes the drive
        // below, which reports the same landed refund.)
        if landed.is_some_and(|lock| lock.refunded) && listing_state != ListingState::Open {
            let report = finish_exchange(
                wal,
                listing_id,
                ExchangeOutcome::Refunded,
                None,
                REFUND_LANDED.to_string(),
                0,
            )?;
            return Ok(RecoveredExchange {
                listing: Some(listing_id),
                outcome: RecoveryOutcome::Completed(report),
                ..unlisted
            });
        }
        let price = match (landed.map(|lock| lock.price), &listing_state) {
            (_, ListingState::Locked { buyer: b, h_v, .. })
                if *b != pay.buyer || *h_v != Poseidon::hash(&[pay.k_v]) =>
            {
                return Err(ZkdetError::Protocol(
                    "listing is locked by a different buyer".into(),
                ));
            }
            // Landed: still escrowed, settled, or already refunded.
            (Some(price), _) => price,
            // The lock never landed: re-lock at the current clock price
            // with the journaled k_v.
            (None, ListingState::Open) => self.lock_payment(&pay)?,
            (None, state) => {
                return Err(ZkdetError::Protocol(format!(
                    "listing is {state:?} but holds no lock by this buyer"
                )))
            }
        };
        let session = BuyerSession::from_intent(&pay, price);

        // 3. Settle side: if the settlement has not landed, no refund was
        //    begun and the seller can still settle, resume there with the
        //    k_v the seller received (idempotent under replays).
        if self
            .chain
            .settlement_height(self.auction_addr, listing_id)
            .is_none()
            && !p.refund_intent
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

    /// `buyer`'s latest lock on `listing`, read from the chain's log —
    /// mined blocks and the pending pool, newest first.
    fn landed_lock(&self, listing: ListingId, buyer: Address) -> Option<LandedLock> {
        let mut refunded = false;
        self.chain
            .blocks()
            .iter()
            .flat_map(|block| &block.receipts)
            .chain(self.chain.pending_receipts())
            .rev()
            .flat_map(|receipt| &receipt.events)
            .find_map(|event| match event {
                Event::Refunded {
                    listing: l,
                    buyer: b,
                    ..
                } if *l == listing && *b == buyer => {
                    refunded = true;
                    None
                }
                Event::AuctionLocked {
                    listing: l,
                    buyer: b,
                    payment,
                } if *l == listing && *b == buyer => Some(LandedLock {
                    price: *payment,
                    refunded,
                }),
                _ => None,
            })
    }
}

/// A lock the chain's log holds for one buyer on one listing.
#[derive(Clone, Copy)]
struct LandedLock {
    /// The escrowed price.
    price: Wei,
    /// Whether a refund of it landed after it.
    refunded: bool,
}

/// The fold's working state: exchanges keyed by token (the journal-level
/// idempotency key: one active exchange per token per journal) in
/// first-record order, and the listing → token map that `PayIntent` and
/// `SettleIntent` fill and the id-only records attach through.
#[derive(Default)]
struct Fold {
    order: Vec<TokenId>,
    by_token: BTreeMap<TokenId, Progress>,
    listing_token: BTreeMap<ListingId, TokenId>,
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
}

/// Folds the record stream into per-exchange progress, in first-record
/// order.
fn fold_records(records: Vec<ExchangeRecord>) -> Vec<(TokenId, Progress)> {
    use ExchangeRecord as R;
    let mut f = Fold::default();
    for rec in records {
        match rec {
            R::ListIntent(intent) => {
                let p = f.token(intent.token);
                p.list_intent = Some(intent);
            }
            R::PayIntent(intent) => {
                let p = f.listed(intent.token, intent.listing);
                p.pay_intent = Some(intent);
            }
            R::SettleIntent(intent) => {
                let p = f.listed(intent.token, intent.listing);
                p.settle_intent = Some(intent);
            }
            R::RetrieveIntent(intent) => {
                f.on_listing(intent.listing, |p| p.retrieve_started = true)
            }
            R::RefundIntent(listing) => f.on_listing(listing, |p| p.refund_intent = true),
            R::Terminal(t) => f.on_listing(t.listing, |p| p.terminal = Some(t.outcome)),
        }
    }
    let Fold {
        order,
        mut by_token,
        ..
    } = f;
    order
        .into_iter()
        .filter_map(|t| by_token.remove(&t).map(|p| (t, p)))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::journal::{RetrieveIntent, Terminal};
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

    fn pay_intent(listing: u64, token: u64) -> ExchangeRecord {
        ExchangeRecord::PayIntent(PayIntent {
            listing: ListingId(listing),
            token: TokenId(token),
            buyer: Address::from_seed(1),
            k_v: Fr::from(5u64),
            expected_commitment: Fr::from(6u64),
        })
    }

    fn settle_intent(listing: u64, token: u64) -> ExchangeRecord {
        ExchangeRecord::SettleIntent(SettleIntent {
            listing: ListingId(listing),
            token: TokenId(token),
            k_v: Fr::from(5u64),
        })
    }

    fn retrieve_intent(listing: u64) -> ExchangeRecord {
        ExchangeRecord::RetrieveIntent(RetrieveIntent {
            listing: ListingId(listing),
            attempt: 1,
        })
    }

    fn terminal(listing: u64) -> ExchangeRecord {
        ExchangeRecord::Terminal(Terminal {
            listing: ListingId(listing),
            outcome: ExchangeOutcome::Settled,
            reason: String::new(),
        })
    }

    #[test]
    fn interleaved_tokens_fold_in_first_record_order() {
        let exchanges = fold_records(vec![
            list_intent(9),
            list_intent(4),
            pay_intent(0, 4),
            pay_intent(1, 9),
            settle_intent(0, 4),
            retrieve_intent(1),
            terminal(1),
        ]);
        let tokens: Vec<u64> = exchanges.iter().map(|(t, _)| t.0).collect();
        assert_eq!(tokens, [9, 4]);
        let (nine, four) = (&exchanges[0].1, &exchanges[1].1);
        assert_eq!(nine.listing, Some(ListingId(1)));
        assert_eq!(nine.terminal, Some(ExchangeOutcome::Settled));
        assert_eq!(nine.pay_intent.as_ref().map(|i| i.token), Some(TokenId(9)));
        let opening = nine.list_intent.as_ref().map(|i| i.key_opening);
        assert_eq!(opening, Some(Fr::from(10u64)));
        assert!(nine.retrieve_started && nine.settle_intent.is_none());
        assert_eq!(four.listing, Some(ListingId(0)));
        assert_eq!(
            four.settle_intent.as_ref().map(|i| i.token),
            Some(TokenId(4))
        );
        assert!(!four.retrieve_started && four.terminal.is_none());
        assert_eq!(nine.resumed_from(), "terminal");
        assert_eq!(four.resumed_from(), "settle");
    }

    #[test]
    fn id_only_records_before_their_listing_is_known_are_ignored() {
        // Listing 7 is tied to a token only by the last record, the pay
        // intent: everything before it names a listing the fold cannot
        // place, and must not land on the one exchange that is open.
        let exchanges = fold_records(vec![
            list_intent(3),
            retrieve_intent(7),
            ExchangeRecord::RefundIntent(ListingId(7)),
            terminal(7),
            pay_intent(7, 3),
        ]);
        assert_eq!(exchanges.len(), 1);
        let p = &exchanges[0].1;
        assert_eq!(p.listing, Some(ListingId(7)));
        assert!(p.terminal.is_none() && !p.retrieve_started && !p.refund_intent);
        assert_eq!(p.resumed_from(), "pay");
    }

    #[test]
    fn recovering_a_completed_journal_appends_nothing() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut m = Marketplace::bootstrap(1 << 12, 4, &mut rng).unwrap();
        let (seller, mut buyer) = (m.register(), m.register());
        let mut wal = ExchangeWal::new();
        // A key-secure exchange the journal already closed.
        for rec in [list_intent(3), pay_intent(0, 3), terminal(0)] {
            wal.append(&rec).unwrap();
        }

        let (count, digest) = (wal.record_count(), m.chain.export_digest());
        for _ in 0..2 {
            let report = m
                .recover(&mut wal, Some(&seller), &mut buyer, &mut rng)
                .unwrap();
            assert!(matches!(
                report.exchanges[0].outcome,
                RecoveryOutcome::AlreadyTerminal(ExchangeOutcome::Settled)
            ));
            assert_eq!(report.records_replayed, count);
            assert_eq!(wal.record_count(), count);
            assert_eq!(m.chain.export_digest(), digest);
        }
    }
}

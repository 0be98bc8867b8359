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

use rand::Rng;
use zkdet_chain::contracts::{ListingId, ListingState, SwapId, SwapState};
use zkdet_chain::{Address, Event, TokenId, Wei};
use zkdet_crypto::commitment::Opening;
use zkdet_crypto::mimc::MimcCtr;
use zkdet_crypto::poseidon::Poseidon;
use zkdet_crypto::MerkleTree;
use zkdet_field::Fr;

use crate::dataset::Dataset;
use crate::error::ZkdetError;
use crate::exchange::{BuyerSession, ExchangeOutcome, ExchangeReport, SellerListing};
use crate::fairswap::{FairSwapBuyer, FairSwapSeller};
use crate::journal::{ExchangeRecord, ExchangeWal};
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

/// Replayed per-exchange progress, folded from the record stream.
#[derive(Debug, Default)]
struct Progress {
    list_intent: Option<ListIntentData>,
    listing: Option<ListingId>,
    pay_intent: Option<(Address, Fr, Fr)>, // (buyer, k_v, expected_commitment)
    paid: Option<Wei>,
    settle_k_v: Option<Fr>,
    settle_done: bool,
    retrieve_started: bool,
    refund_intent: bool,
    refund_done: bool,
    terminal: Option<ExchangeOutcome>,
}

#[derive(Debug, Clone)]
struct ListIntentData {
    start_price: Wei,
    floor_price: Wei,
    decay_per_block: Wei,
    key_commitment: Fr,
    key_opening: Fr,
    predicate: String,
}

/// Replayed per-swap progress.
#[derive(Debug, Default)]
struct SwapProgress {
    offer_intent: Option<(Fr, Fr, Vec<Fr>, Wei)>, // (key, nonce, data, price)
    swap: Option<SwapId>,
    accept_intent: Option<(Address, Vec<Fr>, Vec<Fr>)>, // (buyer, expected, ciphertext)
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
        } else if self.settle_done || self.settle_k_v.is_some() {
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
        zkdet_telemetry::counter_add("zkdet.recovery.records_replayed", records.len() as u64);
        replay_span.record("records", records.len() as u64);

        let (progress, swaps) = fold_records(&records);
        let mut report = RecoveryReport {
            records_replayed: records.len() as u64,
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
        //    its idempotency key, else re-create it with the journaled
        //    commitment and opening.
        let listing_id = if let Some(listing) = p.listing {
            listing
        } else {
            let Some(intent) = p.list_intent.clone() else {
                // A journal fragment with neither a listing nor the intent
                // to create one — nothing to recover.
                return Ok(RecoveredExchange {
                    token,
                    listing: None,
                    resumed_from,
                    outcome: RecoveryOutcome::Listed,
                });
            };
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
                    wal.append(&ExchangeRecord::ListDone { listing, token })?;
                    listing
                }
                (None, Some(seller_owner)) => self.create_listing(
                    wal,
                    seller_owner.address,
                    token,
                    intent.start_price,
                    intent.floor_price,
                    intent.decay_per_block,
                    intent.key_commitment,
                    intent.predicate,
                )?,
                // The listing never landed and the seller is gone: the
                // intent is abandoned with nothing durable to unwind.
                (None, None) => {
                    return Ok(RecoveredExchange {
                        token,
                        listing: None,
                        resumed_from,
                        outcome: RecoveryOutcome::Listed,
                    })
                }
            }
        };

        // No buyer engaged: the listing stands, nothing further to drive.
        let Some((buyer_addr, k_v, expected_commitment)) = p.pay_intent else {
            return Ok(RecoveredExchange {
                token,
                listing: Some(listing_id),
                resumed_from,
                outcome: RecoveryOutcome::Listed,
            });
        };
        if buyer_addr != buyer.address {
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
            (None, ListingState::Locked { buyer: b, payment, h_v, .. }) => {
                if *b != buyer_addr || *h_v != Poseidon::hash(&[k_v]) {
                    return Err(ZkdetError::Protocol(
                        "listing is locked by a different buyer".into(),
                    ));
                }
                let payment = *payment;
                wal.append(&ExchangeRecord::PayDone {
                    listing: listing_id,
                    price: payment,
                })?;
                payment
            }
            // The lock never landed: re-lock at the current clock price
            // with the journaled k_v.
            (None, ListingState::Open) => self.lock_payment(wal, buyer_addr, listing_id, k_v)?,
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
        let session = BuyerSession {
            buyer: buyer_addr,
            listing: listing_id,
            token,
            price,
            k_v,
            expected_commitment,
        };

        // 3. Settle side: if the settlement has not landed and the seller
        //    can still settle, resume there (idempotent under replays).
        if self
            .chain
            .settlement_height(self.auction_addr, listing_id)
            .is_none()
            && !p.refund_intent
            && !p.refund_done
        {
            let settle_k_v = p.settle_k_v.unwrap_or(k_v);
            if let (Some(seller_owner), Some(intent)) = (seller, p.list_intent.clone()) {
                if seller_owner.secret(token).is_some() {
                    let seller_listing = SellerListing {
                        listing: listing_id,
                        token,
                        key_opening: Opening(intent.key_opening),
                    };
                    self.journaled_seller_settle(
                        wal,
                        seller_owner,
                        &seller_listing,
                        settle_k_v,
                        rng,
                    )?;
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
        //    roots, else re-post it with the journaled key material.
        let swap = if let Some(swap) = sp.swap {
            swap
        } else {
            let Some((key, nonce, data, price)) = sp.offer_intent.clone() else {
                return Ok(RecoveredSwap {
                    swap: None,
                    state: "unposted",
                });
            };
            let ciphertext = MimcCtr::new(key, nonce).encrypt(&data);
            let root_c = MerkleTree::new(&ciphertext.blocks).root();
            let root_d = MerkleTree::new(&data).root();
            let key_hash = Poseidon::hash(&[key]);
            let found = self
                .chain
                .fairswap(&contract)?
                .swaps()
                .find(|(_, s)| {
                    s.root_c == root_c && s.root_d == root_d && s.key_hash == key_hash
                })
                .map(|(id, _)| id);
            match found {
                Some(swap) => {
                    wal.append(&ExchangeRecord::SwapOfferDone { swap })?;
                    swap
                }
                None => {
                    let seller_owner = seller.ok_or_else(|| {
                        ZkdetError::Protocol(
                            "journal has an unposted swap offer but no seller was supplied"
                                .into(),
                        )
                    })?;
                    let (state, _ct) = self.post_swap_offer(
                        wal,
                        contract,
                        seller_owner,
                        Dataset::from_entries(data.clone()),
                        price,
                        key,
                        nonce,
                    )?;
                    state.swap
                }
            }
        };

        // 2. Accept intent without completion: did the escrow land?
        if let (Some((buyer_addr, ..)), None) = (&sp.accept_intent, sp.accepted) {
            let state = self.chain.fairswap(&contract)?.swap(swap)?.state.clone();
            match state {
                SwapState::Offered => {
                    let on_chain = self.chain.fairswap(&contract)?.swap(swap)?.clone();
                    self.chain
                        .fairswap_accept(contract, *buyer_addr, swap, on_chain.price)?;
                    wal.append(&ExchangeRecord::SwapAcceptDone {
                        swap,
                        payment: on_chain.price,
                    })?;
                }
                SwapState::Paid { buyer: b, payment }
                | SwapState::Revealed {
                    buyer: b, payment, ..
                } => {
                    if b != *buyer_addr {
                        return Err(ZkdetError::Protocol(
                            "swap is escrowed by a different buyer".into(),
                        ));
                    }
                    wal.append(&ExchangeRecord::SwapAcceptDone { swap, payment })?;
                }
                SwapState::Completed | SwapState::Refunded => {}
            }
        }

        // 3. Reveal: if the escrow stands and the key is not on-chain yet,
        //    the seller (if present, with the journaled key) reveals.
        let state = self.chain.fairswap(&contract)?.swap(swap)?.state.clone();
        if matches!(state, SwapState::Paid { .. }) && !sp.revealed {
            if let (Some(seller_owner), Some((key, nonce, data, _price))) =
                (seller, sp.offer_intent.clone())
            {
                let ciphertext = MimcCtr::new(key, nonce).encrypt(&data);
                let seller_state = FairSwapSeller {
                    swap,
                    key,
                    nonce,
                    data: Dataset::from_entries(data),
                    ciphertext_blocks: ciphertext.blocks,
                };
                self.journaled_fairswap_reveal(wal, contract, seller_owner, &seller_state)?;
            }
        }

        // 4. Finish: with a revealed key and journaled buyer blocks, the
        //    buyer decrypts and finishes or disputes.
        let state = self.chain.fairswap(&contract)?.swap(swap)?.state.clone();
        if matches!(state, SwapState::Revealed { .. }) && !sp.finished {
            if let Some((buyer_addr, expected, ciphertext)) = sp.accept_intent.clone() {
                let on_chain = self.chain.fairswap(&contract)?.swap(swap)?.clone();
                let buyer_state = FairSwapBuyer {
                    swap,
                    buyer: buyer_addr,
                    expected: MerkleTree::new(&expected),
                    expected_blocks: expected,
                    ciphertext: MerkleTree::new(&ciphertext),
                    ciphertext_blocks: ciphertext,
                    payment: match on_chain.state {
                        SwapState::Revealed { payment, .. } => payment,
                        _ => on_chain.price,
                    },
                };
                // Finished or disputed: the state read below reports which.
                let _ = self.journaled_fairswap_finish(wal, contract, &buyer_state)?;
            }
        }

        let state = self.chain.fairswap(&contract)?.swap(swap)?.state.clone();
        Ok(RecoveredSwap {
            swap: Some(swap),
            state: match state {
                SwapState::Offered => "offered",
                SwapState::Paid { .. } => "paid",
                SwapState::Revealed { .. } => "revealed",
                SwapState::Completed => "completed",
                SwapState::Refunded => "refunded",
            },
        })
    }
}

/// Folds the record stream into per-exchange and per-swap progress.
///
/// Exchanges are keyed by token (the journal-level idempotency key: one
/// active exchange per token per journal); swap records attach to the
/// most recent offer without an id, or by swap id once assigned.
fn fold_records(records: &[ExchangeRecord]) -> (Vec<(TokenId, Progress)>, Vec<SwapProgress>) {
    let mut order: Vec<TokenId> = Vec::new();
    let mut by_token: std::collections::BTreeMap<TokenId, Progress> =
        std::collections::BTreeMap::new();
    let mut listing_token: std::collections::BTreeMap<ListingId, TokenId> =
        std::collections::BTreeMap::new();
    let mut swaps: Vec<SwapProgress> = Vec::new();

    let touch = |order: &mut Vec<TokenId>,
                     by_token: &mut std::collections::BTreeMap<TokenId, Progress>,
                     token: TokenId|
     -> TokenId {
        by_token.entry(token).or_insert_with(|| {
            order.push(token);
            Progress::default()
        });
        token
    };
    let swap_entry = |swaps: &mut Vec<SwapProgress>, id: SwapId| -> usize {
        if let Some(i) = swaps.iter().position(|s| s.swap == Some(id)) {
            return i;
        }
        swaps.push(SwapProgress {
            swap: Some(id),
            ..SwapProgress::default()
        });
        swaps.len() - 1
    };

    for rec in records {
        match rec {
            ExchangeRecord::ListIntent {
                token,
                start_price,
                floor_price,
                decay_per_block,
                key_commitment,
                key_opening,
                predicate,
            } => {
                let t = touch(&mut order, &mut by_token, *token);
                if let Some(p) = by_token.get_mut(&t) {
                    p.list_intent = Some(ListIntentData {
                        start_price: *start_price,
                        floor_price: *floor_price,
                        decay_per_block: *decay_per_block,
                        key_commitment: *key_commitment,
                        key_opening: *key_opening,
                        predicate: predicate.clone(),
                    });
                }
            }
            ExchangeRecord::ListDone { listing, token } => {
                let t = touch(&mut order, &mut by_token, *token);
                listing_token.insert(*listing, t);
                if let Some(p) = by_token.get_mut(&t) {
                    p.listing = Some(*listing);
                }
            }
            ExchangeRecord::PayIntent {
                listing,
                token,
                buyer,
                k_v,
                expected_commitment,
            } => {
                let t = touch(&mut order, &mut by_token, *token);
                listing_token.insert(*listing, t);
                if let Some(p) = by_token.get_mut(&t) {
                    p.listing = Some(*listing);
                    p.pay_intent = Some((*buyer, *k_v, *expected_commitment));
                }
            }
            ExchangeRecord::PayDone { listing, price } => {
                if let Some(p) = listing_token.get(listing).and_then(|t| by_token.get_mut(t)) {
                    p.paid = Some(*price);
                }
            }
            ExchangeRecord::SettleIntent { listing, token, k_v } => {
                let t = touch(&mut order, &mut by_token, *token);
                listing_token.insert(*listing, t);
                if let Some(p) = by_token.get_mut(&t) {
                    p.listing = Some(*listing);
                    p.settle_k_v = Some(*k_v);
                }
            }
            ExchangeRecord::ProveDone { .. } => {
                // Proving has no side effect; a replay simply re-proves.
            }
            ExchangeRecord::SettleDone { listing } => {
                if let Some(p) = listing_token.get(listing).and_then(|t| by_token.get_mut(t)) {
                    p.settle_done = true;
                }
            }
            ExchangeRecord::RetrieveIntent { listing, .. }
            | ExchangeRecord::RetrieveDone { listing }
            | ExchangeRecord::DecryptDone { listing } => {
                if let Some(p) = listing_token.get(listing).and_then(|t| by_token.get_mut(t)) {
                    p.retrieve_started = true;
                }
            }
            ExchangeRecord::RefundIntent { listing } => {
                if let Some(p) = listing_token.get(listing).and_then(|t| by_token.get_mut(t)) {
                    p.refund_intent = true;
                }
            }
            ExchangeRecord::RefundDone { listing } => {
                if let Some(p) = listing_token.get(listing).and_then(|t| by_token.get_mut(t)) {
                    p.refund_done = true;
                }
            }
            ExchangeRecord::Terminal {
                listing, outcome, ..
            } => {
                if let Some(p) = listing_token.get(listing).and_then(|t| by_token.get_mut(t)) {
                    p.terminal = Some(outcome.clone());
                }
            }
            ExchangeRecord::SwapOfferIntent {
                key,
                nonce,
                data,
                price,
            } => {
                swaps.push(SwapProgress {
                    offer_intent: Some((*key, *nonce, data.clone(), *price)),
                    ..SwapProgress::default()
                });
            }
            ExchangeRecord::SwapOfferDone { swap } => {
                if let Some(sp) = swaps.iter_mut().rev().find(|s| s.swap.is_none()) {
                    sp.swap = Some(*swap);
                } else {
                    let _ = swap_entry(&mut swaps, *swap);
                }
            }
            ExchangeRecord::SwapAcceptIntent {
                swap,
                buyer,
                expected,
                ciphertext,
            } => {
                let i = swap_entry(&mut swaps, *swap);
                swaps[i].accept_intent = Some((*buyer, expected.clone(), ciphertext.clone()));
            }
            ExchangeRecord::SwapAcceptDone { swap, payment } => {
                let i = swap_entry(&mut swaps, *swap);
                swaps[i].accepted = Some(*payment);
            }
            ExchangeRecord::SwapRevealIntent { .. } => {}
            ExchangeRecord::SwapRevealDone { swap } => {
                let i = swap_entry(&mut swaps, *swap);
                swaps[i].revealed = true;
            }
            ExchangeRecord::SwapFinishIntent { .. } => {}
            ExchangeRecord::SwapFinishDone { swap, .. } => {
                let i = swap_entry(&mut swaps, *swap);
                swaps[i].finished = true;
            }
        }
    }

    let progress = order
        .into_iter()
        .filter_map(|t| by_token.remove(&t).map(|p| (t, p)))
        .collect();
    (progress, swaps)
}

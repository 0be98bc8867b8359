//! The key-secure two-phase data exchange protocol (§IV-F, Fig. 4).
//!
//! Phase 1 — *data validation*: the seller supplies `π_p` (the predicate +
//! commitment-opening proof, with the encryption conjunct covered by the
//! token's reusable `π_e`); the buyer verifies it, draws `k_v`, sends `k_v`
//! to the seller off-chain and locks the payment on-chain together with
//! `h_v = H(k_v)`.
//!
//! Phase 2 — *key negotiation*: the seller submits `(k_c = k + k_v, π_k)`
//! to the arbiter contract, which verifies
//! `Open(k,c,o) = 1 ∧ h_v = H(k_v) ∧ k_c = k + k_v` and releases the
//! payment. The buyer unblinds `k = k_c − k_v` and decrypts. **The key `k`
//! never appears on-chain** — any third party sees only `k_c`, which is a
//! one-time-pad blinding of `k` under `k_v`.
//!
//! Each step is written once, over a [`Journal`]: the `journaled_*` form
//! appends the step's intent before its side effect, the plain form runs
//! it over [`NoJournal`]. The journal records nothing the chain knows; a
//! crash-restart reads the landed effects back from the chain
//! ([`crate::recovery`]).

use std::sync::Arc;

use rand::Rng;
use zkdet_chain::contracts::{ListingId, ListingState, REFUND_TIMEOUT_BLOCKS};
use zkdet_chain::{Address, Event, TokenId, Wei};
use zkdet_circuits::exchange::{KeyNegotiationCircuit, ValidationCircuit, ValidationPredicate};
use zkdet_crypto::commitment::{Commitment, CommitmentScheme, Opening};
use zkdet_crypto::mimc::MimcCtr;
use zkdet_crypto::poseidon::Poseidon;
use zkdet_field::{Field, Fr};
use zkdet_plonk::{Plonk, Proof, VerifyingKey};

use crate::dataset::Dataset;
use crate::error::{Recovery, ZkdetError};
use crate::journal::{
    ExchangeRecord, Journal, ListIntent, NoJournal, PayIntent, RetrieveIntent, SettleIntent,
    Terminal,
};
use crate::market::{DataOwner, DatasetSecret, Marketplace};

/// Seller-side state for an open listing.
#[derive(Clone, Debug)]
pub struct SellerListing {
    /// The on-chain listing.
    pub listing: ListingId,
    /// The token being sold.
    pub token: TokenId,
    /// Blinder of the key commitment `c` held by the arbiter.
    pub key_opening: Opening,
}

impl SellerListing {
    /// The seller's state for the journaled `intent`, on-chain as
    /// `listing` — built here for the live list step and for recovery.
    pub(crate) fn from_intent(intent: &ListIntent, listing: ListingId) -> Self {
        SellerListing {
            listing,
            token: intent.token,
            key_opening: Opening(intent.key_opening),
        }
    }
}

/// A seller-produced validation package: `π_p` and everything the buyer
/// needs to check it (Fig. 4's *data validation phase* message).
#[derive(Clone, Debug)]
pub struct ValidationPackage {
    /// The proof.
    pub proof: Proof,
    /// Statement values `[c_d, predicate publics…]`.
    pub publics: Vec<Fr>,
    /// Verifying key for the predicate relation (public setup data; the
    /// key registry's entry, shared by reference).
    pub vk: Arc<VerifyingKey>,
}

/// Buyer-side state between locking and recovery.
#[derive(Clone, Debug)]
pub struct BuyerSession {
    /// The buyer's address.
    pub buyer: Address,
    /// The listing being bought.
    pub listing: ListingId,
    /// The token being bought.
    pub token: TokenId,
    /// Price paid into escrow.
    pub price: Wei,
    /// The buyer's secret blinding key `k_v`.
    k_v: Fr,
    /// The on-chain commitment `c_d` of the dataset (for final checks).
    expected_commitment: Fr,
}

impl BuyerSession {
    /// The buyer's session for the journaled `intent` with `price` in
    /// escrow — built here for the live lock step and for recovery.
    pub(crate) fn from_intent(intent: &PayIntent, price: Wei) -> Self {
        BuyerSession {
            buyer: intent.buyer,
            listing: intent.listing,
            token: intent.token,
            price,
            k_v: intent.k_v,
            expected_commitment: intent.expected_commitment,
        }
    }

    /// The off-chain message to the seller: `k_v` (Fig. 4, step between
    /// phases). Sending it anywhere else would let that party unblind `k_c`.
    pub fn k_v_message(&self) -> Fr {
        self.k_v
    }
}

/// Terminal state of an exchange.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExchangeOutcome {
    /// Payment released to the seller; buyer holds the token and plaintext.
    Settled,
    /// Buyer reclaimed the escrow after a seller timeout.
    Refunded,
    /// The exchange settled on-chain but the plaintext could not be
    /// recovered (artefacts irretrievable or inconsistent after the retry
    /// budget). Funds are with the seller, the token with the buyer; no
    /// escrow is wedged.
    Aborted,
}

/// Summary of a [`Marketplace::drive_exchange_to_completion`] run.
#[derive(Clone, Debug)]
pub struct ExchangeReport {
    /// Terminal state reached — never a wedged intermediate.
    pub outcome: ExchangeOutcome,
    /// Recovered plaintext ([`ExchangeOutcome::Settled`] only).
    pub data: Option<Dataset>,
    /// Recovery attempts made against the published `k_c`.
    pub recover_attempts: u32,
    /// Blocks mined while waiting on the seller or the refund timeout.
    pub blocks_waited: u64,
    /// Why the exchange did not settle, for non-`Settled` outcomes.
    pub failure: Option<String>,
}

const MISSED_DEADLINE: &str = "seller missed the settlement deadline";
/// The terminal reason of a refund found on chain rather than made.
pub(crate) const REFUND_LANDED: &str = "refund landed before the crash";

/// Journals an exchange's `Terminal` record and builds its report.
pub(crate) fn finish_exchange(
    journal: &mut impl Journal,
    listing: ListingId,
    outcome: ExchangeOutcome,
    data: Option<Dataset>,
    reason: String,
    recover_attempts: u32,
) -> Result<ExchangeReport, ZkdetError> {
    journal.append(&ExchangeRecord::Terminal(Terminal {
        listing,
        outcome: outcome.clone(),
        reason: reason.clone(),
    }))?;
    let failure = match outcome {
        ExchangeOutcome::Settled => None,
        ExchangeOutcome::Refunded => Some(MISSED_DEADLINE.to_string()),
        ExchangeOutcome::Aborted => Some(reason),
    };
    Ok(ExchangeReport {
        outcome,
        data,
        recover_attempts,
        blocks_waited: 0,
        failure,
    })
}

/// Recovery attempts [`Marketplace::drive_exchange_to_completion`] makes
/// against a settled listing before declaring the artefacts unrecoverable.
pub const MAX_RECOVER_ATTEMPTS: u32 = 8;

/// A proved-but-unsubmitted settlement: the output of the prove step,
/// the input of the submit step. Nothing is journaled between the two: a
/// crash in that window re-proves from the journaled [`SettleIntent`].
#[derive(Clone, Debug)]
pub struct SettlementSubmission {
    /// The listing being settled.
    pub listing: ListingId,
    /// The blinded key `k_c = k + k_v`.
    pub k_c: Fr,
    /// The key-negotiation proof `π_k`.
    pub proof: Proof,
}

/// Everything the π_k prover needs, checked and assembled but not yet
/// proved — the executor's exchange machine synthesizes this on the
/// control thread and hands the (CPU-bound) proving to a worker.
pub struct SettlementWitness {
    /// The listing being settled.
    pub listing: ListingId,
    /// The blinded key `k_c = k + k_v`.
    pub k_c: Fr,
    /// The synthesized π_k circuit, ready to prove.
    pub circuit: zkdet_plonk::CompiledCircuit,
}

impl Marketplace {
    /// Seller lists a token in a clock auction. The arbiter (auction
    /// contract) is initialized with the commitment `c` to the decryption
    /// key, per §IV-F.
    #[allow(clippy::too_many_arguments)]
    pub fn list_for_sale<R: Rng + ?Sized>(
        &mut self,
        owner: &DataOwner,
        token: TokenId,
        start_price: Wei,
        floor_price: Wei,
        decay_per_block: Wei,
        predicate_description: String,
        rng: &mut R,
    ) -> Result<SellerListing, ZkdetError> {
        self.journaled_list_for_sale(
            &mut NoJournal,
            owner,
            token,
            start_price,
            floor_price,
            decay_per_block,
            predicate_description,
            rng,
        )
    }

    /// [`Marketplace::list_for_sale`] over a journal: the freshly drawn
    /// key opening is durable before the listing lands on-chain.
    #[allow(clippy::too_many_arguments)]
    pub fn journaled_list_for_sale<R: Rng + ?Sized>(
        &mut self,
        journal: &mut impl Journal,
        owner: &DataOwner,
        token: TokenId,
        start_price: Wei,
        floor_price: Wei,
        decay_per_block: Wei,
        predicate_description: String,
        rng: &mut R,
    ) -> Result<SellerListing, ZkdetError> {
        let _trace = zkdet_telemetry::enter_trace(zkdet_telemetry::TraceId::for_exchange(token.0));
        let _span = zkdet_telemetry::span("exchange.list");
        let secret = owner
            .secret(token)
            .ok_or(ZkdetError::MissingSecret(token))?;
        let (key_commitment, key_opening) = CommitmentScheme::commit_scalar(secret.key, rng);
        let intent = ListIntent {
            token,
            start_price,
            floor_price,
            decay_per_block,
            key_commitment: key_commitment.0,
            key_opening: key_opening.0,
            predicate: predicate_description,
        };
        journal.append(&ExchangeRecord::ListIntent(intent.clone()))?;
        let listing = self.create_listing(owner.address, &intent)?;
        Ok(SellerListing::from_intent(&intent, listing))
    }

    /// The effect half of the list step: lands the listing of an
    /// already-journaled `intent`. Crash recovery re-executes an intent
    /// whose listing is not on chain through here, with the *journaled*
    /// commitment.
    pub(crate) fn create_listing(
        &mut self,
        seller: Address,
        intent: &ListIntent,
    ) -> Result<ListingId, ZkdetError> {
        let (listing, _) = self.chain.auction_create(
            self.auction_addr,
            self.nft_addr,
            seller,
            intent.token,
            intent.start_price,
            intent.floor_price,
            intent.decay_per_block,
            intent.key_commitment,
            intent.predicate.clone(),
        )?;
        Ok(listing)
    }

    /// Seller produces the validation package `π_p` for a predicate φ
    /// (phase 1 message). The encryption conjunct of the paper's `π_p` is
    /// covered by the token's stored `π_e`, which the buyer checks through
    /// [`Marketplace::audit_token`]; both proofs share the commitment `c_d`.
    pub fn seller_validation_package<P: ValidationPredicate, R: Rng + ?Sized>(
        &mut self,
        owner: &DataOwner,
        token: TokenId,
        predicate: P,
        rng: &mut R,
    ) -> Result<ValidationPackage, ZkdetError> {
        let _span = zkdet_telemetry::span("exchange.validation_package");
        let secret = owner
            .secret(token)
            .ok_or(ZkdetError::MissingSecret(token))?;
        let shape = ValidationCircuit::new(secret.data.len(), predicate);
        let circuit = shape.synthesize(
            secret.data.entries(),
            &secret.commitment,
            &secret.opening,
        );
        let keys = self.validation_keys(&circuit)?;
        let proof = Plonk::prove(&keys.pk, &circuit, rng)?;
        Ok(ValidationPackage {
            proof,
            publics: shape.public_inputs(&secret.commitment),
            vk: keys.vk,
        })
    }

    /// Buyer verifies `π_p` (and its link to the on-chain commitment),
    /// draws `k_v` and locks the payment with `h_v = H(k_v)`.
    ///
    /// # Errors
    ///
    /// Fails if the validation proof does not verify, if its commitment
    /// does not match the token's on-chain commitment, or if the buyer
    /// cannot cover the clock price.
    pub fn buyer_validate_and_lock<R: Rng + ?Sized>(
        &mut self,
        buyer: &DataOwner,
        listing_id: ListingId,
        package: &ValidationPackage,
        rng: &mut R,
    ) -> Result<BuyerSession, ZkdetError> {
        self.journaled_validate_and_lock(&mut NoJournal, buyer, listing_id, package, rng)
    }

    /// [`Marketplace::buyer_validate_and_lock`] over a journal: `k_v` is
    /// durable before the payment locks, so a crash-restart can rebuild
    /// the session and still unblind `k_c`.
    pub fn journaled_validate_and_lock<R: Rng + ?Sized>(
        &mut self,
        journal: &mut impl Journal,
        buyer: &DataOwner,
        listing_id: ListingId,
        package: &ValidationPackage,
        rng: &mut R,
    ) -> Result<BuyerSession, ZkdetError> {
        let token = self.check_validation_binding(listing_id, package)?;
        let _trace = zkdet_telemetry::enter_trace(zkdet_telemetry::TraceId::for_exchange(token.0));
        let _span = zkdet_telemetry::span("exchange.validate_and_lock");
        if !Plonk::verify(&package.vk, &package.publics, &package.proof) {
            return Err(ZkdetError::ProofInvalid("π_p"));
        }
        self.lock_checked(journal, buyer, listing_id, token, rng)
    }

    /// The binding half of the buyer's π_p check: the proof's statement must
    /// be about the token's on-chain commitment. The pairing check itself is
    /// separate so the sharded executor can fold many `Plonk::verify` calls
    /// into one batched lineage check (DESIGN.md §16) while still rejecting
    /// mismatched statements up front.
    pub fn check_validation_binding(
        &self,
        listing_id: ListingId,
        package: &ValidationPackage,
    ) -> Result<TokenId, ZkdetError> {
        let token = self
            .chain
            .auction(&self.auction_addr)?
            .listing(listing_id)?
            .token;
        let on_chain_commitment = self.chain.nft(&self.nft_addr)?.token_meta(token)?.commitment;
        if package.publics.first() != Some(&on_chain_commitment) {
            return Err(ZkdetError::Inconsistent(
                "validation proof is about a different commitment".into(),
            ));
        }
        Ok(token)
    }

    /// The lock half of [`Marketplace::journaled_validate_and_lock`], for
    /// callers that already verified π_p — the executor's exchange
    /// machines lock through here once their folded batch vouched for it
    /// (DESIGN.md §16). Still re-checks the statement binding — the cheap
    /// part — so a stale package cannot lock against the wrong token.
    pub fn journaled_lock_verified<R: Rng + ?Sized>(
        &mut self,
        journal: &mut impl Journal,
        buyer: &DataOwner,
        listing_id: ListingId,
        package: &ValidationPackage,
        rng: &mut R,
    ) -> Result<BuyerSession, ZkdetError> {
        let token = self.check_validation_binding(listing_id, package)?;
        let _trace = zkdet_telemetry::enter_trace(zkdet_telemetry::TraceId::for_exchange(token.0));
        let _span = zkdet_telemetry::span("exchange.validate_and_lock");
        self.lock_checked(journal, buyer, listing_id, token, rng)
    }

    /// The lock step once π_p and its binding are checked: draws `k_v`,
    /// journals it, escrows the payment.
    fn lock_checked<R: Rng + ?Sized>(
        &mut self,
        journal: &mut impl Journal,
        buyer: &DataOwner,
        listing: ListingId,
        token: TokenId,
        rng: &mut R,
    ) -> Result<BuyerSession, ZkdetError> {
        let expected_commitment = self
            .chain
            .nft(&self.nft_addr)?
            .token_meta(token)?
            .commitment;
        let intent = PayIntent {
            listing,
            token,
            buyer: buyer.address,
            k_v: Fr::random(rng),
            expected_commitment,
        };
        journal.append(&ExchangeRecord::PayIntent(intent.clone()))?;
        let price = self.lock_payment(&intent)?;
        Ok(BuyerSession::from_intent(&intent, price))
    }

    /// The effect half of the lock step: escrows the current clock price
    /// under `h_v = H(k_v)` for an already-journaled `intent`. Crash
    /// recovery re-executes an intent whose lock is not on chain through
    /// here, with the *journaled* `k_v`.
    pub(crate) fn lock_payment(&mut self, intent: &PayIntent) -> Result<Wei, ZkdetError> {
        let listing = intent.listing;
        let price = self
            .chain
            .auction(&self.auction_addr)?
            .listing(listing)?
            .price_at(self.chain.height());
        let h_v = Poseidon::hash(&[intent.k_v]);
        self.chain
            .auction_lock(self.auction_addr, intent.buyer, listing, price, h_v)?;
        Ok(price)
    }

    /// Seller settles (phase 2): derives `k_c = k + k_v`, proves `π_k`, and
    /// submits both to the arbiter contract, which pays out on success.
    pub fn seller_settle<R: Rng + ?Sized>(
        &mut self,
        owner: &DataOwner,
        seller_listing: &SellerListing,
        buyer_k_v: Fr,
        rng: &mut R,
    ) -> Result<(), ZkdetError> {
        self.journaled_seller_settle(&mut NoJournal, owner, seller_listing, buyer_k_v, rng)
    }

    /// [`Marketplace::seller_settle`] over a journal:
    /// [`Marketplace::seller_begin_settlement`] and
    /// [`Marketplace::seller_submit_settlement`] joined by an inline
    /// `Plonk::prove`.
    pub fn journaled_seller_settle<R: Rng + ?Sized>(
        &mut self,
        journal: &mut impl Journal,
        owner: &DataOwner,
        seller_listing: &SellerListing,
        buyer_k_v: Fr,
        rng: &mut R,
    ) -> Result<(), ZkdetError> {
        let _trace = zkdet_telemetry::enter_trace(zkdet_telemetry::TraceId::for_exchange(
            seller_listing.token.0,
        ));
        let _span = zkdet_telemetry::span("exchange.settle");
        // Already settled: idempotent success.
        let Some(witness) =
            self.seller_begin_settlement(journal, owner, seller_listing, buyer_k_v)?
        else {
            return Ok(());
        };
        let proof = {
            let _span = zkdet_telemetry::span("exchange.prove_settlement");
            Plonk::prove(&self.keyneg.pk, &witness.circuit, rng)?
        };
        let submission = SettlementSubmission {
            listing: witness.listing,
            k_c: witness.k_c,
            proof,
        };
        self.seller_submit_settlement(owner.address, &submission)
    }

    /// The begin half of the settle step: journals the intent, runs every
    /// protocol check and assembles the π_k witness — the proving itself
    /// is the caller's (inline in [`Marketplace::journaled_seller_settle`],
    /// a pool job in the executor's exchange machine). Returns `None` if
    /// the listing had settled before.
    pub fn seller_begin_settlement(
        &self,
        journal: &mut impl Journal,
        owner: &DataOwner,
        seller_listing: &SellerListing,
        buyer_k_v: Fr,
    ) -> Result<Option<SettlementWitness>, ZkdetError> {
        journal.append(&ExchangeRecord::SettleIntent(SettleIntent {
            listing: seller_listing.listing,
            token: seller_listing.token,
            k_v: buyer_k_v,
        }))?;
        self.settlement_witness(owner, seller_listing, buyer_k_v)
    }

    /// The check-and-synthesize half of π_k proving: checks the lock,
    /// derives `k_c` and assembles the circuit — **no side effect**, and
    /// the CPU-bound `Plonk::prove` is left to the caller. Returns `None`
    /// if the listing already settled (idempotency: an earlier submission
    /// may have been confirmed, re-orged and replayed — the chain's
    /// settlement journal guarantees no funds move twice).
    pub fn settlement_witness(
        &self,
        owner: &DataOwner,
        seller_listing: &SellerListing,
        buyer_k_v: Fr,
    ) -> Result<Option<SettlementWitness>, ZkdetError> {
        let secret = owner
            .secret(seller_listing.token)
            .ok_or(ZkdetError::MissingSecret(seller_listing.token))?;
        if self
            .chain
            .settlement_height(self.auction_addr, seller_listing.listing)
            .is_some()
        {
            return Ok(None);
        }
        // Honest-seller check mirroring Fig. 4: if the buyer's k_v does not
        // match the h_v they locked, abort before proving.
        let listing = self
            .chain
            .auction(&self.auction_addr)?
            .listing(seller_listing.listing)?;
        let ListingState::Locked { h_v, .. } = listing.state else {
            return Err(ZkdetError::Protocol(
                "listing is not locked by a buyer".into(),
            ));
        };
        if Poseidon::hash(&[buyer_k_v]) != h_v {
            return Err(ZkdetError::Protocol(
                "buyer's k_v does not match the locked h_v".into(),
            ));
        }

        let key_commitment = Commitment(listing.key_commitment);
        let k_c = secret.key + buyer_k_v;
        let circuit = KeyNegotiationCircuit.synthesize(
            secret.key,
            buyer_k_v,
            &key_commitment,
            &seller_listing.key_opening,
        );
        Ok(Some(SettlementWitness {
            listing: seller_listing.listing,
            k_c,
            circuit,
        }))
    }

    /// The submit half of the settle step: sends the proved `(k_c, π_k)`
    /// to the arbiter contract and mines the block. Safe to replay — a
    /// resubmission after an earlier settle already landed (e.g. retried
    /// across a re-org or after a crash) is an idempotent success.
    pub fn seller_submit_settlement(
        &mut self,
        seller: Address,
        submission: &SettlementSubmission,
    ) -> Result<(), ZkdetError> {
        let _span = zkdet_telemetry::span("exchange.submit_settlement");
        match self.chain.auction_settle_key_secure(
            self.auction_addr,
            self.nft_addr,
            self.keyneg_verifier_addr,
            seller,
            submission.listing,
            submission.k_c,
            &submission.proof,
        ) {
            Err(zkdet_chain::ChainError::AlreadySettled { .. }) => return Ok(()),
            result => {
                result?;
            }
        }
        self.chain.mine_block();
        Ok(())
    }

    /// The blinded key `k_c` published for a listing, if settled.
    ///
    /// Only a key-secure settle emits `KeyPublished`, and it moves the
    /// listing to `Settled` in the same call, so any other state answers
    /// without reading the log. A settled listing's event is searched
    /// newest block first.
    pub fn published_k_c(&self, listing: ListingId) -> Option<Fr> {
        let state = &self
            .chain
            .auction(&self.auction_addr)
            .ok()?
            .listing(listing)
            .ok()?
            .state;
        if *state != ListingState::Settled {
            return None;
        }
        self.chain
            .blocks()
            .iter()
            .rev()
            .flat_map(|block| &block.receipts)
            .flat_map(|receipt| &receipt.events)
            .find_map(|event| match event {
                Event::KeyPublished { listing: l, k_c } if *l == listing => Some(*k_c),
                _ => None,
            })
    }

    /// Buyer recovery: unblinds `k = k_c − k_v`, fetches and decrypts the
    /// ciphertext, and checks the result against the public record by
    /// re-encrypting (binding through the CID and `π_e`).
    pub fn buyer_recover(
        &mut self,
        buyer: &mut DataOwner,
        session: &BuyerSession,
    ) -> Result<Dataset, ZkdetError> {
        let _trace = zkdet_telemetry::enter_trace(zkdet_telemetry::TraceId::for_exchange(
            session.token.0,
        ));
        let k_c = self
            .published_k_c(session.listing)
            .ok_or_else(|| ZkdetError::Protocol("listing not settled yet".into()))?;
        self.recover_attempt(buyer, session, k_c)
    }

    /// One recovery attempt against the published `k_c`: fetch, decrypt,
    /// check. It moves no funds, so a crash anywhere in it re-runs it.
    fn recover_attempt(
        &mut self,
        buyer: &mut DataOwner,
        session: &BuyerSession,
        k_c: Fr,
    ) -> Result<Dataset, ZkdetError> {
        let _span = zkdet_telemetry::span("exchange.recover");
        let k = k_c - session.k_v;
        let (ciphertext, _bundle) = self.fetch_artefacts(session.token)?;

        let ctr = MimcCtr::new(k, ciphertext.nonce);
        let plaintext = ctr.decrypt(&ciphertext);
        // Defense in depth: re-encrypt and compare (the ciphertext is bound
        // to the CID, the CID to the token, the token to π_e).
        if ctr.encrypt(&plaintext) != ciphertext {
            return Err(ZkdetError::Inconsistent(
                "recovered key does not reproduce the public ciphertext".into(),
            ));
        }
        let data = Dataset::from_entries(plaintext);
        // Token should now belong to the buyer.
        let owner_now = self.chain.nft(&self.nft_addr)?.owner_of(session.token)?;
        if owner_now != session.buyer {
            return Err(ZkdetError::Inconsistent(
                "token was not transferred to the buyer".into(),
            ));
        }
        buyer.learn_secret(
            session.token,
            DatasetSecret {
                key: k,
                nonce: ciphertext.nonce,
                // The buyer does not learn the original opening; a resale
                // re-commits under fresh randomness.
                opening: Opening(Fr::ZERO),
                data: data.clone(),
                commitment: Commitment(session.expected_commitment),
            },
        );
        Ok(data)
    }

    /// Buyer refund path after a seller timeout (`REFUND_TIMEOUT_BLOCKS`).
    pub fn buyer_refund(&mut self, session: &BuyerSession) -> Result<ExchangeOutcome, ZkdetError> {
        let _trace = zkdet_telemetry::enter_trace(zkdet_telemetry::TraceId::for_exchange(
            session.token.0,
        ));
        let _span = zkdet_telemetry::span("exchange.refund");
        self.chain
            .auction_refund(self.auction_addr, session.buyer, session.listing)?;
        Ok(ExchangeOutcome::Refunded)
    }

    /// One iteration of the buyer's drive towards a terminal state, under
    /// the deadline discipline of §IV-F against the simulated chain
    /// height. Returns the report once the exchange is terminal, `None`
    /// while it is not — the caller decides how time passes before the
    /// next iteration (the inline loops mine a block, the executor's
    /// machine yields to its shard's block producer).
    ///
    /// - once the seller's `k_c` is published, recovery is attempted with
    ///   transient storage faults retried up to [`MAX_RECOVER_ATTEMPTS`]
    ///   times (each attempt already retries, hedges and backs off inside
    ///   [`crate::market::Marketplace::fetch_artefacts`]); unrecoverable
    ///   artefacts end in [`ExchangeOutcome::Aborted`] — the escrow was
    ///   already released, nothing is wedged;
    /// - while unsettled, nothing happens until
    ///   `locked_at + REFUND_TIMEOUT_BLOCKS` passes, at which point the
    ///   escrow is reclaimed ([`ExchangeOutcome::Refunded`]); a listing
    ///   already back in `Open` means that refund landed earlier (a crash
    ///   came before its `Terminal` record, or the session was driven
    ///   twice);
    /// - a listing another buyer has locked, or whose settlement this
    ///   buyer cannot unblind, is judged by this buyer's own lock on the
    ///   chain's log: if its refund landed, the exchange ended
    ///   [`ExchangeOutcome::Refunded`]. Only these rare arms read the log;
    ///   the common ones (locked by or settled to this buyer) read no more
    ///   than the listing's state;
    /// - [`crate::error::Recovery::Fatal`] errors (proof or protocol
    ///   violations) propagate as `Err` immediately;
    /// - every iteration ticks the storage layer's deterministic repair
    ///   scheduler ([`crate::market::Marketplace::tick_storage_repairs`]),
    ///   so erasure shares lost to churn or Byzantine corruption are
    ///   re-placed while the exchange is still in flight — a degraded read
    ///   on one attempt can find full redundancy restored on the next.
    pub fn advance_exchange(
        &mut self,
        journal: &mut impl Journal,
        buyer: &mut DataOwner,
        session: &BuyerSession,
        recover_attempts: &mut u32,
    ) -> Result<Option<ExchangeReport>, ZkdetError> {
        let listing = session.listing;
        self.tick_storage_repairs();
        let (outcome, data, reason) = if let Some(k_c) = self.published_k_c(listing) {
            *recover_attempts += 1;
            journal.append(&ExchangeRecord::RetrieveIntent(RetrieveIntent {
                listing,
                attempt: *recover_attempts,
            }))?;
            match self.recover_attempt(buyer, session, k_c) {
                Ok(data) => (ExchangeOutcome::Settled, Some(data), String::new()),
                // Storage was flaky, not wrong — try again later.
                Err(e)
                    if e.recovery() == Recovery::Transient
                        && *recover_attempts < MAX_RECOVER_ATTEMPTS =>
                {
                    return Ok(None)
                }
                // The listing settled to another buyer after this one's
                // refund landed: the `k_c` was never ours to unblind.
                Err(e) if e.recovery() != Recovery::Fatal && self.refund_landed(session) => {
                    (ExchangeOutcome::Refunded, None, REFUND_LANDED.to_string())
                }
                // Settled on-chain: the refund path is closed, but every
                // party is in a clean terminal state.
                Err(e) if e.recovery() != Recovery::Fatal => {
                    (ExchangeOutcome::Aborted, None, e.to_string())
                }
                Err(e) => return Err(e),
            }
        } else {
            let auction = self.chain.auction(&self.auction_addr)?;
            match auction.listing(listing)?.state {
                // Another buyer locked the listing after this one's refund
                // landed.
                ListingState::Locked { buyer, .. }
                    if buyer != session.buyer && self.refund_landed(session) =>
                {
                    (ExchangeOutcome::Refunded, None, REFUND_LANDED.to_string())
                }
                ListingState::Locked { locked_at, .. } => {
                    if self.chain.height() < locked_at + REFUND_TIMEOUT_BLOCKS {
                        return Ok(None);
                    }
                    journal.append(&ExchangeRecord::RefundIntent(listing))?;
                    match self.buyer_refund(session) {
                        Ok(outcome) => (outcome, None, MISSED_DEADLINE.to_string()),
                        Err(e) if e.recovery() == Recovery::Transient => return Ok(None),
                        Err(e) => return Err(e),
                    }
                }
                ListingState::Open => (ExchangeOutcome::Refunded, None, REFUND_LANDED.to_string()),
                ref state => {
                    return Err(ZkdetError::Protocol(format!(
                        "exchange for listing {listing:?} is neither locked nor settled ({state:?})"
                    )))
                }
            }
        };
        finish_exchange(journal, listing, outcome, data, reason, *recover_attempts).map(Some)
    }

    /// Drives a locked exchange to a terminal state, whatever the
    /// infrastructure does: [`Marketplace::advance_exchange`] with one
    /// block mined between iterations.
    pub fn drive_exchange_to_completion(
        &mut self,
        buyer: &mut DataOwner,
        session: &BuyerSession,
    ) -> Result<ExchangeReport, ZkdetError> {
        self.journaled_drive_to_completion(&mut NoJournal, buyer, session)
    }

    /// [`Marketplace::drive_exchange_to_completion`] over a journal: every
    /// retrieve attempt and the refund are step boundaries a crash-restart
    /// resumes across.
    pub fn journaled_drive_to_completion(
        &mut self,
        journal: &mut impl Journal,
        buyer: &mut DataOwner,
        session: &BuyerSession,
    ) -> Result<ExchangeReport, ZkdetError> {
        // The exchange's causal trace: deterministically minted from the
        // token, so telemetry from every layer this loop touches (prover,
        // storage quorum, repair ticks, chain settlement) carries one id.
        let _trace = zkdet_telemetry::enter_trace(zkdet_telemetry::TraceId::for_exchange(
            session.token.0,
        ));
        let mut drive_span = zkdet_telemetry::span("exchange.drive");
        let mut recover_attempts = 0u32;
        let mut blocks_waited = 0u64;
        loop {
            let step = self.advance_exchange(journal, buyer, session, &mut recover_attempts);
            // Last write wins, so the finished span carries final values.
            drive_span.record("recover_attempts", u64::from(recover_attempts));
            drive_span.record("blocks_waited", blocks_waited);
            if let Some(report) = step? {
                return Ok(ExchangeReport {
                    blocks_waited,
                    ..report
                });
            }
            self.chain.mine_block();
            blocks_waited += 1;
        }
    }
}

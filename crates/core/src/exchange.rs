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

use std::sync::Arc;

use rand::Rng;
use zkdet_chain::{Address, Event, TokenId, Wei};
use zkdet_chain::contracts::{ListingId, ListingState, REFUND_TIMEOUT_BLOCKS};
use zkdet_circuits::exchange::{KeyNegotiationCircuit, ValidationCircuit, ValidationPredicate};
use zkdet_crypto::commitment::{Commitment, CommitmentScheme, Opening};
use zkdet_crypto::mimc::MimcCtr;
use zkdet_crypto::poseidon::Poseidon;
use zkdet_field::{Field, Fr};
use zkdet_plonk::{Plonk, Proof, VerifyingKey};

use crate::dataset::Dataset;
use crate::error::ZkdetError;
use crate::market::{DataOwner, Marketplace};

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
    /// The buyer's secret blinding key `k_v` (crate-visible so crash
    /// recovery can rebuild a session from its journaled `PayIntent`).
    pub(crate) k_v: Fr,
    /// The on-chain commitment `c_d` of the dataset (for final checks).
    pub(crate) expected_commitment: Fr,
}

impl BuyerSession {
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

/// Recovery attempts [`Marketplace::drive_exchange_to_completion`] makes
/// against a settled listing before declaring the artefacts unrecoverable.
pub const MAX_RECOVER_ATTEMPTS: u32 = 8;

/// A proved-but-unsubmitted settlement: the output of the prove step,
/// the input of the submit step. Journaled flows crash-test the boundary
/// between the two.
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
        let _trace = zkdet_telemetry::enter_trace(zkdet_telemetry::TraceId::for_exchange(token.0));
        let _span = zkdet_telemetry::span("exchange.list");
        let secret = owner
            .secret(token)
            .ok_or(ZkdetError::MissingSecret(token))?;
        let (key_commitment, key_opening) = CommitmentScheme::commit_scalar(secret.key, rng);
        let (listing, _) = self.chain.auction_create(
            self.auction_addr,
            self.nft_addr,
            owner.address,
            token,
            start_price,
            floor_price,
            decay_per_block,
            key_commitment.0,
            predicate_description,
        )?;
        Ok(SellerListing {
            listing,
            token,
            key_opening,
        })
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
        let token = self.check_validation_binding(listing_id, package)?;
        let _trace = zkdet_telemetry::enter_trace(zkdet_telemetry::TraceId::for_exchange(token.0));
        let _span = zkdet_telemetry::span("exchange.validate_and_lock");
        if !Plonk::verify(&package.vk, &package.publics, &package.proof) {
            return Err(ZkdetError::ProofInvalid("π_p"));
        }
        self.lock_prevalidated(buyer, listing_id, package, rng)
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
        let listing = self
            .chain
            .auction(&self.auction_addr)?
            .listing(listing_id)?
            .clone();
        let token = listing.token;
        let on_chain_commitment = self.chain.nft(&self.nft_addr)?.token_meta(token)?.commitment;
        if package.publics.first() != Some(&on_chain_commitment) {
            return Err(ZkdetError::Inconsistent(
                "validation proof is about a different commitment".into(),
            ));
        }
        Ok(token)
    }

    /// The lock half of [`Marketplace::buyer_validate_and_lock`], for
    /// callers that already verified π_p (e.g. through a batched pairing
    /// check). Still re-checks the statement binding — the cheap part —
    /// so a stale package cannot lock against the wrong token.
    pub fn lock_prevalidated<R: Rng + ?Sized>(
        &mut self,
        buyer: &DataOwner,
        listing_id: ListingId,
        package: &ValidationPackage,
        rng: &mut R,
    ) -> Result<BuyerSession, ZkdetError> {
        let token = self.check_validation_binding(listing_id, package)?;
        let listing = self
            .chain
            .auction(&self.auction_addr)?
            .listing(listing_id)?
            .clone();
        let _trace = zkdet_telemetry::enter_trace(zkdet_telemetry::TraceId::for_exchange(token.0));
        let on_chain_commitment = self.chain.nft(&self.nft_addr)?.token_meta(token)?.commitment;

        let k_v = Fr::random(rng);
        let h_v = Poseidon::hash(&[k_v]);
        let price = listing.price_at(self.chain.height());
        self.chain
            .auction_lock(self.auction_addr, buyer.address, listing_id, price, h_v)?;
        Ok(BuyerSession {
            buyer: buyer.address,
            listing: listing_id,
            token,
            price,
            k_v,
            expected_commitment: on_chain_commitment,
        })
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
        let _trace = zkdet_telemetry::enter_trace(zkdet_telemetry::TraceId::for_exchange(
            seller_listing.token.0,
        ));
        let _span = zkdet_telemetry::span("exchange.settle");
        match self.seller_prove_settlement(owner, seller_listing, buyer_k_v, rng)? {
            // Already settled: idempotent success.
            None => Ok(()),
            Some(submission) => self.seller_submit_settlement(owner.address, &submission),
        }
    }

    /// The prove half of [`Marketplace::seller_settle`]: checks the lock,
    /// derives `k_c` and produces `π_k` — **no side effect**. Returns
    /// `None` if the listing already settled (idempotency: an earlier
    /// submission may have been confirmed, re-orged and replayed — the
    /// chain's settlement journal guarantees no funds move twice).
    pub fn seller_prove_settlement<R: Rng + ?Sized>(
        &mut self,
        owner: &DataOwner,
        seller_listing: &SellerListing,
        buyer_k_v: Fr,
        rng: &mut R,
    ) -> Result<Option<SettlementSubmission>, ZkdetError> {
        let _trace = zkdet_telemetry::enter_trace(zkdet_telemetry::TraceId::for_exchange(
            seller_listing.token.0,
        ));
        let _span = zkdet_telemetry::span("exchange.prove_settlement");
        let Some(witness) = self.settlement_witness(owner, seller_listing, buyer_k_v)? else {
            return Ok(None);
        };
        let proof = Plonk::prove(&self.keyneg.pk, &witness.circuit, rng)?;
        Ok(Some(SettlementSubmission {
            listing: witness.listing,
            k_c: witness.k_c,
            proof,
        }))
    }

    /// The check-and-synthesize half of π_k proving: runs every protocol
    /// check of [`Marketplace::seller_prove_settlement`] and assembles the
    /// circuit, but leaves the CPU-bound `Plonk::prove` to the caller (the
    /// executor machines ship it to a worker thread). Returns `None` for an
    /// already-settled listing, mirroring the prove path's idempotency.
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
            .listing(seller_listing.listing)?
            .clone();
        let locked_h_v = match &listing.state {
            zkdet_chain::contracts::ListingState::Locked { h_v, .. } => *h_v,
            _ => {
                return Err(ZkdetError::Protocol(
                    "listing is not locked by a buyer".into(),
                ))
            }
        };
        if Poseidon::hash(&[buyer_k_v]) != locked_h_v {
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

    /// The submit half of [`Marketplace::seller_settle`]: sends the proved
    /// `(k_c, π_k)` to the arbiter contract and mines the block. Safe to
    /// replay — a resubmission after an earlier settle already landed
    /// (e.g. retried across a re-org) is an idempotent success.
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
    pub fn published_k_c(&self, listing: ListingId) -> Option<Fr> {
        for block in self.chain.blocks() {
            for receipt in &block.receipts {
                for event in &receipt.events {
                    if let Event::KeyPublished { listing: l, k_c } = event {
                        if *l == listing {
                            return Some(*k_c);
                        }
                    }
                }
            }
        }
        None
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
        let _span = zkdet_telemetry::span("exchange.recover");
        let (k, ciphertext) = self.buyer_fetch(session)?;
        self.buyer_decrypt(buyer, session, k, &ciphertext)
    }

    /// The retrieve half of [`Marketplace::buyer_recover`]: unblinds the
    /// key and fetches the ciphertext artefacts — no buyer state changes,
    /// so the journaled flow can crash-test the retrieve/decrypt boundary.
    pub(crate) fn buyer_fetch(
        &mut self,
        session: &BuyerSession,
    ) -> Result<(Fr, zkdet_crypto::mimc::Ciphertext), ZkdetError> {
        let k_c = self
            .published_k_c(session.listing)
            .ok_or_else(|| ZkdetError::Protocol("listing not settled yet".into()))?;
        let k = k_c - session.k_v;
        let (ciphertext, _bundle) = self.fetch_artefacts(session.token)?;
        Ok((k, ciphertext))
    }

    /// The decrypt half of [`Marketplace::buyer_recover`]: decrypts,
    /// re-encrypt-checks, verifies token ownership and records the learned
    /// secrets.
    pub(crate) fn buyer_decrypt(
        &mut self,
        buyer: &mut DataOwner,
        session: &BuyerSession,
        k: Fr,
        ciphertext: &zkdet_crypto::mimc::Ciphertext,
    ) -> Result<Dataset, ZkdetError> {
        let ciphertext = ciphertext.clone();
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
        let _ = session.expected_commitment;
        buyer.learn_secret(
            session.token,
            crate::market::DatasetSecret {
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

    /// Drives a locked exchange to a terminal state, whatever the
    /// infrastructure does.
    ///
    /// The loop enforces the deadline discipline of §IV-F against the
    /// simulated chain height:
    ///
    /// - once the seller's `k_c` is published, recovery is attempted with
    ///   transient storage faults retried up to [`MAX_RECOVER_ATTEMPTS`]
    ///   times (each attempt already retries, hedges and backs off inside
    ///   [`crate::market::Marketplace::fetch_artefacts`]); unrecoverable
    ///   artefacts end in [`ExchangeOutcome::Aborted`] — the escrow was
    ///   already released, nothing is wedged;
    /// - while unsettled, blocks are mined until either the seller settles
    ///   or `locked_at + REFUND_TIMEOUT_BLOCKS` passes, at which point the
    ///   escrow is reclaimed ([`ExchangeOutcome::Refunded`]);
    /// - [`crate::error::Recovery::Fatal`] errors (proof or protocol
    ///   violations) propagate as `Err` immediately;
    /// - every iteration ticks the storage layer's deterministic repair
    ///   scheduler ([`crate::market::Marketplace::tick_storage_repairs`]),
    ///   so erasure shares lost to churn or Byzantine corruption are
    ///   re-placed while the exchange is still in flight — a degraded read
    ///   on one attempt can find full redundancy restored on the next.
    pub fn drive_exchange_to_completion(
        &mut self,
        buyer: &mut DataOwner,
        session: &BuyerSession,
    ) -> Result<ExchangeReport, ZkdetError> {
        use crate::error::Recovery;

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
            // Last write wins, so the finished span carries final values.
            drive_span.record("recover_attempts", u64::from(recover_attempts));
            drive_span.record("blocks_waited", blocks_waited);
            self.tick_storage_repairs();
            if self.published_k_c(session.listing).is_some() {
                recover_attempts += 1;
                drive_span.record("recover_attempts", u64::from(recover_attempts));
                match self.buyer_recover(buyer, session) {
                    Ok(data) => {
                        return Ok(ExchangeReport {
                            outcome: ExchangeOutcome::Settled,
                            data: Some(data),
                            recover_attempts,
                            blocks_waited,
                            failure: None,
                        })
                    }
                    Err(e) if e.recovery() == Recovery::Transient
                        && recover_attempts < MAX_RECOVER_ATTEMPTS =>
                    {
                        // Storage was flaky, not wrong — let simulated time
                        // pass and try again.
                        self.chain.mine_block();
                        blocks_waited += 1;
                    }
                    Err(e) if e.recovery() != Recovery::Fatal => {
                        // Settled on-chain: the refund path is closed, but
                        // every party is in a clean terminal state.
                        return Ok(ExchangeReport {
                            outcome: ExchangeOutcome::Aborted,
                            data: None,
                            recover_attempts,
                            blocks_waited,
                            failure: Some(e.to_string()),
                        });
                    }
                    Err(e) => return Err(e),
                }
                continue;
            }

            // Unsettled: wait for the seller or for the refund deadline.
            let listing = self
                .chain
                .auction(&self.auction_addr)?
                .listing(session.listing)?
                .clone();
            let deadline = match &listing.state {
                ListingState::Locked { locked_at, .. } => {
                    locked_at + REFUND_TIMEOUT_BLOCKS
                }
                state => {
                    return Err(ZkdetError::Protocol(format!(
                        "exchange for listing {:?} is neither locked nor settled ({state:?})",
                        session.listing
                    )))
                }
            };
            if self.chain.height() >= deadline {
                match self.buyer_refund(session) {
                    Ok(outcome) => {
                        return Ok(ExchangeReport {
                            outcome,
                            data: None,
                            recover_attempts,
                            blocks_waited,
                            failure: Some(
                                "seller missed the settlement deadline".into(),
                            ),
                        })
                    }
                    Err(e) if e.recovery() == Recovery::Transient => {
                        self.chain.mine_block();
                        blocks_waited += 1;
                    }
                    Err(e) => return Err(e),
                }
            } else {
                self.chain.mine_block();
                blocks_waited += 1;
            }
        }
    }
}

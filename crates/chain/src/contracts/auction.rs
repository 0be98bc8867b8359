//! The clock-auction contract with both exchange settlements (§III-C, §IV-F).
//!
//! A listing locks the data token and advertises a descending ("clock")
//! price, the predicate φ and the key commitment `c` the arbiter is
//! initialized with. A buyer locks payment together with `h_v = H(k_v)`;
//! the seller then settles through one of two paths:
//!
//! * **Key-secure** ([`AuctionContract::settle_key_secure`]) — submits
//!   `(k_c, π_k)`; the contract verifies `π_k` against `(k_c, c, h_v)` via
//!   the verifier contract and releases the payment. The key `k` itself
//!   never appears on-chain (§IV-F).
//! * **ZKCP baseline** ([`AuctionContract::settle_zkcp`]) — reveals `k`
//!   directly, as the classic protocol requires (§III-C). The contract
//!   checks `H(k) = h` and pays — but `k` is now public calldata:
//!   [`AuctionContract::leaked_keys`] returns every key disclosed this way,
//!   letting tests and examples demonstrate the flaw ZKDET removes.

use std::collections::BTreeMap;

use zkdet_crypto::poseidon::Poseidon;
use zkdet_field::Fr;
use zkdet_plonk::Proof;

use crate::chain::{ChainError, Event};
use crate::gas::GasMeter;
use crate::types::{Address, TokenId, Wei};

use super::VerifierContract;

/// Identifier of a listing within the auction contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ListingId(pub u64);

/// Lifecycle of a listing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ListingState {
    /// Price is ticking down; any buyer may lock it.
    Open,
    /// A buyer locked payment and posted `h_v`; waiting for the seller.
    Locked {
        /// The buyer.
        buyer: Address,
        /// Escrowed payment.
        payment: Wei,
        /// The buyer's key hash `h_v = H(k_v)`.
        h_v: Fr,
        /// Block height of the lock (refund timeout reference).
        locked_at: u64,
    },
    /// Payment released to the seller; token with the buyer.
    Settled {
        /// The buyer whose lock settled (kept from the lock; no new
        /// storage is written).
        buyer: Address,
    },
    /// Cancelled by the seller before any lock.
    Cancelled,
}

/// One clock-auction listing.
#[derive(Clone, Debug)]
pub struct Listing {
    /// The data token for sale (escrowed by the auction while open).
    pub token: TokenId,
    /// The seller (receives the payment).
    pub seller: Address,
    /// Price at creation.
    pub start_price: Wei,
    /// Price floor.
    pub floor_price: Wei,
    /// Price decrease per block.
    pub decay_per_block: Wei,
    /// Creation block height.
    pub created_at: u64,
    /// Commitment `c` to the decryption key `k` (arbiter input, §IV-F).
    pub key_commitment: Fr,
    /// Human-readable description of the predicate φ buyers verified
    /// off-chain against `π_p`.
    pub predicate: String,
    /// Lifecycle state.
    pub state: ListingState,
}

impl Listing {
    /// Clock price at the given block height. The seller picks the decay,
    /// so the total decay saturates: a huge rate pins the price at the
    /// floor instead of wrapping back up.
    pub fn price_at(&self, block_height: u64) -> Wei {
        let elapsed = block_height.saturating_sub(self.created_at) as Wei;
        self.start_price
            .saturating_sub(elapsed.saturating_mul(self.decay_per_block))
            .max(self.floor_price)
    }
}

/// Estimated deployed-code size in bytes (calibrated like the others).
pub(crate) const AUCTION_CODE_BYTES: usize = 3_400;

/// Blocks after which a locked-but-unsettled buyer may reclaim payment.
pub const REFUND_TIMEOUT_BLOCKS: u64 = 100;

/// The clock-auction + exchange-arbiter contract.
#[derive(Clone, Debug, Default)]
pub struct AuctionContract {
    listings: BTreeMap<ListingId, Listing>,
    next_id: u64,
    /// Keys disclosed through the ZKCP path (public calldata!).
    zkcp_disclosed_keys: Vec<(ListingId, Fr)>,
}

impl AuctionContract {
    /// Fresh auction contract.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a listing.
    ///
    /// # Errors
    ///
    /// [`ChainError::NoSuchListing`] for unknown ids.
    pub fn listing(&self, id: ListingId) -> Result<&Listing, ChainError> {
        self.listings.get(&id).ok_or(ChainError::NoSuchListing(id))
    }

    /// Iterates over every listing in id order. Crash recovery
    /// uses this to re-find a listing whose id was lost with process
    /// memory, matching on `(seller, token, key_commitment)`.
    pub fn listings(&self) -> impl Iterator<Item = (ListingId, &Listing)> {
        self.listings.iter().map(|(id, l)| (*id, l))
    }

    /// Creates a listing (the blockchain layer escrows the token first).
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        &mut self,
        meter: &mut GasMeter,
        events: &mut Vec<Event>,
        seller: Address,
        token: TokenId,
        start_price: Wei,
        floor_price: Wei,
        decay_per_block: Wei,
        key_commitment: Fr,
        predicate: String,
        block_height: u64,
    ) -> ListingId {
        let id = ListingId(self.next_id);
        self.next_id += 1;
        // listing struct: ~6 slots.
        for _ in 0..6 {
            meter.sstore(true);
        }
        meter.log(3, 64);
        self.listings.insert(
            id,
            Listing {
                token,
                seller,
                start_price,
                floor_price,
                decay_per_block,
                created_at: block_height,
                key_commitment,
                predicate,
                state: ListingState::Open,
            },
        );
        events.push(Event::AuctionCreated {
            listing: id,
            token,
            seller,
        });
        id
    }

    /// Buyer locks the listing at the current clock price, posting `h_v`.
    /// Payment escrow is performed by the blockchain layer before this call.
    #[allow(clippy::too_many_arguments)]
    pub fn lock(
        &mut self,
        meter: &mut GasMeter,
        events: &mut Vec<Event>,
        id: ListingId,
        buyer: Address,
        payment: Wei,
        h_v: Fr,
        block_height: u64,
    ) -> Result<Wei, ChainError> {
        let listing = self
            .listings
            .get_mut(&id)
            .ok_or(ChainError::NoSuchListing(id))?;
        meter.sload();
        if listing.state != ListingState::Open {
            return Err(ChainError::ListingNotOpen(id));
        }
        let price = listing.price_at(block_height);
        if payment < price {
            return Err(ChainError::PaymentBelowPrice {
                listing: id,
                price,
                offered: payment,
            });
        }
        meter.sstore(true); // buyer + h_v
        meter.sstore(false); // state
        meter.log(3, 32);
        listing.state = ListingState::Locked {
            buyer,
            payment,
            h_v,
            locked_at: block_height,
        };
        events.push(Event::AuctionLocked {
            listing: id,
            buyer,
            payment,
        });
        Ok(price)
    }

    /// Key-secure settlement (§IV-F key-negotiation phase): the seller
    /// submits `(k_c, π_k)`; the contract checks
    /// `Verify(vk, (k_c, c, h_v), π_k)` through the verifier contract.
    ///
    /// On success returns `(buyer, payment)` so the blockchain layer can
    /// move funds and the token; the blinded key is published in an event —
    /// only the buyer, knowing `k_v`, can un-blind it.
    #[allow(clippy::too_many_arguments)]
    pub fn settle_key_secure(
        &mut self,
        meter: &mut GasMeter,
        events: &mut Vec<Event>,
        verifier: &VerifierContract,
        id: ListingId,
        caller: Address,
        k_c: Fr,
        proof: &Proof,
    ) -> Result<(Address, Wei), ChainError> {
        let listing = self
            .listings
            .get_mut(&id)
            .ok_or(ChainError::NoSuchListing(id))?;
        meter.sload();
        if caller != listing.seller {
            return Err(ChainError::NotSeller { listing: id, caller });
        }
        let (buyer, payment, h_v) = match &listing.state {
            ListingState::Locked {
                buyer,
                payment,
                h_v,
                ..
            } => (*buyer, *payment, *h_v),
            _ => return Err(ChainError::ListingNotLocked(id)),
        };
        let publics = [k_c, listing.key_commitment, h_v];
        if !verifier.verify(meter, &publics, proof) {
            return Err(ChainError::ProofRejected);
        }
        meter.sstore(false); // state
        meter.log(3, 32);
        listing.state = ListingState::Settled { buyer };
        events.push(Event::KeyPublished { listing: id, k_c });
        Ok((buyer, payment))
    }

    /// ZKCP-baseline settlement (§III-C *Open*/*Finalize*): the seller
    /// discloses `k`; the contract checks `H(k) = h_v`.
    ///
    /// The disclosed key becomes public — recorded and queryable through
    /// [`Self::leaked_keys`] to demonstrate the vulnerability.
    pub fn settle_zkcp(
        &mut self,
        meter: &mut GasMeter,
        events: &mut Vec<Event>,
        id: ListingId,
        caller: Address,
        k: Fr,
    ) -> Result<(Address, Wei), ChainError> {
        let listing = self
            .listings
            .get_mut(&id)
            .ok_or(ChainError::NoSuchListing(id))?;
        meter.sload();
        if caller != listing.seller {
            return Err(ChainError::NotSeller { listing: id, caller });
        }
        let (buyer, payment, h_v) = match &listing.state {
            ListingState::Locked {
                buyer,
                payment,
                h_v,
                ..
            } => (*buyer, *payment, *h_v),
            _ => return Err(ChainError::ListingNotLocked(id)),
        };
        meter.charge(crate::gas::HASH_OP);
        if Poseidon::hash(&[k]) != h_v {
            return Err(ChainError::KeyHashMismatch(id));
        }
        meter.sstore(false);
        meter.log(3, 32);
        listing.state = ListingState::Settled { buyer };
        self.zkcp_disclosed_keys.push((id, k));
        events.push(Event::KeyLeaked { listing: id, key: k });
        Ok((buyer, payment))
    }

    /// Buyer reclaims escrow after the seller failed to settle in time.
    pub fn refund(
        &mut self,
        meter: &mut GasMeter,
        events: &mut Vec<Event>,
        id: ListingId,
        caller: Address,
        block_height: u64,
    ) -> Result<(Address, Wei), ChainError> {
        let listing = self
            .listings
            .get_mut(&id)
            .ok_or(ChainError::NoSuchListing(id))?;
        meter.sload();
        let (buyer, payment, locked_at) = match &listing.state {
            ListingState::Locked {
                buyer,
                payment,
                locked_at,
                ..
            } => (*buyer, *payment, *locked_at),
            _ => return Err(ChainError::ListingNotLocked(id)),
        };
        if caller != buyer {
            return Err(ChainError::NotAuthorizedListing { listing: id, caller });
        }
        if block_height < locked_at + REFUND_TIMEOUT_BLOCKS {
            return Err(ChainError::RefundTooEarly {
                listing: id,
                available_at: locked_at + REFUND_TIMEOUT_BLOCKS,
            });
        }
        meter.sstore(false);
        meter.log(2, 32);
        listing.state = ListingState::Open; // listing re-opens for sale
        events.push(Event::Refunded {
            listing: id,
            buyer,
            payment,
        });
        Ok((buyer, payment))
    }

    /// Every key disclosed through the ZKCP baseline path — i.e. visible to
    /// any chain observer (the vulnerability §IV-F removes).
    pub fn leaked_keys(&self) -> &[(ListingId, Fr)] {
        &self.zkcp_disclosed_keys
    }

    /// Restores a listing's lifecycle state, unwinding a state transition
    /// whose enclosing transaction failed downstream (e.g. the payment or
    /// token transfer could not be performed). Only the blockchain layer
    /// may call this, as part of its all-or-nothing transaction guarantee.
    pub(crate) fn rollback_state(&mut self, id: ListingId, state: ListingState) {
        if let Some(listing) = self.listings.get_mut(&id) {
            listing.state = state;
        }
    }
}

//! The blockchain: transaction execution, receipts, blocks and the typed
//! contract-call surface used by the ZKDET protocols.

use std::collections::BTreeMap;

use zkdet_crypto::sha256;
use zkdet_field::Fr;
use zkdet_plonk::{Proof, VerifyingKey};

use crate::contracts::auction::AUCTION_CODE_BYTES;
use crate::contracts::nft::NFT_CODE_BYTES;
use crate::contracts::verifier::VERIFIER_CODE_BYTES;
use crate::contracts::fairswap::FAIRSWAP_CODE_BYTES;
use crate::contracts::{
    AuctionContract, FairSwapContract, ListingId, NftContract, SwapId, TokenMeta,
    VerifierContract,
};
use zkdet_crypto::MerklePath;
use crate::gas::{Gas, GasMeter};
use crate::state::{StateError, WorldState};
use crate::types::{Address, TokenId, Wei};

/// Events emitted by contract executions (the chain's log).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// ERC-721 transfer (mint when `from == 0`, burn when `to == 0`).
    Transfer {
        from: Address,
        to: Address,
        token: TokenId,
    },
    /// ERC-721 approval.
    Approval {
        owner: Address,
        spender: Address,
        token: TokenId,
    },
    /// A new clock auction.
    AuctionCreated {
        listing: ListingId,
        token: TokenId,
        seller: Address,
    },
    /// Buyer locked payment + `h_v`.
    AuctionLocked {
        listing: ListingId,
        buyer: Address,
        payment: Wei,
    },
    /// Key-secure settlement: the blinded key `k_c` (useless to third
    /// parties without `k_v`).
    KeyPublished { listing: ListingId, k_c: Fr },
    /// ZKCP settlement: the *raw* decryption key, leaked on-chain.
    KeyLeaked { listing: ListingId, key: Fr },
    /// Escrow returned to the buyer after timeout.
    Refunded {
        listing: ListingId,
        buyer: Address,
        payment: Wei,
    },
    /// FairSwap: a new offer.
    SwapOffered { swap: SwapId, seller: Address },
    /// FairSwap: buyer escrowed payment.
    SwapAccepted { swap: SwapId, buyer: Address },
    /// FairSwap: the key, revealed publicly (inherent to the protocol).
    SwapKeyRevealed { swap: SwapId, key: Fr },
    /// FairSwap: a misbehaviour proof succeeded; buyer refunded.
    SwapRefunded { swap: SwapId, buyer: Address },
    /// FairSwap: payment released to the seller.
    SwapCompleted { swap: SwapId },
}

/// Errors surfaced by transaction execution.
#[derive(Clone, Debug, PartialEq)]
pub enum ChainError {
    /// Unknown or burned token.
    NoSuchToken(TokenId),
    /// Caller is neither owner nor approved for the token.
    NotAuthorized { caller: Address, token: TokenId },
    /// Mint metadata inconsistent with the transformation kind.
    InvalidProvenance,
    /// Unknown listing.
    NoSuchListing(ListingId),
    /// Listing is not open for locking.
    ListingNotOpen(ListingId),
    /// Listing is not in the locked state.
    ListingNotLocked(ListingId),
    /// Caller is not the listing's seller.
    NotSeller { listing: ListingId, caller: Address },
    /// Caller may not act on this listing.
    NotAuthorizedListing { listing: ListingId, caller: Address },
    /// Offered payment is below the clock price.
    PaymentBelowPrice {
        listing: ListingId,
        price: Wei,
        offered: Wei,
    },
    /// On-chain proof verification failed.
    ProofRejected,
    /// ZKCP key disclosure does not match the committed hash.
    KeyHashMismatch(ListingId),
    /// Refund attempted before the timeout.
    RefundTooEarly {
        listing: ListingId,
        available_at: u64,
    },
    /// Balance too low.
    Balance(StateError),
    /// Unknown contract address.
    NoSuchContract(Address),
    /// FairSwap: unknown swap.
    NoSuchSwap(SwapId),
    /// FairSwap: operation invalid in the swap's current state.
    SwapWrongState(SwapId),
    /// FairSwap: caller is not the swap's seller.
    SwapNotSeller { swap: SwapId, caller: Address },
    /// FairSwap: caller is not the swap's buyer.
    SwapNotBuyer { swap: SwapId, caller: Address },
    /// FairSwap: payment below the asking price.
    PaymentBelowSwapPrice {
        swap: SwapId,
        price: Wei,
        offered: Wei,
    },
    /// FairSwap: revealed key does not match the committed hash.
    KeyHashMismatchSwap(SwapId),
    /// FairSwap: complaint submitted after the window closed.
    ComplaintWindowClosed(SwapId),
    /// FairSwap: finalize attempted while complaints are still possible.
    ComplaintWindowOpen(SwapId),
    /// FairSwap: complaint paths malformed or not authenticated.
    BadComplaint(SwapId),
    /// FairSwap: the complained block actually decrypts correctly.
    ComplaintUnfounded(SwapId),
    /// Duplicate settlement: this listing was already settled at the given
    /// height. A resubmitted (or re-orged and replayed) settle transaction
    /// gets this instead of a generic state error, so callers can treat
    /// their earlier transaction as having landed.
    AlreadySettled {
        listing: ListingId,
        at_height: u64,
    },
    /// FairSwap: the swap already reached a terminal state (completed or
    /// refunded) at the given height — the duplicate-transaction analogue
    /// of [`ChainError::AlreadySettled`].
    SwapAlreadyClosed {
        swap: SwapId,
        at_height: u64,
    },
    /// An escrow invariant broke while unwinding a failed transaction —
    /// funds that were just escrowed could not be returned. Indicates a
    /// ledger bug, never normal operation.
    EscrowInvariant(&'static str),
    /// Raw calldata failed wire-format validation before reaching any
    /// contract logic (truncated proof, off-curve point, non-canonical
    /// scalar). Adversarial input — never retried, state untouched.
    MalformedCalldata(zkdet_curve::WireError),
}

impl core::fmt::Display for ChainError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for ChainError {}

impl From<StateError> for ChainError {
    fn from(e: StateError) -> Self {
        ChainError::Balance(e)
    }
}

/// A transaction receipt.
#[derive(Clone, Debug)]
pub struct Receipt {
    /// Sequential transaction index.
    pub tx_index: u64,
    /// Gas consumed (after refunds).
    pub gas_used: Gas,
    /// Events emitted.
    pub events: Vec<Event>,
    /// Short description of the call (diagnostics; analogous to decoded
    /// calldata).
    pub action: String,
}

/// A mined block.
#[derive(Clone, Debug)]
pub struct Block {
    /// Height (genesis = 0).
    pub height: u64,
    /// Hash chaining over the parent and the receipts.
    pub hash: [u8; 32],
    /// Parent hash.
    pub parent: [u8; 32],
    /// Receipts included.
    pub receipts: Vec<Receipt>,
}

/// The simulated blockchain.
pub struct Blockchain {
    /// Account state (public so scenarios can inspect balances).
    pub state: WorldState,
    blocks: Vec<Block>,
    pending: Vec<Receipt>,
    nfts: BTreeMap<Address, NftContract>,
    verifiers: BTreeMap<Address, VerifierContract>,
    auctions: BTreeMap<Address, AuctionContract>,
    fairswaps: BTreeMap<Address, FairSwapContract>,
    tx_counter: u64,
    /// Settlement journal: listing → height it settled at. Consulted by the
    /// settle entry points so duplicate or replayed transactions are
    /// recognised ([`ChainError::AlreadySettled`]) instead of failing with
    /// an opaque state error or, worse, double-paying.
    listing_settlements: BTreeMap<(Address, ListingId), u64>,
    /// Same journal for FairSwap terminal transitions (complete/refund).
    swap_closures: BTreeMap<(Address, SwapId), u64>,
}

impl Default for Blockchain {
    fn default() -> Self {
        Self::new()
    }
}

impl Blockchain {
    /// A fresh chain with a genesis block.
    pub fn new() -> Self {
        let genesis = Block {
            height: 0,
            hash: sha256(b"zkdet-genesis"),
            parent: [0u8; 32],
            receipts: vec![],
        };
        Blockchain {
            state: WorldState::new(),
            blocks: vec![genesis],
            pending: vec![],
            nfts: BTreeMap::new(),
            verifiers: BTreeMap::new(),
            auctions: BTreeMap::new(),
            fairswaps: BTreeMap::new(),
            tx_counter: 0,
            listing_settlements: BTreeMap::new(),
            swap_closures: BTreeMap::new(),
        }
    }

    /// Current block height.
    pub fn height(&self) -> u64 {
        self.blocks.last().map_or(0, |b| b.height)
    }

    /// Height at which a listing settled, if it has.
    ///
    /// Lets a seller whose settle transaction may have been dropped (or
    /// re-orged and replayed) distinguish "already landed" from "never
    /// happened" without parsing errors.
    pub fn settlement_height(&self, auction: Address, listing: ListingId) -> Option<u64> {
        self.listing_settlements.get(&(auction, listing)).copied()
    }

    /// Height at which a FairSwap reached its terminal state, if it has.
    pub fn swap_closure_height(&self, contract: Address, swap: SwapId) -> Option<u64> {
        self.swap_closures.get(&(contract, swap)).copied()
    }

    /// All mined blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// A canonical byte export of the full chain state: blocks, account
    /// balances and nonces, every contract's live objects, and the
    /// settlement journals — all walked in key order, so two chains that
    /// executed the same history export identical bytes. The determinism
    /// suite compares exports from same-seed runs byte-for-byte; any
    /// unordered-map iteration leaking into chain state breaks it.
    pub fn export_bytes(&self) -> Vec<u8> {
        use core::fmt::Write as _;
        let mut s = String::new();
        let w = &mut s;
        let _ = writeln!(w, "zkdet-chain-export-v1");
        let _ = writeln!(w, "height {}", self.height());
        let _ = writeln!(w, "tx_counter {}", self.tx_counter);
        for b in &self.blocks {
            let _ = writeln!(w, "block {} {:02x?} {:02x?} {}", b.height, b.hash, b.parent, b.receipts.len());
        }
        for (addr, bal) in self.state.accounts() {
            let _ = writeln!(w, "balance {addr} {bal}");
        }
        for (addr, nonce) in self.state.nonces() {
            let _ = writeln!(w, "nonce {addr} {nonce}");
        }
        for (addr, nft) in &self.nfts {
            for (id, owner, meta) in nft.tokens() {
                let _ = writeln!(w, "nft {addr} {id:?} {owner} {meta:?}");
            }
        }
        for (addr, auction) in &self.auctions {
            for (id, listing) in auction.listings() {
                let _ = writeln!(w, "listing {addr} {id:?} {listing:?}");
            }
        }
        for (addr, fs) in &self.fairswaps {
            for (id, swap) in fs.swaps() {
                let _ = writeln!(w, "swap {addr} {id:?} {swap:?}");
            }
        }
        for ((addr, listing), height) in &self.listing_settlements {
            let _ = writeln!(w, "settled {addr} {listing:?} {height}");
        }
        for ((addr, swap), height) in &self.swap_closures {
            let _ = writeln!(w, "closed {addr} {swap:?} {height}");
        }
        s.into_bytes()
    }

    /// SHA-256 of [`Blockchain::export_bytes`] — a cheap chain-state
    /// fingerprint for determinism checks and reports.
    pub fn export_digest(&self) -> [u8; 32] {
        sha256(&self.export_bytes())
    }

    /// Receipts executed but not yet mined into a block.
    pub fn pending_receipts(&self) -> &[Receipt] {
        &self.pending
    }

    /// Mines pending receipts into a new block.
    pub fn mine_block(&mut self) -> Block {
        let parent = self.blocks.last().map_or([0u8; 32], |b| b.hash);
        let mut h = zkdet_crypto::Sha256::new();
        h.update(&parent);
        for r in &self.pending {
            h.update(&r.tx_index.to_le_bytes());
            h.update(&r.gas_used.to_le_bytes());
            h.update(r.action.as_bytes());
        }
        let block = Block {
            height: self.height() + 1,
            hash: h.finalize(),
            parent,
            receipts: std::mem::take(&mut self.pending),
        };
        self.blocks.push(block.clone());
        block
    }

    /// Simulates a shallow chain re-organisation: the newest `depth` blocks
    /// (never the genesis block) are orphaned and their receipts returned to
    /// the pending pool, in their original order, ahead of anything already
    /// pending. A later [`Self::mine_block`] re-includes them.
    ///
    /// Contract and ledger state are **not** rolled back — this models the
    /// common re-org where the same transactions are simply re-mined into a
    /// different block, which is exactly the situation the settlement
    /// journal exists for: a settle/refund that was "confirmed", orphaned
    /// and replayed must not pay twice. Returns the number of receipts
    /// disturbed.
    pub fn reorg(&mut self, depth: u64) -> usize {
        let mut orphaned = Vec::new();
        for _ in 0..depth {
            if self.blocks.len() <= 1 {
                break; // never orphan genesis
            }
            if let Some(block) = self.blocks.pop() {
                orphaned.push(block);
            }
        }
        // Oldest orphaned block first, then the previously pending receipts.
        let mut replay: Vec<Receipt> = orphaned
            .into_iter()
            .rev()
            .flat_map(|b| b.receipts)
            .collect();
        let disturbed = replay.len();
        replay.append(&mut self.pending);
        self.pending = replay;
        disturbed
    }

    fn finish_tx(&mut self, meter: GasMeter, events: Vec<Event>, action: String) -> Receipt {
        let receipt = Receipt {
            tx_index: self.tx_counter,
            gas_used: meter.settle(),
            events,
            action,
        };
        if zkdet_telemetry::is_enabled() {
            // Every contract call funnels through here, so this one hook
            // gives gas-per-call across the whole chain API. Receipts are
            // keyed by the first word of their action string ("deploy",
            // "mint", "settle", …) for a stable per-op vocabulary.
            zkdet_telemetry::counter_add("zkdet.chain.tx.calls", 1);
            zkdet_telemetry::counter_add("zkdet.chain.gas.total", receipt.gas_used);
            zkdet_telemetry::observe("zkdet.chain.gas.per_call", receipt.gas_used);
            let op = receipt.action.split_whitespace().next().unwrap_or("other");
            zkdet_telemetry::counter_add(
                &format!("zkdet.chain.gas.by_op.{op}"),
                receipt.gas_used,
            );
        }
        self.tx_counter += 1;
        self.pending.push(receipt.clone());
        receipt
    }

    // ---- deployments -----------------------------------------------------

    /// Deploys the ZKDET data-NFT contract.
    pub fn deploy_nft(&mut self, from: Address) -> (Address, Receipt) {
        self.deploy_nft_with_base(from, 0)
    }

    /// Deploys an NFT contract whose token ids start at `base`.
    ///
    /// Used by sharded marketplaces: each shard's registry mints from its
    /// own disjoint token-id range, so a token id routes to its shard
    /// without a lookup table.
    pub fn deploy_nft_with_base(&mut self, from: Address, base: u64) -> (Address, Receipt) {
        let nonce = self.state.next_nonce(&from);
        let addr = Address::contract(&from, nonce);
        let mut meter = GasMeter::for_tx(0);
        meter.deploy(NFT_CODE_BYTES);
        // Constructor initialisation: name/symbol/owner slots.
        meter.sstore(true);
        meter.sstore(true);
        self.nfts.insert(addr, NftContract::with_base(base));
        let receipt = self.finish_tx(meter, vec![], "deploy ZKDET NFT contract".into());
        (addr, receipt)
    }

    /// Deploys a PLONK verifier contract for one relation.
    pub fn deploy_verifier(&mut self, from: Address, vk: VerifyingKey) -> (Address, Receipt) {
        let nonce = self.state.next_nonce(&from);
        let addr = Address::contract(&from, nonce);
        let mut meter = GasMeter::for_tx(0);
        meter.deploy(VERIFIER_CODE_BYTES);
        self.verifiers.insert(addr, VerifierContract::new(vk));
        let receipt = self.finish_tx(meter, vec![], "deploy verifier contract".into());
        (addr, receipt)
    }

    /// Deploys the clock-auction contract.
    pub fn deploy_auction(&mut self, from: Address) -> (Address, Receipt) {
        let nonce = self.state.next_nonce(&from);
        let addr = Address::contract(&from, nonce);
        let mut meter = GasMeter::for_tx(0);
        meter.deploy(AUCTION_CODE_BYTES);
        meter.sstore(true);
        self.auctions.insert(addr, AuctionContract::new());
        let receipt = self.finish_tx(meter, vec![], "deploy auction contract".into());
        (addr, receipt)
    }

    // ---- contract accessors ----------------------------------------------

    /// Read-only view of an NFT contract.
    pub fn nft(&self, addr: &Address) -> Result<&NftContract, ChainError> {
        self.nfts.get(addr).ok_or(ChainError::NoSuchContract(*addr))
    }

    /// Read-only view of an auction contract.
    pub fn auction(&self, addr: &Address) -> Result<&AuctionContract, ChainError> {
        self.auctions
            .get(addr)
            .ok_or(ChainError::NoSuchContract(*addr))
    }

    /// Read-only view of a verifier contract.
    pub fn verifier(&self, addr: &Address) -> Result<&VerifierContract, ChainError> {
        self.verifiers
            .get(addr)
            .ok_or(ChainError::NoSuchContract(*addr))
    }

    // ---- NFT transactions --------------------------------------------------

    /// Mints a data token.
    pub fn nft_mint(
        &mut self,
        contract: Address,
        caller: Address,
        meta: TokenMeta,
    ) -> Result<(TokenId, Receipt), ChainError> {
        let calldata = 100 + 32 * meta.prev_ids.len();
        let mut meter = GasMeter::for_tx(calldata);
        let mut events = vec![];
        let nft = self
            .nfts
            .get_mut(&contract)
            .ok_or(ChainError::NoSuchContract(contract))?;
        let id = nft.mint(&mut meter, &mut events, caller, meta)?;
        let receipt = self.finish_tx(meter, events, format!("mint token {id}"));
        Ok((id, receipt))
    }

    /// Transfers a token.
    pub fn nft_transfer(
        &mut self,
        contract: Address,
        caller: Address,
        to: Address,
        token: TokenId,
    ) -> Result<Receipt, ChainError> {
        let mut meter = GasMeter::for_tx(68);
        let mut events = vec![];
        let nft = self
            .nfts
            .get_mut(&contract)
            .ok_or(ChainError::NoSuchContract(contract))?;
        nft.transfer(&mut meter, &mut events, caller, to, token)?;
        Ok(self.finish_tx(meter, events, format!("transfer token {token}")))
    }

    /// Burns a token.
    pub fn nft_burn(
        &mut self,
        contract: Address,
        caller: Address,
        token: TokenId,
    ) -> Result<Receipt, ChainError> {
        let mut meter = GasMeter::for_tx(36);
        let mut events = vec![];
        let nft = self
            .nfts
            .get_mut(&contract)
            .ok_or(ChainError::NoSuchContract(contract))?;
        nft.burn(&mut meter, &mut events, caller, token)?;
        Ok(self.finish_tx(meter, events, format!("burn token {token}")))
    }

    // ---- auction transactions ----------------------------------------------

    /// Creates a clock auction for a token (escrows the token into the
    /// auction contract's address).
    #[allow(clippy::too_many_arguments)]
    pub fn auction_create(
        &mut self,
        auction_addr: Address,
        nft_addr: Address,
        seller: Address,
        token: TokenId,
        start_price: Wei,
        floor_price: Wei,
        decay_per_block: Wei,
        key_commitment: Fr,
        predicate: String,
    ) -> Result<(ListingId, Receipt), ChainError> {
        let height = self.height();
        let mut meter = GasMeter::for_tx(196);
        let mut events = vec![];
        // Escrow: transfer the token to the auction contract address.
        let nft = self
            .nfts
            .get_mut(&nft_addr)
            .ok_or(ChainError::NoSuchContract(nft_addr))?;
        nft.transfer(&mut meter, &mut events, seller, auction_addr, token)?;
        let auction = self
            .auctions
            .get_mut(&auction_addr)
            .ok_or(ChainError::NoSuchContract(auction_addr))?;
        let id = auction.create(
            &mut meter,
            &mut events,
            seller,
            token,
            start_price,
            floor_price,
            decay_per_block,
            key_commitment,
            predicate,
            height,
        );
        let receipt = self.finish_tx(meter, events, format!("create listing {id:?}"));
        Ok((id, receipt))
    }

    /// Buyer locks a listing at the clock price, escrowing `payment` wei
    /// and posting `h_v`.
    pub fn auction_lock(
        &mut self,
        auction_addr: Address,
        buyer: Address,
        listing: ListingId,
        payment: Wei,
        h_v: Fr,
    ) -> Result<Receipt, ChainError> {
        let height = self.height();
        let mut meter = GasMeter::for_tx(100);
        let mut events = vec![];
        // Escrow funds into the contract address first (reverts atomically
        // with any later failure because we only commit the receipt at the
        // end — errors propagate before state is observed).
        self.state.transfer(buyer, auction_addr, payment)?;
        let auction = self
            .auctions
            .get_mut(&auction_addr)
            .ok_or(ChainError::NoSuchContract(auction_addr))?;
        match auction.lock(&mut meter, &mut events, listing, buyer, payment, h_v, height) {
            Ok(_) => {}
            Err(e) => {
                // Revert the escrow.
                self.state
                    .transfer(auction_addr, buyer, payment)
                    .map_err(|_| ChainError::EscrowInvariant("lock escrow revert failed"))?;
                return Err(e);
            }
        }
        Ok(self.finish_tx(meter, events, format!("lock listing {listing:?}")))
    }

    /// Key-secure settlement: verifies `π_k` on-chain, pays the seller and
    /// hands the token to the buyer (§IV-F).
    ///
    /// Idempotent under resubmission: a listing already settled (possibly in
    /// a block that was later re-orged and replayed) yields
    /// [`ChainError::AlreadySettled`] and moves no funds. If the payment or
    /// token transfer fails downstream, the listing's state transition is
    /// rolled back so the escrow never wedges half-settled.
    #[allow(clippy::too_many_arguments)]
    pub fn auction_settle_key_secure(
        &mut self,
        auction_addr: Address,
        nft_addr: Address,
        verifier_addr: Address,
        seller: Address,
        listing: ListingId,
        k_c: Fr,
        proof: &Proof,
    ) -> Result<Receipt, ChainError> {
        if let Some(at_height) = self.settlement_height(auction_addr, listing) {
            return Err(ChainError::AlreadySettled { listing, at_height });
        }
        let mut meter = GasMeter::for_tx(
            zkdet_plonk::Proof::SIZE_BYTES + 32, // proof + k_c calldata
        );
        let mut events = vec![];
        let verifier = self
            .verifiers
            .get(&verifier_addr)
            .ok_or(ChainError::NoSuchContract(verifier_addr))?;
        let auction = self
            .auctions
            .get_mut(&auction_addr)
            .ok_or(ChainError::NoSuchContract(auction_addr))?;
        let prior = auction.listing(listing)?.state.clone();
        let (buyer, payment) = auction.settle_key_secure(
            &mut meter,
            &mut events,
            verifier,
            listing,
            seller,
            k_c,
            proof,
        )?;
        let token = auction.listing(listing)?.token;
        // Pay the seller and release the token, unwinding the listing's
        // state transition if either leg fails.
        if let Err(e) = self.state.transfer(auction_addr, seller, payment) {
            self.rollback_listing(auction_addr, listing, prior);
            return Err(e.into());
        }
        let Some(nft) = self.nfts.get_mut(&nft_addr) else {
            self.unwind_settlement_payment(auction_addr, seller, payment)?;
            self.rollback_listing(auction_addr, listing, prior);
            return Err(ChainError::NoSuchContract(nft_addr));
        };
        if let Err(e) = nft.transfer(&mut meter, &mut events, auction_addr, buyer, token) {
            self.unwind_settlement_payment(auction_addr, seller, payment)?;
            self.rollback_listing(auction_addr, listing, prior);
            return Err(e);
        }
        self.listing_settlements
            .insert((auction_addr, listing), self.height() + 1);
        Ok(self.finish_tx(meter, events, format!("key-secure settle {listing:?}")))
    }

    /// Key-secure settlement from **raw calldata**: the proof arrives as
    /// untrusted bytes exactly as a real chain would receive them.
    ///
    /// Decoding happens at the transaction boundary, before any contract
    /// state is touched: malformed bytes yield
    /// [`ChainError::MalformedCalldata`] with the listing state, escrow,
    /// and settlement journal unchanged. Valid-but-false proofs proceed to
    /// [`Self::auction_settle_key_secure`] and fail there with
    /// [`ChainError::ProofRejected`].
    #[allow(clippy::too_many_arguments)]
    pub fn auction_settle_key_secure_encoded(
        &mut self,
        auction_addr: Address,
        nft_addr: Address,
        verifier_addr: Address,
        seller: Address,
        listing: ListingId,
        k_c: Fr,
        proof_bytes: &[u8],
    ) -> Result<Receipt, ChainError> {
        let proof =
            Proof::from_bytes(proof_bytes).map_err(ChainError::MalformedCalldata)?;
        self.auction_settle_key_secure(
            auction_addr,
            nft_addr,
            verifier_addr,
            seller,
            listing,
            k_c,
            &proof,
        )
    }

    /// Restores a listing's state after a failed settlement leg.
    fn rollback_listing(
        &mut self,
        auction_addr: Address,
        listing: ListingId,
        prior: crate::contracts::ListingState,
    ) {
        if let Some(auction) = self.auctions.get_mut(&auction_addr) {
            auction.rollback_state(listing, prior);
        }
    }

    /// Returns a just-made settlement payment to the escrow account; a
    /// failure here means the ledger itself is inconsistent.
    fn unwind_settlement_payment(
        &mut self,
        escrow: Address,
        paid_to: Address,
        payment: Wei,
    ) -> Result<(), ChainError> {
        self.state
            .transfer(paid_to, escrow, payment)
            .map_err(|_| ChainError::EscrowInvariant("settlement payment unwind failed"))
    }

    /// ZKCP-baseline settlement: the seller reveals `k` on-chain (§III-C).
    ///
    /// Same idempotency and rollback guarantees as
    /// [`Self::auction_settle_key_secure`].
    pub fn auction_settle_zkcp(
        &mut self,
        auction_addr: Address,
        nft_addr: Address,
        seller: Address,
        listing: ListingId,
        k: Fr,
    ) -> Result<Receipt, ChainError> {
        if let Some(at_height) = self.settlement_height(auction_addr, listing) {
            return Err(ChainError::AlreadySettled { listing, at_height });
        }
        let mut meter = GasMeter::for_tx(64);
        let mut events = vec![];
        let auction = self
            .auctions
            .get_mut(&auction_addr)
            .ok_or(ChainError::NoSuchContract(auction_addr))?;
        let prior = auction.listing(listing)?.state.clone();
        let (buyer, payment) =
            auction.settle_zkcp(&mut meter, &mut events, listing, seller, k)?;
        let token = auction.listing(listing)?.token;
        if let Err(e) = self.state.transfer(auction_addr, seller, payment) {
            self.rollback_listing(auction_addr, listing, prior);
            return Err(e.into());
        }
        let Some(nft) = self.nfts.get_mut(&nft_addr) else {
            self.unwind_settlement_payment(auction_addr, seller, payment)?;
            self.rollback_listing(auction_addr, listing, prior);
            return Err(ChainError::NoSuchContract(nft_addr));
        };
        if let Err(e) = nft.transfer(&mut meter, &mut events, auction_addr, buyer, token) {
            self.unwind_settlement_payment(auction_addr, seller, payment)?;
            self.rollback_listing(auction_addr, listing, prior);
            return Err(e);
        }
        self.listing_settlements
            .insert((auction_addr, listing), self.height() + 1);
        Ok(self.finish_tx(meter, events, format!("zkcp settle {listing:?}")))
    }

    /// Buyer reclaims escrow after the refund timeout.
    ///
    /// If the payout transfer fails, the listing's state transition is
    /// rolled back (the escrow stays claimable rather than silently
    /// re-opening unpaid). A refund replayed after it already succeeded
    /// finds the listing re-opened and fails with a clean state error
    /// without touching funds.
    pub fn auction_refund(
        &mut self,
        auction_addr: Address,
        buyer: Address,
        listing: ListingId,
    ) -> Result<Receipt, ChainError> {
        let height = self.height();
        let mut meter = GasMeter::for_tx(36);
        let mut events = vec![];
        let auction = self
            .auctions
            .get_mut(&auction_addr)
            .ok_or(ChainError::NoSuchContract(auction_addr))?;
        let prior = auction.listing(listing)?.state.clone();
        let (to, payment) =
            auction.refund(&mut meter, &mut events, listing, buyer, height)?;
        if let Err(e) = self.state.transfer(auction_addr, to, payment) {
            self.rollback_listing(auction_addr, listing, prior);
            return Err(e.into());
        }
        Ok(self.finish_tx(meter, events, format!("refund listing {listing:?}")))
    }

    // ---- FairSwap baseline (§VII-B) -----------------------------------

    /// Deploys the FairSwap contract.
    pub fn deploy_fairswap(&mut self, from: Address) -> (Address, Receipt) {
        let nonce = self.state.next_nonce(&from);
        let addr = Address::contract(&from, nonce);
        let mut meter = GasMeter::for_tx(0);
        meter.deploy(FAIRSWAP_CODE_BYTES);
        self.fairswaps.insert(addr, FairSwapContract::new());
        let receipt = self.finish_tx(meter, vec![], "deploy FairSwap contract".into());
        (addr, receipt)
    }

    /// Read-only view of a FairSwap contract.
    pub fn fairswap(&self, addr: &Address) -> Result<&FairSwapContract, ChainError> {
        self.fairswaps
            .get(addr)
            .ok_or(ChainError::NoSuchContract(*addr))
    }

    /// Seller posts a FairSwap offer.
    #[allow(clippy::too_many_arguments)]
    pub fn fairswap_offer(
        &mut self,
        contract: Address,
        seller: Address,
        price: Wei,
        root_c: Fr,
        root_d: Fr,
        key_hash: Fr,
        num_blocks: usize,
        nonce: Fr,
    ) -> Result<(SwapId, Receipt), ChainError> {
        let mut meter = GasMeter::for_tx(196);
        let mut events = vec![];
        let fs = self
            .fairswaps
            .get_mut(&contract)
            .ok_or(ChainError::NoSuchContract(contract))?;
        let id = fs.offer(
            &mut meter, &mut events, seller, price, root_c, root_d, key_hash, num_blocks,
            nonce,
        );
        let receipt = self.finish_tx(meter, events, format!("fairswap offer {id:?}"));
        Ok((id, receipt))
    }

    /// Buyer accepts an offer, escrowing `payment`.
    pub fn fairswap_accept(
        &mut self,
        contract: Address,
        buyer: Address,
        swap: SwapId,
        payment: Wei,
    ) -> Result<Receipt, ChainError> {
        let mut meter = GasMeter::for_tx(40);
        let mut events = vec![];
        self.state.transfer(buyer, contract, payment)?;
        let fs = self
            .fairswaps
            .get_mut(&contract)
            .ok_or(ChainError::NoSuchContract(contract))?;
        if let Err(e) = fs.accept(&mut meter, &mut events, swap, buyer, payment) {
            // Revert the escrow.
            self.state
                .transfer(contract, buyer, payment)
                .map_err(|_| ChainError::EscrowInvariant("accept escrow revert failed"))?;
            return Err(e);
        }
        Ok(self.finish_tx(meter, events, format!("fairswap accept {swap:?}")))
    }

    /// Seller reveals the key on-chain.
    pub fn fairswap_reveal(
        &mut self,
        contract: Address,
        seller: Address,
        swap: SwapId,
        key: Fr,
    ) -> Result<Receipt, ChainError> {
        let height = self.height();
        let mut meter = GasMeter::for_tx(64);
        let mut events = vec![];
        let fs = self
            .fairswaps
            .get_mut(&contract)
            .ok_or(ChainError::NoSuchContract(contract))?;
        fs.reveal(&mut meter, &mut events, swap, seller, key, height)?;
        Ok(self.finish_tx(meter, events, format!("fairswap reveal {swap:?}")))
    }

    /// Buyer submits a proof of misbehaviour (the expensive dispute path).
    #[allow(clippy::too_many_arguments)]
    pub fn fairswap_complain(
        &mut self,
        contract: Address,
        buyer: Address,
        swap: SwapId,
        block_index: usize,
        ciphertext_block: Fr,
        ciphertext_path: &MerklePath,
        expected_block: Fr,
        expected_path: &MerklePath,
    ) -> Result<Receipt, ChainError> {
        let height = self.height();
        // Calldata: two Merkle paths (32 B per sibling) + blocks + indices.
        let calldata = 2 * 32 * (ciphertext_path.siblings.len() + 2) + 16;
        let mut meter = GasMeter::for_tx(calldata);
        let mut events = vec![];
        if let Some(at_height) = self.swap_closure_height(contract, swap) {
            return Err(ChainError::SwapAlreadyClosed { swap, at_height });
        }
        let fs = self
            .fairswaps
            .get_mut(&contract)
            .ok_or(ChainError::NoSuchContract(contract))?;
        let prior = fs.swap(swap)?.state.clone();
        let (to, payment) = fs.complain(
            &mut meter,
            &mut events,
            swap,
            buyer,
            block_index,
            ciphertext_block,
            ciphertext_path,
            expected_block,
            expected_path,
            height,
        )?;
        if let Err(e) = self.state.transfer(contract, to, payment) {
            self.rollback_swap(contract, swap, prior);
            return Err(e.into());
        }
        self.swap_closures.insert((contract, swap), height + 1);
        Ok(self.finish_tx(meter, events, format!("fairswap complain {swap:?}")))
    }

    /// Restores a swap's state after a failed payout leg.
    fn rollback_swap(
        &mut self,
        contract: Address,
        swap: SwapId,
        prior: crate::contracts::SwapState,
    ) {
        if let Some(fs) = self.fairswaps.get_mut(&contract) {
            fs.rollback_state(swap, prior);
        }
    }

    /// Seller finalizes after an uncontested complaint window.
    pub fn fairswap_finalize(
        &mut self,
        contract: Address,
        seller: Address,
        swap: SwapId,
    ) -> Result<Receipt, ChainError> {
        let height = self.height();
        let mut meter = GasMeter::for_tx(40);
        let mut events = vec![];
        if let Some(at_height) = self.swap_closure_height(contract, swap) {
            return Err(ChainError::SwapAlreadyClosed { swap, at_height });
        }
        let fs = self
            .fairswaps
            .get_mut(&contract)
            .ok_or(ChainError::NoSuchContract(contract))?;
        let prior = fs.swap(swap)?.state.clone();
        let (to, payment) = fs.finalize(&mut meter, &mut events, swap, seller, height)?;
        if let Err(e) = self.state.transfer(contract, to, payment) {
            self.rollback_swap(contract, swap, prior);
            return Err(e.into());
        }
        self.swap_closures.insert((contract, swap), height + 1);
        Ok(self.finish_tx(meter, events, format!("fairswap finalize {swap:?}")))
    }

    /// On-chain proof verification as a standalone transaction (used by
    /// anyone auditing a transformation proof, §VI-C2).
    pub fn verify_on_chain(
        &mut self,
        verifier_addr: Address,
        publics: &[Fr],
        proof: &Proof,
    ) -> Result<(bool, Receipt), ChainError> {
        let mut meter = GasMeter::for_tx(zkdet_plonk::Proof::SIZE_BYTES + 32 * publics.len());
        let verifier = self
            .verifiers
            .get(&verifier_addr)
            .ok_or(ChainError::NoSuchContract(verifier_addr))?;
        let ok = verifier.verify(&mut meter, publics, proof);
        let receipt = self.finish_tx(meter, vec![], "verify proof".into());
        Ok((ok, receipt))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use zkdet_field::Field;
    use zkdet_storage::Cid;

    fn meta(kind: crate::contracts::TransformKind, prev: Vec<TokenId>) -> TokenMeta {
        TokenMeta {
            cid: Cid::from_bytes(b"data"),
            commitment: Fr::from(42u64),
            prev_ids: prev,
            kind,
            proof_cid: None,
        }
    }

    #[test]
    fn mint_transfer_burn_lifecycle() {
        let mut chain = Blockchain::new();
        let alice = Address::from_seed(1);
        let bob = Address::from_seed(2);
        let (nft, deploy_receipt) = chain.deploy_nft(alice);
        assert!(deploy_receipt.gas_used > 1_000_000);

        let (id, mint_receipt) = chain
            .nft_mint(nft, alice, meta(crate::contracts::TransformKind::Original, vec![]))
            .unwrap();
        assert!(mint_receipt.gas_used > 80_000 && mint_receipt.gas_used < 160_000);
        assert_eq!(chain.nft(&nft).unwrap().owner_of(id).unwrap(), alice);

        let t = chain.nft_transfer(nft, alice, bob, id).unwrap();
        assert!(t.gas_used > 25_000 && t.gas_used < 60_000);
        assert_eq!(chain.nft(&nft).unwrap().owner_of(id).unwrap(), bob);

        // Alice can no longer act on it.
        assert!(matches!(
            chain.nft_burn(nft, alice, id),
            Err(ChainError::NotAuthorized { .. })
        ));
        let b = chain.nft_burn(nft, bob, id).unwrap();
        assert!(b.gas_used > 25_000 && b.gas_used < 70_000);
        assert!(matches!(
            chain.nft(&nft).unwrap().owner_of(id),
            Err(ChainError::NoSuchToken(_))
        ));
    }

    #[test]
    fn provenance_graph_traversal() {
        let mut chain = Blockchain::new();
        let alice = Address::from_seed(1);
        let (nft, _) = chain.deploy_nft(alice);
        let kind = crate::contracts::TransformKind::Original;
        let (a, _) = chain.nft_mint(nft, alice, meta(kind.clone(), vec![])).unwrap();
        let (b, _) = chain.nft_mint(nft, alice, meta(kind, vec![])).unwrap();
        let (agg, _) = chain
            .nft_mint(
                nft,
                alice,
                meta(crate::contracts::TransformKind::Aggregation, vec![a, b]),
            )
            .unwrap();
        let (proc, _) = chain
            .nft_mint(
                nft,
                alice,
                meta(
                    crate::contracts::TransformKind::Processing("train".into()),
                    vec![agg],
                ),
            )
            .unwrap();
        let prov = chain.nft(&nft).unwrap().provenance(proc).unwrap();
        assert_eq!(prov, vec![agg, a, b]);
    }

    #[test]
    fn provenance_rules_enforced() {
        let mut chain = Blockchain::new();
        let alice = Address::from_seed(1);
        let (nft, _) = chain.deploy_nft(alice);
        // Aggregation needs ≥ 2 parents.
        assert!(matches!(
            chain.nft_mint(
                nft,
                alice,
                meta(crate::contracts::TransformKind::Aggregation, vec![])
            ),
            Err(ChainError::InvalidProvenance)
        ));
        // Parents must exist.
        assert!(matches!(
            chain.nft_mint(
                nft,
                alice,
                meta(
                    crate::contracts::TransformKind::Duplication,
                    vec![TokenId(99)]
                )
            ),
            Err(ChainError::NoSuchToken(TokenId(99)))
        ));
    }

    #[test]
    fn blocks_chain_hashes() {
        let mut chain = Blockchain::new();
        let alice = Address::from_seed(1);
        let (_nft, _) = chain.deploy_nft(alice);
        let b1_hash = {
            let b1 = chain.mine_block();
            assert_eq!(b1.height, 1);
            assert_eq!(b1.receipts.len(), 1);
            b1.hash
        };
        let b2 = chain.mine_block();
        assert_eq!(b2.parent, b1_hash);
        assert_ne!(b2.hash, b1_hash);
    }

    #[test]
    fn clock_price_decays_to_floor() {
        let listing = crate::contracts::Listing {
            token: TokenId(0),
            seller: Address::from_seed(1),
            start_price: 1_000,
            floor_price: 400,
            decay_per_block: 100,
            created_at: 10,
            key_commitment: Fr::ZERO,
            predicate: String::new(),
            state: crate::contracts::ListingState::Open,
        };
        assert_eq!(listing.price_at(10), 1_000);
        assert_eq!(listing.price_at(13), 700);
        assert_eq!(listing.price_at(16), 400);
        assert_eq!(listing.price_at(50), 400); // floor
        // A seller-chosen decay too large to multiply reads the floor at
        // every height after creation instead of wrapping back up.
        for decay_per_block in [u128::MAX, 1 << 127] {
            let steep = crate::contracts::Listing {
                decay_per_block,
                ..listing.clone()
            };
            assert_eq!(steep.price_at(10), 1_000);
            for height in (11..=20).chain([u64::MAX]) {
                assert_eq!(steep.price_at(height), 400, "at height {height}");
            }
        }
    }
}

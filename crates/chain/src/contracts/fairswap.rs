//! A FairSwap-style exchange contract (Dziembowski–Eckey–Faust, CCS'18) —
//! the authenticated-data-structure baseline the paper reviews in §VII-B.
//!
//! The file-sale variant: the buyer knows the Merkle root `root_D` of the
//! plaintext blocks they want; the seller posts the Merkle root `root_C`
//! of the ciphertext blocks and the hash `h = H(k)` of the key. After the
//! buyer pays, the seller reveals `k` on-chain (key disclosure is inherent
//! here, like ZKCP). If decryption is wrong, the buyer submits a **proof
//! of misbehaviour**: Merkle paths to one ciphertext block and the
//! corresponding plaintext block; the contract re-derives the keystream
//! and refunds if they disagree.
//!
//! The dispute transaction re-executes one block decryption (91 MiMC
//! rounds) and two `log n` Merkle paths **on-chain** — the cost the paper
//! points to when it says FairSwap's "transaction cost for proof
//! verification increases with data size".

use std::collections::BTreeMap;

use zkdet_crypto::mimc::Mimc;
use zkdet_crypto::poseidon::Poseidon;
use zkdet_crypto::MerklePath;
use zkdet_field::Fr;

use crate::chain::{ChainError, Event};
use crate::gas::GasMeter;
use crate::types::{Address, Wei};

/// Identifier of a FairSwap session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwapId(pub u64);

/// Lifecycle of a swap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwapState {
    /// Posted by the seller; waiting for the buyer's payment.
    Offered,
    /// Buyer paid; waiting for the seller's key.
    Paid {
        /// The buyer.
        buyer: Address,
        /// Escrowed amount.
        payment: Wei,
    },
    /// Key revealed; within the complaint window.
    Revealed {
        /// The buyer.
        buyer: Address,
        /// Escrowed amount.
        payment: Wei,
        /// The disclosed key (public!).
        key: Fr,
        /// Block height of the reveal.
        revealed_at: u64,
    },
    /// Payment released to the seller.
    Completed,
    /// Misbehaviour proven; buyer refunded.
    Refunded,
}

/// One swap session.
#[derive(Clone, Debug)]
pub struct Swap {
    /// The seller.
    pub seller: Address,
    /// Asking price.
    pub price: Wei,
    /// Merkle root of the ciphertext blocks.
    pub root_c: Fr,
    /// Merkle root of the plaintext blocks the buyer expects.
    pub root_d: Fr,
    /// `H(k)` — the key hash payment is contingent on.
    pub key_hash: Fr,
    /// Number of data blocks (fixes Merkle depth for disputes).
    pub num_blocks: usize,
    /// CTR nonce used for the encryption.
    pub nonce: Fr,
    /// Lifecycle state.
    pub state: SwapState,
}

/// Blocks the buyer has to complain after a reveal.
pub const COMPLAINT_WINDOW_BLOCKS: u64 = 50;

/// The FairSwap contract.
#[derive(Clone, Debug, Default)]
pub struct FairSwapContract {
    swaps: BTreeMap<SwapId, Swap>,
    next_id: u64,
}

/// Estimated deployed-code size (a Solidity FairSwap with in-contract MiMC
/// is sizeable).
pub(crate) const FAIRSWAP_CODE_BYTES: usize = 5_600;

impl FairSwapContract {
    /// Fresh contract.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a swap.
    ///
    /// # Errors
    ///
    /// [`ChainError::NoSuchSwap`] for unknown ids.
    pub fn swap(&self, id: SwapId) -> Result<&Swap, ChainError> {
        self.swaps.get(&id).ok_or(ChainError::NoSuchSwap(id))
    }

    /// Iterates over every swap in id order. The chain's state export
    /// ([`crate::Blockchain::export_bytes`]) walks this.
    pub fn swaps(&self) -> impl Iterator<Item = (SwapId, &Swap)> {
        self.swaps.iter().map(|(id, s)| (*id, s))
    }

    /// Seller offers a file for sale.
    #[allow(clippy::too_many_arguments)]
    pub fn offer(
        &mut self,
        meter: &mut GasMeter,
        events: &mut Vec<Event>,
        seller: Address,
        price: Wei,
        root_c: Fr,
        root_d: Fr,
        key_hash: Fr,
        num_blocks: usize,
        nonce: Fr,
    ) -> SwapId {
        let id = SwapId(self.next_id);
        self.next_id += 1;
        for _ in 0..6 {
            meter.sstore(true);
        }
        meter.log(2, 96);
        self.swaps.insert(
            id,
            Swap {
                seller,
                price,
                root_c,
                root_d,
                key_hash,
                num_blocks,
                nonce,
                state: SwapState::Offered,
            },
        );
        events.push(Event::SwapOffered { swap: id, seller });
        id
    }

    /// Buyer accepts (escrow handled by the chain layer).
    pub fn accept(
        &mut self,
        meter: &mut GasMeter,
        events: &mut Vec<Event>,
        id: SwapId,
        buyer: Address,
        payment: Wei,
    ) -> Result<(), ChainError> {
        let swap = self.swaps.get_mut(&id).ok_or(ChainError::NoSuchSwap(id))?;
        meter.sload();
        if swap.state != SwapState::Offered {
            return Err(ChainError::SwapWrongState(id));
        }
        if payment < swap.price {
            return Err(ChainError::PaymentBelowSwapPrice {
                swap: id,
                price: swap.price,
                offered: payment,
            });
        }
        meter.sstore(true);
        meter.log(2, 32);
        swap.state = SwapState::Paid { buyer, payment };
        events.push(Event::SwapAccepted { swap: id, buyer });
        Ok(())
    }

    /// Seller reveals the key — publicly, as FairSwap requires.
    pub fn reveal(
        &mut self,
        meter: &mut GasMeter,
        events: &mut Vec<Event>,
        id: SwapId,
        caller: Address,
        key: Fr,
        block_height: u64,
    ) -> Result<(), ChainError> {
        let swap = self.swaps.get_mut(&id).ok_or(ChainError::NoSuchSwap(id))?;
        meter.sload();
        if caller != swap.seller {
            return Err(ChainError::SwapNotSeller { swap: id, caller });
        }
        let (buyer, payment) = match swap.state {
            SwapState::Paid { buyer, payment } => (buyer, payment),
            _ => return Err(ChainError::SwapWrongState(id)),
        };
        meter.charge(crate::gas::HASH_OP);
        if Poseidon::hash(&[key]) != swap.key_hash {
            return Err(ChainError::KeyHashMismatchSwap(id));
        }
        meter.sstore(false);
        meter.log(2, 32);
        swap.state = SwapState::Revealed {
            buyer,
            payment,
            key,
            revealed_at: block_height,
        };
        events.push(Event::SwapKeyRevealed { swap: id, key });
        Ok(())
    }

    /// Buyer's **proof of misbehaviour**: Merkle paths authenticating one
    /// ciphertext block against `root_c` and the plaintext block the buyer
    /// expected at the same index against `root_d`. The contract recomputes
    /// the keystream and refunds if the decryption disagrees.
    ///
    /// This is the expensive path: 2·log n Merkle hashes + one full MiMC
    /// block evaluation on-chain.
    #[allow(clippy::too_many_arguments)]
    pub fn complain(
        &mut self,
        meter: &mut GasMeter,
        events: &mut Vec<Event>,
        id: SwapId,
        caller: Address,
        block_index: usize,
        ciphertext_block: Fr,
        ciphertext_path: &MerklePath,
        expected_block: Fr,
        expected_path: &MerklePath,
        block_height: u64,
    ) -> Result<(Address, Wei), ChainError> {
        let swap = self.swaps.get_mut(&id).ok_or(ChainError::NoSuchSwap(id))?;
        meter.sload();
        let (buyer, payment, key, revealed_at) = match &swap.state {
            SwapState::Revealed {
                buyer,
                payment,
                key,
                revealed_at,
            } => (*buyer, *payment, *key, *revealed_at),
            _ => return Err(ChainError::SwapWrongState(id)),
        };
        if caller != buyer {
            return Err(ChainError::SwapNotBuyer { swap: id, caller });
        }
        if block_height > revealed_at + COMPLAINT_WINDOW_BLOCKS {
            return Err(ChainError::ComplaintWindowClosed(id));
        }
        if block_index >= swap.num_blocks
            || ciphertext_path.leaf_index != block_index
            || expected_path.leaf_index != block_index
        {
            return Err(ChainError::BadComplaint(id));
        }
        // Verify both Merkle paths on-chain: log n Poseidon hashes each.
        meter.charge(
            2 * crate::gas::HASH_OP * (ciphertext_path.siblings.len() as u64 + 1),
        );
        let c_ok = zkdet_crypto::MerkleTree::verify(swap.root_c, ciphertext_block, ciphertext_path);
        let d_ok = zkdet_crypto::MerkleTree::verify(swap.root_d, expected_block, expected_path);
        if !c_ok || !d_ok {
            return Err(ChainError::BadComplaint(id));
        }
        // Re-derive the keystream on-chain: 91 MiMC rounds ≈ 91 hash-ops of
        // gas (each round is a degree-7 field evaluation).
        meter.charge(crate::gas::HASH_OP * 91);
        let mimc = Mimc::new();
        let keystream = mimc.encrypt_block(key, swap.nonce + Fr::from(block_index as u64));
        let decrypted = ciphertext_block - keystream;
        if decrypted == expected_block {
            // Decryption was actually correct: complaint rejected.
            return Err(ChainError::ComplaintUnfounded(id));
        }
        meter.sstore(false);
        meter.log(2, 32);
        swap.state = SwapState::Refunded;
        events.push(Event::SwapRefunded { swap: id, buyer });
        Ok((buyer, payment))
    }

    /// Seller collects payment after the complaint window closes quietly.
    pub fn finalize(
        &mut self,
        meter: &mut GasMeter,
        events: &mut Vec<Event>,
        id: SwapId,
        caller: Address,
        block_height: u64,
    ) -> Result<(Address, Wei), ChainError> {
        let swap = self.swaps.get_mut(&id).ok_or(ChainError::NoSuchSwap(id))?;
        meter.sload();
        if caller != swap.seller {
            return Err(ChainError::SwapNotSeller { swap: id, caller });
        }
        let (payment, revealed_at) = match &swap.state {
            SwapState::Revealed {
                payment,
                revealed_at,
                ..
            } => (*payment, *revealed_at),
            _ => return Err(ChainError::SwapWrongState(id)),
        };
        if block_height <= revealed_at + COMPLAINT_WINDOW_BLOCKS {
            return Err(ChainError::ComplaintWindowOpen(id));
        }
        meter.sstore(false);
        meter.log(2, 0);
        swap.state = SwapState::Completed;
        events.push(Event::SwapCompleted { swap: id });
        Ok((swap.seller, payment))
    }

    /// Restores a swap's lifecycle state, unwinding a state transition whose
    /// enclosing transaction failed downstream. Only the blockchain layer
    /// may call this, as part of its all-or-nothing transaction guarantee.
    pub(crate) fn rollback_state(&mut self, id: SwapId, state: SwapState) {
        if let Some(swap) = self.swaps.get_mut(&id) {
            swap.state = state;
        }
    }
}

//! The FairSwap baseline protocol (§VII-B related work).
//!
//! FairSwap (CCS'18) trades zero-knowledge for authenticated data
//! structures: exchanges are optimistic and cheap, but (i) the key is
//! revealed on-chain — the same leak as ZKCP — and (ii) disputes require
//! the contract to re-execute a decryption and verify Merkle paths, so the
//! dispute cost grows with the data size (`Θ(log n)` paths + one block
//! decryption here; `Θ(|block|)` in general). The `fairswap_dispute`
//! benchmark measures exactly that growth.
//!
//! Each step is written once, as a `journaled_fairswap_*` function that
//! appends an intent record to its [`Journal`] before the side effect and
//! a completion record after; the plain functions pass [`NoJournal`].

use rand::Rng;
use zkdet_chain::contracts::{SwapId, SwapState};
use zkdet_chain::{Address, Receipt, Wei};
use zkdet_crypto::mimc::MimcCtr;
use zkdet_crypto::poseidon::Poseidon;
use zkdet_crypto::MerkleTree;
use zkdet_field::{Field, Fr};

use crate::dataset::Dataset;
use crate::error::ZkdetError;
use crate::journal::{
    ExchangeRecord, Journal, NoJournal, SwapAcceptDone, SwapAcceptIntent, SwapFinishDone,
    SwapOfferIntent,
};
use crate::market::{DataOwner, Marketplace};

/// Seller-side state for a FairSwap offer.
#[derive(Clone, Debug)]
pub struct FairSwapSeller {
    /// The on-chain swap.
    pub swap: SwapId,
    /// Encryption key (revealed on-chain at settlement).
    pub key: Fr,
    /// CTR nonce.
    pub nonce: Fr,
    /// The plaintext.
    pub data: Dataset,
    /// Published ciphertext blocks (for reference).
    pub ciphertext_blocks: Vec<Fr>,
}

/// Buyer-side state for a FairSwap purchase.
#[derive(Clone, Debug)]
pub struct FairSwapBuyer {
    /// The on-chain swap.
    pub swap: SwapId,
    /// The buyer.
    pub buyer: Address,
    /// Merkle tree over the expected plaintext (the buyer knows what file
    /// they are buying in FairSwap's model).
    pub expected: MerkleTree,
    /// The expected plaintext blocks.
    pub expected_blocks: Vec<Fr>,
    /// Merkle tree over the ciphertext the seller served off-chain.
    pub ciphertext: MerkleTree,
    /// The ciphertext blocks.
    pub ciphertext_blocks: Vec<Fr>,
    /// Escrowed payment.
    pub payment: Wei,
}

/// A journaled offer encrypted under its journaled key and nonce, before
/// the contract has assigned it a swap id.
pub(crate) struct SealedOffer {
    ciphertext_blocks: Vec<Fr>,
    /// Merkle root of the ciphertext blocks, as the contract holds it.
    pub(crate) root_c: Fr,
    /// Merkle root of the plaintext blocks.
    pub(crate) root_d: Fr,
    /// `H(k)`.
    pub(crate) key_hash: Fr,
}

impl SwapOfferIntent {
    /// Encrypts the offer — the one place that happens, so the live step
    /// and recovery post, look up and serve the same blocks.
    pub(crate) fn seal(&self) -> SealedOffer {
        let ciphertext_blocks = MimcCtr::new(self.key, self.nonce)
            .encrypt(&self.data)
            .blocks;
        SealedOffer {
            root_c: MerkleTree::new(&ciphertext_blocks).root(),
            root_d: MerkleTree::new(&self.data).root(),
            key_hash: Poseidon::hash(&[self.key]),
            ciphertext_blocks,
        }
    }
}

impl SealedOffer {
    /// The seller's state once `intent`'s offer is on-chain as `swap`.
    pub(crate) fn posted_as(self, swap: SwapId, intent: &SwapOfferIntent) -> FairSwapSeller {
        FairSwapSeller {
            swap,
            key: intent.key,
            nonce: intent.nonce,
            data: Dataset::from_entries(intent.data.clone()),
            ciphertext_blocks: self.ciphertext_blocks,
        }
    }
}

impl FairSwapBuyer {
    /// The buyer's state for the journaled `intent` with `payment` in
    /// escrow — built here for the live accept step and for recovery.
    pub(crate) fn from_intent(intent: &SwapAcceptIntent, payment: Wei) -> Self {
        FairSwapBuyer {
            swap: intent.swap,
            buyer: intent.buyer,
            expected: MerkleTree::new(&intent.expected),
            expected_blocks: intent.expected.clone(),
            ciphertext: MerkleTree::new(&intent.ciphertext),
            ciphertext_blocks: intent.ciphertext.clone(),
            payment,
        }
    }
}

impl Marketplace {
    /// Deploys the FairSwap contract (once per deployment) and returns its
    /// address. Idempotent via the caller storing the address.
    pub fn deploy_fairswap_contract(&mut self) -> Address {
        let operator = Address::from_seed(0);
        let (addr, _) = self.chain.deploy_fairswap(operator);
        addr
    }

    /// Seller makes a FairSwap offer for a dataset: encrypts it, Merkle-izes
    /// ciphertext and plaintext, posts roots + `H(k)` on-chain, and serves
    /// the ciphertext off-chain (returned for the buyer).
    pub fn fairswap_offer<R: Rng + ?Sized>(
        &mut self,
        contract: Address,
        seller: &DataOwner,
        data: Dataset,
        price: Wei,
        rng: &mut R,
    ) -> Result<(FairSwapSeller, Vec<Fr>), ZkdetError> {
        self.journaled_fairswap_offer(&mut NoJournal, contract, seller, data, price, rng)
    }

    /// [`Marketplace::fairswap_offer`] over `journal`: key and nonce are
    /// durable before the offer lands, so a crash-restart replay
    /// reproduces identical roots.
    pub fn journaled_fairswap_offer<R: Rng + ?Sized>(
        &mut self,
        journal: &mut impl Journal,
        contract: Address,
        seller: &DataOwner,
        data: Dataset,
        price: Wei,
        rng: &mut R,
    ) -> Result<(FairSwapSeller, Vec<Fr>), ZkdetError> {
        let intent = SwapOfferIntent {
            key: Fr::random(rng),
            nonce: Fr::random(rng),
            data: data.entries().to_vec(),
            price,
        };
        journal.append(&ExchangeRecord::SwapOfferIntent(intent.clone()))?;
        let state = self.post_swap_offer(journal, contract, seller, &intent)?;
        let served = state.ciphertext_blocks.clone();
        Ok((state, served))
    }

    /// The effect half of the offer step: posts the already-journaled
    /// `intent` and journals `SwapOfferDone`. Recovery re-posts a lost
    /// offer through this with the *journaled* key and nonce.
    pub(crate) fn post_swap_offer(
        &mut self,
        journal: &mut impl Journal,
        contract: Address,
        seller: &DataOwner,
        intent: &SwapOfferIntent,
    ) -> Result<FairSwapSeller, ZkdetError> {
        let sealed = intent.seal();
        let (swap, _receipt) = self.chain.fairswap_offer(
            contract,
            seller.address,
            intent.price,
            sealed.root_c,
            sealed.root_d,
            sealed.key_hash,
            intent.data.len(),
            intent.nonce,
        )?;
        journal.append(&ExchangeRecord::SwapOfferDone(swap))?;
        Ok(sealed.posted_as(swap, intent))
    }

    /// Buyer accepts: checks the served ciphertext against the on-chain
    /// root, checks the plaintext root matches the file they expect, and
    /// escrows the payment.
    pub fn fairswap_accept(
        &mut self,
        contract: Address,
        buyer: &DataOwner,
        swap: SwapId,
        served_ciphertext: Vec<Fr>,
        expected_plaintext: &Dataset,
    ) -> Result<FairSwapBuyer, ZkdetError> {
        self.journaled_fairswap_accept(
            &mut NoJournal,
            contract,
            buyer,
            swap,
            served_ciphertext,
            expected_plaintext,
        )
    }

    /// [`Marketplace::fairswap_accept`] over `journal`.
    pub fn journaled_fairswap_accept(
        &mut self,
        journal: &mut impl Journal,
        contract: Address,
        buyer: &DataOwner,
        swap: SwapId,
        served_ciphertext: Vec<Fr>,
        expected_plaintext: &Dataset,
    ) -> Result<FairSwapBuyer, ZkdetError> {
        let intent = SwapAcceptIntent {
            swap,
            buyer: buyer.address,
            expected: expected_plaintext.entries().to_vec(),
            ciphertext: served_ciphertext,
        };
        journal.append(&ExchangeRecord::SwapAcceptIntent(intent.clone()))?;
        self.escrow_swap_accept(journal, contract, &intent)
    }

    /// The effect half of the accept step: checks the already-journaled
    /// `intent`'s ciphertext and plaintext against the offer's on-chain
    /// roots and block count, then escrows the price and journals
    /// `SwapAcceptDone`. The checks live here, not before the intent, so a
    /// recovery that re-executes the intent cannot escrow for blocks the
    /// live step would have rejected ([`ZkdetError::Inconsistent`], nothing
    /// moved).
    pub(crate) fn escrow_swap_accept(
        &mut self,
        journal: &mut impl Journal,
        contract: Address,
        intent: &SwapAcceptIntent,
    ) -> Result<FairSwapBuyer, ZkdetError> {
        let swap = intent.swap;
        let on_chain = self.chain.fairswap(&contract)?.swap(swap)?.clone();
        let payment = on_chain.price;
        // A root does not pin its list's length: leaves are zero-padded to a
        // power of two, and a seller may post a root over fewer ciphertext
        // blocks than the file has. Decryption stops at the shorter list,
        // so a short ciphertext would leave no block to complain about.
        if intent.ciphertext.len() != on_chain.num_blocks
            || intent.expected.len() != on_chain.num_blocks
        {
            return Err(ZkdetError::Inconsistent(format!(
                "{} ciphertext blocks served and {} plaintext blocks expected for a {}-block offer",
                intent.ciphertext.len(),
                intent.expected.len(),
                on_chain.num_blocks
            )));
        }
        let state = FairSwapBuyer::from_intent(intent, payment);
        if state.ciphertext.root() != on_chain.root_c {
            return Err(ZkdetError::Inconsistent(
                "served ciphertext does not match the on-chain root".into(),
            ));
        }
        if state.expected.root() != on_chain.root_d {
            return Err(ZkdetError::Inconsistent(
                "offer is not for the expected file".into(),
            ));
        }
        self.chain
            .fairswap_accept(contract, intent.buyer, swap, payment)?;
        journal.append(&ExchangeRecord::SwapAcceptDone(SwapAcceptDone {
            swap,
            payment,
        }))?;
        Ok(state)
    }

    /// Seller reveals the key on-chain (public!).
    pub fn fairswap_reveal(
        &mut self,
        contract: Address,
        seller: &DataOwner,
        state: &FairSwapSeller,
    ) -> Result<Receipt, ZkdetError> {
        self.journaled_fairswap_reveal(&mut NoJournal, contract, seller, state)
    }

    /// [`Marketplace::fairswap_reveal`] over `journal`.
    pub fn journaled_fairswap_reveal(
        &mut self,
        journal: &mut impl Journal,
        contract: Address,
        seller: &DataOwner,
        state: &FairSwapSeller,
    ) -> Result<Receipt, ZkdetError> {
        journal.append(&ExchangeRecord::SwapRevealIntent(state.swap))?;
        let r = self
            .chain
            .fairswap_reveal(contract, seller.address, state.swap, state.key)?;
        self.chain.mine_block();
        journal.append(&ExchangeRecord::SwapRevealDone(state.swap))?;
        Ok(r)
    }

    /// Buyer decrypts with the revealed key; on a bad block, submits the
    /// proof of misbehaviour and gets refunded. Returns either the
    /// plaintext or the dispute receipt.
    pub fn fairswap_finish_or_dispute(
        &mut self,
        contract: Address,
        state: &FairSwapBuyer,
    ) -> Result<Result<Dataset, Receipt>, ZkdetError> {
        self.journaled_fairswap_finish(&mut NoJournal, contract, state)
    }

    /// [`Marketplace::fairswap_finish_or_dispute`] over `journal`.
    pub fn journaled_fairswap_finish(
        &mut self,
        journal: &mut impl Journal,
        contract: Address,
        state: &FairSwapBuyer,
    ) -> Result<Result<Dataset, Receipt>, ZkdetError> {
        journal.append(&ExchangeRecord::SwapFinishIntent(state.swap))?;
        let on_chain = self.chain.fairswap(&contract)?.swap(state.swap)?.clone();
        let key = match on_chain.state {
            SwapState::Revealed { key, .. } => key,
            _ => {
                return Err(ZkdetError::Protocol(
                    "swap key has not been revealed".into(),
                ))
            }
        };
        let ctr = MimcCtr::new(key, on_chain.nonce);
        let decrypted = ctr.decrypt(&zkdet_crypto::mimc::Ciphertext {
            nonce: on_chain.nonce,
            blocks: state.ciphertext_blocks.clone(),
        });
        // Find the first bad block, if any.
        let bad = decrypted
            .iter()
            .zip(&state.expected_blocks)
            .position(|(got, want)| got != want);
        let outcome = match bad {
            Some(i) => Err(self.chain.fairswap_complain(
                contract,
                state.buyer,
                state.swap,
                i,
                state.ciphertext_blocks[i],
                &state.ciphertext.path(i),
                state.expected_blocks[i],
                &state.expected.path(i),
            )?),
            None => Ok(Dataset::from_entries(decrypted)),
        };
        journal.append(&ExchangeRecord::SwapFinishDone(SwapFinishDone {
            swap: state.swap,
            disputed: outcome.is_err(),
        }))?;
        Ok(outcome)
    }

    /// The key a FairSwap reveal disclosed on-chain, if any — same leak
    /// surface as ZKCP.
    pub fn fairswap_leaked_key(&self, contract: Address, swap: SwapId) -> Option<Fr> {
        let s = self.chain.fairswap(&contract).ok()?.swap(swap).ok()?;
        match &s.state {
            SwapState::Revealed { key, .. } => Some(*key),
            _ => None,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use zkdet_chain::contracts::COMPLAINT_WINDOW_BLOCKS;

    fn setup() -> (Marketplace, DataOwner, DataOwner, Address, StdRng) {
        let mut rng = StdRng::seed_from_u64(700);
        let mut m = Marketplace::bootstrap(1 << 12, 4, &mut rng).unwrap();
        let seller = m.register();
        let buyer = m.register();
        let fs = m.deploy_fairswap_contract();
        (m, seller, buyer, fs, rng)
    }

    fn data(vals: &[u64]) -> Dataset {
        Dataset::from_entries(vals.iter().map(|v| Fr::from(*v)).collect())
    }

    #[test]
    fn honest_fairswap_completes() {
        let (mut m, seller, buyer, fs, mut rng) = setup();
        let d = data(&[1, 2, 3, 4]);
        let (s_state, ct) = m
            .fairswap_offer(fs, &seller, d.clone(), 500, &mut rng)
            .unwrap();
        let b_state = m
            .fairswap_accept(fs, &buyer, s_state.swap, ct, &d)
            .unwrap();
        m.fairswap_reveal(fs, &seller, &s_state).unwrap();
        let out = m.fairswap_finish_or_dispute(fs, &b_state).unwrap();
        assert_eq!(out.unwrap(), d);
        // Seller can collect after the window.
        for _ in 0..=COMPLAINT_WINDOW_BLOCKS {
            m.chain.mine_block();
        }
        let before = m.chain.state.balance(&seller.address);
        m.chain
            .fairswap_finalize(fs, seller.address, s_state.swap)
            .unwrap();
        assert_eq!(m.chain.state.balance(&seller.address), before + 500);
        // The key is public — the inherent FairSwap/ZKCP leak.
        assert!(m.fairswap_leaked_key(fs, s_state.swap).is_none()); // state moved to Completed
    }

    #[test]
    fn recovery_of_a_rejected_accept_escrows_nothing() {
        // The live accept journals its intent, then rejects: once because
        // the served ciphertext is not the one under the on-chain root_c,
        // once because the offer is not for the file the buyer expects, and
        // once because the buyer expects a shorter file under the same
        // (zero-padded) plaintext root.
        for case in ["tampered ciphertext", "wrong file", "short file"] {
            let (mut m, seller, mut buyer, fs, mut rng) = setup();
            let d = data(&[1, 2, 3, 0]);
            let mut wal = crate::journal::ExchangeWal::new();
            let (s_state, mut ct) = m
                .journaled_fairswap_offer(&mut wal, fs, &seller, d.clone(), 500, &mut rng)
                .unwrap();
            let expected = match case {
                "tampered ciphertext" => {
                    ct[0] += Fr::ONE;
                    d
                }
                "wrong file" => data(&[1, 2, 3, 5]),
                _ => data(&[1, 2, 3]),
            };
            let swap = s_state.swap;
            let err = m
                .journaled_fairswap_accept(&mut wal, fs, &buyer, swap, ct, &expected)
                .unwrap_err();
            assert!(matches!(err, ZkdetError::Inconsistent(_)), "{case}: {err}");
            let (b, s) = (buyer.address, seller.address);
            let balances = |m: &Marketplace| (m.chain.state.balance(&b), m.chain.state.balance(&s));
            let before = balances(&m);

            // Recovery re-executes that intent through the same checks:
            // the buyer is not made to escrow for blocks it rejected.
            let report = m
                .recover(&mut wal, Some(&seller), &mut buyer, Some(fs), &mut rng)
                .unwrap();
            assert_eq!(report.swaps.len(), 1);
            assert_eq!(report.swaps[0].state, "offered", "{case}");
            assert_eq!(balances(&m), before, "{case}");
            let on_chain = m.chain.fairswap(&fs).unwrap().swap(swap).unwrap();
            assert_eq!(on_chain.state, SwapState::Offered);
        }
    }

    /// A seller posts a root over a 1-block ciphertext beside the real
    /// 2-block plaintext root and `num_blocks = 2`. Every root matches what
    /// the buyer is served and expects, but decryption would stop after
    /// one block with nothing to complain about, and the seller would
    /// collect the full price once the window closed. The accept refuses
    /// the offer and escrows nothing.
    #[test]
    fn a_truncated_ciphertext_is_refused_before_escrow() {
        let (mut m, seller, buyer, fs, _) = setup();
        let real = data(&[10, 20]);
        let key = Fr::from(777u64);
        let nonce = Fr::from(1u64);
        let ct = MimcCtr::new(key, nonce).encrypt(&real.entries()[..1]);
        let (swap, _) = m
            .chain
            .fairswap_offer(
                fs,
                seller.address,
                500,
                MerkleTree::new(&ct.blocks).root(),
                MerkleTree::new(real.entries()).root(),
                Poseidon::hash(&[key]),
                2,
                nonce,
            )
            .unwrap();
        let before = m.chain.state.balance(&buyer.address);
        let err = m
            .fairswap_accept(fs, &buyer, swap, ct.blocks, &real)
            .unwrap_err();
        assert!(matches!(err, ZkdetError::Inconsistent(_)), "{err}");
        assert_eq!(m.chain.state.balance(&buyer.address), before);
        let on_chain = m.chain.fairswap(&fs).unwrap().swap(swap).unwrap();
        assert_eq!(on_chain.state, SwapState::Offered);
    }

    #[test]
    fn cheating_seller_is_caught_by_complaint() {
        let (mut m, seller, buyer, fs, rng) = setup();
        let real = data(&[10, 20, 30, 40]);
        // Seller offers the REAL roots but serves a tampered ciphertext…
        // that won't match root_c, so instead: seller commits to a WRONG
        // plaintext root by offering garbage data under the buyer's
        // expected root — model the classic attack: encrypt garbage, post
        // its ciphertext root, but claim the buyer's root_d.
        let garbage = data(&[10, 20, 99, 40]); // block 2 is wrong
        let key = Fr::from(777u64);
        let nonce = Fr::from(1u64);
        let ct = MimcCtr::new(key, nonce).encrypt(garbage.entries());
        let root_c = MerkleTree::new(&ct.blocks).root();
        let root_d = MerkleTree::new(real.entries()).root(); // lies!
        let (swap, _) = m
            .chain
            .fairswap_offer(
                fs,
                seller.address,
                500,
                root_c,
                root_d,
                Poseidon::hash(&[key]),
                4,
                nonce,
            )
            .unwrap();
        let b_state = m
            .fairswap_accept(fs, &buyer, swap, ct.blocks.clone(), &real)
            .unwrap();
        let buyer_before = m.chain.state.balance(&buyer.address);
        m.chain
            .fairswap_reveal(fs, seller.address, swap, key)
            .unwrap();
        m.chain.mine_block();
        let out = m.fairswap_finish_or_dispute(fs, &b_state).unwrap();
        let receipt = out.expect_err("must dispute");
        assert!(receipt.action.contains("complain"));
        // Refund arrived.
        assert_eq!(m.chain.state.balance(&buyer.address), buyer_before + 500);
        let _ = rng;
    }

    #[test]
    fn unfounded_complaint_rejected() {
        let (mut m, seller, buyer, fs, mut rng) = setup();
        let d = data(&[5, 6, 7, 8]);
        let (s_state, ct) = m
            .fairswap_offer(fs, &seller, d.clone(), 100, &mut rng)
            .unwrap();
        let b_state = m
            .fairswap_accept(fs, &buyer, s_state.swap, ct, &d)
            .unwrap();
        m.fairswap_reveal(fs, &seller, &s_state).unwrap();
        // Manually lodge a complaint about a correct block.
        let err = m
            .chain
            .fairswap_complain(
                fs,
                buyer.address,
                s_state.swap,
                1,
                b_state.ciphertext_blocks[1],
                &b_state.ciphertext.path(1),
                b_state.expected_blocks[1],
                &b_state.expected.path(1),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            zkdet_chain::ChainError::ComplaintUnfounded(_)
        ));
    }

    #[test]
    fn fairswap_leaks_key_like_zkcp() {
        let (mut m, seller, buyer, fs, mut rng) = setup();
        let d = data(&[1, 2]);
        let (s_state, ct) = m
            .fairswap_offer(fs, &seller, d.clone(), 100, &mut rng)
            .unwrap();
        let _b = m
            .fairswap_accept(fs, &buyer, s_state.swap, ct.clone(), &d)
            .unwrap();
        m.fairswap_reveal(fs, &seller, &s_state).unwrap();
        // Any observer reads the key and decrypts.
        let k = m.fairswap_leaked_key(fs, s_state.swap).expect("leaked");
        let stolen = MimcCtr::new(k, s_state.nonce).decrypt(&zkdet_crypto::mimc::Ciphertext {
            nonce: s_state.nonce,
            blocks: ct,
        });
        assert_eq!(Dataset::from_entries(stolen), d);
    }

    #[test]
    fn dispute_gas_grows_with_data_size() {
        // The paper's critique: dispute verification cost grows with size.
        let (mut m, seller, buyer, fs, _rng) = setup();
        let mut gas_at = vec![];
        for log_n in [2u32, 6, 10] {
            let n = 1usize << log_n;
            let mut vals: Vec<u64> = (0..n as u64).collect();
            let real = data(&vals);
            vals[0] = 999_999; // corrupt block 0
            let garbage = data(&vals);
            let key = Fr::from(42u64 + log_n as u64);
            let nonce = Fr::from(9u64);
            let ct = MimcCtr::new(key, nonce).encrypt(garbage.entries());
            let root_c = MerkleTree::new(&ct.blocks).root();
            let root_d = MerkleTree::new(real.entries()).root();
            let (swap, _) = m
                .chain
                .fairswap_offer(
                    fs,
                    seller.address,
                    10,
                    root_c,
                    root_d,
                    Poseidon::hash(&[key]),
                    n,
                    nonce,
                )
                .unwrap();
            let b_state = m
                .fairswap_accept(fs, &buyer, swap, ct.blocks.clone(), &real)
                .unwrap();
            m.chain
                .fairswap_reveal(fs, seller.address, swap, key)
                .unwrap();
            m.chain.mine_block();
            let receipt = m
                .fairswap_finish_or_dispute(fs, &b_state)
                .unwrap()
                .expect_err("disputes");
            gas_at.push(receipt.gas_used);
        }
        assert!(
            gas_at[0] < gas_at[1] && gas_at[1] < gas_at[2],
            "dispute gas must grow with data size: {gas_at:?}"
        );
    }
}

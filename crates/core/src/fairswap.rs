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
//! FairSwap is the comparison baseline only: its steps keep no journal and
//! have no crash recovery, unlike the key-secure exchange in
//! [`crate::exchange`].

use rand::Rng;
use zkdet_chain::contracts::{SwapId, SwapState};
use zkdet_chain::{Address, Receipt, Wei};
use zkdet_crypto::mimc::MimcCtr;
use zkdet_crypto::poseidon::Poseidon;
use zkdet_crypto::MerkleTree;
use zkdet_field::{Field, Fr};

use crate::dataset::Dataset;
use crate::error::ZkdetError;
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

impl Marketplace {
    /// Deploys the FairSwap contract (once per deployment) and returns its
    /// address. Idempotent via the caller storing the address.
    pub fn deploy_fairswap_contract(&mut self) -> Address {
        let operator = Address::from_seed(0);
        let (addr, _) = self.chain.deploy_fairswap(operator);
        addr
    }

    /// Seller makes a FairSwap offer for a dataset: draws a key, then a
    /// nonce, from `rng`, encrypts, Merkle-izes ciphertext and plaintext,
    /// posts roots + `H(k)` on-chain, and serves the ciphertext off-chain
    /// (returned for the buyer).
    pub fn fairswap_offer<R: Rng + ?Sized>(
        &mut self,
        contract: Address,
        seller: &DataOwner,
        data: Dataset,
        price: Wei,
        rng: &mut R,
    ) -> Result<(FairSwapSeller, Vec<Fr>), ZkdetError> {
        let key = Fr::random(rng);
        let nonce = Fr::random(rng);
        let ciphertext_blocks = MimcCtr::new(key, nonce).encrypt(data.entries()).blocks;
        let (swap, _receipt) = self.chain.fairswap_offer(
            contract,
            seller.address,
            price,
            MerkleTree::new(&ciphertext_blocks).root(),
            MerkleTree::new(data.entries()).root(),
            Poseidon::hash(&[key]),
            data.len(),
            nonce,
        )?;
        let served = ciphertext_blocks.clone();
        let state = FairSwapSeller {
            swap,
            key,
            nonce,
            data,
            ciphertext_blocks,
        };
        Ok((state, served))
    }

    /// Buyer accepts: checks the served ciphertext and the file they
    /// expect against the offer's on-chain roots and block count, then
    /// escrows the payment. A failed check is
    /// [`ZkdetError::Inconsistent`] with nothing escrowed.
    pub fn fairswap_accept(
        &mut self,
        contract: Address,
        buyer: &DataOwner,
        swap: SwapId,
        served_ciphertext: Vec<Fr>,
        expected_plaintext: &Dataset,
    ) -> Result<FairSwapBuyer, ZkdetError> {
        let on_chain = self.chain.fairswap(&contract)?.swap(swap)?;
        let expected = expected_plaintext.entries();
        // A root does not pin its list's length: leaves are zero-padded to a
        // power of two, and a seller may post a root over fewer ciphertext
        // blocks than the file has. Decryption stops at the shorter list,
        // so a short ciphertext would leave no block to complain about.
        if served_ciphertext.len() != on_chain.num_blocks || expected.len() != on_chain.num_blocks {
            return Err(ZkdetError::Inconsistent(format!(
                "{} ciphertext blocks served and {} plaintext blocks expected for a {}-block offer",
                served_ciphertext.len(),
                expected.len(),
                on_chain.num_blocks
            )));
        }
        let state = FairSwapBuyer {
            swap,
            buyer: buyer.address,
            expected: MerkleTree::new(expected),
            expected_blocks: expected.to_vec(),
            ciphertext: MerkleTree::new(&served_ciphertext),
            ciphertext_blocks: served_ciphertext,
            payment: on_chain.price,
        };
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
            .fairswap_accept(contract, buyer.address, swap, state.payment)?;
        Ok(state)
    }

    /// Seller reveals the key on-chain (public!).
    pub fn fairswap_reveal(
        &mut self,
        contract: Address,
        seller: &DataOwner,
        state: &FairSwapSeller,
    ) -> Result<Receipt, ZkdetError> {
        let r = self
            .chain
            .fairswap_reveal(contract, seller.address, state.swap, state.key)?;
        self.chain.mine_block();
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
        let on_chain = self.chain.fairswap(&contract)?.swap(state.swap)?;
        let SwapState::Revealed { key, .. } = on_chain.state else {
            return Err(ZkdetError::Protocol(
                "swap key has not been revealed".into(),
            ));
        };
        let nonce = on_chain.nonce;
        let decrypted = MimcCtr::new(key, nonce).decrypt(&zkdet_crypto::mimc::Ciphertext {
            nonce,
            blocks: state.ciphertext_blocks.clone(),
        });
        // Find the first bad block, if any.
        let bad = decrypted
            .iter()
            .zip(&state.expected_blocks)
            .position(|(got, want)| got != want);
        Ok(match bad {
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
        })
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
    use rand::{rngs::StdRng, RngCore, SeedableRng};
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

    /// `fairswap_accept` must refuse `ciphertext` / `expected` for `swap`
    /// before the escrow: the buyer keeps its balance and the swap stays
    /// offered.
    fn assert_refused(
        m: &mut Marketplace,
        fs: Address,
        buyer: &DataOwner,
        swap: SwapId,
        ciphertext: Vec<Fr>,
        expected: &Dataset,
        case: &str,
    ) {
        let before = m.chain.state.balance(&buyer.address);
        let err = m
            .fairswap_accept(fs, buyer, swap, ciphertext, expected)
            .unwrap_err();
        assert!(matches!(err, ZkdetError::Inconsistent(_)), "{case}: {err}");
        assert_eq!(m.chain.state.balance(&buyer.address), before, "{case}");
        let on_chain = m.chain.fairswap(&fs).unwrap().swap(swap).unwrap();
        assert_eq!(on_chain.state, SwapState::Offered, "{case}");
    }

    /// A seller posts a root over a 1-block ciphertext beside the real
    /// 2-block plaintext root and `num_blocks = 2`. Every root matches what
    /// the buyer is served and expects, but decryption would stop after
    /// one block with nothing to complain about, and the seller would
    /// collect the full price once the window closed. The accept refuses
    /// the offer and escrows nothing — as it does for an honest offer
    /// served with a tampered ciphertext, for another file, or for a
    /// shorter file under the same zero-padded plaintext root.
    #[test]
    fn a_truncated_ciphertext_is_refused_before_escrow() {
        let (mut m, seller, buyer, fs, mut rng) = setup();
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
        let case = "truncated ciphertext";
        assert_refused(&mut m, fs, &buyer, swap, ct.blocks, &real, case);

        let d = data(&[1, 2, 3, 0]);
        let (s_state, ct) = m
            .fairswap_offer(fs, &seller, d.clone(), 500, &mut rng)
            .unwrap();
        let mut tampered = ct.clone();
        tampered[0] += Fr::ONE;
        for (case, served, expected) in [
            ("ciphertext off root_c", tampered, d),
            ("offer for another file", ct.clone(), data(&[1, 2, 3, 5])),
            ("short file", ct, data(&[1, 2, 3])),
        ] {
            assert_refused(&mut m, fs, &buyer, s_state.swap, served, &expected, case);
        }
    }

    /// The offer draws its key, then its nonce, from the caller's rng and
    /// nothing more: the executor's seeded swaps, and with them chain state
    /// and gas, rest on that order.
    #[test]
    fn the_offer_draws_key_then_nonce() {
        let (mut m, seller, _buyer, fs, _rng) = setup();
        let d = data(&[1, 2, 3, 4]);
        let mut rng = StdRng::seed_from_u64(42);
        let (s_state, ct) = m
            .fairswap_offer(fs, &seller, d.clone(), 500, &mut rng)
            .unwrap();
        let mut expect = StdRng::seed_from_u64(42);
        let key = Fr::random(&mut expect);
        let nonce = Fr::random(&mut expect);
        assert_eq!((s_state.key, s_state.nonce), (key, nonce));
        assert_eq!(rng.next_u64(), expect.next_u64(), "no further draws");
        assert_eq!(ct, MimcCtr::new(key, nonce).encrypt(d.entries()).blocks);
        let on_chain = m.chain.fairswap(&fs).unwrap().swap(s_state.swap).unwrap();
        assert_eq!(on_chain.nonce, nonce);
        assert_eq!(on_chain.key_hash, Poseidon::hash(&[key]));
        assert_eq!(on_chain.root_c, MerkleTree::new(&ct).root());
    }

    /// Before the seller reveals, the buyer has no key: finishing is a
    /// protocol error that neither completes nor disputes the swap, and
    /// the escrow stays where it is until the reveal.
    #[test]
    fn finishing_before_the_reveal_is_refused() {
        let (mut m, seller, buyer, fs, mut rng) = setup();
        let d = data(&[1, 2, 3, 4]);
        let (s_state, ct) = m
            .fairswap_offer(fs, &seller, d.clone(), 500, &mut rng)
            .unwrap();
        let b_state = m
            .fairswap_accept(fs, &buyer, s_state.swap, ct, &d)
            .unwrap();
        let escrow = m.chain.state.balance(&fs);
        let err = m.fairswap_finish_or_dispute(fs, &b_state).unwrap_err();
        assert!(matches!(err, ZkdetError::Protocol(_)), "{err}");
        let on_chain = m.chain.fairswap(&fs).unwrap().swap(s_state.swap).unwrap();
        assert_eq!(
            on_chain.state,
            SwapState::Paid {
                buyer: buyer.address,
                payment: 500
            }
        );
        assert_eq!(m.chain.state.balance(&fs), escrow);
        m.fairswap_reveal(fs, &seller, &s_state).unwrap();
        let out = m.fairswap_finish_or_dispute(fs, &b_state).unwrap();
        assert_eq!(out.unwrap(), d);
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

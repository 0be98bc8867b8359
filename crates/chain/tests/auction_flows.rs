//! Contract-level scenario tests for the auction, escrow and refund logic.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rand::{rngs::StdRng, SeedableRng};
use zkdet_chain::contracts::{ListingState, REFUND_TIMEOUT_BLOCKS};
use zkdet_chain::{Address, Blockchain, ChainError, TokenMeta, TransformKind};
use zkdet_crypto::commitment::CommitmentScheme;
use zkdet_crypto::Poseidon;
use zkdet_field::{Field, Fr};
use zkdet_plonk::Plonk;
use zkdet_storage::Cid;

struct Fixture {
    chain: Blockchain,
    nft: Address,
    auction: Address,
    verifier: Address,
    seller: Address,
    buyer: Address,
    token: zkdet_chain::TokenId,
    key: Fr,
    key_commitment: zkdet_crypto::Commitment,
    key_opening: zkdet_crypto::Opening,
    pk: zkdet_plonk::ProvingKey,
    rng: StdRng,
}

fn fixture() -> Fixture {
    let mut rng = StdRng::seed_from_u64(930);
    let mut chain = Blockchain::new();
    let operator = Address::from_seed(0);
    let seller = Address::from_seed(1);
    let buyer = Address::from_seed(2);
    chain.state.fund(operator, 1_000_000_000);
    chain.state.fund(seller, 1_000_000);
    chain.state.fund(buyer, 1_000_000);
    let (nft, _) = chain.deploy_nft(operator);
    let (auction, _) = chain.deploy_auction(operator);

    // π_k relation keys + verifier contract.
    let key = Fr::from(777u64);
    let (key_commitment, key_opening) = CommitmentScheme::commit_scalar(key, &mut rng);
    let circuit = zkdet_circuits::exchange::KeyNegotiationCircuit.synthesize(
        key,
        Fr::from(5u64),
        &key_commitment,
        &key_opening,
    );
    let srs = zkdet_kzg::Srs::universal_setup(circuit.rows() + 8, &mut rng);
    let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
    let (verifier, _) = chain.deploy_verifier(operator, vk);

    let (token, _) = chain
        .nft_mint(
            nft,
            seller,
            TokenMeta {
                cid: Cid::from_bytes(b"data"),
                commitment: Fr::from(1u64),
                prev_ids: vec![],
                kind: TransformKind::Original,
                proof_cid: None,
            },
        )
        .unwrap();
    Fixture {
        chain,
        nft,
        auction,
        verifier,
        seller,
        buyer,
        token,
        key,
        key_commitment,
        key_opening,
        pk,
        rng,
    }
}

fn list(f: &mut Fixture) -> zkdet_chain::contracts::ListingId {
    let (id, _) = f
        .chain
        .auction_create(
            f.auction,
            f.nft,
            f.seller,
            f.token,
            1_000,
            400,
            100,
            f.key_commitment.0,
            "test".into(),
        )
        .unwrap();
    id
}

#[test]
fn listing_escrows_the_token() {
    let mut f = fixture();
    let _id = list(&mut f);
    // Token now held by the auction contract.
    assert_eq!(
        f.chain.nft(&f.nft).unwrap().owner_of(f.token).unwrap(),
        f.auction
    );
    // Seller can no longer transfer it.
    assert!(matches!(
        f.chain
            .nft_transfer(f.nft, f.seller, f.buyer, f.token),
        Err(ChainError::NotAuthorized { .. })
    ));
}

#[test]
fn lock_rejects_underpayment_and_double_lock() {
    let mut f = fixture();
    let id = list(&mut f);
    let h_v = Poseidon::hash(&[Fr::from(5u64)]);
    // Price at creation height is 1000; offering 999 fails.
    assert!(matches!(
        f.chain.auction_lock(f.auction, f.buyer, id, 999, h_v),
        Err(ChainError::PaymentBelowPrice { .. })
    ));
    // Balance unchanged after the failed lock (escrow reverted).
    assert_eq!(f.chain.state.balance(&f.buyer), 1_000_000);
    f.chain
        .auction_lock(f.auction, f.buyer, id, 1_000, h_v)
        .unwrap();
    assert_eq!(f.chain.state.balance(&f.buyer), 999_000);
    // Second lock fails.
    let other = Address::from_seed(3);
    f.chain.state.fund(other, 10_000);
    assert!(matches!(
        f.chain.auction_lock(f.auction, other, id, 1_000, h_v),
        Err(ChainError::ListingNotOpen(_))
    ));
}

#[test]
fn settle_happy_path_moves_funds_and_token() {
    let mut f = fixture();
    let id = list(&mut f);
    let k_v = Fr::from(5u64);
    let h_v = Poseidon::hash(&[k_v]);
    f.chain
        .auction_lock(f.auction, f.buyer, id, 1_000, h_v)
        .unwrap();

    let circuit = zkdet_circuits::exchange::KeyNegotiationCircuit.synthesize(
        f.key,
        k_v,
        &f.key_commitment,
        &f.key_opening,
    );
    let proof = Plonk::prove(&f.pk, &circuit, &mut f.rng).unwrap();
    let seller_before = f.chain.state.balance(&f.seller);
    f.chain
        .auction_settle_key_secure(
            f.auction,
            f.nft,
            f.verifier,
            f.seller,
            id,
            f.key + k_v,
            &proof,
        )
        .unwrap();
    assert_eq!(f.chain.state.balance(&f.seller), seller_before + 1_000);
    assert_eq!(
        f.chain.nft(&f.nft).unwrap().owner_of(f.token).unwrap(),
        f.buyer
    );
    assert_eq!(
        f.chain.auction(&f.auction).unwrap().listing(id).unwrap().state,
        ListingState::Settled { buyer: f.buyer }
    );
}

#[test]
fn settle_with_wrong_kc_rejected_onchain() {
    let mut f = fixture();
    let id = list(&mut f);
    let k_v = Fr::from(5u64);
    let h_v = Poseidon::hash(&[k_v]);
    f.chain
        .auction_lock(f.auction, f.buyer, id, 1_000, h_v)
        .unwrap();
    let circuit = zkdet_circuits::exchange::KeyNegotiationCircuit.synthesize(
        f.key,
        k_v,
        &f.key_commitment,
        &f.key_opening,
    );
    let proof = Plonk::prove(&f.pk, &circuit, &mut f.rng).unwrap();
    // Announce a different k_c than the proof attests.
    assert!(matches!(
        f.chain.auction_settle_key_secure(
            f.auction,
            f.nft,
            f.verifier,
            f.seller,
            id,
            f.key + k_v + Fr::ONE,
            &proof,
        ),
        Err(ChainError::ProofRejected)
    ));
    // Escrow intact.
    assert_eq!(f.chain.state.balance(&f.auction), 1_000);
}

#[test]
fn only_seller_can_settle_and_only_buyer_can_refund() {
    let mut f = fixture();
    let id = list(&mut f);
    let k_v = Fr::from(5u64);
    f.chain
        .auction_lock(f.auction, f.buyer, id, 1_000, Poseidon::hash(&[k_v]))
        .unwrap();
    let circuit = zkdet_circuits::exchange::KeyNegotiationCircuit.synthesize(
        f.key,
        k_v,
        &f.key_commitment,
        &f.key_opening,
    );
    let proof = Plonk::prove(&f.pk, &circuit, &mut f.rng).unwrap();
    let mallory = Address::from_seed(9);
    assert!(matches!(
        f.chain.auction_settle_key_secure(
            f.auction, f.nft, f.verifier, mallory, id, f.key + k_v, &proof
        ),
        Err(ChainError::NotSeller { .. })
    ));
    for _ in 0..REFUND_TIMEOUT_BLOCKS + 1 {
        f.chain.mine_block();
    }
    assert!(matches!(
        f.chain.auction_refund(f.auction, mallory, id),
        Err(ChainError::NotAuthorizedListing { .. })
    ));
    f.chain.auction_refund(f.auction, f.buyer, id).unwrap();
    assert_eq!(f.chain.state.balance(&f.buyer), 1_000_000);
    // Listing re-opens after refund; a new buyer can lock it again.
    assert_eq!(
        f.chain.auction(&f.auction).unwrap().listing(id).unwrap().state,
        ListingState::Open
    );
}

#[test]
fn zkcp_settle_requires_matching_preimage() {
    let mut f = fixture();
    let id = list(&mut f);
    let h = Poseidon::hash(&[f.key]);
    f.chain
        .auction_lock(f.auction, f.buyer, id, 1_000, h)
        .unwrap();
    // Wrong key: rejected.
    assert!(matches!(
        f.chain
            .auction_settle_zkcp(f.auction, f.nft, f.seller, id, f.key + Fr::ONE),
        Err(ChainError::KeyHashMismatch(_))
    ));
    // Right key: settles and records the leak.
    f.chain
        .auction_settle_zkcp(f.auction, f.nft, f.seller, id, f.key)
        .unwrap();
    assert_eq!(
        f.chain.auction(&f.auction).unwrap().leaked_keys(),
        &[(id, f.key)]
    );
}

#[test]
fn gas_is_deterministic_across_runs() {
    let mut f1 = fixture();
    let mut f2 = fixture();
    let id1 = list(&mut f1);
    let id2 = list(&mut f2);
    assert_eq!(id1, id2);
    let r1 = f1
        .chain
        .auction_lock(f1.auction, f1.buyer, id1, 1_000, Fr::ONE)
        .unwrap();
    let r2 = f2
        .chain
        .auction_lock(f2.auction, f2.buyer, id2, 1_000, Fr::ONE)
        .unwrap();
    assert_eq!(r1.gas_used, r2.gas_used);
}

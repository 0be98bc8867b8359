//! The Byzantine actor harness: hostile bytes against the trust-boundary
//! decoders, and hostile counterparties against the marketplace protocol.
//!
//! Two layers, mirroring the paper's §V adversary model:
//!
//! 1. **Wire level** — a mutation engine corrupts a valid serialized proof
//!    in every way we can enumerate (per-byte bit-flips across the whole
//!    buffer, point swaps, non-canonical scalars, identity and off-curve
//!    points, truncation/extension). The decoders and `Plonk::verify` must
//!    *never* panic and *never* accept.
//! 2. **Protocol level** — Byzantine sellers and buyers play the §IV-F
//!    exchange: announcing `k_c ≠ k + k_v`, replaying proofs across
//!    listings, double-settling, griefing until the timeout, and shipping
//!    malformed calldata. Every run must end in a clean terminal state
//!    (settled correctly, refunded, or aborted) — never a wedged escrow.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::{rngs::StdRng, SeedableRng};
use zkdet_chain::contracts::{ListingState, VerifierContract, REFUND_TIMEOUT_BLOCKS};
use zkdet_chain::{ChainError, GasMeter};
use zkdet_circuits::exchange::{KeyNegotiationCircuit, RangePredicate};
use zkdet_core::{Dataset, ExchangeOutcome, Marketplace, Recovery, ZkdetError};
use zkdet_crypto::commitment::Commitment;
use zkdet_field::{Field, Fr};
use zkdet_plonk::{CircuitBuilder, Plonk, Proof};
use zkdet_tests::invariants::{
    assert_no_wedged_escrow, assert_paid_exactly_once, assert_terminal_consistent,
};
use zkdet_tests::mutate::{single_byte_mutations, structured_proof_mutations, Mutation};
use zkdet_tests::rng;

// ---------------------------------------------------------------------- //
//  Wire level: the mutation harness                                      //
// ---------------------------------------------------------------------- //

/// A valid (vk, public inputs, serialized proof) triple for the toy
/// relation x³ + x + 5 = y.
fn valid_proof_bytes(
    seed: u64,
) -> (zkdet_plonk::VerifyingKey, Vec<Fr>, Vec<u8>) {
    let mut r = StdRng::seed_from_u64(seed);
    let srs = zkdet_kzg::Srs::universal_setup(64, &mut r);
    let mut b = CircuitBuilder::new();
    let x = b.alloc(Fr::from(3u64));
    let x2 = b.mul(x, x);
    let x3 = b.mul(x2, x);
    let t = b.add(x3, x);
    let t = b.add_const(t, Fr::from(5u64));
    let y = b.public_input(Fr::from(35u64));
    b.assert_equal(t, y);
    let circuit = b.build();
    let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
    let proof = Plonk::prove(&pk, &circuit, &mut r).unwrap();
    assert!(Plonk::verify(&vk, &[Fr::from(35u64)], &proof));
    (vk, vec![Fr::from(35u64)], proof.to_bytes().to_vec())
}

/// Decode-then-verify, wrapped so a panic anywhere in the pipeline is
/// reported as such instead of killing the test harness.
fn decode_and_verify(
    vk: &zkdet_plonk::VerifyingKey,
    publics: &[Fr],
    bytes: &[u8],
) -> Result<bool, String> {
    catch_unwind(AssertUnwindSafe(|| match Proof::from_bytes(bytes) {
        Ok(p) => Plonk::verify(vk, publics, &p),
        Err(_) => false,
    }))
    .map_err(|_| "panicked".to_string())
}

#[test]
fn thousand_single_byte_mutations_never_panic_never_accept() {
    let (vk, publics, bytes) = valid_proof_bytes(7001);
    assert_eq!(bytes.len(), Proof::SIZE_BYTES);
    // ≥ 1000 seeded mutations; the first SIZE_BYTES sweep every offset.
    let mutations = single_byte_mutations(bytes.len(), 1050, 0xB17E_F11);
    assert!(mutations.len() >= 1000);
    let mut decoded_ok = 0u32;
    for m in &mutations {
        let hostile = m.apply(&bytes);
        assert_ne!(hostile, bytes, "{m:?} must actually change the proof");
        match decode_and_verify(&vk, &publics, &hostile) {
            Ok(accepted) => {
                assert!(!accepted, "mutated proof accepted under {m:?}");
                if Proof::from_bytes(&hostile).is_ok() {
                    decoded_ok += 1;
                }
            }
            Err(_) => panic!("verification pipeline panicked under {m:?}"),
        }
    }
    // Sanity: the harness exercised *both* rejection layers — some mutants
    // die in the decoder, some survive to be rejected by verification.
    assert!(decoded_ok > 0, "no mutant reached the verifier");
    assert!(
        (decoded_ok as usize) < mutations.len(),
        "no mutant was stopped by the decoder"
    );
}

#[test]
fn structured_mutations_never_panic_never_accept() {
    let (vk, publics, bytes) = valid_proof_bytes(7002);
    let muts = structured_proof_mutations(
        zkdet_curve::G1_UNCOMPRESSED_BYTES,
        9,
        32,
        6,
    );
    for m in &muts {
        let hostile = m.apply(&bytes);
        match decode_and_verify(&vk, &publics, &hostile) {
            Ok(accepted) => assert!(!accepted, "hostile proof accepted under {m:?}"),
            Err(_) => panic!("verification pipeline panicked under {m:?}"),
        }
    }
    // The identity-point and swap mutants decode fine (valid wire format);
    // framing and non-canonical mutants must die in the decoder.
    let identity_mutant = Mutation::Overwrite {
        offset: 0,
        bytes: vec![0u8; zkdet_curve::G1_UNCOMPRESSED_BYTES],
    }
    .apply(&bytes);
    assert!(Proof::from_bytes(&identity_mutant).is_ok());
    let truncated = Mutation::Truncate { len: 100 }.apply(&bytes);
    assert!(matches!(
        Proof::from_bytes(&truncated),
        Err(zkdet_curve::WireError::BadLength { .. })
    ));
}

// ---------------------------------------------------------------------- //
//  Protocol level: Byzantine marketplace scenarios                       //
// ---------------------------------------------------------------------- //

fn market(r: &mut StdRng) -> Marketplace {
    Marketplace::bootstrap(1 << 14, 8, r).unwrap()
}

fn data(vals: &[u64]) -> Dataset {
    Dataset::from_entries(vals.iter().map(|v| Fr::from(*v)).collect())
}

/// Sets up a locked exchange: seller lists `token_data`, buyer validates
/// and locks. Returns everything each side holds at that point.
struct LockedExchange {
    m: Marketplace,
    seller: zkdet_core::DataOwner,
    buyer: zkdet_core::DataOwner,
    listing: zkdet_core::SellerListing,
    session: zkdet_core::BuyerSession,
}

fn locked_exchange(seed: u64, token_data: &[u64]) -> LockedExchange {
    let mut r = rng(seed);
    let mut m = market(&mut r);
    let mut seller = m.register();
    let buyer = m.register();
    let token = m
        .publish_original(&mut seller, data(token_data), &mut r)
        .unwrap();
    let listing = m
        .list_for_sale(&seller, token, 400, 100, 10, "u16".into(), &mut r)
        .unwrap();
    let pkg = m
        .seller_validation_package(&seller, token, RangePredicate { bits: 16 }, &mut r)
        .unwrap();
    let session = m
        .buyer_validate_and_lock(&buyer, listing.listing, &pkg, &mut r)
        .unwrap();
    LockedExchange {
        m,
        seller,
        buyer,
        listing,
        session,
    }
}

/// Proves the honest π_k for a locked listing (what a *malicious* seller
/// would also have to start from — the relation is the only thing the
/// arbiter accepts proofs about).
fn honest_keyneg_proof(
    ex: &LockedExchange,
    r: &mut StdRng,
) -> (Fr, Proof) {
    let secret = ex.seller.secret(ex.listing.token).unwrap();
    let k_v = ex.session.k_v_message();
    let on_chain = ex
        .m
        .chain
        .auction(&ex.m.auction_addr)
        .unwrap()
        .listing(ex.listing.listing)
        .unwrap()
        .clone();
    let circuit = KeyNegotiationCircuit.synthesize(
        secret.key,
        k_v,
        &Commitment(on_chain.key_commitment),
        &ex.listing.key_opening,
    );
    let (pk, _) = Plonk::preprocess(&ex.m.srs, &circuit).unwrap();
    let proof = Plonk::prove(&pk, &circuit, r).unwrap();
    (secret.key + k_v, proof)
}

fn listing_state(m: &Marketplace, id: zkdet_chain::contracts::ListingId) -> ListingState {
    m.chain
        .auction(&m.auction_addr)
        .unwrap()
        .listing(id)
        .unwrap()
        .state
        .clone()
}

/// Scenario 1 — the seller announces `k_c ≠ k + k_v`.
///
/// The π_k relation binds `k_c` to the committed key and the locked `h_v`,
/// so a shifted announcement is a proof about a different statement: the
/// arbiter must reject it, move no funds, and leave the refund path open.
#[test]
fn byzantine_seller_wrong_kc_is_rejected_then_refunded() {
    let mut ex = locked_exchange(8001, &[7, 12, 99]);
    let mut r = rng(8002);
    let (honest_kc, proof) = honest_keyneg_proof(&ex, &mut r);

    let seller_before = ex.m.chain.state.balance(&ex.seller.address);
    let err = ex
        .m
        .chain
        .auction_settle_key_secure(
            ex.m.auction_addr,
            ex.m.nft_addr,
            ex.m.keyneg_verifier_addr,
            ex.seller.address,
            ex.listing.listing,
            honest_kc + Fr::ONE, // the lie
            &proof,
        )
        .unwrap_err();
    assert!(matches!(err, ChainError::ProofRejected));
    assert_eq!(
        ex.m.chain.state.balance(&ex.seller.address),
        seller_before,
        "rejected settlement must not pay the seller"
    );
    assert!(matches!(
        listing_state(&ex.m, ex.listing.listing),
        ListingState::Locked { .. }
    ));
    // No k_c was published, so the blinded key never leaked.
    assert!(ex.m.published_k_c(ex.listing.listing).is_none());

    // The buyer's driver walks the exchange to the refund.
    let buyer_locked = ex.m.chain.state.balance(&ex.buyer.address);
    let mut buyer = ex.buyer;
    let report = ex
        .m
        .drive_exchange_to_completion(&mut buyer, &ex.session)
        .unwrap();
    assert_eq!(report.outcome, ExchangeOutcome::Refunded);
    assert_eq!(
        ex.m.chain.state.balance(&buyer.address),
        buyer_locked + ex.session.price,
        "escrow must come back in full"
    );
    assert!(matches!(
        listing_state(&ex.m, ex.listing.listing),
        ListingState::Open
    ));
    assert_terminal_consistent(&report);
    assert_no_wedged_escrow(&ex.m);
    assert_paid_exactly_once(&ex.m, ex.seller.address, buyer.address, &report.outcome);
}

/// Scenario 2 — a proof accepted for one listing is replayed on another.
///
/// Fresh listings carry a fresh key commitment and a fresh `h_v`, both of
/// which are public inputs of π_k — the replayed proof is about the wrong
/// statement and must be rejected; the second buyer exits via refund.
#[test]
fn byzantine_proof_replay_across_listings_rejected() {
    let mut r = rng(8101);
    let mut m = market(&mut r);
    let mut seller = m.register();
    let mut buyer1 = m.register();
    let buyer2 = m.register();

    // Exchange 1 settles honestly; keep its (k_c, proof) for the replay.
    let t1 = m.publish_original(&mut seller, data(&[1, 2]), &mut r).unwrap();
    let l1 = m
        .list_for_sale(&seller, t1, 300, 100, 10, "u16".into(), &mut r)
        .unwrap();
    let pkg1 = m
        .seller_validation_package(&seller, t1, RangePredicate { bits: 16 }, &mut r)
        .unwrap();
    let s1 = m
        .buyer_validate_and_lock(&buyer1, l1.listing, &pkg1, &mut r)
        .unwrap();
    let secret_k = seller.secret(t1).unwrap().key;
    let on_chain1 = m
        .chain
        .auction(&m.auction_addr)
        .unwrap()
        .listing(l1.listing)
        .unwrap()
        .clone();
    let circ = KeyNegotiationCircuit.synthesize(
        secret_k,
        s1.k_v_message(),
        &Commitment(on_chain1.key_commitment),
        &l1.key_opening,
    );
    let (pk, _) = Plonk::preprocess(&m.srs, &circ).unwrap();
    let replayable = Plonk::prove(&pk, &circ, &mut r).unwrap();
    let kc1 = secret_k + s1.k_v_message();
    m.chain
        .auction_settle_key_secure(
            m.auction_addr,
            m.nft_addr,
            m.keyneg_verifier_addr,
            seller.address,
            l1.listing,
            kc1,
            &replayable,
        )
        .unwrap();
    m.chain.mine_block();
    assert_eq!(m.buyer_recover(&mut buyer1, &s1).unwrap(), data(&[1, 2]));

    // Exchange 2: second token, second buyer. Replay (kc1, proof) on it.
    let t2 = m.publish_original(&mut seller, data(&[3, 4]), &mut r).unwrap();
    let l2 = m
        .list_for_sale(&seller, t2, 300, 100, 10, "u16".into(), &mut r)
        .unwrap();
    let pkg2 = m
        .seller_validation_package(&seller, t2, RangePredicate { bits: 16 }, &mut r)
        .unwrap();
    let s2 = m
        .buyer_validate_and_lock(&buyer2, l2.listing, &pkg2, &mut r)
        .unwrap();
    let err = m
        .chain
        .auction_settle_key_secure(
            m.auction_addr,
            m.nft_addr,
            m.keyneg_verifier_addr,
            seller.address,
            l2.listing,
            kc1,
            &replayable,
        )
        .unwrap_err();
    assert!(matches!(err, ChainError::ProofRejected));
    assert!(m.published_k_c(l2.listing).is_none());

    // Buyer 2 is made whole through the driver.
    let buyer2_locked = m.chain.state.balance(&buyer2.address);
    let mut buyer2 = buyer2;
    let report = m.drive_exchange_to_completion(&mut buyer2, &s2).unwrap();
    assert_eq!(report.outcome, ExchangeOutcome::Refunded);
    assert_eq!(
        m.chain.state.balance(&buyer2.address),
        buyer2_locked + s2.price
    );
    assert_terminal_consistent(&report);
    assert_no_wedged_escrow(&m);
}

/// Scenario 3 — the seller settles twice.
///
/// The settlement journal makes the second submission an explicit
/// [`ChainError::AlreadySettled`]; funds move exactly once and the
/// high-level [`Marketplace::seller_settle`] treats the replay as an
/// idempotent success.
#[test]
fn byzantine_double_settle_moves_funds_once() {
    let mut ex = locked_exchange(8201, &[42]);
    let mut r = rng(8202);
    let seller_before = ex.m.chain.state.balance(&ex.seller.address);

    let kv = ex.session.k_v_message();
    ex.m.seller_settle(&ex.seller, &ex.listing, kv, &mut r).unwrap();
    let seller_paid = ex.m.chain.state.balance(&ex.seller.address);
    assert_eq!(seller_paid, seller_before + ex.session.price);

    // Raw resubmission: explicit, typed rejection.
    let (kc, proof) = honest_keyneg_proof(&ex, &mut r);
    let err = ex
        .m
        .chain
        .auction_settle_key_secure(
            ex.m.auction_addr,
            ex.m.nft_addr,
            ex.m.keyneg_verifier_addr,
            ex.seller.address,
            ex.listing.listing,
            kc,
            &proof,
        )
        .unwrap_err();
    assert!(matches!(err, ChainError::AlreadySettled { .. }));

    // High-level resubmission: idempotent no-op.
    ex.m.seller_settle(&ex.seller, &ex.listing, kv, &mut r).unwrap();
    assert_eq!(
        ex.m.chain.state.balance(&ex.seller.address),
        seller_paid,
        "double settle must not pay twice"
    );
    assert!(matches!(
        listing_state(&ex.m, ex.listing.listing),
        ListingState::Settled { .. }
    ));

    // The buyer still recovers normally.
    let mut buyer = ex.buyer;
    assert_eq!(
        ex.m.buyer_recover(&mut buyer, &ex.session).unwrap(),
        data(&[42])
    );
    assert_no_wedged_escrow(&ex.m);
    assert_paid_exactly_once(
        &ex.m,
        ex.seller.address,
        buyer.address,
        &ExchangeOutcome::Settled,
    );
}

/// Scenario 4 — the seller griefs: locks the buyer's payment and walks
/// away. After `REFUND_TIMEOUT_BLOCKS` the driver reclaims the escrow.
#[test]
fn byzantine_seller_griefs_until_timeout_buyer_refunded() {
    let mut ex = locked_exchange(8301, &[5, 6]);
    let buyer_locked = ex.m.chain.state.balance(&ex.buyer.address);

    let mut buyer = ex.buyer;
    let report = ex
        .m
        .drive_exchange_to_completion(&mut buyer, &ex.session)
        .unwrap();
    assert_eq!(report.outcome, ExchangeOutcome::Refunded);
    assert!(
        report.blocks_waited >= REFUND_TIMEOUT_BLOCKS,
        "refund must wait out the full timeout"
    );
    assert_eq!(
        ex.m.chain.state.balance(&buyer.address),
        buyer_locked + ex.session.price
    );
    // Listing re-opens: nothing is wedged, the token is still sellable.
    assert!(matches!(
        listing_state(&ex.m, ex.listing.listing),
        ListingState::Open
    ));
    assert_terminal_consistent(&report);
    assert_no_wedged_escrow(&ex.m);
    assert_paid_exactly_once(&ex.m, ex.seller.address, buyer.address, &report.outcome);
}

/// Scenario 5 — the seller ships malformed calldata.
///
/// The encoded settle entry point classifies garbage bytes as
/// [`ChainError::MalformedCalldata`] (→ [`Recovery::AbortAndRefund`],
/// never a retry), charges the same gas as a well-formed-but-rejected
/// proof, leaves the listing untouched, and the buyer exits via refund.
#[test]
fn byzantine_malformed_calldata_rejected_deterministic_gas() {
    let mut ex = locked_exchange(8401, &[9]);
    let mut r = rng(8402);

    // Garbage of the right length, and of the wrong length.
    let mut garbage = vec![0u8; Proof::SIZE_BYTES];
    for (i, b) in garbage.iter_mut().enumerate() {
        *b = (i * 31 + 7) as u8;
    }
    for hostile in [&garbage[..], &garbage[..100], &[][..]] {
        let err = ex
            .m
            .chain
            .auction_settle_key_secure_encoded(
                ex.m.auction_addr,
                ex.m.nft_addr,
                ex.m.keyneg_verifier_addr,
                ex.seller.address,
                ex.listing.listing,
                Fr::from(1u64),
                hostile,
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::MalformedCalldata(_)));
        // Malformed input is adversarial: abort-and-refund, never retry.
        assert_eq!(
            ZkdetError::from(err).recovery(),
            Recovery::AbortAndRefund
        );
        assert!(matches!(
            listing_state(&ex.m, ex.listing.listing),
            ListingState::Locked { .. }
        ));
    }

    // Gas determinism: a malformed proof costs exactly what a
    // well-formed-but-rejected one does, so rejection cannot be probed
    // for a cheaper path.
    let (kc, proof) = honest_keyneg_proof(&ex, &mut r);
    let verifier = VerifierContract::new(ex.m.keyneg_vk().clone());
    let publics = [kc + Fr::ONE, Fr::from(2u64), Fr::from(3u64)];
    let mut meter_bad = GasMeter::for_tx(Proof::SIZE_BYTES + 32);
    let res = verifier.verify_encoded(&mut meter_bad, &publics, &garbage);
    assert!(res.is_err());
    let mut meter_rejected = GasMeter::for_tx(Proof::SIZE_BYTES + 32);
    let accepted = verifier
        .verify_encoded(&mut meter_rejected, &publics, &proof.to_bytes())
        .unwrap();
    assert!(!accepted);
    assert_eq!(
        meter_bad.used(),
        meter_rejected.used(),
        "malformed and rejected proofs must cost identical gas"
    );

    // The buyer walks away whole.
    let buyer_locked = ex.m.chain.state.balance(&ex.buyer.address);
    let mut buyer = ex.buyer;
    let report = ex
        .m
        .drive_exchange_to_completion(&mut buyer, &ex.session)
        .unwrap();
    assert_eq!(report.outcome, ExchangeOutcome::Refunded);
    assert_eq!(
        ex.m.chain.state.balance(&buyer.address),
        buyer_locked + ex.session.price
    );
    assert_terminal_consistent(&report);
    assert_no_wedged_escrow(&ex.m);
    assert_paid_exactly_once(&ex.m, ex.seller.address, buyer.address, &report.outcome);
}

/// Scenario 6 — Byzantine **storage nodes** forge erasure shares.
///
/// Two of the eight share holders rewrite every share they serve. The
/// manifest digests must attribute each forged share to the exact node
/// and slot, the read must be carried by the six honest shares, and the
/// exchange must settle with the true plaintext and a single payment.
#[test]
fn byzantine_storage_nodes_cannot_forge_or_starve_the_exchange() {
    let mut r = rng(7006);
    let ex = locked_exchange(7006, &[21, 42, 63]);
    let mut m = ex.m;
    let cid = m
        .chain
        .nft(&m.nft_addr)
        .unwrap()
        .token_meta(ex.session.token)
        .unwrap()
        .cid;
    let mut holders = m.storage.replica_nodes(&cid);
    holders.sort_by_key(|n| zkdet_storage::xor_distance(n, &cid));
    assert_eq!(holders.len(), 8, "quorum publish spreads one share per node");
    m.storage.set_fault_plan(
        zkdet_storage::FaultPlan::seeded(7006)
            .with_byzantine_node(holders[0])
            .with_byzantine_node(holders[1]),
    );
    m.seller_settle(&ex.seller, &ex.listing, ex.session.k_v_message(), &mut r)
        .unwrap();
    let mut buyer = ex.buyer;
    let report = m
        .drive_exchange_to_completion(&mut buyer, &ex.session)
        .unwrap();
    assert_eq!(report.outcome, ExchangeOutcome::Settled);
    assert_eq!(report.data.as_ref().unwrap(), &data(&[21, 42, 63]));
    // Attribution: every piece of evidence names one of the two forgers
    // and a valid share slot of the exchanged content.
    let evidence = m.storage.tamper_evidence();
    assert!(!evidence.is_empty(), "forged shares must leave evidence");
    for e in &evidence {
        assert!(e.node == holders[0] || e.node == holders[1]);
        assert!(e.share_index < 8);
    }
    for villain in &holders[..2] {
        assert!(m.storage.quarantined_nodes().contains(villain));
    }
    // Health scoring: both forgers rank strictly above every honest node,
    // and the census is suspicion-sorted so they lead it.
    let census = m.storage.node_health();
    let score_of = |node: &zkdet_storage::NodeId| {
        census
            .iter()
            .find(|s| s.node == *node)
            .map(|s| s.suspicion)
            .unwrap_or(0)
    };
    let honest_max = census
        .iter()
        .filter(|s| s.node != holders[0] && s.node != holders[1])
        .map(|s| s.suspicion)
        .max()
        .unwrap_or(0);
    for villain in &holders[..2] {
        let score = score_of(villain);
        assert!(
            score > honest_max,
            "forger suspicion {score} must exceed honest max {honest_max}"
        );
        assert!(score >= 600, "quarantined forgers score at least 600");
    }
    assert!(
        census[0].node == holders[0] || census[0].node == holders[1],
        "census leads with a forger"
    );
    // Single payment, clean terminal state, durable acked publishes.
    assert_terminal_consistent(&report);
    assert_no_wedged_escrow(&m);
    assert_paid_exactly_once(&m, ex.seller.address, buyer.address, &report.outcome);
    zkdet_tests::invariants::assert_acked_publishes_durable(&m);
}

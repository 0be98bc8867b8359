//! The §V security analysis, executed: each property of Theorems 5.1 and
//! 5.2 gets an adversarial scenario.

use rand::rngs::StdRng;
use zkdet_circuits::exchange::RangePredicate;
use zkdet_core::{Dataset, Marketplace, TransformProof, ZkdetError};
use zkdet_crypto::poseidon::Poseidon;
use zkdet_field::{Field, Fr};
use zkdet_tests::rng;

fn market(r: &mut StdRng) -> Marketplace {
    Marketplace::bootstrap(1 << 14, 8, r).unwrap()
}

fn data(vals: &[u64]) -> Dataset {
    Dataset::from_entries(vals.iter().map(|v| Fr::from(*v)).collect())
}

// ---------------------------------------------------------------- §V-A ---

#[test]
fn integrity_false_transformation_claim_rejected() {
    // Theorem 5.1 (integrity): P* uploads a dataset and claims it derives
    // from another dataset it never transformed. The audit must reject:
    // we splice token A's duplication bundle onto a claim about token B.
    let mut r = rng(1000);
    let mut m = market(&mut r);
    let mut alice = m.register();
    let t_a = m.publish_original(&mut alice, data(&[1, 2]), &mut r).unwrap();
    let t_b = m.publish_original(&mut alice, data(&[3, 4]), &mut r).unwrap();
    let dup_of_a = m.duplicate(&mut alice, t_a, &mut r).unwrap();

    // Forge: mint a token claiming duplication of B, but reuse the proof
    // bundle of dup_of_a (which proves duplication of A).
    let (_, bundle) = m.fetch_artefacts(dup_of_a).unwrap();
    let (ct_b, bundle_b) = m.fetch_artefacts(t_b).unwrap();
    let forged_bundle = zkdet_core::ProofBundle {
        pi_e: bundle_b.pi_e.clone(), // B's own encryption proof (valid)
        len: 2,
        pi_t: bundle.pi_t.clone(), // A's duplication proof (about other commitments)
    };
    let meta_b = m.chain.nft(&m.nft_addr).unwrap().token_meta(t_b).unwrap().clone();
    let forged_cid = m
        .storage
        .publish(alice.pin, forged_bundle.to_bytes())
        .expect("publish");
    let ct_cid = m
        .storage
        .publish(alice.pin, {
            // republish B's ciphertext for the forged token
            zkdet_core::codec::encode_ciphertext(&ct_b)
        })
        .expect("publish");
    let (forged_token, _) = m
        .chain
        .nft_mint(
            m.nft_addr,
            alice.address,
            zkdet_chain::TokenMeta {
                cid: ct_cid,
                commitment: meta_b.commitment,
                prev_ids: vec![t_b],
                kind: zkdet_chain::TransformKind::Duplication,
                proof_cid: Some(forged_cid),
            },
        )
        .unwrap();
    match m.audit_token(forged_token, &mut r) {
        Err(ZkdetError::LineageProofInvalid { token, what }) => {
            assert_eq!(token, forged_token);
            assert!(what.contains("π_t"));
        }
        other => panic!("forged transformation must be rejected, got {other:?}"),
    }
}

#[test]
fn integrity_wrong_ciphertext_for_commitment_rejected() {
    // P* publishes ciphertext Ĉ' that does not encrypt the committed data.
    let mut r = rng(1001);
    let mut m = market(&mut r);
    let mut alice = m.register();
    let token = m.publish_original(&mut alice, data(&[9, 8]), &mut r).unwrap();
    let (mut ct, bundle) = m.fetch_artefacts(token).unwrap();
    ct.blocks[0] += Fr::ONE;
    let bad_ct_cid = m
        .storage
        .publish(alice.pin, zkdet_core::codec::encode_ciphertext(&ct))
        .expect("publish");
    let meta = m.chain.nft(&m.nft_addr).unwrap().token_meta(token).unwrap().clone();
    let bundle_cid = m.storage.publish(alice.pin, bundle.to_bytes()).expect("publish");
    let (forged, _) = m
        .chain
        .nft_mint(
            m.nft_addr,
            alice.address,
            zkdet_chain::TokenMeta {
                cid: bad_ct_cid,
                commitment: meta.commitment,
                prev_ids: vec![],
                kind: zkdet_chain::TransformKind::Original,
                proof_cid: Some(bundle_cid),
            },
        )
        .unwrap();
    match m.audit_token(forged, &mut r) {
        Err(ZkdetError::LineageProofInvalid { token, what: "π_e" }) => assert_eq!(token, forged),
        other => panic!("expected π_e rejection, got {other:?}"),
    }
}

#[test]
fn privacy_public_artefacts_do_not_contain_plaintext() {
    // Theorem 5.1 (privacy), mechanically: nothing a verifier downloads
    // contains the plaintext entries.
    let mut r = rng(1002);
    let mut m = market(&mut r);
    let mut alice = m.register();
    let secret_entries = [0xdead_beefu64, 0xcafe_f00d];
    let token = m
        .publish_original(&mut alice, data(&secret_entries), &mut r)
        .unwrap();
    let (ct, bundle) = m.fetch_artefacts(token).unwrap();
    let public_bytes = {
        let mut all = zkdet_core::codec::encode_ciphertext(&ct);
        all.extend(bundle.to_bytes());
        let meta = m.chain.nft(&m.nft_addr).unwrap().token_meta(token).unwrap().clone();
        use zkdet_field::PrimeField;
        all.extend_from_slice(&meta.commitment.to_bytes());
        all
    };
    for e in secret_entries {
        use zkdet_field::PrimeField;
        let needle = Fr::from(e).to_bytes();
        let found = public_bytes
            .windows(needle.len())
            .any(|w| w == needle);
        assert!(!found, "plaintext entry {e:#x} leaked into public artefacts");
    }
}

// ---------------------------------------------------------------- §V-B ---

#[test]
fn buyer_fairness_paid_seller_implies_recoverable_key() {
    // Theorem 5.2 (buyer fairness): if the seller's balance increased, the
    // buyer must be able to learn D.
    let mut r = rng(1003);
    let mut m = market(&mut r);
    let mut seller = m.register();
    let mut buyer = m.register();
    let d = data(&[11, 22, 33]);
    let token = m.publish_original(&mut seller, d.clone(), &mut r).unwrap();
    let listing = m
        .list_for_sale(&seller, token, 500, 100, 10, "u16".into(), &mut r)
        .unwrap();
    let pkg = m
        .seller_validation_package(&seller, token, RangePredicate { bits: 16 }, &mut r)
        .unwrap();
    let session = m
        .buyer_validate_and_lock(&buyer, listing.listing, &pkg, &mut r)
        .unwrap();
    let before = m.chain.state.balance(&seller.address);
    m.seller_settle(&seller, &listing, session.k_v_message(), &mut r)
        .unwrap();
    let after = m.chain.state.balance(&seller.address);
    assert!(after > before, "seller got paid");
    // ⇒ the buyer recovers D.
    assert_eq!(m.buyer_recover(&mut buyer, &session).unwrap(), d);
}

#[test]
fn seller_fairness_wrong_kv_aborts_before_key_release() {
    // Theorem 5.2 (seller fairness): a buyer who locks h_v but sends a
    // different k_v' learns nothing and the seller aborts unharmed.
    let mut r = rng(1004);
    let mut m = market(&mut r);
    let mut seller = m.register();
    let buyer = m.register();
    let d = data(&[5]);
    let token = m.publish_original(&mut seller, d, &mut r).unwrap();
    let listing = m
        .list_for_sale(&seller, token, 100, 50, 1, "u8".into(), &mut r)
        .unwrap();
    let pkg = m
        .seller_validation_package(&seller, token, RangePredicate { bits: 8 }, &mut r)
        .unwrap();
    let session = m
        .buyer_validate_and_lock(&buyer, listing.listing, &pkg, &mut r)
        .unwrap();
    // Malicious buyer sends k_v' ≠ k_v.
    let wrong_kv = session.k_v_message() + Fr::ONE;
    match m.seller_settle(&seller, &listing, wrong_kv, &mut r) {
        Err(ZkdetError::Protocol(msg)) => assert!(msg.contains("k_v")),
        other => panic!("seller must abort on mismatched k_v, got {other:?}"),
    }
    // Nothing was published; the buyer cannot unblind anything.
    assert!(m.published_k_c(listing.listing).is_none());
}

#[test]
fn commitment_binding_prevents_key_substitution() {
    // A seller cannot open the arbiter's key commitment to a second key:
    // binding of Γ (checked mechanically over many candidates).
    let mut r = rng(1005);
    let k = Fr::random(&mut r);
    let (c, o) = zkdet_crypto::CommitmentScheme::commit_scalar(k, &mut r);
    assert!(zkdet_crypto::CommitmentScheme::open(&[k], &c, &o));
    for i in 0..200u64 {
        let k2 = k + Fr::from(i + 1);
        assert!(
            !zkdet_crypto::CommitmentScheme::open(&[k2], &c, &o),
            "binding violated at offset {}",
            i + 1
        );
    }
}

#[test]
fn blinded_key_reveals_nothing_without_kv() {
    // k_c = k + k_v is a one-time pad: for any observed k_c, every key k'
    // is consistent with *some* k_v' — verify the algebra and that the
    // hash h_v pins k_v only through preimage resistance.
    let mut r = rng(1006);
    let k = Fr::random(&mut r);
    let k_v = Fr::random(&mut r);
    let k_c = k + k_v;
    // Any candidate key is explained by k_v' = k_c − k'.
    for _ in 0..20 {
        let candidate_k = Fr::random(&mut r);
        let implied_kv = k_c - candidate_k;
        assert_eq!(candidate_k + implied_kv, k_c);
    }
    // Only the true k_v matches h_v.
    let h_v = Poseidon::hash(&[k_v]);
    assert_ne!(Poseidon::hash(&[k_v + Fr::ONE]), h_v);
}

#[test]
fn audit_detects_kind_bundle_mismatch() {
    // On-chain kind says Aggregation; bundle carries a Duplication proof.
    let mut r = rng(1007);
    let mut m = market(&mut r);
    let mut alice = m.register();
    let t1 = m.publish_original(&mut alice, data(&[1]), &mut r).unwrap();
    let t2 = m.publish_original(&mut alice, data(&[2]), &mut r).unwrap();
    let dup = m.duplicate(&mut alice, t1, &mut r).unwrap();
    let (ct, bundle) = m.fetch_artefacts(dup).unwrap();
    assert!(matches!(bundle.pi_t, Some(TransformProof::Duplication { .. })));
    // Mint a token claiming Aggregation with the duplication bundle.
    let cid = m
        .storage
        .publish(alice.pin, zkdet_core::codec::encode_ciphertext(&ct))
        .expect("publish");
    let bundle_cid = m.storage.publish(alice.pin, bundle.to_bytes()).expect("publish");
    let meta = m.chain.nft(&m.nft_addr).unwrap().token_meta(dup).unwrap().clone();
    let (forged, _) = m
        .chain
        .nft_mint(
            m.nft_addr,
            alice.address,
            zkdet_chain::TokenMeta {
                cid,
                commitment: meta.commitment,
                prev_ids: vec![t1, t2],
                kind: zkdet_chain::TransformKind::Aggregation,
                proof_cid: Some(bundle_cid),
            },
        )
        .unwrap();
    match m.audit_token(forged, &mut r) {
        Err(ZkdetError::Inconsistent(msg)) => {
            assert!(msg.contains("does not match"), "{msg}")
        }
        other => panic!("kind/bundle mismatch must be caught, got {other:?}"),
    }
}

/// Mints a token of `kind` over `source`'s ciphertext, commitment and π_e
/// whose bundle carries `pi_t` instead — anyone can store such a bundle.
fn mint_forged_bundle(
    m: &mut Marketplace,
    owner: &zkdet_core::DataOwner,
    source: zkdet_chain::TokenId,
    kind: zkdet_chain::TransformKind,
    prev_ids: Vec<zkdet_chain::TokenId>,
    pi_t: impl FnOnce(&zkdet_core::ProofBundle, Fr) -> TransformProof,
) -> zkdet_chain::TokenId {
    let (ct, bundle) = m.fetch_artefacts(source).unwrap();
    let commitment = m.chain.nft(&m.nft_addr).unwrap().token_meta(source).unwrap().commitment;
    let forged = zkdet_core::ProofBundle {
        pi_t: Some(pi_t(&bundle, commitment)),
        ..bundle
    };
    let cid = m
        .storage
        .publish(owner.pin, zkdet_core::codec::encode_ciphertext(&ct))
        .expect("publish");
    let proof_cid = m.storage.publish(owner.pin, forged.to_bytes()).expect("publish");
    let meta = zkdet_chain::TokenMeta {
        cid,
        commitment,
        prev_ids,
        kind,
        proof_cid: Some(proof_cid),
    };
    m.chain.nft_mint(m.nft_addr, owner.address, meta).unwrap().0
}

/// The audit of `token` fails with a typed inconsistency naming it.
fn assert_shape_rejected(m: &mut Marketplace, token: zkdet_chain::TokenId, r: &mut StdRng) {
    match m.audit_token(token, r) {
        Err(ZkdetError::Inconsistent(msg)) => {
            assert!(msg.contains(&format!("token {token}")), "{msg}");
            assert!(msg.contains("shape"), "{msg}");
        }
        other => panic!("a hostile bundle shape must be caught, got {other:?}"),
    }
}

#[test]
fn audit_rejects_aggregation_bundle_without_sources() {
    let mut r = rng(1008);
    let mut m = market(&mut r);
    let mut alice = m.register();
    let t1 = m.publish_original(&mut alice, data(&[1]), &mut r).unwrap();
    let t2 = m.publish_original(&mut alice, data(&[2]), &mut r).unwrap();
    let forged = mint_forged_bundle(
        &mut m,
        &alice,
        t1,
        zkdet_chain::TransformKind::Aggregation,
        vec![t1, t2],
        |bundle, _| TransformProof::Aggregation {
            source_lens: vec![],
            proof: bundle.pi_e.clone(),
        },
    );
    assert_shape_rejected(&mut m, forged, &mut r);
}

#[test]
fn audit_rejects_partition_bundle_with_an_empty_part() {
    let mut r = rng(1009);
    let mut m = market(&mut r);
    let mut alice = m.register();
    let t1 = m.publish_original(&mut alice, data(&[1]), &mut r).unwrap();
    let forged = mint_forged_bundle(
        &mut m,
        &alice,
        t1,
        zkdet_chain::TransformKind::Partition,
        vec![t1],
        |bundle, commitment| TransformProof::Partition {
            part_lens: vec![0, 1],
            part_index: 1,
            part_commitments: vec![commitment, commitment],
            proof: bundle.pi_e.clone(),
        },
    );
    assert_shape_rejected(&mut m, forged, &mut r);
}

#[test]
fn audit_rejects_duplication_bundle_longer_than_its_ciphertext() {
    let mut r = rng(1010);
    let mut m = market(&mut r);
    let mut alice = m.register();
    let t1 = m.publish_original(&mut alice, data(&[1]), &mut r).unwrap();
    let forged = mint_forged_bundle(
        &mut m,
        &alice,
        t1,
        zkdet_chain::TransformKind::Duplication,
        vec![t1],
        |bundle, _| TransformProof::Duplication {
            len: 1 << 40,
            proof: bundle.pi_e.clone(),
        },
    );
    assert_shape_rejected(&mut m, forged, &mut r);
}

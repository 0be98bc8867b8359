//! Workspace-wide integration tests: every layer in one scenario.

use zkdet_circuits::exchange::{RangePredicate, SumPredicate};
use zkdet_core::{Dataset, Marketplace, ZkdetError};
use zkdet_field::{Field, Fr, PrimeField};
use zkdet_tests::rng;

#[test]
fn crypto_stack_is_consistent_end_to_end() {
    // Field → MiMC → Poseidon → commitment → circuit gadgets must all
    // agree on one witness.
    let mut r = rng(1);
    let data: Vec<Fr> = (0..4).map(|_| Fr::random(&mut r)).collect();
    let key = Fr::random(&mut r);
    let nonce = Fr::random(&mut r);
    let ct = zkdet_crypto::mimc::MimcCtr::new(key, nonce).encrypt(&data);
    let (c, o) = zkdet_crypto::CommitmentScheme::commit(&data, &mut r);

    let shape = zkdet_circuits::EncryptionCircuit::new(4);
    let circuit = shape.synthesize(&data, key, &ct, &c, &o);
    assert!(circuit.is_satisfied());

    let srs = zkdet_kzg::Srs::universal_setup(circuit.rows() + 8, &mut r);
    let (pk, vk) = zkdet_plonk::Plonk::preprocess(&srs, &circuit).unwrap();
    let proof = zkdet_plonk::Plonk::prove(&pk, &circuit, &mut r).unwrap();
    assert!(zkdet_plonk::Plonk::verify(
        &vk,
        &shape.public_inputs(&ct, &c),
        &proof
    ));
}

#[test]
fn preprocessed_keys_are_instance_independent() {
    // The universal-setup story (Fig. 5): one preprocessing per *shape*,
    // reused across instances with different data, keys and nonces.
    let mut r = rng(2);
    let srs = zkdet_kzg::Srs::universal_setup(1 << 13, &mut r);
    let shape = zkdet_circuits::EncryptionCircuit::new(3);

    let make = |r: &mut rand::rngs::StdRng| {
        let data: Vec<Fr> = (0..3).map(|_| Fr::random(r)).collect();
        let key = Fr::random(r);
        let nonce = Fr::random(r);
        let ct = zkdet_crypto::mimc::MimcCtr::new(key, nonce).encrypt(&data);
        let (c, o) = zkdet_crypto::CommitmentScheme::commit(&data, r);
        (shape.synthesize(&data, key, &ct, &c, &o), ct, c)
    };

    let (circuit_a, ct_a, c_a) = make(&mut r);
    let (circuit_b, ct_b, c_b) = make(&mut r);
    // Keys preprocessed from instance A…
    let (pk, vk) = zkdet_plonk::Plonk::preprocess(&srs, &circuit_a).unwrap();
    // …prove and verify instance B.
    let proof_b = zkdet_plonk::Plonk::prove(&pk, &circuit_b, &mut r).unwrap();
    assert!(zkdet_plonk::Plonk::verify(
        &vk,
        &shape.public_inputs(&ct_b, &c_b),
        &proof_b
    ));
    // And instance A still works, while cross-instance statements fail.
    let proof_a = zkdet_plonk::Plonk::prove(&pk, &circuit_a, &mut r).unwrap();
    assert!(zkdet_plonk::Plonk::verify(
        &vk,
        &shape.public_inputs(&ct_a, &c_a),
        &proof_a
    ));
    assert!(!zkdet_plonk::Plonk::verify(
        &vk,
        &shape.public_inputs(&ct_a, &c_a),
        &proof_b
    ));
}

#[test]
fn marketplace_resale_after_purchase() {
    // Buy a dataset through the key-secure protocol, then resell it:
    // the buyer re-publishes (fresh key + commitment) as a duplication of
    // the purchased token… which requires the opening they don't have, so
    // they publish as a *new* original instead — ownership semantics hold.
    let mut r = rng(3);
    let mut m = Marketplace::bootstrap(1 << 14, 8, &mut r).unwrap();
    let mut seller = m.register();
    let mut buyer = m.register();
    let data = Dataset::from_entries(vec![Fr::from(1u64), Fr::from(2u64)]);
    let token = m.publish_original(&mut seller, data.clone(), &mut r).unwrap();
    let listing = m
        .list_for_sale(&seller, token, 100, 50, 1, "u8".into(), &mut r)
        .unwrap();
    let pkg = m
        .seller_validation_package(&seller, token, RangePredicate { bits: 8 }, &mut r)
        .unwrap();
    let session = m
        .buyer_validate_and_lock(&buyer, listing.listing, &pkg, &mut r)
        .unwrap();
    m.seller_settle(&seller, &listing, session.k_v_message(), &mut r)
        .unwrap();
    let got = m.buyer_recover(&mut buyer, &session).unwrap();
    assert_eq!(got, data);

    // Resale as a new original.
    let resale_token = m.publish_original(&mut buyer, got, &mut r).unwrap();
    let report = m.audit_token(resale_token, &mut r).unwrap();
    assert_eq!(report.verified_tokens.len(), 1);
    // Both tokens commit to the same data under different randomness:
    let c1 = m.chain.nft(&m.nft_addr).unwrap().token_meta(token).unwrap().commitment;
    let c2 = m
        .chain
        .nft(&m.nft_addr)
        .unwrap()
        .token_meta(resale_token)
        .unwrap()
        .commitment;
    assert_ne!(c1, c2, "hiding: equal data, distinct commitments");
}

#[test]
fn sum_predicate_sale_advertises_true_statistic() {
    let mut r = rng(4);
    let mut m = Marketplace::bootstrap(1 << 14, 8, &mut r).unwrap();
    let mut seller = m.register();
    let buyer = m.register();
    let data = Dataset::from_entries(vec![Fr::from(10u64), Fr::from(20u64), Fr::from(30u64)]);
    let token = m.publish_original(&mut seller, data, &mut r).unwrap();
    let listing = m
        .list_for_sale(&seller, token, 100, 50, 1, "sums to 60".into(), &mut r)
        .unwrap();
    // Honest sum: verifies.
    let pkg = m
        .seller_validation_package(
            &seller,
            token,
            SumPredicate {
                total: Fr::from(60u64),
            },
            &mut r,
        )
        .unwrap();
    assert!(m
        .buyer_validate_and_lock(&buyer, listing.listing, &pkg, &mut r)
        .is_ok());
}

#[test]
fn storage_churn_does_not_break_audits() {
    let mut r = rng(5);
    let mut m = Marketplace::bootstrap(1 << 14, 12, &mut r).unwrap();
    let mut alice = m.register();
    let token = m
        .publish_original(
            &mut alice,
            Dataset::from_entries(vec![Fr::from(7u64)]),
            &mut r,
        )
        .unwrap();
    // Kill one replica of the ciphertext; the DHT still serves it.
    let cid = m
        .chain
        .nft(&m.nft_addr)
        .unwrap()
        .token_meta(token)
        .unwrap()
        .cid;
    let replicas = m.storage.replica_nodes(&cid);
    m.storage.kill_node(replicas[0]);
    assert!(m.audit_token(token, &mut r).is_ok());
}

#[test]
fn burned_token_cannot_be_audited_but_chain_remembers_lineage() {
    let mut r = rng(6);
    let mut m = Marketplace::bootstrap(1 << 14, 8, &mut r).unwrap();
    let mut alice = m.register();
    let t1 = m
        .publish_original(&mut alice, Dataset::from_entries(vec![Fr::ONE]), &mut r)
        .unwrap();
    let dup = m.duplicate(&mut alice, t1, &mut r).unwrap();
    // Burn the parent.
    m.chain.nft_burn(m.nft_addr, alice.address, t1).unwrap();
    // Auditing the child now fails at the parent hop (its commitment is
    // gone from chain state) — the integrity check is conservative.
    match m.audit_token(dup, &mut r) {
        Err(ZkdetError::Chain(zkdet_chain::ChainError::NoSuchToken(t))) => assert_eq!(t, t1),
        other => panic!("expected missing parent, got {other:?}"),
    }
    // But prevIds[] still records the lineage.
    let prov = m.chain.nft(&m.nft_addr).unwrap().provenance(dup).unwrap();
    assert_eq!(prov, vec![t1]);
}

#[test]
fn dataset_byte_packing_survives_the_full_protocol() {
    let mut r = rng(7);
    let mut m = Marketplace::bootstrap(1 << 14, 8, &mut r).unwrap();
    let mut seller = m.register();
    let mut buyer = m.register();
    let payload = b"confidential csv,with,rows\n1,2,3\n4,5,6\n".to_vec();
    let data = Dataset::from_bytes(&payload);
    let token = m.publish_original(&mut seller, data, &mut r).unwrap();
    let listing = m
        .list_for_sale(&seller, token, 10, 5, 1, "bytes".into(), &mut r)
        .unwrap();
    let pkg = m
        .seller_validation_package(&seller, token, RangePredicate { bits: 250 }, &mut r)
        .unwrap();
    let session = m
        .buyer_validate_and_lock(&buyer, listing.listing, &pkg, &mut r)
        .unwrap();
    m.seller_settle(&seller, &listing, session.k_v_message(), &mut r)
        .unwrap();
    let got = m.buyer_recover(&mut buyer, &session).unwrap();
    assert_eq!(got.to_packed_bytes().unwrap(), payload);
}

#[test]
fn canonical_proof_size_matches_paper() {
    // §VI-B3: proofs contain 9 G₁ elements and 6 field elements,
    // independent of the relation.
    assert_eq!(zkdet_plonk::Proof::NUM_G1, 9);
    assert_eq!(zkdet_plonk::Proof::NUM_FR, 6);
    assert_eq!(zkdet_plonk::Proof::SIZE_BYTES, 9 * 65 + 6 * 32);
    // Fr round-trips at 32 bytes (the size the encoding assumes).
    let x = Fr::from(123u64);
    assert_eq!(x.to_bytes().len(), 32);
}

#[test]
fn audit_counts_the_lineage_and_fails_on_a_tampered_ancestor() {
    let mut r = rng(8);
    let mut m = Marketplace::bootstrap(1 << 14, 8, &mut r).unwrap();
    let mut alice = m.register();
    let t1 = m
        .publish_original(&mut alice, Dataset::from_entries(vec![Fr::from(1u64), Fr::from(2u64)]), &mut r)
        .unwrap();
    let t2 = m
        .publish_original(&mut alice, Dataset::from_entries(vec![Fr::from(3u64)]), &mut r)
        .unwrap();
    let agg = m.aggregate(&mut alice, &[t1, t2], &mut r).unwrap();
    let dup = m.duplicate(&mut alice, agg, &mut r).unwrap();

    let cold = m.audit_token(dup, &mut r).unwrap();
    let warm = m.audit_token(dup, &mut r).unwrap();
    assert_eq!(cold, warm);
    assert_eq!(cold.verified_tokens.len(), 4);
    assert_eq!(cold.transform_edges, 2);

    // A tampered lineage fails warm and cold: the cache holds verdicts
    // about artefacts, not about tokens.
    let cid = m
        .chain
        .nft(&m.nft_addr)
        .unwrap()
        .token_meta(t1)
        .unwrap()
        .cid;
    m.storage.corrupt_block(&cid);
    assert!(m.audit_token(dup, &mut r).is_err());
    m.clear_audit_cache();
    assert!(m.audit_token(dup, &mut r).is_err());
}

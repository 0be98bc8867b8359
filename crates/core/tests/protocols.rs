//! End-to-end protocol tests: the generic transformation protocol (§IV-B)
//! and the key-secure exchange (§IV-F) against the ZKCP baseline (§III-C),
//! including the adversarial cases from the security analysis (§V).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rand::{rngs::StdRng, SeedableRng};
use zkdet_circuits::exchange::RangePredicate;
use zkdet_core::{Dataset, ExchangeOutcome, Marketplace, ZkdetError};
use zkdet_field::{Field, Fr};

fn small_dataset(vals: &[u64]) -> Dataset {
    Dataset::from_entries(vals.iter().map(|v| Fr::from(*v)).collect())
}

fn market(rng: &mut StdRng) -> Marketplace {
    Marketplace::bootstrap(1 << 14, 8, rng).expect("bootstrap")
}

#[test]
fn publish_then_audit_original() {
    let mut rng = StdRng::seed_from_u64(600);
    let mut m = market(&mut rng);
    let mut alice = m.register();
    let token = m
        .publish_original(&mut alice, small_dataset(&[1, 2, 3]), &mut rng)
        .unwrap();
    let report = m.audit_token(token, &mut rng).unwrap();
    assert_eq!(report.verified_tokens, vec![token]);
    assert_eq!(report.transform_edges, 0);
}

#[test]
fn empty_dataset_publish_is_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(611);
    let mut m = market(&mut rng);
    let mut alice = m.register();
    let keys_before = m.key_registry().len();
    let err = m
        .publish_original(&mut alice, Dataset::from_entries(vec![]), &mut rng)
        .unwrap_err();
    assert!(matches!(err, ZkdetError::Protocol(_)), "{err:?}");
    // Nothing was derived, uploaded or minted on the way to the error.
    assert_eq!(m.key_registry().len(), keys_before);
    assert!(m.storage.acknowledged_publishes().is_empty());
    assert_eq!(m.chain.nft(&m.nft_addr).unwrap().total_supply(), 0);
}

#[test]
fn transformation_chain_with_audit() {
    let mut rng = StdRng::seed_from_u64(601);
    let mut m = market(&mut rng);
    let mut alice = m.register();
    let t1 = m
        .publish_original(&mut alice, small_dataset(&[10, 20]), &mut rng)
        .unwrap();
    let t2 = m
        .publish_original(&mut alice, small_dataset(&[30]), &mut rng)
        .unwrap();
    // Aggregate, then duplicate the aggregate, then partition it back.
    let agg = m.aggregate(&mut alice, &[t1, t2], &mut rng).unwrap();
    let dup = m.duplicate(&mut alice, agg, &mut rng).unwrap();
    let parts = m.partition(&mut alice, dup, &[2, 1], &mut rng).unwrap();
    assert_eq!(parts.len(), 2);

    // Audit the full lineage from a leaf part: part → dup → agg → {t1, t2}.
    let report = m.audit_token(parts[0], &mut rng).unwrap();
    assert_eq!(report.verified_tokens.len(), 5);
    assert_eq!(report.transform_edges, 3); // partition + duplication + aggregation
    // On-chain provenance matches.
    let prov = m.chain.nft(&m.nft_addr).unwrap().provenance(parts[0]).unwrap();
    assert_eq!(prov, vec![dup, agg, t1, t2]);
}

#[test]
fn audit_rejects_tampered_storage() {
    let mut rng = StdRng::seed_from_u64(602);
    let mut m = market(&mut rng);
    let mut alice = m.register();
    let token = m
        .publish_original(&mut alice, small_dataset(&[5, 6]), &mut rng)
        .unwrap();
    // Corrupt the ciphertext in the storage network.
    let cid = m
        .chain
        .nft(&m.nft_addr)
        .unwrap()
        .token_meta(token)
        .unwrap()
        .cid;
    m.storage.corrupt_block(&cid);
    match m.audit_token(token, &mut rng) {
        Err(ZkdetError::Storage(zkdet_storage::StorageError::DigestMismatch(_))) => {}
        other => panic!("expected digest mismatch, got {other:?}"),
    }
}

#[test]
fn key_secure_exchange_end_to_end() {
    let mut rng = StdRng::seed_from_u64(603);
    let mut m = market(&mut rng);
    let mut seller = m.register();
    let mut buyer = m.register();
    let data = small_dataset(&[100, 200, 300]);
    let token = m
        .publish_original(&mut seller, data.clone(), &mut rng)
        .unwrap();

    // Phase 0: list.
    let listing = m
        .list_for_sale(&seller, token, 1_000, 500, 10, "entries < 2^16".into(), &mut rng)
        .unwrap();
    // Phase 1: validation.
    let package = m
        .seller_validation_package(&seller, token, RangePredicate { bits: 16 }, &mut rng)
        .unwrap();
    let session = m
        .buyer_validate_and_lock(&buyer, listing.listing, &package, &mut rng)
        .unwrap();
    // Phase 2: key negotiation.
    let seller_balance_before = m.chain.state.balance(&seller.address);
    m.seller_settle(&seller, &listing, session.k_v_message(), &mut rng)
        .unwrap();
    assert_eq!(
        m.chain.state.balance(&seller.address),
        seller_balance_before + session.price
    );

    // Buyer recovers the plaintext; token ownership moved.
    let recovered = m.buyer_recover(&mut buyer, &session).unwrap();
    assert_eq!(recovered, data);
    assert_eq!(
        m.chain.nft(&m.nft_addr).unwrap().owner_of(token).unwrap(),
        buyer.address
    );

    // Crucially: no key was leaked on-chain, and the published k_c alone
    // does not decrypt the ciphertext.
    assert!(m.leaked_key(listing.listing).is_none());
    let k_c = m.published_k_c(listing.listing).unwrap();
    let (ct, _) = m.fetch_artefacts(token).unwrap();
    let wrong = zkdet_crypto::mimc::MimcCtr::new(k_c, ct.nonce).decrypt(&ct);
    assert_ne!(Dataset::from_entries(wrong), data);
}

#[test]
fn zkcp_baseline_leaks_key_to_adversary() {
    let mut rng = StdRng::seed_from_u64(604);
    let mut m = market(&mut rng);
    let mut seller = m.register();
    let buyer = m.register();
    let data = small_dataset(&[7, 8, 9]);
    let token = m
        .publish_original(&mut seller, data.clone(), &mut rng)
        .unwrap();
    let listing = m
        .list_for_sale(&seller, token, 1_000, 500, 10, "entries < 2^16".into(), &mut rng)
        .unwrap();
    let package = m
        .seller_validation_package(&seller, token, RangePredicate { bits: 16 }, &mut rng)
        .unwrap();

    // ZKCP flow: buyer locks on H(k); seller opens k on-chain.
    let h = m.zkcp_seller_key_hash(&seller, token).unwrap();
    let session = m
        .zkcp_buyer_lock(&buyer, listing.listing, &package, h)
        .unwrap();
    m.zkcp_seller_open(&seller, &listing, &mut rng).unwrap();
    let bought = m.zkcp_buyer_finalize(&session).unwrap();
    assert_eq!(bought, data);

    // The attack: an unrelated party decrypts using public data only.
    let stolen = m.adversary_decrypt_via_leak(listing.listing).unwrap();
    assert_eq!(stolen, data, "ZKCP leaks the plaintext to everyone");
}

#[test]
fn malicious_seller_cannot_settle_with_wrong_key() {
    // Buyer fairness (Theorem 5.2): a seller who committed to k cannot
    // pass off k' ≠ k — π_k will not verify and the contract keeps escrow.
    let mut rng = StdRng::seed_from_u64(605);
    let mut m = market(&mut rng);
    let mut seller = m.register();
    let buyer = m.register();
    let token = m
        .publish_original(&mut seller, small_dataset(&[1, 2]), &mut rng)
        .unwrap();
    let listing = m
        .list_for_sale(&seller, token, 100, 50, 1, "any".into(), &mut rng)
        .unwrap();
    let package = m
        .seller_validation_package(&seller, token, RangePredicate { bits: 8 }, &mut rng)
        .unwrap();
    let session = m
        .buyer_validate_and_lock(&buyer, listing.listing, &package, &mut rng)
        .unwrap();

    // Corrupt the seller's stored key so the π_k witness is wrong.
    let mut bad_secret = seller.secret(token).unwrap().clone();
    bad_secret.key += Fr::ONE;
    let mut evil = seller.clone();
    evil.learn_secret(token, bad_secret);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        m.seller_settle(&evil, &listing, session.k_v_message(), &mut rng)
    }));
    match result {
        Ok(Ok(())) => panic!("settlement with wrong key must fail"),
        Ok(Err(_)) => {}
        Err(_) => {} // debug assertion during synthesis caught it
    }
    // Escrow still with the contract, seller unpaid.
    assert_eq!(m.chain.state.balance(&m.auction_addr), session.price);
}

#[test]
fn buyer_gets_refund_after_seller_timeout() {
    let mut rng = StdRng::seed_from_u64(606);
    let mut m = market(&mut rng);
    let mut seller = m.register();
    let buyer = m.register();
    let token = m
        .publish_original(&mut seller, small_dataset(&[4]), &mut rng)
        .unwrap();
    let listing = m
        .list_for_sale(&seller, token, 100, 50, 1, "any".into(), &mut rng)
        .unwrap();
    let package = m
        .seller_validation_package(&seller, token, RangePredicate { bits: 8 }, &mut rng)
        .unwrap();
    let balance_before = m.chain.state.balance(&buyer.address);
    let session = m
        .buyer_validate_and_lock(&buyer, listing.listing, &package, &mut rng)
        .unwrap();
    assert_eq!(
        m.chain.state.balance(&buyer.address),
        balance_before - session.price
    );

    // Too early: refused.
    assert!(m.buyer_refund(&session).is_err());
    // Mine past the timeout.
    for _ in 0..zkdet_chain::contracts::REFUND_TIMEOUT_BLOCKS {
        m.chain.mine_block();
    }
    m.buyer_refund(&session).unwrap();
    assert_eq!(m.chain.state.balance(&buyer.address), balance_before);

    // Driving the session after its refund landed reports the refund — the
    // same answer the journaled and executor paths give — and moves nothing.
    let mut buyer = buyer;
    let seller_balance = m.chain.state.balance(&seller.address);
    let report = m.drive_exchange_to_completion(&mut buyer, &session).unwrap();
    assert_eq!(report.outcome, ExchangeOutcome::Refunded);
    assert!(report.data.is_none());
    assert_eq!(m.chain.state.balance(&buyer.address), balance_before);
    assert_eq!(m.chain.state.balance(&seller.address), seller_balance);
    assert_eq!(m.chain.state.balance(&m.auction_addr), 0);
}

#[test]
fn published_k_c_answers_only_for_a_key_secure_settled_listing() {
    let mut rng = StdRng::seed_from_u64(612);
    let mut m = market(&mut rng);
    let mut seller = m.register();
    let mut buyer_a = m.register();
    let buyer_b = m.register();
    let t1 = m
        .publish_original(&mut seller, small_dataset(&[1, 2]), &mut rng)
        .unwrap();
    let t2 = m
        .publish_original(&mut seller, small_dataset(&[3, 4]), &mut rng)
        .unwrap();
    let l1 = m
        .list_for_sale(&seller, t1, 1_000, 500, 10, "any".into(), &mut rng)
        .unwrap();
    let l2 = m
        .list_for_sale(&seller, t2, 1_000, 500, 10, "any".into(), &mut rng)
        .unwrap();
    assert_eq!(m.published_k_c(l1.listing), None, "open");
    assert_eq!(
        m.published_k_c(zkdet_chain::contracts::ListingId(999)),
        None,
        "no such listing"
    );

    let p1 = m
        .seller_validation_package(&seller, t1, RangePredicate { bits: 8 }, &mut rng)
        .unwrap();
    let s1 = m
        .buyer_validate_and_lock(&buyer_a, l1.listing, &p1, &mut rng)
        .unwrap();
    assert_eq!(m.published_k_c(l1.listing), None, "locked");

    // Listing 2 settles: its KeyPublished event is in the log, and only
    // listing 2 answers with it.
    let p2 = m
        .seller_validation_package(&seller, t2, RangePredicate { bits: 8 }, &mut rng)
        .unwrap();
    let s2 = m
        .buyer_validate_and_lock(&buyer_b, l2.listing, &p2, &mut rng)
        .unwrap();
    m.seller_settle(&seller, &l2, s2.k_v_message(), &mut rng)
        .unwrap();
    let key = seller.secret(t2).unwrap().key;
    assert_eq!(
        m.published_k_c(l2.listing),
        Some(key + s2.k_v_message()),
        "settled"
    );
    assert_eq!(m.published_k_c(l1.listing), None, "another listing's key");

    for _ in 0..zkdet_chain::contracts::REFUND_TIMEOUT_BLOCKS {
        m.chain.mine_block();
    }
    let report = m.drive_exchange_to_completion(&mut buyer_a, &s1).unwrap();
    assert_eq!(report.outcome, ExchangeOutcome::Refunded);
    assert_eq!(m.published_k_c(l1.listing), None, "refunded");
    assert_eq!(
        m.published_k_c(l2.listing),
        Some(key + s2.k_v_message()),
        "still settled, blocks later"
    );
}

#[test]
fn clock_price_decays_between_blocks() {
    let mut rng = StdRng::seed_from_u64(607);
    let mut m = market(&mut rng);
    let mut seller = m.register();
    let buyer = m.register();
    let token = m
        .publish_original(&mut seller, small_dataset(&[11]), &mut rng)
        .unwrap();
    let listing = m
        .list_for_sale(&seller, token, 1_000, 100, 100, "any".into(), &mut rng)
        .unwrap();
    // Let the clock tick 4 blocks: price 1000 → 600.
    for _ in 0..4 {
        m.chain.mine_block();
    }
    let package = m
        .seller_validation_package(&seller, token, RangePredicate { bits: 8 }, &mut rng)
        .unwrap();
    let session = m
        .buyer_validate_and_lock(&buyer, listing.listing, &package, &mut rng)
        .unwrap();
    assert_eq!(session.price, 600);
}

#[test]
fn validation_package_for_wrong_token_rejected() {
    let mut rng = StdRng::seed_from_u64(608);
    let mut m = market(&mut rng);
    let mut seller = m.register();
    let buyer = m.register();
    let token_a = m
        .publish_original(&mut seller, small_dataset(&[1]), &mut rng)
        .unwrap();
    let token_b = m
        .publish_original(&mut seller, small_dataset(&[2]), &mut rng)
        .unwrap();
    let listing_b = m
        .list_for_sale(&seller, token_b, 100, 50, 1, "any".into(), &mut rng)
        .unwrap();
    // Validation proof is about token A's dataset; listing sells token B.
    let package_a = m
        .seller_validation_package(&seller, token_a, RangePredicate { bits: 8 }, &mut rng)
        .unwrap();
    match m.buyer_validate_and_lock(&buyer, listing_b.listing, &package_a, &mut rng) {
        Err(ZkdetError::Inconsistent(_)) => {}
        other => panic!("expected commitment mismatch, got {other:?}"),
    }
}

//! Cross-crate tests of the provenance subsystem: the marketplace's audit
//! cold, warm and over a forged token, lineage digests and exports over
//! real token lineages.

use rand::rngs::StdRng;
use zkdet_core::{Dataset, Marketplace, ZkdetError};
use zkdet_field::Fr;
use zkdet_tests::rng;

fn market(r: &mut StdRng) -> Marketplace {
    Marketplace::bootstrap(1 << 14, 8, r).unwrap()
}

fn data(vals: &[u64]) -> Dataset {
    Dataset::from_entries(vals.iter().map(|v| Fr::from(*v)).collect())
}

/// Publishes two originals and aggregates them, then duplicates the
/// aggregate: a 4-node lineage with 3 transform edges below `dup`.
fn lineage(m: &mut Marketplace, r: &mut StdRng) -> zkdet_chain::TokenId {
    let mut alice = m.register();
    let t1 = m.publish_original(&mut alice, data(&[1, 2]), r).unwrap();
    let t2 = m.publish_original(&mut alice, data(&[3, 4]), r).unwrap();
    let agg = m.aggregate(&mut alice, &[t1, t2], r).unwrap();
    m.duplicate(&mut alice, agg, r).unwrap()
}

#[test]
fn warm_audit_is_served_from_the_cache() {
    let mut r = rng(9100);
    let mut m = market(&mut r);
    let dup = lineage(&mut m, &mut r);

    // Cold audit: nothing cached yet, every check verified fresh.
    let cold = m.audit_token(dup, &mut r).unwrap();
    assert_eq!(cold.verified_tokens.len(), 4);
    let (hits0, misses0) = (m.audit_cache().hits(), m.audit_cache().misses());
    assert_eq!(hits0, 0);
    assert!(misses0 > 0, "cold audit must miss for every check");

    // Warm audit: every check hits, the report stays identical.
    let warm = m.audit_token(dup, &mut r).unwrap();
    assert_eq!(cold, warm);
    assert_eq!(m.audit_cache().misses(), misses0, "no new misses when warm");
    assert_eq!(m.audit_cache().hits() - hits0, misses0, "all checks hit");
    assert!(m.audit_cache().hit_rate() > 0.0);
}

#[test]
fn audit_localises_the_failing_token_even_when_warm() {
    // The audit folds every uncached proof into one check, yet a refusal
    // must name the exact token and check — and a warm cache over the
    // honest ancestors must not mask the forgery.
    let mut r = rng(9101);
    let mut m = market(&mut r);
    let mut alice = m.register();
    let t_a = m.publish_original(&mut alice, data(&[1, 2]), &mut r).unwrap();
    let t_b = m.publish_original(&mut alice, data(&[3, 4]), &mut r).unwrap();
    let dup_of_a = m.duplicate(&mut alice, t_a, &mut r).unwrap();

    // Warm the cache over the honest part of the lineage.
    m.audit_token(dup_of_a, &mut r).unwrap();
    m.audit_token(t_b, &mut r).unwrap();

    // Forge: a token claiming duplication of B carrying A's π_t.
    let (ct_b, bundle_b) = m.fetch_artefacts(t_b).unwrap();
    let (_, bundle_a) = m.fetch_artefacts(dup_of_a).unwrap();
    let forged = zkdet_core::ProofBundle {
        pi_e: bundle_b.pi_e.clone(),
        len: 2,
        pi_t: bundle_a.pi_t.clone(),
    };
    let meta_b = m.chain.nft(&m.nft_addr).unwrap().token_meta(t_b).unwrap().clone();
    let forged_cid = m.storage.publish(alice.pin, forged.to_bytes()).expect("publish");
    let ct_cid = m
        .storage
        .publish(alice.pin, zkdet_core::codec::encode_ciphertext(&ct_b))
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

    // Twice: a refused audit caches nothing, so the second is refused for
    // the same reason; and once more from a cold cache, where the forged
    // π_t is folded together with the honest proofs around it.
    for attempt in ["warm ancestors", "again", "cold"] {
        if attempt == "cold" {
            m.clear_audit_cache();
        }
        let cached = m.audit_cache().len();
        match m.audit_token(forged_token, &mut r) {
            Err(ZkdetError::LineageProofInvalid { token, what }) => {
                assert_eq!(token, forged_token, "{attempt}: must name the forged token");
                assert!(what.contains("π_t"), "{attempt}: must name the check: {what}");
            }
            other => panic!("{attempt}: expected a localised rejection, got {other:?}"),
        }
        assert_eq!(m.audit_cache().len(), cached, "{attempt}: nothing recorded");
    }
}

#[test]
fn auditing_a_descendant_verifies_only_the_new_edges() {
    let mut r = rng(9102);
    let mut m = market(&mut r);
    let dup = lineage(&mut m, &mut r);
    let agg = m.chain.nft(&m.nft_addr).unwrap().token_meta(dup).unwrap().prev_ids[0];

    // The aggregate and its two sources: three π_e and one π_t.
    m.audit_token(agg, &mut r).unwrap();
    assert_eq!((m.audit_cache().hits(), m.audit_cache().misses()), (0, 4));
    // The duplicate adds its own π_e and π_t; the rest is cached.
    let partly_warm = m.audit_token(dup, &mut r).unwrap();
    assert_eq!((m.audit_cache().hits(), m.audit_cache().misses()), (4, 6));

    // From a cleared cache the same audit verifies all six again and
    // reports the same lineage.
    m.clear_audit_cache();
    let (hits, misses) = (m.audit_cache().hits(), m.audit_cache().misses());
    let cold = m.audit_token(dup, &mut r).unwrap();
    assert_eq!(cold, partly_warm);
    assert_eq!(m.audit_cache().hits(), hits);
    assert_eq!(m.audit_cache().misses() - misses, 6);
}

#[test]
fn lineage_digest_is_stable_and_distinguishes_lineages() {
    let mut r = rng(9103);
    let mut m = market(&mut r);
    let mut alice = m.register();
    let t1 = m.publish_original(&mut alice, data(&[1, 2]), &mut r).unwrap();
    let t2 = m.publish_original(&mut alice, data(&[3, 4]), &mut r).unwrap();
    let agg = m.aggregate(&mut alice, &[t1, t2], &mut r).unwrap();
    let dup = m.duplicate(&mut alice, agg, &mut r).unwrap();

    // Deterministic: same token, same digest.
    assert_eq!(m.lineage_digest(dup).unwrap(), m.lineage_digest(dup).unwrap());
    // Structure-sensitive: distinct sub-DAGs, distinct digests.
    assert_ne!(m.lineage_digest(dup).unwrap(), m.lineage_digest(agg).unwrap());
    assert_ne!(m.lineage_digest(t1).unwrap(), m.lineage_digest(t2).unwrap());
    // Unknown tokens are rejected.
    assert!(m.lineage_digest(zkdet_chain::TokenId(999)).is_err());
}

#[test]
fn exports_render_the_lineage_and_mark_burned_ancestors() {
    let mut r = rng(9104);
    let mut m = market(&mut r);
    let mut alice = m.register();
    let t1 = m.publish_original(&mut alice, data(&[1]), &mut r).unwrap();
    let dup = m.duplicate(&mut alice, t1, &mut r).unwrap();

    let tree = m.provenance_tree(dup).unwrap();
    assert!(tree.contains("duplication"), "{tree}");
    assert!(tree.contains("original"), "{tree}");

    let dot = m.provenance_dot(dup).unwrap();
    assert!(dot.contains(&format!("n{} -> n{}", dup.0, t1.0)), "{dot}");

    let json = m.provenance_json(dup).unwrap();
    assert_eq!(
        json.get("token").and_then(zkdet_telemetry::Value::as_u64),
        Some(dup.0)
    );

    // Burn the parent: the digest stays computable (tombstones keep the
    // lineage traceable) and exports flag the burned node.
    let before = m.lineage_digest(dup).unwrap();
    m.chain.nft_burn(m.nft_addr, alice.address, t1).unwrap();
    assert_eq!(m.lineage_digest(dup).unwrap(), before);
    let tree = m.provenance_tree(dup).unwrap();
    assert!(tree.contains("[burned]"), "{tree}");
    // The burned token itself can no longer be queried through the
    // marketplace (its chain metadata is gone).
    assert!(m.provenance_tree(t1).is_err());
}

#[test]
fn chain_provenance_matches_the_index_walk() {
    let mut r = rng(9105);
    let mut m = market(&mut r);
    let mut alice = m.register();
    let t1 = m.publish_original(&mut alice, data(&[1, 2]), &mut r).unwrap();
    let t2 = m.publish_original(&mut alice, data(&[3, 4]), &mut r).unwrap();
    let agg = m.aggregate(&mut alice, &[t1, t2], &mut r).unwrap();
    let dup = m.duplicate(&mut alice, agg, &mut r).unwrap();

    let nft = m.chain.nft(&m.nft_addr).unwrap();
    assert_eq!(nft.provenance(dup).unwrap(), vec![agg, t1, t2]);
    let index = nft.provenance_index();
    assert_eq!(index.len(), 4);
    assert!(index
        .reaches(zkdet_provenance::NodeId(dup.0), zkdet_provenance::NodeId(t1.0))
        .unwrap());
    assert!(!index
        .reaches(zkdet_provenance::NodeId(t1.0), zkdet_provenance::NodeId(dup.0))
        .unwrap());
}

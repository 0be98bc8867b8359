//! Lineage verification: runs a set of per-edge proof checks through the
//! audit cache, then folds every cache-missing check into one
//! [`Plonk::batch_verify`] — two pairings and one MSM per side, whatever
//! the number of proofs.
//!
//! A rejected fold is re-verified proof by proof, so the error names the
//! exact node and check; only that path costs one pairing check per proof.

use std::sync::Arc;

use rand::Rng;
use zkdet_field::Fr;
use zkdet_plonk::{Plonk, Proof, VerifyingKey};

use crate::cache::{digest_proof, digest_publics, digest_vk, ArtefactDigest, AuditCache, AuditKey};
use crate::index::NodeId;

/// One proof obligation in a lineage audit: "`proof` proves `publics`
/// under `vk`, attributed to `node`".
#[derive(Clone, Debug)]
pub struct LineageCheck {
    /// The token this check belongs to.
    pub node: NodeId,
    /// Verifying key of the relation.
    pub vk: Arc<VerifyingKey>,
    /// Public statement.
    pub publics: Vec<Fr>,
    /// The proof.
    pub proof: Proof,
    /// Human-readable check label ("π_e", "π_t (aggregation)", …).
    pub label: &'static str,
}

/// A lineage verification failure, localised to the exact check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProofRejected {
    /// The token whose check failed.
    pub node: NodeId,
    /// Which check failed ("π_e", "π_t (partition)", …).
    pub label: &'static str,
}

impl core::fmt::Display for ProofRejected {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} rejected for token {}", self.label, self.node)
    }
}

impl std::error::Error for ProofRejected {}

/// Outcome statistics of a successful lineage verification.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Total checks submitted.
    pub checks: usize,
    /// Checks satisfied from the audit cache.
    pub cache_hits: usize,
    /// Checks actually verified this call.
    pub verified: usize,
}

mod metric {
    pub const PROOFS: &str = "zkdet.provenance.verify.proofs";
    pub const BATCHES: &str = "zkdet.provenance.verify.batches";
}

/// Verifies `checks` through `cache`.
///
/// Cache hits are skipped; the remainder is verified as one batch and, on
/// success, recorded into the cache. On failure nothing is recorded and
/// the exact failing check is reported.
///
/// # Errors
///
/// [`ProofRejected`] naming the first failing check in submission order.
pub fn verify_lineage<R: Rng + ?Sized>(
    checks: &[LineageCheck],
    cache: &mut AuditCache,
    rng: &mut R,
) -> Result<VerifyReport, ProofRejected> {
    let mut span = zkdet_telemetry::span("provenance.verify");
    span.record("checks", checks.len() as u64);

    // Resolve each check against the cache once, reusing the digests for
    // the post-verification insert.
    let mut fresh: Vec<(&LineageCheck, AuditKey, ArtefactDigest)> = Vec::new();
    for c in checks {
        let key = AuditKey {
            node: c.node,
            proof: digest_proof(&c.proof),
            vk: digest_vk(&c.vk),
        };
        let publics = digest_publics(&c.publics);
        if !cache.is_verified(&key, &publics) {
            fresh.push((c, key, publics));
        }
    }
    let cache_hits = checks.len() - fresh.len();
    span.record("cache_hits", cache_hits as u64);
    span.record("fresh", fresh.len() as u64);
    zkdet_telemetry::counter_add(metric::PROOFS, fresh.len() as u64);

    if !fresh.is_empty() {
        zkdet_telemetry::counter_add(metric::BATCHES, 1);
        let items: Vec<(&VerifyingKey, &[Fr], &Proof)> = fresh
            .iter()
            .map(|(c, _, _)| (&*c.vk, c.publics.as_slice(), &c.proof))
            .collect();
        if !Plonk::batch_verify(&items, rng) {
            // Localise: the fold rejected, so at least one member fails on
            // its own (up to the negligible folding slack). Should every
            // member pass, the first is named rather than accepting a
            // batch the fold rejected.
            let culprit = fresh
                .iter()
                .map(|(c, _, _)| *c)
                .find(|c| !Plonk::verify(&c.vk, &c.publics, &c.proof))
                .unwrap_or(fresh[0].0);
            return Err(ProofRejected {
                node: culprit.node,
                label: culprit.label,
            });
        }
    }

    let verified = fresh.len();
    for (_, key, publics) in fresh {
        cache.record(key, publics);
    }
    Ok(VerifyReport {
        checks: checks.len(),
        cache_hits,
        verified,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkdet_field::Field;
    use zkdet_kzg::Srs;

    /// `n` honest checks, each under its own key (x^(2^(i+1)) = y), with
    /// alternating labels.
    fn proof_fixture(n: usize) -> (Vec<LineageCheck>, StdRng) {
        let mut rng = StdRng::seed_from_u64(42);
        let srs = Srs::universal_setup(64, &mut rng);
        let mut checks = Vec::new();
        for i in 0..n {
            let mut b = zkdet_plonk::CircuitBuilder::new();
            let mut y = b.alloc(Fr::from(i as u64 + 2));
            for _ in 0..=i {
                y = b.mul(y, y);
            }
            let out = b.value(y);
            let pub_out = b.public_input(out);
            b.assert_equal(y, pub_out);
            let circuit = b.build();
            let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
            let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
            checks.push(LineageCheck {
                node: NodeId(i as u64),
                vk: Arc::new(vk),
                publics: circuit.public_values().to_vec(),
                proof,
                label: if i % 2 == 0 { "π_e" } else { "π_t (test)" },
            });
        }
        (checks, rng)
    }

    #[test]
    fn a_valid_lineage_is_verified_cold_and_skipped_warm() {
        let (checks, mut rng) = proof_fixture(4);
        let mut cache = AuditCache::new();
        let cold = verify_lineage(&checks, &mut cache, &mut rng).unwrap();
        assert_eq!((cold.checks, cold.cache_hits, cold.verified), (4, 0, 4));
        assert_eq!(cache.len(), 4);
        let warm = verify_lineage(&checks, &mut cache, &mut rng).unwrap();
        assert_eq!((warm.checks, warm.cache_hits, warm.verified), (4, 4, 0));
        // Partly warm: only the new check is verified.
        let (longer, _) = proof_fixture(5);
        let mixed = verify_lineage(&longer, &mut cache, &mut rng).unwrap();
        assert_eq!((mixed.checks, mixed.cache_hits, mixed.verified), (5, 4, 1));
    }

    #[test]
    fn every_altered_position_is_named_exactly_and_nothing_is_cached() {
        let (checks, mut rng) = proof_fixture(4);
        for k in 0..checks.len() {
            // Corrupt the statement of check k — its proof no longer proves it.
            let mut forged = checks.clone();
            forged[k].publics[0] += Fr::ONE;
            let mut cache = AuditCache::new();
            let err = verify_lineage(&forged, &mut cache, &mut rng).unwrap_err();
            assert_eq!((err.node, err.label), (checks[k].node, checks[k].label));
            assert!(cache.is_empty(), "failed runs must not populate the cache");
        }
        // Two forged members: the first in submission order is named.
        let mut forged = checks.clone();
        forged[3].proof.a_eval += Fr::ONE;
        forged[1].proof.c_eval += Fr::ONE;
        let err = verify_lineage(&forged, &mut AuditCache::new(), &mut rng).unwrap_err();
        assert_eq!((err.node, err.label), (NodeId(1), "π_t (test)"));
    }

    #[test]
    fn cache_hit_never_masks_a_tampered_artefact() {
        let (mut checks, mut rng) = proof_fixture(3);
        let mut cache = AuditCache::new();
        verify_lineage(&checks, &mut cache, &mut rng).unwrap();
        // Tamper with a cached check's statement: digest changes → miss →
        // fresh verification → rejection, alone in its batch.
        checks[1].publics[0] += Fr::ONE;
        let err = verify_lineage(&checks, &mut cache, &mut rng).unwrap_err();
        assert_eq!((err.node, err.label), (NodeId(1), "π_t (test)"));
        assert_eq!(cache.len(), 3);
    }
}

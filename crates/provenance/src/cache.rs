//! The audit cache: remembers which lineage proofs have already been
//! verified so re-auditing a token whose ancestors were audited before
//! touches only new nodes.
//!
//! ## Soundness
//!
//! An entry is keyed by `(node, proof digest, vk digest)` and *additionally*
//! binds the SHA-256 digest of the public statement. A lookup hits only
//! when all four components match what a fresh verification would consume,
//! so a hit can never mask a proof that would fail fresh verification: any
//! tampering with the proof bytes, the verifying key, or the statement
//! changes a digest and forces a miss. (Cache *entries* are only ever
//! written after a successful [`zkdet_plonk::Plonk::verify`] /
//! `batch_verify` of exactly those bytes.)

use std::collections::BTreeMap;

use zkdet_crypto::sha256;
use zkdet_field::{Fr, PrimeField};
use zkdet_plonk::{Proof, VerifyingKey};

use crate::index::NodeId;

/// A 32-byte SHA-256 digest of an audit artefact.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArtefactDigest(pub [u8; 32]);

impl core::fmt::Debug for ArtefactDigest {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for b in &self.0[..6] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…")
    }
}

/// Digest of a serialized proof.
pub fn digest_proof(proof: &Proof) -> ArtefactDigest {
    ArtefactDigest(sha256(&proof.to_bytes()))
}

/// Digest of a serialized verifying key.
pub fn digest_vk(vk: &VerifyingKey) -> ArtefactDigest {
    ArtefactDigest(sha256(&vk.to_bytes()))
}

/// Digest of a public statement (length-prefixed field elements, so
/// statements of different lengths can never collide by concatenation).
pub fn digest_publics(publics: &[Fr]) -> ArtefactDigest {
    let mut bytes = Vec::with_capacity(8 + 32 * publics.len());
    bytes.extend_from_slice(&(publics.len() as u64).to_le_bytes());
    for p in publics {
        bytes.extend_from_slice(&p.to_bytes());
    }
    ArtefactDigest(sha256(&bytes))
}

/// The full lookup key of one verified check.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AuditKey {
    /// The token the check belongs to.
    pub node: NodeId,
    /// Digest of the proof bytes.
    pub proof: ArtefactDigest,
    /// Digest of the verifying-key bytes.
    pub vk: ArtefactDigest,
}

mod metric {
    pub const HITS: &str = "zkdet.provenance.cache.hits";
    pub const MISSES: &str = "zkdet.provenance.cache.misses";
}

/// Map of already-verified lineage checks.
#[derive(Clone, Debug, Default)]
pub struct AuditCache {
    entries: BTreeMap<AuditKey, ArtefactDigest>,
    hits: u64,
    misses: u64,
}

impl AuditCache {
    /// Fresh, empty cache.
    pub fn new() -> Self {
        AuditCache::default()
    }

    /// Number of cached verified checks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hits as a fraction of all lookups (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// True when this exact `(node, proof, vk, statement)` combination was
    /// verified before. Counts a hit/miss (locally and on the global
    /// telemetry registry).
    pub fn is_verified(&mut self, key: &AuditKey, publics: &ArtefactDigest) -> bool {
        let hit = self.entries.get(key) == Some(publics);
        if hit {
            self.hits += 1;
            zkdet_telemetry::counter_add(metric::HITS, 1);
        } else {
            self.misses += 1;
            zkdet_telemetry::counter_add(metric::MISSES, 1);
        }
        hit
    }

    /// Records a successfully verified check. Callers must only record
    /// after a real verification of exactly these artefacts succeeded.
    pub fn record(&mut self, key: AuditKey, publics: ArtefactDigest) {
        self.entries.insert(key, publics);
    }

    /// Drops every cached check for one node (e.g. on burn).
    pub fn invalidate_node(&mut self, node: NodeId) {
        self.entries.retain(|k, _| k.node != node);
    }

    /// Drops everything (hit/miss counters are kept — they are lifetime
    /// telemetry, not state).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn key(node: u64, p: u8, v: u8) -> AuditKey {
        AuditKey {
            node: NodeId(node),
            proof: ArtefactDigest([p; 32]),
            vk: ArtefactDigest([v; 32]),
        }
    }

    #[test]
    fn hit_requires_all_four_components() {
        let mut c = AuditCache::new();
        let publics = ArtefactDigest([9; 32]);
        c.record(key(1, 2, 3), publics);
        assert!(c.is_verified(&key(1, 2, 3), &publics));
        // Any differing component misses.
        assert!(!c.is_verified(&key(2, 2, 3), &publics));
        assert!(!c.is_verified(&key(1, 9, 3), &publics));
        assert!(!c.is_verified(&key(1, 2, 9), &publics));
        assert!(!c.is_verified(&key(1, 2, 3), &ArtefactDigest([8; 32])));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 4);
        assert!((c.hit_rate() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn invalidation_and_clear() {
        let mut c = AuditCache::new();
        let d = ArtefactDigest([0; 32]);
        c.record(key(1, 1, 1), d);
        c.record(key(2, 1, 1), d);
        c.invalidate_node(NodeId(1));
        assert_eq!(c.len(), 1);
        assert!(!c.is_verified(&key(1, 1, 1), &d));
        assert!(c.is_verified(&key(2, 1, 1), &d));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn statement_digest_binds_length() {
        use zkdet_field::{Field, Fr};
        let a = digest_publics(&[Fr::from(1u64), Fr::ZERO]);
        let b = digest_publics(&[Fr::from(1u64)]);
        assert_ne!(a, b);
    }
}

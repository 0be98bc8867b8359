//! Lineage verification: runs a set of per-edge proof checks through the
//! audit cache, then verifies the cache-missing remainder serially,
//! batched (one folded pairing check), or batched-and-parallel (the
//! frontier partitioned across threads, one folded pairing check per
//! partition).
//!
//! Every mode localises failures: the error names the exact node and
//! check that was rejected, falling back from batch to per-proof
//! verification only for the partition that failed.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// How the cache-missing checks are verified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyMode {
    /// One `Plonk::verify` per check.
    Serial,
    /// All checks folded into a single `Plonk::batch_verify`.
    Batched,
    /// Checks partitioned into at most `threads` chunks, each chunk
    /// batch-verified on its own thread.
    Parallel {
        /// Maximum worker threads (clamped to ≥ 1).
        threads: usize,
    },
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
    /// Worker threads used (1 for serial/batched).
    pub threads: usize,
}

mod metric {
    pub const PROOFS: &str = "zkdet.provenance.verify.proofs";
    pub const BATCHES: &str = "zkdet.provenance.verify.batches";
}

/// Verifies `checks` through `cache` under `mode`.
///
/// Cache hits are skipped; the remainder is verified and, on success,
/// recorded into the cache. On failure nothing is recorded and the exact
/// failing check is reported.
///
/// # Errors
///
/// [`ProofRejected`] naming the first failing check (in submission order
/// for serial/batched; within the failing partition for parallel).
pub fn verify_lineage<R: Rng + ?Sized>(
    checks: &[LineageCheck],
    cache: &mut AuditCache,
    mode: VerifyMode,
    rng: &mut R,
) -> Result<VerifyReport, ProofRejected> {
    let mut span = zkdet_telemetry::span("provenance.verify");
    span.record("checks", checks.len() as u64);

    // Resolve each check against the cache once, reusing the digests for
    // the post-verification insert.
    let mut fresh: Vec<(usize, AuditKey, ArtefactDigest)> = Vec::new();
    let mut cache_hits = 0usize;
    for (i, c) in checks.iter().enumerate() {
        let key = AuditKey {
            node: c.node,
            proof: digest_proof(&c.proof),
            vk: digest_vk(&c.vk),
        };
        let publics = digest_publics(&c.publics);
        if cache.is_verified(&key, &publics) {
            cache_hits += 1;
        } else {
            fresh.push((i, key, publics));
        }
    }
    span.record("cache_hits", cache_hits as u64);
    span.record("fresh", fresh.len() as u64);
    zkdet_telemetry::counter_add(metric::PROOFS, fresh.len() as u64);

    let threads = match mode {
        VerifyMode::Parallel { threads } => threads.max(1).min(fresh.len().max(1)),
        _ => 1,
    };
    span.record("threads", threads as u64);

    match mode {
        VerifyMode::Serial => {
            for (i, _, _) in &fresh {
                let c = &checks[*i];
                if !Plonk::verify(&c.vk, &c.publics, &c.proof) {
                    return Err(ProofRejected {
                        node: c.node,
                        label: c.label,
                    });
                }
            }
        }
        VerifyMode::Batched => {
            let idxs: Vec<usize> = fresh.iter().map(|(i, _, _)| *i).collect();
            verify_chunk(checks, &idxs, rng.gen::<u64>())?;
            zkdet_telemetry::counter_add(metric::BATCHES, 1);
        }
        VerifyMode::Parallel { .. } => {
            let idxs: Vec<usize> = fresh.iter().map(|(i, _, _)| *i).collect();
            let chunk_len = idxs.len().div_ceil(threads).max(1);
            let chunks: Vec<&[usize]> = idxs.chunks(chunk_len).collect();
            let seeds: Vec<u64> = chunks.iter().map(|_| rng.gen::<u64>()).collect();
            zkdet_telemetry::counter_add(metric::BATCHES, chunks.len() as u64);
            if chunks.len() <= 1 {
                if let Some(chunk) = chunks.first() {
                    verify_chunk(checks, chunk, seeds[0])?;
                }
            } else {
                // Workers only read borrowed check data; a panic there is
                // a library bug, so joining with `expect` is the right
                // escalation (same policy as the MSM worker pool).
                #[allow(clippy::expect_used)]
                let outcome: Result<(), ProofRejected> =
                    // zkdet-analyzer: allow(raw-thread-spawn) chunks and their seeds are fixed before the scope; workers are joined in chunk order and the first failure in that order is reported
                    crossbeam::thread::scope(|scope| {
                        let handles: Vec<_> = chunks
                            .iter()
                            .zip(&seeds)
                            .map(|(chunk, seed)| {
                                let chunk: &[usize] = chunk;
                                let seed = *seed;
                                scope.spawn(move |_| verify_chunk(checks, chunk, seed))
                            })
                            .collect();
                        let mut first_failure: Option<ProofRejected> = None;
                        for h in handles {
                            if let Err(rej) = h.join().expect("lineage verify worker panicked")
                            {
                                first_failure.get_or_insert(rej);
                            }
                        }
                        match first_failure {
                            Some(rej) => Err(rej),
                            None => Ok(()),
                        }
                    })
                    .expect("lineage verify scope");
                outcome?;
            }
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
        threads,
    })
}

/// Batch-verifies one partition; on rejection, re-verifies per proof to
/// name the exact failing check.
fn verify_chunk(
    checks: &[LineageCheck],
    idxs: &[usize],
    seed: u64,
) -> Result<(), ProofRejected> {
    if idxs.is_empty() {
        return Ok(());
    }
    let items: Vec<(&VerifyingKey, &[Fr], &Proof)> = idxs
        .iter()
        .map(|i| {
            let c = &checks[*i];
            (&*c.vk, c.publics.as_slice(), &c.proof)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    if Plonk::batch_verify(&items, &mut rng) {
        return Ok(());
    }
    // Localise: the folded check failed, so at least one member fails
    // individually (up to the negligible folding slack).
    for i in idxs {
        let c = &checks[*i];
        if !Plonk::verify(&c.vk, &c.publics, &c.proof) {
            return Err(ProofRejected {
                node: c.node,
                label: c.label,
            });
        }
    }
    // The fold rejected but every member passes individually — treat the
    // batch's first member as the culprit rather than accepting a batch
    // the fold rejected.
    let c = &checks[idxs[0]];
    Err(ProofRejected {
        node: c.node,
        label: c.label,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use zkdet_field::Field;
    use zkdet_kzg::Srs;

    fn proof_fixture(n: usize) -> (Vec<LineageCheck>, StdRng) {
        let mut rng = StdRng::seed_from_u64(42);
        let srs = Srs::universal_setup(64, &mut rng);
        let mut checks = Vec::new();
        for i in 0..n {
            let mut b = zkdet_plonk::CircuitBuilder::new();
            let x = b.alloc(Fr::from(i as u64 + 2));
            let y = b.mul(x, x);
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
                label: "π_t (test)",
            });
        }
        (checks, rng)
    }

    #[test]
    fn all_modes_accept_valid_lineages_and_fill_the_cache() {
        let (checks, mut rng) = proof_fixture(4);
        for mode in [
            VerifyMode::Serial,
            VerifyMode::Batched,
            VerifyMode::Parallel { threads: 3 },
        ] {
            let mut cache = AuditCache::new();
            let r = verify_lineage(&checks, &mut cache, mode, &mut rng).unwrap();
            assert_eq!(r.checks, 4);
            assert_eq!(r.cache_hits, 0);
            assert_eq!(r.verified, 4);
            assert_eq!(cache.len(), 4);
            // A warm re-run verifies nothing.
            let r2 = verify_lineage(&checks, &mut cache, mode, &mut rng).unwrap();
            assert_eq!(r2.cache_hits, 4);
            assert_eq!(r2.verified, 0);
        }
    }

    #[test]
    fn failures_are_localised_and_never_cached() {
        let (mut checks, mut rng) = proof_fixture(4);
        // Corrupt the statement of check 2 — the proof no longer proves it.
        checks[2].publics[0] += Fr::ONE;
        for mode in [
            VerifyMode::Serial,
            VerifyMode::Batched,
            VerifyMode::Parallel { threads: 2 },
        ] {
            let mut cache = AuditCache::new();
            let err = verify_lineage(&checks, &mut cache, mode, &mut rng).unwrap_err();
            assert_eq!(err.node, NodeId(2), "mode {mode:?}");
            assert_eq!(err.label, "π_t (test)");
            assert!(cache.is_empty(), "failed runs must not populate the cache");
        }
    }

    #[test]
    fn cache_hit_never_masks_a_tampered_artefact() {
        let (mut checks, mut rng) = proof_fixture(2);
        let mut cache = AuditCache::new();
        verify_lineage(&checks, &mut cache, VerifyMode::Serial, &mut rng).unwrap();
        // Tamper with a cached check's statement: digest changes → miss →
        // fresh verification → rejection.
        checks[1].publics[0] += Fr::ONE;
        let err =
            verify_lineage(&checks, &mut cache, VerifyMode::Batched, &mut rng).unwrap_err();
        assert_eq!(err.node, NodeId(1));
    }
}

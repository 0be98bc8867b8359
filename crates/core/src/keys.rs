//! The deployment-wide proving-key registry.
//!
//! `KeyGen(1^λ, R)` is a one-time cost per relation (Fig. 5): the keys are
//! a pure function of the SRS and the circuit's shape, never of a witness
//! or of randomness. A [`KeyRegistry`] therefore holds one entry per shape
//! for a whole deployment — a [`crate::market::Marketplace`], or every
//! shard of a [`crate::shard::ShardedMarketplace`] — and every path that
//! needs a key (publish, transform, audit, the plain / journaled / ZKCP
//! exchange steps, the executor machines) reads it here.
//!
//! A fixed-size relation's keys derive from its circuit's own `sample`
//! under a constant seed, so a lookup needs neither the caller's circuit
//! nor the caller's rng; only `π_p`, keyed by a digest, is derived from the
//! caller's circuit.
//!
//! The registry is never process-global: a second deployment in the same
//! process starts empty, so the executor's first exchange machine ships the
//! same preprocessing job — and the run replays byte for byte — no matter
//! what ran before it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rand::{rngs::StdRng, SeedableRng};
use zkdet_circuits::{
    AggregationCircuit, DuplicationCircuit, EncryptionCircuit, KeyNegotiationCircuit,
    PartitionCircuit,
};
use zkdet_kzg::Srs;
use zkdet_plonk::{CompiledCircuit, Plonk, PlonkError, ProvingKey, VerifyingKey};
use zkdet_telemetry::Registry;

use crate::market::metric;

/// A relation's preprocessed keys, shared by reference: proving jobs carry
/// `pk` to worker threads and lineage checks carry `vk` without copying
/// key material.
#[derive(Clone, Debug)]
pub struct KeyPair {
    /// The proving key `ek`.
    pub pk: Arc<ProvingKey>,
    /// The verifying key `vk`.
    pub vk: Arc<VerifyingKey>,
}

/// What a registry entry is keyed by.
///
/// The fixed relations are keyed by the public sizes their circuit
/// constructors take, and derive from [`Shape::sample`]. `π_p` is generic
/// over the caller's [`zkdet_circuits::exchange::ValidationPredicate`],
/// whose parameters the registry cannot see, so it is keyed by
/// [`CompiledCircuit::shape_digest`] — exactly what preprocessing consumes.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Shape {
    KeyNeg,
    Enc(usize),
    Dup(usize),
    Agg(Vec<usize>),
    Part(Vec<usize>),
    Validation([u8; 32]),
}

/// The seed every fixed shape's sample is drawn under. Any value serves:
/// no key depends on the witness.
const SAMPLE_SEED: u64 = 0;

impl Shape {
    /// The paper's name for the relation, used as the metric label.
    pub(crate) fn relation(&self) -> &'static str {
        match self {
            Shape::KeyNeg => "pi_k",
            Shape::Enc(_) => "pi_e",
            Shape::Dup(_) | Shape::Agg(_) | Shape::Part(_) => "pi_t",
            Shape::Validation(_) => "pi_p",
        }
    }

    /// A satisfied circuit of this shape with a witness drawn from
    /// [`SAMPLE_SEED`] — what a miss preprocesses. `π_p` has no sample: its
    /// circuit is the caller's.
    fn sample(&self) -> Result<CompiledCircuit, PlonkError> {
        let rng = &mut StdRng::seed_from_u64(SAMPLE_SEED);
        Ok(match self {
            Shape::KeyNeg => KeyNegotiationCircuit.sample(rng),
            Shape::Enc(n) => EncryptionCircuit::new(*n).sample(rng),
            Shape::Dup(n) => DuplicationCircuit::new(*n).sample(rng),
            Shape::Agg(lens) => AggregationCircuit::new(lens.clone()).sample(rng),
            Shape::Part(lens) => PartitionCircuit::new(lens.clone()).sample(rng),
            Shape::Validation(_) => return Err(PlonkError::Internal("π_p has no fixed sample")),
        }
        .build())
    }
}

/// `shape → keys` under one deployment's SRS.
pub struct KeyRegistry {
    srs: Arc<Srs>,
    keys: Mutex<BTreeMap<Shape, KeyPair>>,
}

impl KeyRegistry {
    /// An empty registry over the deployment's SRS.
    pub fn new(srs: Arc<Srs>) -> Self {
        KeyRegistry {
            srs,
            keys: Mutex::new(BTreeMap::new()),
        }
    }

    /// The SRS every key here is derived from.
    pub fn srs(&self) -> &Arc<Srs> {
        &self.srs
    }

    /// The `shape → keys` map. Entries are only ever inserted whole, so a
    /// panic while it was held leaves it consistent: a poisoned lock is
    /// recovered rather than propagated.
    fn entries(&self) -> MutexGuard<'_, BTreeMap<Shape, KeyPair>> {
        self.keys.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of shapes preprocessed so far.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// True until the first shape is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shape's keys if they are ready — uncounted, for a caller polling
    /// on a derivation it already counted as a miss.
    pub(crate) fn get(&self, shape: &Shape) -> Option<KeyPair> {
        self.entries().get(shape).cloned()
    }

    /// [`Self::get`], counted as a hit or a miss for the shape's relation
    /// in the calling marketplace's `metrics`.
    pub(crate) fn lookup(&self, shape: &Shape, metrics: &Registry) -> Option<KeyPair> {
        let keys = self.get(shape);
        let outcome = if keys.is_some() {
            metric::KEYS_HIT
        } else {
            metric::KEYS_MISS
        };
        metrics.counter_add(&format!("{outcome}.{}", shape.relation()), 1);
        keys
    }

    /// A fixed shape's keys, preprocessing the shape's sample on a miss.
    pub(crate) fn keys(&self, shape: Shape, metrics: &Registry) -> Result<KeyPair, PlonkError> {
        if let Some(keys) = self.lookup(&shape, metrics) {
            return Ok(keys);
        }
        let keys = Self::derive(&self.srs, &shape.sample()?)?;
        Ok(self.insert(shape, keys))
    }

    /// Stores `keys` for `shape` unless an entry exists, and returns the
    /// entry now in force — so every holder of a shape sees one allocation.
    pub(crate) fn insert(&self, shape: Shape, keys: KeyPair) -> KeyPair {
        self.entries().entry(shape).or_insert(keys).clone()
    }

    /// `KeyGen` itself — the one place this crate preprocesses a circuit.
    /// An associated function so the executor can run it on a worker
    /// thread and [`Self::insert`] the result from the control thread.
    pub(crate) fn derive(srs: &Srs, circuit: &CompiledCircuit) -> Result<KeyPair, PlonkError> {
        let (pk, vk) = Plonk::preprocess(srs, circuit)?;
        Ok(KeyPair {
            pk: Arc::new(pk),
            vk: Arc::new(vk),
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use zkdet_crypto::commitment::{Commitment, CommitmentScheme, Opening};
    use zkdet_crypto::mimc::MimcCtr;
    use zkdet_field::Fr;

    use super::*;
    use crate::shard::ShardedMarketplace;
    use crate::{Dataset, Marketplace};

    #[test]
    fn shards_share_keys_and_deployments_do_not() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let sharded = ShardedMarketplace::bootstrap(2, 1 << 11, 4, &mut rng).unwrap();
        let (a, b) = (&sharded.shard(0).market, &sharded.shard(1).market);
        assert!(Arc::ptr_eq(a.key_registry(), b.key_registry()));
        assert!(Arc::ptr_eq(&a.srs, &b.srs));

        // π_k: shard 0's bootstrap derived it, shard 1's found it.
        assert!(Arc::ptr_eq(&a.keyneg.pk, &b.keyneg.pk));
        assert!(Arc::ptr_eq(&a.keyneg.vk, &b.keyneg.vk));
        let miss = format!("{}.pi_k", metric::KEYS_MISS);
        let hit = format!("{}.pi_k", metric::KEYS_HIT);
        assert_eq!(
            (
                a.metrics().counter_value(&miss),
                a.metrics().counter_value(&hit)
            ),
            (1, 0)
        );
        assert_eq!(
            (
                b.metrics().counter_value(&miss),
                b.metrics().counter_value(&hit)
            ),
            (0, 1)
        );

        // Enc(n): whichever shard asks first derives it for both.
        let on_b = b.key_registry().keys(Shape::Enc(1), b.metrics()).unwrap();
        let on_a = a.key_registry().keys(Shape::Enc(1), a.metrics()).unwrap();
        assert!(Arc::ptr_eq(&on_a.pk, &on_b.pk));
        assert!(Arc::ptr_eq(&on_a.vk, &on_b.vk));
        assert_eq!(sharded.keys.len(), 2);

        // A second deployment shares nothing.
        let other = ShardedMarketplace::bootstrap(1, 1 << 11, 4, &mut rng).unwrap();
        let c = &other.shard(0).market;
        assert!(!Arc::ptr_eq(c.key_registry(), a.key_registry()));
        assert!(!Arc::ptr_eq(&c.keyneg.pk, &a.keyneg.pk));
        assert_eq!(other.keys.len(), 1);
    }

    /// The circuit `shape`'s protocol step synthesizes over real data:
    /// consecutive small entries and live commitments, as the marketplace
    /// and the exchange build them.
    fn protocol_circuit(shape: &Shape, rng: &mut StdRng) -> CompiledCircuit {
        let data = |n: usize| Dataset::from_entries((1..=n as u64).map(Fr::from).collect());
        let commit = |d: &Dataset, rng: &mut StdRng| CommitmentScheme::commit(d.entries(), rng);
        match shape {
            Shape::KeyNeg => {
                let (key, buyer_key) = (Fr::from(7u64), Fr::from(11u64));
                let (c, o) = CommitmentScheme::commit_scalar(key, rng);
                KeyNegotiationCircuit.synthesize(key, buyer_key, &c, &o)
            }
            Shape::Enc(n) => {
                let d = data(*n);
                let key = Fr::from(5u64);
                let ct = MimcCtr::new(key, Fr::from(9u64)).encrypt(d.entries());
                let (c, o) = commit(&d, rng);
                EncryptionCircuit::new(*n).synthesize(d.entries(), key, &ct, &c, &o)
            }
            Shape::Dup(n) => {
                let d = data(*n);
                let (c_s, o_s) = commit(&d, rng);
                let (c_d, o_d) = commit(&d, rng);
                DuplicationCircuit::new(*n).synthesize(d.entries(), &c_s, &o_s, &c_d, &o_d)
            }
            Shape::Agg(lens) => {
                let sources: Vec<Dataset> = lens.iter().map(|n| data(*n)).collect();
                let commits: Vec<(Commitment, Opening)> =
                    sources.iter().map(|s| commit(s, rng)).collect();
                let (c_d, o_d) = commit(&Dataset::concat(&sources), rng);
                let entries: Vec<Vec<Fr>> = sources.iter().map(|s| s.entries().to_vec()).collect();
                AggregationCircuit::new(lens.clone()).synthesize(&entries, &commits, &c_d, &o_d)
            }
            Shape::Part(lens) => {
                let source = data(lens.iter().sum());
                let (c_s, o_s) = commit(&source, rng);
                let parts: Vec<(Commitment, Opening)> =
                    source.split(lens).iter().map(|p| commit(p, rng)).collect();
                PartitionCircuit::new(lens.clone()).synthesize(source.entries(), &c_s, &o_s, &parts)
            }
            Shape::Validation(_) => panic!("π_p has no fixed shape"),
        }
    }

    #[test]
    fn every_fixed_shape_samples_the_protocol_circuit() {
        let mut rng = StdRng::seed_from_u64(0x5a3b1e);
        let shapes = [
            Shape::KeyNeg,
            Shape::Enc(1),
            Shape::Enc(3),
            Shape::Dup(1),
            Shape::Dup(2),
            Shape::Agg(vec![1, 2]),
            Shape::Agg(vec![2, 1, 1]),
            Shape::Part(vec![1, 1]),
            Shape::Part(vec![1, 2]),
        ];
        for shape in &shapes {
            let sampled = shape.sample().unwrap();
            assert!(sampled.is_satisfied(), "{shape:?}");
            assert_eq!(
                sampled.shape_digest(),
                protocol_circuit(shape, &mut rng).shape_digest(),
                "{shape:?}"
            );
        }
        assert!(Shape::Validation([0; 32]).sample().is_err());
    }

    #[test]
    fn poisoned_registry_is_recovered() {
        let mut rng = StdRng::seed_from_u64(0x9015);
        let m = Marketplace::bootstrap(1 << 11, 4, &mut rng).unwrap();
        let registry = m.key_registry();
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = registry.entries();
            panic!("poison the key registry");
        }));
        assert!(poisoned.is_err());
        assert!(registry.keys.is_poisoned());
        // π_k, derived at bootstrap, is still served from the entry in force.
        assert_eq!(registry.len(), 1);
        let keyneg = registry.keys(Shape::KeyNeg, m.metrics()).unwrap();
        assert!(Arc::ptr_eq(&keyneg.pk, &m.keyneg.pk));
        let hit = format!("{}.pi_k", metric::KEYS_HIT);
        assert_eq!(m.metrics().counter_value(&hit), 1);
    }

    #[test]
    fn warm_audit_draws_no_randomness() {
        let mut rng = StdRng::seed_from_u64(0xa0d17);
        let mut m = Marketplace::bootstrap(1 << 13, 4, &mut rng).unwrap();
        let mut owner = m.register();
        let data =
            |entries: &[u64]| Dataset::from_entries(entries.iter().map(|e| Fr::from(*e)).collect());
        let a = m
            .publish_original(&mut owner, data(&[1, 2]), &mut rng)
            .unwrap();
        let b = m
            .publish_original(&mut owner, data(&[3]), &mut rng)
            .unwrap();
        let merged = m.aggregate(&mut owner, &[a, b], &mut rng).unwrap();
        let parts = m.partition(&mut owner, merged, &[2, 1], &mut rng).unwrap();
        let copy = m.duplicate(&mut owner, parts[0], &mut rng).unwrap();
        m.audit_token(copy, &mut rng).unwrap();

        // Warm: every key is derived and every proof is a cache hit.
        let untouched = rng.clone();
        let (hits, misses) = (m.audit_cache().hits(), m.audit_cache().misses());
        let report = m.audit_token(copy, &mut rng).unwrap();
        let proofs = report.verified_tokens.len() + report.transform_edges;
        assert_eq!(m.audit_cache().hits() - hits, proofs as u64);
        assert_eq!(m.audit_cache().misses(), misses);
        assert_eq!(format!("{rng:?}"), format!("{untouched:?}"));
    }
}

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
//! The registry is never process-global: a second deployment in the same
//! process starts empty, so the executor's first exchange machine ships the
//! same preprocessing job — and the run replays byte for byte — no matter
//! what ran before it.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
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
/// constructors take, so a lookup needs no synthesis. `π_p` is generic over
/// the caller's [`zkdet_circuits::exchange::ValidationPredicate`], whose
/// parameters the registry cannot see, so it is keyed by
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

    /// Number of shapes preprocessed so far.
    pub fn len(&self) -> usize {
        self.keys.lock().len()
    }

    /// True until the first shape is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shape's keys if they are ready — uncounted, for a caller polling
    /// on a derivation it already counted as a miss.
    pub(crate) fn get(&self, shape: &Shape) -> Option<KeyPair> {
        self.keys.lock().get(shape).cloned()
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

    /// The shape's keys, preprocessing `synthesize()`'s circuit on a miss.
    pub(crate) fn get_or_derive<C: Borrow<CompiledCircuit>>(
        &self,
        shape: Shape,
        metrics: &Registry,
        synthesize: impl FnOnce() -> C,
    ) -> Result<KeyPair, PlonkError> {
        if let Some(keys) = self.lookup(&shape, metrics) {
            return Ok(keys);
        }
        let keys = Self::derive(&self.srs, synthesize().borrow())?;
        Ok(self.insert(shape, keys))
    }

    /// Stores `keys` for `shape` unless an entry exists, and returns the
    /// entry now in force — so every holder of a shape sees one allocation.
    pub(crate) fn insert(&self, shape: Shape, keys: KeyPair) -> KeyPair {
        self.keys.lock().entry(shape).or_insert(keys).clone()
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
    use rand::{rngs::StdRng, SeedableRng};

    use super::*;
    use crate::shard::ShardedMarketplace;

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
        let on_b = b.enc_keys(1, &mut rng).unwrap();
        let on_a = a.enc_keys(1, &mut rng).unwrap();
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
}

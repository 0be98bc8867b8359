//! Circuits for the key-secure two-phase exchange protocol (§IV-F).
//!
//! * [`ValidationCircuit`] — the data-validation relation behind `π_p`:
//!   `φ(D) = 1 ∧ Open(D, c_d, o_d) = 1`. The encryption conjunct of the
//!   paper's `π_p` is supplied by the *reused* `π_e`
//!   ([`crate::EncryptionCircuit`]) through the shared commitment `c_d` —
//!   the CP-NIZK composition the paper highlights at the end of §IV-F.
//! * [`KeyNegotiationCircuit`] — the `π_k` relation:
//!   `Open(k, c, o) = 1 ∧ h_v = H(k_v) ∧ k_c = k + k_v`, which lets the
//!   arbiter verify the blinded key `k_c` without ever learning `k`.

use rand::Rng;
use zkdet_crypto::commitment::{Commitment, CommitmentScheme, Opening};
use zkdet_crypto::poseidon::Poseidon;
use zkdet_field::{Field, Fr};
use zkdet_plonk::{CircuitBuilder, CompiledCircuit, Variable};

use crate::gadgets::{assert_range, poseidon_commit, vec_sum, Fixed};

/// A pluggable public predicate `φ` over the plaintext dataset.
///
/// Implementations add constraints over the dataset wires and may expose
/// additional public inputs (appended after `c_d` in the statement).
pub trait ValidationPredicate {
    /// Adds the predicate constraints; called once during synthesis.
    fn synthesize(&self, b: &mut CircuitBuilder, data: &[Variable]);

    /// Public-input values this predicate contributes, in order.
    fn public_values(&self) -> Vec<Fr>;

    /// Human-readable predicate name (for NFT metadata / auction listings).
    fn describe(&self) -> String;
}

/// `φ`: every entry fits in `k` bits (e.g. "all readings are valid u32s").
#[derive(Clone, Copy, Debug)]
pub struct RangePredicate {
    /// Bit width each entry must fit.
    pub bits: usize,
}

impl ValidationPredicate for RangePredicate {
    fn synthesize(&self, b: &mut CircuitBuilder, data: &[Variable]) {
        for d in data {
            assert_range(b, *d, self.bits);
        }
    }

    fn public_values(&self) -> Vec<Fr> {
        vec![]
    }

    fn describe(&self) -> String {
        format!("every entry < 2^{}", self.bits)
    }
}

/// `φ`: the dataset sums to a publicly claimed total (e.g. an aggregate
/// statistic the seller advertises).
#[derive(Clone, Copy, Debug)]
pub struct SumPredicate {
    /// The advertised sum (public).
    pub total: Fr,
}

impl ValidationPredicate for SumPredicate {
    fn synthesize(&self, b: &mut CircuitBuilder, data: &[Variable]) {
        let fixed: Vec<Fixed> = data.iter().map(|d| Fixed(*d)).collect();
        let s = vec_sum(b, &fixed);
        let total = b.public_input(self.total);
        b.assert_equal(s.0, total);
    }

    fn public_values(&self) -> Vec<Fr> {
        vec![self.total]
    }

    fn describe(&self) -> String {
        "dataset sums to the advertised total".into()
    }
}

/// The `π_p` data-validation circuit: `Open(D, c_d, o_d) = 1 ∧ φ(D) = 1`.
pub struct ValidationCircuit<P: ValidationPredicate> {
    /// Number of dataset entries.
    pub len: usize,
    /// The public predicate.
    pub predicate: P,
}

impl<P: ValidationPredicate> ValidationCircuit<P> {
    /// Shape for `len`-entry datasets under predicate `predicate`.
    pub fn new(len: usize, predicate: P) -> Self {
        ValidationCircuit { len, predicate }
    }

    /// Synthesizes with a concrete witness.
    pub fn synthesize(&self, data: &[Fr], c_d: &Commitment, o_d: &Opening) -> CompiledCircuit {
        self.synthesize_builder(data, c_d, o_d).build()
    }

    /// Synthesizes the constraint system without finalizing it — the
    /// pre-build [`CircuitBuilder`] is what `zkdet-analyzer` analyzes.
    pub fn synthesize_builder(&self, data: &[Fr], c_d: &Commitment, o_d: &Opening) -> CircuitBuilder {
        assert_eq!(data.len(), self.len);
        let mut b = CircuitBuilder::new();
        let c_pub = b.public_input(c_d.0);
        let d: Vec<_> = data.iter().map(|x| b.alloc(*x)).collect();
        let o = b.alloc(o_d.0);
        let c_computed = poseidon_commit(&mut b, &d, o);
        b.assert_equal(c_computed, c_pub);
        self.predicate.synthesize(&mut b, &d);
        b
    }

    /// Public inputs: `[c_d, predicate publics…]`.
    pub fn public_inputs(&self, c_d: &Commitment) -> Vec<Fr> {
        let mut pi = vec![c_d.0];
        pi.extend(self.predicate.public_values());
        pi
    }
}

impl ValidationCircuit<RangePredicate> {
    /// A satisfied instance: random `bits`-bit entries under a fresh commitment.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> CircuitBuilder {
        let shift = 64usize.saturating_sub(self.predicate.bits);
        let mask = u64::MAX.checked_shr(shift as u32).unwrap_or(0);
        let data: Vec<Fr> = (0..self.len)
            .map(|_| Fr::from(rng.gen::<u64>() & mask))
            .collect();
        let (c_d, o_d) = CommitmentScheme::commit(&data, rng);
        self.synthesize_builder(&data, &c_d, &o_d)
    }
}

/// The `π_k` key-negotiation circuit.
///
/// Statement: `(k_c, c, h_v)` — the blinded key, the key commitment held by
/// the arbiter, and the buyer's key-hash.
/// Witness: `(k, k_v, o)`.
/// Relation: `Open(k, c, o) = 1 ∧ h_v = H(k_v) ∧ k_c = k + k_v`.
///
/// This circuit is **independent of the dataset size** — the paper measures
/// a constant ~120 ms proving time for `π_k` (Fig. 6).
#[derive(Clone, Copy, Debug, Default)]
pub struct KeyNegotiationCircuit;

impl KeyNegotiationCircuit {
    /// Synthesizes with a concrete witness.
    pub fn synthesize(
        &self,
        key: Fr,
        buyer_key: Fr,
        key_commitment: &Commitment,
        key_opening: &Opening,
    ) -> CompiledCircuit {
        self.synthesize_builder(key, buyer_key, key_commitment, key_opening)
            .build()
    }

    /// Synthesizes the constraint system without finalizing it — the
    /// pre-build [`CircuitBuilder`] is what `zkdet-analyzer` analyzes.
    pub fn synthesize_builder(
        &self,
        key: Fr,
        buyer_key: Fr,
        key_commitment: &Commitment,
        key_opening: &Opening,
    ) -> CircuitBuilder {
        let k_c_value = key + buyer_key;
        let h_v_value = Poseidon::hash(&[buyer_key]);

        let mut b = CircuitBuilder::new();
        let k_c_pub = b.public_input(k_c_value);
        let c_pub = b.public_input(key_commitment.0);
        let h_v_pub = b.public_input(h_v_value);

        let k = b.alloc(key);
        let k_v = b.alloc(buyer_key);
        let o = b.alloc(key_opening.0);

        // Open(k, c, o) = 1.
        let c_computed = poseidon_commit(&mut b, &[k], o);
        b.assert_equal(c_computed, c_pub);
        // h_v = H(k_v).
        let h_computed = crate::gadgets::poseidon_hash(&mut b, &[k_v]);
        b.assert_equal(h_computed, h_v_pub);
        // k_c = k + k_v.
        let sum = b.add(k, k_v);
        b.assert_equal(sum, k_c_pub);

        b
    }

    /// A satisfied instance: random key, buyer key and blinder.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> CircuitBuilder {
        let key = Fr::random(rng);
        let buyer_key = Fr::random(rng);
        let (c, o) = CommitmentScheme::commit_scalar(key, rng);
        self.synthesize_builder(key, buyer_key, &c, &o)
    }

    /// Public inputs `[k_c, c, h_v]` for a given exchange.
    pub fn public_inputs(k_c: Fr, c: &Commitment, h_v: Fr) -> Vec<Fr> {
        vec![k_c, c.0, h_v]
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use zkdet_kzg::Srs;
    use zkdet_plonk::Plonk;

    #[test]
    fn validation_with_range_predicate() {
        let mut rng = StdRng::seed_from_u64(420);
        let data: Vec<Fr> = (0..4).map(|i| Fr::from(i as u64 * 100)).collect();
        let (c, o) = CommitmentScheme::commit(&data, &mut rng);
        let circuit_shape = ValidationCircuit::new(4, RangePredicate { bits: 16 });
        let circuit = circuit_shape.synthesize(&data, &c, &o);
        let srs = Srs::universal_setup(circuit.rows() + 8, &mut rng);
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
        assert!(Plonk::verify(&vk, &circuit_shape.public_inputs(&c), &proof));
    }

    #[test]
    fn validation_with_sum_predicate() {
        let mut rng = StdRng::seed_from_u64(421);
        let data = vec![Fr::from(10u64), Fr::from(20u64), Fr::from(12u64)];
        let (c, o) = CommitmentScheme::commit(&data, &mut rng);
        let shape = ValidationCircuit::new(3, SumPredicate { total: Fr::from(42u64) });
        let circuit = shape.synthesize(&data, &c, &o);
        let srs = Srs::universal_setup(circuit.rows() + 8, &mut rng);
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
        assert!(Plonk::verify(&vk, &shape.public_inputs(&c), &proof));
        // Advertising a wrong total fails.
        let wrong = ValidationCircuit::new(3, SumPredicate { total: Fr::from(43u64) });
        assert!(!Plonk::verify(&vk, &wrong.public_inputs(&c), &proof));
    }

    #[test]
    fn key_negotiation_end_to_end() {
        let mut rng = StdRng::seed_from_u64(422);
        let k = Fr::random(&mut rng);
        let k_v = Fr::random(&mut rng);
        let (c, o) = CommitmentScheme::commit_scalar(k, &mut rng);
        let circuit = KeyNegotiationCircuit.synthesize(k, k_v, &c, &o);
        assert!(circuit.is_satisfied());
        let srs = Srs::universal_setup(circuit.rows() + 8, &mut rng);
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
        let h_v = Poseidon::hash(&[k_v]);
        assert!(Plonk::verify(
            &vk,
            &KeyNegotiationCircuit::public_inputs(k + k_v, &c, h_v),
            &proof
        ));
        // The buyer recovers k = k_c − k_v.
        assert_eq!((k + k_v) - k_v, k);
    }

    #[test]
    fn key_negotiation_rejects_wrong_blinded_key() {
        // A malicious seller announcing k_c ≠ k + k_v cannot convince the
        // arbiter (buyer-fairness, Theorem 5.2).
        let mut rng = StdRng::seed_from_u64(423);
        let k = Fr::random(&mut rng);
        let k_v = Fr::random(&mut rng);
        let (c, o) = CommitmentScheme::commit_scalar(k, &mut rng);
        let circuit = KeyNegotiationCircuit.synthesize(k, k_v, &c, &o);
        let srs = Srs::universal_setup(circuit.rows() + 8, &mut rng);
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
        let h_v = Poseidon::hash(&[k_v]);
        let bogus_kc = k + k_v + Fr::ONE;
        assert!(!Plonk::verify(
            &vk,
            &KeyNegotiationCircuit::public_inputs(bogus_kc, &c, h_v),
            &proof
        ));
        // And a wrong buyer hash also fails.
        assert!(!Plonk::verify(
            &vk,
            &KeyNegotiationCircuit::public_inputs(k + k_v, &c, h_v + Fr::ONE),
            &proof
        ));
    }

    #[test]
    fn key_negotiation_circuit_size_is_constant() {
        // Structural: π_k does not depend on any dataset — tiny and fixed.
        let mut rng = StdRng::seed_from_u64(424);
        let k = Fr::random(&mut rng);
        let (c, o) = CommitmentScheme::commit_scalar(k, &mut rng);
        let c1 = KeyNegotiationCircuit.synthesize(k, Fr::from(1u64), &c, &o);
        let c2 = KeyNegotiationCircuit.synthesize(k, Fr::from(999u64), &c, &o);
        assert_eq!(c1.rows(), c2.rows());
        assert!(c1.rows() <= 4096, "π_k stays small: {} rows", c1.rows());
    }
}

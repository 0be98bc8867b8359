//! A from-scratch PLONK proof system over BN254.
//!
//! This is the NIZK Π = (KeyGen, Prove, Verify) of the paper (§II-C),
//! instantiated as in §VI-A: the PLONK arithmetisation (selector gates +
//! copy permutation), KZG polynomial commitments under a universal SRS, and
//! a SHA-256 Fiat–Shamir transcript. Proofs contain exactly **9 G₁ points
//! and 6 scalar-field elements** (≈ 2.4 KB uncompressed), and verification
//! does a constant amount of work — 2 pairings plus a handful of group
//! operations — matching the succinctness claims evaluated in Fig. 7.
//!
//! # Example
//!
//! ```rust
//! use zkdet_plonk::{CircuitBuilder, Plonk};
//! use zkdet_field::Fr;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Prove knowledge of x with x³ + x + 5 = 35 (x = 3).
//! let mut builder = CircuitBuilder::new();
//! let x = builder.alloc(Fr::from(3u64));
//! let x2 = builder.mul(x, x);
//! let x3 = builder.mul(x2, x);
//! let t = builder.add(x3, x);
//! let t = builder.add_const(t, Fr::from(5u64));
//! let out = builder.public_input(Fr::from(35u64));
//! builder.assert_equal(t, out);
//! let circuit = builder.build();
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let srs = zkdet_kzg::Srs::universal_setup(64, &mut rng);
//! let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
//! let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
//! assert!(Plonk::verify(&vk, &[Fr::from(35u64)], &proof));
//! ```

#![forbid(unsafe_code)]

mod builder;
mod preprocess;
mod proof;
mod prover;
mod transcript;
mod verifier;

pub use builder::{CircuitBuilder, CompiledCircuit, GateView, Variable};
pub use preprocess::{PlonkError, ProvingKey, VerifyingKey};
pub use proof::Proof;
pub use transcript::Transcript;

/// Namespace struct bundling the three NIZK algorithms.
///
/// * [`Plonk::preprocess`] — `KeyGen(1^λ, R)`: derives `(ek, vk)` from the
///   universal SRS and the circuit (one-time per relation, reusable —
///   Fig. 5's measured cost),
/// * [`Plonk::prove`] — `Prove(ek, x, w)` (Fig. 6 / Table I),
/// * [`Plonk::verify`] — `Verify(vk, x, π)` (Fig. 7).
#[derive(Debug, Clone, Copy)]
pub struct Plonk;

impl Plonk {
    /// Preprocesses a circuit into proving and verifying keys.
    ///
    /// # Errors
    ///
    /// Fails if the circuit (padded to a power of two, with 8 extra rows of
    /// blinding slack) does not fit the SRS degree or the field's 2-adic
    /// FFT bound.
    pub fn preprocess(
        srs: &zkdet_kzg::Srs,
        circuit: &CompiledCircuit,
    ) -> Result<(ProvingKey, VerifyingKey), PlonkError> {
        preprocess::preprocess(srs, circuit)
    }

    /// Produces a proof for the circuit's witness.
    ///
    /// # Errors
    ///
    /// Fails if the witness does not satisfy the circuit.
    pub fn prove<R: rand::Rng + ?Sized>(
        pk: &ProvingKey,
        circuit: &CompiledCircuit,
        rng: &mut R,
    ) -> Result<Proof, PlonkError> {
        prover::prove(pk, circuit, rng)
    }

    /// Verifies a proof against the public inputs. Constant-time in the
    /// circuit size (up to the `O(ℓ)` public-input folding).
    pub fn verify(vk: &VerifyingKey, public_inputs: &[zkdet_field::Fr], proof: &Proof) -> bool {
        zkdet_telemetry::counter_add("zkdet.plonk.verify.calls", 1);
        verifier::verify(vk, public_inputs, proof)
    }

    /// Verifies many `(vk, publics, proof)` triples with **one** pairing
    /// check and one MSM per side of it, folding the individual equations
    /// with weights drawn from a transcript over the whole batch and 32
    /// bytes of `rng` (a batch of one draws nothing and costs what
    /// [`Plonk::verify`] costs). All keys must come from the same SRS.
    /// Sound up to a ~`1/r` soundness slack per batch; an auditor walking
    /// a long provenance chain (Fig. 3) uses this to amortise both the
    /// pairings and the "18 exponentiations".
    pub fn batch_verify<R: rand::Rng + ?Sized>(
        items: &[(&VerifyingKey, &[zkdet_field::Fr], &Proof)],
        rng: &mut R,
    ) -> bool {
        verifier::batch_verify(items, rng)
    }
}

/// First coset representative `k₁` for the wire-b permutation column.
pub(crate) fn coset_k1() -> zkdet_field::Fr {
    zkdet_field::Fr::generator()
}

/// Second coset representative `k₂` for the wire-c permutation column.
pub(crate) fn coset_k2() -> zkdet_field::Fr {
    use zkdet_field::Field;
    zkdet_field::Fr::generator().square()
}

//! The proof-of-encryption relation `π_e` (paper §IV-B, steps 1 and 3).
//!
//! Statement: `(Ĉ, nonce, c)` — public ciphertext blocks, CTR nonce, and a
//! Poseidon commitment to the plaintext.
//! Witness: `(M, k, o)` — plaintext blocks, MiMC key, commitment blinder.
//! Relation: `ĉᵢ = mᵢ + MiMC_k(nonce + i)  ∀i  ∧  Open(M, c, o) = 1`.
//!
//! Once produced for a dataset, this proof is *reused* by every subsequent
//! transformation and by the exchange protocol (the decoupling optimisation
//! of §IV-B) — the dataset is referenced through its commitment everywhere
//! else.

use rand::Rng;
use zkdet_crypto::commitment::{Commitment, CommitmentScheme, Opening};
use zkdet_crypto::mimc::{Ciphertext, MimcCtr};
use zkdet_field::{Field, Fr};
use zkdet_plonk::{CircuitBuilder, CompiledCircuit};

use crate::gadgets::{mimc_ctr_encrypt, poseidon_commit};

/// Builder for `π_e` circuits over datasets of a fixed block count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EncryptionCircuit {
    /// Number of plaintext blocks (structural parameter).
    pub num_blocks: usize,
}

impl EncryptionCircuit {
    /// A `π_e` circuit shape for `num_blocks`-block datasets.
    pub fn new(num_blocks: usize) -> Self {
        EncryptionCircuit { num_blocks }
    }

    /// Synthesizes the circuit with a concrete witness.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext length does not match the circuit shape or
    /// the ciphertext does not actually encrypt the plaintext (the
    /// resulting circuit would be unsatisfiable).
    pub fn synthesize(
        &self,
        plaintext: &[Fr],
        key: Fr,
        ciphertext: &Ciphertext,
        commitment: &Commitment,
        opening: &Opening,
    ) -> CompiledCircuit {
        self.synthesize_builder(plaintext, key, ciphertext, commitment, opening)
            .build()
    }

    /// Synthesizes the constraint system without finalizing it — the
    /// pre-build [`CircuitBuilder`] is what `zkdet-analyzer` analyzes.
    pub fn synthesize_builder(
        &self,
        plaintext: &[Fr],
        key: Fr,
        ciphertext: &Ciphertext,
        commitment: &Commitment,
        opening: &Opening,
    ) -> CircuitBuilder {
        assert_eq!(plaintext.len(), self.num_blocks, "plaintext length mismatch");
        assert_eq!(
            ciphertext.blocks.len(),
            self.num_blocks,
            "ciphertext length mismatch"
        );
        let mut b = CircuitBuilder::new();
        // Public: ciphertext blocks, then the commitment, then the nonce.
        let ct_pub: Vec<_> = ciphertext
            .blocks
            .iter()
            .map(|c| b.public_input(*c))
            .collect();
        let c_pub = b.public_input(commitment.0);
        let nonce_pub = b.public_input(ciphertext.nonce);

        // Witness.
        let m: Vec<_> = plaintext.iter().map(|x| b.alloc(*x)).collect();
        let k = b.alloc(key);
        let o = b.alloc(opening.0);

        // Encryption consistency (the nonce is the public-input wire, so
        // the circuit structure — and hence the keys — are nonce-agnostic).
        let ct = mimc_ctr_encrypt(&mut b, k, nonce_pub, &m);
        for (computed, public) in ct.iter().zip(&ct_pub) {
            b.assert_equal(*computed, *public);
        }
        // Commitment consistency: Open(M, c, o) = 1.
        let c_computed = poseidon_commit(&mut b, &m, o);
        b.assert_equal(c_computed, c_pub);

        b
    }

    /// A satisfied instance: random plaintext, key, nonce and blinder.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> CircuitBuilder {
        let plaintext: Vec<Fr> = (0..self.num_blocks).map(|_| Fr::random(rng)).collect();
        let key = Fr::random(rng);
        let nonce = Fr::random(rng);
        let ct = MimcCtr::new(key, nonce).encrypt(&plaintext);
        let (c, o) = CommitmentScheme::commit(&plaintext, rng);
        self.synthesize_builder(&plaintext, key, &ct, &c, &o)
    }

    /// The public-input vector a verifier should check a `π_e` proof
    /// against.
    pub fn public_inputs(&self, ciphertext: &Ciphertext, commitment: &Commitment) -> Vec<Fr> {
        let mut pi = ciphertext.blocks.clone();
        pi.push(commitment.0);
        pi.push(ciphertext.nonce);
        pi
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use zkdet_kzg::Srs;
    use zkdet_plonk::Plonk;

    fn encrypt_and_commit(
        n: usize,
        rng: &mut StdRng,
    ) -> (Vec<Fr>, Fr, Ciphertext, Commitment, Opening) {
        let plaintext: Vec<Fr> = (0..n).map(|_| Fr::random(rng)).collect();
        let key = Fr::random(rng);
        let nonce = Fr::random(rng);
        let ct = MimcCtr::new(key, nonce).encrypt(&plaintext);
        let (c, o) = CommitmentScheme::commit(&plaintext, rng);
        (plaintext, key, ct, c, o)
    }

    #[test]
    fn proof_of_encryption_end_to_end() {
        let mut rng = StdRng::seed_from_u64(400);
        let (m, k, ct, c, o) = encrypt_and_commit(3, &mut rng);
        let shape = EncryptionCircuit::new(3);
        let circuit = shape.synthesize(&m, k, &ct, &c, &o);
        assert!(circuit.is_satisfied());

        let srs = Srs::universal_setup(circuit.rows() + 8, &mut rng);
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
        assert!(Plonk::verify(&vk, &shape.public_inputs(&ct, &c), &proof));
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let mut rng = StdRng::seed_from_u64(401);
        let (m, k, ct, c, o) = encrypt_and_commit(2, &mut rng);
        let shape = EncryptionCircuit::new(2);
        let circuit = shape.synthesize(&m, k, &ct, &c, &o);
        let srs = Srs::universal_setup(circuit.rows() + 8, &mut rng);
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();

        // A third party substituting a different ciphertext must fail.
        let mut bad_ct = ct.clone();
        bad_ct.blocks[1] += Fr::ONE;
        assert!(!Plonk::verify(&vk, &shape.public_inputs(&bad_ct, &c), &proof));
        // A wrong commitment must fail.
        let bad_c = Commitment(c.0 + Fr::ONE);
        assert!(!Plonk::verify(&vk, &shape.public_inputs(&ct, &bad_c), &proof));
    }

    #[test]
    fn wrong_key_witness_is_unsatisfiable() {
        let mut rng = StdRng::seed_from_u64(402);
        let (m, k, ct, c, o) = encrypt_and_commit(2, &mut rng);
        // Synthesizing with a wrong key panics the builder's gate check in
        // debug; in release the circuit is simply unsatisfiable.
        let result = std::panic::catch_unwind(|| {
            let shape = EncryptionCircuit::new(2);
            let circuit = shape.synthesize(&m, k + Fr::ONE, &ct, &c, &o);
            circuit.is_satisfied()
        });
        // Err means the debug_assert caught it at synthesis time.
        if let Ok(satisfied) = result {
            assert!(!satisfied);
        }
    }
}

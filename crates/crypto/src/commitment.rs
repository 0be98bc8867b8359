//! The commitment scheme `Γ = (Commit, Open)` of paper §II-B.
//!
//! `Commit(m) = (Poseidon(m ‖ o), o)` with a uniformly random blinder `o`.
//! *Hiding* follows from the sponge behaving as a random oracle on the
//! unknown blinder; *binding* from collision resistance. The same
//! commitment is re-computed inside circuits with the Poseidon gadget, which
//! is what makes the CP-NIZK composition of §IV-B possible: every proof
//! shares the dataset through its commitment.

use rand::Rng;
use zkdet_field::{Field, Fr};

use crate::poseidon::Poseidon;

/// A commitment value `c ∈ F_r`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Commitment(pub Fr);

/// An opening (blinder) `o ∈ F_r`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Opening(pub Fr);

/// The Poseidon-based vector commitment scheme.
#[derive(Clone, Debug, Default)]
pub struct CommitmentScheme;

impl CommitmentScheme {
    /// Commits to a message vector with a fresh random blinder.
    pub fn commit<R: Rng + ?Sized>(message: &[Fr], rng: &mut R) -> (Commitment, Opening) {
        let opening = Opening(Fr::random(rng));
        (Self::commit_with(message, &opening), opening)
    }

    /// Commits with a caller-chosen blinder (deterministic; used by provers
    /// that must re-derive the commitment inside a circuit).
    pub fn commit_with(message: &[Fr], opening: &Opening) -> Commitment {
        let mut input = Vec::with_capacity(message.len() + 1);
        input.extend_from_slice(message);
        input.push(opening.0);
        Commitment(Poseidon::hash(&input))
    }

    /// Verifies an opening: `Open(m, c, o) = 1` in the paper's notation.
    pub fn open(message: &[Fr], commitment: &Commitment, opening: &Opening) -> bool {
        Self::commit_with(message, opening) == *commitment
    }

    /// Commits to a single field element (e.g. an encryption key).
    pub fn commit_scalar<R: Rng + ?Sized>(value: Fr, rng: &mut R) -> (Commitment, Opening) {
        Self::commit(&[value], rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn commit_open_roundtrip() {
        let mut rng = StdRng::seed_from_u64(90);
        let msg: Vec<Fr> = (0..10).map(|_| Fr::random(&mut rng)).collect();
        let (c, o) = CommitmentScheme::commit(&msg, &mut rng);
        assert!(CommitmentScheme::open(&msg, &c, &o));
    }

    #[test]
    fn open_rejects_wrong_message() {
        let mut rng = StdRng::seed_from_u64(91);
        let msg: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
        let (c, o) = CommitmentScheme::commit(&msg, &mut rng);
        let mut tampered = msg.clone();
        tampered[2] += Fr::ONE;
        assert!(!CommitmentScheme::open(&tampered, &c, &o));
    }

    #[test]
    fn open_rejects_wrong_blinder() {
        let mut rng = StdRng::seed_from_u64(92);
        let msg = vec![Fr::from(42u64)];
        let (c, _) = CommitmentScheme::commit(&msg, &mut rng);
        assert!(!CommitmentScheme::open(
            &msg,
            &c,
            &Opening(Fr::from(123u64))
        ));
    }

    #[test]
    fn commitments_hide_equal_messages() {
        // Same message, different randomness ⇒ different commitments.
        let mut rng = StdRng::seed_from_u64(93);
        let msg = vec![Fr::from(7u64)];
        let (c1, _) = CommitmentScheme::commit(&msg, &mut rng);
        let (c2, _) = CommitmentScheme::commit(&msg, &mut rng);
        assert_ne!(c1, c2);
    }

    #[test]
    fn vector_length_is_bound() {
        // A commitment to [x] can't open as [x, 0].
        let mut rng = StdRng::seed_from_u64(94);
        let (c, o) = CommitmentScheme::commit(&[Fr::ONE], &mut rng);
        assert!(!CommitmentScheme::open(&[Fr::ONE, Fr::ZERO], &c, &o));
    }
}

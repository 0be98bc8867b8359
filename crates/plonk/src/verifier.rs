//! The PLONK verifier (`Verify(vk, x, π)`).
//!
//! Cost is constant in the circuit size: re-deriving the Fiat–Shamir
//! challenges, `O(ℓ)` field work for the public-input polynomial, a
//! fixed number of G₁ scalar multiplications (the "18 exponentiations"
//! of §VI-B3) and **2 pairings**. The multiplications are never done one
//! by one: `prepare` states the two G₁ sides of the pairing equation as
//! `(scalar, base)` terms, and `check` evaluates each side — of one proof,
//! or of any number folded together — as a single [`zkdet_curve::msm`].

use std::collections::BTreeMap;

use zkdet_curve::{msm, multi_pairing, G1Affine, G1Projective};
use zkdet_field::{Field, Fq12, Fr, PrimeField};

use crate::preprocess::VerifyingKey;
use crate::proof::Proof;
use crate::prover::init_transcript;
use crate::transcript::Transcript;
use crate::{coset_k1, coset_k2};

/// One term `scalar · base` of a G₁ linear combination.
type Term = (Fr, G1Affine);

/// The final pairing equation `e(Σ lhs, [τ]₂) = e(Σ rhs, [1]₂)` of one
/// proof, before any group arithmetic is done.
pub(crate) struct PreparedCheck {
    /// `W_ζ + u·W_ζω`.
    lhs: [Term; 2],
    /// `ζ·W_ζ + uζω·W_ζω + [F] − [E]`, one term per commitment: the eight
    /// of the key, the nine of the proof and the generator.
    rhs: [Term; 18],
    /// The last challenge, which hashes the key, the public inputs and the
    /// whole proof.
    u: Fr,
}

/// Verifies a proof against the public inputs.
pub(crate) fn verify(vk: &VerifyingKey, public_inputs: &[Fr], proof: &Proof) -> bool {
    prepare(vk, public_inputs, proof).is_some_and(|prepared| check(vk, &[prepared], &[Fr::ONE]))
}

/// Batch verification: folds every proof's pairing equation with random
/// weights into a single 2-pairing check. Sound because a random linear
/// combination of non-identities is non-identity except with probability
/// ~1/r; all keys must share the same SRS (`g2`, `tau_g2`).
pub(crate) fn batch_verify<R: rand::Rng + ?Sized>(
    items: &[(&VerifyingKey, &[Fr], &Proof)],
    rng: &mut R,
) -> bool {
    let Some((first, _, _)) = items.first() else {
        return true;
    };
    if !items
        .iter()
        .all(|(vk, _, _)| vk.g2 == first.g2 && vk.tau_g2 == first.tau_g2)
    {
        return false; // mixed SRS — fall back to individual verification
    }
    let Some(prepared) = items
        .iter()
        .map(|(vk, publics, proof)| prepare(vk, publics, proof))
        .collect::<Option<Vec<_>>>()
    else {
        return false;
    };
    let weights = batch_weights(&prepared, rng);
    check(first, &prepared, &weights)
}

/// One folding weight per member of a batch. A lone proof needs none.
///
/// The weights are challenges of a transcript over every member's `u` —
/// so over every key, statement and proof in the batch — and 32 bytes of
/// the caller's randomness: no member can be chosen knowing its weight,
/// whatever the quality of `rng`, and a caller with a good `rng` gets
/// weights no prover could predict.
fn batch_weights<R: rand::Rng + ?Sized>(prepared: &[PreparedCheck], rng: &mut R) -> Vec<Fr> {
    if prepared.len() == 1 {
        return vec![Fr::ONE];
    }
    let mut transcript = Transcript::new(b"zkdet-plonk-batch");
    let us: Vec<Fr> = prepared.iter().map(|p| p.u).collect();
    transcript.absorb_frs(b"u", &us);
    let mut salt = [0u8; 32];
    rng.fill_bytes(&mut salt);
    transcript.absorb_bytes(b"salt", &salt);
    (0..prepared.len())
        .map(|_| transcript.challenge_fr(b"weight"))
        .collect()
}

/// Evaluates `Σᵢ weightᵢ · e(lhsᵢ, [τ]₂) = Σᵢ weightᵢ · e(rhsᵢ, [1]₂)` with
/// one MSM per side and one two-pairing product, under `srs`'s G₂ elements.
fn check(srs: &VerifyingKey, prepared: &[PreparedCheck], weights: &[Fr]) -> bool {
    let lhs = fold(prepared.iter().map(|p| p.lhs.as_slice()), weights);
    let rhs = fold(prepared.iter().map(|p| p.rhs.as_slice()), weights);
    multi_pairing(&[(lhs.to_affine(), srs.tau_g2), ((-rhs).to_affine(), srs.g2)]) == Fq12::ONE
}

/// `Σᵢ weightᵢ · Σ sidesᵢ` as one MSM. Terms over the same base are merged
/// first (proofs under one key share its eight commitments, and every
/// proof the generator); the map is ordered, so the MSM's input does not
/// depend on anything but the batch.
fn fold<'a>(sides: impl Iterator<Item = &'a [Term]>, weights: &[Fr]) -> G1Projective {
    let mut merged: BTreeMap<([u64; 4], [u64; 4]), Term> = BTreeMap::new();
    for (side, weight) in sides.zip(weights) {
        for (scalar, base) in side {
            if base.is_identity() {
                continue;
            }
            let weighted = *weight * *scalar;
            merged
                .entry((base.x.to_canonical(), base.y.to_canonical()))
                .and_modify(|(sum, _)| *sum += weighted)
                .or_insert((weighted, *base));
        }
    }
    let (scalars, bases): (Vec<Fr>, Vec<G1Affine>) = merged.into_values().unzip();
    msm(&bases, &scalars)
}

/// Runs all verifier rounds up to (but excluding) the group arithmetic.
fn prepare(vk: &VerifyingKey, public_inputs: &[Fr], proof: &Proof) -> Option<PreparedCheck> {
    if public_inputs.len() != vk.num_public_inputs {
        return None;
    }
    let n = vk.n;
    // A hostile key may carry an n that is not a valid domain size, or an
    // ℓ exceeding n — both reject, neither may panic.
    let omega = vk.omega()?;
    if vk.num_public_inputs > n {
        return None;
    }
    let (k1, k2) = (coset_k1(), coset_k2());

    // Re-derive the challenges.
    let mut transcript = init_transcript(vk, public_inputs);
    transcript.absorb_g1(b"a", &proof.a.0);
    transcript.absorb_g1(b"b", &proof.b.0);
    transcript.absorb_g1(b"c", &proof.c.0);
    let beta = transcript.challenge_fr(b"beta");
    let gamma = transcript.challenge_fr(b"gamma");
    transcript.absorb_g1(b"z", &proof.z.0);
    let alpha = transcript.challenge_fr(b"alpha");
    transcript.absorb_g1(b"t_lo", &proof.t_lo.0);
    transcript.absorb_g1(b"t_mid", &proof.t_mid.0);
    transcript.absorb_g1(b"t_hi", &proof.t_hi.0);
    let zeta = transcript.challenge_fr(b"zeta");
    transcript.absorb_frs(
        b"evals",
        &[
            proof.a_eval,
            proof.b_eval,
            proof.c_eval,
            proof.sigma1_eval,
            proof.sigma2_eval,
            proof.z_omega_eval,
        ],
    );
    let v = transcript.challenge_fr(b"v");
    transcript.absorb_g1(b"w_zeta", &proof.w_zeta.0);
    transcript.absorb_g1(b"w_zeta_omega", &proof.w_zeta_omega.0);
    let u = transcript.challenge_fr(b"u");

    // Evaluate the vanishing and Lagrange terms at ζ.
    let zeta_n = zeta.pow(&[n as u64, 0, 0, 0]);
    let zh_zeta = zeta_n - Fr::ONE;
    if zh_zeta.is_zero() {
        return None; // ζ landed in the domain (negligible probability)
    }
    let n_fr = Fr::from(n as u64);
    let l1_zeta = zh_zeta * (n_fr * (zeta - Fr::ONE)).inverse()?;

    // PI(ζ) = Σᵢ -xᵢ·Lᵢ(ζ) with Lᵢ(ζ) = ωⁱ·(ζⁿ-1) / (n·(ζ-ωⁱ)).
    let mut pi_zeta = Fr::ZERO;
    if !public_inputs.is_empty() {
        let omega_powers = || std::iter::successors(Some(Fr::ONE), |w| Some(*w * omega));
        let mut denoms: Vec<Fr> = omega_powers()
            .take(public_inputs.len())
            .map(|omega_i| n_fr * (zeta - omega_i))
            .collect();
        Fr::batch_inverse(&mut denoms);
        for ((x, omega_i), inv) in public_inputs.iter().zip(omega_powers()).zip(&denoms) {
            pi_zeta -= *x * omega_i * *inv;
        }
        pi_zeta *= zh_zeta;
    }

    let alpha2 = alpha.square();
    let sigma_factor = alpha
        * (proof.a_eval + beta * proof.sigma1_eval + gamma)
        * (proof.b_eval + beta * proof.sigma2_eval + gamma);

    // r₀ — the constant part of the linearisation polynomial.
    let r0 = pi_zeta
        - alpha2 * l1_zeta
        - sigma_factor * (proof.c_eval + gamma) * proof.z_omega_eval;

    // [D] — the non-constant part, as coefficients of its commitments.
    let z_coeff = alpha
        * (proof.a_eval + beta * zeta + gamma)
        * (proof.b_eval + beta * k1 * zeta + gamma)
        * (proof.c_eval + beta * k2 * zeta + gamma)
        + alpha2 * l1_zeta
        + u; // folds the ζω-opening of z into the same pairing check
    let zeta_chunk = zeta.pow(&[(n + 2) as u64, 0, 0, 0]);

    // [F] = [D] + Σⱼ vʲ·[pⱼ] and [E] = (−r₀ + Σⱼ vʲ·pⱼ(ζ) + u·z(ζω))·G —
    // batched commitment and batched evaluation.
    let v2 = v.square();
    let (v3, v4) = (v2 * v, v2.square());
    let v5 = v4 * v;
    let e_scalar = -r0
        + v * proof.a_eval
        + v2 * proof.b_eval
        + v3 * proof.c_eval
        + v4 * proof.sigma1_eval
        + v5 * proof.sigma2_eval
        + u * proof.z_omega_eval;

    // Final pairing equation:
    // e(W_ζ + u·W_ζω, [τ]₂) = e(ζ·W_ζ + uζω·W_ζω + F - E, [1]₂).
    let lhs = [(Fr::ONE, proof.w_zeta.0), (u, proof.w_zeta_omega.0)];
    let rhs = [
        (proof.a_eval * proof.b_eval, vk.q_m.0),
        (proof.a_eval, vk.q_l.0),
        (proof.b_eval, vk.q_r.0),
        (proof.c_eval, vk.q_o.0),
        (Fr::ONE, vk.q_c.0),
        (z_coeff, proof.z.0),
        (-(sigma_factor * beta * proof.z_omega_eval), vk.sigma3.0),
        (-zh_zeta, proof.t_lo.0),
        (-(zh_zeta * zeta_chunk), proof.t_mid.0),
        (-(zh_zeta * zeta_chunk.square()), proof.t_hi.0),
        (v, proof.a.0),
        (v2, proof.b.0),
        (v3, proof.c.0),
        (v4, vk.sigma1.0),
        (v5, vk.sigma2.0),
        (-e_scalar, G1Affine::generator()),
        (zeta, proof.w_zeta.0),
        (u * zeta * omega, proof.w_zeta_omega.0),
    ];
    Some(PreparedCheck { lhs, rhs, u })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::{batch_weights, fold, prepare, PreparedCheck, Term};
    use crate::{CircuitBuilder, Plonk, Proof, VerifyingKey};
    use rand::{rngs::StdRng, RngCore, SeedableRng};
    use zkdet_curve::{multi_pairing, G1Projective};
    use zkdet_field::{Field, Fq12, Fr};

    /// x³ + x + 5 = y, the classic toy relation.
    fn toy_circuit(x: u64, y: u64) -> crate::CompiledCircuit {
        let mut b = CircuitBuilder::new();
        let x = b.alloc(Fr::from(x));
        let x2 = b.mul(x, x);
        let x3 = b.mul(x2, x);
        let t = b.add(x3, x);
        let t = b.add_const(t, Fr::from(5u64));
        let y = b.public_input(Fr::from(y));
        b.assert_equal(t, y);
        b.build()
    }

    #[test]
    fn proves_and_verifies_toy_circuit() {
        let mut rng = StdRng::seed_from_u64(200);
        let srs = zkdet_kzg::Srs::universal_setup(64, &mut rng);
        let circuit = toy_circuit(3, 35);
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
        assert!(Plonk::verify(&vk, &[Fr::from(35u64)], &proof));
    }

    #[test]
    fn rejects_wrong_public_input() {
        let mut rng = StdRng::seed_from_u64(201);
        let srs = zkdet_kzg::Srs::universal_setup(64, &mut rng);
        let circuit = toy_circuit(3, 35);
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
        assert!(!Plonk::verify(&vk, &[Fr::from(36u64)], &proof));
        assert!(!Plonk::verify(&vk, &[], &proof));
    }

    #[test]
    fn rejects_tampered_proof() {
        let mut rng = StdRng::seed_from_u64(202);
        let srs = zkdet_kzg::Srs::universal_setup(64, &mut rng);
        let circuit = toy_circuit(3, 35);
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
        let pi = [Fr::from(35u64)];

        let mut bad = proof.clone();
        bad.a_eval += Fr::ONE;
        assert!(!Plonk::verify(&vk, &pi, &bad));

        let mut bad = proof.clone();
        bad.z_omega_eval += Fr::ONE;
        assert!(!Plonk::verify(&vk, &pi, &bad));

        let mut bad = proof.clone();
        bad.w_zeta = bad.w_zeta_omega;
        assert!(!Plonk::verify(&vk, &pi, &bad));

        let mut bad = proof.clone();
        std::mem::swap(&mut bad.t_lo, &mut bad.t_hi);
        assert!(!Plonk::verify(&vk, &pi, &bad));
    }

    #[test]
    fn unsatisfied_witness_rejected_at_prove_time() {
        let mut rng = StdRng::seed_from_u64(203);
        let srs = zkdet_kzg::Srs::universal_setup(64, &mut rng);
        // Build an unsatisfiable instance by constructing a satisfied circuit
        // and then corrupting the assignment vector through the test hook.
        let mut circuit = toy_circuit(3, 35);
        circuit.tamper_assignment(1, Fr::from(4u64)); // x := 4 breaks x³+x+5=35
        let (pk, _vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        assert_eq!(
            Plonk::prove(&pk, &circuit, &mut rng),
            Err(crate::PlonkError::UnsatisfiedWitness)
        );
    }

    #[test]
    fn proofs_are_randomised_but_both_verify() {
        let mut rng = StdRng::seed_from_u64(204);
        let srs = zkdet_kzg::Srs::universal_setup(64, &mut rng);
        let circuit = toy_circuit(3, 35);
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        let p1 = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
        let p2 = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
        assert_ne!(p1, p2, "zero-knowledge blinding must randomise proofs");
        assert!(Plonk::verify(&vk, &[Fr::from(35u64)], &p1));
        assert!(Plonk::verify(&vk, &[Fr::from(35u64)], &p2));
    }

    #[test]
    fn different_witnesses_same_statement() {
        // x² = 9 has witnesses x = 3 and x = -3; both must prove.
        let mut rng = StdRng::seed_from_u64(205);
        let srs = zkdet_kzg::Srs::universal_setup(64, &mut rng);
        for x in [Fr::from(3u64), -Fr::from(3u64)] {
            let mut b = CircuitBuilder::new();
            let xv = b.alloc(x);
            let sq = b.mul(xv, xv);
            let out = b.public_input(Fr::from(9u64));
            b.assert_equal(sq, out);
            let circuit = b.build();
            let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
            let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
            assert!(Plonk::verify(&vk, &[Fr::from(9u64)], &proof));
        }
    }

    #[test]
    fn srs_too_small_detected() {
        let mut rng = StdRng::seed_from_u64(206);
        let srs = zkdet_kzg::Srs::universal_setup(8, &mut rng);
        let circuit = toy_circuit(3, 35); // needs n ≥ 8, degree n+5 > 8
        assert!(matches!(
            Plonk::preprocess(&srs, &circuit),
            Err(crate::PlonkError::SrsTooSmall { .. })
        ));
    }

    #[test]
    fn proof_wire_roundtrip() {
        let mut rng = StdRng::seed_from_u64(210);
        let srs = zkdet_kzg::Srs::universal_setup(64, &mut rng);
        let circuit = toy_circuit(3, 35);
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();

        let bytes = proof.to_bytes();
        assert_eq!(bytes.len(), crate::Proof::SIZE_BYTES);
        let back = crate::Proof::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, proof);
        assert!(Plonk::verify(&vk, &[Fr::from(35u64)], &back));

        // Truncation and extension both reject with BadLength.
        use zkdet_curve::WireError;
        assert!(matches!(
            crate::Proof::from_bytes(&bytes[..bytes.len() - 1]),
            Err(WireError::BadLength { .. })
        ));
        let mut extended = bytes.to_vec();
        extended.push(0);
        assert!(matches!(
            crate::Proof::from_bytes(&extended),
            Err(WireError::BadLength { .. })
        ));

        // A non-canonical scalar rejects.
        let mut bad = bytes;
        for b in bad[crate::Proof::SIZE_BYTES - 32..].iter_mut() {
            *b = 0xff;
        }
        assert!(matches!(
            crate::Proof::from_bytes(&bad),
            Err(WireError::NonCanonical(_))
        ));
    }

    #[test]
    fn verifying_key_wire_roundtrip_and_validation() {
        let mut rng = StdRng::seed_from_u64(211);
        let srs = zkdet_kzg::Srs::universal_setup(64, &mut rng);
        let circuit = toy_circuit(3, 35);
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();

        vk.validate().expect("honest vk validates");
        let bytes = vk.to_bytes();
        assert_eq!(bytes.len(), crate::VerifyingKey::SIZE_BYTES);
        let back = crate::VerifyingKey::from_bytes(&bytes).expect("roundtrip");
        assert!(Plonk::verify(&back, &[Fr::from(35u64)], &proof));

        // Hostile n: not a power of two / absurdly large — decode rejects,
        // and a directly-constructed hostile key verifies to false rather
        // than panicking.
        let mut bad = bytes.clone();
        bad[..8].copy_from_slice(&7u64.to_le_bytes());
        assert!(crate::VerifyingKey::from_bytes(&bad).is_err());
        let mut hostile = vk.clone();
        hostile.n = 7;
        assert!(!Plonk::verify(&hostile, &[Fr::from(35u64)], &proof));
        let mut hostile = vk.clone();
        hostile.n = usize::MAX;
        assert!(!Plonk::verify(&hostile, &[Fr::from(35u64)], &proof));

        // Hostile ℓ > n.
        let mut bad = bytes;
        bad[8..16].copy_from_slice(&(vk.n as u64 + 1).to_le_bytes());
        assert!(crate::VerifyingKey::from_bytes(&bad).is_err());
    }

    #[test]
    fn copy_constraints_enforced() {
        // Circuit: public y; private x; constraints x·x = m, m = y (copy).
        // Corrupt the copy by changing the m assignment — prover must fail.
        let mut rng = StdRng::seed_from_u64(207);
        let srs = zkdet_kzg::Srs::universal_setup(64, &mut rng);
        let mut b = CircuitBuilder::new();
        let x = b.alloc(Fr::from(4u64));
        let m = b.mul(x, x);
        let y = b.public_input(Fr::from(16u64));
        b.assert_equal(m, y);
        let mut circuit = b.build();
        // m is the variable allocated by mul() — find it by value.
        let idx = circuit.find_assignment(Fr::from(16u64)).unwrap();
        circuit.tamper_assignment(idx, Fr::from(17u64));
        let (pk, _) = Plonk::preprocess(&srs, &circuit).unwrap();
        assert!(Plonk::prove(&pk, &circuit, &mut rng).is_err());
    }

    type Item = (VerifyingKey, Vec<Fr>, Proof);
    type Side = fn(&PreparedCheck) -> &[Term];
    type Alteration = fn(&mut Item);

    /// `x^(2^squarings) = y` with public `y`: a different key per depth.
    fn repeated_square_circuit(x: u64, squarings: usize) -> crate::CompiledCircuit {
        let mut b = CircuitBuilder::new();
        let mut acc = b.alloc(Fr::from(x));
        for _ in 0..squarings {
            acc = b.mul(acc, acc);
        }
        let y = b.value(acc);
        let y = b.public_input(y);
        b.assert_equal(acc, y);
        b.build()
    }

    /// Five honest proofs under one SRS and three distinct keys: two
    /// statements of the toy relation, two of x² = y, one of x⁴ = y.
    fn honest_batch(seed: u64) -> Vec<Item> {
        let mut rng = StdRng::seed_from_u64(seed);
        let srs = zkdet_kzg::Srs::universal_setup(64, &mut rng);
        let batch: Vec<Item> = [
            toy_circuit(3, 35),
            repeated_square_circuit(3, 1),
            toy_circuit(2, 15),
            repeated_square_circuit(2, 2),
            repeated_square_circuit(5, 1),
        ]
        .iter()
        .map(|circuit| {
            let (pk, vk) = Plonk::preprocess(&srs, circuit).unwrap();
            let proof = Plonk::prove(&pk, circuit, &mut rng).unwrap();
            (vk, circuit.public_values().to_vec(), proof)
        })
        .collect();
        let key = |i: usize| batch[i].0.to_bytes();
        assert!(key(0) == key(2) && key(1) == key(4));
        assert!(key(0) != key(1) && key(1) != key(3) && key(0) != key(3));
        batch
    }

    fn refs(batch: &[Item]) -> Vec<(&VerifyingKey, &[Fr], &Proof)> {
        batch
            .iter()
            .map(|(vk, publics, proof)| (vk, publics.as_slice(), proof))
            .collect()
    }

    fn prepare_all(batch: &[Item]) -> Vec<PreparedCheck> {
        batch
            .iter()
            .map(|(vk, publics, proof)| prepare(vk, publics, proof).unwrap())
            .collect()
    }

    fn naive(terms: &[Term], weight: Fr) -> G1Projective {
        terms
            .iter()
            .fold(G1Projective::identity(), |acc, (scalar, base)| {
                acc + base.to_projective() * (*scalar * weight)
            })
    }

    #[test]
    fn terms_summed_one_by_one_equal_the_msm_on_both_sides() {
        let batch = honest_batch(220);
        let prepared = prepare_all(&batch);
        let one = [Fr::ONE];
        for ((vk, _, _), p) in batch.iter().zip(&prepared) {
            let (lhs, rhs) = (naive(&p.lhs, Fr::ONE), naive(&p.rhs, Fr::ONE));
            assert_eq!(fold(std::iter::once(p.lhs.as_slice()), &one), lhs);
            assert_eq!(fold(std::iter::once(p.rhs.as_slice()), &one), rhs);
            // The terms are those of the pairing equation, not just any.
            assert_eq!(
                multi_pairing(&[(lhs.to_affine(), vk.tau_g2), ((-rhs).to_affine(), vk.g2)]),
                Fq12::ONE
            );
        }

        // Folded: weights applied, equal bases merged.
        let weights = batch_weights(&prepared, &mut StdRng::seed_from_u64(221));
        let sum = |side: Side| {
            prepared
                .iter()
                .zip(&weights)
                .fold(G1Projective::identity(), |acc, (p, w)| {
                    acc + naive(side(p), *w)
                })
        };
        let (lhs, rhs): (Side, Side) = (|p| &p.lhs, |p| &p.rhs);
        assert_eq!(fold(prepared.iter().map(lhs), &weights), sum(lhs));
        assert_eq!(fold(prepared.iter().map(rhs), &weights), sum(rhs));
    }

    #[test]
    fn batch_accepts_honest_members_and_rejects_any_altered_one() {
        let mut rng = StdRng::seed_from_u64(222);
        let batch = honest_batch(223);
        assert!(Plonk::batch_verify(&refs(&batch), &mut rng));

        let alterations: [(&str, Alteration); 4] = [
            ("flipped evaluation", |item| item.2.a_eval += Fr::ONE),
            ("swapped commitments", |item| {
                std::mem::swap(&mut item.2.t_lo, &mut item.2.t_hi)
            }),
            ("wrong public input", |item| item.1[0] += Fr::ONE),
            ("wrong public-input count", |item| item.1.push(Fr::ONE)),
        ];
        for position in 0..batch.len() {
            for (what, alter) in alterations {
                let mut bad = batch.clone();
                alter(&mut bad[position]);
                let (vk, publics, proof) = &bad[position];
                assert!(!Plonk::verify(vk, publics, proof), "{what}");
                assert!(
                    !Plonk::batch_verify(&refs(&bad), &mut rng),
                    "{what} at position {position}"
                );
            }
        }
    }

    #[test]
    fn batch_merges_repeated_members() {
        let mut rng = StdRng::seed_from_u64(224);
        let mut batch = honest_batch(225);
        batch.extend([batch[1].clone(), batch[3].clone(), batch[1].clone()]);
        assert!(Plonk::batch_verify(&refs(&batch), &mut rng));
        // Every copy of a forged member carries its own weight.
        batch[1].2.z_omega_eval += Fr::ONE;
        batch[5] = batch[1].clone();
        batch[7] = batch[1].clone();
        assert!(!Plonk::batch_verify(&refs(&batch), &mut rng));
    }

    #[test]
    fn batch_of_none_passes_and_of_mixed_srs_fails() {
        let mut rng = StdRng::seed_from_u64(226);
        assert!(Plonk::batch_verify(&[], &mut rng));
        let (ours, theirs) = (honest_batch(227), honest_batch(228));
        assert!(Plonk::batch_verify(&refs(&theirs), &mut rng));
        let mixed = [ours[0].clone(), theirs[1].clone()];
        assert!(!Plonk::batch_verify(&refs(&mixed), &mut rng));
    }

    #[test]
    fn batch_of_one_is_a_plain_verify_and_draws_no_randomness() {
        let batch = honest_batch(229);
        let mut forged = batch[0].clone();
        forged.2.b_eval += Fr::ONE;
        let mut rng = StdRng::seed_from_u64(230);
        assert!(Plonk::batch_verify(&refs(&batch[..1]), &mut rng));
        assert!(!Plonk::batch_verify(&refs(&[forged]), &mut rng));
        assert_eq!(rng.next_u64(), StdRng::seed_from_u64(230).next_u64());
        assert_eq!(
            batch_weights(&prepare_all(&batch[..1]), &mut rng),
            [Fr::ONE]
        );
    }

    #[test]
    fn weights_are_bound_to_every_member_and_to_the_rng() {
        let batch = honest_batch(231);
        let weights = |batch: &[Item], seed| {
            batch_weights(&prepare_all(batch), &mut StdRng::seed_from_u64(seed))
        };
        let differ_everywhere =
            |a: &[Fr], b: &[Fr]| a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a != b);
        let honest = weights(&batch, 1);
        assert_eq!(honest.len(), batch.len());
        assert_eq!(honest, weights(&batch, 1));
        for (i, w) in honest.iter().enumerate() {
            assert!(!w.is_zero() && !honest[..i].contains(w));
        }

        // One byte of one proof (inside its last evaluation, so it still
        // decodes) moves every weight, not just that member's.
        let mut altered = batch.clone();
        let mut bytes = altered[3].2.to_bytes();
        bytes[Proof::SIZE_BYTES - 16] ^= 1;
        altered[3].2 = Proof::from_bytes(&bytes).unwrap();
        assert!(differ_everywhere(&honest, &weights(&altered, 1)));

        // So does the statement it is checked against, and the caller's rng.
        let mut altered = batch.clone();
        altered[0].1[0] += Fr::ONE;
        assert!(differ_everywhere(&honest, &weights(&altered, 1)));
        assert!(differ_everywhere(&honest, &weights(&batch, 2)));
    }
}

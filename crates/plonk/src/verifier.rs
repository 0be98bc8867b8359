//! The PLONK verifier (`Verify(vk, x, π)`).
//!
//! Cost is constant in the circuit size: re-deriving the Fiat–Shamir
//! challenges, `O(ℓ)` field work for the public-input polynomial, a
//! fixed number of G₁ scalar multiplications (the "18 exponentiations"
//! of §VI-B3), and **2 pairings**.

use zkdet_curve::{multi_pairing, G1Projective};
use zkdet_field::{Field, Fq12, Fr};

use crate::preprocess::VerifyingKey;
use crate::proof::Proof;
use crate::prover::init_transcript;
use crate::{coset_k1, coset_k2};

/// The two G₁ points of the final pairing equation
/// `e(lhs, [τ]₂)·e(-rhs, [1]₂) = 1`, before the pairing is evaluated.
/// Exposed so several proofs can share one pairing via random folding.
pub(crate) struct PreparedCheck {
    pub lhs: zkdet_curve::G1Projective,
    pub rhs: zkdet_curve::G1Projective,
}

/// Verifies a proof against the public inputs.
pub(crate) fn verify(vk: &VerifyingKey, public_inputs: &[Fr], proof: &Proof) -> bool {
    match prepare(vk, public_inputs, proof) {
        Some(check) => {
            multi_pairing(&[
                (check.lhs.to_affine(), vk.tau_g2),
                ((-check.rhs).to_affine(), vk.g2),
            ]) == Fq12::ONE
        }
        None => false,
    }
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
    let mut lhs = zkdet_curve::G1Projective::identity();
    let mut rhs = zkdet_curve::G1Projective::identity();
    for (vk, publics, proof) in items {
        let Some(check) = prepare(vk, publics, proof) else {
            return false;
        };
        let weight = Fr::random(rng);
        lhs += check.lhs * weight;
        rhs += check.rhs * weight;
    }
    multi_pairing(&[
        (lhs.to_affine(), first.tau_g2),
        ((-rhs).to_affine(), first.g2),
    ]) == Fq12::ONE
}

/// Runs all verifier rounds up to (but excluding) the final pairing.
fn prepare(vk: &VerifyingKey, public_inputs: &[Fr], proof: &Proof) -> Option<PreparedCheck> {
    if public_inputs.len() != vk.num_public_inputs {
        return None;
    }
    let n = vk.n;
    // A hostile key may carry an n that is not a valid domain size, or an
    // ℓ exceeding n — both reject, neither may panic.
    let domain = vk.domain()?;
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
        let mut denoms: Vec<Fr> = (0..public_inputs.len())
            .map(|i| n_fr * (zeta - domain.element(i)))
            .collect();
        Fr::batch_inverse(&mut denoms);
        for (i, x) in public_inputs.iter().enumerate() {
            let l_i = domain.element(i) * zh_zeta * denoms[i];
            pi_zeta -= *x * l_i;
        }
    }

    let alpha2 = alpha.square();
    let sigma_factor = alpha
        * (proof.a_eval + beta * proof.sigma1_eval + gamma)
        * (proof.b_eval + beta * proof.sigma2_eval + gamma);

    // r₀ — the constant part of the linearisation polynomial.
    let r0 = pi_zeta
        - alpha2 * l1_zeta
        - sigma_factor * (proof.c_eval + gamma) * proof.z_omega_eval;

    // [D] — the non-constant part, reconstructed in commitment space.
    let z_coeff = alpha
        * (proof.a_eval + beta * zeta + gamma)
        * (proof.b_eval + beta * k1 * zeta + gamma)
        * (proof.c_eval + beta * k2 * zeta + gamma)
        + alpha2 * l1_zeta
        + u; // folds the ζω-opening of z into the same pairing check
    let zeta_chunk = zeta.pow(&[(n + 2) as u64, 0, 0, 0]);

    let mut d = vk.q_m.0.to_projective() * (proof.a_eval * proof.b_eval);
    d += vk.q_l.0.to_projective() * proof.a_eval;
    d += vk.q_r.0.to_projective() * proof.b_eval;
    d += vk.q_o.0.to_projective() * proof.c_eval;
    d += vk.q_c.0.to_projective();
    d += proof.z.0.to_projective() * z_coeff;
    d -= vk.sigma3.0.to_projective() * (sigma_factor * beta * proof.z_omega_eval);
    let t_combined = proof.t_lo.0.to_projective()
        + proof.t_mid.0.to_projective() * zeta_chunk
        + proof.t_hi.0.to_projective() * zeta_chunk.square();
    d -= t_combined * zh_zeta;

    // [F] and [E] — batched commitment and batched evaluation.
    let mut f = d;
    let mut e_scalar = -r0;
    let mut vp = Fr::ONE;
    for (comm, eval) in [
        (&proof.a, proof.a_eval),
        (&proof.b, proof.b_eval),
        (&proof.c, proof.c_eval),
        (&zkdet_kzg::KzgCommitment(vk.sigma1.0), proof.sigma1_eval),
        (&zkdet_kzg::KzgCommitment(vk.sigma2.0), proof.sigma2_eval),
    ] {
        vp *= v;
        f += comm.0.to_projective() * vp;
        e_scalar += vp * eval;
    }
    e_scalar += u * proof.z_omega_eval;
    let e = G1Projective::generator() * e_scalar;

    // Final pairing equation:
    // e(W_ζ + u·W_ζω, [τ]₂) = e(ζ·W_ζ + uζω·W_ζω + F - E, [1]₂).
    let zeta_omega = zeta * domain.group_gen();
    let lhs = proof.w_zeta.0.to_projective() + proof.w_zeta_omega.0.to_projective() * u;
    let rhs = proof.w_zeta.0.to_projective() * zeta
        + proof.w_zeta_omega.0.to_projective() * (u * zeta_omega)
        + f
        - e;
    Some(PreparedCheck { lhs, rhs })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use crate::{CircuitBuilder, Plonk};
    use rand::{rngs::StdRng, SeedableRng};
    use zkdet_field::{Field, Fr};

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
}

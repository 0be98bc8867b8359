//! Adversarial soundness tests for the PLONK implementation: every way we
//! can think of to forge, splice or replay a proof must fail.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rand::{rngs::StdRng, SeedableRng};
use zkdet_field::{Field, Fr};
use zkdet_kzg::Srs;
use zkdet_plonk::{CircuitBuilder, CompiledCircuit, Plonk, Proof};

fn srs(n: usize, seed: u64) -> Srs {
    let mut rng = StdRng::seed_from_u64(seed);
    Srs::universal_setup(n, &mut rng)
}

/// y = x² with public y.
fn square_circuit(x: u64, y: u64) -> CompiledCircuit {
    let mut b = CircuitBuilder::new();
    let xv = b.alloc(Fr::from(x));
    let sq = b.mul(xv, xv);
    let yv = b.public_input(Fr::from(y));
    b.assert_equal(sq, yv);
    b.build()
}

/// y = x³ with public y (different relation, same public arity).
fn cube_circuit(x: u64, y: u64) -> CompiledCircuit {
    let mut b = CircuitBuilder::new();
    let xv = b.alloc(Fr::from(x));
    let sq = b.mul(xv, xv);
    let cu = b.mul(sq, xv);
    let yv = b.public_input(Fr::from(y));
    b.assert_equal(cu, yv);
    b.build()
}

#[test]
fn proof_for_one_relation_rejected_by_another() {
    let mut rng = StdRng::seed_from_u64(800);
    let srs = srs(64, 800);
    let sq = square_circuit(3, 9);
    let cu = cube_circuit(2, 8);
    let (pk_sq, vk_sq) = Plonk::preprocess(&srs, &sq).unwrap();
    let (_pk_cu, vk_cu) = Plonk::preprocess(&srs, &cu).unwrap();
    let proof = Plonk::prove(&pk_sq, &sq, &mut rng).unwrap();
    assert!(Plonk::verify(&vk_sq, &[Fr::from(9u64)], &proof));
    // Same proof against the cube relation's vk: the selector commitments
    // differ, so the transcript and pairing check both diverge.
    assert!(!Plonk::verify(&vk_cu, &[Fr::from(9u64)], &proof));
    assert!(!Plonk::verify(&vk_cu, &[Fr::from(8u64)], &proof));
}

#[test]
fn every_single_field_tamper_is_caught() {
    let mut rng = StdRng::seed_from_u64(801);
    let srs = srs(64, 801);
    let circuit = square_circuit(5, 25);
    let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
    let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
    let publics = [Fr::from(25u64)];
    assert!(Plonk::verify(&vk, &publics, &proof));

    // Tamper each scalar field individually.
    let scalar_tampers: Vec<fn(&mut Proof)> = vec![
        |p| p.a_eval += Fr::ONE,
        |p| p.b_eval += Fr::ONE,
        |p| p.c_eval += Fr::ONE,
        |p| p.sigma1_eval += Fr::ONE,
        |p| p.sigma2_eval += Fr::ONE,
        |p| p.z_omega_eval += Fr::ONE,
    ];
    for (i, t) in scalar_tampers.iter().enumerate() {
        let mut bad = proof.clone();
        t(&mut bad);
        assert!(!Plonk::verify(&vk, &publics, &bad), "scalar tamper {i}");
    }

    // Tamper each commitment individually (replace with another one).
    let comm_tampers: Vec<fn(&mut Proof)> = vec![
        |p| p.a = p.b,
        |p| p.b = p.c,
        |p| p.c = p.z,
        |p| p.z = p.t_lo,
        |p| p.t_lo = p.t_mid,
        |p| p.t_mid = p.t_hi,
        |p| p.t_hi = p.a,
        |p| p.w_zeta = p.w_zeta_omega,
        |p| p.w_zeta_omega = p.w_zeta,
    ];
    for (i, t) in comm_tampers.iter().enumerate() {
        let mut bad = proof.clone();
        t(&mut bad);
        assert!(!Plonk::verify(&vk, &publics, &bad), "commitment tamper {i}");
    }
}

#[test]
fn proof_replay_across_instances_fails() {
    // Prove y = 9; replay against y = 16 (same relation, other instance).
    let mut rng = StdRng::seed_from_u64(802);
    let srs = srs(64, 802);
    let c9 = square_circuit(3, 9);
    let (pk, vk) = Plonk::preprocess(&srs, &c9).unwrap();
    let proof = Plonk::prove(&pk, &c9, &mut rng).unwrap();
    assert!(Plonk::verify(&vk, &[Fr::from(9u64)], &proof));
    assert!(!Plonk::verify(&vk, &[Fr::from(16u64)], &proof));
}

#[test]
fn zero_public_inputs_work() {
    let mut rng = StdRng::seed_from_u64(803);
    let srs = srs(64, 803);
    let mut b = CircuitBuilder::new();
    let x = b.alloc(Fr::from(6u64));
    let sq = b.mul(x, x);
    b.assert_constant(sq, Fr::from(36u64));
    let circuit = b.build();
    assert_eq!(circuit.num_public_inputs(), 0);
    let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
    let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
    assert!(Plonk::verify(&vk, &[], &proof));
    assert!(!Plonk::verify(&vk, &[Fr::ONE], &proof));
}

#[test]
fn many_public_inputs_roundtrip() {
    let mut rng = StdRng::seed_from_u64(804);
    let srs = srs(256, 804);
    let mut b = CircuitBuilder::new();
    let values: Vec<Fr> = (0..40u64).map(Fr::from).collect();
    let mut acc = b.zero();
    for v in &values {
        let p = b.public_input(*v);
        acc = b.add(acc, p);
    }
    b.assert_constant(acc, values.iter().copied().sum());
    let circuit = b.build();
    let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
    let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
    assert!(Plonk::verify(&vk, &values, &proof));
    // Permuting the public inputs must fail (order is part of the statement).
    let mut swapped = values.clone();
    swapped.swap(3, 7);
    assert!(!Plonk::verify(&vk, &swapped, &proof));
    // Truncating them must fail.
    assert!(!Plonk::verify(&vk, &values[..39], &proof));
}

#[test]
fn blinding_hides_wire_values_across_proofs() {
    // Two proofs of the same circuit share no commitments (statistical
    // zero-knowledge smoke test).
    let mut rng = StdRng::seed_from_u64(806);
    let srs = srs(64, 806);
    let circuit = square_circuit(3, 9);
    let (pk, _) = Plonk::preprocess(&srs, &circuit).unwrap();
    let p1 = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
    let p2 = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
    assert_ne!(p1.a, p2.a);
    assert_ne!(p1.b, p2.b);
    assert_ne!(p1.c, p2.c);
    assert_ne!(p1.z, p2.z);
    assert_ne!(p1.a_eval, p2.a_eval);
    assert_ne!(p1.z_omega_eval, p2.z_omega_eval);
}

#[test]
fn padding_rows_do_not_admit_extra_witnesses() {
    // A circuit with one real constraint padded to 8 rows: the padding
    // must not let a prover satisfy a different statement.
    let mut rng = StdRng::seed_from_u64(807);
    let srs = srs(64, 807);
    let circuit = square_circuit(7, 49);
    let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
    let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
    for wrong in [0u64, 1, 48, 50, 7] {
        assert!(!Plonk::verify(&vk, &[Fr::from(wrong)], &proof));
    }
    assert!(Plonk::verify(&vk, &[Fr::from(49u64)], &proof));
}

#[test]
fn batch_verify_accepts_valid_and_catches_one_bad() {
    let mut rng = StdRng::seed_from_u64(808);
    let srs = srs(64, 808);
    // Three different relations under the same SRS.
    let c1 = square_circuit(3, 9);
    let c2 = cube_circuit(2, 8);
    let c3 = square_circuit(5, 25);
    let (pk1, vk1) = Plonk::preprocess(&srs, &c1).unwrap();
    let (pk2, vk2) = Plonk::preprocess(&srs, &c2).unwrap();
    let (pk3, vk3) = Plonk::preprocess(&srs, &c3).unwrap();
    let p1 = Plonk::prove(&pk1, &c1, &mut rng).unwrap();
    let p2 = Plonk::prove(&pk2, &c2, &mut rng).unwrap();
    let p3 = Plonk::prove(&pk3, &c3, &mut rng).unwrap();
    let x1 = [Fr::from(9u64)];
    let x2 = [Fr::from(8u64)];
    let x3 = [Fr::from(25u64)];

    let all: Vec<(&zkdet_plonk::VerifyingKey, &[Fr], &Proof)> = vec![
        (&vk1, &x1, &p1),
        (&vk2, &x2, &p2),
        (&vk3, &x3, &p3),
    ];
    assert!(Plonk::batch_verify(&all, &mut rng));

    // One tampered proof poisons the whole batch.
    let mut bad = p2.clone();
    bad.a_eval += Fr::ONE;
    let poisoned: Vec<(&zkdet_plonk::VerifyingKey, &[Fr], &Proof)> = vec![
        (&vk1, &x1, &p1),
        (&vk2, &x2, &bad),
        (&vk3, &x3, &p3),
    ];
    assert!(!Plonk::batch_verify(&poisoned, &mut rng));

    // One wrong public input poisons it too.
    let wrong = [Fr::from(10u64)];
    let poisoned2: Vec<(&zkdet_plonk::VerifyingKey, &[Fr], &Proof)> = vec![
        (&vk1, &wrong, &p1),
        (&vk2, &x2, &p2),
    ];
    assert!(!Plonk::batch_verify(&poisoned2, &mut rng));

    // Empty batch is vacuously true.
    assert!(Plonk::batch_verify(&[], &mut rng));
}

#[test]
fn batch_verify_rejects_mixed_srs() {
    let mut rng = StdRng::seed_from_u64(809);
    let srs_a = srs(64, 809);
    let srs_b = srs(64, 810); // different τ
    let c = square_circuit(3, 9);
    let (pk_a, vk_a) = Plonk::preprocess(&srs_a, &c).unwrap();
    let (_pk_b, vk_b) = Plonk::preprocess(&srs_b, &c).unwrap();
    let p = Plonk::prove(&pk_a, &c, &mut rng).unwrap();
    let x = [Fr::from(9u64)];
    let mixed: Vec<(&zkdet_plonk::VerifyingKey, &[Fr], &Proof)> =
        vec![(&vk_a, &x, &p), (&vk_b, &x, &p)];
    assert!(!Plonk::batch_verify(&mixed, &mut rng));
}

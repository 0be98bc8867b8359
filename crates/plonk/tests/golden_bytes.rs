//! Byte-identity gate for prover optimisations: a proof and a verifying key
//! are functions of (SRS, circuit, rng seed) only, so any change beneath
//! `Plonk::prove`/`preprocess` — MSM, FFT, threading — must leave these
//! digests alone. The constants were captured before the Pippenger rewrite
//! in `zkdet-curve::msm`; a mismatch means the change altered a group
//! element or the order randomness is drawn in, not just the speed.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rand::{rngs::StdRng, SeedableRng};
use zkdet_crypto::sha256;
use zkdet_field::Fr;
use zkdet_kzg::Srs;
use zkdet_plonk::{CircuitBuilder, CompiledCircuit, Plonk};

/// `x^(2^squarings) = y` with public `y`: one mul gate per squaring.
fn repeated_square_circuit(squarings: usize) -> CompiledCircuit {
    let mut b = CircuitBuilder::new();
    let mut acc = b.alloc(Fr::from(3u64));
    for _ in 0..squarings {
        acc = b.mul(acc, acc);
    }
    let y = b.value(acc);
    let yv = b.public_input(y);
    b.assert_equal(acc, yv);
    b.build()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Returns `(rows, sha256(proof bytes), sha256(vk bytes))` as hex.
fn prove_digests(squarings: usize, seed: u64) -> (usize, String, String) {
    let circuit = repeated_square_circuit(squarings);
    let mut rng = StdRng::seed_from_u64(seed);
    let srs = Srs::universal_setup(circuit.rows() + 8, &mut rng);
    let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
    let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
    assert!(Plonk::verify(&vk, circuit.public_values(), &proof));
    (
        circuit.rows(),
        hex(&sha256(&proof.to_bytes())),
        hex(&sha256(&vk.to_bytes())),
    )
}

#[test]
fn small_circuit_bytes_are_pinned() {
    let (rows, proof, vk) = prove_digests(5, 1300);
    assert_eq!(
        (rows, proof.as_str(), vk.as_str()),
        (
            8,
            "4c1070c21adc6be7ebeb9b7fd01a5e0e4cc186fe2ae9100ee63032a3114e4d0a",
            "fd049834c13fd65264c45d1c39a07ba55555b35298002df025492a9e43bd78b7"
        )
    );
}

#[test]
fn rows_2048_circuit_bytes_are_pinned() {
    let (rows, proof, vk) = prove_digests(1500, 1301);
    assert_eq!(
        (rows, proof.as_str(), vk.as_str()),
        (
            2048,
            "12f63133a3278e0f0d8269a32d11043eb52b472a1abbaa3844f46b4e884cb02b",
            "01e5e0cf51d22e1942b9b8ab21754703bc0e6c9a124eeca73e40c80a7d06fbb0"
        )
    );
}

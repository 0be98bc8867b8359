//! The witness-independence property, end to end: for every registered
//! protocol circuit, two builders seeded with different random witnesses
//! must agree on (a) the structural digest, (b) the full analysis, and
//! (c) the preprocessed PLONK verifying key, byte for byte. This is the
//! structure-stability contract the whole one-preprocessing-per-shape
//! deployment story rests on — and the property the `zkdet_analyzer` binary
//! spot-checks in CI via its two-seed digest comparison.

#![forbid(unsafe_code)]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::OnceLock;

use rand::SeedableRng;

use proptest::prelude::*;
use zkdet_circuits::registry;
use zkdet_field::Fr;
use zkdet_kzg::Srs;
use zkdet_analyzer::{analyze, structural_digest, Severity};
use zkdet_plonk::{CircuitBuilder, Plonk};

/// One SRS sized for the largest registry circuit, shared across tests
/// (universal setup is witness-free, so sharing loses nothing).
fn srs() -> &'static Srs {
    static SRS: OnceLock<Srs> = OnceLock::new();
    SRS.get_or_init(|| {
        let max_rows = registry()
            .iter()
            .map(|e| e.builder(0).build().rows())
            .max()
            .unwrap_or(8);
        // Blinding slack convention matches the rest of the workspace: rows + 8.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5125);
        Srs::universal_setup(max_rows + 8, &mut rng)
    })
}

#[test]
fn registry_lints_clean_at_warning() {
    // The satellite-1 regression anchor: the analyzer surfaced no real
    // findings in the shipped gadgets/apps (manually cross-checked), and
    // this pins that state — any future under-constraining edit to a
    // gadget turns up here before it ships.
    for entry in registry() {
        let analysis = analyze(&entry.builder(3));
        let gating: Vec<_> = analysis.findings.iter().filter(|f| f.gates(Severity::Warning)).collect();
        assert!(
            gating.is_empty(),
            "{} has findings at warning+: {gating:?}",
            entry.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn structural_digests_ignore_witness(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        for entry in registry() {
            let a = entry.builder(seed_a);
            let b = entry.builder(seed_b);
            prop_assert_eq!(structural_digest(&a), structural_digest(&b));
        }
    }

    #[test]
    fn analyses_ignore_witness(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        for entry in registry() {
            let a = analyze(&entry.builder(seed_a));
            let b = analyze(&entry.builder(seed_b));
            prop_assert_eq!(a.dof, b.dof);
            prop_assert_eq!(a.findings.len(), b.findings.len());
        }
    }
}

#[test]
fn digests_separate_distinct_structures() {
    // Sanity on the digest itself: the six circuits hash to six values,
    // and a one-gate edit moves the digest.
    let digests: Vec<Fr> = registry()
        .iter()
        .map(|e| structural_digest(&e.builder(0)))
        .collect();
    for i in 0..digests.len() {
        for j in (i + 1)..digests.len() {
            assert_ne!(digests[i], digests[j], "digest collision between circuits");
        }
    }

    let mut b = CircuitBuilder::new();
    let x = b.alloc(Fr::from(2u64));
    let before = structural_digest(&b);
    b.assert_constant(x, Fr::from(2u64));
    assert_ne!(before, structural_digest(&b), "extra gate must move the digest");
}

#[test]
fn verifying_keys_are_witness_independent() {
    // The strongest form of the property: not just our digest, but the
    // actual preprocessed verifying key — what a verifier pins on-chain —
    // is byte-identical across witnesses.
    let srs = srs();
    for entry in registry() {
        let (_, vk_a) = Plonk::preprocess(srs, &entry.builder(0xDEAD).build())
            .unwrap_or_else(|e| panic!("{} preprocess failed: {e:?}", entry.name));
        let (_, vk_b) = Plonk::preprocess(srs, &entry.builder(0xBEEF).build())
            .unwrap_or_else(|e| panic!("{} preprocess failed: {e:?}", entry.name));
        assert_eq!(
            vk_a.to_bytes(),
            vk_b.to_bytes(),
            "{} verifying key depends on the witness",
            entry.name
        );
    }
}

//! The lintable circuit registry: every protocol circuit the scheme ships,
//! instantiated at a representative shape with a seeded witness.
//!
//! The `zkdet_analyzer` binary walks this list, analyzes each
//! pre-build [`CircuitBuilder`], and fails CI on soundness findings. The
//! registry is also the anchor for the witness-independence property: for a
//! fixed entry, [`RegisteredCircuit::builder`] called with two different
//! seeds must yield byte-identical structural digests and preprocessed
//! verifying keys (only the embedded witness may differ).

use rand::{rngs::StdRng, Rng, SeedableRng};
use zkdet_crypto::commitment::CommitmentScheme;
use zkdet_crypto::mimc::MimcCtr;
use zkdet_field::{Field, Fr};
use zkdet_plonk::CircuitBuilder;

use crate::exchange::RangePredicate;
use crate::{
    AggregationCircuit, DuplicationCircuit, EncryptionCircuit, KeyNegotiationCircuit,
    PartitionCircuit, ValidationCircuit,
};

/// One registered circuit: a name, the shape it is instantiated at, and a
/// seeded witness generator producing the pre-build constraint system.
pub struct RegisteredCircuit {
    /// Stable identifier (used in lint reports and CI artefacts).
    pub name: &'static str,
    /// The paper relation and shape this entry instantiates.
    pub description: &'static str,
    build: fn(u64) -> CircuitBuilder,
}

impl RegisteredCircuit {
    /// Synthesizes the circuit with a witness derived from `seed`. The
    /// resulting constraint *structure* must not depend on the seed.
    pub fn builder(&self, seed: u64) -> CircuitBuilder {
        (self.build)(seed)
    }
}

fn pi_e_encryption(seed: u64) -> CircuitBuilder {
    let mut rng = StdRng::seed_from_u64(seed);
    let shape = EncryptionCircuit::new(4);
    let plaintext: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
    let key = Fr::random(&mut rng);
    let nonce = Fr::random(&mut rng);
    let ct = MimcCtr::new(key, nonce).encrypt(&plaintext);
    let (c, o) = CommitmentScheme::commit(&plaintext, &mut rng);
    shape.synthesize_builder(&plaintext, key, &ct, &c, &o)
}

fn pi_t_duplication(seed: u64) -> CircuitBuilder {
    let mut rng = StdRng::seed_from_u64(seed);
    let shape = DuplicationCircuit::new(5);
    let data: Vec<Fr> = (0..5).map(|_| Fr::random(&mut rng)).collect();
    let (c_s, o_s) = CommitmentScheme::commit(&data, &mut rng);
    let (c_d, o_d) = CommitmentScheme::commit(&data, &mut rng);
    shape.synthesize_builder(&data, &c_s, &o_s, &c_d, &o_d)
}

fn pi_t_aggregation(seed: u64) -> CircuitBuilder {
    let mut rng = StdRng::seed_from_u64(seed);
    let shape = AggregationCircuit::new(vec![3, 2]);
    let s1: Vec<Fr> = (0..3).map(|_| Fr::random(&mut rng)).collect();
    let s2: Vec<Fr> = (0..2).map(|_| Fr::random(&mut rng)).collect();
    let mut d = s1.clone();
    d.extend_from_slice(&s2);
    let co1 = CommitmentScheme::commit(&s1, &mut rng);
    let co2 = CommitmentScheme::commit(&s2, &mut rng);
    let (c_d, o_d) = CommitmentScheme::commit(&d, &mut rng);
    shape.synthesize_builder(&[s1, s2], &[co1, co2], &c_d, &o_d)
}

fn pi_t_partition(seed: u64) -> CircuitBuilder {
    let mut rng = StdRng::seed_from_u64(seed);
    let shape = PartitionCircuit::new(vec![2, 3]);
    let source: Vec<Fr> = (0..5).map(|_| Fr::random(&mut rng)).collect();
    let (c_s, o_s) = CommitmentScheme::commit(&source, &mut rng);
    let p1 = CommitmentScheme::commit(&source[..2], &mut rng);
    let p2 = CommitmentScheme::commit(&source[2..], &mut rng);
    shape.synthesize_builder(&source, &c_s, &o_s, &[p1, p2])
}

fn pi_p_validation(seed: u64) -> CircuitBuilder {
    let mut rng = StdRng::seed_from_u64(seed);
    let shape = ValidationCircuit::new(4, RangePredicate { bits: 16 });
    let data: Vec<Fr> = (0..4).map(|_| Fr::from(rng.gen::<u64>() & 0xffff)).collect();
    let (c_d, o_d) = CommitmentScheme::commit(&data, &mut rng);
    shape.synthesize_builder(&data, &c_d, &o_d)
}

fn pi_k_key_negotiation(seed: u64) -> CircuitBuilder {
    let mut rng = StdRng::seed_from_u64(seed);
    let key = Fr::random(&mut rng);
    let buyer_key = Fr::random(&mut rng);
    let (c, o) = CommitmentScheme::commit_scalar(key, &mut rng);
    KeyNegotiationCircuit.synthesize_builder(key, buyer_key, &c, &o)
}

/// Every registered circuit, in a stable order.
pub fn registry() -> Vec<RegisteredCircuit> {
    vec![
        RegisteredCircuit {
            name: "pi_e_encryption",
            description: "π_e proof-of-encryption (§IV-B), 4 MiMC-CTR blocks",
            build: pi_e_encryption,
        },
        RegisteredCircuit {
            name: "pi_t_duplication",
            description: "π_t duplication (§IV-D1), 5-entry dataset",
            build: pi_t_duplication,
        },
        RegisteredCircuit {
            name: "pi_t_aggregation",
            description: "π_t aggregation (§IV-D2), sources of 3 + 2 entries",
            build: pi_t_aggregation,
        },
        RegisteredCircuit {
            name: "pi_t_partition",
            description: "π_t partition (§IV-D3), 5-entry source split 2 + 3",
            build: pi_t_partition,
        },
        RegisteredCircuit {
            name: "pi_p_validation",
            description: "π_p data validation (§IV-F), 4 entries under a 16-bit range predicate",
            build: pi_p_validation,
        },
        RegisteredCircuit {
            name: "pi_k_key_negotiation",
            description: "π_k key negotiation (§IV-F), constant-size",
            build: pi_k_key_negotiation,
        },
    ]
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_all_six_protocol_circuits() {
        let names: Vec<_> = registry().iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "pi_e_encryption",
                "pi_t_duplication",
                "pi_t_aggregation",
                "pi_t_partition",
                "pi_p_validation",
                "pi_k_key_negotiation",
            ]
        );
    }

    #[test]
    fn registered_builders_produce_satisfied_circuits() {
        for entry in registry() {
            let circuit = entry.builder(7).build();
            assert!(circuit.is_satisfied(), "{} unsatisfied", entry.name);
        }
    }

    #[test]
    fn registered_structure_is_seed_independent() {
        for entry in registry() {
            let a = entry.builder(1);
            let b = entry.builder(2);
            assert_eq!(a.gate_count(), b.gate_count(), "{}", entry.name);
            assert_eq!(a.variable_count(), b.variable_count(), "{}", entry.name);
            assert_eq!(
                a.public_input_variables(),
                b.public_input_variables(),
                "{}",
                entry.name
            );
        }
    }
}

//! The lintable circuit registry: every protocol circuit the scheme ships,
//! at a representative shape, sampled by the circuit's own `sample` — the
//! same sampler `zkdet-core`'s key registry derives proving keys from.
//!
//! The `zkdet_analyzer` binary walks this list, analyzes each
//! pre-build [`CircuitBuilder`], and fails CI on soundness findings. The
//! registry is also the anchor for the witness-independence property: for a
//! fixed entry, [`RegisteredCircuit::builder`] called with two different
//! seeds must yield byte-identical structural digests and preprocessed
//! verifying keys (only the embedded witness may differ).

use rand::{rngs::StdRng, SeedableRng};
use zkdet_plonk::CircuitBuilder;

use crate::exchange::RangePredicate;
use crate::{
    AggregationCircuit, DuplicationCircuit, EncryptionCircuit, KeyNegotiationCircuit,
    PartitionCircuit, ValidationCircuit,
};

/// One registered circuit: a name, the shape it is instantiated at, and
/// that shape's sampler.
pub struct RegisteredCircuit {
    /// Stable identifier (used in lint reports and CI artefacts).
    pub name: &'static str,
    /// The paper relation and shape this entry instantiates.
    pub description: &'static str,
    sample: fn(&mut StdRng) -> CircuitBuilder,
}

impl RegisteredCircuit {
    /// Synthesizes the circuit with a witness derived from `seed`. The
    /// resulting constraint *structure* must not depend on the seed.
    pub fn builder(&self, seed: u64) -> CircuitBuilder {
        (self.sample)(&mut StdRng::seed_from_u64(seed))
    }
}

/// Every registered circuit, in a stable order.
pub fn registry() -> Vec<RegisteredCircuit> {
    vec![
        RegisteredCircuit {
            name: "pi_e_encryption",
            description: "π_e proof-of-encryption (§IV-B), 4 MiMC-CTR blocks",
            sample: |rng| EncryptionCircuit::new(4).sample(rng),
        },
        RegisteredCircuit {
            name: "pi_t_duplication",
            description: "π_t duplication (§IV-D1), 5-entry dataset",
            sample: |rng| DuplicationCircuit::new(5).sample(rng),
        },
        RegisteredCircuit {
            name: "pi_t_aggregation",
            description: "π_t aggregation (§IV-D2), sources of 3 + 2 entries",
            sample: |rng| AggregationCircuit::new(vec![3, 2]).sample(rng),
        },
        RegisteredCircuit {
            name: "pi_t_partition",
            description: "π_t partition (§IV-D3), 5-entry source split 2 + 3",
            sample: |rng| PartitionCircuit::new(vec![2, 3]).sample(rng),
        },
        RegisteredCircuit {
            name: "pi_p_validation",
            description: "π_p data validation (§IV-F), 4 entries under a 16-bit range predicate",
            sample: |rng| ValidationCircuit::new(4, RangePredicate { bits: 16 }).sample(rng),
        },
        RegisteredCircuit {
            name: "pi_k_key_negotiation",
            description: "π_k key negotiation (§IV-F), constant-size",
            sample: |rng| KeyNegotiationCircuit.sample(rng),
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

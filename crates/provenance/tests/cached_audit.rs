//! A fully cached lineage costs no group arithmetic. The counters are
//! process-global, so this is the only test in its binary.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use zkdet_field::{Field, Fr};
use zkdet_plonk::{CircuitBuilder, Plonk};
use zkdet_provenance::{verify_lineage, AuditCache, LineageCheck, NodeId};

fn counter(name: &str) -> u64 {
    zkdet_telemetry::global().registry.counter_value(name)
}

#[test]
fn a_cold_lineage_is_two_msms_and_a_cached_one_none() {
    let mut rng = StdRng::seed_from_u64(43);
    let srs = zkdet_kzg::Srs::universal_setup(64, &mut rng);
    let checks: Vec<LineageCheck> = (0..5u64)
        .map(|i| {
            let mut b = CircuitBuilder::new();
            let x = b.alloc(Fr::from(i + 2));
            let y = b.mul(x, x);
            let out = b.value(y);
            let out = b.public_input(out);
            b.assert_equal(y, out);
            let circuit = b.build();
            let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
            LineageCheck {
                node: NodeId(i),
                vk: Arc::new(vk),
                publics: circuit.public_values().to_vec(),
                proof: Plonk::prove(&pk, &circuit, &mut rng).unwrap(),
                label: "π_t (test)",
            }
        })
        .collect();

    zkdet_telemetry::enable();
    let counters = || {
        [
            "zkdet.curve.msm.calls",
            "zkdet.plonk.verify.calls",
            "zkdet.provenance.verify.batches",
        ]
        .map(counter)
    };
    let mut cache = AuditCache::new();

    // Cold: one fold — an MSM per side of the pairing equation, no
    // per-proof verification.
    let before = counters();
    let cold = verify_lineage(&checks, &mut cache, &mut rng).unwrap();
    let after = counters();
    assert_eq!(cold.verified, 5);
    assert_eq!(
        [
            after[0] - before[0],
            after[1] - before[1],
            after[2] - before[2]
        ],
        [2, 0, 1]
    );

    // Warm: every check is a cache hit, so neither an MSM nor (what always
    // follows the two MSMs) a pairing check runs.
    let warm = verify_lineage(&checks, &mut cache, &mut rng).unwrap();
    assert_eq!((warm.cache_hits, warm.verified), (5, 0));
    assert_eq!(counters(), after);

    // Forged: the fold, then one plain verification per member up to and
    // including the culprit (two MSMs each).
    let mut forged = checks.clone();
    forged[2].proof.a_eval += Fr::ONE;
    let err = verify_lineage(&forged, &mut AuditCache::new(), &mut rng).unwrap_err();
    assert_eq!(err.node, NodeId(2));
    let fallback = counters();
    assert_eq!(
        [
            fallback[0] - after[0],
            fallback[1] - after[1],
            fallback[2] - after[2]
        ],
        [2 + 2 * 3, 3, 1]
    );
}

//! Proof domains, pinned by circuit. Prove and preprocess cost follows the
//! power-of-two domain, not the rows used, so a gadget change that pushes
//! a circuit across a power of two doubles that circuit's proving cost.
//! This test names the circuit when that happens, instead of leaving it to
//! show up as benchmark drift.

#![forbid(unsafe_code)]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rand::{rngs::StdRng, SeedableRng};
use zkdet_analyzer::check_registry;
use zkdet_circuits::exchange::RangePredicate;
use zkdet_circuits::{EncryptionCircuit, KeyNegotiationCircuit, ValidationCircuit};
use zkdet_plonk::CircuitBuilder;

fn domain(name: &str, b: CircuitBuilder, expected: usize) {
    let c = b.build();
    assert_eq!(
        c.rows(),
        expected,
        "{name} uses {} rows: domain {} instead of {expected}",
        c.rows_used(),
        c.rows()
    );
}

#[test]
fn the_exchange_path_circuits_sit_in_their_pinned_domains() {
    let mut r = StdRng::seed_from_u64(37);
    // A 1- and a 2-entry dataset's π_e, the shapes every small publish proves.
    domain("π_e(1)", EncryptionCircuit::new(1).sample(&mut r), 1024);
    domain("π_e(2)", EncryptionCircuit::new(2).sample(&mut r), 2048);
    // The two proofs of every exchange.
    domain("π_k", KeyNegotiationCircuit.sample(&mut r), 2048);
    domain(
        "exchange π_p (2 entries, 16 bits)",
        ValidationCircuit::new(2, RangePredicate { bits: 16 }).sample(&mut r),
        2048,
    );
}

#[test]
fn the_analyzer_reports_each_registry_circuits_pinned_domain() {
    let pinned = [
        ("pi_e_encryption", 4096),
        ("pi_t_duplication", 4096),
        ("pi_t_aggregation", 4096),
        ("pi_t_partition", 4096),
        ("pi_p_validation", 2048),
        ("pi_k_key_negotiation", 2048),
    ];
    let reports = check_registry();
    assert_eq!(reports.len(), pinned.len());
    for (report, (name, expected)) in reports.iter().zip(pinned) {
        assert_eq!(report.name, name);
        assert!(report.rows_used <= report.domain && report.domain.is_power_of_two());
        assert_eq!(
            report.domain, expected,
            "{name} uses {} rows: domain {} instead of {expected}",
            report.rows_used, report.domain
        );
    }
}

//! Seeded negative tests: every lint class must fire on a deliberately
//! broken circuit, and must stay silent on the sound variants. These are
//! the analyzer's own regression suite — if a refactor of the pass drops a
//! class, a test here goes red before a real under-constraint ships.

#![forbid(unsafe_code)]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use zkdet_field::{Field, Fr};
use zkdet_analyzer::{analyze, Rule, Severity};
use zkdet_plonk::CircuitBuilder;

/// Counts findings of `class` in the analysis of `b`.
fn count(b: &CircuitBuilder, class: Rule) -> usize {
    analyze(b).findings.iter().filter(|f| f.rule == class).count()
}

/// A small sound circuit: `x·y + 3 = z` with `z` public.
fn sound_circuit() -> CircuitBuilder {
    let mut b = CircuitBuilder::new();
    let x = b.alloc(Fr::from(4u64));
    let y = b.alloc(Fr::from(5u64));
    let p = b.mul(x, y);
    let z = b.add_const(p, Fr::from(3u64));
    let z_pub = b.public_input(Fr::from(23u64));
    b.assert_equal(z, z_pub);
    b
}

#[test]
fn sound_circuit_is_clean() {
    let b = sound_circuit();
    let analysis = analyze(&b);
    assert_eq!(
        analysis.findings.iter().filter(|f| f.gates(Severity::Info)).count(),
        0,
        "sound circuit must produce no findings: {:?}",
        analysis.findings
    );
}

#[test]
fn unconstrained_variable_fires_on_unused_alloc() {
    let mut b = sound_circuit();
    let orphan = b.alloc(Fr::from(99u64));
    let analysis = analyze(&b);
    let hits: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == Rule::UnconstrainedVariable)
        .collect();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].variable, Some(orphan.index()));
    assert_eq!(hits[0].severity(), Severity::Error);
}

#[test]
fn unconstrained_variable_sees_through_copy_classes() {
    // Two allocs merged by assert_equal, neither read by any gate: one
    // finding for the whole class, and the unreachable-copy-class lint is
    // suppressed (the unconstrained finding subsumes it).
    let mut b = sound_circuit();
    let u = b.alloc(Fr::from(8u64));
    let v = b.alloc(Fr::from(8u64));
    b.assert_equal(u, v);
    assert_eq!(count(&b, Rule::UnconstrainedVariable), 1);
    assert_eq!(count(&b, Rule::UnreachableCopyClass), 0);
}

#[test]
fn underconstrained_public_input_fires_on_floating_statement() {
    // A public input no gadget gate reads: the verifier's claimed value is
    // pinned by the implicit PI row but related to nothing.
    let mut b = sound_circuit();
    let floating = b.public_input(Fr::from(7u64));
    let analysis = analyze(&b);
    let hits: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == Rule::UnderconstrainedPublicInput)
        .collect();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].variable, Some(floating.index()));
    assert_eq!(hits[0].severity(), Severity::Error);
    // The PI exempts the class from the plain unconstrained lint.
    assert_eq!(count(&b, Rule::UnconstrainedVariable), 0);
}

#[test]
fn public_input_read_via_copy_merge_is_fine() {
    // The standard pattern — PI merged with a computed wire — must not
    // fire: the class is read through the computed member.
    let b = sound_circuit();
    assert_eq!(count(&b, Rule::UnderconstrainedPublicInput), 0);
}

#[test]
fn unreachable_copy_class_fires_on_slotless_member() {
    // `ghost` is merged with a read wire but never occupies a gate slot
    // itself: σ cannot see it, so the assert_equal is unenforced in the
    // proof even though the class as a whole is constrained.
    let mut b = sound_circuit();
    let ghost = b.alloc(Fr::from(23u64));
    let z_pub = *b.public_input_variables().last().unwrap();
    b.assert_equal(ghost, z_pub);
    let analysis = analyze(&b);
    let hits: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == Rule::UnreachableCopyClass)
        .collect();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].variable, Some(ghost.index()));
    assert_eq!(hits[0].severity(), Severity::Error);
}

#[test]
fn pi_members_are_not_unreachable() {
    // A public input with no gadget slot is fine: build() gives it a slot
    // in its PI row. sound_circuit's z_pub is exactly that shape.
    let b = sound_circuit();
    assert_eq!(count(&b, Rule::UnreachableCopyClass), 0);
}

#[test]
fn dead_gate_fires_on_all_zero_selectors() {
    let mut b = sound_circuit();
    let z = b.zero();
    b.raw_gate(z, z, z, [Fr::ZERO; 5]);
    let analysis = analyze(&b);
    let hits: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == Rule::DeadGate)
        .collect();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].gate, Some(b.gate_count() - 1));
    assert_eq!(hits[0].severity(), Severity::Warning);
}

#[test]
fn unsatisfiable_gate_fires_on_pure_constant() {
    // q_C = 1 with no wires read: 1 = 0 for every witness.
    let mut b = sound_circuit();
    let z = b.zero();
    b.raw_gate(z, z, z, [Fr::ZERO, Fr::ZERO, Fr::ZERO, Fr::ZERO, Fr::ONE]);
    let analysis = analyze(&b);
    let hits: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == Rule::UnsatisfiableGate)
        .collect();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].gate, Some(b.gate_count() - 1));
    assert_eq!(hits[0].severity(), Severity::Error);
}

#[test]
fn unsatisfiable_gate_fires_on_conflicting_pins() {
    // The same variable pinned to 1 and to 2: constant propagation adopts
    // the first pin and exposes the second gate as a contradiction.
    let mut b = CircuitBuilder::new();
    let x = b.alloc(Fr::ONE);
    let z = b.zero();
    b.raw_gate(x, z, z, [Fr::ONE, Fr::ZERO, Fr::ZERO, Fr::ZERO, -Fr::ONE]);
    b.raw_gate(x, z, z, [Fr::ONE, Fr::ZERO, Fr::ZERO, Fr::ZERO, -Fr::from(2u64)]);
    assert_eq!(count(&b, Rule::UnsatisfiableGate), 1);
}

#[test]
fn unsatisfiable_gate_fires_through_linear_propagation() {
    // x pinned to 2, y = x + 3 forced to 5, then y pinned to 7: the
    // contradiction only appears after one propagation step.
    let mut b = CircuitBuilder::new();
    let x = b.alloc(Fr::from(2u64));
    let y = b.alloc(Fr::from(5u64));
    let z = b.zero();
    b.raw_gate(x, z, z, [Fr::ONE, Fr::ZERO, Fr::ZERO, Fr::ZERO, -Fr::from(2u64)]);
    // x − y + 3 = 0
    b.raw_gate(
        x,
        y,
        z,
        [Fr::ONE, -Fr::ONE, Fr::ZERO, Fr::ZERO, Fr::from(3u64)],
    );
    b.raw_gate(y, z, z, [Fr::ONE, Fr::ZERO, Fr::ZERO, Fr::ZERO, -Fr::from(7u64)]);
    assert_eq!(count(&b, Rule::UnsatisfiableGate), 1);
}

#[test]
fn satisfiable_constant_chains_stay_silent() {
    // Same shape as above but consistent: no finding.
    let mut b = CircuitBuilder::new();
    let x = b.alloc(Fr::from(2u64));
    let y = b.alloc(Fr::from(5u64));
    let z = b.zero();
    b.raw_gate(x, z, z, [Fr::ONE, Fr::ZERO, Fr::ZERO, Fr::ZERO, -Fr::from(2u64)]);
    b.raw_gate(
        x,
        y,
        z,
        [Fr::ONE, -Fr::ONE, Fr::ZERO, Fr::ZERO, Fr::from(3u64)],
    );
    b.raw_gate(y, z, z, [Fr::ONE, Fr::ZERO, Fr::ZERO, Fr::ZERO, -Fr::from(5u64)]);
    assert_eq!(count(&b, Rule::UnsatisfiableGate), 0);
}

#[test]
fn nonlinear_gates_are_out_of_propagation_reach() {
    // assert_bool is x·x − x = 0: two unknown occurrences of the same
    // class in the product term. The propagation must not pretend to solve
    // it (both 0 and 1 satisfy it) nor flag it.
    let mut b = CircuitBuilder::new();
    let x = b.alloc(Fr::ONE);
    b.assert_bool(x);
    let y = b.mul(x, x);
    let _ = y;
    assert_eq!(count(&b, Rule::UnsatisfiableGate), 0);
}

#[test]
fn duplicate_constant_fires_on_twice_pinned_value() {
    // constant() caches, so a duplicate needs a second class pinned by
    // hand — the shape a gadget author writes with assert_constant on an
    // alloc instead of reusing constant().
    let mut b = CircuitBuilder::new();
    let c = b.constant(Fr::from(42u64));
    let x = b.alloc(Fr::from(42u64));
    b.assert_constant(x, Fr::from(42u64));
    let m = b.mul(c, x);
    let _ = m;
    let analysis = analyze(&b);
    let hits: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == Rule::DuplicateConstant)
        .collect();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].severity(), Severity::Info);
}

#[test]
fn cached_constants_do_not_fire_duplicate() {
    let mut b = CircuitBuilder::new();
    let c1 = b.constant(Fr::from(42u64));
    let c2 = b.constant(Fr::from(42u64));
    assert_eq!(c1, c2);
    assert_eq!(count(&b, Rule::DuplicateConstant), 0);
}

#[test]
fn findings_are_sorted_most_severe_first() {
    let mut b = sound_circuit();
    // One of each severity: Info (duplicate pin), Warning (dead gate),
    // Error (unused alloc).
    let x = b.alloc(Fr::from(3u64));
    b.assert_constant(x, Fr::from(3u64));
    let c = b.constant(Fr::from(3u64));
    let m = b.mul(x, c);
    let _ = m;
    let z = b.zero();
    b.raw_gate(z, z, z, [Fr::ZERO; 5]);
    let _orphan = b.alloc(Fr::from(1u64));
    let analysis = analyze(&b);
    let sev: Vec<Severity> = analysis.findings.iter().map(|f| f.severity()).collect();
    assert_eq!(
        sev,
        [Severity::Error, Severity::Warning, Severity::Info],
        "{:?}",
        analysis.findings
    );
}

#[test]
fn dof_account_tracks_structure() {
    let b = sound_circuit();
    let dof = analyze(&b).dof;
    // zero gate + mul + add_const = 3 gates; z_pub has no gadget gate.
    assert_eq!(dof.gates, 3);
    assert_eq!(dof.nonlinear_gates, 1);
    assert_eq!(dof.linear_gates, 2);
    assert_eq!(dof.public_inputs, 1);
    // zero is pinned by its defining gate.
    assert_eq!(dof.pinned_classes, 1);
    // z/z_pub merged and public.
    assert_eq!(dof.statement_classes, 1);
    // x, y, p remain free (p is nonlinearly determined — the linear
    // account conservatively counts it as free).
    assert_eq!(dof.free_classes, 3);
    // zero, x, y, p, z=z_pub — all visible.
    assert_eq!(dof.copy_classes, 5);
}

#[test]
fn dead_gate_does_not_mark_variables_read() {
    // A variable appearing only on a dead gate's wires occupies a slot but
    // is never read: still unconstrained.
    let mut b = sound_circuit();
    let ghost = b.alloc(Fr::from(5u64));
    b.raw_gate(ghost, ghost, ghost, [Fr::ZERO; 5]);
    assert_eq!(count(&b, Rule::DeadGate), 1);
    assert_eq!(count(&b, Rule::UnconstrainedVariable), 1);
    // It *does* occupy a slot, so unreachable-copy-class stays out of it.
    assert_eq!(count(&b, Rule::UnreachableCopyClass), 0);
}

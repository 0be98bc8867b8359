//! The circuit-soundness pass: consumes a pre-build [`CircuitBuilder`] and
//! reports soundness findings plus a degrees-of-freedom account.
//!
//! PLONK's failure mode is silent: a circuit that *under*-constrains still
//! proves and verifies, it just proves less than the author wrote. This
//! pass is the counterweight:
//!
//! * [`analyze`] — unconstrained variables, under-constrained public
//!   inputs, unreachable copy classes, dead gates, unsatisfiable gates (via
//!   linear constant propagation), duplicate constants, plus a
//!   degrees-of-freedom account;
//! * [`structural_digest`] — a Poseidon commitment to the circuit
//!   structure, byte-identical across witnesses for a sound gadget;
//! * [`check_registry`] — both over every `zkdet_circuits::registry()`
//!   entry (π_e, the three π_t transforms, π_p, π_k), with the digests of
//!   two witness seeds cross-checked.
//!
//! The analysis reads **only** circuit structure — selectors, gate wiring,
//! copy classes, the public-input list — never witness assignments. That
//! restriction is what makes its output witness-independent: two builders
//! for the same circuit shape produce identical analyses (and identical
//! structural digests) regardless of witness values. Public-input rows and
//! padding are a `build()` concern, not part of a gadget's structure.
//!
//! Definitions used throughout (DESIGN.md §12.2):
//!
//! * a gate **reads** wire `a` iff `q_L ≠ 0` or `q_M ≠ 0`, wire `b` iff
//!   `q_R ≠ 0` or `q_M ≠ 0`, wire `c` iff `q_O ≠ 0` — the wire's value then
//!   enters the gate equation;
//! * a variable **occupies a slot** if it appears on any wire of any gate,
//!   read or not — slots are what the copy permutation σ ranges over;
//! * a **copy class** is a union-find class of variables merged by
//!   `assert_equal`; gate semantics see classes, not variables.

use std::collections::BTreeMap;

use zkdet_circuits::registry;
use zkdet_crypto::Poseidon;
use zkdet_field::{Field, Fr, PrimeField};
use zkdet_plonk::{CircuitBuilder, GateView};

use crate::rules::{Finding, Rule};

/// Witness seeds: the analysis runs on `SEED_A`; `SEED_B` exists only to
/// cross-check the structural digest. Any two distinct values work — these
/// are fixed so the report is reproducible byte-for-byte.
pub const SEED_A: u64 = 0xA11CE;
/// See [`SEED_A`].
pub const SEED_B: u64 = 0xB0B;

/// Domain tag for the structural digest ("zklint" in ASCII), keeping these
/// hashes disjoint from every other Poseidon use in the workspace.
const DOMAIN_TAG: u64 = 0x7a6b_6c69_6e74;

/// The degrees-of-freedom account: a structural (linear-propagation) view
/// of how many witness dimensions a circuit leaves free.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DofAccount {
    /// Allocated variables.
    pub variables: usize,
    /// Copy classes that occupy at least one gate slot or hold a public
    /// input (classes the proof can see at all).
    pub copy_classes: usize,
    /// Gadget gates (pre-build: no PI rows, no padding).
    pub gates: usize,
    /// Gates with `q_M = 0` (purely linear).
    pub linear_gates: usize,
    /// Gates with `q_M ≠ 0`.
    pub nonlinear_gates: usize,
    /// Public inputs `ℓ`.
    pub public_inputs: usize,
    /// Classes fixed to a constant by a direct single-wire pin gate.
    pub pinned_classes: usize,
    /// Classes additionally determined by linear constant propagation.
    pub propagated_classes: usize,
    /// Classes containing a public input (bound by the statement).
    pub statement_classes: usize,
    /// Upper bound on residual witness degrees of freedom: visible classes
    /// neither constant-determined nor statement-bound. These are the
    /// legitimate secrets (plaintexts, keys, openings) — the account makes
    /// an unexplained jump reviewable across revisions.
    pub free_classes: usize,
}

/// The full analysis result for one circuit.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// All findings, sorted most-severe first (stable within a severity).
    pub findings: Vec<Finding>,
    /// The degrees-of-freedom account.
    pub dof: DofAccount,
}

/// Copy-class representative per variable index.
fn class_reps(b: &CircuitBuilder) -> Vec<usize> {
    b.variables()
        .map(|v| b.copy_representative(v).index())
        .collect()
}

/// Outcome of constant-propagating one gate under a partial assignment.
enum GateStep {
    /// All read classes known and the equation holds.
    Satisfied,
    /// All read classes known and the equation is violated — the gate is
    /// unsatisfiable for *every* witness consistent with the propagation.
    Contradiction,
    /// Exactly one unknown class, occurring linearly: it must equal the
    /// carried value.
    Solved(usize, Fr),
    /// More than one unknown, or a nonlinear term in unknowns: no progress.
    Stuck,
}

/// Evaluates gate `g` under `known` (class → forced value), treating wire
/// variables through their copy-class representatives `rep_of`.
fn gate_step(g: &GateView, rep_of: &[usize], known: &BTreeMap<usize, Fr>) -> GateStep {
    let ca = rep_of[g.a.index()];
    let cb = rep_of[g.b.index()];
    let cc = rep_of[g.c.index()];

    let mut constant = g.q_c;
    // Accumulated linear coefficient per unknown class (a class may sit on
    // several wires of the same gate; coefficients add).
    let mut coeffs: Vec<(usize, Fr)> = Vec::new();
    let add_coeff = |coeffs: &mut Vec<(usize, Fr)>, class: usize, k: Fr| {
        if let Some(slot) = coeffs.iter_mut().find(|(c, _)| *c == class) {
            slot.1 += k;
        } else {
            coeffs.push((class, k));
        }
    };

    if g.q_m != Fr::ZERO {
        match (known.get(&ca), known.get(&cb)) {
            (Some(va), Some(vb)) => constant += g.q_m * *va * *vb,
            (Some(va), None) => add_coeff(&mut coeffs, cb, g.q_m * *va),
            (None, Some(vb)) => add_coeff(&mut coeffs, ca, g.q_m * *vb),
            // Product of two unknowns (including an unknown square when
            // ca == cb): nonlinear, outside this propagation's reach.
            (None, None) => return GateStep::Stuck,
        }
    }
    for (q, class) in [(g.q_l, ca), (g.q_r, cb), (g.q_o, cc)] {
        if q == Fr::ZERO {
            continue;
        }
        match known.get(&class) {
            Some(v) => constant += q * *v,
            None => add_coeff(&mut coeffs, class, q),
        }
    }
    // A class whose coefficients cancelled (e.g. `a − a`) drops out.
    coeffs.retain(|(_, k)| *k != Fr::ZERO);

    match coeffs.as_slice() {
        [] => {
            if constant == Fr::ZERO {
                GateStep::Satisfied
            } else {
                GateStep::Contradiction
            }
        }
        [(class, k)] => match k.inverse() {
            Some(k_inv) => GateStep::Solved(*class, -constant * k_inv),
            // Unreachable (k ≠ 0 after the retain), kept total for safety.
            None => GateStep::Stuck,
        },
        _ => GateStep::Stuck,
    }
}

/// Runs every circuit rule over the builder and assembles the
/// degrees-of-freedom account. Findings come back sorted most-severe
/// first; the order within a severity is deterministic (variable/gate
/// index order).
pub fn analyze(b: &CircuitBuilder) -> Analysis {
    let n_vars = b.variable_count();
    let gates: Vec<GateView> = b.gate_views().collect();
    let rep_of = class_reps(b);

    // Per-variable and per-class occurrence counts.
    let mut var_slots = vec![0usize; n_vars];
    let mut class_reads = vec![0usize; n_vars];
    for g in &gates {
        for v in [g.a, g.b, g.c] {
            var_slots[v.index()] += 1;
        }
        if g.reads_a() {
            class_reads[rep_of[g.a.index()]] += 1;
        }
        if g.reads_b() {
            class_reads[rep_of[g.b.index()]] += 1;
        }
        if g.reads_c() {
            class_reads[rep_of[g.c.index()]] += 1;
        }
    }
    let mut class_slots = vec![0usize; n_vars];
    for (i, slots) in var_slots.iter().enumerate() {
        class_slots[rep_of[i]] += slots;
    }

    let mut var_is_pi = vec![false; n_vars];
    let mut class_has_pi = vec![false; n_vars];
    for pi in b.public_input_variables() {
        var_is_pi[pi.index()] = true;
        class_has_pi[rep_of[pi.index()]] = true;
    }

    // Classes in first-member order (deterministic report order).
    let mut class_members: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut class_pos: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, rep) in rep_of.iter().enumerate() {
        match class_pos.get(rep) {
            Some(pos) => class_members[*pos].1.push(i),
            None => {
                class_pos.insert(*rep, class_members.len());
                class_members.push((*rep, vec![i]));
            }
        }
    }

    let mut findings: Vec<Finding> = Vec::new();

    // --- unconstrained-variable -----------------------------------------
    // A class no gate reads and no public input pins: the witness values of
    // all its members are free, yet the circuit author allocated them.
    let mut class_unconstrained = vec![false; n_vars];
    for (rep, members) in &class_members {
        if class_reads[*rep] == 0 && !class_has_pi[*rep] {
            class_unconstrained[*rep] = true;
            findings.push(
                Finding::new(
                    Rule::UnconstrainedVariable,
                    format!(
                        "copy class of variable {} ({} member{}) is read by no gate \
                         and holds no public input: its witness value is a free choice",
                        members[0],
                        members.len(),
                        if members.len() == 1 { "" } else { "s" },
                    ),
                )
                .at_variable(members[0]),
            );
        }
    }

    // --- underconstrained-public-input ----------------------------------
    // The implicit PI row (added by build()) pins the input to the claimed
    // value, but if no gadget gate reads its class, nothing connects the
    // statement to the witness — the verifier checks a vacuous claim.
    for (pos, pi) in b.public_input_variables().iter().enumerate() {
        let rep = rep_of[pi.index()];
        if class_reads[rep] == 0 {
            findings.push(
                Finding::new(
                    Rule::UnderconstrainedPublicInput,
                    format!(
                        "public input #{pos} (variable {}) is read by no gadget gate: \
                         only the implicit PI row touches it, so the statement does \
                         not constrain the witness",
                        pi.index(),
                    ),
                )
                .at_variable(pi.index()),
            );
        }
    }

    // --- unreachable-copy-class -----------------------------------------
    // σ permutes gate *slots*. A merged class member that occupies no slot
    // (and is not a public input, which receives a slot in its PI row)
    // never enters the permutation: its assert_equal is silently dropped
    // from the proof. Suppressed when the whole class is already flagged
    // unconstrained — that finding subsumes this one.
    for (rep, members) in &class_members {
        if members.len() < 2 || class_unconstrained[*rep] {
            continue;
        }
        let slotless: Vec<usize> = members
            .iter()
            .copied()
            .filter(|m| var_slots[*m] == 0 && !var_is_pi[*m])
            .collect();
        if let Some(first) = slotless.first() {
            findings.push(
                Finding::new(
                    Rule::UnreachableCopyClass,
                    format!(
                        "{} member{} of the copy class of variable {} occup{} no gate \
                         slot (first: variable {first}): the permutation argument \
                         cannot see {} — the assert_equal is unenforced in the proof",
                        slotless.len(),
                        if slotless.len() == 1 { "" } else { "s" },
                        members[0],
                        if slotless.len() == 1 { "ies" } else { "y" },
                        if slotless.len() == 1 { "it" } else { "them" },
                    ),
                )
                .at_variable(*first),
            );
        }
    }

    // --- dead-gate -------------------------------------------------------
    for (row, g) in gates.iter().enumerate() {
        if g.is_dead() {
            findings.push(
                Finding::new(
                    Rule::DeadGate,
                    format!("gate {row} has all-zero selectors: it constrains nothing"),
                )
                .at_gate(row),
            );
        }
    }

    // --- constant propagation: pins, then fixpoint -----------------------
    // Stage 0 — direct pins: gates that force a class to a value with *no*
    // prior knowledge (assert_constant / assert_zero / the constant()
    // allocation pattern), hence the empty map per gate. Chained
    // derivations belong to the fixpoint below, not to the pinned set.
    let no_knowledge: BTreeMap<usize, Fr> = BTreeMap::new();
    let mut known: BTreeMap<usize, Fr> = BTreeMap::new();
    // (class, value) in gate order — BTreeMap iteration is nondeterministic,
    // so duplicate-constant detection walks this list instead.
    let mut pinned_in_order: Vec<(usize, Fr)> = Vec::new();
    for g in &gates {
        if let GateStep::Solved(class, value) = gate_step(g, &rep_of, &no_knowledge) {
            // Re-pinning a class (even contradictorily) is left to the
            // fixpoint: with the first value in `known`, the second pin
            // gate evaluates fully and surfaces as Satisfied/Contradiction.
            if let std::collections::btree_map::Entry::Vacant(slot) = known.entry(class) {
                slot.insert(value);
                pinned_in_order.push((class, value));
            }
        }
    }
    let pinned_classes = known.len();

    // Fixpoint — solve single linearly-occurring unknowns gate by gate
    // until nothing new is learned; contradictions are unsatisfiable gates.
    let mut unsat_rows: Vec<usize> = Vec::new();
    loop {
        let mut progressed = false;
        for (row, g) in gates.iter().enumerate() {
            match gate_step(g, &rep_of, &known) {
                GateStep::Solved(class, value) => {
                    known.insert(class, value);
                    progressed = true;
                }
                GateStep::Contradiction => {
                    if !unsat_rows.contains(&row) {
                        unsat_rows.push(row);
                    }
                }
                GateStep::Satisfied | GateStep::Stuck => {}
            }
        }
        if !progressed {
            break;
        }
    }
    unsat_rows.sort_unstable();
    for row in unsat_rows {
        findings.push(
            Finding::new(
                Rule::UnsatisfiableGate,
                format!(
                    "gate {row} is unsatisfiable: with all its wires forced by \
                     constant propagation, the gate equation cannot reach zero"
                ),
            )
            .at_gate(row),
        );
    }

    // --- duplicate-constant ----------------------------------------------
    // Two distinct classes directly pinned to the same value: one cached
    // constant() allocation (plus copy constraints) would serve both.
    let mut first_pin: BTreeMap<[u64; 4], usize> = BTreeMap::new();
    for (class, value) in &pinned_in_order {
        match first_pin.get(&value.to_canonical()) {
            Some(original) => findings.push(
                Finding::new(
                    Rule::DuplicateConstant,
                    format!(
                        "copy classes of variables {original} and {class} are both \
                         pinned to the same constant: one shared constant allocation \
                         would save a gate"
                    ),
                )
                .at_variable(*class),
            ),
            None => {
                first_pin.insert(value.to_canonical(), *class);
            }
        }
    }

    // --- degrees-of-freedom account --------------------------------------
    let visible = |rep: usize| class_slots[rep] > 0 || class_has_pi[rep];
    let mut dof = DofAccount {
        variables: n_vars,
        gates: gates.len(),
        public_inputs: b.public_input_variables().len(),
        pinned_classes,
        propagated_classes: known.len() - pinned_classes,
        ..DofAccount::default()
    };
    for g in &gates {
        if g.q_m == Fr::ZERO {
            dof.linear_gates += 1;
        } else {
            dof.nonlinear_gates += 1;
        }
    }
    for (rep, _) in &class_members {
        if !visible(*rep) {
            continue;
        }
        dof.copy_classes += 1;
        if class_has_pi[*rep] {
            dof.statement_classes += 1;
        }
        if !known.contains_key(rep) && !class_has_pi[*rep] {
            dof.free_classes += 1;
        }
    }

    // Most-severe first; the sort is stable, so the per-class generation
    // order above is preserved within each severity band.
    findings.sort_by_key(|f| std::cmp::Reverse(f.rule.severity()));

    Analysis { findings, dof }
}

/// Hashes the builder's *structure* into one field element.
///
/// The digest absorbs exactly what preprocessing consumes — selector
/// values, gate wiring, the public-input layout, and the copy-class
/// partition — and nothing derived from witness assignments, so two
/// builders of the same circuit shape hash to the same field element no
/// matter which witnesses they carry; a mismatch across witnesses is the
/// `witness-dependent-structure` rule.
///
/// Absorption order (fixed; a report schema, not an implementation detail):
/// header `[tag, #vars, #gates, #PIs]`, then the public-input variable
/// indices in exposure order, then per gate `[a, b, c, q_L, q_R, q_O, q_M,
/// q_C]` in insertion order, then the canonical copy-class id of every
/// variable (the smallest variable index in its class — representative
/// choice inside the union-find is an implementation detail, the minimum
/// member is not).
pub fn structural_digest(b: &CircuitBuilder) -> Fr {
    let n_vars = b.variable_count();
    let rep_of = class_reps(b);
    // Canonical class id: min variable index per class (first sighting wins
    // because we scan in increasing index order).
    let mut min_member = vec![usize::MAX; n_vars];
    for (i, rep) in rep_of.iter().enumerate() {
        if min_member[*rep] == usize::MAX {
            min_member[*rep] = i;
        }
    }

    let mut data: Vec<Fr> = Vec::with_capacity(4 + n_vars + 8 * b.gate_count());
    data.push(Fr::from(DOMAIN_TAG));
    data.push(Fr::from(n_vars as u64));
    data.push(Fr::from(b.gate_count() as u64));
    data.push(Fr::from(b.public_input_variables().len() as u64));
    for pi in b.public_input_variables() {
        data.push(Fr::from(pi.index() as u64));
    }
    for g in b.gate_views() {
        data.push(Fr::from(g.a.index() as u64));
        data.push(Fr::from(g.b.index() as u64));
        data.push(Fr::from(g.c.index() as u64));
        data.push(g.q_l);
        data.push(g.q_r);
        data.push(g.q_o);
        data.push(g.q_m);
        data.push(g.q_c);
    }
    for rep in &rep_of {
        data.push(Fr::from(min_member[*rep] as u64));
    }
    Poseidon::hash(&data)
}

/// Lowercase big-endian hex rendering of a digest (report encoding).
pub fn digest_hex(d: Fr) -> String {
    let limbs = d.to_canonical();
    let mut out = String::with_capacity(64);
    for limb in limbs.iter().rev() {
        out.push_str(&format!("{limb:016x}"));
    }
    out
}

/// One registry circuit after the pass.
#[derive(Clone, Debug)]
pub struct CircuitReport {
    /// Registry name.
    pub name: &'static str,
    /// The paper relation and shape the entry instantiates.
    pub description: &'static str,
    /// Structural digest of the [`SEED_A`] builder.
    pub digest: Fr,
    /// Rows the built circuit uses: public-input rows plus gates.
    pub rows_used: usize,
    /// The power-of-two domain those rows pad to — what every prove and
    /// preprocess of the shape pays for.
    pub domain: usize,
    /// Analysis of the [`SEED_A`] builder, plus a leading
    /// `witness-dependent-structure` finding when the [`SEED_B`] builder's
    /// digest differs.
    pub analysis: Analysis,
}

/// Runs the pass over every `zkdet_circuits::registry()` entry: analyzes
/// the [`SEED_A`] builder and cross-checks its structural digest against
/// the [`SEED_B`] builder's. A mismatch means gadget code branched on
/// witness values — reported as a finding, not a crash, so it flows through
/// the same severity gate and report as everything else.
pub fn check_registry() -> Vec<CircuitReport> {
    registry()
        .into_iter()
        .map(|entry| {
            let builder = entry.builder(SEED_A);
            let mut analysis = analyze(&builder);
            let digest = structural_digest(&builder);
            let digest_b = structural_digest(&entry.builder(SEED_B));
            if digest != digest_b {
                analysis.findings.insert(
                    0,
                    Finding::new(
                        Rule::WitnessDependentStructure,
                        format!(
                            "structural digests differ across witness seeds \
                             ({} vs {}): selectors, wiring or public-input \
                             layout depend on witness values",
                            digest_hex(digest),
                            digest_hex(digest_b),
                        ),
                    ),
                );
            }
            let compiled = builder.build();
            CircuitReport {
                name: entry.name,
                description: entry.description,
                digest,
                rows_used: compiled.rows_used(),
                domain: compiled.rows(),
                analysis,
            }
        })
        .collect()
}

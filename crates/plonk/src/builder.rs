//! Circuit construction: the PLONK constraint system and its builder.
//!
//! Gates have the standard PLONK shape
//! `q_L·a + q_R·b + q_O·c + q_M·a·b + q_C + PI = 0`,
//! and wire equalities are enforced through the copy permutation σ (built
//! here with a union-find over variables, so `assert_equal` costs no gate).

use std::collections::BTreeMap;

use zkdet_field::{Field, Fr, PrimeField};

/// A wire value handle inside a circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Variable(pub(crate) usize);

impl Variable {
    /// The variable's index in the assignment vector (stable across the
    /// builder's lifetime; used by adversarial tests to tamper witnesses).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// One gate's selector values.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Selectors {
    pub q_l: Fr,
    pub q_r: Fr,
    pub q_o: Fr,
    pub q_m: Fr,
    pub q_c: Fr,
}

/// One gate's wire assignment (variables on the a/b/c wires).
#[derive(Clone, Copy, Debug)]
pub(crate) struct GateWires {
    pub a: Variable,
    pub b: Variable,
    pub c: Variable,
}

/// Read-only view of one gate row — selectors plus wire variables — for
/// analysis tooling (`zkdet-analyzer`). The view exposes the *pre-build* gate
/// list: public-input rows and power-of-two padding are added by
/// [`CircuitBuilder::build`] and are not part of a gadget's own structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GateView {
    /// Left-wire selector `q_L`.
    pub q_l: Fr,
    /// Right-wire selector `q_R`.
    pub q_r: Fr,
    /// Output-wire selector `q_O`.
    pub q_o: Fr,
    /// Multiplication selector `q_M`.
    pub q_m: Fr,
    /// Constant selector `q_C`.
    pub q_c: Fr,
    /// Variable on the `a` wire.
    pub a: Variable,
    /// Variable on the `b` wire.
    pub b: Variable,
    /// Variable on the `c` wire.
    pub c: Variable,
}

impl GateView {
    /// Whether the gate equation *reads* the `a` wire (`q_L ≠ 0` or
    /// `q_M ≠ 0`).
    pub fn reads_a(&self) -> bool {
        self.q_l != Fr::ZERO || self.q_m != Fr::ZERO
    }

    /// Whether the gate equation reads the `b` wire (`q_R ≠ 0` or
    /// `q_M ≠ 0`).
    pub fn reads_b(&self) -> bool {
        self.q_r != Fr::ZERO || self.q_m != Fr::ZERO
    }

    /// Whether the gate equation reads the `c` wire (`q_O ≠ 0`).
    pub fn reads_c(&self) -> bool {
        self.q_o != Fr::ZERO
    }

    /// Whether every selector is zero — the gate constrains nothing.
    pub fn is_dead(&self) -> bool {
        self.q_l == Fr::ZERO
            && self.q_r == Fr::ZERO
            && self.q_o == Fr::ZERO
            && self.q_m == Fr::ZERO
            && self.q_c == Fr::ZERO
    }
}

/// Incremental circuit builder carrying both structure and witness.
///
/// The circuit *structure* (selectors, wiring, public-input count) must not
/// depend on witness values — gadget code never branches on assignments —
/// so a circuit built with any witness preprocesses to the same keys.
#[derive(Clone, Debug)]
pub struct CircuitBuilder {
    selectors: Vec<Selectors>,
    wires: Vec<GateWires>,
    assignments: Vec<Fr>,
    /// Union-find parent per variable (copy constraints).
    parent: Vec<usize>,
    /// Public-input variables, in exposure order.
    public_inputs: Vec<Variable>,
    constants: BTreeMap<[u64; 4], Variable>,
    zero: Variable,
}

impl Default for CircuitBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CircuitBuilder {
    /// Fresh builder with the distinguished zero variable pre-constrained.
    pub fn new() -> Self {
        let mut b = CircuitBuilder {
            selectors: vec![],
            wires: vec![],
            assignments: vec![],
            parent: vec![],
            public_inputs: vec![],
            constants: BTreeMap::new(),
            zero: Variable(0),
        };
        let zero = b.alloc(Fr::ZERO);
        b.zero = zero;
        // Constrain it: 1·zero = 0.
        b.gate(
            zero,
            zero,
            zero,
            Selectors {
                q_l: Fr::ONE,
                ..Default::default()
            },
        );
        b.constants.insert(Fr::ZERO.to_canonical(), zero);
        b
    }

    /// The always-zero variable.
    pub fn zero(&self) -> Variable {
        self.zero
    }

    /// Current number of gates (excluding the public-input rows prepended
    /// at build time).
    pub fn gate_count(&self) -> usize {
        self.selectors.len()
    }

    /// Number of allocated variables.
    pub fn variable_count(&self) -> usize {
        self.assignments.len()
    }

    /// Read-only view of gate `row` (pre-build: no PI rows, no padding).
    pub fn gate_view(&self, row: usize) -> Option<GateView> {
        let s = self.selectors.get(row)?;
        let w = self.wires.get(row)?;
        Some(GateView {
            q_l: s.q_l,
            q_r: s.q_r,
            q_o: s.q_o,
            q_m: s.q_m,
            q_c: s.q_c,
            a: w.a,
            b: w.b,
            c: w.c,
        })
    }

    /// Iterates read-only views over every gate, in insertion order.
    pub fn gate_views(&self) -> impl Iterator<Item = GateView> + '_ {
        self.selectors
            .iter()
            .zip(&self.wires)
            .map(|(s, w)| GateView {
                q_l: s.q_l,
                q_r: s.q_r,
                q_o: s.q_o,
                q_m: s.q_m,
                q_c: s.q_c,
                a: w.a,
                b: w.b,
                c: w.c,
            })
    }

    /// The public-input variables, in exposure order.
    pub fn public_input_variables(&self) -> &[Variable] {
        &self.public_inputs
    }

    /// Iterates every allocated variable in allocation order (index order).
    pub fn variables(&self) -> impl Iterator<Item = Variable> + '_ {
        (0..self.assignments.len()).map(Variable)
    }

    /// Appends a gate **without** the witness-satisfaction debug check — a
    /// deliberately unsound hook for adversarial and lint tests that need
    /// to construct broken constraint systems (dead gates, contradictions).
    #[doc(hidden)]
    pub fn raw_gate(&mut self, a: Variable, b: Variable, c: Variable, q: [Fr; 5]) {
        self.selectors.push(Selectors {
            q_l: q[0],
            q_r: q[1],
            q_o: q[2],
            q_m: q[3],
            q_c: q[4],
        });
        self.wires.push(GateWires { a, b, c });
    }

    /// The copy-class representative of `v` under the current union-find
    /// state (read-only: no path compression, so usable on `&self`).
    /// Variables merged via [`CircuitBuilder::assert_equal`] share a
    /// representative; the representative choice is an implementation
    /// detail — only *equality* of representatives is meaningful.
    pub fn copy_representative(&self, v: Variable) -> Variable {
        let mut i = v.0;
        while self.parent[i] != i {
            i = self.parent[i];
        }
        Variable(i)
    }

    /// The witness value currently assigned to a variable.
    pub fn value(&self, v: Variable) -> Fr {
        self.assignments[v.0]
    }

    /// Allocates a private witness variable.
    pub fn alloc(&mut self, value: Fr) -> Variable {
        let v = Variable(self.assignments.len());
        self.assignments.push(value);
        self.parent.push(v.0);
        v
    }

    /// Allocates a public-input variable (exposed to the verifier in order).
    pub fn public_input(&mut self, value: Fr) -> Variable {
        let v = self.alloc(value);
        self.public_inputs.push(v);
        v
    }

    /// Returns the canonical variable pinned to constant `c` (cached).
    pub fn constant(&mut self, c: Fr) -> Variable {
        let key = c.to_canonical();
        if let Some(v) = self.constants.get(&key) {
            return *v;
        }
        let v = self.alloc(c);
        // 1·v + (−c) = 0
        self.gate(
            v,
            self.zero,
            self.zero,
            Selectors {
                q_l: Fr::ONE,
                q_c: -c,
                ..Default::default()
            },
        );
        self.constants.insert(key, v);
        v
    }

    /// Adds a raw gate `q_L·a + q_R·b + q_O·c + q_M·a·b + q_C = 0`.
    pub(crate) fn gate(&mut self, a: Variable, b: Variable, c: Variable, s: Selectors) {
        debug_assert_eq!(
            s.q_l * self.value(a)
                + s.q_r * self.value(b)
                + s.q_o * self.value(c)
                + s.q_m * self.value(a) * self.value(b)
                + s.q_c,
            Fr::ZERO,
            "unsatisfied gate at row {}",
            self.selectors.len()
        );
        self.selectors.push(s);
        self.wires.push(GateWires { a, b, c });
    }

    /// `x + y`.
    pub fn add(&mut self, x: Variable, y: Variable) -> Variable {
        let z = self.alloc(self.value(x) + self.value(y));
        self.gate(
            x,
            y,
            z,
            Selectors {
                q_l: Fr::ONE,
                q_r: Fr::ONE,
                q_o: -Fr::ONE,
                ..Default::default()
            },
        );
        z
    }

    /// `x - y`.
    pub fn sub(&mut self, x: Variable, y: Variable) -> Variable {
        let z = self.alloc(self.value(x) - self.value(y));
        self.gate(
            x,
            y,
            z,
            Selectors {
                q_l: Fr::ONE,
                q_r: -Fr::ONE,
                q_o: -Fr::ONE,
                ..Default::default()
            },
        );
        z
    }

    /// `x · y`.
    pub fn mul(&mut self, x: Variable, y: Variable) -> Variable {
        let z = self.alloc(self.value(x) * self.value(y));
        self.gate(
            x,
            y,
            z,
            Selectors {
                q_m: Fr::ONE,
                q_o: -Fr::ONE,
                ..Default::default()
            },
        );
        z
    }

    /// `k · x` for a circuit constant `k` (one gate, no constant variable).
    pub fn mul_const(&mut self, x: Variable, k: Fr) -> Variable {
        let z = self.alloc(self.value(x) * k);
        self.gate(
            x,
            self.zero,
            z,
            Selectors {
                q_l: k,
                q_o: -Fr::ONE,
                ..Default::default()
            },
        );
        z
    }

    /// `x + k` for a circuit constant `k`.
    pub fn add_const(&mut self, x: Variable, k: Fr) -> Variable {
        let z = self.alloc(self.value(x) + k);
        self.gate(
            x,
            self.zero,
            z,
            Selectors {
                q_l: Fr::ONE,
                q_c: k,
                q_o: -Fr::ONE,
                ..Default::default()
            },
        );
        z
    }

    /// `k_x·x + k_y·y + k` in a single gate.
    pub fn lc(&mut self, x: Variable, k_x: Fr, y: Variable, k_y: Fr, k: Fr) -> Variable {
        let z = self.alloc(k_x * self.value(x) + k_y * self.value(y) + k);
        self.gate(
            x,
            y,
            z,
            Selectors {
                q_l: k_x,
                q_r: k_y,
                q_c: k,
                q_o: -Fr::ONE,
                ..Default::default()
            },
        );
        z
    }

    /// `(x + k_x)·(y + k_y)` for circuit constants `k_x`, `k_y` in a single
    /// gate (`q_M = 1`, `q_L = k_y`, `q_R = k_x`, `q_C = k_x·k_y`), so a
    /// constant shift of either factor costs no row of its own.
    pub fn mul_shifted(&mut self, x: Variable, k_x: Fr, y: Variable, k_y: Fr) -> Variable {
        let z = self.alloc((self.value(x) + k_x) * (self.value(y) + k_y));
        self.gate(
            x,
            y,
            z,
            Selectors {
                q_m: Fr::ONE,
                q_l: k_y,
                q_r: k_x,
                q_c: k_x * k_y,
                q_o: -Fr::ONE,
            },
        );
        z
    }

    /// Constrains `x == y` (zero gates; merged in the copy permutation).
    ///
    /// # Panics
    ///
    /// Debug-panics if the witness values differ.
    pub fn assert_equal(&mut self, x: Variable, y: Variable) {
        debug_assert_eq!(
            self.value(x),
            self.value(y),
            "assert_equal on differing witness values"
        );
        let rx = self.find(x.0);
        let ry = self.find(y.0);
        if rx != ry {
            self.parent[ry] = rx;
        }
    }

    /// Constrains `x == 0`.
    pub fn assert_zero(&mut self, x: Variable) {
        self.gate(
            x,
            self.zero,
            self.zero,
            Selectors {
                q_l: Fr::ONE,
                ..Default::default()
            },
        );
    }

    /// Constrains `x == k` for a circuit constant.
    pub fn assert_constant(&mut self, x: Variable, k: Fr) {
        self.gate(
            x,
            self.zero,
            self.zero,
            Selectors {
                q_l: Fr::ONE,
                q_c: -k,
                ..Default::default()
            },
        );
    }

    /// Constrains `x ∈ {0, 1}`.
    pub fn assert_bool(&mut self, x: Variable) {
        // x·x − x = 0
        self.gate(
            x,
            x,
            self.zero,
            Selectors {
                q_m: Fr::ONE,
                q_l: -Fr::ONE,
                ..Default::default()
            },
        );
    }

    /// Allocates `x⁻¹` and constrains `x·inv = 1` (proves `x ≠ 0`).
    ///
    /// # Panics
    ///
    /// Debug-panics if `x` is zero in the witness.
    // Panicking on a zero witness is the documented contract of this
    // gadget: the caller is the circuit author, not an untrusted party.
    #[allow(clippy::expect_used)]
    pub fn inverse(&mut self, x: Variable) -> Variable {
        let inv_val = self
            .value(x)
            .inverse()
            .expect("inverse gadget requires non-zero witness");
        let inv = self.alloc(inv_val);
        self.gate(
            x,
            inv,
            self.zero,
            Selectors {
                q_m: Fr::ONE,
                q_c: -Fr::ONE,
                ..Default::default()
            },
        );
        inv
    }

    /// Boolean `x == 0` test: returns a bit `b` with `b = 1 ⟺ x = 0`.
    pub fn is_zero(&mut self, x: Variable) -> Variable {
        let x_val = self.value(x);
        // `inverse()` is `None` exactly when `x = 0`, which is the branch
        // condition itself — no panic path.
        let (b_val, inv_val) = match x_val.inverse() {
            None => (Fr::ONE, Fr::ZERO),
            Some(inv) => (Fr::ZERO, inv),
        };
        let b = self.alloc(b_val);
        let inv = self.alloc(inv_val);
        // b·x = 0  and  x·inv + b − 1 = 0
        self.gate(
            b,
            x,
            self.zero,
            Selectors {
                q_m: Fr::ONE,
                ..Default::default()
            },
        );
        self.gate(
            x,
            inv,
            b,
            Selectors {
                q_m: Fr::ONE,
                q_o: Fr::ONE,
                q_c: -Fr::ONE,
                ..Default::default()
            },
        );
        b
    }

    /// `if bit { t } else { f }` — `bit` must already be boolean-constrained.
    pub fn select(&mut self, bit: Variable, t: Variable, f: Variable) -> Variable {
        let d = self.sub(t, f);
        let m = self.mul(bit, d);
        self.add(m, f)
    }

    /// `x^e` for a fixed exponent via square-and-multiply.
    pub fn pow_const(&mut self, x: Variable, e: u64) -> Variable {
        if e == 0 {
            return self.constant(Fr::ONE);
        }
        let mut acc = x; // top bit (e > 0 after the early return)
        for i in (0..63 - e.leading_zeros()).rev() {
            let sq = self.mul(acc, acc);
            acc = if (e >> i) & 1 == 1 { self.mul(sq, x) } else { sq };
        }
        acc
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    /// Finalizes the circuit: prepends public-input rows, pads to a power
    /// of two, and resolves the copy permutation.
    pub fn build(mut self) -> CompiledCircuit {
        let ell = self.public_inputs.len();
        // Public-input rows: q_L·a + PI = 0 with PI_i = −x_i.
        let mut selectors = Vec::with_capacity(ell + self.selectors.len());
        let mut wires = Vec::with_capacity(ell + self.wires.len());
        for pi in &self.public_inputs {
            selectors.push(Selectors {
                q_l: Fr::ONE,
                ..Default::default()
            });
            wires.push(GateWires {
                a: *pi,
                b: self.zero,
                c: self.zero,
            });
        }
        selectors.extend_from_slice(&self.selectors);
        wires.extend_from_slice(&self.wires);

        // Pad to ≥ 8 rows and a power of two (blinding needs n ≥ gates + slack,
        // handled by preprocessing choosing the domain).
        let rows_used = selectors.len();
        let n = (selectors.len().max(8)).next_power_of_two();
        while selectors.len() < n {
            selectors.push(Selectors::default());
            wires.push(GateWires {
                a: self.zero,
                b: self.zero,
                c: self.zero,
            });
        }

        // Resolve union-find: canonical representative per variable.
        let var_count = self.assignments.len();
        let reps: Vec<usize> = (0..var_count).map(|i| self.find(i)).collect();

        // Consistency: merged variables must agree in the witness.
        for (i, rep) in reps.iter().enumerate() {
            debug_assert_eq!(
                self.assignments[i], self.assignments[*rep],
                "copy-constrained variables with different witness values"
            );
        }

        let public_values: Vec<Fr> = self
            .public_inputs
            .iter()
            .map(|v| self.assignments[v.0])
            .collect();

        CompiledCircuit {
            selectors,
            wires,
            assignments: self.assignments,
            representatives: reps,
            num_public_inputs: ell,
            public_values,
            rows: n,
            rows_used,
        }
    }
}

/// A finalized circuit: fixed structure plus the witness it was built with.
#[derive(Clone, Debug)]
pub struct CompiledCircuit {
    pub(crate) selectors: Vec<Selectors>,
    pub(crate) wires: Vec<GateWires>,
    pub(crate) assignments: Vec<Fr>,
    /// Union-find representative for each variable (copy classes).
    pub(crate) representatives: Vec<usize>,
    pub(crate) num_public_inputs: usize,
    pub(crate) public_values: Vec<Fr>,
    pub(crate) rows: usize,
    /// Rows before padding: public-input rows plus gates.
    pub(crate) rows_used: usize,
}

impl CompiledCircuit {
    /// Number of gate rows (padded to a power of two).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Rows before padding to a power of two: public-input rows plus
    /// gates. A gadget change that moves this across a power of two moves
    /// [`Self::rows`], and with it every prove and preprocess of the shape.
    pub fn rows_used(&self) -> usize {
        self.rows_used
    }

    /// Number of public inputs `ℓ`.
    pub fn num_public_inputs(&self) -> usize {
        self.num_public_inputs
    }

    /// The public-input values of the embedded witness, in order.
    pub fn public_values(&self) -> &[Fr] {
        &self.public_values
    }

    /// SHA-256 over exactly what [`crate::Plonk::preprocess`] reads: row
    /// count, public-input count, every selector and every wire's copy
    /// class. Two circuits with the same digest preprocess to the same keys
    /// under one SRS, whatever their witnesses — so the digest can key a
    /// proving-key cache without aliasing two relations. (Copy classes are
    /// hashed by representative label, so a relabelled but equal
    /// permutation hashes differently: a spurious miss, never a wrong hit.)
    pub fn shape_digest(&self) -> [u8; 32] {
        // A zero selector (the common case) is one tag byte, any other
        // value a tag plus its 32 bytes: still injective, with far fewer
        // bytes to hash than a flat encoding.
        fn put(buf: &mut Vec<u8>, x: &Fr) {
            if x.is_zero() {
                buf.push(0);
            } else {
                buf.push(1);
                buf.extend_from_slice(&x.to_bytes());
            }
        }
        let mut buf = Vec::with_capacity(16 + self.rows * 64);
        buf.extend_from_slice(&(self.rows as u64).to_le_bytes());
        buf.extend_from_slice(&(self.num_public_inputs as u64).to_le_bytes());
        for (s, w) in self.selectors.iter().zip(&self.wires) {
            for q in [&s.q_l, &s.q_r, &s.q_o, &s.q_m, &s.q_c] {
                put(&mut buf, q);
            }
            for v in [w.a, w.b, w.c] {
                buf.extend_from_slice(&(self.representatives[v.0] as u64).to_le_bytes());
            }
        }
        let mut h = zkdet_crypto::sha256::Sha256::new();
        h.update(b"zkdet-circuit-shape-v1");
        h.update(&buf);
        h.finalize()
    }

    /// Overwrites one witness value — a deliberately unsafe hook for
    /// adversarial tests that need to hand the prover a corrupted witness.
    #[doc(hidden)]
    pub fn tamper_assignment(&mut self, index: usize, value: Fr) {
        self.assignments[index] = value;
    }

    /// Finds the index of the first assignment equal to `value` (test hook).
    #[doc(hidden)]
    pub fn find_assignment(&self, value: Fr) -> Option<usize> {
        self.assignments.iter().position(|v| *v == value)
    }

    /// The witness value on each wire column, per row.
    pub(crate) fn wire_values(&self) -> (Vec<Fr>, Vec<Fr>, Vec<Fr>) {
        let a = self.wires.iter().map(|w| self.assignments[w.a.0]).collect();
        let b = self.wires.iter().map(|w| self.assignments[w.b.0]).collect();
        let c = self.wires.iter().map(|w| self.assignments[w.c.0]).collect();
        (a, b, c)
    }

    /// Checks gate satisfaction and copy-class consistency of the embedded
    /// witness (test/diagnostic helper; the prover re-derives this).
    pub fn is_satisfied(&self) -> bool {
        for (i, (s, w)) in self.selectors.iter().zip(&self.wires).enumerate() {
            let a = self.assignments[w.a.0];
            let b = self.assignments[w.b.0];
            let c = self.assignments[w.c.0];
            let pi = if i < self.num_public_inputs {
                -self.public_values[i]
            } else {
                Fr::ZERO
            };
            if s.q_l * a + s.q_r * b + s.q_o * c + s.q_m * a * b + s.q_c + pi != Fr::ZERO {
                return false;
            }
        }
        self.representatives
            .iter()
            .enumerate()
            .all(|(i, r)| self.assignments[i] == self.assignments[*r])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_arithmetic_circuit_satisfied() {
        let mut b = CircuitBuilder::new();
        let x = b.alloc(Fr::from(3u64));
        let y = b.alloc(Fr::from(4u64));
        let p = b.mul(x, y);
        let s = b.add(p, x);
        b.assert_constant(s, Fr::from(15u64));
        let c = b.build();
        assert!(c.is_satisfied());
        assert!(c.rows().is_power_of_two());
    }

    #[test]
    fn shape_digest_tracks_structure_not_witness() {
        // x·y + k = out, with `public` choosing whether `out` is public.
        let circuit = |x: u64, y: u64, k: u64, public: bool, tie: bool| {
            let mut b = CircuitBuilder::new();
            let xv = b.alloc(Fr::from(x));
            let yv = b.alloc(Fr::from(y));
            let p = b.mul(xv, yv);
            let s = b.add_const(p, Fr::from(k));
            let out = if public {
                b.public_input(Fr::from(x * y + k))
            } else {
                b.alloc(Fr::from(x * y + k))
            };
            b.assert_equal(s, out);
            if tie {
                b.assert_equal(xv, yv);
            }
            b.build()
        };
        let base = circuit(3, 4, 5, true, false).shape_digest();
        assert_eq!(base, circuit(7, 9, 5, true, false).shape_digest());
        // A selector value, the public-input count and the wiring each move it.
        assert_ne!(base, circuit(3, 4, 6, true, false).shape_digest());
        assert_ne!(base, circuit(3, 4, 5, false, false).shape_digest());
        assert_ne!(base, circuit(3, 3, 5, true, true).shape_digest());
    }

    #[test]
    fn public_inputs_front_rows() {
        let mut b = CircuitBuilder::new();
        let x = b.public_input(Fr::from(5u64));
        let y = b.mul(x, x);
        b.assert_constant(y, Fr::from(25u64));
        let c = b.build();
        assert_eq!(c.num_public_inputs(), 1);
        assert_eq!(c.public_values(), &[Fr::from(5u64)]);
        assert!(c.is_satisfied());
    }

    #[test]
    fn gadget_semantics() {
        let mut b = CircuitBuilder::new();
        let x = b.alloc(Fr::from(7u64));
        assert_eq!(b.value(b.zero()), Fr::ZERO);

        let k = b.mul_const(x, Fr::from(3u64));
        assert_eq!(b.value(k), Fr::from(21u64));

        let a = b.add_const(x, Fr::from(10u64));
        assert_eq!(b.value(a), Fr::from(17u64));

        let l = b.lc(x, Fr::from(2u64), a, Fr::from(3u64), Fr::ONE);
        assert_eq!(b.value(l), Fr::from(14 + 51 + 1u64));

        let p = b.pow_const(x, 5);
        assert_eq!(b.value(p), Fr::from(16807u64));

        // (7 + 3)·(17 − 2), and (7 + 4)², each in one row.
        let rows = b.gate_count();
        let ms = b.mul_shifted(x, Fr::from(3u64), a, -Fr::from(2u64));
        assert_eq!(b.value(ms), Fr::from(150u64));
        let sq = b.mul_shifted(x, Fr::from(4u64), x, Fr::from(4u64));
        assert_eq!(b.value(sq), Fr::from(121u64));
        assert_eq!(b.gate_count(), rows + 2);

        let inv = b.inverse(x);
        assert_eq!(b.value(inv) * Fr::from(7u64), Fr::ONE);

        let z = b.is_zero(b.zero());
        assert_eq!(b.value(z), Fr::ONE);
        let nz = b.is_zero(x);
        assert_eq!(b.value(nz), Fr::ZERO);

        let bit = b.alloc(Fr::ONE);
        b.assert_bool(bit);
        let sel = b.select(bit, x, a);
        assert_eq!(b.value(sel), Fr::from(7u64));

        assert!(b.build().is_satisfied());
    }

    #[test]
    fn constant_caching() {
        let mut b = CircuitBuilder::new();
        let c1 = b.constant(Fr::from(42u64));
        let c2 = b.constant(Fr::from(42u64));
        assert_eq!(c1, c2);
        let z = b.constant(Fr::ZERO);
        assert_eq!(z, b.zero());
    }

    #[test]
    fn unsatisfied_gate_detected() {
        let mut b = CircuitBuilder::new();
        let x = b.alloc(Fr::from(2u64));
        // Tamper with the assignment after constraining.
        b.assert_constant(x, Fr::from(2u64));
        let mut c = b.build();
        c.assignments[x.0] = Fr::from(3u64);
        assert!(!c.is_satisfied());
    }

    #[test]
    fn introspection_views_match_structure() {
        let mut b = CircuitBuilder::new();
        let x = b.public_input(Fr::from(3u64));
        let y = b.alloc(Fr::from(9u64));
        let m = b.mul(x, x);
        b.assert_equal(m, y);

        assert_eq!(b.public_input_variables(), &[x]);
        assert_eq!(b.variables().count(), b.variable_count());
        assert_eq!(b.gate_views().count(), b.gate_count());
        assert!(b.gate_view(b.gate_count()).is_none());

        // The mul gate reads a and b (q_M) and c (q_O), and is not dead.
        let views: Vec<GateView> = b.gate_views().collect();
        let g = views[b.gate_count() - 1];
        assert_eq!((g.a, g.b, g.c), (x, x, m));
        assert!(g.reads_a() && g.reads_b() && g.reads_c());
        assert!(!g.is_dead());

        // Copy classes: m and y merged, x separate.
        assert_eq!(b.copy_representative(m), b.copy_representative(y));
        assert_ne!(b.copy_representative(x), b.copy_representative(y));
    }

    #[test]
    fn raw_gate_bypasses_satisfaction_check() {
        let mut b = CircuitBuilder::new();
        let x = b.alloc(Fr::from(2u64));
        // 1·x + 1 = 0 is false for x = 2; raw_gate must still accept it.
        b.raw_gate(
            x,
            b.zero(),
            b.zero(),
            [Fr::ONE, Fr::ZERO, Fr::ZERO, Fr::ZERO, Fr::ONE],
        );
        assert!(!b.build().is_satisfied());
    }

    #[test]
    #[should_panic(expected = "assert_equal")]
    #[cfg(debug_assertions)]
    fn assert_equal_panics_on_mismatch_in_debug() {
        let mut b = CircuitBuilder::new();
        let x = b.alloc(Fr::from(1u64));
        let y = b.alloc(Fr::from(2u64));
        b.assert_equal(x, y);
    }
}

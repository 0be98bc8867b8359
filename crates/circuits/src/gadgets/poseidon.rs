//! In-circuit Poseidon: commitments and Merkle hashing (§IV-C2).
//!
//! Matches `zkdet_crypto::poseidon` exactly — same constants, MDS, padding
//! and domain separation — so commitments verified in-circuit equal the
//! native ones published on-chain.
//!
//! One permutation is 540 rows (DESIGN.md §2.1):
//!
//! * an S-box folds its round constant into its own rows — `(s + c)²`,
//!   `x⁴`, `x⁴·(s + c)` — so round constants cost no row;
//! * a full round is three S-boxes and the six-row MDS mix: 15 rows;
//! * a partial round runs in the sparse-matrix form of Grassi et al.
//!   (<https://eprint.iacr.org/2019/458>, App. B): lane 0's S-box, two
//!   rows for lane 0's dense output, one row each for lanes 1 and 2 —
//!   7 rows;
//! * 8 · 15 + 60 · 7 = 540.

use std::sync::OnceLock;

use zkdet_field::{Field, Fr};
use zkdet_plonk::{CircuitBuilder, Variable};

use zkdet_crypto::poseidon::{params, FULL_ROUNDS, PARTIAL_ROUNDS, WIDTH};

type Matrix = [[Fr; WIDTH]; WIDTH];

/// One partial round in sparse form: `x ← B · S₀(x + c)` with
/// `B = [[m₀₀, v₁, v₂], [w₁, 1, 0], [w₂, 0, 1]]` and `S₀` the S-box on
/// lane 0 only.
struct SparseRound {
    c: [Fr; WIDTH],
    m00: Fr,
    v: [Fr; 2],
    w: [Fr; 2],
}

/// The partial rounds rewritten for the gadget, derived once from
/// [`params`]: the sparse rounds, and the dense matrix the last
/// first-half full round mixes with in place of the MDS.
struct SparseSchedule {
    dense: Matrix,
    partial: Vec<SparseRound>,
}

fn mat_mul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = [[Fr::ZERO; WIDTH]; WIDTH];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = (0..WIDTH).fold(Fr::ZERO, |acc, k| acc + a[i][k] * b[k][j]);
        }
    }
    out
}

/// Walks the partial rounds last to first. The matrix `N` after round
/// `r`'s S-box (the MDS for the last round) factors as `N = B·A` with
/// `A = diag(1, N̂)` (`N̂` its lower-right 2 × 2 block) and `B` sparse:
/// `B`'s first column is `N`'s, its first row is `(n₀₀, (n₀₁, n₀₂)·N̂⁻¹)`.
/// `A` fixes lane 0, so it commutes with `S₀`: it moves before the S-box,
/// turning round `r`'s constants into `A·c_r` and the previous round's
/// matrix into `A·M`. The last `A` lands in the final first-half full
/// round, whose MDS rows become `A·M` at no extra row.
fn sparse_schedule() -> &'static SparseSchedule {
    static SCHEDULE: OnceLock<SparseSchedule> = OnceLock::new();
    SCHEDULE.get_or_init(|| {
        let p = params();
        let first = FULL_ROUNDS / 2;
        let mut n = p.mds;
        let mut partial = Vec::with_capacity(PARTIAL_ROUNDS);
        for r in (first..first + PARTIAL_ROUNDS).rev() {
            // N̂ is a product of Cauchy minors, so its determinant is
            // non-zero; a zero would fail the gadget's native-equality
            // tests rather than pass silently.
            let det = n[1][1] * n[2][2] - n[1][2] * n[2][1];
            let inv = det.inverse().unwrap_or(Fr::ZERO);
            let hat_inv = [
                [n[2][2] * inv, -n[1][2] * inv],
                [-n[2][1] * inv, n[1][1] * inv],
            ];
            let v = [0, 1].map(|j| n[0][1] * hat_inv[0][j] + n[0][2] * hat_inv[1][j]);
            let a: Matrix = [
                [Fr::ONE, Fr::ZERO, Fr::ZERO],
                [Fr::ZERO, n[1][1], n[1][2]],
                [Fr::ZERO, n[2][1], n[2][2]],
            ];
            let rc = &p.round_constants[r];
            let c = [0, 1, 2].map(|i| (0..WIDTH).fold(Fr::ZERO, |acc, k| acc + a[i][k] * rc[k]));
            partial.push(SparseRound {
                c,
                m00: n[0][0],
                v,
                w: [n[1][0], n[2][0]],
            });
            n = mat_mul(&a, &p.mds);
        }
        partial.reverse();
        SparseSchedule { dense: n, partial }
    })
}

/// `(s + c)⁵` in three rows: `(s + c)²`, its square, then `x⁴·(s + c)`.
fn sbox(b: &mut CircuitBuilder, s: Variable, c: Fr) -> Variable {
    let x2 = b.mul_shifted(s, c, s, c);
    let x4 = b.mul(x2, x2);
    b.mul_shifted(x4, Fr::ZERO, s, c)
}

/// A full round: every lane's S-box, then `m·x` in two `lc` rows a lane.
fn full_round(b: &mut CircuitBuilder, state: &mut [Variable; WIDTH], c: &[Fr; WIDTH], m: &Matrix) {
    let x = [0, 1, 2].map(|j| sbox(b, state[j], c[j]));
    for (i, s) in state.iter_mut().enumerate() {
        let t01 = b.lc(x[0], m[i][0], x[1], m[i][1], Fr::ZERO);
        *s = b.lc(t01, Fr::ONE, x[2], m[i][2], Fr::ZERO);
    }
}

/// Applies the Poseidon permutation to a width-3 state of variables.
pub fn poseidon_permute(b: &mut CircuitBuilder, state: &mut [Variable; WIDTH]) {
    let p = params();
    let schedule = sparse_schedule();
    let half = FULL_ROUNDS / 2;
    for r in 0..half {
        let m = if r + 1 == half {
            &schedule.dense
        } else {
            &p.mds
        };
        full_round(b, state, &p.round_constants[r], m);
    }
    for round in &schedule.partial {
        let [x0, x1, x2] = *state;
        let [c0, c1, c2] = round.c;
        let y0 = sbox(b, x0, c0);
        let t = b.lc(
            y0,
            round.m00,
            x1,
            round.v[0],
            round.v[0] * c1 + round.v[1] * c2,
        );
        state[0] = b.lc(t, Fr::ONE, x2, round.v[1], Fr::ZERO);
        state[1] = b.lc(y0, round.w[0], x1, Fr::ONE, c1);
        state[2] = b.lc(y0, round.w[1], x2, Fr::ONE, c2);
    }
    for r in half + PARTIAL_ROUNDS..FULL_ROUNDS + PARTIAL_ROUNDS {
        full_round(b, state, &p.round_constants[r], &p.mds);
    }
}

/// Two-to-one hash `H(x, y)` matching `Poseidon::hash_two`.
pub fn poseidon_hash_two(b: &mut CircuitBuilder, x: Variable, y: Variable) -> Variable {
    let one = b.constant(Fr::from(1u64));
    let mut state = [one, x, y];
    poseidon_permute(b, &mut state);
    state[1]
}

/// Variable-length sponge hash matching `Poseidon::hash` (the input length
/// is a structural constant of the circuit, as it is in the native hash).
pub fn poseidon_hash(b: &mut CircuitBuilder, inputs: &[Variable]) -> Variable {
    let cap_tag = Fr::from(2u64) + Fr::from((inputs.len() as u64) << 8);
    let cap = b.constant(cap_tag);
    let zero = b.zero();
    let mut state = [cap, zero, zero];
    if inputs.is_empty() {
        poseidon_permute(b, &mut state);
        return state[1];
    }
    for chunk in inputs.chunks(2) {
        state[1] = b.add(state[1], chunk[0]);
        state[2] = match chunk.get(1) {
            Some(x) => b.add(state[2], *x),
            None => b.add_const(state[2], Fr::ONE),
        };
        poseidon_permute(b, &mut state);
    }
    state[1]
}

/// The commitment relation `Open(m, c, o) = 1` of §II-B:
/// recomputes `Commit(m; o) = Poseidon(m ‖ o)` and returns the commitment
/// wire (callers constrain it against the public commitment).
pub fn poseidon_commit(b: &mut CircuitBuilder, message: &[Variable], opening: Variable) -> Variable {
    let mut input = message.to_vec();
    input.push(opening);
    poseidon_hash(b, &input)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use zkdet_crypto::commitment::{CommitmentScheme, Opening};
    use zkdet_crypto::poseidon::Poseidon;

    #[test]
    fn permutation_matches_native() {
        let mut rng = StdRng::seed_from_u64(310);
        let vals = [Fr::random(&mut rng), Fr::random(&mut rng), Fr::random(&mut rng)];
        let mut native = vals;
        Poseidon::permute(&mut native);

        let mut b = CircuitBuilder::new();
        let mut state = [b.alloc(vals[0]), b.alloc(vals[1]), b.alloc(vals[2])];
        poseidon_permute(&mut b, &mut state);
        for (v, n) in state.iter().zip(&native) {
            assert_eq!(b.value(*v), *n);
        }
        assert!(b.build().is_satisfied());
    }

    #[test]
    fn a_permutation_costs_at_most_540_rows() {
        let mut b = CircuitBuilder::new();
        let mut state = [0u64, 1, 2].map(|v| b.alloc(Fr::from(v)));
        let before = b.gate_count();
        poseidon_permute(&mut b, &mut state);
        let rows = b.gate_count() - before;
        assert!(rows <= 540, "{rows} rows per permutation");
    }

    #[test]
    fn hash_two_matches_native() {
        let x = Fr::from(11u64);
        let y = Fr::from(22u64);
        let mut b = CircuitBuilder::new();
        let xv = b.alloc(x);
        let yv = b.alloc(y);
        let h = poseidon_hash_two(&mut b, xv, yv);
        assert_eq!(b.value(h), Poseidon::hash_two(x, y));
        assert!(b.build().is_satisfied());
    }

    #[test]
    fn sponge_matches_native_all_lengths() {
        let mut rng = StdRng::seed_from_u64(311);
        for len in 0..6 {
            let vals: Vec<Fr> = (0..len).map(|_| Fr::random(&mut rng)).collect();
            let mut b = CircuitBuilder::new();
            let vars: Vec<_> = vals.iter().map(|v| b.alloc(*v)).collect();
            let h = poseidon_hash(&mut b, &vars);
            assert_eq!(b.value(h), Poseidon::hash(&vals), "length {len}");
            assert!(b.build().is_satisfied());
        }
    }

    #[test]
    fn commit_gadget_matches_native_scheme() {
        let mut rng = StdRng::seed_from_u64(312);
        let msg: Vec<Fr> = (0..3).map(|_| Fr::random(&mut rng)).collect();
        let (c, o) = CommitmentScheme::commit(&msg, &mut rng);
        let mut b = CircuitBuilder::new();
        let mvars: Vec<_> = msg.iter().map(|v| b.alloc(*v)).collect();
        let ovar = b.alloc(o.0);
        let cvar = poseidon_commit(&mut b, &mvars, ovar);
        assert_eq!(b.value(cvar), c.0);
        // And the wrong opening yields a different value.
        let bad = Opening(o.0 + Fr::ONE);
        assert_ne!(b.value(cvar), CommitmentScheme::commit_with(&msg, &bad).0);
        assert!(b.build().is_satisfied());
    }
}

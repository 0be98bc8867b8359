//! The Poseidon permutation and sponge hash (paper §IV-C2).
//!
//! Instantiation follows the paper's recommended setting: S-box `x⁵`,
//! `R_F = 8` full rounds, `R_P = 60` partial rounds, width `t = 3`
//! (rate 2, capacity 1) over the BN254 scalar field.
//!
//! Round constants are derived deterministically from SHA-256 (a stand-in
//! for the reference Grain-LFSR derivation — the security argument only
//! needs "nothing-up-my-sleeve" constants); the MDS matrix is the standard
//! Cauchy construction `M[i][j] = 1/(xᵢ + yⱼ)`.

use zkdet_field::{Field, Fr, PrimeField};

use crate::sha256::sha256;

/// Sponge width.
pub const WIDTH: usize = 3;
/// Number of full rounds.
pub const FULL_ROUNDS: usize = 8;
/// Number of partial rounds.
pub const PARTIAL_ROUNDS: usize = 60;
/// S-box exponent.
pub const ALPHA: u64 = 5;

/// Poseidon parameters (round constants + MDS matrix), shared process-wide.
#[derive(Clone, Debug)]
pub struct PoseidonParams {
    /// `(R_F + R_P) × WIDTH` round constants.
    pub round_constants: Vec<[Fr; WIDTH]>,
    /// `WIDTH × WIDTH` MDS matrix.
    pub mds: [[Fr; WIDTH]; WIDTH],
}

fn derive_field_element(label: &[u8], i: u64) -> Fr {
    let mut seed = label.to_vec();
    seed.extend_from_slice(&i.to_le_bytes());
    let d1 = sha256(&seed);
    seed.push(0xfe);
    let d2 = sha256(&seed);
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&d1);
    wide[32..].copy_from_slice(&d2);
    Fr::from_bytes_wide(&wide)
}

/// The process-wide Poseidon parameters.
pub fn params() -> &'static PoseidonParams {
    use std::sync::OnceLock;
    static PARAMS: OnceLock<PoseidonParams> = OnceLock::new();
    PARAMS.get_or_init(|| {
        let total = FULL_ROUNDS + PARTIAL_ROUNDS;
        let mut round_constants = Vec::with_capacity(total);
        for r in 0..total {
            let mut row = [Fr::ZERO; WIDTH];
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = derive_field_element(b"zkdet-poseidon-rc", (r * WIDTH + j) as u64);
            }
            round_constants.push(row);
        }
        // Cauchy MDS: M[i][j] = 1/(x_i + y_j), x = (0,1,2), y = (3,4,5).
        // Every x_i + y_j is in [3, 7], so no entry is left at zero.
        let mut mds = [[Fr::ZERO; WIDTH]; WIDTH];
        for (i, row) in mds.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = Fr::from(i as u64) + Fr::from((WIDTH + j) as u64);
            }
            Fr::batch_inverse(row);
        }
        PoseidonParams {
            round_constants,
            mds,
        }
    })
}

/// The Poseidon hash function (sponge over the permutation).
#[derive(Clone, Debug, Default)]
pub struct Poseidon;

impl Poseidon {
    /// Applies the raw width-3 permutation in place.
    pub fn permute(state: &mut [Fr; WIDTH]) {
        let p = params();
        let half_full = FULL_ROUNDS / 2;
        let total = FULL_ROUNDS + PARTIAL_ROUNDS;
        for r in 0..total {
            // ARC
            for (s, c) in state.iter_mut().zip(&p.round_constants[r]) {
                *s += *c;
            }
            // S-box layer: all lanes in full rounds, lane 0 in partial rounds.
            let full = r < half_full || r >= half_full + PARTIAL_ROUNDS;
            if full {
                for s in state.iter_mut() {
                    *s = s.pow(&[ALPHA, 0, 0, 0]);
                }
            } else {
                state[0] = state[0].pow(&[ALPHA, 0, 0, 0]);
            }
            // MDS mix.
            let old = *state;
            for (i, s) in state.iter_mut().enumerate() {
                let mut acc = Fr::ZERO;
                for (j, o) in old.iter().enumerate() {
                    acc += p.mds[i][j] * *o;
                }
                *s = acc;
            }
        }
    }

    /// Two-to-one compression `H(a, b)` (Merkle nodes, commitments).
    ///
    /// Domain-separated from the variable-length sponge by capacity tag 1.
    pub fn hash_two(a: Fr, b: Fr) -> Fr {
        let mut state = [Fr::from(1u64), a, b];
        Self::permute(&mut state);
        state[1]
    }

    /// Variable-length sponge hash with rate 2 and 10*-style padding.
    ///
    /// The input length is bound into the capacity lane, so inputs of
    /// different lengths can never collide structurally.
    pub fn hash(inputs: &[Fr]) -> Fr {
        let mut state = [
            Fr::from(2u64) + Fr::from((inputs.len() as u64) << 8),
            Fr::ZERO,
            Fr::ZERO,
        ];
        let mut chunks = inputs.chunks(2).peekable();
        if chunks.peek().is_none() {
            Self::permute(&mut state);
            return state[1];
        }
        for chunk in chunks {
            state[1] += chunk[0];
            if let Some(x) = chunk.get(1) {
                state[2] += *x;
            } else {
                state[2] += Fr::ONE; // padding marker for odd length
            }
            Self::permute(&mut state);
        }
        state[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn permutation_is_deterministic_and_nontrivial() {
        let mut s1 = [Fr::from(1u64), Fr::from(2u64), Fr::from(3u64)];
        let mut s2 = s1;
        Poseidon::permute(&mut s1);
        Poseidon::permute(&mut s2);
        assert_eq!(s1, s2);
        assert_ne!(s1, [Fr::from(1u64), Fr::from(2u64), Fr::from(3u64)]);
    }

    #[test]
    fn hash_two_is_not_symmetric() {
        let a = Fr::from(10u64);
        let b = Fr::from(20u64);
        assert_ne!(Poseidon::hash_two(a, b), Poseidon::hash_two(b, a));
    }

    #[test]
    fn sponge_separates_lengths() {
        let a = Fr::from(7u64);
        assert_ne!(Poseidon::hash(&[a]), Poseidon::hash(&[a, Fr::ZERO]));
        assert_ne!(Poseidon::hash(&[]), Poseidon::hash(&[Fr::ZERO]));
        assert_ne!(
            Poseidon::hash(&[a, a, a]),
            Poseidon::hash(&[a, a, a, Fr::ZERO])
        );
    }

    #[test]
    fn sponge_sensitive_to_every_input() {
        let mut rng = StdRng::seed_from_u64(80);
        let base: Vec<Fr> = (0..5).map(|_| Fr::random(&mut rng)).collect();
        let h = Poseidon::hash(&base);
        for i in 0..base.len() {
            let mut mutated = base.clone();
            mutated[i] += Fr::ONE;
            assert_ne!(Poseidon::hash(&mutated), h, "insensitive to input {i}");
        }
    }

    #[test]
    fn mds_matrix_is_invertible() {
        // 3×3 determinant ≠ 0 — MDS by construction, but check anyway.
        let m = &params().mds;
        let det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
        assert_ne!(det, Fr::ZERO);
    }
}

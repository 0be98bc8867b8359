//! The six registry relations as plain Rust, written from the paper's §IV
//! rather than from the circuits: `holds(shape, statement, witness)` is
//! what a circuit of that shape must accept, no more and no less.
//!
//! Nothing here touches a [`zkdet_plonk::CircuitBuilder`]. The primitives
//! are the native ones the paper names — MiMC-CTR for `Enc` (§IV-B), the
//! Poseidon commitment `Open(m, c, o)` (§II-B, §IV-C2) and the Poseidon
//! sponge `H` (§IV-F) — so a circuit that constrains the wrong thing
//! disagrees with this module on some (statement, witness) pair even when
//! it is complete, fully constrained and lint-clean.
//!
//! Each statement's `public_inputs` is the verifier's vector in the order
//! the circuit exposes it; everything in a witness is secret.

use zkdet_crypto::commitment::{CommitmentScheme, Opening};
use zkdet_crypto::mimc::MimcCtr;
use zkdet_crypto::poseidon::Poseidon;
use zkdet_field::{Fr, PrimeField};

fn open(message: &[Fr], commitment: Fr, opening: Fr) -> bool {
    CommitmentScheme::commit_with(message, &Opening(opening)).0 == commitment
}

/// `π_e` (§IV-B): `ĉᵢ = mᵢ + MiMC_k(nonce + i) ∀i ∧ Open(M, c, o) = 1`.
pub mod encryption {
    use super::*;

    /// `(Ĉ, c, nonce)`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Statement {
        /// Ciphertext blocks `Ĉ`.
        pub ciphertext: Vec<Fr>,
        /// Commitment `c` to the plaintext.
        pub commitment: Fr,
        /// CTR nonce.
        pub nonce: Fr,
    }

    /// `(M, k, o)`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Witness {
        /// Plaintext blocks `M`.
        pub plaintext: Vec<Fr>,
        /// MiMC key `k`.
        pub key: Fr,
        /// Commitment blinder `o`.
        pub opening: Fr,
    }

    impl Statement {
        /// `[ĉ₀, …, ĉₙ₋₁, c, nonce]`.
        pub fn public_inputs(&self) -> Vec<Fr> {
            let mut pi = self.ciphertext.clone();
            pi.extend([self.commitment, self.nonce]);
            pi
        }
    }

    /// The relation at `blocks` blocks.
    pub fn holds(blocks: usize, x: &Statement, w: &Witness) -> bool {
        let ctr = MimcCtr::new(w.key, x.nonce);
        x.ciphertext.len() == blocks
            && w.plaintext.len() == blocks
            && (0..blocks).all(|i| x.ciphertext[i] == w.plaintext[i] + ctr.keystream(i))
            && open(&w.plaintext, x.commitment, w.opening)
    }
}

/// `π_t` duplication (§IV-D1): `D = S`, `n = m`, both opened.
pub mod duplication {
    use super::*;

    /// `(c_s, c_d)`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Statement {
        /// Source commitment.
        pub source: Fr,
        /// Replica commitment.
        pub derived: Fr,
    }

    /// `(S, o_s, o_d)`; the replica `D` is `S` itself.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Witness {
        /// The dataset `S = D`.
        pub data: Vec<Fr>,
        /// Source blinder.
        pub source_opening: Fr,
        /// Replica blinder.
        pub derived_opening: Fr,
    }

    impl Statement {
        /// `[c_s, c_d]`.
        pub fn public_inputs(&self) -> Vec<Fr> {
            vec![self.source, self.derived]
        }
    }

    /// The relation at `len` entries.
    pub fn holds(len: usize, x: &Statement, w: &Witness) -> bool {
        w.data.len() == len
            && open(&w.data, x.source, w.source_opening)
            && open(&w.data, x.derived, w.derived_opening)
    }
}

/// `π_t` aggregation (§IV-D2): `D = S₁ ‖ … ‖ Sₓ` in order, `m = Σ nₖ`.
pub mod aggregation {
    use super::*;

    /// `(c_d, c_{s₁}, …, c_{sₓ})`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Statement {
        /// Commitment to the aggregate `D`.
        pub derived: Fr,
        /// Source commitments, in aggregation order.
        pub sources: Vec<Fr>,
    }

    /// `(S₁, …, Sₓ, o_d, o_{s₁}, …)`; `D` is their concatenation.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Witness {
        /// Source datasets, in aggregation order.
        pub sources: Vec<Vec<Fr>>,
        /// Blinder of `c_d`.
        pub derived_opening: Fr,
        /// Blinders of the source commitments.
        pub source_openings: Vec<Fr>,
    }

    impl Statement {
        /// `[c_d, c_{s₁}, …]`.
        pub fn public_inputs(&self) -> Vec<Fr> {
            let mut pi = vec![self.derived];
            pi.extend(&self.sources);
            pi
        }
    }

    /// The relation for sources of `lens` entries.
    pub fn holds(lens: &[usize], x: &Statement, w: &Witness) -> bool {
        let shaped = x.sources.len() == lens.len()
            && w.sources.len() == lens.len()
            && w.source_openings.len() == lens.len()
            && w.sources.iter().zip(lens).all(|(s, n)| s.len() == *n);
        shaped
            && open(&w.sources.concat(), x.derived, w.derived_opening)
            && (0..lens.len()).all(|k| open(&w.sources[k], x.sources[k], w.source_openings[k]))
    }
}

/// `π_t` partition (§IV-D3): `S = D₁ ‖ … ‖ D_y`, every `nₖ ≠ 0`.
pub mod partition {
    use super::*;

    /// `(c_s, c_{d₁}, …, c_{d_y})`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Statement {
        /// Source commitment.
        pub source: Fr,
        /// Part commitments, in order.
        pub parts: Vec<Fr>,
    }

    /// `(S, o_s, o_{d₁}, …)`; the parts are consecutive slices of `S`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Witness {
        /// The source dataset.
        pub source: Vec<Fr>,
        /// Blinder of `c_s`.
        pub source_opening: Fr,
        /// Blinders of the part commitments.
        pub part_openings: Vec<Fr>,
    }

    impl Statement {
        /// `[c_s, c_{d₁}, …]`.
        pub fn public_inputs(&self) -> Vec<Fr> {
            let mut pi = vec![self.source];
            pi.extend(&self.parts);
            pi
        }
    }

    /// The relation for parts of `lens` entries.
    pub fn holds(lens: &[usize], x: &Statement, w: &Witness) -> bool {
        let shaped = !lens.is_empty()
            && lens.iter().all(|n| *n > 0)
            && w.source.len() == lens.iter().sum::<usize>()
            && x.parts.len() == lens.len()
            && w.part_openings.len() == lens.len();
        if !shaped || !open(&w.source, x.source, w.source_opening) {
            return false;
        }
        let mut offset = 0;
        lens.iter().enumerate().all(|(k, n)| {
            let part = &w.source[offset..offset + n];
            offset += n;
            open(part, x.parts[k], w.part_openings[k])
        })
    }
}

/// `π_p` data validation (§IV-F) under the range predicate:
/// `φ(D) = (every dᵢ < 2^bits) ∧ Open(D, c_d, o_d) = 1`.
pub mod validation {
    use super::*;

    /// `(c_d)`; the bit width is part of the circuit's shape.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Statement {
        /// Dataset commitment.
        pub commitment: Fr,
    }

    /// `(D, o_d)`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Witness {
        /// The dataset.
        pub data: Vec<Fr>,
        /// Commitment blinder.
        pub opening: Fr,
    }

    impl Statement {
        /// `[c_d]`.
        pub fn public_inputs(&self) -> Vec<Fr> {
            vec![self.commitment]
        }
    }

    fn fits(x: &Fr, bits: usize) -> bool {
        let limbs = x.to_canonical();
        (0..4).all(|i| {
            let low = 64 * i;
            match bits.saturating_sub(low) {
                0 => limbs[i] == 0,
                b if b >= 64 => true,
                b => limbs[i] >> b == 0,
            }
        })
    }

    /// The relation at `len` entries and `bits`-bit entries.
    pub fn holds(len: usize, bits: usize, x: &Statement, w: &Witness) -> bool {
        w.data.len() == len
            && w.data.iter().all(|d| fits(d, bits))
            && open(&w.data, x.commitment, w.opening)
    }
}

/// `π_k` key negotiation (§IV-F):
/// `Open(k, c, o) = 1 ∧ h_v = H(k_v) ∧ k_c = k + k_v`.
pub mod key_negotiation {
    use super::*;

    /// `(k_c, c, h_v)`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Statement {
        /// Blinded key `k_c`.
        pub blinded_key: Fr,
        /// Key commitment `c`.
        pub commitment: Fr,
        /// Buyer's key hash `h_v`.
        pub buyer_key_hash: Fr,
    }

    /// `(k, k_v, o)`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Witness {
        /// Dataset key `k`.
        pub key: Fr,
        /// Buyer's blinding key `k_v`.
        pub buyer_key: Fr,
        /// Blinder of `c`.
        pub opening: Fr,
    }

    impl Statement {
        /// `[k_c, c, h_v]`.
        pub fn public_inputs(&self) -> Vec<Fr> {
            vec![self.blinded_key, self.commitment, self.buyer_key_hash]
        }
    }

    /// The relation (constant-size).
    pub fn holds(x: &Statement, w: &Witness) -> bool {
        open(&[w.key], x.commitment, w.opening)
            && x.buyer_key_hash == Poseidon::hash(&[w.buyer_key])
            && x.blinded_key == w.key + w.buyer_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkdet_field::Field;

    #[test]
    fn range_check_is_exact_at_every_limb_boundary() {
        let two = Fr::from(2u64);
        for bits in [0usize, 1, 15, 16, 63, 64, 65, 128, 200, 253] {
            let top = two.pow(&[bits as u64, 0, 0, 0]);
            assert!(!validation_fits(top, bits), "2^{bits} fits {bits} bits");
            assert!(validation_fits(top - Fr::ONE, bits), "2^{bits}-1 misses {bits} bits");
        }
    }

    fn validation_fits(x: Fr, bits: usize) -> bool {
        let x_stmt = validation::Statement {
            commitment: CommitmentScheme::commit_with(&[x], &Opening(Fr::ONE)).0,
        };
        let w = validation::Witness {
            data: vec![x],
            opening: Fr::ONE,
        };
        validation::holds(1, bits, &x_stmt, &w)
    }
}

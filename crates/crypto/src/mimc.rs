//! The MiMC-p/p block cipher and its CTR mode (paper §IV-C1).
//!
//! ZKDET encrypts datasets entry-by-entry with
//! `ĉᵢ = mᵢ + MiMC(k, nonce + i)` so that the encryption relation costs only
//! ~91 degree-7 rounds per field element inside a circuit, instead of the
//! millions of constraints AES would need (§IV-C).
//!
//! Parameters follow the paper's instantiation: permutation exponent
//! `d = 7` with `r = 91` rounds over the BN254 scalar field (≈128-bit
//! security for degree-7 MiMC at this size, per the MiMC paper's
//! `r = ⌈log₇(p)⌉` rule rounded up with margin).

use zkdet_field::{Field, Fr, PrimeField};

use crate::sha256::sha256;

/// Number of rounds (`r = 91`, paper §VI-A).
pub const MIMC_ROUNDS: usize = 91;
/// S-box exponent (`d = 7`, paper §VI-A).
pub const MIMC_EXPONENT: u64 = 7;

/// The MiMC-p/p keyed permutation `E_k : F_r → F_r`.
#[derive(Clone, Debug)]
pub struct Mimc {
    constants: Vec<Fr>,
}

/// Deterministically derives the public round constants:
/// `c_i = SHA-256("zkdet-mimc" ‖ i)` reduced into the field (c₀ = 0 as in
/// the MiMC specification).
fn round_constants() -> &'static Vec<Fr> {
    use std::sync::OnceLock;
    static CONSTANTS: OnceLock<Vec<Fr>> = OnceLock::new();
    CONSTANTS.get_or_init(|| {
        let mut out = Vec::with_capacity(MIMC_ROUNDS);
        out.push(Fr::ZERO);
        for i in 1..MIMC_ROUNDS {
            let mut seed = b"zkdet-mimc".to_vec();
            seed.extend_from_slice(&(i as u64).to_le_bytes());
            let d1 = sha256(&seed);
            seed.push(0xff);
            let d2 = sha256(&seed);
            let mut wide = [0u8; 64];
            wide[..32].copy_from_slice(&d1);
            wide[32..].copy_from_slice(&d2);
            out.push(Fr::from_bytes_wide(&wide));
        }
        out
    })
}

impl Default for Mimc {
    fn default() -> Self {
        Self::new()
    }
}

impl Mimc {
    /// MiMC with the standard ZKDET round constants.
    pub fn new() -> Self {
        Mimc {
            constants: round_constants().clone(),
        }
    }

    /// The public round constants (needed to build the matching circuit).
    pub fn constants(&self) -> &[Fr] {
        &self.constants
    }

    /// Encrypts one block: `x_{i+1} = (x_i + k + c_i)⁷`, output `x_r + k`.
    pub fn encrypt_block(&self, key: Fr, block: Fr) -> Fr {
        let mut x = block;
        for c in &self.constants {
            x = (x + key + *c).pow(&[MIMC_EXPONENT, 0, 0, 0]);
        }
        x + key
    }

    /// Keyed hash `H_k(x) = E_k(x) + x` (Davies–Meyer); used where a PRF on
    /// field elements is needed.
    pub fn keyed_hash(&self, key: Fr, x: Fr) -> Fr {
        self.encrypt_block(key, x) + x
    }
}

/// MiMC in counter mode: the dataset cipher of ZKDET.
///
/// `Encrypt(k, nonce, m)ᵢ = mᵢ + E_k(nonce + i)`; decryption subtracts the
/// same keystream. The `(key, nonce)` pair must never be reused across
/// datasets (the protocol layer draws a fresh key per dataset).
#[derive(Clone, Debug)]
pub struct MimcCtr {
    cipher: Mimc,
    key: Fr,
    nonce: Fr,
}

/// A MiMC-CTR ciphertext: the nonce plus one field element per block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ciphertext {
    /// The public CTR nonce.
    pub nonce: Fr,
    /// Encrypted blocks.
    pub blocks: Vec<Fr>,
}

impl MimcCtr {
    /// CTR instance for `(key, nonce)`.
    pub fn new(key: Fr, nonce: Fr) -> Self {
        MimcCtr {
            cipher: Mimc::new(),
            key,
            nonce,
        }
    }

    /// The keystream element for block index `i`.
    pub fn keystream(&self, i: usize) -> Fr {
        self.cipher
            .encrypt_block(self.key, self.nonce + Fr::from(i as u64))
    }

    /// Encrypts a sequence of field elements.
    pub fn encrypt(&self, plaintext: &[Fr]) -> Ciphertext {
        Ciphertext {
            nonce: self.nonce,
            blocks: plaintext
                .iter()
                .enumerate()
                .map(|(i, m)| *m + self.keystream(i))
                .collect(),
        }
    }

    /// Decrypts a ciphertext produced with the same `(key, nonce)`.
    pub fn decrypt(&self, ciphertext: &Ciphertext) -> Vec<Fr> {
        ciphertext
            .blocks
            .iter()
            .enumerate()
            .map(|(i, c)| *c - self.keystream(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut rng = StdRng::seed_from_u64(70);
        let key = Fr::random(&mut rng);
        let nonce = Fr::random(&mut rng);
        let ctr = MimcCtr::new(key, nonce);
        let msg: Vec<Fr> = (0..50).map(|_| Fr::random(&mut rng)).collect();
        let ct = ctr.encrypt(&msg);
        assert_eq!(ctr.decrypt(&ct), msg);
        assert_ne!(ct.blocks, msg);
    }

    #[test]
    fn wrong_key_garbles() {
        let mut rng = StdRng::seed_from_u64(71);
        let ctr = MimcCtr::new(Fr::random(&mut rng), Fr::from(1u64));
        let bad = MimcCtr::new(Fr::random(&mut rng), Fr::from(1u64));
        let msg: Vec<Fr> = (0..5).map(|_| Fr::random(&mut rng)).collect();
        assert_ne!(bad.decrypt(&ctr.encrypt(&msg)), msg);
    }

    #[test]
    fn block_cipher_is_permutation() {
        // Distinct plaintexts give distinct ciphertexts under one key.
        let mut rng = StdRng::seed_from_u64(72);
        let m = Mimc::new();
        let key = Fr::random(&mut rng);
        let a = Fr::random(&mut rng);
        let b = a + Fr::ONE;
        assert_ne!(m.encrypt_block(key, a), m.encrypt_block(key, b));
    }

    #[test]
    fn constants_are_fixed_and_first_is_zero() {
        let m = Mimc::new();
        assert_eq!(m.constants().len(), MIMC_ROUNDS);
        assert_eq!(m.constants()[0], Fr::ZERO);
        assert_eq!(m.constants(), Mimc::new().constants());
        // No duplicate constants (overwhelmingly likely for a good derivation).
        for i in 1..MIMC_ROUNDS {
            assert_ne!(m.constants()[i], Fr::ZERO);
        }
    }

    #[test]
    fn keystream_depends_on_position() {
        let ctr = MimcCtr::new(Fr::from(5u64), Fr::from(9u64));
        assert_ne!(ctr.keystream(0), ctr.keystream(1));
        // nonce+i structure: keystream(i) of nonce n equals keystream(0) of nonce n+i
        let shifted = MimcCtr::new(Fr::from(5u64), Fr::from(10u64));
        assert_eq!(ctr.keystream(1), shifted.keystream(0));
    }
}

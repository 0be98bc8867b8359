//! Prime fields and the BN254 extension tower.
//!
//! This crate implements, from scratch, all finite-field arithmetic used by
//! the ZKDET reproduction:
//!
//! * [`Fr`] — the BN254 *scalar* field (the field arithmetic circuits are
//!   expressed over; order `r`),
//! * [`Fq`] — the BN254 *base* field (curve coordinates; order `p`),
//! * [`Fq2`], [`Fq6`], [`Fq12`] — the quadratic/sextic/dodecic extension
//!   tower used by the optimal-ate pairing.
//!
//! All base-field arithmetic is 4×64-bit Montgomery arithmetic; every derived
//! constant (Montgomery `R`, `R²`, `-p⁻¹ mod 2⁶⁴`) is computed at compile
//! time from the modulus, so there are no hand-transcribed magic values.
//!
//! [`par`] is the scoped fan-out the MSM, FFT and PLONK quotient kernels
//! share; it lives here because every crate with such a kernel depends on
//! this one.
//!
//! # Example
//!
//! ```rust
//! use zkdet_field::{Fr, Field, PrimeField};
//!
//! let a = Fr::from(7u64);
//! let b = Fr::from(6u64);
//! assert_eq!(a * b, Fr::from(42u64));
//! assert_eq!(a * a.inverse().unwrap(), Fr::ONE);
//! ```

#![forbid(unsafe_code)]

#[doc(hidden)]
pub mod bigint;
mod fq12;
mod fq2;
mod fq6;
mod montgomery;
pub mod par;
mod traits;

pub use bigint::BigInt;
pub use fq12::Fq12;
pub use fq2::Fq2;
pub use fq6::Fq6;
pub use traits::{Field, PrimeField};

// The BN254 base field: p = 36u⁴ + 36u³ + 24u² + 6u + 1 for u = 4965661367192848881.
crate::montgomery_field!(
    /// The BN254 base field `F_p`,
    /// `p = 21888242871839275222246405745257275088696311157297823662689037894645226208583`.
    Fq,
    [
        0x3c20_8c16_d87c_fd47,
        0x9781_6a91_6871_ca8d,
        0xb850_45b6_8181_585d,
        0x3064_4e72_e131_a029,
    ],
    3 // multiplicative generator
);

// The BN254 scalar field: r = 36u⁴ + 36u³ + 18u² + 6u + 1.
crate::montgomery_field!(
    /// The BN254 scalar field `F_r` (circuit field),
    /// `r = 21888242871839275222246405745257275088548364400416034343698204186575808495617`.
    Fr,
    [
        0x43e1_f593_f000_0001,
        0x2833_e848_79b9_7091,
        0xb850_45b6_8181_585d,
        0x3064_4e72_e131_a029,
    ],
    5 // multiplicative generator
);

/// The BN curve parameter `u` (`x` in the literature): BN254 uses
/// `u = 4965661367192848881`.
pub const BN_U: u64 = 4_965_661_367_192_848_881;

impl Fr {
    /// 2-adicity of `r - 1`: `2^28 | r - 1`.
    pub const TWO_ADICITY: u32 = 28;

    /// A generator of the order-`2^28` subgroup: `5^((r-1)/2^28)`.
    ///
    /// Used to build FFT evaluation domains.
    pub fn two_adic_root_of_unity() -> Fr {
        // (r - 1) / 2^28
        let mut exp = Self::MODULUS;
        exp[0] -= 1; // r is odd, no borrow
        let exp = bigint::shr(&exp, Self::TWO_ADICITY);
        Fr::from(5u64).pow(&exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_adic_root_has_exact_order() {
        let w = Fr::two_adic_root_of_unity();
        let mut x = w;
        for _ in 0..Fr::TWO_ADICITY - 1 {
            x = x.square();
            assert_ne!(x, Fr::ONE, "order divides 2^27, too small");
        }
        assert_eq!(x, -Fr::ONE);
        assert_eq!(x.square(), Fr::ONE);
    }

    #[test]
    fn moduli_differ() {
        assert_ne!(Fq::MODULUS, Fr::MODULUS);
    }
}

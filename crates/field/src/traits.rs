//! Field abstractions shared by the base fields and the extension tower.

use core::fmt::Debug;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

/// A (finite) field.
///
/// Implemented by the prime fields [`crate::Fq`], [`crate::Fr`] and the
/// extension fields [`crate::Fq2`], [`crate::Fq6`], [`crate::Fq12`].
pub trait Field:
    Sized
    + Copy
    + Clone
    + Debug
    + PartialEq
    + Eq
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;

    /// Whether this is the additive identity.
    fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    /// `self²`.
    fn square(&self) -> Self {
        *self * *self
    }

    /// `self²`, in place.
    fn square_in_place(&mut self) {
        *self = self.square();
    }

    /// Doubles the element.
    fn double(&self) -> Self {
        *self + *self
    }

    /// Multiplicative inverse, or `None` for zero.
    fn inverse(&self) -> Option<Self>;

    /// Uniformly random element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;

    /// `self^exp` for a little-endian limb exponent.
    fn pow(&self, exp: &[u64]) -> Self {
        let mut res = Self::ONE;
        let mut found_one = false;
        for &limb in exp.iter().rev() {
            for i in (0..64).rev() {
                if found_one {
                    res.square_in_place();
                }
                if (limb >> i) & 1 == 1 {
                    found_one = true;
                    res *= *self;
                }
            }
        }
        res
    }

    /// Batch inversion via Montgomery's trick: one [`inverse`](Self::inverse)
    /// plus about three multiplications per element. Zero entries stay zero.
    /// The running product skips zeros, so it is invertible in any field; if
    /// an implementation's `inverse` refuses it anyway, `elems` is left
    /// untouched.
    fn batch_inverse(elems: &mut [Self]) {
        let mut prod = Vec::with_capacity(elems.len());
        let mut acc = Self::ONE;
        for e in elems.iter() {
            prod.push(acc);
            if !e.is_zero() {
                acc *= *e;
            }
        }
        let Some(mut inv) = acc.inverse() else {
            return;
        };
        for (e, p) in elems.iter_mut().zip(prod).rev() {
            if !e.is_zero() {
                let new = inv * p;
                inv *= *e;
                *e = new;
            }
        }
    }
}

/// A prime field `F_p` with a canonical little-endian integer representation.
pub trait PrimeField: Field + From<u64> + Ord {
    /// Number of 64-bit limbs in the representation.
    const NUM_LIMBS: usize;
    /// The modulus, little-endian.
    const MODULUS: [u64; 4];
    /// Number of bits of the modulus.
    const MODULUS_BITS: u32;

    /// Canonical (non-Montgomery) little-endian limb representation.
    fn to_canonical(&self) -> [u64; 4];

    /// Builds an element from canonical limbs, reducing mod p if needed.
    fn from_canonical(limbs: [u64; 4]) -> Self;

    /// Canonical little-endian byte encoding (32 bytes).
    fn to_bytes(&self) -> [u8; 32] {
        let limbs = self.to_canonical();
        let mut out = [0u8; 32];
        for (i, l) in limbs.iter().enumerate() {
            out[8 * i..8 * i + 8].copy_from_slice(&l.to_le_bytes());
        }
        out
    }

    /// Parses a canonical little-endian byte encoding. Returns `None` when
    /// the value is `>= p`.
    fn from_bytes(bytes: &[u8; 32]) -> Option<Self>;

    /// Interprets 64 little-endian bytes as an integer and reduces mod p
    /// (used to derive unbiased field elements from hash output).
    fn from_bytes_wide(bytes: &[u8; 64]) -> Self;
}

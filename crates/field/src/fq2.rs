//! The quadratic extension `F_{p²} = F_p[i] / (i² + 1)`.
//!
//! BN254 has `p ≡ 3 (mod 4)`, so `-1` is a non-residue and `i² = -1` gives a
//! valid quadratic extension. Elements are `c0 + c1·i`.

use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::{Field, Fq, PrimeField};

/// An element `c0 + c1·i` of `F_{p²}` with `i² = -1`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct Fq2 {
    /// Coefficient of `1`.
    pub c0: Fq,
    /// Coefficient of `i`.
    pub c1: Fq,
}

impl Fq2 {
    /// Builds `c0 + c1·i`.
    pub const fn new(c0: Fq, c1: Fq) -> Self {
        Fq2 { c0, c1 }
    }

    /// Embeds a base-field element.
    pub const fn from_base(c0: Fq) -> Self {
        Fq2 { c0, c1: Fq::ZERO }
    }

    /// The distinguished element `i` (with `i² = -1`).
    pub const I: Fq2 = Fq2 {
        c0: Fq::ZERO,
        c1: Fq(Fq::R),
    };

    /// Complex conjugation `c0 - c1·i`; this is also the `p`-power Frobenius
    /// because `i^p = -i` when `p ≡ 3 (mod 4)`.
    pub fn conjugate(&self) -> Self {
        Fq2 {
            c0: self.c0,
            c1: -self.c1,
        }
    }

    /// `p`-power Frobenius endomorphism (= conjugation for this tower).
    pub fn frobenius_map(&self) -> Self {
        self.conjugate()
    }

    /// Multiplies by the sextic non-residue `ξ = 9 + i` used to define
    /// `F_{p⁶} = F_{p²}[v]/(v³ - ξ)`.
    pub fn mul_by_nonresidue(&self) -> Self {
        // (9 + i)(c0 + c1 i) = (9c0 - c1) + (9c1 + c0) i
        let nine_c0 = self.c0.double().double().double() + self.c0;
        let nine_c1 = self.c1.double().double().double() + self.c1;
        Fq2 {
            c0: nine_c0 - self.c1,
            c1: nine_c1 + self.c0,
        }
    }

    /// Multiplies by a base-field scalar.
    pub fn scale(&self, s: Fq) -> Self {
        Fq2 {
            c0: self.c0 * s,
            c1: self.c1 * s,
        }
    }

    /// Norm map to the base field: `c0² + c1²`.
    pub fn norm(&self) -> Fq {
        self.c0.square() + self.c1.square()
    }

    /// Square root, if one exists.
    ///
    /// Uses the norm-descent algorithm valid for `p ≡ 3 (mod 4)`; the
    /// candidate is verified by squaring, so `Some(r)` always satisfies
    /// `r² == self`.
    pub fn sqrt(&self) -> Option<Self> {
        if self.is_zero() {
            return Some(Self::ZERO);
        }
        let candidate = if self.c1.is_zero() {
            // Purely real: either √c0, or √(-c0)·i since i² = -1.
            match self.c0.sqrt() {
                Some(r) => Fq2::new(r, Fq::ZERO),
                None => Fq2::new(Fq::ZERO, (-self.c0).sqrt()?),
            }
        } else {
            let alpha = self.norm().sqrt()?;
            let two_inv = Fq::from(2u64).inverse()?;
            let mut delta = (self.c0 + alpha) * two_inv;
            if delta.legendre() == -1 {
                delta = (self.c0 - alpha) * two_inv;
            }
            let x0 = delta.sqrt()?;
            let x1 = self.c1 * x0.double().inverse()?;
            Fq2::new(x0, x1)
        };
        (candidate.square() == *self).then_some(candidate)
    }

    /// Canonical 64-byte encoding `c0 ‖ c1` (each little-endian).
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.c0.to_bytes());
        out[32..].copy_from_slice(&self.c1.to_bytes());
        out
    }

    /// Decodes `c0 ‖ c1`, rejecting non-canonical coefficients (`>= p`).
    pub fn from_bytes(bytes: &[u8; 64]) -> Option<Self> {
        let mut c0 = [0u8; 32];
        let mut c1 = [0u8; 32];
        c0.copy_from_slice(&bytes[..32]);
        c1.copy_from_slice(&bytes[32..]);
        Some(Fq2::new(Fq::from_bytes(&c0)?, Fq::from_bytes(&c1)?))
    }
}

impl Field for Fq2 {
    const ZERO: Self = Fq2 {
        c0: Fq::ZERO,
        c1: Fq::ZERO,
    };
    const ONE: Self = Fq2 {
        c0: Fq(Fq::R),
        c1: Fq::ZERO,
    };

    fn square(&self) -> Self {
        // (c0 + c1 i)² = (c0+c1)(c0-c1) + 2 c0 c1 i
        let a = self.c0 + self.c1;
        let b = self.c0 - self.c1;
        let c = self.c0 * self.c1;
        Fq2 {
            c0: a * b,
            c1: c.double(),
        }
    }

    fn inverse(&self) -> Option<Self> {
        // 1/(c0 + c1 i) = (c0 - c1 i)/(c0² + c1²)
        let norm_inv = self.norm().inverse()?;
        Some(Fq2 {
            c0: self.c0 * norm_inv,
            c1: -(self.c1 * norm_inv),
        })
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Fq2 {
            c0: Fq::random(rng),
            c1: Fq::random(rng),
        }
    }
}

impl Add for Fq2 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Fq2 {
            c0: self.c0 + rhs.c0,
            c1: self.c1 + rhs.c1,
        }
    }
}

impl Sub for Fq2 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Fq2 {
            c0: self.c0 - rhs.c0,
            c1: self.c1 - rhs.c1,
        }
    }
}

impl Neg for Fq2 {
    type Output = Self;
    fn neg(self) -> Self {
        Fq2 {
            c0: -self.c0,
            c1: -self.c1,
        }
    }
}

impl Mul for Fq2 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Karatsuba: (a0 + a1 i)(b0 + b1 i) = (a0b0 - a1b1) + ((a0+a1)(b0+b1) - a0b0 - a1b1) i
        let v0 = self.c0 * rhs.c0;
        let v1 = self.c1 * rhs.c1;
        let s = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
        Fq2 {
            c0: v0 - v1,
            c1: s - v0 - v1,
        }
    }
}

impl AddAssign for Fq2 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fq2 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fq2 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl From<u64> for Fq2 {
    fn from(x: u64) -> Self {
        Fq2::from_base(Fq::from(x))
    }
}

impl core::fmt::Display for Fq2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({} + {}*i)", self.c0, self.c1)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Fq2::I * Fq2::I, -Fq2::ONE);
    }

    #[test]
    fn field_axioms_random() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let a = Fq2::random(&mut rng);
            let b = Fq2::random(&mut rng);
            let c = Fq2::random(&mut rng);
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a * b, b * a);
            assert_eq!(a.square(), a * a);
            if !a.is_zero() {
                assert_eq!(a * a.inverse().unwrap(), Fq2::ONE);
            }
        }
    }

    #[test]
    fn batch_inverse_works_over_the_extension() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<Fq2> = (0..19).map(|_| Fq2::random(&mut rng)).collect();
        v[0] = Fq2::ZERO;
        v[11] = Fq2::ZERO;
        let expected: Vec<Fq2> = v.iter().map(|x| x.inverse().unwrap_or(Fq2::ZERO)).collect();
        Fq2::batch_inverse(&mut v);
        assert_eq!(v, expected);

        let mut zeros = [Fq2::ZERO; 3];
        Fq2::batch_inverse(&mut zeros);
        assert_eq!(zeros, [Fq2::ZERO; 3]);
        Fq2::batch_inverse(&mut []);
    }

    #[test]
    fn frobenius_is_order_two() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = Fq2::random(&mut rng);
        assert_eq!(a.frobenius_map().frobenius_map(), a);
        // Frobenius fixes the base field.
        let b = Fq2::from_base(Fq::from(12345u64));
        assert_eq!(b.frobenius_map(), b);
    }

    #[test]
    fn frobenius_matches_pth_power() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Fq2::random(&mut rng);
        assert_eq!(a.frobenius_map(), a.pow(&Fq::MODULUS));
    }

    #[test]
    fn nonresidue_mul_matches_explicit() {
        let mut rng = StdRng::seed_from_u64(10);
        let xi = Fq2::new(Fq::from(9u64), Fq::ONE);
        for _ in 0..10 {
            let a = Fq2::random(&mut rng);
            assert_eq!(a.mul_by_nonresidue(), a * xi);
        }
    }

    #[test]
    fn sqrt_of_squares_roundtrips() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let a = Fq2::random(&mut rng);
            let r = a.square().sqrt().expect("square has a root");
            assert!(r == a || r == -a);
        }
        // Purely real and purely imaginary cases.
        let real = Fq2::from_base(Fq::from(49u64));
        assert!(real.sqrt().is_some());
        let imag = Fq2::new(Fq::ZERO, Fq::from(5u64));
        if let Some(r) = imag.sqrt() {
            assert_eq!(r.square(), imag);
        }
        assert_eq!(Fq2::ZERO.sqrt(), Some(Fq2::ZERO));
    }

    #[test]
    fn bytes_roundtrip_and_reject_noncanonical() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..10 {
            let a = Fq2::random(&mut rng);
            assert_eq!(Fq2::from_bytes(&a.to_bytes()), Some(a));
        }
        // The modulus itself is non-canonical in either coefficient.
        let mut p_bytes = [0u8; 32];
        for (i, l) in Fq::MODULUS.iter().enumerate() {
            p_bytes[8 * i..8 * i + 8].copy_from_slice(&l.to_le_bytes());
        }
        let mut bad = [0u8; 64];
        bad[..32].copy_from_slice(&p_bytes);
        assert_eq!(Fq2::from_bytes(&bad), None);
        let mut bad = [0u8; 64];
        bad[32..].copy_from_slice(&p_bytes);
        assert_eq!(Fq2::from_bytes(&bad), None);
    }

    #[test]
    fn xi_is_not_a_cube_or_square() {
        // ξ must be a non-residue of degree 6: ξ^((p²-1)/2) ≠ 1 and ξ^((p²-1)/3) ≠ 1.
        use crate::bigint::BigInt;
        let xi = Fq2::new(Fq::from(9u64), Fq::ONE);
        let p = BigInt::from_limbs(&Fq::MODULUS);
        let p2m1 = p.mul(&p).sub(&BigInt::one());
        let (half, r) = p2m1.div_rem(&BigInt::from_u64(2));
        assert!(r.is_zero());
        let (third, r) = p2m1.div_rem(&BigInt::from_u64(3));
        assert!(r.is_zero());
        assert_ne!(xi.pow(half.limbs()), Fq2::ONE);
        assert_ne!(xi.pow(third.limbs()), Fq2::ONE);
    }
}

//! The sextic extension `F_{p⁶} = F_{p²}[v] / (v³ - ξ)` with `ξ = 9 + i`.

use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::bigint::BigInt;
use crate::{Field, Fq, Fq2};

/// An element `c0 + c1·v + c2·v²` of `F_{p⁶}` with `v³ = ξ = 9 + i`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct Fq6 {
    pub c0: Fq2,
    pub c1: Fq2,
    pub c2: Fq2,
}

/// Frobenius constants `γ1 = ξ^((p-1)/3)` and `γ2 = ξ^((2p-2)/3) = γ1²`,
/// computed once at first use.
fn frobenius_coeffs() -> &'static (Fq2, Fq2) {
    use std::sync::OnceLock;
    static COEFFS: OnceLock<(Fq2, Fq2)> = OnceLock::new();
    COEFFS.get_or_init(|| {
        let xi = Fq2::new(Fq::from(9u64), Fq::ONE);
        let p = BigInt::from_limbs(&Fq::MODULUS);
        let (exp, rem) = p.sub(&BigInt::one()).div_rem(&BigInt::from_u64(3));
        assert!(rem.is_zero(), "p ≡ 1 (mod 3) for BN curves");
        let g1 = xi.pow(exp.limbs());
        (g1, g1 * g1)
    })
}

impl Fq6 {
    /// Builds `c0 + c1·v + c2·v²`.
    pub const fn new(c0: Fq2, c1: Fq2, c2: Fq2) -> Self {
        Fq6 { c0, c1, c2 }
    }

    /// Embeds an `F_{p²}` element.
    pub const fn from_fq2(c0: Fq2) -> Self {
        Fq6 {
            c0,
            c1: Fq2::ZERO,
            c2: Fq2::ZERO,
        }
    }

    /// Multiplies by `v` (shifts coefficients and folds `v³ = ξ`).
    pub fn mul_by_v(&self) -> Self {
        Fq6 {
            c0: self.c2.mul_by_nonresidue(),
            c1: self.c0,
            c2: self.c1,
        }
    }

    /// Multiplies by an `F_{p²}` scalar.
    pub fn scale(&self, s: Fq2) -> Self {
        Fq6 {
            c0: self.c0 * s,
            c1: self.c1 * s,
            c2: self.c2 * s,
        }
    }

    /// `p`-power Frobenius endomorphism.
    pub fn frobenius_map(&self) -> Self {
        let (g1, g2) = *frobenius_coeffs();
        Fq6 {
            c0: self.c0.frobenius_map(),
            c1: self.c1.frobenius_map() * g1,
            c2: self.c2.frobenius_map() * g2,
        }
    }
}

impl Field for Fq6 {
    const ZERO: Self = Fq6 {
        c0: Fq2::ZERO,
        c1: Fq2::ZERO,
        c2: Fq2::ZERO,
    };
    const ONE: Self = Fq6 {
        c0: Fq2::ONE,
        c1: Fq2::ZERO,
        c2: Fq2::ZERO,
    };

    fn inverse(&self) -> Option<Self> {
        // Standard cubic-extension inversion (e.g. Guide to Pairing-Based Crypto, §5.2.3).
        let c0 = self.c0.square() - self.c1.mul_by_nonresidue() * self.c2;
        let c1 = self.c2.square().mul_by_nonresidue() - self.c0 * self.c1;
        let c2 = self.c1.square() - self.c0 * self.c2;
        let t = (self.c2 * c1 + self.c1 * c2).mul_by_nonresidue() + self.c0 * c0;
        let t_inv = t.inverse()?;
        Some(Fq6 {
            c0: c0 * t_inv,
            c1: c1 * t_inv,
            c2: c2 * t_inv,
        })
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Fq6 {
            c0: Fq2::random(rng),
            c1: Fq2::random(rng),
            c2: Fq2::random(rng),
        }
    }
}

impl Add for Fq6 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Fq6 {
            c0: self.c0 + rhs.c0,
            c1: self.c1 + rhs.c1,
            c2: self.c2 + rhs.c2,
        }
    }
}

impl Sub for Fq6 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Fq6 {
            c0: self.c0 - rhs.c0,
            c1: self.c1 - rhs.c1,
            c2: self.c2 - rhs.c2,
        }
    }
}

impl Neg for Fq6 {
    type Output = Self;
    fn neg(self) -> Self {
        Fq6 {
            c0: -self.c0,
            c1: -self.c1,
            c2: -self.c2,
        }
    }
}

impl Mul for Fq6 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Toom-style cubic multiplication with v³ = ξ folding.
        let v0 = self.c0 * rhs.c0;
        let v1 = self.c1 * rhs.c1;
        let v2 = self.c2 * rhs.c2;

        let c0 =
            ((self.c1 + self.c2) * (rhs.c1 + rhs.c2) - v1 - v2).mul_by_nonresidue() + v0;
        let c1 = (self.c0 + self.c1) * (rhs.c0 + rhs.c1) - v0 - v1 + v2.mul_by_nonresidue();
        let c2 = (self.c0 + self.c2) * (rhs.c0 + rhs.c2) - v0 - v2 + v1;
        Fq6 { c0, c1, c2 }
    }
}

impl AddAssign for Fq6 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fq6 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fq6 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl core::fmt::Display for Fq6 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({} + {}*v + {}*v^2)", self.c0, self.c1, self.c2)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn v_cubed_is_xi() {
        let v = Fq6::new(Fq2::ZERO, Fq2::ONE, Fq2::ZERO);
        let xi = Fq2::new(Fq::from(9u64), Fq::ONE);
        assert_eq!(v * v * v, Fq6::from_fq2(xi));
    }

    #[test]
    fn mul_by_v_matches_full_mul() {
        let mut rng = StdRng::seed_from_u64(11);
        let v = Fq6::new(Fq2::ZERO, Fq2::ONE, Fq2::ZERO);
        for _ in 0..10 {
            let a = Fq6::random(&mut rng);
            assert_eq!(a.mul_by_v(), a * v);
        }
    }

    #[test]
    fn field_axioms_random() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..20 {
            let a = Fq6::random(&mut rng);
            let b = Fq6::random(&mut rng);
            let c = Fq6::random(&mut rng);
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!((a * b) * c, a * (b * c));
            if !a.is_zero() {
                assert_eq!(a * a.inverse().unwrap(), Fq6::ONE);
            }
        }
    }

    #[test]
    fn frobenius_matches_pth_power() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = Fq6::random(&mut rng);
        assert_eq!(a.frobenius_map(), a.pow(&Fq::MODULUS));
    }

    #[test]
    fn frobenius_has_order_six() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = Fq6::random(&mut rng);
        let mut b = a;
        for _ in 0..6 {
            b = b.frobenius_map();
        }
        assert_eq!(a, b);
    }
}

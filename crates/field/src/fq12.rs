//! The dodecic extension `F_{p¹²} = F_{p⁶}[w] / (w² - v)`, the pairing
//! target-group field.

use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::bigint::BigInt;
use crate::{Field, Fq, Fq2, Fq6};

/// An element `c0 + c1·w` of `F_{p¹²}` with `w² = v` (so `w⁶ = ξ`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct Fq12 {
    pub c0: Fq6,
    pub c1: Fq6,
}

/// `γ = ξ^((p-1)/6)` — the Frobenius twist constant for the `w` coefficient.
fn frobenius_coeff() -> &'static Fq2 {
    use std::sync::OnceLock;
    static COEFF: OnceLock<Fq2> = OnceLock::new();
    COEFF.get_or_init(|| {
        let xi = Fq2::new(Fq::from(9u64), Fq::ONE);
        let p = BigInt::from_limbs(&Fq::MODULUS);
        let (exp, rem) = p.sub(&BigInt::one()).div_rem(&BigInt::from_u64(6));
        assert!(rem.is_zero(), "p ≡ 1 (mod 6) for BN curves");
        xi.pow(exp.limbs())
    })
}

impl Fq12 {
    /// Builds `c0 + c1·w`.
    pub const fn new(c0: Fq6, c1: Fq6) -> Self {
        Fq12 { c0, c1 }
    }

    /// Embeds an `F_{p⁶}` element.
    pub const fn from_fq6(c0: Fq6) -> Self {
        Fq12 { c0, c1: Fq6::ZERO }
    }

    /// Conjugation over `F_{p⁶}`: `c0 - c1·w`. For elements of the
    /// cyclotomic subgroup (unit norm) this equals inversion.
    pub fn conjugate(&self) -> Self {
        Fq12 {
            c0: self.c0,
            c1: -self.c1,
        }
    }

    /// `p`-power Frobenius endomorphism.
    pub fn frobenius_map(&self) -> Self {
        let g = *frobenius_coeff();
        let c0 = self.c0.frobenius_map();
        let c1 = self.c1.frobenius_map();
        // w ↦ w^p = ξ^((p-1)/6) · w
        Fq12 {
            c0,
            c1: Fq6 {
                c0: c1.c0 * g,
                c1: c1.c1 * g,
                c2: c1.c2 * g,
            },
        }
    }

    /// Applies the Frobenius map `power` times.
    pub fn frobenius_map_pow(&self, power: usize) -> Self {
        let mut out = *self;
        for _ in 0..power {
            out = out.frobenius_map();
        }
        out
    }

    /// Exponentiation by a [`BigInt`] exponent.
    pub fn pow_bigint(&self, exp: &BigInt) -> Self {
        self.pow(exp.limbs())
    }
}

impl Field for Fq12 {
    const ZERO: Self = Fq12 {
        c0: Fq6::ZERO,
        c1: Fq6::ZERO,
    };
    const ONE: Self = Fq12 {
        c0: Fq6::ONE,
        c1: Fq6::ZERO,
    };

    fn square(&self) -> Self {
        // Complex squaring: (c0 + c1 w)² = (c0² + v c1²) + 2 c0 c1 w
        let v0 = self.c0 * self.c1;
        let a = self.c0 + self.c1;
        let b = self.c0 + self.c1.mul_by_v();
        let c0 = a * b - v0 - v0.mul_by_v();
        Fq12 {
            c0,
            c1: v0.double(),
        }
    }

    fn inverse(&self) -> Option<Self> {
        // 1/(c0 + c1 w) = (c0 - c1 w)/(c0² - v c1²)
        let norm = self.c0.square() - self.c1.square().mul_by_v();
        let norm_inv = norm.inverse()?;
        Some(Fq12 {
            c0: self.c0 * norm_inv,
            c1: -(self.c1 * norm_inv),
        })
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Fq12 {
            c0: Fq6::random(rng),
            c1: Fq6::random(rng),
        }
    }
}

impl Add for Fq12 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Fq12 {
            c0: self.c0 + rhs.c0,
            c1: self.c1 + rhs.c1,
        }
    }
}

impl Sub for Fq12 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Fq12 {
            c0: self.c0 - rhs.c0,
            c1: self.c1 - rhs.c1,
        }
    }
}

impl Neg for Fq12 {
    type Output = Self;
    fn neg(self) -> Self {
        Fq12 {
            c0: -self.c0,
            c1: -self.c1,
        }
    }
}

impl Mul for Fq12 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Karatsuba over the quadratic extension with w² = v.
        let v0 = self.c0 * rhs.c0;
        let v1 = self.c1 * rhs.c1;
        let s = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
        Fq12 {
            c0: v0 + v1.mul_by_v(),
            c1: s - v0 - v1,
        }
    }
}

impl AddAssign for Fq12 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fq12 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fq12 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl core::fmt::Display for Fq12 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({} + {}*w)", self.c0, self.c1)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn w_squared_is_v() {
        let w = Fq12::new(Fq6::ZERO, Fq6::ONE);
        let v = Fq12::from_fq6(Fq6::new(Fq2::ZERO, Fq2::ONE, Fq2::ZERO));
        assert_eq!(w * w, v);
    }

    #[test]
    fn w_sixth_is_xi() {
        let w = Fq12::new(Fq6::ZERO, Fq6::ONE);
        let xi = Fq12::from_fq6(Fq6::from_fq2(Fq2::new(Fq::from(9u64), Fq::ONE)));
        assert_eq!(w.pow(&[6, 0, 0, 0]), xi);
    }

    #[test]
    fn field_axioms_random() {
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..10 {
            let a = Fq12::random(&mut rng);
            let b = Fq12::random(&mut rng);
            let c = Fq12::random(&mut rng);
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a.square(), a * a);
            if !a.is_zero() {
                assert_eq!(a * a.inverse().unwrap(), Fq12::ONE);
            }
        }
    }

    #[test]
    fn frobenius_matches_pth_power() {
        let mut rng = StdRng::seed_from_u64(16);
        let a = Fq12::random(&mut rng);
        assert_eq!(a.frobenius_map(), a.pow(&Fq::MODULUS));
    }

    #[test]
    fn frobenius_has_order_twelve() {
        let mut rng = StdRng::seed_from_u64(17);
        let a = Fq12::random(&mut rng);
        assert_eq!(a.frobenius_map_pow(12), a);
        assert_ne!(a.frobenius_map_pow(6), a);
    }

    #[test]
    fn conjugate_inverts_unit_norm_elements() {
        // f^(p⁶-1) lies in the "cyclotomic" subgroup where conjugation = inversion.
        let mut rng = StdRng::seed_from_u64(18);
        let f = Fq12::random(&mut rng);
        let g = f.frobenius_map_pow(6) * f.inverse().unwrap();
        assert_eq!(g.conjugate(), g.inverse().unwrap());
    }
}

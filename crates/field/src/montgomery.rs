//! Macro generating a 4×64-limb Montgomery-form prime field.
//!
//! All derived constants (`R = 2²⁵⁶ mod p`, `R² mod p`, `-p⁻¹ mod 2⁶⁴`) are
//! computed at compile time by `const fn`s in [`crate::bigint`], so a field
//! is fully specified by its modulus limbs and a small multiplicative
//! generator.

/// Generates a prime-field type backed by 4×64-bit Montgomery arithmetic.
///
/// The modulus must be odd and below 2²⁵⁴ (both BN254 fields qualify); the
/// generator must generate the full multiplicative group (used by
/// Tonelli–Shanks square roots).
#[macro_export]
macro_rules! montgomery_field {
    ($(#[$attr:meta])* $name:ident, $modulus:expr, $generator:expr) => {
        $(#[$attr])*
        #[derive(Clone, Copy, PartialEq, Eq)]
        pub struct $name(pub(crate) [u64; 4]);

        impl $name {
            /// The field modulus, little-endian.
            pub const MODULUS: [u64; 4] = $modulus;
            /// `-p⁻¹ mod 2⁶⁴`.
            pub const INV: u64 = $crate::bigint::mont_inv(&Self::MODULUS);
            /// `R = 2²⁵⁶ mod p` (the Montgomery radix, i.e. `1` in Montgomery form).
            pub const R: [u64; 4] = $crate::bigint::pow2_mod(&Self::MODULUS, 256);
            /// `R² mod p` (conversion constant into Montgomery form).
            pub const R2: [u64; 4] = $crate::bigint::pow2_mod(&Self::MODULUS, 512);
            /// A generator of the multiplicative group.
            pub const GENERATOR_U64: u64 = $generator;

            /// The multiplicative generator as a field element.
            pub fn generator() -> Self {
                Self::from(Self::GENERATOR_U64)
            }

            #[inline(always)]
            fn mont_mul(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
                use $crate::bigint::{adc, mac, sub_limbs, geq};
                let (mut t0, mut t1, mut t2, mut t3, mut t4) = (0u64, 0u64, 0u64, 0u64, 0u64);
                let m = &Self::MODULUS;
                let mut i = 0;
                while i < 4 {
                    let ai = a[i];
                    let (r0, c) = mac(t0, ai, b[0], 0);
                    let (r1, c) = mac(t1, ai, b[1], c);
                    let (r2, c) = mac(t2, ai, b[2], c);
                    let (r3, c) = mac(t3, ai, b[3], c);
                    let (r4, c_hi) = adc(t4, c, 0);
                    debug_assert_eq!(c_hi, 0, "modulus must be < 2^254");

                    let k = r0.wrapping_mul(Self::INV);
                    let (_, c) = mac(r0, k, m[0], 0);
                    let (s1, c) = mac(r1, k, m[1], c);
                    let (s2, c) = mac(r2, k, m[2], c);
                    let (s3, c) = mac(r3, k, m[3], c);
                    let (s4, c_hi2) = adc(r4, c, 0);
                    debug_assert_eq!(c_hi2, 0, "modulus must be < 2^254");

                    t0 = s1;
                    t1 = s2;
                    t2 = s3;
                    t3 = s4;
                    t4 = 0;
                    i += 1;
                }
                let mut out = [t0, t1, t2, t3];
                if geq(&out, m) {
                    let (r, _) = sub_limbs(&out, m);
                    out = r;
                }
                out
            }
        }

        impl $crate::traits::Field for $name {
            const ZERO: Self = $name([0, 0, 0, 0]);
            const ONE: Self = $name(Self::R);

            fn inverse(&self) -> Option<Self> {
                use $crate::traits::Field;
                if Field::is_zero(self) {
                    return None;
                }
                // Fermat: a^(p-2).
                let mut exp = Self::MODULUS;
                exp[0] -= 2; // p is odd and > 2, no borrow
                Some(self.pow(&exp))
            }

            fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
                let mut bytes = [0u8; 64];
                rng.fill(&mut bytes[..]);
                use $crate::traits::PrimeField;
                Self::from_bytes_wide(&bytes)
            }
        }

        impl $crate::traits::PrimeField for $name {
            const NUM_LIMBS: usize = 4;
            const MODULUS: [u64; 4] = $modulus;
            const MODULUS_BITS: u32 = {
                let m: [u64; 4] = $modulus;
                256 - m[3].leading_zeros()
            };

            fn to_canonical(&self) -> [u64; 4] {
                // Multiply by 1 (non-Montgomery) = Montgomery reduction.
                Self::mont_mul(&self.0, &[1, 0, 0, 0])
            }

            fn from_canonical(mut limbs: [u64; 4]) -> Self {
                use $crate::bigint::{geq, sub_limbs};
                while geq(&limbs, &Self::MODULUS) {
                    let (r, _) = sub_limbs(&limbs, &Self::MODULUS);
                    limbs = r;
                }
                $name(Self::mont_mul(&limbs, &Self::R2))
            }

            fn from_bytes(bytes: &[u8; 32]) -> Option<Self> {
                use $crate::bigint::geq;
                let mut limbs = [0u64; 4];
                for i in 0..4 {
                    limbs[i] =
                        u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"));
                }
                if geq(&limbs, &Self::MODULUS) {
                    return None; // values >= p are non-canonical
                }
                Some($name(Self::mont_mul(&limbs, &Self::R2)))
            }

            fn from_bytes_wide(bytes: &[u8; 64]) -> Self {
                let mut lo = [0u64; 4];
                let mut hi = [0u64; 4];
                for i in 0..4 {
                    lo[i] =
                        u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"));
                    hi[i] = u64::from_le_bytes(
                        bytes[32 + 8 * i..32 + 8 * i + 8].try_into().expect("8 bytes"),
                    );
                }
                // value = lo + hi·2²⁵⁶; Montgomery form is lo·R + hi·R².
                let lo_m = Self::mont_mul(&lo, &Self::R2);
                let hi_m = Self::mont_mul(&Self::mont_mul(&hi, &Self::R2), &Self::R2);
                $name(lo_m) + $name(hi_m)
            }
        }

        impl $name {
            /// Square root via Tonelli–Shanks, or `None` for non-residues.
            pub fn sqrt(&self) -> Option<Self> {
                use $crate::traits::Field;
                if Field::is_zero(self) {
                    return Some(*self);
                }
                // p - 1 = q · 2^s with q odd.
                let mut pm1 = Self::MODULUS;
                pm1[0] -= 1;
                let mut s = 0u32;
                let mut q = pm1;
                while q[0] & 1 == 0 {
                    q = $crate::bigint::shr(&q, 1);
                    s += 1;
                }
                let z = Self::generator().pow(&q);
                let mut m = s;
                let mut c = z;
                let mut t = self.pow(&q);
                // r = self^((q+1)/2)
                let (qp1, carry) = $crate::bigint::add_limbs(&q, &[1, 0, 0, 0]);
                debug_assert_eq!(carry, 0);
                let mut r = self.pow(&$crate::bigint::shr(&qp1, 1));
                while t != Self::ONE {
                    if Field::is_zero(&t) {
                        return Some(Self::ZERO);
                    }
                    // find least i with t^(2^i) = 1
                    let mut i = 0u32;
                    let mut t2 = t;
                    while t2 != Self::ONE {
                        t2.square_in_place();
                        i += 1;
                        if i == m {
                            return None; // non-residue
                        }
                    }
                    let mut b = c;
                    for _ in 0..(m - i - 1) {
                        b.square_in_place();
                    }
                    m = i;
                    c = b.square();
                    t *= c;
                    r *= b;
                }
                debug_assert_eq!(r.square(), *self);
                Some(r)
            }

            /// Legendre symbol: 1 for QR, -1 for non-residue, 0 for zero.
            pub fn legendre(&self) -> i8 {
                use $crate::traits::Field;
                if Field::is_zero(self) {
                    return 0;
                }
                let mut pm1 = Self::MODULUS;
                pm1[0] -= 1;
                let e = $crate::bigint::shr(&pm1, 1);
                if self.pow(&e) == Self::ONE {
                    1
                } else {
                    -1
                }
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                use $crate::bigint::{add_limbs, geq, sub_limbs};
                let (sum, carry) = add_limbs(&self.0, &rhs.0);
                debug_assert_eq!(carry, 0);
                if geq(&sum, &Self::MODULUS) {
                    let (r, _) = sub_limbs(&sum, &Self::MODULUS);
                    $name(r)
                } else {
                    $name(sum)
                }
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                use $crate::bigint::{add_limbs, sub_limbs};
                let (diff, borrow) = sub_limbs(&self.0, &rhs.0);
                if borrow == 1 {
                    let (r, _) = add_limbs(&diff, &Self::MODULUS);
                    $name(r)
                } else {
                    $name(diff)
                }
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                use $crate::traits::Field;
                if Field::is_zero(&self) {
                    self
                } else {
                    let (r, _) = $crate::bigint::sub_limbs(&Self::MODULUS, &self.0);
                    $name(r)
                }
            }
        }

        impl core::ops::Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                $name(Self::mont_mul(&self.0, &rhs.0))
            }
        }

        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }
        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }
        impl core::ops::MulAssign for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: Self) {
                *self = *self * rhs;
            }
        }

        impl From<u64> for $name {
            fn from(x: u64) -> Self {
                use $crate::traits::PrimeField;
                Self::from_canonical([x, 0, 0, 0])
            }
        }

        impl From<u32> for $name {
            fn from(x: u32) -> Self {
                Self::from(x as u64)
            }
        }

        impl From<bool> for $name {
            fn from(x: bool) -> Self {
                Self::from(x as u64)
            }
        }

        impl Default for $name {
            fn default() -> Self {
                use $crate::traits::Field;
                Self::ZERO
            }
        }

        impl core::fmt::Debug for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                use $crate::traits::PrimeField;
                let limbs = self.to_canonical();
                write!(
                    f,
                    concat!(stringify!($name), "(0x{:016x}{:016x}{:016x}{:016x})"),
                    limbs[3], limbs[2], limbs[1], limbs[0]
                )
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                use $crate::traits::PrimeField;
                let limbs = self.to_canonical();
                write!(
                    f,
                    "0x{:016x}{:016x}{:016x}{:016x}",
                    limbs[3], limbs[2], limbs[1], limbs[0]
                )
            }
        }

        impl PartialOrd for $name {
            fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        impl Ord for $name {
            fn cmp(&self, other: &Self) -> core::cmp::Ordering {
                use $crate::traits::PrimeField;
                let a = self.to_canonical();
                let b = other.to_canonical();
                for i in (0..4).rev() {
                    match a[i].cmp(&b[i]) {
                        core::cmp::Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                core::cmp::Ordering::Equal
            }
        }

        impl core::hash::Hash for $name {
            fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
                use $crate::traits::PrimeField;
                self.to_canonical().hash(state);
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                use $crate::traits::Field;
                iter.fold(Self::ZERO, |a, b| a + b)
            }
        }

        impl<'a> core::iter::Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                use $crate::traits::Field;
                iter.fold(Self::ZERO, |a, b| a + *b)
            }
        }

        impl core::iter::Product for $name {
            fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
                use $crate::traits::Field;
                iter.fold(Self::ONE, |a, b| a * b)
            }
        }
    };
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use crate::{Field, Fq, Fr, PrimeField};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn arb_fr() -> impl Strategy<Value = Fr> {
        any::<[u8; 64]>().prop_map(|b| Fr::from_bytes_wide(&b))
    }

    fn arb_fq() -> impl Strategy<Value = Fq> {
        any::<[u8; 64]>().prop_map(|b| Fq::from_bytes_wide(&b))
    }

    #[test]
    fn basic_identities() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let a = Fr::random(&mut rng);
            assert_eq!(a + Fr::ZERO, a);
            assert_eq!(a * Fr::ONE, a);
            assert_eq!(a - a, Fr::ZERO);
            assert_eq!(a + (-a), Fr::ZERO);
            if !a.is_zero() {
                assert_eq!(a * a.inverse().unwrap(), Fr::ONE);
            }
        }
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(Fr::from(3u64) * Fr::from(4u64), Fr::from(12u64));
        assert_eq!(Fr::from(10u64) - Fr::from(4u64), Fr::from(6u64));
        assert_eq!(Fr::from(0u64), Fr::ZERO);
        assert_eq!(Fr::from(1u64), Fr::ONE);
        assert_eq!(Fq::from(1u64), Fq::ONE);
    }

    #[test]
    fn canonical_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let a = Fq::random(&mut rng);
            assert_eq!(Fq::from_canonical(a.to_canonical()), a);
            assert_eq!(Fq::from_bytes(&a.to_bytes()).unwrap(), a);
        }
    }

    #[test]
    fn from_bytes_rejects_modulus() {
        let mut bytes = [0u8; 32];
        for (i, l) in Fr::MODULUS.iter().enumerate() {
            bytes[8 * i..8 * i + 8].copy_from_slice(&l.to_le_bytes());
        }
        assert!(Fr::from_bytes(&bytes).is_none());
    }

    #[test]
    fn fermat_inverse_matches_euclid_small() {
        // inverse of 2 is (p+1)/2
        let two_inv = Fr::from(2u64).inverse().unwrap();
        assert_eq!(two_inv + two_inv, Fr::ONE);
    }

    #[test]
    fn sqrt_of_squares() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let a = Fr::random(&mut rng);
            let sq = a.square();
            let r = sq.sqrt().expect("square must have a root");
            assert!(r == a || r == -a);
            let b = Fq::random(&mut rng);
            let sq = b.square();
            let r = sq.sqrt().expect("square must have a root");
            assert!(r == b || r == -b);
        }
    }

    #[test]
    fn legendre_detects_nonresidues() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut found_nqr = false;
        for _ in 0..20 {
            let a = Fr::random(&mut rng);
            if a.legendre() == -1 {
                found_nqr = true;
                assert!(a.sqrt().is_none());
            }
        }
        assert!(found_nqr, "half of all elements are non-residues");
    }

    #[test]
    fn batch_inverse_matches_individual() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<Fr> = (0..33).map(|_| Fr::random(&mut rng)).collect();
        v[7] = Fr::ZERO;
        let expected: Vec<Fr> = v
            .iter()
            .map(|x| x.inverse().unwrap_or(Fr::ZERO))
            .collect();
        Fr::batch_inverse(&mut v);
        assert_eq!(v, expected);
    }

    proptest! {
        #[test]
        fn prop_fr_mul_commutes(a in arb_fr(), b in arb_fr()) {
            prop_assert_eq!(a * b, b * a);
        }

        #[test]
        fn prop_fr_mul_associates(a in arb_fr(), b in arb_fr(), c in arb_fr()) {
            prop_assert_eq!((a * b) * c, a * (b * c));
        }

        #[test]
        fn prop_fr_distributes(a in arb_fr(), b in arb_fr(), c in arb_fr()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_fq_add_sub_roundtrip(a in arb_fq(), b in arb_fq()) {
            prop_assert_eq!(a + b - b, a);
        }

        #[test]
        fn prop_fr_pow_adds_exponents(a in arb_fr(), x in any::<u64>(), y in any::<u64>()) {
            let (s, carry) = x.overflowing_add(y);
            let exp_sum = [s, carry as u64, 0, 0];
            prop_assert_eq!(a.pow(&[x,0,0,0]) * a.pow(&[y,0,0,0]), a.pow(&exp_sum));
        }

        #[test]
        fn prop_fr_bytes_roundtrip(a in arb_fr()) {
            let bytes = a.to_bytes();
            prop_assert_eq!(Fr::from_bytes(&bytes), Some(a));
        }
    }
}

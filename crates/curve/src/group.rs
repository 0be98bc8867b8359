//! Short-Weierstrass group arithmetic, generic over the two BN254 curves.
//!
//! Points are represented in affine form ([`Affine`]) for storage and
//! serialization, and Jacobian form ([`Projective`]) for arithmetic
//! (`x = X/Z²`, `y = Y/Z³`).

use core::fmt::Debug;
use core::marker::PhantomData;
use core::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};
use std::sync::OnceLock;

use rand::Rng;
use zkdet_field::bigint::BigInt;
use zkdet_field::{Field, Fq, Fq2, Fr, PrimeField};

/// Parameters of a short-Weierstrass curve `y² = x³ + b` over `Self::Base`.
///
/// This trait is implemented by the two marker types [`G1`] and [`G2`]; it is
/// not meant to be implemented outside this crate.
pub trait CurveParams:
    'static + Copy + Clone + Debug + PartialEq + Eq + Send + Sync
{
    /// The coordinate field.
    type Base: Field + core::hash::Hash;

    /// The curve coefficient `b`.
    fn b() -> Self::Base;

    /// Affine coordinates of the standard group generator.
    fn generator_xy() -> (Self::Base, Self::Base);
}

/// Marker for `E/F_p : y² = x³ + 3` (the group G1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct G1;

/// Marker for the sextic twist `E'/F_{p²} : y² = x³ + 3/ξ` (the group G2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct G2;

/// Parses a decimal string into a base-field element (used for the hardcoded
/// standard generator coordinates; validated by the subgroup-order tests).
// The inputs are compile-time constant strings; a bad digit is a typo in
// this file, not a runtime condition.
#[allow(clippy::expect_used)]
fn fq_from_dec(s: &str) -> Fq {
    let mut acc = BigInt::zero();
    let ten = BigInt::from_u64(10);
    for ch in s.chars() {
        let d = ch.to_digit(10).expect("decimal digit");
        acc = acc.mul(&ten).add(&BigInt::from_u64(d as u64));
    }
    let mut limbs = [0u64; 4];
    for (i, l) in acc.limbs().iter().enumerate() {
        assert!(i < 4, "value too large for Fq");
        limbs[i] = *l;
    }
    Fq::from_canonical(limbs)
}

impl CurveParams for G1 {
    type Base = Fq;

    fn b() -> Fq {
        Fq::from(3u64)
    }

    fn generator_xy() -> (Fq, Fq) {
        (Fq::from(1u64), Fq::from(2u64))
    }
}

impl CurveParams for G2 {
    type Base = Fq2;

    // ξ = 9 + i is a fixed nonzero constant, so the inverse always exists.
    #[allow(clippy::expect_used)]
    fn b() -> Fq2 {
        // b' = 3 / ξ with ξ = 9 + i, computed once: curve checks on every
        // G2 decode and every Miller-loop doubling read it.
        static B: OnceLock<Fq2> = OnceLock::new();
        *B.get_or_init(|| {
            let xi = Fq2::new(Fq::from(9u64), Fq::ONE);
            Fq2::from(3u64) * xi.inverse().expect("ξ ≠ 0")
        })
    }

    fn generator_xy() -> (Fq2, Fq2) {
        // The canonical BN254 G2 generator (EIP-197 encoding); its curve
        // membership and order-r are asserted by tests.
        let x = Fq2::new(
            fq_from_dec(
                "10857046999023057135944570762232829481370756359578518086990519993285655852781",
            ),
            fq_from_dec(
                "11559732032986387107991004021392285783925812861821192530917403151452391805634",
            ),
        );
        let y = Fq2::new(
            fq_from_dec(
                "8495653923123431417604973247489272438418190587263600148770280649306958101930",
            ),
            fq_from_dec(
                "4082367875863433681332203403145435568316851327593401208105741076214120093531",
            ),
        );
        (x, y)
    }
}

/// An affine point (or the point at infinity).
#[derive(Clone, Copy)]
pub struct Affine<C: CurveParams> {
    /// Affine x-coordinate (meaningless when `infinity`).
    pub x: C::Base,
    /// Affine y-coordinate (meaningless when `infinity`).
    pub y: C::Base,
    /// Whether this is the identity element.
    pub infinity: bool,
    _marker: PhantomData<C>,
}

/// A Jacobian-projective point: `(X : Y : Z)` with `x = X/Z²`, `y = Y/Z³`.
#[derive(Clone, Copy)]
pub struct Projective<C: CurveParams> {
    pub(crate) x: C::Base,
    pub(crate) y: C::Base,
    pub(crate) z: C::Base,
    _marker: PhantomData<C>,
}

/// Points on G1 in affine form.
pub type G1Affine = Affine<G1>;
/// Points on G1 in Jacobian form.
pub type G1Projective = Projective<G1>;
/// Points on G2 in affine form.
pub type G2Affine = Affine<G2>;
/// Points on G2 in Jacobian form.
pub type G2Projective = Projective<G2>;

impl<C: CurveParams> Affine<C> {
    /// Builds an affine point without checking curve membership.
    pub fn new_unchecked(x: C::Base, y: C::Base) -> Self {
        Affine {
            x,
            y,
            infinity: false,
            _marker: PhantomData,
        }
    }

    /// The identity element.
    pub fn identity() -> Self {
        Affine {
            x: C::Base::ZERO,
            y: C::Base::ZERO,
            infinity: true,
            _marker: PhantomData,
        }
    }

    /// The standard group generator.
    pub fn generator() -> Self {
        let (x, y) = C::generator_xy();
        Affine::new_unchecked(x, y)
    }

    /// Whether this is the identity element.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Checks the curve equation `y² = x³ + b` (identity passes).
    pub fn is_on_curve(&self) -> bool {
        self.infinity || self.y.square() == self.x.square() * self.x + C::b()
    }

    /// Converts to Jacobian form.
    pub fn to_projective(self) -> Projective<C> {
        if self.infinity {
            Projective::identity()
        } else {
            Projective {
                x: self.x,
                y: self.y,
                z: C::Base::ONE,
                _marker: PhantomData,
            }
        }
    }
}

impl<C: CurveParams> PartialEq for Affine<C> {
    fn eq(&self, other: &Self) -> bool {
        if self.infinity || other.infinity {
            self.infinity == other.infinity
        } else {
            self.x == other.x && self.y == other.y
        }
    }
}
impl<C: CurveParams> Eq for Affine<C> {}

impl<C: CurveParams> core::hash::Hash for Affine<C> {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.infinity.hash(state);
        if !self.infinity {
            self.x.hash(state);
            self.y.hash(state);
        }
    }
}

impl<C: CurveParams> Debug for Affine<C> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.infinity {
            write!(f, "Affine(∞)")
        } else {
            write!(f, "Affine({:?}, {:?})", self.x, self.y)
        }
    }
}

impl<C: CurveParams> Neg for Affine<C> {
    type Output = Self;
    fn neg(self) -> Self {
        if self.infinity {
            self
        } else {
            Affine {
                y: -self.y,
                ..self
            }
        }
    }
}

impl<C: CurveParams> Projective<C> {
    /// The identity element (`Z = 0`).
    pub fn identity() -> Self {
        Projective {
            x: C::Base::ONE,
            y: C::Base::ONE,
            z: C::Base::ZERO,
            _marker: PhantomData,
        }
    }

    /// The standard group generator.
    pub fn generator() -> Self {
        Affine::<C>::generator().to_projective()
    }

    /// Whether this is the identity element.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (`a = 0` formulas).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = ((self.x + b).square() - a - c).double();
        let e = a.double() + a;
        let f = e.square();
        let x3 = f - d.double();
        let y3 = e * (d - x3) - c.double().double().double();
        let z3 = (self.y * self.z).double();
        Projective {
            x: x3,
            y: y3,
            z: z3,
            _marker: PhantomData,
        }
    }

    /// Adds an affine point (mixed addition; the MSM hot path).
    pub fn add_mixed(&self, rhs: &Affine<C>) -> Self {
        if rhs.infinity {
            return *self;
        }
        if self.is_identity() {
            return rhs.to_projective();
        }
        let z1z1 = self.z.square();
        let u2 = rhs.x * z1z1;
        let s2 = rhs.y * self.z * z1z1;
        if self.x == u2 {
            if self.y == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let rr = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = rr.square() - j - v.double();
        let y3 = rr * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        Projective {
            x: x3,
            y: y3,
            z: z3,
            _marker: PhantomData,
        }
    }

    /// Converts to affine form (single field inversion).
    pub fn to_affine(self) -> Affine<C> {
        // `z = 0` is exactly the identity encoding, so the inverse below
        // always exists; routing through `match` keeps this panic-free even
        // if an unexpected representation slips in.
        let Some(z_inv) = self.z.inverse() else {
            return Affine::identity();
        };
        let z_inv2 = z_inv.square();
        Affine::new_unchecked(self.x * z_inv2, self.y * z_inv2 * z_inv)
    }

    /// Batch conversion to affine form (one inversion for the whole slice).
    pub fn batch_to_affine(points: &[Self]) -> Vec<Affine<C>> {
        // Identity points have `z = 0`, which batch inversion leaves at zero.
        let mut zs: Vec<C::Base> = points.iter().map(|p| p.z).collect();
        C::Base::batch_inverse(&mut zs);
        points
            .iter()
            .zip(zs)
            .map(|(p, z_inv)| {
                if p.is_identity() {
                    Affine::identity()
                } else {
                    let z_inv2 = z_inv.square();
                    Affine::new_unchecked(p.x * z_inv2, p.y * z_inv2 * z_inv)
                }
            })
            .collect()
    }

    /// Uniformly random group element (`scalar · G`).
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::generator() * Fr::random(rng)
    }
}

impl<C: CurveParams> Debug for Projective<C> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:?}", self.to_affine())
    }
}

impl<C: CurveParams> PartialEq for Projective<C> {
    fn eq(&self, other: &Self) -> bool {
        // (X1:Y1:Z1) == (X2:Y2:Z2)  ⟺  X1 Z2² = X2 Z1² and Y1 Z2³ = Y2 Z1³
        if self.is_identity() || other.is_identity() {
            return self.is_identity() == other.is_identity();
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        self.x * z2z2 == other.x * z1z1
            && self.y * z2z2 * other.z == other.y * z1z1 * self.z
    }
}
impl<C: CurveParams> Eq for Projective<C> {}

impl<C: CurveParams> Add for Projective<C> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        if self.is_identity() {
            return rhs;
        }
        if rhs.is_identity() {
            return self;
        }
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x * z2z2;
        let u2 = rhs.x * z1z1;
        let s1 = self.y * rhs.z * z2z2;
        let s2 = rhs.y * self.z * z1z1;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let rr = (s2 - s1).double();
        let v = u1 * i;
        let x3 = rr.square() - j - v.double();
        let y3 = rr * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + rhs.z).square() - z1z1 - z2z2) * h;
        Projective {
            x: x3,
            y: y3,
            z: z3,
            _marker: PhantomData,
        }
    }
}

impl<C: CurveParams> AddAssign for Projective<C> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<C: CurveParams> Sub for Projective<C> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        self + (-rhs)
    }
}

impl<C: CurveParams> SubAssign for Projective<C> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<C: CurveParams> Neg for Projective<C> {
    type Output = Self;
    fn neg(self) -> Self {
        Projective {
            y: -self.y,
            ..self
        }
    }
}

impl<C: CurveParams> Mul<Fr> for Projective<C> {
    type Output = Self;

    /// Double-and-add scalar multiplication.
    fn mul(self, scalar: Fr) -> Self {
        let bits = scalar.to_canonical();
        let mut acc = Self::identity();
        let mut started = false;
        for limb_idx in (0..4).rev() {
            for bit in (0..64).rev() {
                if started {
                    acc = acc.double();
                }
                if (bits[limb_idx] >> bit) & 1 == 1 {
                    if started {
                        acc += self;
                    } else {
                        acc = self;
                        started = true;
                    }
                }
            }
        }
        acc
    }
}

impl<C: CurveParams> Mul<Fr> for Affine<C> {
    type Output = Projective<C>;
    fn mul(self, scalar: Fr) -> Projective<C> {
        self.to_projective() * scalar
    }
}

impl<C: CurveParams> From<Affine<C>> for Projective<C> {
    fn from(a: Affine<C>) -> Self {
        a.to_projective()
    }
}

impl<C: CurveParams> From<Projective<C>> for Affine<C> {
    fn from(p: Projective<C>) -> Self {
        p.to_affine()
    }
}

impl<C: CurveParams> core::iter::Sum for Projective<C> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::identity(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn generators_on_curve() {
        assert!(G1Affine::generator().is_on_curve());
        assert!(G2Affine::generator().is_on_curve());
    }

    #[test]
    fn twist_coefficient_times_xi_is_three() {
        let xi = Fq2::new(Fq::from(9u64), Fq::ONE);
        assert_eq!(G2::b() * xi, Fq2::from(3u64));
    }

    #[test]
    fn generators_have_order_r() {
        // r·G = O and G ≠ O: validates the hardcoded G2 constants too.
        let r_minus_1 = {
            let mut m = Fr::MODULUS;
            m[0] -= 1;
            Fr::from_canonical(m)
        };
        let g1 = G1Projective::generator();
        assert_eq!(g1 * r_minus_1 + g1, G1Projective::identity());
        let g2 = G2Projective::generator();
        assert_eq!(g2 * r_minus_1 + g2, G2Projective::identity());
    }

    #[test]
    fn add_matches_double() {
        let g = G1Projective::generator();
        assert_eq!(g + g, g.double());
        let h = G2Projective::generator();
        assert_eq!(h + h, h.double());
    }

    #[test]
    fn mixed_add_matches_full_add() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let a = G1Projective::random(&mut rng);
            let b = G1Projective::random(&mut rng);
            assert_eq!(a.add_mixed(&b.to_affine()), a + b);
        }
        // degenerate cases
        let a = G1Projective::random(&mut rng);
        assert_eq!(a.add_mixed(&G1Affine::identity()), a);
        assert_eq!(a.add_mixed(&a.to_affine()), a.double());
        assert_eq!(
            a.add_mixed(&(-a).to_affine()),
            G1Projective::identity()
        );
    }

    #[test]
    fn scalar_mul_is_linear() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = G1Projective::generator();
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        assert_eq!(g * a + g * b, g * (a + b));
        assert_eq!((g * a) * b, g * (a * b));
    }

    #[test]
    fn scalar_mul_edge_cases() {
        let g = G2Projective::generator();
        assert_eq!(g * Fr::ZERO, G2Projective::identity());
        assert_eq!(g * Fr::ONE, g);
        assert_eq!(g * Fr::from(2u64), g.double());
        assert_eq!(g * (-Fr::ONE), -g);
    }

    #[test]
    fn batch_to_affine_matches_individual() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut pts: Vec<G1Projective> =
            (0..17).map(|_| G1Projective::random(&mut rng)).collect();
        pts[5] = G1Projective::identity();
        let batch = G1Projective::batch_to_affine(&pts);
        for (p, a) in pts.iter().zip(&batch) {
            assert_eq!(p.to_affine(), *a);
        }
    }
}

impl G1Affine {
    /// Compressed encoding: 33 bytes — a flag byte (`0` identity, `2`/`3`
    /// for the parity of `y`) followed by the x-coordinate.
    pub fn to_compressed(self) -> [u8; 33] {
        let mut out = [0u8; 33];
        if self.infinity {
            return out;
        }
        let y_odd = self.y.to_canonical()[0] & 1 == 1;
        out[0] = if y_odd { 3 } else { 2 };
        out[1..].copy_from_slice(&self.x.to_bytes());
        out
    }

    /// Decompresses a 33-byte encoding, checking curve membership.
    ///
    /// Returns `None` for invalid flags, non-canonical x, or x values with
    /// no corresponding curve point. For a typed account of *why* an
    /// encoding was rejected, use
    /// [`from_compressed_validated`](Self::from_compressed_validated).
    pub fn from_compressed(bytes: &[u8; 33]) -> Option<G1Affine> {
        Self::from_compressed_validated(bytes).ok()
    }
}

#[cfg(test)]
mod compression_tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn compress_roundtrip() {
        let mut rng = StdRng::seed_from_u64(40);
        for _ in 0..20 {
            let p = G1Projective::random(&mut rng).to_affine();
            let c = p.to_compressed();
            assert_eq!(G1Affine::from_compressed(&c), Some(p));
        }
        let id = G1Affine::identity();
        assert_eq!(G1Affine::from_compressed(&id.to_compressed()), Some(id));
    }

    #[test]
    fn compress_rejects_garbage() {
        // Bad flag.
        let mut bytes = [0u8; 33];
        bytes[0] = 7;
        assert_eq!(G1Affine::from_compressed(&bytes), None);
        // Non-identity payload with identity flag.
        let mut bytes = [0u8; 33];
        bytes[5] = 1;
        assert_eq!(G1Affine::from_compressed(&bytes), None);
        // x with no curve point: search a quadratic non-residue of x³+3.
        let mut x = Fq::from(5u64);
        loop {
            let y2 = x.square() * x + Fq::from(3u64);
            if y2.legendre() == -1 {
                break;
            }
            x += Fq::ONE;
        }
        let mut bytes = [0u8; 33];
        bytes[0] = 2;
        bytes[1..].copy_from_slice(&x.to_bytes());
        assert_eq!(G1Affine::from_compressed(&bytes), None);
    }

    #[test]
    fn parity_flag_selects_the_right_root() {
        let mut rng = StdRng::seed_from_u64(41);
        let p = G1Projective::random(&mut rng).to_affine();
        let neg = -p;
        assert_ne!(p.to_compressed(), neg.to_compressed());
        assert_eq!(G1Affine::from_compressed(&neg.to_compressed()), Some(neg));
    }
}

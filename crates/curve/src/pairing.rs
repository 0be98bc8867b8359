//! The optimal ate pairing on BN254.
//!
//! `e(P, Q) = f_{6u+2,Q}(P) · l_{[6u+2]Q, πQ}(P) · l_{[6u+2]Q + πQ, -π²Q}(P)`
//! raised to `(p¹² - 1)/r`.
//!
//! The Miller loop keeps each accumulator `T` in homogeneous projective
//! `F_{p²}` coordinates (Costello–Lange–Naehrig 2010), so a step costs no
//! inversion; every step returns its line as three `F_{p²}` coefficients,
//! which are multiplied in sparsely. One loop runs all pairs of a product,
//! so a step pays one `F_{p¹²}` squaring whatever the pair count. The
//! final-exponentiation hard part is the exact BN decomposition
//! `(p⁴ - p² + 1)/r = λ₀ + λ₁p + λ₂p² + p³` evaluated by the addition chain
//! of Scott et al. (Pairing 2009): three exponentiations by `u`, Frobenius
//! maps and a short vectorial chain. The chain computes that exponent
//! itself, not a multiple of it, so `G_T` values equal those of a plain
//! exponentiation. The tests hold both halves against an affine loop and a
//! big-integer exponentiation kept as a reference.

use std::sync::OnceLock;

use zkdet_field::bigint::BigInt;
use zkdet_field::{Field, Fq, Fq12, Fq2, Fq6, BN_U};

use crate::group::{CurveParams, G1Affine, G2Affine, G2};

/// `|6u + 2|` — the optimal ate loop count for BN254 (`u > 0`).
fn ate_loop_count() -> u128 {
    6 * (BN_U as u128) + 2
}

/// Non-adjacent form, little-endian digits in `{-1, 0, 1}`.
fn naf(mut n: u128) -> Vec<i8> {
    let mut digits = Vec::with_capacity(130);
    while n > 0 {
        if n & 1 == 1 {
            let d: i8 = if n & 3 == 1 { 1 } else { -1 };
            digits.push(d);
            if d == 1 {
                n -= 1;
            } else {
                n += 1;
            }
        } else {
            digits.push(0);
        }
        n >>= 1;
    }
    digits
}

/// Frobenius twist constants: `γ² = ξ^((p-1)/3)` and `γ³ = ξ^((p-1)/2)`.
fn twist_frobenius_coeffs() -> &'static (Fq2, Fq2) {
    static COEFFS: OnceLock<(Fq2, Fq2)> = OnceLock::new();
    COEFFS.get_or_init(|| {
        let xi = Fq2::new(Fq::from(9u64), Fq::ONE);
        let p = BigInt::from_limbs(&Fq::MODULUS);
        let pm1 = p.sub(&BigInt::one());
        let (e3, r3) = pm1.div_rem(&BigInt::from_u64(3));
        let (e2, r2) = pm1.div_rem(&BigInt::from_u64(2));
        assert!(r3.is_zero() && r2.is_zero());
        (xi.pow(e3.limbs()), xi.pow(e2.limbs()))
    })
}

/// A line's coefficients `(c0, c3, c4)`: its value at `P` is
/// `c0·y_P + c3·x_P·w + c4·w³`, the untwisted line scaled by a factor in
/// `F_{p²}*` (which the final exponentiation sends to 1).
type Line = (Fq2, Fq2, Fq2);

/// `a · (c0 + c1·v)` in `F_{p⁶}`: five `F_{p²}` products instead of six.
fn mul_by_01(a: &Fq6, c0: Fq2, c1: Fq2) -> Fq6 {
    let a0c0 = a.c0 * c0;
    let a1c1 = a.c1 * c1;
    Fq6::new(
        ((a.c1 + a.c2) * c1 - a1c1).mul_by_nonresidue() + a0c0,
        (a.c0 + a.c1) * (c0 + c1) - a0c0 - a1c1,
        (a.c0 + a.c2) * c0 - a0c0 + a1c1,
    )
}

/// `f · (c0 + c3·w + c4·w³)`: a product with a line value, whose only
/// non-zero coefficients sit in the `1`, `w` and `w³` slots (13 `F_{p²}`
/// products instead of 18).
fn mul_by_034(f: &Fq12, c0: Fq2, c3: Fq2, c4: Fq2) -> Fq12 {
    // Karatsuba over w with the line as l0 + l1·w, l0 = c0, l1 = c3 + c4·v.
    let a = f.c0.scale(c0);
    let b = mul_by_01(&f.c1, c3, c4);
    let e = mul_by_01(&(f.c0 + f.c1), c0 + c3, c4);
    Fq12::new(b.mul_by_v() + a, e - a - b)
}

/// Multiplies `f` by the value of `line` at `p`.
fn mul_by_line(f: &Fq12, (c0, c3, c4): Line, p: &G1Affine) -> Fq12 {
    mul_by_034(f, c0.scale(p.y), c3.scale(p.x), c4)
}

/// Homogeneous projective G2 accumulator point (`x = X/Z`, `y = Y/Z`)
/// used inside the Miller loop.
#[derive(Clone, Copy)]
struct TwistPoint {
    x: Fq2,
    y: Fq2,
    z: Fq2,
}

impl TwistPoint {
    /// Tangent line at `self`, then doubles `self`.
    fn double_step(&mut self) -> Line {
        let (x, y, z) = (self.x, self.y, self.z);
        let b = y.square();
        let c = z.square();
        let e = G2::b() * (c.double() + c);
        let f = e.double() + e;
        let h = (y + z).square() - b - c; // 2YZ
        let j = x.square();
        let e2 = e.square();
        // The CLN formulas scaled by 4, which clears their two halvings.
        self.x = (x * y * (b - f)).double();
        self.y = (b + f).square() - (e2.double() + e2).double().double();
        self.z = (b * h).double().double();
        (-h, j.double() + j, e - b)
    }

    /// Chord line through `self` and the affine `q`, then adds `q` to
    /// `self`.
    fn add_step(&mut self, q: &G2Affine) -> Line {
        let theta = self.y - q.y * self.z;
        let lambda = self.x - q.x * self.z;
        let d = lambda.square();
        let e = lambda * d;
        let g = self.x * d;
        let h = e + self.z * theta.square() - g.double();
        self.y = theta * (g - h) - e * self.y;
        self.x = lambda * h;
        self.z *= e;
        (lambda, -theta, theta * q.x - lambda * q.y)
    }
}

/// The Miller-loop value `f_{6u+2,Q}(P)` times the two Frobenius line
/// corrections (not yet raised to the final exponent).
///
/// The value is defined only up to a factor in `F_{p²}*`, which the final
/// exponentiation removes: only [`final_exponentiation`] of it is
/// canonical. Returns `1` when either point is the identity.
pub fn miller_loop(p: &G1Affine, q: &G2Affine) -> Fq12 {
    multi_miller_loop(&[(*p, *q)])
}

/// Product of the Miller loops of several pairs, computed by one loop that
/// steps every pair's accumulator (one `F_{p¹²}` squaring per step for all
/// pairs). A pair with an identity point contributes `1`.
///
/// As for [`miller_loop`], the value is defined only up to a factor in
/// `F_{p²}*`; only its final exponentiation is canonical.
pub fn multi_miller_loop(pairs: &[(G1Affine, G2Affine)]) -> Fq12 {
    let mut terms: Vec<(G1Affine, G2Affine, TwistPoint)> = pairs
        .iter()
        .filter(|(p, q)| !p.is_identity() && !q.is_identity())
        .map(|&(p, q)| {
            let t = TwistPoint {
                x: q.x,
                y: q.y,
                z: Fq2::ONE,
            };
            (p, q, t)
        })
        .collect();
    let digits = naf(ate_loop_count());
    let mut f = Fq12::ONE;
    for &digit in digits[..digits.len() - 1].iter().rev() {
        f = f.square();
        for (p, q, t) in &mut terms {
            f = mul_by_line(&f, t.double_step(), p);
            match digit {
                1 => f = mul_by_line(&f, t.add_step(q), p),
                -1 => f = mul_by_line(&f, t.add_step(&-*q), p),
                _ => {}
            }
        }
    }

    // Frobenius corrections: Q1 = π(Q), Q2 = π²(Q).
    let (g2, g3) = *twist_frobenius_coeffs();
    for (p, q, t) in &mut terms {
        let q1 = G2Affine::new_unchecked(q.x.conjugate() * g2, q.y.conjugate() * g3);
        let q2_neg =
            G2Affine::new_unchecked(q.x * g2.conjugate() * g2, -(q.y * g3.conjugate() * g3));
        f = mul_by_line(&f, t.add_step(&q1), p);
        f = mul_by_line(&f, t.add_step(&q2_neg), p);
    }
    f
}

/// Raises a Miller-loop output to `(p¹² - 1)/r`, landing in `G_T`.
// A Miller-loop output is a product of non-zero line values, hence
// invertible.
#[allow(clippy::expect_used)]
pub fn final_exponentiation(f: &Fq12) -> Fq12 {
    // Easy part: f^((p⁶-1)(p²+1)).
    let f_inv = f.inverse().expect("Miller loop output is non-zero");
    let easy = f.conjugate() * f_inv; // f^(p⁶-1)
    let easy = easy.frobenius_map_pow(2) * easy; // ^(p²+1)
    hard_part(&easy)
}

/// `f^((p⁴ - p² + 1)/r)` for `f` in the cyclotomic subgroup (the easy
/// part's image, where conjugation is inversion).
///
/// `(p⁴ - p² + 1)/r = λ₀ + λ₁p + λ₂p² + λ₃p³` exactly, with `λ₃ = 1`,
/// `λ₂ = 6u² + 1`, `λ₁ = -36u³ - 18u² - 12u + 1` and
/// `λ₀ = -36u³ - 30u² - 18u - 2`; grouped by Scott et al. as
/// `y₀·y₁²·y₂⁶·y₃¹²·y₄¹⁸·y₅³⁰·y₆³⁶`.
fn hard_part(f: &Fq12) -> Fq12 {
    let fu = f.pow(&[BN_U]);
    let fu2 = fu.pow(&[BN_U]);
    let fu3 = fu2.pow(&[BN_U]);
    let y0 = f.frobenius_map() * f.frobenius_map_pow(2) * f.frobenius_map_pow(3);
    let y1 = f.conjugate();
    let y2 = fu2.frobenius_map_pow(2);
    let y3 = fu.frobenius_map().conjugate();
    let y4 = (fu * fu2.frobenius_map()).conjugate();
    let y5 = fu2.conjugate();
    let y6 = (fu3 * fu3.frobenius_map()).conjugate();

    let mut t0 = y6.square() * y4 * y5;
    let mut t1 = y3 * y5 * t0;
    t0 *= y2;
    t1 = (t1.square() * t0).square();
    t0 = t1 * y1;
    t1 *= y0;
    t0.square() * t1
}

/// The optimal ate pairing `e(P, Q)`.
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Fq12 {
    final_exponentiation(&miller_loop(p, q))
}

/// `Π e(Pᵢ, Qᵢ)` with a single shared final exponentiation — the form used
/// for KZG / PLONK verification equations of the shape `Π e(·,·) = 1`.
pub fn multi_pairing(pairs: &[(G1Affine, G2Affine)]) -> Fq12 {
    final_exponentiation(&multi_miller_loop(pairs))
}

/// The straightforward pairing the fast one is tested against: an affine
/// Miller loop per pair (one `F_{p²}` inversion per step, dense line
/// products) and the hard part as one big-integer exponentiation.
#[cfg(test)]
#[allow(clippy::expect_used)]
mod reference {
    use super::*;

    /// The final-exponentiation hard part `(p⁴ - p² + 1)/r`.
    pub fn hard_part_exponent() -> &'static BigInt {
        static EXP: OnceLock<BigInt> = OnceLock::new();
        EXP.get_or_init(|| {
            let p = BigInt::from_limbs(&Fq::MODULUS);
            let r = BigInt::from_limbs(&zkdet_field::Fr::MODULUS);
            let p2 = p.mul(&p);
            let p4 = p2.mul(&p2);
            let num = p4.sub(&p2).add(&BigInt::one());
            let (q, rem) = num.div_rem(&r);
            assert!(rem.is_zero(), "r | p⁴ - p² + 1 for BN curves");
            q
        })
    }

    /// The line through the untwisted images of `(x1,y1)` (slope `λ` on
    /// the twist) evaluated at `P = (xp, yp)`:
    /// `l = yp - λ·xp·w + (λ·x1 - y1)·w³`.
    fn line_eval(lambda: Fq2, x1: Fq2, y1: Fq2, p: &G1Affine) -> Fq12 {
        Fq12::new(
            Fq6::new(Fq2::from_base(p.y), Fq2::ZERO, Fq2::ZERO),
            Fq6::new(-lambda.scale(p.x), lambda * x1 - y1, Fq2::ZERO),
        )
    }

    /// Affine G2 accumulator point.
    #[derive(Clone, Copy)]
    struct AffineTwist {
        x: Fq2,
        y: Fq2,
    }

    impl AffineTwist {
        fn double_step(&mut self, p: &G1Affine) -> Fq12 {
            let lambda = (self.x.square().double() + self.x.square())
                * self.y.double().inverse().expect("order-r point has y ≠ 0");
            let l = line_eval(lambda, self.x, self.y, p);
            let x3 = lambda.square() - self.x.double();
            let y3 = lambda * (self.x - x3) - self.y;
            self.x = x3;
            self.y = y3;
            l
        }

        fn add_step(&mut self, q: &AffineTwist, p: &G1Affine) -> Fq12 {
            let lambda = (q.y - self.y)
                * (q.x - self.x)
                    .inverse()
                    .expect("loop length ≪ r keeps T ≠ ±Q");
            let l = line_eval(lambda, self.x, self.y, p);
            let x3 = lambda.square() - self.x - q.x;
            let y3 = lambda * (self.x - x3) - self.y;
            self.x = x3;
            self.y = y3;
            l
        }
    }

    pub fn miller_loop(p: &G1Affine, q: &G2Affine) -> Fq12 {
        if p.is_identity() || q.is_identity() {
            return Fq12::ONE;
        }
        let digits = naf(ate_loop_count());
        let q_pos = AffineTwist { x: q.x, y: q.y };
        let q_neg = AffineTwist { x: q.x, y: -q.y };
        let mut t = q_pos;
        let mut f = Fq12::ONE;
        for i in (0..digits.len() - 1).rev() {
            f = f.square() * t.double_step(p);
            match digits[i] {
                1 => f *= t.add_step(&q_pos, p),
                -1 => f *= t.add_step(&q_neg, p),
                _ => {}
            }
        }
        let (g2, g3) = *twist_frobenius_coeffs();
        let q1 = AffineTwist {
            x: q.x.conjugate() * g2,
            y: q.y.conjugate() * g3,
        };
        let q2_neg = AffineTwist {
            x: q.x * g2.conjugate() * g2,
            y: -(q.y * g3.conjugate() * g3),
        };
        f *= t.add_step(&q1, p);
        f *= t.add_step(&q2_neg, p);
        f
    }

    pub fn easy_part(f: &Fq12) -> Fq12 {
        let easy = f.conjugate() * f.inverse().expect("non-zero input");
        easy.frobenius_map_pow(2) * easy
    }

    pub fn multi_pairing(pairs: &[(G1Affine, G2Affine)]) -> Fq12 {
        let f = pairs
            .iter()
            .fold(Fq12::ONE, |acc, (p, q)| acc * miller_loop(p, q));
        easy_part(&f).pow_bigint(hard_part_exponent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{G1Projective, G2Projective};
    use rand::{rngs::StdRng, SeedableRng};
    use zkdet_field::{Fr, PrimeField};

    #[test]
    fn naf_reconstructs_value() {
        for n in [1u128, 2, 3, 1023, ate_loop_count()] {
            let digits = naf(n);
            let mut acc: i128 = 0;
            for &d in digits.iter().rev() {
                acc = 2 * acc + d as i128;
            }
            assert_eq!(acc as u128, n);
            // non-adjacency
            for w in digits.windows(2) {
                assert!(w[0] == 0 || w[1] == 0);
            }
        }
    }

    #[test]
    fn pairing_non_degenerate() {
        let e = pairing(&G1Affine::generator(), &G2Affine::generator());
        assert_ne!(e, Fq12::ONE);
        assert_ne!(e, Fq12::ZERO);
        // e lands in the order-r subgroup.
        assert_eq!(e.pow(&Fr::MODULUS), Fq12::ONE);
    }

    #[test]
    fn pairing_bilinear_left() {
        let mut rng = StdRng::seed_from_u64(41);
        let a = Fr::random(&mut rng);
        let p = (G1Projective::generator() * a).to_affine();
        let q = G2Affine::generator();
        let lhs = pairing(&p, &q);
        let rhs = pairing(&G1Affine::generator(), &q).pow(&a.to_canonical());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pairing_bilinear_right() {
        let mut rng = StdRng::seed_from_u64(42);
        let b = Fr::random(&mut rng);
        let q = (G2Projective::generator() * b).to_affine();
        let lhs = pairing(&G1Affine::generator(), &q);
        let rhs =
            pairing(&G1Affine::generator(), &G2Affine::generator()).pow(&b.to_canonical());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pairing_swaps_scalars() {
        let mut rng = StdRng::seed_from_u64(43);
        let a = Fr::random(&mut rng);
        let pa = (G1Projective::generator() * a).to_affine();
        let qa = (G2Projective::generator() * a).to_affine();
        assert_eq!(
            pairing(&pa, &G2Affine::generator()),
            pairing(&G1Affine::generator(), &qa)
        );
    }

    #[test]
    fn pairing_identity_is_one() {
        assert_eq!(
            pairing(&G1Affine::identity(), &G2Affine::generator()),
            Fq12::ONE
        );
        assert_eq!(
            pairing(&G1Affine::generator(), &G2Affine::identity()),
            Fq12::ONE
        );
    }

    #[test]
    fn multi_pairing_detects_kzg_style_identity() {
        // e(aG1, G2) · e(-G1, aG2) = 1
        let mut rng = StdRng::seed_from_u64(44);
        let a = Fr::random(&mut rng);
        let p1 = (G1Projective::generator() * a).to_affine();
        let q2 = (G2Projective::generator() * a).to_affine();
        let res = multi_pairing(&[
            (p1, G2Affine::generator()),
            ((-G1Projective::generator()).to_affine(), q2),
        ]);
        assert_eq!(res, Fq12::ONE);
    }

    fn random_pair(rng: &mut StdRng) -> (G1Affine, G2Affine) {
        (
            (G1Projective::generator() * Fr::random(rng)).to_affine(),
            (G2Projective::generator() * Fr::random(rng)).to_affine(),
        )
    }

    #[test]
    fn multi_pairing_matches_reference() {
        let mut rng = StdRng::seed_from_u64(45);
        let (p0, q0) = random_pair(&mut rng);
        let (p1, q1) = random_pair(&mut rng);
        let (p2, q2) = random_pair(&mut rng);
        let cases: [&[(G1Affine, G2Affine)]; 5] = [
            &[(p0, q0)],
            &[(p0, q0), (p1, q1)],
            &[(p0, q0), (p1, q1), (p2, q2)],
            &[(p0, q0), (G1Affine::identity(), q1), (p2, q2)],
            &[(p0, G2Affine::identity()), (p1, q1)],
        ];
        for pairs in cases {
            let e = multi_pairing(pairs);
            assert_ne!(e, Fq12::ONE);
            assert_eq!(e, reference::multi_pairing(pairs), "{} pairs", pairs.len());
        }
        // Single pairs through both entry points, against the reference.
        assert_eq!(pairing(&p1, &q2), reference::multi_pairing(&[(p1, q2)]));
    }

    #[test]
    fn empty_and_all_identity_products_are_one() {
        let g1 = G1Affine::generator();
        let g2 = G2Affine::generator();
        assert_eq!(multi_miller_loop(&[]), Fq12::ONE);
        assert_eq!(multi_pairing(&[]), Fq12::ONE);
        let all_identity = [
            (G1Affine::identity(), g2),
            (g1, G2Affine::identity()),
            (G1Affine::identity(), G2Affine::identity()),
        ];
        assert_eq!(multi_miller_loop(&all_identity), Fq12::ONE);
        assert_eq!(multi_pairing(&all_identity), Fq12::ONE);
    }

    #[test]
    fn hard_part_chain_is_the_exact_exponent() {
        // A chain computing a multiple k·(p⁴ - p² + 1)/r would still land
        // in G_T and pass bilinearity; equality with the exponent itself on
        // random cyclotomic elements rules that out.
        let mut rng = StdRng::seed_from_u64(46);
        let exp = reference::hard_part_exponent();
        for _ in 0..16 {
            let easy = reference::easy_part(&Fq12::random(&mut rng));
            assert_eq!(hard_part(&easy), easy.pow_bigint(exp));
        }
    }

    #[test]
    fn mul_by_034_matches_full_product() {
        let mut rng = StdRng::seed_from_u64(47);
        for _ in 0..10 {
            let f = Fq12::random(&mut rng);
            let (c0, c3, c4) = (
                Fq2::random(&mut rng),
                Fq2::random(&mut rng),
                Fq2::random(&mut rng),
            );
            let line = Fq12::new(
                Fq6::new(c0, Fq2::ZERO, Fq2::ZERO),
                Fq6::new(c3, c4, Fq2::ZERO),
            );
            assert_eq!(mul_by_034(&f, c0, c3, c4), f * line);
        }
    }
}

//! Dense univariate polynomials in coefficient form.

use core::ops::{Add, AddAssign, Mul, Neg, Sub};

use zkdet_field::{Field, Fr};

use crate::EvaluationDomain;

/// A dense univariate polynomial `Σ cᵢ xⁱ` over `F_r` (coefficients stored
/// low-degree first, normalized to drop trailing zeros).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct DensePolynomial {
    coeffs: Vec<Fr>,
}

impl DensePolynomial {
    /// The zero polynomial.
    pub fn zero() -> Self {
        DensePolynomial { coeffs: vec![] }
    }

    /// Builds a polynomial from low-degree-first coefficients.
    pub fn from_coefficients(mut coeffs: Vec<Fr>) -> Self {
        while coeffs.last() == Some(&Fr::ZERO) {
            coeffs.pop();
        }
        DensePolynomial { coeffs }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: Fr) -> Self {
        Self::from_coefficients(vec![c])
    }

    /// The coefficients, low-degree first (no trailing zeros).
    pub fn coefficients(&self) -> &[Fr] {
        &self.coeffs
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Degree; the zero polynomial reports degree 0.
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Horner evaluation.
    pub fn evaluate(&self, x: &Fr) -> Fr {
        let mut acc = Fr::ZERO;
        for c in self.coeffs.iter().rev() {
            acc = acc * *x + *c;
        }
        acc
    }

    /// Multiplies by a scalar.
    pub fn scale(&self, s: Fr) -> Self {
        Self::from_coefficients(self.coeffs.iter().map(|c| *c * s).collect())
    }

    /// Multiplies by `xᵏ`.
    pub fn shift_up(&self, k: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let mut coeffs = vec![Fr::ZERO; k];
        coeffs.extend_from_slice(&self.coeffs);
        DensePolynomial { coeffs }
    }

    /// Divides by the linear factor `(x - z)` via synthetic (Ruffini)
    /// division, returning `(quotient, remainder)`.
    pub fn divide_by_linear(&self, z: Fr) -> (DensePolynomial, Fr) {
        if self.is_zero() {
            return (Self::zero(), Fr::ZERO);
        }
        let mut quotient = vec![Fr::ZERO; self.coeffs.len() - 1];
        let mut acc = Fr::ZERO;
        for i in (0..self.coeffs.len()).rev() {
            let c = self.coeffs[i] + acc * z;
            if i == 0 {
                return (Self::from_coefficients(quotient), c);
            }
            quotient[i - 1] = c;
            acc = c;
        }
        unreachable!("loop returns at i == 0")
    }

    /// Divides by the vanishing polynomial `xⁿ - 1`, returning the quotient.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the division is not exact — callers rely
    /// on exactness as a correctness invariant of the PLONK quotient.
    pub fn divide_by_vanishing(&self, n: usize) -> DensePolynomial {
        if self.is_zero() {
            return Self::zero();
        }
        // xⁿ ≡ 1 ⇒ long division where each leading coeff folds down n slots.
        let mut rem = self.coeffs.clone();
        let mut quotient = vec![Fr::ZERO; rem.len().saturating_sub(n)];
        for i in (n..rem.len()).rev() {
            let c = rem[i];
            quotient[i - n] = c;
            rem[i] = Fr::ZERO;
            let lower = rem[i - n];
            rem[i - n] = lower + c;
        }
        debug_assert!(
            rem.iter().take(n).all(|c| *c == Fr::ZERO),
            "polynomial is not divisible by xⁿ - 1"
        );
        Self::from_coefficients(quotient)
    }

    /// FFT-based product; a product past the field's `2^28` FFT bound
    /// falls back to schoolbook multiplication.
    pub fn mul_fft(&self, rhs: &DensePolynomial) -> DensePolynomial {
        if self.is_zero() || rhs.is_zero() {
            return Self::zero();
        }
        let result_len = self.coeffs.len() + rhs.coeffs.len() - 1;
        let Some(domain) = EvaluationDomain::new(result_len) else {
            return self.mul_naive(rhs);
        };
        let mut a = self.coeffs.clone();
        let mut b = rhs.coeffs.clone();
        domain.fft_in_place(&mut a);
        domain.fft_in_place(&mut b);
        for (x, y) in a.iter_mut().zip(&b) {
            *x *= *y;
        }
        domain.ifft_in_place(&mut a);
        Self::from_coefficients(a)
    }

    /// Schoolbook product.
    fn mul_naive(&self, rhs: &DensePolynomial) -> DensePolynomial {
        let mut out = vec![Fr::ZERO; self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, a) in self.coeffs.iter().enumerate() {
            for (j, b) in rhs.coeffs.iter().enumerate() {
                out[i + j] += *a * *b;
            }
        }
        DensePolynomial::from_coefficients(out)
    }

    /// Random polynomial of the given degree (for blinding).
    pub fn random<R: rand::Rng + ?Sized>(degree: usize, rng: &mut R) -> Self {
        Self::from_coefficients((0..=degree).map(|_| Fr::random(rng)).collect())
    }
}

impl Add for &DensePolynomial {
    type Output = DensePolynomial;
    fn add(self, rhs: Self) -> DensePolynomial {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.coeffs.get(i).copied().unwrap_or(Fr::ZERO);
            let b = rhs.coeffs.get(i).copied().unwrap_or(Fr::ZERO);
            out.push(a + b);
        }
        DensePolynomial::from_coefficients(out)
    }
}

impl Add for DensePolynomial {
    type Output = DensePolynomial;
    fn add(self, rhs: Self) -> DensePolynomial {
        &self + &rhs
    }
}

impl AddAssign<&DensePolynomial> for DensePolynomial {
    fn add_assign(&mut self, rhs: &DensePolynomial) {
        *self = &*self + rhs;
    }
}

impl Sub for &DensePolynomial {
    type Output = DensePolynomial;
    fn sub(self, rhs: Self) -> DensePolynomial {
        self + &(-rhs.clone())
    }
}

impl Sub for DensePolynomial {
    type Output = DensePolynomial;
    fn sub(self, rhs: Self) -> DensePolynomial {
        &self - &rhs
    }
}

impl Neg for DensePolynomial {
    type Output = DensePolynomial;
    fn neg(self) -> DensePolynomial {
        DensePolynomial {
            coeffs: self.coeffs.into_iter().map(|c| -c).collect(),
        }
    }
}

impl Mul for &DensePolynomial {
    type Output = DensePolynomial;
    fn mul(self, rhs: Self) -> DensePolynomial {
        if self.is_zero() || rhs.is_zero() {
            return DensePolynomial::zero();
        }
        // Use FFT above the naive crossover.
        if self.coeffs.len().min(rhs.coeffs.len()) > 64 {
            return self.mul_fft(rhs);
        }
        self.mul_naive(rhs)
    }
}

impl Mul for DensePolynomial {
    type Output = DensePolynomial;
    fn mul(self, rhs: Self) -> DensePolynomial {
        &self * &rhs
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Lagrange interpolation through distinct points (O(n²)).
    fn lagrange_interpolate(points: &[(Fr, Fr)]) -> DensePolynomial {
        let mut acc = DensePolynomial::zero();
        for (i, (xi, yi)) in points.iter().enumerate() {
            let mut num = DensePolynomial::constant(*yi);
            let mut denom = Fr::ONE;
            for (j, (xj, _)) in points.iter().enumerate() {
                if i == j {
                    continue;
                }
                num = &num * &DensePolynomial::from_coefficients(vec![-*xj, Fr::ONE]);
                denom *= *xi - *xj;
            }
            let denom_inv = denom
                .inverse()
                .expect("interpolation points must have distinct x");
            acc = &acc + &num.scale(denom_inv);
        }
        acc
    }

    fn poly_from_u64(coeffs: &[u64]) -> DensePolynomial {
        DensePolynomial::from_coefficients(coeffs.iter().map(|c| Fr::from(*c)).collect())
    }

    #[test]
    fn evaluate_horner() {
        // 3 + 2x + x²  at x = 5 → 3 + 10 + 25 = 38
        let p = poly_from_u64(&[3, 2, 1]);
        assert_eq!(p.evaluate(&Fr::from(5u64)), Fr::from(38u64));
    }

    #[test]
    fn normalization_drops_trailing_zeros() {
        let p = DensePolynomial::from_coefficients(vec![Fr::ONE, Fr::ZERO, Fr::ZERO]);
        assert_eq!(p.degree(), 0);
        assert_eq!(DensePolynomial::zero().degree(), 0);
        assert!(DensePolynomial::from_coefficients(vec![Fr::ZERO]).is_zero());
    }

    #[test]
    fn linear_division_matches_remainder_theorem() {
        let mut rng = StdRng::seed_from_u64(60);
        let p = DensePolynomial::random(10, &mut rng);
        let z = Fr::random(&mut rng);
        let (q, r) = p.divide_by_linear(z);
        assert_eq!(r, p.evaluate(&z));
        // p = q·(x - z) + r
        let recomposed =
            &(&q * &DensePolynomial::from_coefficients(vec![-z, Fr::ONE])) + &DensePolynomial::constant(r);
        assert_eq!(recomposed, p);
    }

    #[test]
    fn vanishing_division_exact() {
        let mut rng = StdRng::seed_from_u64(61);
        let n = 8;
        let q = DensePolynomial::random(13, &mut rng);
        let z_h = {
            // xⁿ - 1
            let mut c = vec![Fr::ZERO; n + 1];
            c[0] = -Fr::ONE;
            c[n] = Fr::ONE;
            DensePolynomial::from_coefficients(c)
        };
        let p = &q * &z_h;
        assert_eq!(p.divide_by_vanishing(n), q);
    }

    #[test]
    fn fft_mul_matches_naive() {
        let mut rng = StdRng::seed_from_u64(62);
        let a = DensePolynomial::random(100, &mut rng);
        let b = DensePolynomial::random(77, &mut rng);
        let naive = {
            let mut out = vec![Fr::ZERO; 178];
            for (i, x) in a.coefficients().iter().enumerate() {
                for (j, y) in b.coefficients().iter().enumerate() {
                    out[i + j] += *x * *y;
                }
            }
            DensePolynomial::from_coefficients(out)
        };
        assert_eq!(a.mul_fft(&b), naive);
        assert_eq!(&a * &b, naive);
    }

    #[test]
    fn lagrange_interpolates_exactly() {
        let mut rng = StdRng::seed_from_u64(63);
        let points: Vec<(Fr, Fr)> = (0..7)
            .map(|i| (Fr::from(i as u64), Fr::random(&mut rng)))
            .collect();
        let p = lagrange_interpolate(&points);
        assert!(p.degree() < points.len());
        for (x, y) in &points {
            assert_eq!(p.evaluate(x), *y);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_add_then_sub_roundtrips(a in proptest::collection::vec(any::<u64>(), 0..20),
                                        b in proptest::collection::vec(any::<u64>(), 0..20)) {
            let pa = poly_from_u64(&a);
            let pb = poly_from_u64(&b);
            prop_assert_eq!(&(&pa + &pb) - &pb, pa);
        }

        #[test]
        fn prop_mul_evaluates_pointwise(a in proptest::collection::vec(any::<u64>(), 0..10),
                                        b in proptest::collection::vec(any::<u64>(), 0..10),
                                        x in any::<u64>()) {
            let pa = poly_from_u64(&a);
            let pb = poly_from_u64(&b);
            let x = Fr::from(x);
            prop_assert_eq!((&pa * &pb).evaluate(&x), pa.evaluate(&x) * pb.evaluate(&x));
        }

        #[test]
        fn prop_shift_up_multiplies_by_x_power(a in proptest::collection::vec(any::<u64>(), 0..10),
                                               k in 0usize..5, x in any::<u64>()) {
            let pa = poly_from_u64(&a);
            let x = Fr::from(x);
            let xk = x.pow(&[k as u64, 0, 0, 0]);
            prop_assert_eq!(pa.shift_up(k).evaluate(&x), pa.evaluate(&x) * xk);
        }
    }
}

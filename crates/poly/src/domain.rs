//! Radix-2 FFT evaluation domains.

use zkdet_field::{Field, Fr};

/// A multiplicative subgroup `⟨ω⟩ ⊂ F_r*` of power-of-two order, with
/// in-place radix-2 (i)FFT and coset variants.
///
/// BN254's scalar field has 2-adicity 28, so domains up to `2^28` elements
/// are supported — matching the paper's "up to 2^28 constraints" universal
/// setup (§VI-B1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvaluationDomain {
    size: usize,
    log_size: u32,
    group_gen: Fr,
    group_gen_inv: Fr,
    size_inv: Fr,
    /// The coset shift `g` used by coset FFTs (the field's multiplicative
    /// generator, which lies outside every proper 2-adic subgroup).
    coset_shift: Fr,
    coset_shift_inv: Fr,
}

impl EvaluationDomain {
    /// Creates a domain of size `num_coeffs.next_power_of_two()`.
    ///
    /// Returns `None` if the required size exceeds `2^28` (the field's
    /// 2-adicity bound) — including hostile sizes so large that rounding
    /// up to a power of two would itself overflow `usize`.
    pub fn new(num_coeffs: usize) -> Option<Self> {
        let size = num_coeffs.max(1).checked_next_power_of_two()?;
        let group_gen = Self::root_of_unity(size)?;
        let coset_shift = Fr::generator();
        Some(EvaluationDomain {
            size,
            log_size: size.trailing_zeros(),
            group_gen,
            group_gen_inv: group_gen.inverse().expect("ω ≠ 0"),
            size_inv: Fr::from(size as u64).inverse().expect("size ≠ 0 mod r"),
            coset_shift,
            coset_shift_inv: coset_shift.inverse().expect("g ≠ 0"),
        })
    }

    /// The generator `ω` of the subgroup of exactly `size` elements: all a
    /// caller needs when it evaluates nothing over the domain (squarings
    /// only, where [`Self::new`] also inverts).
    ///
    /// Returns `None` unless `size` is a power of two of at most `2^28`.
    pub fn root_of_unity(size: usize) -> Option<Fr> {
        let log_size = size.trailing_zeros();
        if !size.is_power_of_two() || log_size > Fr::TWO_ADICITY {
            return None;
        }
        // ω = root^(2^(28 - log_size)) has exact order 2^log_size.
        let mut group_gen = Fr::two_adic_root_of_unity();
        for _ in 0..(Fr::TWO_ADICITY - log_size) {
            group_gen = group_gen.square();
        }
        Some(group_gen)
    }

    /// The domain size (a power of two).
    pub fn size(&self) -> usize {
        self.size
    }

    /// `log₂` of the domain size.
    pub fn log_size(&self) -> u32 {
        self.log_size
    }

    /// The domain generator `ω`.
    pub fn group_gen(&self) -> Fr {
        self.group_gen
    }

    /// The coset shift `g` used by [`Self::coset_fft`].
    pub fn coset_shift(&self) -> Fr {
        self.coset_shift
    }

    /// `ω^i`.
    pub fn element(&self, i: usize) -> Fr {
        self.group_gen.pow(&[(i % self.size) as u64, 0, 0, 0])
    }

    /// All domain elements `1, ω, ω², …` in order.
    pub fn elements(&self) -> Vec<Fr> {
        let mut out = Vec::with_capacity(self.size);
        let mut acc = Fr::ONE;
        for _ in 0..self.size {
            out.push(acc);
            acc *= self.group_gen;
        }
        out
    }

    /// Evaluates the vanishing polynomial `Z_H(x) = xⁿ - 1`.
    pub fn evaluate_vanishing(&self, x: &Fr) -> Fr {
        x.pow(&[self.size as u64, 0, 0, 0]) - Fr::ONE
    }

    /// In-place radix-2 Cooley–Tukey butterfly network.
    fn fft_in_place(&self, a: &mut Vec<Fr>, omega: Fr) {
        a.resize(self.size, Fr::ZERO);
        let n = self.size;
        let log_n = self.log_size;
        if log_n == 0 {
            return; // size-1 domain: evaluation == coefficient
        }
        // Bit-reversal permutation.
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - log_n);
            if i < j {
                a.swap(i, j);
            }
        }
        let mut m = 1;
        for _ in 0..log_n {
            let w_m = omega.pow(&[(n / (2 * m)) as u64, 0, 0, 0]);
            let mut k = 0;
            while k < n {
                let mut w = Fr::ONE;
                for j in 0..m {
                    let t = w * a[k + j + m];
                    a[k + j + m] = a[k + j] - t;
                    a[k + j] += t;
                    w *= w_m;
                }
                k += 2 * m;
            }
            m *= 2;
        }
    }

    /// Telemetry hook shared by the four transform entry points: bumps the
    /// per-kind call counter and the shared size histogram. One relaxed
    /// atomic load when telemetry is off.
    #[inline]
    fn note_transform(&self, counter: &'static str) {
        if zkdet_telemetry::is_enabled() {
            zkdet_telemetry::counter_add(counter, 1);
            zkdet_telemetry::observe("zkdet.poly.fft.size", self.size as u64);
        }
    }

    /// Evaluates a coefficient vector on the domain.
    pub fn fft(&self, coeffs: &[Fr]) -> Vec<Fr> {
        assert!(
            coeffs.len() <= self.size,
            "fft: {} coefficients exceed domain size {}",
            coeffs.len(),
            self.size
        );
        self.note_transform("zkdet.poly.fft.calls");
        let mut a = coeffs.to_vec();
        self.fft_in_place(&mut a, self.group_gen);
        a
    }

    /// Interpolates evaluations on the domain back to coefficients.
    pub fn ifft(&self, evals: &[Fr]) -> Vec<Fr> {
        assert!(evals.len() <= self.size);
        self.note_transform("zkdet.poly.ifft.calls");
        let mut a = evals.to_vec();
        self.fft_in_place(&mut a, self.group_gen_inv);
        for x in a.iter_mut() {
            *x *= self.size_inv;
        }
        a
    }

    /// Evaluates a coefficient vector on the coset `g·⟨ω⟩`.
    pub fn coset_fft(&self, coeffs: &[Fr]) -> Vec<Fr> {
        self.note_transform("zkdet.poly.coset_fft.calls");
        let mut a = coeffs.to_vec();
        let mut shift = Fr::ONE;
        for c in a.iter_mut() {
            *c *= shift;
            shift *= self.coset_shift;
        }
        self.fft_in_place(&mut a, self.group_gen);
        a
    }

    /// Interpolates evaluations on the coset `g·⟨ω⟩` back to coefficients.
    /// (Counts as one `coset_ifft` and, internally, one `ifft`.)
    pub fn coset_ifft(&self, evals: &[Fr]) -> Vec<Fr> {
        self.note_transform("zkdet.poly.coset_ifft.calls");
        let mut a = self.ifft(evals);
        let mut shift = Fr::ONE;
        for c in a.iter_mut() {
            *c *= shift;
            shift *= self.coset_shift_inv;
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn fft_roundtrip() {
        let mut rng = StdRng::seed_from_u64(50);
        for log_n in [0u32, 1, 2, 5, 8] {
            let n = 1usize << log_n;
            let domain = EvaluationDomain::new(n).unwrap();
            let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            assert_eq!(domain.ifft(&domain.fft(&coeffs)), coeffs);
        }
    }

    #[test]
    fn fft_matches_naive_evaluation() {
        let mut rng = StdRng::seed_from_u64(51);
        let n = 16;
        let domain = EvaluationDomain::new(n).unwrap();
        let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let evals = domain.fft(&coeffs);
        for (i, x) in domain.elements().into_iter().enumerate() {
            let mut acc = Fr::ZERO;
            for c in coeffs.iter().rev() {
                acc = acc * x + *c;
            }
            assert_eq!(evals[i], acc, "mismatch at ω^{i}");
        }
    }

    #[test]
    fn coset_fft_roundtrip_and_distinctness() {
        let mut rng = StdRng::seed_from_u64(52);
        let n = 32;
        let domain = EvaluationDomain::new(n).unwrap();
        let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let coset_evals = domain.coset_fft(&coeffs);
        assert_eq!(domain.coset_ifft(&coset_evals), coeffs);
        // Coset evaluations differ from subgroup evaluations.
        assert_ne!(coset_evals, domain.fft(&coeffs));
    }

    #[test]
    fn vanishing_poly_zero_on_domain_nonzero_on_coset() {
        let domain = EvaluationDomain::new(8).unwrap();
        for x in domain.elements() {
            assert_eq!(domain.evaluate_vanishing(&x), Fr::ZERO);
        }
        assert_ne!(domain.evaluate_vanishing(&domain.coset_shift()), Fr::ZERO);
    }

    #[test]
    fn domain_size_rounds_up() {
        assert_eq!(EvaluationDomain::new(5).unwrap().size(), 8);
        assert_eq!(EvaluationDomain::new(8).unwrap().size(), 8);
        assert_eq!(EvaluationDomain::new(0).unwrap().size(), 1);
        assert!(EvaluationDomain::new(1 << 29).is_none());
    }

    #[test]
    fn generator_has_exact_order() {
        let domain = EvaluationDomain::new(64).unwrap();
        let w = domain.group_gen();
        assert_eq!(w.pow(&[64, 0, 0, 0]), Fr::ONE);
        assert_ne!(w.pow(&[32, 0, 0, 0]), Fr::ONE);
    }
}

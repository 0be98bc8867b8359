//! Radix-2 FFT evaluation domains.

use zkdet_field::{par, Field, Fr};

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
            group_gen_inv: group_gen.inverse()?,
            size_inv: Fr::from(size as u64).inverse()?,
            coset_shift,
            coset_shift_inv: coset_shift.inverse()?,
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

    /// Telemetry hook shared by the transform entry points: bumps the
    /// per-kind call counter and the shared size histogram. One relaxed
    /// atomic load when telemetry is off.
    #[inline]
    fn note_transform(&self, counter: &'static str) {
        if zkdet_telemetry::is_enabled() {
            zkdet_telemetry::counter_add(counter, 1);
            zkdet_telemetry::observe("zkdet.poly.fft.size", self.size as u64);
        }
    }

    /// Reduces a coefficient vector modulo `Xⁿ − 1` in place: coefficient
    /// `i` is added into slot `i mod n`, and short inputs are zero-padded.
    /// Every point of a coset `s·⟨ω⟩` has `(s·ωᵏ)ⁱ = sⁱ·ω^(k·(i mod n))`,
    /// so after scaling by `sⁱ` the folded vector has the same evaluations
    /// there as the full one.
    fn fold(&self, a: &mut Vec<Fr>) {
        let n = self.size;
        if a.len() > n {
            let (head, tail) = a.split_at_mut(n);
            for (i, c) in tail.iter().enumerate() {
                head[i % n] += *c;
            }
            a.truncate(n);
        }
        a.resize(n, Fr::ZERO);
    }

    /// Evaluates a coefficient vector on the domain. Inputs longer than the
    /// domain are evaluated exactly (folded modulo `Xⁿ − 1`), not truncated.
    pub fn fft(&self, coeffs: &[Fr]) -> Vec<Fr> {
        let mut a = coeffs.to_vec();
        self.fft_in_place(&mut a);
        a
    }

    /// [`Self::fft`] on a caller-owned vector, which is left holding the
    /// `n` evaluations.
    pub fn fft_in_place(&self, a: &mut Vec<Fr>) {
        self.note_transform("zkdet.poly.fft.calls");
        self.fold(a);
        radix2(a, self.group_gen, workers_for(self.log_size));
    }

    /// Interpolates evaluations on the domain back to coefficients.
    pub fn ifft(&self, evals: &[Fr]) -> Vec<Fr> {
        let mut a = evals.to_vec();
        self.ifft_in_place(&mut a);
        a
    }

    /// [`Self::ifft`] on a caller-owned vector of at most `n` evaluations
    /// (zero-padded), which is left holding the `n` coefficients.
    pub fn ifft_in_place(&self, a: &mut Vec<Fr>) {
        assert!(
            a.len() <= self.size,
            "ifft: {} evaluations exceed domain size {}",
            a.len(),
            self.size
        );
        self.note_transform("zkdet.poly.ifft.calls");
        a.resize(self.size, Fr::ZERO);
        radix2(a, self.group_gen_inv, workers_for(self.log_size));
        for x in a.iter_mut() {
            *x *= self.size_inv;
        }
    }

    /// Evaluates a coefficient vector on the coset `g·⟨ω⟩`. Inputs longer
    /// than the domain are evaluated exactly, as in [`Self::fft`].
    pub fn coset_fft(&self, coeffs: &[Fr]) -> Vec<Fr> {
        let mut out = Vec::new();
        self.coset_fft_into(coeffs, self.coset_shift, &mut out);
        out
    }

    /// Evaluates `coeffs` (of any length) at the `n` points `shift·ωᵏ` of
    /// an arbitrary coset, into `out`: its old contents are discarded and
    /// its allocation reused, so a caller walking several cosets holds one
    /// buffer per polynomial, not one per coset.
    pub fn coset_fft_into(&self, coeffs: &[Fr], shift: Fr, out: &mut Vec<Fr>) {
        self.note_transform("zkdet.poly.coset_fft.calls");
        let n = self.size;
        out.clear();
        out.resize(n, Fr::ZERO);
        let mut power = Fr::ONE;
        for (i, c) in coeffs.iter().enumerate() {
            out[i % n] += *c * power;
            power *= shift;
        }
        radix2(out, self.group_gen, workers_for(self.log_size));
    }

    /// Interpolates evaluations on the coset `g·⟨ω⟩` back to coefficients.
    /// (Counts as one `coset_ifft` and, internally, one `ifft`.)
    pub fn coset_ifft(&self, evals: &[Fr]) -> Vec<Fr> {
        let mut a = evals.to_vec();
        self.coset_ifft_in_place(&mut a);
        a
    }

    /// [`Self::coset_ifft`] on a caller-owned vector of at most `n`
    /// evaluations, which is left holding the `n` coefficients.
    pub fn coset_ifft_in_place(&self, a: &mut Vec<Fr>) {
        self.note_transform("zkdet.poly.coset_ifft.calls");
        self.ifft_in_place(a);
        scale_by_powers(a, Fr::ONE, self.coset_shift_inv);
    }
}

/// Below `2^PARALLEL_MIN_LOG_SIZE` points a transform runs on the calling
/// thread: a spawn costs more than the butterflies it would take over.
const PARALLEL_MIN_LOG_SIZE: u32 = 12;

/// Workers for a transform of `2^log_n` points: the largest power of two
/// not above [`par::cores`].
fn workers_for(log_n: u32) -> usize {
    if log_n < PARALLEL_MIN_LOG_SIZE {
        return 1;
    }
    1 << par::cores().ilog2()
}

/// `a[i] *= start · ratioⁱ`.
fn scale_by_powers(a: &mut [Fr], start: Fr, ratio: Fr) {
    let mut power = start;
    for x in a.iter_mut() {
        *x *= power;
        power *= ratio;
    }
}

/// In-place radix-2 decimation-in-time transform of `a` (a power-of-two
/// length) at the root of unity `omega`, its butterflies split across
/// `workers` (a power of two).
///
/// One twiddle table `ω⁰ … ω^(n/2 − 1)` serves every stage — the stage of
/// half-width `m` reads every `(n/2m)`-th entry — so a butterfly costs one
/// multiplication. After the bit-reversal permutation, blocks of
/// `n / workers` points are independent through the bottom stages and run
/// one per worker; each of the top `log₂ workers` stages is then cut into
/// `workers` disjoint runs of butterflies. Field arithmetic is exact, so
/// the output does not depend on `workers`.
fn radix2(a: &mut [Fr], omega: Fr, workers: usize) {
    let n = a.len();
    debug_assert!(n.is_power_of_two(), "radix-2 transform of {n} points");
    if n <= 1 {
        return;
    }
    let log_n = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - log_n);
        if i < j {
            a.swap(i, j);
        }
    }
    let half = n / 2;
    let workers = workers.clamp(1, half);

    let mut twiddles = vec![Fr::ONE; half];
    let piece = half / workers;
    par::for_each_parallel(twiddles.chunks_mut(piece).enumerate(), |(w, out)| {
        scale_by_powers(out, omega.pow(&[(w * piece) as u64, 0, 0, 0]), omega);
    });
    let twiddles = &twiddles;

    // Bottom stages: each worker's block, half-widths 1 … block/2.
    let block = n / workers;
    par::for_each_parallel(a.chunks_mut(block), |chunk| {
        let mut m = 1;
        while m < block {
            let stride = half / m;
            for pair in chunk.chunks_exact_mut(2 * m) {
                let (lo, hi) = pair.split_at_mut(m);
                butterflies(lo, hi, twiddles, 0, stride);
            }
            m *= 2;
        }
    });

    // Top stages: half-widths block … n/2, each split into `workers` runs.
    let mut m = block;
    while m < n {
        let stride = half / m;
        let runs_per_pair = workers * 2 * m / n;
        let run = m / runs_per_pair;
        let mut runs = Vec::with_capacity(workers);
        for pair in a.chunks_exact_mut(2 * m) {
            let (lo, hi) = pair.split_at_mut(m);
            for (r, (lo, hi)) in lo.chunks_mut(run).zip(hi.chunks_mut(run)).enumerate() {
                runs.push((lo, hi, r * run));
            }
        }
        par::for_each_parallel(runs, |(lo, hi, j0)| {
            butterflies(lo, hi, twiddles, j0, stride)
        });
        m *= 2;
    }
}

/// The butterflies `(lo[j], hi[j])` with twiddle `twiddles[(j0 + j)·stride]`.
fn butterflies(lo: &mut [Fr], hi: &mut [Fr], twiddles: &[Fr], j0: usize, stride: usize) {
    for (j, (x, y)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
        let t = *y * twiddles[(j0 + j) * stride];
        *y = *x - t;
        *x += t;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn horner(coeffs: &[Fr], x: Fr) -> Fr {
        coeffs.iter().rev().fold(Fr::ZERO, |acc, c| acc * x + *c)
    }

    /// O(n²) evaluation of `coeffs` at `shift·ωᵏ`, k < n.
    fn naive_dft(domain: &EvaluationDomain, coeffs: &[Fr], shift: Fr) -> Vec<Fr> {
        domain
            .elements()
            .into_iter()
            .map(|w| horner(coeffs, shift * w))
            .collect()
    }

    fn random_vec(len: usize, rng: &mut StdRng) -> Vec<Fr> {
        (0..len).map(|_| Fr::random(rng)).collect()
    }

    #[test]
    fn transforms_match_the_naive_dft_at_every_size() {
        let mut rng = StdRng::seed_from_u64(53);
        for log_n in 0..=10u32 {
            let n = 1usize << log_n;
            let domain = EvaluationDomain::new(n).unwrap();
            let g = domain.coset_shift();
            for len in [n, n + 1, n + 3, 2 * n + 1] {
                let coeffs = random_vec(len, &mut rng);
                let shift = Fr::random(&mut rng);
                let tag = format!("n = {n}, {len} coefficients");

                let evals = domain.fft(&coeffs);
                assert_eq!(evals, naive_dft(&domain, &coeffs, Fr::ONE), "fft, {tag}");
                let mut v = coeffs.clone();
                domain.fft_in_place(&mut v);
                assert_eq!(v, evals, "fft_in_place, {tag}");

                let coset = domain.coset_fft(&coeffs);
                assert_eq!(coset, naive_dft(&domain, &coeffs, g), "coset_fft, {tag}");

                // A reused buffer of the wrong length and stale contents.
                let mut out = random_vec(3 * n + 1, &mut rng);
                domain.coset_fft_into(&coeffs, shift, &mut out);
                assert_eq!(out, naive_dft(&domain, &coeffs, shift), "coset_fft_into, {tag}");
            }

            // Inverses: n random values (or fewer, zero-padded) come back as
            // the coefficients of the polynomial taking them.
            for len in [n, n.div_ceil(2)] {
                let mut values = random_vec(len, &mut rng);
                let coeffs = domain.ifft(&values);
                values.resize(n, Fr::ZERO);
                assert_eq!(naive_dft(&domain, &coeffs, Fr::ONE), values, "ifft, n = {n}");
                let mut v = values[..len].to_vec();
                domain.ifft_in_place(&mut v);
                assert_eq!(v, coeffs, "ifft_in_place, n = {n}");

                let coeffs = domain.coset_ifft(&values);
                assert_eq!(naive_dft(&domain, &coeffs, g), values, "coset_ifft, n = {n}");
                let mut v = values.clone();
                domain.coset_ifft_in_place(&mut v);
                assert_eq!(v, coeffs, "coset_ifft_in_place, n = {n}");
            }
        }
    }

    #[test]
    fn coset_fft_of_more_coefficients_than_the_domain_evaluates_them_all() {
        let domain = EvaluationDomain::new(4).unwrap();
        let coeffs: Vec<Fr> = (1..=6u64).map(Fr::from).collect();
        let g = domain.coset_shift();
        let want: Vec<Fr> = domain
            .elements()
            .into_iter()
            .map(|w| horner(&coeffs, g * w))
            .collect();
        assert_eq!(domain.coset_fft(&coeffs), want);
        let want: Vec<Fr> = domain.elements().into_iter().map(|w| horner(&coeffs, w)).collect();
        assert_eq!(domain.fft(&coeffs), want);
    }

    #[test]
    fn the_transform_does_not_depend_on_the_worker_count() {
        let mut rng = StdRng::seed_from_u64(54);
        for log_n in 0..=12u32 {
            let n = 1usize << log_n;
            let domain = EvaluationDomain::new(n).unwrap();
            let input = random_vec(n, &mut rng);
            for omega in [domain.group_gen(), domain.group_gen_inv] {
                let mut one = input.clone();
                radix2(&mut one, omega, 1);
                for workers in [2, 4, 8] {
                    let mut split = input.clone();
                    radix2(&mut split, omega, workers);
                    assert_eq!(split, one, "n = {n}, {workers} workers");
                }
            }
        }
    }

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

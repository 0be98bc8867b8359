//! Pippenger multi-scalar multiplication.
//!
//! Computes `Σ scalarᵢ · baseᵢ` in windows of `c` bits with bucket
//! accumulation; windows are processed in parallel with scoped threads. This
//! is the dominant cost of PLONK proving, so it gets the only real
//! optimisation effort in the curve crate.

use zkdet_field::{Fr, PrimeField};

use crate::group::{Affine, CurveParams, Projective};

/// Window size heuristic (bits per window) for `n` terms.
fn window_size(n: usize) -> usize {
    match n {
        0..=15 => 3,
        16..=127 => 5,
        128..=1023 => 8,
        1024..=32767 => 11,
        _ => 13,
    }
}

/// Extracts the `w`-th `c`-bit window of a canonical scalar.
#[inline]
fn scalar_window(limbs: &[u64; 4], w: usize, c: usize) -> usize {
    let bit_offset = w * c;
    let limb = bit_offset / 64;
    let shift = bit_offset % 64;
    if limb >= 4 {
        return 0;
    }
    let mut v = limbs[limb] >> shift;
    if shift + c > 64 && limb + 1 < 4 {
        v |= limbs[limb + 1] << (64 - shift);
    }
    (v as usize) & ((1 << c) - 1)
}

/// Computes one window's bucket sum `Σ_b b · bucket[b]` over the given terms.
fn window_sum<C: CurveParams>(
    bases: &[Affine<C>],
    scalars: &[[u64; 4]],
    w: usize,
    c: usize,
) -> Projective<C> {
    let mut buckets = vec![Projective::<C>::identity(); (1 << c) - 1];
    for (base, scalar) in bases.iter().zip(scalars) {
        let idx = scalar_window(scalar, w, c);
        if idx != 0 {
            buckets[idx - 1] = buckets[idx - 1].add_mixed(base);
        }
    }
    // Suffix-sum trick: Σ b·B_b = Σ_j (Σ_{b ≥ j} B_b).
    let mut running = Projective::<C>::identity();
    let mut acc = Projective::<C>::identity();
    for bucket in buckets.iter().rev() {
        running += *bucket;
        acc += running;
    }
    acc
}

/// Multi-scalar multiplication `Σ scalarsᵢ · basesᵢ`.
///
/// # Panics
///
/// Panics if `bases.len() != scalars.len()`.
pub fn msm<C: CurveParams>(bases: &[Affine<C>], scalars: &[Fr]) -> Projective<C> {
    assert_eq!(
        bases.len(),
        scalars.len(),
        "msm: bases and scalars must have equal length"
    );
    if zkdet_telemetry::is_enabled() {
        zkdet_telemetry::counter_add("zkdet.curve.msm.calls", 1);
        zkdet_telemetry::observe("zkdet.curve.msm.terms", bases.len() as u64);
    }
    if bases.is_empty() {
        return Projective::identity();
    }
    let c = window_size(bases.len());
    let num_windows = 254usize.div_ceil(c);
    let canonical: Vec<[u64; 4]> = scalars.iter().map(|s| s.to_canonical()).collect();

    // One thread per window (bounded: ≤ 85 windows, typically ~20).
    let mut window_sums = vec![Projective::<C>::identity(); num_windows];
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if threads > 1 && bases.len() >= 256 {
        // Workers run pure field arithmetic on borrowed slices; a panic
        // there is a library bug, never an input condition, so joining
        // with `expect` is the right escalation.
        #[allow(clippy::expect_used)]
        // zkdet-analyzer: allow(raw-thread-spawn) one worker per window, all joined here; sums are combined in window order, so the result does not depend on thread timing
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..num_windows)
                .map(|w| {
                    let canonical = &canonical;
                    scope.spawn(move |_| window_sum(bases, canonical, w, c))
                })
                .collect();
            for (w, h) in handles.into_iter().enumerate() {
                window_sums[w] = h.join().expect("msm worker panicked");
            }
        })
        .expect("msm scope");
    } else {
        for (w, slot) in window_sums.iter_mut().enumerate() {
            *slot = window_sum(bases, &canonical, w, c);
        }
    }

    // Combine windows MSB-first: acc = acc·2^c + window.
    let mut acc = Projective::<C>::identity();
    for sum in window_sums.into_iter().rev() {
        for _ in 0..c {
            acc = acc.double();
        }
        acc += sum;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{G1Projective, G2Projective};
    use rand::{rngs::StdRng, SeedableRng};
    use zkdet_field::Field;

    fn naive<C: CurveParams>(bases: &[Affine<C>], scalars: &[Fr]) -> Projective<C> {
        bases
            .iter()
            .zip(scalars)
            .fold(Projective::identity(), |acc, (b, s)| {
                acc + b.to_projective() * *s
            })
    }

    #[test]
    fn msm_matches_naive_small() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in [0usize, 1, 2, 3, 17, 64, 300] {
            let bases: Vec<_> = (0..n)
                .map(|_| G1Projective::random(&mut rng).to_affine())
                .collect();
            let scalars: Vec<_> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars), "n = {n}");
        }
    }

    #[test]
    fn msm_g2_matches_naive() {
        let mut rng = StdRng::seed_from_u64(32);
        let bases: Vec<_> = (0..40)
            .map(|_| G2Projective::random(&mut rng).to_affine())
            .collect();
        let scalars: Vec<_> = (0..40).map(|_| Fr::random(&mut rng)).collect();
        assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars));
    }

    #[test]
    fn msm_handles_special_scalars() {
        let mut rng = StdRng::seed_from_u64(33);
        let bases: Vec<_> = (0..8)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let mut scalars = vec![Fr::ZERO; 8];
        scalars[1] = Fr::ONE;
        scalars[2] = -Fr::ONE;
        scalars[3] = Fr::from(u64::MAX);
        assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars));
    }

    #[test]
    fn scalar_window_covers_all_bits() {
        let limbs = [u64::MAX; 4];
        let c = 11;
        let mut total_bits = 0;
        for w in 0..254usize.div_ceil(c) {
            let v = scalar_window(&limbs, w, c);
            total_bits += (v as u64).count_ones();
        }
        assert!(total_bits >= 254, "windows must cover at least 254 bits");
    }
}

/// Computes `[s₀·B, s₁·B, …]` for one shared base using a precomputed
/// window table — the dominant cost of universal-SRS generation, ~10×
/// faster than independent scalar multiplications.
pub fn fixed_base_batch_mul<C: CurveParams>(
    base: &Projective<C>,
    scalars: &[Fr],
) -> Vec<Projective<C>> {
    if zkdet_telemetry::is_enabled() {
        zkdet_telemetry::counter_add("zkdet.curve.fixed_base.calls", 1);
        zkdet_telemetry::observe("zkdet.curve.fixed_base.terms", scalars.len() as u64);
    }
    const WINDOW: usize = 8;
    let num_windows = 254usize.div_ceil(WINDOW);
    // table[w][d-1] = d · 2^(8w) · base
    let mut table: Vec<Vec<Projective<C>>> = Vec::with_capacity(num_windows);
    let mut win_base = *base;
    for _ in 0..num_windows {
        let mut row = Vec::with_capacity((1 << WINDOW) - 1);
        let mut acc = win_base;
        for _ in 0..(1 << WINDOW) - 1 {
            row.push(acc);
            acc += win_base;
        }
        table.push(row);
        for _ in 0..WINDOW {
            win_base = win_base.double();
        }
    }
    // Affine tables make each per-scalar accumulation a mixed add.
    let affine_table: Vec<Vec<Affine<C>>> = table
        .iter()
        .map(|row| Projective::batch_to_affine(row))
        .collect();
    scalars
        .iter()
        .map(|s| {
            let limbs = s.to_canonical();
            let mut acc = Projective::<C>::identity();
            for (w, row) in affine_table.iter().enumerate() {
                let d = scalar_window(&limbs, w, WINDOW);
                if d != 0 {
                    acc = acc.add_mixed(&row[d - 1]);
                }
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod fixed_base_tests {
    use super::*;
    use crate::group::G1Projective;
    use rand::{rngs::StdRng, SeedableRng};
    use zkdet_field::Field;

    #[test]
    fn fixed_base_matches_scalar_mul() {
        let mut rng = StdRng::seed_from_u64(34);
        let base = G1Projective::random(&mut rng);
        let scalars: Vec<Fr> = (0..20)
            .map(|i| {
                if i == 0 {
                    Fr::ZERO
                } else {
                    Fr::random(&mut rng)
                }
            })
            .collect();
        let batch = fixed_base_batch_mul(&base, &scalars);
        for (s, p) in scalars.iter().zip(&batch) {
            assert_eq!(*p, base * *s);
        }
    }
}

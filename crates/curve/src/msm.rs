//! Pippenger multi-scalar multiplication.
//!
//! Computes `Σ scalarᵢ · baseᵢ` window by window. Each scalar is recoded
//! into signed `c`-bit digits, so a window needs `2^(c−1)` buckets rather
//! than `2^c − 1`; `c` is the argmin of a two-term cost model, not a table.
//! Within a window the terms are counting-sorted by bucket and every bucket
//! is summed in *affine* coordinates, in rounds of pairwise additions that
//! share one field inversion per round, so an accumulation costs ~6 base
//! field multiplications instead of the 11 of a Jacobian mixed add; once a
//! round would hold too few pairs to pay for its inversion
//! (`MIN_AFFINE_PAIRS`) the suffix-sum pass takes the buckets as they are,
//! which is all a verifier-sized input (tens of terms) ever runs. Up to
//! [`par::cores`] scoped workers each sum an interleaved subset of the
//! windows. This is the dominant cost of PLONK proving (nine KZG
//! commitments per proof) and, through the verifier's two linear
//! combinations, of checking one, so it gets the only real optimisation
//! effort in the curve crate.

use zkdet_field::{par, Field, Fr, PrimeField};

use crate::group::{Affine, CurveParams, Projective};

/// Scalars are below `r < 2^254`; recoding `SCALAR_BITS = 255` bits leaves
/// the top window room to absorb the last carry.
const SCALAR_BITS: usize = 255;

/// Relative cost of adding one term into its bucket: a batch-affine add is
/// 3 base-field multiplications for its share of the batch inversion and 3
/// for λ, λ², y₃, plus the counting sort.
const ACCUMULATE_COST: u128 = 2;
/// Relative cost of one more bucket: its suffix-sum step (a Jacobian mixed
/// add and a full Jacobian add, ~27 multiplications) less the accumulation
/// add that the first point to land in a bucket does not need.
///
/// Both are per-phase timings of G1 at the benchmark ladder's two sizes
/// (`curve.msm_2048.ms`, `curve.msm_32768.ms`; 2-core box), which agree
/// across c = 8 / 11 / 12 / 13: sort + denominators + inversion + slope
/// arithmetic come to 0.20–0.22 µs per term, a suffix-sum step to
/// 0.73–0.77 µs per bucket, so 0.21 : (0.74 − 0.21) ≈ 2 : 5. The model then
/// picks c = 8 at n = 2048 (measured 8.9 / 8.2 / 8.6 ms for c = 7 / 8 / 9)
/// and c = 12 at n = 32768 (measured 91 / 88 / 88 / 93 ms for
/// c = 10 / 11 / 12 / 13).
const BUCKET_COST: u128 = 5;

/// Fewest pairs for which a batch-affine round is still worth running.
///
/// A round of `p` pairs pays one base-field inversion (≈ 350
/// multiplications: `field.fr_inverse.ns` ÷ `field.fr_mul.ns`) to add each
/// pair in ~6 multiplications where the Jacobian mixed add of the
/// suffix-sum pass takes 11, so it breaks even at p ≈ 350 / (11 − 6) ≈ 70;
/// below that the buckets go to the suffix-sum pass as they are. Every
/// input meets this exit, since a window's last rounds are always nearly
/// empty, but only a small one notices. G1, best of three batches, 2-core
/// box, threshold 1 (every round affine) / 16 / 32 / 64 / 128:
/// n = 19 → 2.8–3.3 / 1.0–2.2 / 0.92–0.96 / 0.86–0.98 / 0.88–1.05 ms
/// (19 double-and-add multiplications: 4.4 ms), n = 2 → 0.63 / 0.55–0.96 /
/// 0.41–0.56 / 0.40–0.52 / 0.38–0.54 (naive 0.44), n = 64 → 2.7–3.5 /
/// 2.0–2.3 / 1.7–1.8 / 1.6–1.7 / 1.7–1.9, n = 320 → 5.2–6.8 / 5.2–5.3 /
/// 4.7–4.8 / 4.8–5.0 / 4.8–5.0; n = 2048 reads 15.6–17.0 ms and n = 32768
/// 127–168 ms at every threshold, inside the box's run-to-run spread.
const MIN_AFFINE_PAIRS: usize = 64;

/// Bits per window for `n` terms: the `c` minimising
/// `windows(c) · (ACCUMULATE_COST · n + BUCKET_COST · 2^(c−1))`.
fn window_size(n: usize) -> usize {
    // u128: the cost of `usize::MAX` terms must not saturate into a tie.
    let cost = |c: usize| {
        let per_window = ACCUMULATE_COST * n as u128 + (BUCKET_COST << (c - 1));
        per_window * SCALAR_BITS.div_ceil(c) as u128
    };
    (2..=16).min_by_key(|&c| cost(c)).unwrap_or(2)
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

/// Recodes a canonical scalar into `ceil(255/c)` signed digits, least
/// significant first, with `Σ_w d_w · 2^(c·w)` equal to the scalar and every
/// `d_w` in `[−2^(c−1), 2^(c−1)]`: a window above `2^(c−1)` becomes
/// `window − 2^c` and carries one into the next. Returns the carry out of
/// the top window, which is 0 for any scalar below `2^254`.
#[inline]
fn signed_digits(limbs: &[u64; 4], c: usize, mut emit: impl FnMut(usize, i32)) -> usize {
    let half = 1usize << (c - 1);
    let mut carry = 0;
    for w in 0..SCALAR_BITS.div_ceil(c) {
        let v = scalar_window(limbs, w, c) + carry;
        carry = usize::from(v > half);
        // `c ≤ 16`, so both `v` and `2^c` fit an `i32`.
        emit(w, v as i32 - ((carry as i32) << c));
    }
    carry
}

/// Per-worker scratch, reused across the worker's windows: O(n) points and
/// O(2^(c−1)) counters, whatever the number of windows.
struct Scratch<C: CurveParams> {
    /// The window's terms grouped by bucket (bucket 0 first), sign applied.
    /// Always `n` long; the buckets own a prefix of it.
    points: Vec<Affine<C>>,
    /// How many of `points` each bucket currently owns.
    lens: Vec<usize>,
    /// Scatter cursors during the sort.
    cursors: Vec<usize>,
    /// One slope denominator per pair of the current round.
    denoms: Vec<C::Base>,
}

/// Computes one window's bucket sum `Σ_b b · bucket[b]`, where `bucket[b]`
/// collects `sign(dᵢ) · baseᵢ` over the terms with `|dᵢ| = b`.
fn window_sum<C: CurveParams>(
    bases: &[Affine<C>],
    digits: &[i32],
    scratch: &mut Scratch<C>,
) -> Projective<C> {
    let Scratch {
        points,
        lens,
        cursors,
        denoms,
    } = scratch;

    // Counting sort by bucket; zero digits and identity bases contribute
    // nothing and are dropped here.
    let live = |base: &Affine<C>, d: i32| d != 0 && !base.infinity;
    lens.fill(0);
    for (base, &d) in bases.iter().zip(digits) {
        if live(base, d) {
            lens[d.unsigned_abs() as usize - 1] += 1;
        }
    }
    let mut start = 0;
    for (cursor, len) in cursors.iter_mut().zip(lens.iter()) {
        *cursor = start;
        start += len;
    }
    for (base, &d) in bases.iter().zip(digits) {
        if live(base, d) {
            let cursor = &mut cursors[d.unsigned_abs() as usize - 1];
            points[*cursor] = if d < 0 { -*base } else { *base };
            *cursor += 1;
        }
    }

    // Halve every bucket per round: adjacent pairs are added in affine
    // form, all slopes of a round sharing one inversion. A zero denominator
    // marks a pair that sums to infinity (P + (−P), or doubling a point
    // with y = 0) and simply disappears. Rounds stop once too few pairs
    // are left to pay for the inversion.
    while lens.iter().map(|len| len / 2).sum::<usize>() >= MIN_AFFINE_PAIRS {
        denoms.clear();
        let mut start = 0;
        for &len in lens.iter() {
            for pair in points[start..start + len].chunks_exact(2) {
                let (p, q) = (&pair[0], &pair[1]);
                denoms.push(if p.x != q.x {
                    q.x - p.x
                } else if p.y == q.y {
                    p.y.double()
                } else {
                    C::Base::ZERO
                });
            }
            start += len;
        }
        C::Base::batch_inverse(denoms);

        // Results are compacted in place: `write` never overtakes `read`.
        let (mut read, mut write, mut pair) = (0, 0, 0);
        for len in lens.iter_mut() {
            let (end, first) = (read + *len, write);
            while read + 1 < end {
                let (p, q) = (points[read], points[read + 1]);
                read += 2;
                let inv = denoms[pair];
                pair += 1;
                if inv.is_zero() {
                    continue;
                }
                let lambda = if p.x != q.x {
                    (q.y - p.y) * inv
                } else {
                    let xx = p.x.square();
                    (xx.double() + xx) * inv
                };
                let x3 = lambda.square() - p.x - q.x;
                let y3 = lambda * (p.x - x3) - p.y;
                points[write] = Affine::new_unchecked(x3, y3);
                write += 1;
            }
            if read < end {
                points[write] = points[read];
                read += 1;
                write += 1;
            }
            *len = write - first;
        }
    }

    // The buckets' leftovers are still in bucket order. Suffix-sum trick:
    // Σ b·B_b = Σ_j (Σ_{b ≥ j} B_b), folding in whatever each bucket holds
    // (`add_mixed` doubles on P + P and cancels on P + (−P)).
    let mut next = lens.iter().sum::<usize>();
    let mut running = Projective::<C>::identity();
    let mut acc = Projective::<C>::identity();
    for &len in lens.iter().rev() {
        for point in &points[next - len..next] {
            running = running.add_mixed(point);
        }
        next -= len;
        acc += running;
    }
    acc
}

/// Sums windows `first, first + stride, …` of the digit matrix, in that order.
fn window_sums<C: CurveParams>(
    bases: &[Affine<C>],
    digits: &[i32],
    c: usize,
    first: usize,
    stride: usize,
) -> Vec<Projective<C>> {
    let buckets = 1usize << (c - 1);
    let mut scratch = Scratch {
        points: vec![Affine::identity(); bases.len()],
        lens: vec![0; buckets],
        cursors: vec![0; buckets],
        denoms: Vec::with_capacity(bases.len() / 2),
    };
    digits
        .chunks_exact(bases.len())
        .skip(first)
        .step_by(stride)
        .map(|window| window_sum(bases, window, &mut scratch))
        .collect()
}

/// Multi-scalar multiplication `Σ scalarsᵢ · basesᵢ`.
///
/// The returned group element depends only on the inputs: window sums are
/// combined in window order, whatever the worker count or thread timing.
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
    pippenger(bases, scalars, window_size(bases.len()), par::cores())
}

/// [`msm`] over non-empty, equally long inputs with `c`-bit windows,
/// `2 ≤ c ≤ 16`, its windows shared among `workers` threads.
fn pippenger<C: CurveParams>(
    bases: &[Affine<C>],
    scalars: &[Fr],
    c: usize,
    workers: usize,
) -> Projective<C> {
    let n = bases.len();
    let num_windows = SCALAR_BITS.div_ceil(c);

    // Window-major digit matrix: window `w` is `digits[w·n..(w+1)·n]`.
    let mut digits = vec![0i32; num_windows * n];
    for (i, s) in scalars.iter().enumerate() {
        let carry = signed_digits(&s.to_canonical(), c, |w, d| digits[w * n + i] = d);
        debug_assert_eq!(carry, 0, "canonical scalars are below 2^254");
    }

    // Worker `k` sums windows k, k + workers, …; the calling thread is
    // worker 0, so a single worker spawns nothing.
    let workers = workers.clamp(1, num_windows);
    let mut sums = vec![Vec::new(); workers];
    par::for_each_parallel(sums.iter_mut().enumerate(), |(k, out)| {
        *out = window_sums(bases, &digits, c, k, workers);
    });

    // Combine windows MSB-first: acc = acc·2^c + window, where window `w`
    // is worker `w mod workers`'s `(w / workers)`-th sum.
    let mut acc = Projective::<C>::identity();
    for w in (0..num_windows).rev() {
        for _ in 0..c {
            acc = acc.double();
        }
        acc += sums[w % workers][w / workers];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{G1Affine, G1Projective, G2Affine, G2Projective, G1, G2};
    use rand::{rngs::StdRng, SeedableRng};
    use zkdet_field::bigint::BigInt;
    use zkdet_field::{Fq, Fq2};

    fn naive<C: CurveParams>(bases: &[Affine<C>], scalars: &[Fr]) -> Projective<C> {
        bases
            .iter()
            .zip(scalars)
            .fold(Projective::identity(), |acc, (b, s)| {
                acc + b.to_projective() * *s
            })
    }

    fn random_bases<C: CurveParams>(n: usize, rng: &mut StdRng) -> Vec<Affine<C>> {
        let logs = random_scalars(n, rng);
        Projective::batch_to_affine(&fixed_base_batch_mul(&Projective::<C>::generator(), &logs))
    }

    fn random_scalars(n: usize, rng: &mut StdRng) -> Vec<Fr> {
        (0..n).map(|_| Fr::random(rng)).collect()
    }

    /// Inputs that steer the bucket reduction into each of its special
    /// cases: a single-bucket doubling chain, both ways a pair can cancel,
    /// identity bases, and windows with nothing in them.
    fn edge_case_table<C: CurveParams>(rng: &mut StdRng) -> Vec<(Vec<Affine<C>>, Vec<Fr>)> {
        let p = Projective::<C>::random(rng).to_affine();
        let q = Projective::<C>::random(rng).to_affine();
        let (s, t) = (Fr::random(rng), Fr::random(rng));
        vec![
            (vec![p; 300], vec![s; 300]),
            (vec![p, -p], vec![s, s]),
            (vec![p, p], vec![s, -s]),
            // At c = 2 (two terms) the low digits are +1 and −1.
            (vec![p, p], vec![Fr::ONE, Fr::from(3u64)]),
            (vec![p, -p, q, p, -p], vec![s, s, t, s, s]),
            (
                vec![Affine::identity(), q, Affine::identity()],
                vec![s, t, -s],
            ),
            (vec![Affine::identity(); 5], vec![s; 5]),
            (vec![p, q, p], vec![Fr::ZERO; 3]),
        ]
    }

    #[test]
    fn msm_matches_naive_small() {
        let mut rng = StdRng::seed_from_u64(31);
        // Beyond the trivial sizes, pairs that sit on both sides of each
        // size at which `window_size` moves to the next c, up to c = 7 | 8.
        let sizes = [
            0usize, 1, 2, 3, 4, 5, 20, 21, 58, 59, 175, 176, 300, 413, 414, 864, 865,
        ];
        for n in sizes {
            let bases = random_bases::<G1>(n, &mut rng);
            let scalars = random_scalars(n, &mut rng);
            assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars), "n = {n}");
        }
        for (i, (bases, scalars)) in edge_case_table::<G1>(&mut rng).iter().enumerate() {
            assert_eq!(msm(bases, scalars), naive(bases, scalars), "edge case {i}");
        }
    }

    /// Both sides of `MIN_AFFINE_PAIRS`. Alone, every case but the table's
    /// 300-term one stays below it in every window, so its buckets reach
    /// the suffix-sum pass exactly as sorted: (P, P, −P) takes `add_mixed`
    /// through its doubling branch, (P, −P, P) through its cancelling one.
    /// Padded with `2k` copies of one term, whose bucket holds `k` pairs in
    /// every window, the same buckets first go through no affine round
    /// (just below the threshold), or one or more of them (at and above).
    fn tail_folds_whatever_a_bucket_holds<C: CurveParams>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cases = edge_case_table::<C>(&mut rng);
        let p = Projective::<C>::random(&mut rng).to_affine();
        let q = Projective::<C>::random(&mut rng).to_affine();
        let (s, t) = (Fr::random(&mut rng), Fr::random(&mut rng));
        cases.push((vec![p, p, -p], vec![s; 3]));
        cases.push((vec![p, -p, p], vec![s; 3]));
        cases.push((
            vec![p, Affine::identity(), p, q, -p],
            vec![s, t, s, Fr::ZERO, s],
        ));
        for (i, (bases, scalars)) in cases.iter().enumerate() {
            let alone = naive(bases, scalars);
            assert_eq!(msm(bases, scalars), alone, "case {i}");
            for k in [
                MIN_AFFINE_PAIRS - 2,
                MIN_AFFINE_PAIRS - 1,
                MIN_AFFINE_PAIRS,
                2 * MIN_AFFINE_PAIRS + 1,
            ] {
                let padded_bases = [bases.as_slice(), &vec![q; 2 * k]].concat();
                let padded_scalars = [scalars.as_slice(), &vec![t; 2 * k]].concat();
                assert_eq!(
                    msm(&padded_bases, &padded_scalars),
                    alone + q * (t * Fr::from(2 * k as u64)),
                    "case {i} padded with {k} pairs"
                );
            }
        }
    }

    #[test]
    fn tail_folds_whatever_a_bucket_holds_g1() {
        tail_folds_whatever_a_bucket_holds::<G1>(37);
    }

    #[test]
    fn tail_folds_whatever_a_bucket_holds_g2() {
        tail_folds_whatever_a_bucket_holds::<G2>(38);
    }

    #[test]
    fn window_size_changes_exactly_where_the_sizes_above_say() {
        let first_n_with_c = [
            (1usize, 2usize),
            (5, 3),
            (21, 4),
            (59, 5),
            (176, 6),
            (414, 7),
            (865, 8),
            (2774, 9),
            (4907, 10),
            (14081, 11),
            (25601, 12),
            (46081, 13),
        ];
        for (n, c) in first_n_with_c {
            assert_eq!(window_size(n), c, "n = {n}");
            if n > 1 {
                assert_eq!(window_size(n - 1), c - 1, "n = {}", n - 1);
            }
        }
        assert_eq!(window_size(usize::MAX), 16);
    }

    /// Past c = 8 the naive sum is too slow for tier-1, so the bases are
    /// known multiples `bᵢ·G` and the reference is `(Σ sᵢ·bᵢ)·G`.
    #[test]
    fn msm_matches_known_discrete_logs_across_the_larger_windows() {
        let mut rng = StdRng::seed_from_u64(35);
        let max = 46081;
        let logs = random_scalars(max, &mut rng);
        let g = G1Projective::generator();
        let bases = G1Projective::batch_to_affine(&fixed_base_batch_mul(&g, &logs));
        let scalars = random_scalars(max, &mut rng);
        for n in [
            2773usize, 2774, 4906, 4907, 14080, 14081, 25600, 25601, 46080, 46081,
        ] {
            let dot = logs[..n]
                .iter()
                .zip(&scalars[..n])
                .fold(Fr::ZERO, |acc, (b, s)| acc + *b * *s);
            assert_eq!(msm(&bases[..n], &scalars[..n]), g * dot, "n = {n}");
        }
    }

    /// Every window width, including those `window_size` only reaches at
    /// sizes far beyond a test (c = 15, 16) or never (c = 14), on an input
    /// with far fewer terms than buckets and on the edge-case table.
    #[test]
    fn every_window_width_matches_naive() {
        let mut rng = StdRng::seed_from_u64(36);
        let bases = random_bases::<G1>(40, &mut rng);
        let scalars = random_scalars(40, &mut rng);
        let expected = naive(&bases, &scalars);
        let edges = edge_case_table::<G1>(&mut rng);
        let p = bases[0];
        for c in 2..=16 {
            assert_eq!(
                pippenger(&bases, &scalars, c, par::cores()),
                expected,
                "c = {c}"
            );
            // 2^c − 1 recodes to (−1, +1): the low window holds P and −P.
            let (one, all_ones) = (Fr::ONE, Fr::from((1u64 << c) - 1));
            assert_eq!(
                pippenger(&[p, p], &[one, all_ones], c, par::cores()),
                p * (one + all_ones),
                "c = {c}, opposite digits"
            );
            for (i, (bases, scalars)) in edges.iter().enumerate() {
                assert_eq!(
                    pippenger(bases, scalars, c, par::cores()),
                    naive(bases, scalars),
                    "c = {c}, edge case {i}"
                );
            }
        }
    }

    /// Workers split the windows between them; the sum must not notice how.
    /// 8 workers over c = 16's 16 windows take two each, 3 take 6, 5 and 5,
    /// and at c = 2 (128 windows) every worker count divides unevenly or
    /// not at all.
    fn the_sum_does_not_depend_on_the_worker_count<C: CurveParams>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cases = edge_case_table::<C>(&mut rng);
        cases.push((
            random_bases::<C>(40, &mut rng),
            random_scalars(40, &mut rng),
        ));
        for (i, (bases, scalars)) in cases.iter().enumerate() {
            let expected = naive(bases, scalars);
            for c in [2, 5, 8, 16] {
                for workers in [1, 2, 3, 8] {
                    assert_eq!(
                        pippenger(bases, scalars, c, workers),
                        expected,
                        "case {i}, c = {c}, {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn the_sum_does_not_depend_on_the_worker_count_g1() {
        the_sum_does_not_depend_on_the_worker_count::<G1>(39);
    }

    #[test]
    fn the_sum_does_not_depend_on_the_worker_count_g2() {
        the_sum_does_not_depend_on_the_worker_count::<G2>(40);
    }

    #[test]
    fn msm_g2_matches_naive() {
        let mut rng = StdRng::seed_from_u64(32);
        for n in [40usize, 300] {
            let bases = random_bases::<G2>(n, &mut rng);
            let scalars = random_scalars(n, &mut rng);
            assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars), "n = {n}");
        }
        for (i, (bases, scalars)) in edge_case_table::<G2>(&mut rng).iter().enumerate() {
            assert_eq!(msm(bases, scalars), naive(bases, scalars), "edge case {i}");
        }
    }

    #[test]
    fn msm_handles_special_scalars() {
        let mut rng = StdRng::seed_from_u64(33);
        let bases = random_bases::<G1>(8, &mut rng);
        let mut scalars = vec![Fr::ZERO; 8];
        scalars[1] = Fr::ONE;
        scalars[2] = -Fr::ONE;
        scalars[3] = Fr::from(u64::MAX);
        assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars));
    }

    /// A 2-torsion point has y = 0, so doubling it must give infinity rather
    /// than divide by zero. BN254 has none, so this one is off-curve; the
    /// addition law never reads `b`.
    #[test]
    fn doubling_a_point_with_zero_y_gives_infinity() {
        let p = G1Affine::new_unchecked(Fq::from(7u64), Fq::ZERO);
        let q = G2Affine::new_unchecked(Fq2::from(7u64), Fq2::ZERO);
        let two = [Fr::ONE, Fr::ONE];
        assert_eq!(msm(&[p, p], &two), G1Projective::identity());
        assert_eq!(msm(&[q, q], &two), G2Projective::identity());
    }

    /// `Σ_w d_w · 2^(c·w)`, as (sum of the positive terms, sum of the
    /// negated negative terms).
    fn recompose(digits: &[i32], c: usize) -> (BigInt, BigInt) {
        let mut sums = (BigInt::zero(), BigInt::zero());
        for &d in digits.iter().rev() {
            for _ in 0..c {
                sums = (sums.0.shl1(), sums.1.shl1());
            }
            let magnitude = BigInt::from_limbs(&[u64::from(d.unsigned_abs())]);
            if d >= 0 {
                sums.0 = sums.0.add(&magnitude);
            } else {
                sums.1 = sums.1.add(&magnitude);
            }
        }
        sums
    }

    #[test]
    fn signed_digits_round_trip() {
        fn pow2(k: usize) -> [u64; 4] {
            let mut limbs = [0u64; 4];
            limbs[k / 64] = 1 << (k % 64);
            limbs
        }
        fn minus_one(mut limbs: [u64; 4]) -> [u64; 4] {
            for l in limbs.iter_mut() {
                let (v, borrow) = l.overflowing_sub(1);
                *l = v;
                if !borrow {
                    break;
                }
            }
            limbs
        }

        let mut scalars = vec![[0u64; 4], pow2(0), minus_one(Fr::MODULUS)];
        for k in 0..254 {
            scalars.push(pow2(k));
            scalars.push(minus_one(pow2(k)));
        }
        for c in 2..=16usize {
            // Every window exactly at 2^(c−1) (the largest digit kept
            // positive) and at 2^(c−1) + 1 (the smallest that borrows), as
            // far up as fits below 2^254.
            for low in [1u64 << (c - 1), (1 << (c - 1)) + 1] {
                let mut limbs = [0u64; 4];
                for w in 0..253 / c {
                    let bit = w * c;
                    limbs[bit / 64] |= low << (bit % 64);
                    if bit % 64 + c > 64 {
                        limbs[bit / 64 + 1] |= low >> (64 - bit % 64);
                    }
                }
                scalars.push(limbs);
            }
        }

        for c in 2..=16usize {
            let half = 1i32 << (c - 1);
            for limbs in &scalars {
                let mut digits = vec![i32::MIN; SCALAR_BITS.div_ceil(c)];
                let carry = signed_digits(limbs, c, |w, d| digits[w] = d);
                assert_eq!(carry, 0, "c = {c}, scalar {limbs:x?}");
                assert!(
                    digits.iter().all(|d| (-half..=half).contains(d)),
                    "c = {c}, scalar {limbs:x?}: {digits:?}"
                );
                let (pos, neg) = recompose(&digits, c);
                assert_eq!(
                    pos,
                    neg.add(&BigInt::from_limbs(limbs)),
                    "c = {c}, scalar {limbs:x?}"
                );
            }
        }
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

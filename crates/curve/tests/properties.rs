//! Property-based tests for the curve groups and the pairing.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use zkdet_curve::{msm, pairing, G1Affine, G1Projective, G2Affine, G2Projective};
use zkdet_field::{Field, Fr, PrimeField};

fn arb_fr() -> impl Strategy<Value = Fr> {
    any::<[u8; 64]>().prop_map(|b| Fr::from_bytes_wide(&b))
}

fn arb_g1() -> impl Strategy<Value = G1Projective> {
    arb_fr().prop_map(|s| G1Projective::generator() * s)
}

/// Recipe for one MSM term, `(base pool, negate base, scalar pool, random)`.
/// Both pools are small, so a short vector repeats bases, pairs a point with
/// its negative, and mixes in identity bases and zero scalars — the inputs
/// that steer bucket accumulation into its doubling and cancelling cases.
fn arb_msm_term() -> impl Strategy<Value = (u64, bool, u64, Fr)> {
    (0u64..6, any::<bool>(), 0u64..6, arb_fr())
}

/// `msm` against the term-by-term sum, over `$projective`'s group.
macro_rules! msm_matches_naive {
    ($terms:expr, $projective:ty) => {{
        let g = <$projective>::generator();
        let (bases, scalars): (Vec<_>, Vec<_>) = $terms
            .iter()
            .map(|&(base, negate, scalar, random)| {
                let base = match base {
                    0 => <$projective>::identity(),
                    1..=3 => g * Fr::from(base),
                    _ => g * random,
                };
                let scalar = match scalar {
                    0 => Fr::ZERO,
                    1..=2 => Fr::from(scalar),
                    3 => -Fr::from(scalar),
                    _ => random.square(),
                };
                (if negate { -base } else { base }.to_affine(), scalar)
            })
            .unzip();
        let naive = bases
            .iter()
            .zip(&scalars)
            .fold(<$projective>::identity(), |acc, (b, s)| acc + *b * *s);
        prop_assert_eq!(msm(&bases, &scalars), naive);
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn g1_addition_commutes(a in arb_g1(), b in arb_g1()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn g1_addition_associates(a in arb_g1(), b in arb_g1(), c in arb_g1()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn g1_scalar_mul_distributes_over_scalars(s in arb_fr(), t in arb_fr()) {
        let g = G1Projective::generator();
        prop_assert_eq!(g * (s + t), g * s + g * t);
    }

    #[test]
    fn g1_scalar_mul_distributes_over_points(a in arb_g1(), b in arb_g1(), s in arb_fr()) {
        prop_assert_eq!((a + b) * s, a * s + b * s);
    }

    #[test]
    fn affine_roundtrip(a in arb_g1()) {
        prop_assert_eq!(a.to_affine().to_projective(), a);
        prop_assert!(a.to_affine().is_on_curve());
    }

    #[test]
    fn neg_is_inverse(a in arb_g1()) {
        prop_assert_eq!(a + (-a), G1Projective::identity());
    }

    #[test]
    fn msm_is_linear(s in arb_fr(), t in arb_fr()) {
        let mut rng = StdRng::seed_from_u64(900);
        let p = G1Projective::random(&mut rng).to_affine();
        let q = G1Projective::random(&mut rng).to_affine();
        let lhs = msm(&[p, q], &[s, t]);
        let rhs = p.to_projective() * s + q.to_projective() * t;
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn msm_g1_matches_naive(terms in proptest::collection::vec(arb_msm_term(), 0..48)) {
        msm_matches_naive!(terms, G1Projective);
    }

    #[test]
    fn msm_g2_matches_naive(terms in proptest::collection::vec(arb_msm_term(), 0..24)) {
        msm_matches_naive!(terms, G2Projective);
    }
}

#[test]
fn pairing_bilinearity_exhaustive_small_scalars() {
    // e(aP, bQ) = e(P, Q)^{ab} for a grid of small scalars.
    let base = pairing(&G1Affine::generator(), &G2Affine::generator());
    for a in 1u64..=3 {
        for b in 1u64..=3 {
            let pa = (G1Projective::generator() * Fr::from(a)).to_affine();
            let qb = (G2Projective::generator() * Fr::from(b)).to_affine();
            assert_eq!(
                pairing(&pa, &qb),
                base.pow(&[a * b, 0, 0, 0]),
                "a={a}, b={b}"
            );
        }
    }
}

#[test]
fn pairing_inverse_relation() {
    // e(-P, Q) = e(P, Q)^{-1} = e(P, -Q)
    let p = G1Affine::generator();
    let q = G2Affine::generator();
    let e = pairing(&p, &q);
    let e_negp = pairing(&(-p), &q);
    let e_negq = pairing(&p, &(-G2Projective::generator()).to_affine());
    assert_eq!(e * e_negp, zkdet_field::Fq12::ONE);
    assert_eq!(e_negp, e_negq);
}

#[test]
fn subgroup_orders() {
    // r·P = O for random subgroup points of both groups.
    let mut rng = StdRng::seed_from_u64(901);
    let r_as_scalar = {
        // r ≡ 0 in Fr, so multiply by (r-1) and add once.
        let mut m = Fr::MODULUS;
        m[0] -= 1;
        Fr::from_canonical(m)
    };
    for _ in 0..5 {
        let p = G1Projective::random(&mut rng);
        assert_eq!(p * r_as_scalar + p, G1Projective::identity());
        let q = G2Projective::random(&mut rng);
        assert_eq!(q * r_as_scalar + q, G2Projective::identity());
    }
}

#[test]
fn mixed_addition_degenerate_chains() {
    // Long chains mixing identity, doubling and negation.
    let g = G1Projective::generator();
    let mut acc = G1Projective::identity();
    for i in 0..16u64 {
        acc = acc.add_mixed(&g.to_affine());
        assert_eq!(acc, g * Fr::from(i + 1));
    }
    for i in (0..16u64).rev() {
        acc = acc.add_mixed(&(-g).to_affine());
        assert_eq!(acc, g * Fr::from(i));
    }
    assert!(acc.is_identity());
}

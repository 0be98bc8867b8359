//! Property-based tests for the extension tower and field encodings.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use zkdet_field::{Field, Fq, Fq12, Fq2, Fq6, Fr, PrimeField};

fn arb_fq() -> impl Strategy<Value = Fq> {
    any::<[u8; 64]>().prop_map(|b| Fq::from_bytes_wide(&b))
}

fn arb_fq2() -> impl Strategy<Value = Fq2> {
    (arb_fq(), arb_fq()).prop_map(|(c0, c1)| Fq2::new(c0, c1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fq2_inverse_law(a in arb_fq2()) {
        if !a.is_zero() {
            prop_assert_eq!(a * a.inverse().unwrap(), Fq2::ONE);
        }
    }

    #[test]
    fn fq2_frobenius_is_homomorphism(a in arb_fq2(), b in arb_fq2()) {
        prop_assert_eq!((a * b).frobenius_map(), a.frobenius_map() * b.frobenius_map());
        prop_assert_eq!((a + b).frobenius_map(), a.frobenius_map() + b.frobenius_map());
    }

    #[test]
    fn fq2_norm_is_multiplicative(a in arb_fq2(), b in arb_fq2()) {
        prop_assert_eq!((a * b).norm(), a.norm() * b.norm());
    }

    #[test]
    fn nonresidue_mul_linear(a in arb_fq2(), b in arb_fq2()) {
        prop_assert_eq!(
            (a + b).mul_by_nonresidue(),
            a.mul_by_nonresidue() + b.mul_by_nonresidue()
        );
    }
}

#[test]
fn fq6_tower_consistency() {
    // (c0 + c1 v + c2 v²)·v matches mul_by_v across random samples.
    let mut rng = StdRng::seed_from_u64(910);
    for _ in 0..10 {
        let a = Fq6::random(&mut rng);
        let v = Fq6::new(Fq2::ZERO, Fq2::ONE, Fq2::ZERO);
        assert_eq!(a.mul_by_v(), a * v);
        // Double application: v² shift.
        assert_eq!(a.mul_by_v().mul_by_v(), a * v * v);
    }
}

#[test]
fn fq12_cyclotomic_behaviour() {
    // g = f^(p⁶-1)(p²+1) satisfies g^(p⁴-p²+1) ... too slow to check fully;
    // check that conj(g)·g = 1 (unit norm) instead.
    let mut rng = StdRng::seed_from_u64(911);
    let f = Fq12::random(&mut rng);
    let g = {
        let t = f.frobenius_map_pow(6) * f.inverse().unwrap();
        t.frobenius_map_pow(2) * t
    };
    assert_eq!(g.conjugate() * g, Fq12::ONE);
}

#[test]
fn scalar_field_montgomery_edges() {
    // Values around the modulus boundary.
    let p_minus_1 = {
        let mut m = Fr::MODULUS;
        m[0] -= 1;
        Fr::from_canonical(m)
    };
    assert_eq!(p_minus_1 + Fr::ONE, Fr::ZERO);
    assert_eq!(p_minus_1, -Fr::ONE);
    assert_eq!(p_minus_1 * p_minus_1, Fr::ONE); // (-1)² = 1
    assert_eq!(Fr::from_canonical(Fr::MODULUS), Fr::ZERO); // reduces
}

#[test]
fn wide_reduction_matches_manual() {
    // from_bytes_wide([x, 0…]) == from_bytes(x) for canonical low halves.
    let x = Fr::from(123_456_789u64);
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&x.to_bytes());
    assert_eq!(Fr::from_bytes_wide(&wide), x);
    // High half contributes ·2²⁵⁶ ≡ R mod p.
    let mut wide_hi = [0u8; 64];
    wide_hi[32] = 1; // value = 2^256
    let expected = Fr::from_canonical(Fr::R);
    assert_eq!(Fr::from_bytes_wide(&wide_hi), expected);
}

#[test]
fn display_and_debug_are_stable() {
    let x = Fr::from(255u64);
    assert!(format!("{x}").starts_with("0x"));
    assert!(format!("{x:?}").starts_with("Fr(0x"));
    let q = Fq::from(1u64);
    assert!(format!("{q:?}").starts_with("Fq(0x"));
}

#[test]
fn sqrt_edge_cases() {
    assert_eq!(Fr::ZERO.sqrt(), Some(Fr::ZERO));
    assert_eq!(Fr::ONE.sqrt().map(|r| r.square()), Some(Fr::ONE));
    let four = Fr::from(4u64);
    let r = four.sqrt().unwrap();
    assert!(r == Fr::from(2u64) || r == -Fr::from(2u64));
}

//! Bit decomposition, range checks and comparisons.

use zkdet_field::{Field, Fr, PrimeField};
use zkdet_plonk::{CircuitBuilder, Variable};

/// Decomposes `x` into `k` little-endian boolean variables and constrains
/// `x = Σ bitᵢ·2ⁱ` (which is itself the range proof `x < 2ᵏ`).
///
/// A `k` wider than the 256-bit canonical form witnesses the extra bits as
/// zero, so every field element satisfies it.
///
/// # Panics
///
/// Debug-panics if the witness value does not fit `k` bits.
pub fn decompose(b: &mut CircuitBuilder, x: Variable, k: usize) -> Vec<Variable> {
    let limbs = b.value(x).to_canonical();
    let bit_val = |i: usize| limbs.get(i / 64).is_some_and(|l| (l >> (i % 64)) & 1 == 1);
    debug_assert!(
        (k..256).all(|i| !bit_val(i)),
        "decompose: witness exceeds {k} bits"
    );
    let bits: Vec<Variable> = (0..k)
        .map(|i| {
            let bit = b.alloc(if bit_val(i) { Fr::ONE } else { Fr::ZERO });
            b.assert_bool(bit);
            bit
        })
        .collect();
    // Accumulate: acc_{i+1} = acc_i + 2^i·bit_i, then acc == x.
    let acc = recompose(b, &bits);
    b.assert_equal(acc, x);
    bits
}

/// Recomposes little-endian bits into a field element `Σ bitᵢ·2ⁱ`.
pub fn recompose(b: &mut CircuitBuilder, bits: &[Variable]) -> Variable {
    let mut acc = b.zero();
    let mut pow = Fr::ONE;
    for bit in bits {
        acc = b.lc(acc, Fr::ONE, *bit, pow, Fr::ZERO);
        pow = pow.double();
    }
    acc
}

/// Range proof: constrains `x ∈ [0, 2ᵏ)`.
pub fn assert_range(b: &mut CircuitBuilder, x: Variable, k: usize) {
    let _ = decompose(b, x, k);
}

/// Constrains `x < bound` for a constant bound with `bound ≤ 2ᵏ`,
/// by range-proving `bound - 1 - x` in `[0, 2ᵏ)`.
///
/// Sound whenever `x` is also known to fit `k` bits (callers decompose
/// first or get it from a previous range check).
pub fn assert_lt_const(b: &mut CircuitBuilder, x: Variable, bound: Fr, k: usize) {
    let diff = b.lc(x, -Fr::ONE, b.zero(), Fr::ZERO, bound - Fr::ONE);
    assert_range(b, diff, k);
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use zkdet_kzg::Srs;
    use zkdet_plonk::Plonk;

    fn prove_roundtrip(circuit: zkdet_plonk::CompiledCircuit, publics: &[Fr]) -> bool {
        let mut rng = StdRng::seed_from_u64(42);
        let srs = Srs::universal_setup(circuit.rows() + 8, &mut rng);
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        match Plonk::prove(&pk, &circuit, &mut rng) {
            Ok(proof) => Plonk::verify(&vk, publics, &proof),
            Err(_) => false,
        }
    }

    #[test]
    fn decompose_and_recompose() {
        let mut b = CircuitBuilder::new();
        let x = b.alloc(Fr::from(0b1011_0110u64));
        let bits = decompose(&mut b, x, 8);
        assert_eq!(b.value(bits[0]), Fr::ZERO);
        assert_eq!(b.value(bits[1]), Fr::ONE);
        assert_eq!(b.value(bits[7]), Fr::ONE);
        let y = recompose(&mut b, &bits);
        assert_eq!(b.value(y), Fr::from(0b1011_0110u64));
        assert!(b.build().is_satisfied());
    }

    #[test]
    fn range_check_proves() {
        let mut b = CircuitBuilder::new();
        let x = b.public_input(Fr::from(200u64));
        assert_range(&mut b, x, 8);
        let c = b.build();
        assert!(prove_roundtrip(c, &[Fr::from(200u64)]));

        // Wider than the canonical form: bits past 256 read as zero and
        // even the largest field element is in range.
        let mut b = CircuitBuilder::new();
        let x = b.public_input(-Fr::ONE);
        assert_range(&mut b, x, 300);
        let c = b.build();
        assert!(prove_roundtrip(c, &[-Fr::ONE]));
    }

    #[test]
    fn out_of_range_witness_cannot_prove() {
        // Build the satisfied structure, then corrupt the witness so the
        // claimed value exceeds the range; the prover must reject.
        let mut b = CircuitBuilder::new();
        let x = b.public_input(Fr::from(5u64));
        let bits = decompose(&mut b, x, 4);
        let circuit = {
            let mut c = b.build();
            // Flip the witness of bit 0 (1 → 0): recomposition mismatches.
            c.tamper_assignment(bits[0].index(), Fr::ZERO);
            c
        };
        assert!(!circuit.is_satisfied() || !prove_roundtrip(circuit, &[Fr::from(5u64)]));
    }

    #[test]
    fn lt_const_boundaries() {
        // 9 < 10 proves; 10 < 10 must not be satisfiable.
        let mut b = CircuitBuilder::new();
        let x = b.alloc(Fr::from(9u64));
        assert_range(&mut b, x, 4);
        assert_lt_const(&mut b, x, Fr::from(10u64), 4);
        assert!(b.build().is_satisfied());
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn lt_const_rejects_equal_in_debug() {
        let mut b = CircuitBuilder::new();
        let x = b.alloc(Fr::from(10u64));
        assert_lt_const(&mut b, x, Fr::from(10u64), 4);
    }

    #[test]
    fn zero_bits_edge() {
        let mut b = CircuitBuilder::new();
        let x = b.alloc(Fr::ZERO);
        let bits = decompose(&mut b, x, 1);
        assert_eq!(bits.len(), 1);
        assert!(b.build().is_satisfied());
    }
}

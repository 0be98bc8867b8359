//! A deterministic proof-mutation engine for the Byzantine harness.
//!
//! Every mutator takes the canonical serialization of an artefact and
//! produces hostile variants: single-byte corruption sweeping the whole
//! buffer, structural corruption aimed at the trust-boundary decoders
//! (point swaps, non-canonical scalars, identity / off-curve points), and
//! framing corruption (truncation, extension). The engine itself never
//! touches curve types — it works on raw bytes, exactly like an attacker
//! on the wire.

use rand::{rngs::StdRng, Rng, SeedableRng};

/// One way to corrupt a serialized artefact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// XOR the byte at `offset` with the non-zero `mask`.
    ByteXor {
        /// Byte position to corrupt.
        offset: usize,
        /// Non-zero XOR mask.
        mask: u8,
    },
    /// Swap two disjoint equal-length regions (e.g. two serialized points).
    SwapRegions {
        /// Start of the first region.
        a: usize,
        /// Start of the second region.
        b: usize,
        /// Region length.
        len: usize,
    },
    /// Overwrite the region starting at `offset` with `bytes`.
    Overwrite {
        /// Start of the overwritten region.
        offset: usize,
        /// Replacement bytes (must fit inside the buffer).
        bytes: Vec<u8>,
    },
    /// Keep only the first `len` bytes.
    Truncate {
        /// New (shorter) length.
        len: usize,
    },
    /// Append `extra` zero bytes past the canonical end.
    Extend {
        /// Number of trailing bytes to add.
        extra: usize,
    },
}

impl Mutation {
    /// Applies this mutation to `input`, returning the hostile variant.
    ///
    /// Out-of-range offsets are clamped so a mutation list generated for
    /// one buffer size can never panic when replayed against another.
    pub fn apply(&self, input: &[u8]) -> Vec<u8> {
        let mut out = input.to_vec();
        match self {
            Mutation::ByteXor { offset, mask } => {
                if let Some(b) = out.get_mut(*offset) {
                    *b ^= mask | 1; // force non-zero: always a real change
                }
            }
            Mutation::SwapRegions { a, b, len } => {
                let (a, b, len) = (*a, *b, *len);
                if a + len <= out.len() && b + len <= out.len() {
                    for i in 0..len {
                        out.swap(a + i, b + i);
                    }
                }
            }
            Mutation::Overwrite { offset, bytes } => {
                if offset + bytes.len() <= out.len() {
                    out[*offset..offset + bytes.len()].copy_from_slice(bytes);
                }
            }
            Mutation::Truncate { len } => {
                out.truncate(*len);
            }
            Mutation::Extend { extra } => {
                out.extend(std::iter::repeat_n(0u8, *extra));
            }
        }
        out
    }
}

/// A deterministic stream of `n` single-byte XOR mutations over a buffer
/// of `len` bytes.
///
/// The first `min(n, len)` mutations sweep every offset in order, so full
/// positional coverage is guaranteed whenever `n ≥ len`; the remainder hit
/// random offsets with random non-zero masks. The same `(len, n, seed)`
/// triple always yields the same mutations.
pub fn single_byte_mutations(len: usize, n: usize, seed: u64) -> Vec<Mutation> {
    assert!(len > 0, "cannot mutate an empty buffer");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let offset = if i < len { i } else { rng.gen_range(0..len) };
            let mask = rng.gen_range(1..=255u64) as u8;
            Mutation::ByteXor { offset, mask }
        })
        .collect()
}

/// Structural mutations targeting the canonical PLONK proof layout
/// (9 uncompressed G₁ points of `point_len` bytes, then 6 scalars of
/// `scalar_len` bytes).
///
/// Covers the decoder branches byte-fuzzing is unlikely to reach cleanly:
/// well-formed-but-wrong artefacts (swapped points, identity points) that
/// must fail *verification*, and malformed ones (off-curve point,
/// non-canonical scalar, bad framing) that must fail *decoding*.
pub fn structured_proof_mutations(
    point_len: usize,
    num_points: usize,
    scalar_len: usize,
    num_scalars: usize,
) -> Vec<Mutation> {
    let total = num_points * point_len + num_scalars * scalar_len;
    let mut out = Vec::new();

    // Swap every adjacent pair of points (decodes fine, must not verify).
    for i in 0..num_points - 1 {
        out.push(Mutation::SwapRegions {
            a: i * point_len,
            b: (i + 1) * point_len,
            len: point_len,
        });
    }
    // Swap the first and last scalar.
    out.push(Mutation::SwapRegions {
        a: num_points * point_len,
        b: total - scalar_len,
        len: scalar_len,
    });
    // Each point slot → the identity encoding (flag 0, zero padding):
    // valid wire format, hostile semantics.
    for i in 0..num_points {
        out.push(Mutation::Overwrite {
            offset: i * point_len,
            bytes: vec![0u8; point_len],
        });
    }
    // Each point slot → flag 1 with garbage coordinates (off-curve).
    for i in 0..num_points {
        let mut bytes = vec![0u8; point_len];
        bytes[0] = 1;
        bytes[1] = 2; // x = 2, y = 0 is not on y² = x³ + 3
        out.push(Mutation::Overwrite {
            offset: i * point_len,
            bytes,
        });
    }
    // Each scalar slot → 0xff…ff (≥ r, non-canonical, must be rejected).
    for j in 0..num_scalars {
        out.push(Mutation::Overwrite {
            offset: num_points * point_len + j * scalar_len,
            bytes: vec![0xff; scalar_len],
        });
    }
    // Framing: every truncation boundary that matters, plus extensions.
    out.push(Mutation::Truncate { len: 0 });
    out.push(Mutation::Truncate { len: 1 });
    out.push(Mutation::Truncate { len: point_len });
    out.push(Mutation::Truncate { len: total - 1 });
    out.push(Mutation::Extend { extra: 1 });
    out.push(Mutation::Extend { extra: scalar_len });
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn byte_xor_always_changes_exactly_one_byte() {
        let input = vec![0u8; 64];
        for m in single_byte_mutations(64, 200, 7) {
            let out = m.apply(&input);
            assert_eq!(out.len(), input.len());
            let diff = out.iter().zip(&input).filter(|(a, b)| a != b).count();
            assert_eq!(diff, 1, "{m:?} must flip exactly one byte");
        }
    }

    #[test]
    fn sweep_covers_every_offset() {
        let n = 40;
        let muts = single_byte_mutations(n, n, 3);
        for (i, m) in muts.iter().enumerate() {
            match m {
                Mutation::ByteXor { offset, .. } => assert_eq!(*offset, i),
                other => panic!("unexpected mutation {other:?}"),
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        assert_eq!(
            single_byte_mutations(100, 50, 42),
            single_byte_mutations(100, 50, 42)
        );
        assert_ne!(
            single_byte_mutations(100, 50, 42),
            single_byte_mutations(100, 50, 43)
        );
    }

    #[test]
    fn framing_mutations_change_length() {
        let input = vec![1u8; 10];
        assert_eq!(Mutation::Truncate { len: 4 }.apply(&input).len(), 4);
        assert_eq!(Mutation::Extend { extra: 3 }.apply(&input).len(), 13);
        let swapped = Mutation::SwapRegions { a: 0, b: 5, len: 5 }.apply(&input);
        assert_eq!(swapped, input); // all-equal bytes: swap is a no-op
    }
}

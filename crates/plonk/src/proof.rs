//! The PLONK proof object and its canonical wire encoding.

use zkdet_curve::{G1Affine, WireError, G1_UNCOMPRESSED_BYTES};
use zkdet_field::{Field, Fr, PrimeField};
use zkdet_kzg::KzgCommitment;

/// A PLONK proof: exactly 9 G₁ points and 6 scalar-field elements
/// (the constant size reported in §VI-B3 of the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proof {
    /// Wire commitments `[a], [b], [c]`.
    pub a: KzgCommitment,
    pub b: KzgCommitment,
    pub c: KzgCommitment,
    /// Permutation-product commitment `[z]`.
    pub z: KzgCommitment,
    /// Split quotient commitments `[t_lo], [t_mid], [t_hi]`.
    pub t_lo: KzgCommitment,
    pub t_mid: KzgCommitment,
    pub t_hi: KzgCommitment,
    /// Batched opening proof at `ζ`.
    pub w_zeta: KzgCommitment,
    /// Opening proof for `z` at `ζω`.
    pub w_zeta_omega: KzgCommitment,
    /// Evaluations `ā, b̄, c̄, σ̄₁, σ̄₂, z̄_ω`.
    pub a_eval: Fr,
    pub b_eval: Fr,
    pub c_eval: Fr,
    pub sigma1_eval: Fr,
    pub sigma2_eval: Fr,
    pub z_omega_eval: Fr,
}

impl Proof {
    /// Serialized size in bytes (uncompressed points): 9·65 + 6·32.
    pub const SIZE_BYTES: usize = 9 * 65 + 6 * 32;

    /// Number of G₁ elements in a proof.
    pub const NUM_G1: usize = 9;

    /// Number of field elements in a proof.
    pub const NUM_FR: usize = 6;

    /// The proof's G₁ points, in wire order.
    fn g1_points(&self) -> [&KzgCommitment; Self::NUM_G1] {
        [
            &self.a,
            &self.b,
            &self.c,
            &self.z,
            &self.t_lo,
            &self.t_mid,
            &self.t_hi,
            &self.w_zeta,
            &self.w_zeta_omega,
        ]
    }

    /// The proof's scalar evaluations, in wire order.
    fn fr_elements(&self) -> [Fr; Self::NUM_FR] {
        [
            self.a_eval,
            self.b_eval,
            self.c_eval,
            self.sigma1_eval,
            self.sigma2_eval,
            self.z_omega_eval,
        ]
    }

    /// Canonical wire encoding: the 9 G₁ points uncompressed (65 bytes
    /// each, in the order `a, b, c, z, t_lo, t_mid, t_hi, w_ζ, w_ζω`)
    /// followed by the 6 evaluations as canonical little-endian scalars.
    /// Exactly [`Proof::SIZE_BYTES`] long.
    pub fn to_bytes(&self) -> [u8; Self::SIZE_BYTES] {
        let mut out = [0u8; Self::SIZE_BYTES];
        let mut off = 0;
        for p in self.g1_points() {
            out[off..off + G1_UNCOMPRESSED_BYTES].copy_from_slice(&p.0.to_uncompressed());
            off += G1_UNCOMPRESSED_BYTES;
        }
        for s in self.fr_elements() {
            out[off..off + 32].copy_from_slice(&s.to_bytes());
            off += 32;
        }
        out
    }

    /// Decodes a proof received over a trust boundary.
    ///
    /// Accepts exactly [`Proof::SIZE_BYTES`] bytes (trailing data is a
    /// [`WireError::BadLength`]); every point is checked on-curve and
    /// every scalar for canonical encoding, so
    /// `to_bytes(from_bytes(b)?) == b` for all accepted inputs.
    pub fn from_bytes(bytes: &[u8]) -> Result<Proof, WireError> {
        if bytes.len() != Self::SIZE_BYTES {
            return Err(WireError::BadLength {
                expected: Self::SIZE_BYTES,
                got: bytes.len(),
            });
        }
        let mut off = 0;
        let mut points = [G1Affine::identity(); Self::NUM_G1];
        for p in points.iter_mut() {
            *p = G1Affine::from_uncompressed(&bytes[off..off + G1_UNCOMPRESSED_BYTES])?;
            off += G1_UNCOMPRESSED_BYTES;
        }
        let mut scalars = [Fr::ZERO; Self::NUM_FR];
        for s in scalars.iter_mut() {
            let mut arr = [0u8; 32];
            arr.copy_from_slice(&bytes[off..off + 32]);
            *s = Fr::from_bytes(&arr).ok_or(WireError::NonCanonical("proof scalar"))?;
            off += 32;
        }
        let [a, b, c, z, t_lo, t_mid, t_hi, w_zeta, w_zeta_omega] =
            points.map(KzgCommitment);
        let [a_eval, b_eval, c_eval, sigma1_eval, sigma2_eval, z_omega_eval] = scalars;
        Ok(Proof {
            a,
            b,
            c,
            z,
            t_lo,
            t_mid,
            t_hi,
            w_zeta,
            w_zeta_omega,
            a_eval,
            b_eval,
            c_eval,
            sigma1_eval,
            sigma2_eval,
            z_omega_eval,
        })
    }
}

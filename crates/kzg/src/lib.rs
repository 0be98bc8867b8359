//! KZG polynomial commitments over BN254 with a universal SRS.
//!
//! ZKDET's PLONK instantiation needs a *universal, updatable* structured
//! reference string (§VI-B1). The paper uses the Perpetual Powers-of-Tau
//! ceremony transcript; this reproduction generates the same object — the
//! monomial basis `(τ⁰G₁, τ¹G₁, …, τⁿG₁, G₂, τG₂)` — from locally sampled
//! randomness and then drops `τ`. The ceremony only distributes trust;
//! the resulting SRS and every cost measured in Fig. 5 are identical in
//! structure.
//!
//! # Example
//!
//! ```rust
//! use zkdet_kzg::Srs;
//! use zkdet_poly::DensePolynomial;
//! use zkdet_field::Fr;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let srs = Srs::universal_setup(32, &mut rng);
//! let p = DensePolynomial::from_coefficients(vec![Fr::from(3u64), Fr::from(1u64)]);
//! let commitment = srs.commit(&p);
//! let z = Fr::from(7u64);
//! let (value, proof) = srs.open(&p, &z);
//! assert_eq!(value, Fr::from(10u64)); // 3 + 7
//! assert!(srs.verify(&commitment, &z, &value, &proof));
//! ```

#![forbid(unsafe_code)]

use rand::Rng;
use zkdet_curve::{
    fixed_base_batch_mul, msm, multi_pairing, G1Affine, G1Projective, G2Affine, G2Projective,
    WireError, G1_UNCOMPRESSED_BYTES, G2_UNCOMPRESSED_BYTES,
};
use zkdet_field::{Field, Fq12, Fr};
use zkdet_poly::DensePolynomial;

/// Typed failures of KZG operations on possibly-hostile inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KzgError {
    /// A polynomial exceeds the SRS's committable degree.
    DegreeTooLarge {
        /// Degree of the polynomial being committed.
        degree: usize,
        /// Maximum degree the SRS supports.
        max: usize,
    },
    /// The SRS has no G1 powers at all.
    EmptySrs,
    /// A point or field element failed wire-format validation.
    Wire(WireError),
    /// The SRS is well-formed as bytes but structurally inconsistent
    /// (wrong generator, powers not a τ-geometric sequence, …).
    InvalidStructure(&'static str),
}

impl core::fmt::Display for KzgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KzgError::DegreeTooLarge { degree, max } => {
                write!(f, "polynomial degree {degree} exceeds SRS degree {max}")
            }
            KzgError::EmptySrs => write!(f, "SRS has no G1 powers"),
            KzgError::Wire(e) => write!(f, "SRS wire format: {e}"),
            KzgError::InvalidStructure(what) => write!(f, "SRS inconsistent: {what}"),
        }
    }
}

impl std::error::Error for KzgError {}

impl From<WireError> for KzgError {
    fn from(e: WireError) -> Self {
        KzgError::Wire(e)
    }
}

/// A KZG commitment — a single G1 point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KzgCommitment(pub G1Affine);

/// A KZG opening proof — the committed witness quotient `(p(X)-p(z))/(X-z)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KzgProof(pub G1Affine);

/// The universal structured reference string (monomial basis powers of τ).
#[derive(Clone, Debug)]
pub struct Srs {
    /// `τⁱ·G₁` for `i = 0..=max_degree`.
    pub powers_g1: Vec<G1Affine>,
    /// `G₂`.
    pub g2: G2Affine,
    /// `τ·G₂`.
    pub tau_g2: G2Affine,
}

impl Srs {
    /// Runs the universal setup for polynomials of degree up to `max_degree`.
    ///
    /// The toxic waste `τ` is sampled from `rng` and dropped before this
    /// function returns (ceremony substitute — see crate docs).
    pub fn universal_setup<R: Rng + ?Sized>(max_degree: usize, rng: &mut R) -> Srs {
        let mut span = zkdet_telemetry::span("kzg.setup");
        span.record("degree", max_degree as u64);
        let tau = Fr::random(rng);
        let mut powers = Vec::with_capacity(max_degree + 1);
        let mut acc = Fr::ONE;
        for _ in 0..=max_degree {
            powers.push(acc);
            acc *= tau;
        }
        let g1 = G1Projective::generator();
        let powers_g1 =
            G1Projective::batch_to_affine(&fixed_base_batch_mul(&g1, &powers));
        Srs {
            powers_g1,
            g2: G2Affine::generator(),
            tau_g2: (G2Projective::generator() * tau).to_affine(),
        }
    }

    /// The maximum committable polynomial degree.
    ///
    /// An SRS with no powers at all (only constructible by deserializing
    /// hostile bytes) reports degree 0; [`Srs::validate`] rejects it.
    pub fn max_degree(&self) -> usize {
        self.powers_g1.len().saturating_sub(1)
    }

    /// Commits to a polynomial: `C = p(τ)·G₁` via MSM over the SRS powers.
    ///
    /// # Panics
    ///
    /// Panics if `p.degree() > self.max_degree()`. Use
    /// [`Srs::try_commit`] where the degree is not statically guaranteed.
    // Panicking convenience wrapper for trusted, degree-checked callers;
    // untrusted paths go through `try_commit`.
    #[allow(clippy::panic)]
    pub fn commit(&self, p: &DensePolynomial) -> KzgCommitment {
        match self.try_commit(p) {
            Ok(c) => c,
            // zkdet-analyzer: allow(library-panic) documented panicking wrapper; untrusted callers use try_commit
            Err(e) => panic!("{e}"),
        }
    }

    /// Commits to a polynomial, reporting degree overflow as a typed error
    /// instead of panicking.
    pub fn try_commit(&self, p: &DensePolynomial) -> Result<KzgCommitment, KzgError> {
        if zkdet_telemetry::is_enabled() {
            zkdet_telemetry::counter_add("zkdet.kzg.commit.calls", 1);
            zkdet_telemetry::observe("zkdet.kzg.commit.degree", p.degree() as u64);
        }
        if p.is_zero() {
            return Ok(KzgCommitment(G1Affine::identity()));
        }
        if p.coefficients().len() > self.powers_g1.len() {
            return Err(KzgError::DegreeTooLarge {
                degree: p.degree(),
                max: self.max_degree(),
            });
        }
        let bases = &self.powers_g1[..p.coefficients().len()];
        Ok(KzgCommitment(msm(bases, p.coefficients()).to_affine()))
    }

    /// Opens `p` at `z`: returns `(p(z), W)` with `W = [(p(X)-p(z))/(X-z)]₁`.
    pub fn open(&self, p: &DensePolynomial, z: &Fr) -> (Fr, KzgProof) {
        zkdet_telemetry::counter_add("zkdet.kzg.open.calls", 1);
        let (quotient, value) = p.divide_by_linear(*z);
        (value, KzgProof(self.commit(&quotient).0))
    }

    /// Verifies a single opening: `e(C - y·G₁, G₂) = e(W, τ·G₂ - z·G₂)`.
    pub fn verify(&self, c: &KzgCommitment, z: &Fr, y: &Fr, proof: &KzgProof) -> bool {
        zkdet_telemetry::counter_add("zkdet.kzg.verify.calls", 1);
        // Rearranged to one multi-pairing: e(C - yG₁ + zW, G₂)·e(-W, τG₂) = 1
        let lhs =
            (c.0.to_projective() - G1Projective::generator() * *y + proof.0 * *z).to_affine();
        multi_pairing(&[(lhs, self.g2), ((-proof.0.to_projective()).to_affine(), self.tau_g2)])
            == Fq12::ONE
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn setup(n: usize) -> (Srs, StdRng) {
        let mut rng = StdRng::seed_from_u64(110);
        let srs = Srs::universal_setup(n, &mut rng);
        (srs, rng)
    }

    #[test]
    fn commit_open_verify_roundtrip() {
        let (srs, mut rng) = setup(32);
        let p = DensePolynomial::random(20, &mut rng);
        let c = srs.commit(&p);
        let z = Fr::random(&mut rng);
        let (y, w) = srs.open(&p, &z);
        assert_eq!(y, p.evaluate(&z));
        assert!(srs.verify(&c, &z, &y, &w));
    }

    #[test]
    fn verify_rejects_wrong_value() {
        let (srs, mut rng) = setup(16);
        let p = DensePolynomial::random(10, &mut rng);
        let c = srs.commit(&p);
        let z = Fr::random(&mut rng);
        let (y, w) = srs.open(&p, &z);
        assert!(!srs.verify(&c, &z, &(y + Fr::ONE), &w));
    }

    #[test]
    fn verify_rejects_wrong_commitment() {
        let (srs, mut rng) = setup(16);
        let p = DensePolynomial::random(10, &mut rng);
        let q = DensePolynomial::random(10, &mut rng);
        let cq = srs.commit(&q);
        let z = Fr::random(&mut rng);
        let (y, w) = srs.open(&p, &z);
        assert!(!srs.verify(&cq, &z, &y, &w));
    }

    #[test]
    fn verify_rejects_wrong_point() {
        let (srs, mut rng) = setup(16);
        let p = DensePolynomial::random(10, &mut rng);
        let c = srs.commit(&p);
        let z = Fr::random(&mut rng);
        let (y, w) = srs.open(&p, &z);
        assert!(!srs.verify(&c, &(z + Fr::ONE), &y, &w));
    }

    #[test]
    fn commitment_is_homomorphic() {
        let (srs, mut rng) = setup(16);
        let p = DensePolynomial::random(8, &mut rng);
        let q = DensePolynomial::random(8, &mut rng);
        let sum = &p + &q;
        let cp = srs.commit(&p).0.to_projective();
        let cq = srs.commit(&q).0.to_projective();
        assert_eq!(srs.commit(&sum).0, (cp + cq).to_affine());
    }

    #[test]
    fn zero_and_constant_polynomials() {
        let (srs, mut rng) = setup(8);
        let zero = DensePolynomial::zero();
        let c = srs.commit(&zero);
        assert!(c.0.is_identity());
        let z = Fr::random(&mut rng);
        let (y, w) = srs.open(&zero, &z);
        assert_eq!(y, Fr::ZERO);
        assert!(srs.verify(&c, &z, &y, &w));

        let konst = DensePolynomial::constant(Fr::from(9u64));
        let c = srs.commit(&konst);
        let (y, w) = srs.open(&konst, &z);
        assert_eq!(y, Fr::from(9u64));
        assert!(srs.verify(&c, &z, &y, &w));
    }

    #[test]
    fn max_degree_enforced() {
        let (srs, mut rng) = setup(4);
        let p = DensePolynomial::random(4, &mut rng);
        let _ = srs.commit(&p); // exactly max degree is fine
        let too_big = DensePolynomial::random(5, &mut rng);
        assert!(std::panic::catch_unwind(|| srs.commit(&too_big)).is_err());
        assert_eq!(
            srs.try_commit(&too_big),
            Err(KzgError::DegreeTooLarge { degree: 5, max: 4 })
        );
    }

    #[test]
    fn srs_wire_roundtrip_and_validate() {
        let (srs, mut rng) = setup(6);
        let bytes = srs.to_bytes();
        let back = Srs::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.powers_g1, srs.powers_g1);
        assert_eq!(back.g2, srs.g2);
        assert_eq!(back.tau_g2, srs.tau_g2);
        back.validate(Fr::random(&mut rng)).expect("honest SRS validates");
    }

    #[test]
    fn srs_from_bytes_rejects_hostile_input() {
        let (srs, _) = setup(4);
        let bytes = srs.to_bytes();

        // Truncation / extension.
        assert!(Srs::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(Srs::from_bytes(&extended).is_err());
        assert!(Srs::from_bytes(&[]).is_err());

        // Absurd count must fail cleanly, not OOM.
        let mut huge = bytes.clone();
        huge[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Srs::from_bytes(&huge).is_err());

        // Zero powers.
        let mut empty = Srs {
            powers_g1: vec![],
            g2: srs.g2,
            tau_g2: srs.tau_g2,
        }
        .to_bytes();
        assert!(matches!(Srs::from_bytes(&empty), Err(KzgError::EmptySrs)));
        empty.clear();

        // Off-curve power: corrupt a y-coordinate byte of powers_g1[1].
        let mut off_curve = bytes.clone();
        let y_off = 8 + G1_UNCOMPRESSED_BYTES + 40;
        off_curve[y_off] ^= 1;
        assert!(matches!(
            Srs::from_bytes(&off_curve),
            Err(KzgError::Wire(
                WireError::OffCurve(_) | WireError::NonCanonical(_)
            ))
        ));
    }

    #[test]
    fn srs_validate_rejects_substitution() {
        let (srs, mut rng) = setup(6);
        let r = Fr::random(&mut rng);

        // Swapped τ·G₂ (breaks the geometric-sequence pairing check).
        let mut bad = srs.clone();
        bad.tau_g2 = (G2Projective::generator() * Fr::from(123u64)).to_affine();
        assert!(matches!(
            bad.validate(r),
            Err(KzgError::InvalidStructure(_))
        ));

        // A tampered middle power.
        let mut bad = srs.clone();
        bad.powers_g1[3] = (G1Projective::generator() * Fr::from(7u64)).to_affine();
        assert!(matches!(
            bad.validate(r),
            Err(KzgError::InvalidStructure(_))
        ));

        // Identity smuggled in as a power.
        let mut bad = srs.clone();
        bad.powers_g1[2] = G1Affine::identity();
        assert_eq!(
            bad.validate(r),
            Err(KzgError::InvalidStructure("identity among G1 powers"))
        );

        // Wrong first power.
        let mut bad = srs;
        bad.powers_g1[0] = (G1Projective::generator() * Fr::from(2u64)).to_affine();
        assert_eq!(
            bad.validate(r),
            Err(KzgError::InvalidStructure(
                "powers_g1[0] is not the generator"
            ))
        );
    }
}

impl Srs {
    /// Canonical wire encoding: `len(powers_g1)` as a little-endian `u64`,
    /// each G1 power uncompressed (65 bytes), then `g2` and `τ·G₂`
    /// uncompressed (129 bytes each).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            8 + self.powers_g1.len() * G1_UNCOMPRESSED_BYTES + 2 * G2_UNCOMPRESSED_BYTES,
        );
        out.extend_from_slice(&(self.powers_g1.len() as u64).to_le_bytes());
        for p in &self.powers_g1 {
            out.extend_from_slice(&p.to_uncompressed());
        }
        out.extend_from_slice(&self.g2.to_uncompressed());
        out.extend_from_slice(&self.tau_g2.to_uncompressed());
        out
    }

    /// Decodes an SRS received over a trust boundary.
    ///
    /// Every G1 power is checked on-curve, `g2`/`τ·G₂` additionally for
    /// order-`r` subgroup membership, all coordinates for canonical
    /// encoding, and the input for exact length (no trailing bytes). This
    /// is *format* validation; consistency of the powers as a τ-geometric
    /// sequence is checked separately by [`Srs::validate`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Srs, KzgError> {
        if bytes.len() < 8 {
            return Err(KzgError::Wire(WireError::BadLength {
                expected: 8,
                got: bytes.len(),
            }));
        }
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(&bytes[..8]);
        let count = u64::from_le_bytes(len8);
        // Reject absurd counts before attempting allocation (a hostile
        // 2⁶⁴ count must not trigger an OOM abort).
        let count: usize = usize::try_from(count)
            .ok()
            .filter(|c| {
                c.checked_mul(G1_UNCOMPRESSED_BYTES)
                    .and_then(|g1| g1.checked_add(8 + 2 * G2_UNCOMPRESSED_BYTES))
                    == Some(bytes.len())
            })
            .ok_or(KzgError::Wire(WireError::BadLength {
                expected: 8 + 2 * G2_UNCOMPRESSED_BYTES,
                got: bytes.len(),
            }))?;
        if count == 0 {
            return Err(KzgError::EmptySrs);
        }
        let mut powers_g1 = Vec::with_capacity(count);
        let mut off = 8;
        for _ in 0..count {
            powers_g1.push(G1Affine::from_uncompressed(
                &bytes[off..off + G1_UNCOMPRESSED_BYTES],
            )?);
            off += G1_UNCOMPRESSED_BYTES;
        }
        let g2 = G2Affine::from_uncompressed(&bytes[off..off + G2_UNCOMPRESSED_BYTES])?;
        off += G2_UNCOMPRESSED_BYTES;
        let tau_g2 = G2Affine::from_uncompressed(&bytes[off..off + G2_UNCOMPRESSED_BYTES])?;
        Ok(Srs {
            powers_g1,
            g2,
            tau_g2,
        })
    }

    /// Structural validation of a (format-valid) SRS against hostile
    /// substitution: the first power must be the G1 generator, `g2` the G2
    /// generator, no power may be the identity, and the powers must form a
    /// τ-geometric sequence consistent with `τ·G₂` — checked with one
    /// batched pairing equation folded by the caller-supplied random
    /// factor `r` (`e(Σ rⁱ·P_{i+1}, G₂) = e(Σ rⁱ·P_i, τ·G₂)`).
    ///
    /// `r` must be sampled freshly by the verifier; a hostile party who can
    /// predict `r` can craft a sequence passing the folded check.
    pub fn validate(&self, r: Fr) -> Result<(), KzgError> {
        if self.powers_g1.is_empty() {
            return Err(KzgError::EmptySrs);
        }
        if self.powers_g1[0] != G1Affine::generator() {
            return Err(KzgError::InvalidStructure("powers_g1[0] is not the generator"));
        }
        if self.g2 != G2Affine::generator() {
            return Err(KzgError::InvalidStructure("g2 is not the generator"));
        }
        if self.tau_g2.is_identity() {
            return Err(KzgError::InvalidStructure("τ·G₂ is the identity"));
        }
        if self.powers_g1.iter().any(G1Affine::is_identity) {
            return Err(KzgError::InvalidStructure("identity among G1 powers"));
        }
        if self.powers_g1.len() == 1 {
            return Ok(());
        }
        let n = self.powers_g1.len() - 1;
        let mut folds = Vec::with_capacity(n);
        let mut pow = Fr::ONE;
        for _ in 0..n {
            folds.push(pow);
            pow *= r;
        }
        let hi = msm(&self.powers_g1[1..], &folds).to_affine();
        let lo = msm(&self.powers_g1[..n], &folds).to_affine();
        // e(hi, G₂) · e(-lo, τ·G₂) = 1  ⟺  hi = τ·lo in the exponent.
        let ok = multi_pairing(&[
            (hi, self.g2),
            ((-lo.to_projective()).to_affine(), self.tau_g2),
        ]) == Fq12::ONE;
        if ok {
            Ok(())
        } else {
            Err(KzgError::InvalidStructure(
                "G1 powers are not a τ-geometric sequence",
            ))
        }
    }

    /// A trimmed copy supporting polynomials up to `max_degree` — lets one
    /// large universal setup serve many smaller relations without
    /// regeneration (the universality property of §VI-B1).
    ///
    /// # Panics
    ///
    /// Panics if `max_degree` exceeds this SRS's degree.
    pub fn trim(&self, max_degree: usize) -> Srs {
        assert!(
            max_degree <= self.max_degree(),
            "cannot trim degree {} SRS up to {}",
            self.max_degree(),
            max_degree
        );
        Srs {
            powers_g1: self.powers_g1[..=max_degree].to_vec(),
            g2: self.g2,
            tau_g2: self.tau_g2,
        }
    }
}

#[cfg(test)]
mod trim_tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use zkdet_field::Field;

    #[test]
    fn trimmed_srs_is_consistent() {
        let mut rng = StdRng::seed_from_u64(120);
        let big = Srs::universal_setup(64, &mut rng);
        let small = big.trim(16);
        assert_eq!(small.max_degree(), 16);
        // Openings under the trimmed SRS verify under the big one and
        // vice versa (same τ).
        let p = DensePolynomial::random(10, &mut rng);
        let c_small = small.commit(&p);
        let c_big = big.commit(&p);
        assert_eq!(c_small, c_big);
        let z = Fr::random(&mut rng);
        let (y, w) = small.open(&p, &z);
        assert!(big.verify(&c_big, &z, &y, &w));
    }

    #[test]
    #[should_panic(expected = "cannot trim")]
    fn trim_beyond_degree_panics() {
        let mut rng = StdRng::seed_from_u64(121);
        let srs = Srs::universal_setup(8, &mut rng);
        let _ = srs.trim(9);
    }
}

//! Circuit preprocessing: `KeyGen(1^λ, R)` — derives the proving and
//! verifying keys from the universal SRS and a compiled circuit.
//!
//! This is the per-relation cost measured in Fig. 5 (the SRS itself is
//! universal and reused across circuits; see `zkdet-kzg`).

use std::sync::Arc;

use zkdet_curve::{G1Affine, G2Affine, WireError, G1_UNCOMPRESSED_BYTES, G2_UNCOMPRESSED_BYTES};
use zkdet_field::{Field, Fr};
use zkdet_kzg::{KzgCommitment, Srs};
use zkdet_poly::{DensePolynomial, EvaluationDomain};

use crate::builder::CompiledCircuit;
use crate::{coset_k1, coset_k2};

/// Errors produced by preprocessing, proving, and key validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlonkError {
    /// The circuit needs a larger SRS than provided.
    SrsTooSmall {
        /// Degree required (domain size + blinding slack).
        required: usize,
        /// Degree available in the SRS.
        available: usize,
    },
    /// The circuit exceeds the field's 2-adic FFT bound.
    CircuitTooLarge,
    /// The embedded witness does not satisfy the circuit.
    UnsatisfiedWitness,
    /// A verifying key failed structural validation (hostile or corrupt).
    MalformedKey(&'static str),
    /// A wire-format decode failed while loading a key.
    Wire(WireError),
    /// An internal invariant failed (worker panic, non-invertible
    /// challenge); never caused by proof content, indicates a bug or a
    /// poisoned thread pool.
    Internal(&'static str),
}

impl core::fmt::Display for PlonkError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlonkError::SrsTooSmall {
                required,
                available,
            } => write!(
                f,
                "srs supports degree {available} but circuit requires {required}"
            ),
            PlonkError::CircuitTooLarge => write!(f, "circuit exceeds the 2-adic FFT bound"),
            PlonkError::UnsatisfiedWitness => write!(f, "witness does not satisfy the circuit"),
            PlonkError::MalformedKey(what) => write!(f, "malformed verifying key: {what}"),
            PlonkError::Wire(e) => write!(f, "key wire format: {e}"),
            PlonkError::Internal(what) => write!(f, "internal prover failure: {what}"),
        }
    }
}

impl std::error::Error for PlonkError {}

impl From<WireError> for PlonkError {
    fn from(e: WireError) -> Self {
        PlonkError::Wire(e)
    }
}

/// The verifying key: commitments to the circuit polynomials plus domain
/// metadata. Constant-size (independent of the circuit, except `ℓ`).
#[derive(Clone, Debug)]
pub struct VerifyingKey {
    /// Domain size `n`.
    pub n: usize,
    /// Number of public inputs `ℓ`.
    pub num_public_inputs: usize,
    /// Selector commitments `[q_L], [q_R], [q_O], [q_M], [q_C]`.
    pub q_l: KzgCommitment,
    pub q_r: KzgCommitment,
    pub q_o: KzgCommitment,
    pub q_m: KzgCommitment,
    pub q_c: KzgCommitment,
    /// Permutation commitments `[σ₁], [σ₂], [σ₃]`.
    pub sigma1: KzgCommitment,
    pub sigma2: KzgCommitment,
    pub sigma3: KzgCommitment,
    /// `G₂` and `τ·G₂` from the SRS (the verifier's only SRS dependence).
    pub g2: G2Affine,
    pub tau_g2: G2Affine,
}

impl VerifyingKey {
    /// The generator `ω` of the evaluation domain implied by `n`.
    ///
    /// Returns `None` when `n` is not an exact power of two within the
    /// field's 2-adic FFT bound — which can only happen for a hostile or
    /// corrupt key, since preprocessing always produces a padded power of
    /// two. (`EvaluationDomain::new` rounds *up*; accepting a rounded
    /// domain here would silently verify against a different `n` than the
    /// transcript absorbed.)
    pub fn omega(&self) -> Option<Fr> {
        EvaluationDomain::root_of_unity(self.n)
    }

    /// The verifying key's G₁ commitments, in wire order.
    fn g1_commitments(&self) -> [&KzgCommitment; 8] {
        [
            &self.q_l,
            &self.q_r,
            &self.q_o,
            &self.q_m,
            &self.q_c,
            &self.sigma1,
            &self.sigma2,
            &self.sigma3,
        ]
    }

    /// Structural validation for keys received over a trust boundary
    /// (including ones assembled from public fields, whose points are *not*
    /// checked on construction; [`VerifyingKey::from_bytes`] runs this
    /// itself): `n` must be a domain-compatible power of two,
    /// `ℓ ≤ n`, every commitment on-curve, and `g2`/`τ·G₂` on-curve and in
    /// the order-`r` subgroup with `τ·G₂ ≠ O`.
    pub fn validate(&self) -> Result<(), PlonkError> {
        if self.omega().is_none() {
            return Err(PlonkError::MalformedKey(
                "n is not a power of two within the FFT bound",
            ));
        }
        if self.num_public_inputs > self.n {
            return Err(PlonkError::MalformedKey("more public inputs than rows"));
        }
        if self.g1_commitments().iter().any(|c| !c.0.is_on_curve()) {
            return Err(PlonkError::MalformedKey("commitment off-curve"));
        }
        for (label, p) in [("g2", &self.g2), ("tau_g2", &self.tau_g2)] {
            if !p.is_on_curve() || !p.is_in_correct_subgroup() {
                return Err(PlonkError::MalformedKey(match label {
                    "g2" => "g2 outside the group",
                    _ => "tau_g2 outside the group",
                }));
            }
        }
        if self.g2.is_identity() || self.tau_g2.is_identity() {
            return Err(PlonkError::MalformedKey("identity G2 element"));
        }
        Ok(())
    }

    /// Serialized size in bytes: two `u64` headers, 8 G₁ commitments, and
    /// the 2 G₂ SRS elements.
    pub const SIZE_BYTES: usize = 16 + 8 * G1_UNCOMPRESSED_BYTES + 2 * G2_UNCOMPRESSED_BYTES;

    /// Canonical wire encoding: `n` and `ℓ` as little-endian `u64`s, the 8
    /// commitments uncompressed, then `g2` and `τ·G₂` uncompressed.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::SIZE_BYTES);
        out.extend_from_slice(&(self.n as u64).to_le_bytes());
        out.extend_from_slice(&(self.num_public_inputs as u64).to_le_bytes());
        for c in self.g1_commitments() {
            out.extend_from_slice(&c.0.to_uncompressed());
        }
        out.extend_from_slice(&self.g2.to_uncompressed());
        out.extend_from_slice(&self.tau_g2.to_uncompressed());
        out
    }

    /// Decodes and fully validates a verifying key received over a trust
    /// boundary: exact length, canonical point encodings, and the
    /// structural checks of [`VerifyingKey::validate`].
    pub fn from_bytes(bytes: &[u8]) -> Result<VerifyingKey, PlonkError> {
        if bytes.len() != Self::SIZE_BYTES {
            return Err(PlonkError::Wire(WireError::BadLength {
                expected: Self::SIZE_BYTES,
                got: bytes.len(),
            }));
        }
        let u64_at = |off: usize| -> u64 {
            let mut arr = [0u8; 8];
            arr.copy_from_slice(&bytes[off..off + 8]);
            u64::from_le_bytes(arr)
        };
        let n = u64_at(0);
        let ell = u64_at(8);
        let n = usize::try_from(n)
            .map_err(|_| PlonkError::MalformedKey("n overflows usize"))?;
        let ell = usize::try_from(ell)
            .map_err(|_| PlonkError::MalformedKey("ℓ overflows usize"))?;
        let mut off = 16;
        let mut points = [G1Affine::identity(); 8];
        for p in points.iter_mut() {
            *p = G1Affine::from_uncompressed(&bytes[off..off + G1_UNCOMPRESSED_BYTES])?;
            off += G1_UNCOMPRESSED_BYTES;
        }
        let g2 = G2Affine::from_uncompressed(&bytes[off..off + G2_UNCOMPRESSED_BYTES])?;
        off += G2_UNCOMPRESSED_BYTES;
        let tau_g2 = G2Affine::from_uncompressed(&bytes[off..off + G2_UNCOMPRESSED_BYTES])?;
        let [q_l, q_r, q_o, q_m, q_c, sigma1, sigma2, sigma3] =
            points.map(KzgCommitment);
        let vk = VerifyingKey {
            n,
            num_public_inputs: ell,
            q_l,
            q_r,
            q_o,
            q_m,
            q_c,
            sigma1,
            sigma2,
            sigma3,
            g2,
            tau_g2,
        };
        vk.validate()?;
        Ok(vk)
    }
}

/// The proving key: circuit polynomials in coefficient and extended-coset
/// form, plus the SRS prefix needed for committing.
#[derive(Clone, Debug)]
pub struct ProvingKey {
    pub(crate) srs: Arc<Srs>,
    pub(crate) domain: EvaluationDomain,
    /// The 4n coset domain used for quotient computation.
    pub(crate) domain4: EvaluationDomain,
    pub(crate) q_polys: [DensePolynomial; 5],
    pub(crate) sigma_polys: [DensePolynomial; 3],
    /// Coset-extended evaluations of the 5 selectors on `domain4`.
    pub(crate) q_ext: [Vec<Fr>; 5],
    /// Coset-extended evaluations of σ₁..σ₃ on `domain4`.
    pub(crate) sigma_ext: [Vec<Fr>; 3],
    /// Per-row σ values (σ_j(ωⁱ)) used to build the permutation product.
    pub(crate) sigma_vals: [Vec<Fr>; 3],
    pub(crate) vk: VerifyingKey,
}

impl ProvingKey {
    /// The matching verifying key.
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.vk
    }

    /// Domain size `n`.
    pub fn n(&self) -> usize {
        self.domain.size()
    }
}

/// Derives `(ProvingKey, VerifyingKey)` for a circuit under the given SRS.
pub(crate) fn preprocess(
    srs: &Srs,
    circuit: &CompiledCircuit,
) -> Result<(ProvingKey, VerifyingKey), PlonkError> {
    let n = circuit.rows();
    let domain = EvaluationDomain::new(n).ok_or(PlonkError::CircuitTooLarge)?;
    let domain4 = EvaluationDomain::new(4 * n).ok_or(PlonkError::CircuitTooLarge)?;
    // Blinding raises wire polynomials to degree n+1 and the split quotient
    // chunks to degree n+5.
    if srs.max_degree() < n + 5 {
        return Err(PlonkError::SrsTooSmall {
            required: n + 5,
            available: srs.max_degree(),
        });
    }

    let mut pre_span = zkdet_telemetry::span("plonk.preprocess");
    pre_span.record("n", n as u64);
    pre_span.record("public_inputs", circuit.num_public_inputs as u64);
    zkdet_telemetry::counter_add("zkdet.plonk.preprocess.calls", 1);

    // Selector columns → polynomials.
    let phase_span = zkdet_telemetry::span("plonk.preprocess.selectors");
    let col =
        |f: fn(&crate::builder::Selectors) -> Fr| -> Vec<Fr> { circuit.selectors.iter().map(f).collect() };
    let q_cols = [
        col(|s| s.q_l),
        col(|s| s.q_r),
        col(|s| s.q_o),
        col(|s| s.q_m),
        col(|s| s.q_c),
    ];
    let q_polys: [DensePolynomial; 5] =
        q_cols.map(|c| DensePolynomial::from_coefficients(domain.ifft(&c)));
    drop(phase_span);

    let phase_span = zkdet_telemetry::span("plonk.preprocess.permutation");
    // Copy permutation: slot (col j, row i) carries id value k_j·ωⁱ; σ maps
    // each slot to the next slot of the same variable's copy class.
    let k = [Fr::ONE, coset_k1(), coset_k2()];
    let omegas = domain.elements();
    let id_val = |col: usize, row: usize| k[col] * omegas[row];

    // Gather slots per representative variable.
    let mut slots_of: Vec<Vec<(usize, usize)>> = vec![vec![]; circuit.assignments.len()];
    for (row, w) in circuit.wires.iter().enumerate() {
        slots_of[circuit.representatives[w.a.0]].push((0, row));
        slots_of[circuit.representatives[w.b.0]].push((1, row));
        slots_of[circuit.representatives[w.c.0]].push((2, row));
    }
    let mut sigma_vals = [vec![Fr::ZERO; n], vec![Fr::ZERO; n], vec![Fr::ZERO; n]];
    for slots in &slots_of {
        for (t, &(c, r)) in slots.iter().enumerate() {
            let (nc, nr) = slots[(t + 1) % slots.len()];
            sigma_vals[c][r] = id_val(nc, nr);
        }
    }
    let sigma_polys: [DensePolynomial; 3] = [
        DensePolynomial::from_coefficients(domain.ifft(&sigma_vals[0])),
        DensePolynomial::from_coefficients(domain.ifft(&sigma_vals[1])),
        DensePolynomial::from_coefficients(domain.ifft(&sigma_vals[2])),
    ];

    drop(phase_span);

    // Extended coset evaluations for the quotient round.
    let phase_span = zkdet_telemetry::span("plonk.preprocess.coset_ext");
    let ext = |p: &DensePolynomial| -> Vec<Fr> { domain4.coset_fft(p.coefficients()) };
    let q_ext = [
        ext(&q_polys[0]),
        ext(&q_polys[1]),
        ext(&q_polys[2]),
        ext(&q_polys[3]),
        ext(&q_polys[4]),
    ];
    let sigma_ext = [
        ext(&sigma_polys[0]),
        ext(&sigma_polys[1]),
        ext(&sigma_polys[2]),
    ];
    drop(phase_span);

    let phase_span = zkdet_telemetry::span("plonk.preprocess.vk_commit");
    let vk = VerifyingKey {
        n,
        num_public_inputs: circuit.num_public_inputs,
        q_l: srs.commit(&q_polys[0]),
        q_r: srs.commit(&q_polys[1]),
        q_o: srs.commit(&q_polys[2]),
        q_m: srs.commit(&q_polys[3]),
        q_c: srs.commit(&q_polys[4]),
        sigma1: srs.commit(&sigma_polys[0]),
        sigma2: srs.commit(&sigma_polys[1]),
        sigma3: srs.commit(&sigma_polys[2]),
        g2: srs.g2,
        tau_g2: srs.tau_g2,
    };
    drop(phase_span);
    drop(pre_span);

    Ok((
        ProvingKey {
            srs: Arc::new(srs.trim(n + 5)),
            domain,
            domain4,
            q_polys,
            sigma_polys,
            q_ext,
            sigma_ext,
            sigma_vals,
            vk: vk.clone(),
        },
        vk,
    ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use rand::{rngs::StdRng, SeedableRng};

    use super::*;
    use crate::{CircuitBuilder, Plonk};

    #[test]
    fn proving_key_keeps_only_the_srs_prefix_it_commits_with() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut b = CircuitBuilder::new();
        let x = b.alloc(Fr::from(6u64));
        let y = b.mul(x, x);
        let out = b.public_input(Fr::from(36u64));
        b.assert_equal(y, out);
        let circuit = b.build();
        let n = circuit.rows();
        let srs = Srs::universal_setup(1 << 10, &mut rng);
        let (pk, vk) = Plonk::preprocess(&srs, &circuit).unwrap();
        assert_eq!(pk.srs.max_degree(), n + 5);
        let proof = Plonk::prove(&pk, &circuit, &mut rng).unwrap();
        assert!(Plonk::verify(&vk, &[Fr::from(36u64)], &proof));
    }
}

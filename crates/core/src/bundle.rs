//! Proof bundles: the publicly stored artefacts that make datasets
//! auditable (§IV-B's decoupled proofs).
//!
//! Every token's NFT metadata points (via `proof_cid`) at a bundle holding:
//!
//! * `π_e` — the proof of encryption for *this* dataset's ciphertext
//!   against its on-chain commitment (computed once, reused by every later
//!   transformation and by the exchange protocol);
//! * optionally `π_t` — the transformation proof relating this dataset's
//!   commitment to its parents' commitments (absent for originals).
//!
//! Auditors fetch bundles and walk `prevIds[]` to validate whole lineages
//! without ever seeing a plaintext (Fig. 3's proof chain).

use zkdet_field::Fr;
use zkdet_plonk::Proof;

use crate::codec::{decode_proof, encode_proof, Reader, Writer};
use crate::error::ZkdetError;

/// A transformation proof `π_t` with its statement.
#[derive(Clone, Debug, PartialEq)]
pub enum TransformProof {
    /// Duplication (§IV-D 1): statement `[c_s, c_d]`.
    Duplication {
        /// Dataset length (shape parameter, needed to select the vk).
        len: usize,
        /// The proof.
        proof: Proof,
    },
    /// Aggregation (§IV-D 2): statement `[c_d, c_{s₁}, …]`.
    Aggregation {
        /// Source lengths in order.
        source_lens: Vec<usize>,
        /// The proof.
        proof: Proof,
    },
    /// Processing (§IV-D 4 / §IV-E): an arbitrary registered relation
    /// (model training etc.). Statement convention: `[c_s…, c_d, extra…]`
    /// with the parents' commitments first and the derived commitment next.
    Processing {
        /// Name of the registered relation (selects the verifying key).
        formula: String,
        /// The full statement the proof verifies against.
        publics: Vec<Fr>,
        /// The proof.
        proof: Proof,
    },
    /// Partition (§IV-D 3): statement `[c_s, c_{d₁}, …]`. Stored on *each*
    /// part token; `part_index` marks which part this token is.
    Partition {
        /// Part lengths in order.
        part_lens: Vec<usize>,
        /// Which part this bundle's token corresponds to.
        part_index: usize,
        /// Commitments of all sibling parts, in order (the statement needs
        /// them; siblings' tokens may live elsewhere).
        part_commitments: Vec<Fr>,
        /// The proof.
        proof: Proof,
    },
}

/// The per-token proof bundle persisted in public storage.
#[derive(Clone, Debug, PartialEq)]
pub struct ProofBundle {
    /// Proof of encryption `π_e` for this token's ciphertext.
    pub pi_e: Proof,
    /// Dataset length (shape parameter of the encryption relation).
    pub len: usize,
    /// Transformation proof, if this token was derived.
    pub pi_t: Option<TransformProof>,
}

impl ProofBundle {
    /// Whether the sizes `π_t` carries fit the token's own verified length
    /// `self.len`, its `parents` count and the SRS's `max_degree`: every
    /// part non-empty, as many sources as parents, the sources summing to
    /// `len`, the indexed part `len` long. The bundle comes from untrusted
    /// storage, and these sizes pick the circuit a key is derived from.
    pub(crate) fn shape_fits(&self, parents: usize, max_degree: usize) -> bool {
        let sizes = |lens: &[usize]| !lens.is_empty() && !lens.contains(&0);
        let sum = |lens: &[usize]| lens.iter().try_fold(0usize, |s, l| s.checked_add(*l));
        match &self.pi_t {
            Some(TransformProof::Duplication { len, .. }) => *len == self.len,
            Some(TransformProof::Aggregation { source_lens, .. }) => {
                sizes(source_lens)
                    && source_lens.len() == parents
                    && sum(source_lens) == Some(self.len)
            }
            Some(TransformProof::Partition {
                part_lens,
                part_index,
                part_commitments,
                ..
            }) => {
                sizes(part_lens)
                    && part_lens.len() == part_commitments.len()
                    && part_lens.get(*part_index) == Some(&self.len)
                    && sum(part_lens).is_some_and(|total| total <= max_degree)
            }
            None | Some(TransformProof::Processing { .. }) => true,
        }
    }

    /// Serializes the bundle for storage.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.len as u64);
        encode_proof(&mut w, &self.pi_e);
        match &self.pi_t {
            None => w.u8(0),
            Some(TransformProof::Duplication { len, proof }) => {
                w.u8(1);
                w.u64(*len as u64);
                encode_proof(&mut w, proof);
            }
            Some(TransformProof::Aggregation { source_lens, proof }) => {
                w.u8(2);
                w.u64(source_lens.len() as u64);
                for l in source_lens {
                    w.u64(*l as u64);
                }
                encode_proof(&mut w, proof);
            }
            Some(TransformProof::Processing {
                formula,
                publics,
                proof,
            }) => {
                w.u8(4);
                let fb = formula.as_bytes();
                w.u64(fb.len() as u64);
                for byte in fb {
                    w.u8(*byte);
                }
                w.fr_vec(publics);
                encode_proof(&mut w, proof);
            }
            Some(TransformProof::Partition {
                part_lens,
                part_index,
                part_commitments,
                proof,
            }) => {
                w.u8(3);
                w.u64(part_lens.len() as u64);
                for l in part_lens {
                    w.u64(*l as u64);
                }
                w.u64(*part_index as u64);
                w.fr_vec(part_commitments);
                encode_proof(&mut w, proof);
            }
        }
        w.into_bytes()
    }

    /// Parses a bundle from storage bytes.
    ///
    /// # Errors
    ///
    /// [`ZkdetError::Codec`] on any structural problem (truncation,
    /// non-canonical elements, off-curve points, trailing bytes).
    pub fn from_bytes(data: &[u8]) -> Result<Self, ZkdetError> {
        let mut r = Reader::new(data);
        let len = r.u64()? as usize;
        let pi_e = decode_proof(&mut r)?;
        let pi_t = match r.u8()? {
            0 => None,
            1 => {
                let len = r.u64()? as usize;
                Some(TransformProof::Duplication {
                    len,
                    proof: decode_proof(&mut r)?,
                })
            }
            2 => {
                let n = r.u64()? as usize;
                if n > 1 << 16 {
                    return Err(ZkdetError::Codec("too many sources".into()));
                }
                let source_lens = (0..n)
                    .map(|_| r.u64().map(|x| x as usize))
                    .collect::<Result<Vec<_>, _>>()?;
                Some(TransformProof::Aggregation {
                    source_lens,
                    proof: decode_proof(&mut r)?,
                })
            }
            3 => {
                let n = r.u64()? as usize;
                if n > 1 << 16 {
                    return Err(ZkdetError::Codec("too many parts".into()));
                }
                let part_lens = (0..n)
                    .map(|_| r.u64().map(|x| x as usize))
                    .collect::<Result<Vec<_>, _>>()?;
                let part_index = r.u64()? as usize;
                let part_commitments = r.fr_vec()?;
                Some(TransformProof::Partition {
                    part_lens,
                    part_index,
                    part_commitments,
                    proof: decode_proof(&mut r)?,
                })
            }
            4 => {
                let flen = r.u64()? as usize;
                if flen > 1 << 12 {
                    return Err(ZkdetError::Codec("formula name too long".into()));
                }
                let mut fb = Vec::with_capacity(flen);
                for _ in 0..flen {
                    fb.push(r.u8()?);
                }
                let formula = String::from_utf8(fb)
                    .map_err(|_| ZkdetError::Codec("formula not utf-8".into()))?;
                let publics = r.fr_vec()?;
                Some(TransformProof::Processing {
                    formula,
                    publics,
                    proof: decode_proof(&mut r)?,
                })
            }
            t => return Err(ZkdetError::Codec(format!("unknown transform tag {t}"))),
        };
        r.finish()?;
        Ok(ProofBundle { pi_e, len, pi_t })
    }
}

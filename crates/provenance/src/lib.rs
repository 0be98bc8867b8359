//! # zkdet-provenance
//!
//! Traceability is half of the ZKDET paper's title; this crate makes it a
//! first-class subsystem instead of an ad-hoc walk. It owns the token
//! transformation DAG and everything auditors do with it:
//!
//! * [`ProvenanceIndex`] — an incrementally-maintained index over
//!   mint/transform/burn events: parent/child adjacency and depths.
//!   Parent-existence and cycles are rejected at insert, so every query
//!   may assume a DAG. Ancestor sets are memoised (invalidated on burn),
//!   so the repeated lineage walks of an audit cost O(sub-DAG) once and a
//!   lookup after;
//! * [`AuditCache`] — remembers which `(token, proof, vk, statement)`
//!   combinations already verified, so re-auditing a token whose ancestors
//!   were audited before verifies only the new edges (keys are SHA-256
//!   digests: any tampering forces a miss, never a false hit);
//! * [`verify_lineage`] — every cache-missing check of a lineage folded
//!   into one pairing check via [`zkdet_plonk::Plonk::batch_verify`], with
//!   a per-proof fallback that localises a failure to the exact token +
//!   proof;
//! * [`lineage_digest`] — a tamper-evident Merkle accumulator over the
//!   canonically-ordered sub-DAG, stable across insertion orders;
//! * [`export`] — DOT / JSON / ASCII-tree renderings for auditors.
//!
//! The chain's NFT contract keeps an index in lockstep with its token
//! state, and the marketplace's `audit_token` drives the cache and the
//! fold; `zkdet.provenance.*` counters and `provenance.*` spans report
//! cache hit-rates and batch shapes.

#![forbid(unsafe_code)]

pub mod cache;
pub mod digest;
pub mod export;
pub mod index;
pub mod verify;

pub use cache::{
    digest_proof, digest_publics, digest_vk, ArtefactDigest, AuditCache, AuditKey,
};
pub use digest::lineage_digest;
pub use index::{DagError, NodeId, ProvenanceIndex};
pub use verify::{verify_lineage, LineageCheck, ProofRejected, VerifyReport};

//! Content-addressed distributed storage — the IPFS substitute (§III-A).
//!
//! ZKDET stores encrypted datasets off-chain in a public content-addressed
//! network and records only the URI (the content hash) on-chain. The
//! protocol relies on exactly three properties, all provided here:
//!
//! 1. **Content addressing** — `URI := H(Ĉ)`; see [`Cid`].
//! 2. **Public retrievability** — anyone holding a CID can fetch the
//!    ciphertext; see [`StorageNetwork::retrieve`].
//! 3. **Tamper evidence** — any mutation changes the digest and is
//!    detected on fetch; see [`StorageError::DigestMismatch`].
//!
//! The network is simulated as a set of nodes in an XOR-metric (Kademlia
//! style) key space. Durability is a Byzantine quorum
//! ([`StorageNetwork::with_quorum`], the one constructor): every blob is
//! erasure-coded into `n` shares of which any `k` reconstruct it
//! ([`ErasureCodec`]), each share lives on the live node XOR-closest to its
//! share key, per-share digests are bound to the content CID
//! ([`ShareManifest`]) for share-level tamper attribution
//! ([`TamperEvidence`]), writes are acknowledged only after `w`
//! distinct-node durability acks ([`QuorumConfig`]), reads at exactly `k`
//! live shares are served flagged as degraded, and a deterministic repair
//! scheduler ([`StorageNetwork::tick_repairs`]) restores redundancy after
//! churn (node removal).
//!
//! Robustness: a seeded [`FaultPlan`] injects crashes, latency, request
//! drops, share corruption, stale provider records, Byzantine nodes, and
//! ack withholding; every read ([`StorageNetwork::retrieve`]) fights back
//! with a bounded number of share sweeps, exponential backoff on the
//! simulated clock, hedged share probes, and quarantine of nodes caught
//! serving corrupt bytes.

#![forbid(unsafe_code)]

mod cid;
mod dht;
mod erasure;
mod fault;
mod health;
mod manifest;
mod network;
mod quorum;

pub use cid::Cid;
pub use dht::{xor_distance, DhtNode, NodeId};
pub use erasure::{ErasureCodec, ErasureError, MAX_SHARES};
pub use fault::{FaultPlan, DEFAULT_LATENCY_TICKS};
pub use health::{NodeHealthSnapshot, MAX_SUSPICION};
pub use manifest::{share_key, ManifestError, ShareManifest};
pub use network::{
    PinOwner, RetrievalStats, StorageError, StorageNetwork, REPAIR_INTERVAL_TICKS,
};
pub use quorum::{DurabilityReport, QuorumConfig, RepairReport, TamperEvidence};

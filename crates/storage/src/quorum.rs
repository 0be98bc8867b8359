//! Quorum parameters and the supporting report types of the storage
//! backend.
//!
//! A [`crate::StorageNetwork`] erasure-codes every blob into
//! `n` shares of which any `k` reconstruct it, acknowledges a publish only
//! after `w ≥ k` distinct-node durability acks, and tolerates up to
//! `n − k` simultaneously faulty (crashed, corrupt, or Byzantine) share
//! holders per blob. The defaults aim at the acceptance envelope of the
//! chaos suites: `n = 8, k = 4, w = 6` rides out any 2 Byzantine plus 2
//! crashed nodes.

use crate::cid::Cid;
use crate::dht::NodeId;
use crate::erasure::{ErasureCodec, ErasureError};

/// Erasure/quorum parameters for a storage network.
///
/// Fields are private so a constructed value is always internally valid
/// (`1 ≤ k ≤ w ≤ n ≤ 255`); use [`QuorumConfig::new`] or
/// [`QuorumConfig::for_cluster`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuorumConfig {
    data_shares: u32,
    total_shares: u32,
    write_quorum: u32,
}

impl QuorumConfig {
    /// A validated configuration with `k` data shares, `n` total shares,
    /// and write quorum `w`.
    ///
    /// # Errors
    ///
    /// [`ErasureError::BadParameters`] unless `1 ≤ k ≤ w ≤ n ≤ 255`.
    pub fn new(data_shares: u32, total_shares: u32, write_quorum: u32) -> Result<Self, ErasureError> {
        // Delegate the k/n envelope to the codec, then pin w between them.
        ErasureCodec::new(data_shares as usize, total_shares as usize)?;
        if write_quorum < data_shares || write_quorum > total_shares {
            return Err(ErasureError::BadParameters {
                data_shares: data_shares as usize,
                total_shares: total_shares as usize,
            });
        }
        Ok(QuorumConfig {
            data_shares,
            total_shares,
            write_quorum,
        })
    }

    /// The default parameters for a cluster of `nodes` storage nodes:
    /// `n = min(8, nodes)`, `k = max(1, n/2)`, and `w` halfway between
    /// `k` and `n` (rounded up), so small test clusters still publish and
    /// a full 8-node cluster gets the paper-grade `8/4/6` envelope.
    pub fn for_cluster(nodes: usize) -> Self {
        let n = nodes.clamp(1, 8) as u32;
        let k = (n / 2).max(1);
        let w = k + (n - k).div_ceil(2);
        QuorumConfig {
            data_shares: k,
            total_shares: n,
            write_quorum: w,
        }
    }

    /// `k`: shares required to reconstruct.
    pub fn data_shares(&self) -> u32 {
        self.data_shares
    }

    /// `n`: shares published per blob.
    pub fn total_shares(&self) -> u32 {
        self.total_shares
    }

    /// `w`: distinct-node durability acks required before a publish is
    /// acknowledged.
    pub fn write_quorum(&self) -> u32 {
        self.write_quorum
    }

    /// Maximum simultaneously lost/corrupt shares a blob survives
    /// (`n − k`).
    pub fn fault_tolerance(&self) -> u32 {
        self.total_shares - self.data_shares
    }

    /// The codec realizing these parameters. Infallible because the
    /// configuration was validated at construction.
    pub fn codec(&self) -> ErasureCodec {
        ErasureCodec::new(self.data_shares as usize, self.total_shares as usize)
            .unwrap_or_else(|_| ErasureCodec::single())
    }
}

/// Share-level tamper evidence: node `node` served bytes for share
/// `share_index` of `content` that failed the manifest digest check.
///
/// This is the attribution artefact the manifest exists for — it names the
/// *share*, not just the node, so an auditor can distinguish a node that
/// corrupted one blob from one rewriting everything it stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TamperEvidence {
    /// The node that served the bad bytes.
    pub node: NodeId,
    /// The content whose share was tampered with.
    pub content: Cid,
    /// Which of the `n` shares it was.
    pub share_index: u32,
}

/// Outcome of one repair pass ([`crate::StorageNetwork::run_pending_repairs`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Blobs whose redundancy was restored (at least one share re-placed).
    pub contents_repaired: u64,
    /// Total shares re-encoded and re-placed across those blobs.
    pub shares_restored: u64,
    /// Blobs that had fewer than `k` intact shares left — beyond the fault
    /// budget, unrecoverable without out-of-band restore.
    pub unrecoverable: Vec<Cid>,
}

/// Point-in-time durability of one blob, from
/// [`crate::StorageNetwork::durability_report`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurabilityReport {
    /// Share slots the blob was published with (`n`).
    pub total_shares: u32,
    /// Slots currently backed by at least one intact copy on a live,
    /// unquarantined node.
    pub intact_shares: u32,
    /// Slots needed to reconstruct (`k`).
    pub required_shares: u32,
    /// Full node census at report time, most suspicious first (ties
    /// broken by node id).
    pub node_health: Vec<crate::health::NodeHealthSnapshot>,
}

impl DurabilityReport {
    /// The blob can still be reconstructed.
    pub fn recoverable(&self) -> bool {
        self.intact_shares >= self.required_shares
    }

    /// Every share slot is intact — full redundancy.
    pub fn fully_redundant(&self) -> bool {
        self.intact_shares >= self.total_shares
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn validates_parameter_envelope() {
        assert!(QuorumConfig::new(4, 8, 6).is_ok());
        assert!(QuorumConfig::new(4, 8, 3).is_err(), "w < k");
        assert!(QuorumConfig::new(4, 8, 9).is_err(), "w > n");
        assert!(QuorumConfig::new(0, 8, 4).is_err(), "k = 0");
        assert!(QuorumConfig::new(9, 8, 8).is_err(), "k > n");
    }

    #[test]
    fn for_cluster_scales_down_gracefully() {
        let full = QuorumConfig::for_cluster(8);
        assert_eq!(
            (full.data_shares(), full.total_shares(), full.write_quorum()),
            (4, 8, 6),
            "the paper-grade envelope at 8+ nodes"
        );
        assert_eq!(full.fault_tolerance(), 4);
        let big = QuorumConfig::for_cluster(64);
        assert_eq!(big, full, "n is capped at 8");
        for nodes in 1..=8 {
            let cfg = QuorumConfig::for_cluster(nodes);
            assert!(cfg.data_shares() >= 1);
            assert!(cfg.write_quorum() >= cfg.data_shares());
            assert!(cfg.write_quorum() <= cfg.total_shares());
            assert_eq!(cfg.total_shares() as usize, nodes.min(8));
        }
        let four = QuorumConfig::for_cluster(4);
        assert_eq!(
            (four.data_shares(), four.total_shares(), four.write_quorum()),
            (2, 4, 3)
        );
    }

    #[test]
    fn codec_matches_config() {
        let cfg = QuorumConfig::for_cluster(8);
        let codec = cfg.codec();
        assert_eq!(codec.data_shares(), 4);
        assert_eq!(codec.total_shares(), 8);
    }

    #[test]
    fn durability_report_predicates() {
        let healthy = DurabilityReport {
            total_shares: 8,
            intact_shares: 8,
            required_shares: 4,
            node_health: vec![],
        };
        assert!(healthy.recoverable() && healthy.fully_redundant());
        let degraded = DurabilityReport {
            total_shares: 8,
            intact_shares: 4,
            required_shares: 4,
            node_health: vec![],
        };
        assert!(degraded.recoverable() && !degraded.fully_redundant());
        let lost = DurabilityReport {
            total_shares: 8,
            intact_shares: 3,
            required_shares: 4,
            node_health: vec![],
        };
        assert!(!lost.recoverable());
    }
}

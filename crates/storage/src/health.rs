//! Per-node health accounting and Byzantine-suspicion scoring.
//!
//! The quorum backend already *reacts* to misbehaviour (digest
//! quarantine, tamper evidence, ack-starved publishes); this module makes
//! the evidence **rankable**. Every node accumulates a small set of
//! counters at the existing enforcement points:
//!
//! - `acks` / `withheld_acks` — durability acks granted vs. withheld at
//!   publish time;
//! - `shares_served` — intact shares contributed to quorum reads;
//! - `tamper_shares` — shares served that failed their manifest digest
//!   (each one also logs a [`crate::TamperEvidence`]);
//! - `degraded_serves` — reads this node carried while the blob was at
//!   exactly `k` usable shares (honest service under duress, tracked for
//!   capacity planning, **not** suspicion);
//! - `repairs_received` — shares re-placed onto this node by the repair
//!   scheduler;
//! - `quarantined` — whether digest quarantine has excluded the node.
//!
//! [`NodeHealthSnapshot::suspicion`] folds the negative signals into a
//! deterministic score in `[0, 1000]`:
//!
//! ```text
//! suspicion = min(1000, 600·quarantined
//!                       + min(250, 50·tamper_shares)
//!                       + min(150, 30·withheld_acks))
//! ```
//!
//! The weights are chosen so any *forging* node (quarantined + tamper
//! evidence ⇒ ≥ 650) ranks strictly above any node that merely flaked on
//! acks (≤ 150), and every honest node scores exactly 0 — the ordering
//! property the byzantine suite asserts. Purely counter-derived, no
//! clocks, no randomness: replaying a seeded fault schedule reproduces
//! the scores bit-for-bit.

use crate::dht::NodeId;

/// Mutable per-node counters, owned by the network's interior state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct NodeHealthStats {
    pub acks: u64,
    pub withheld_acks: u64,
    pub shares_served: u64,
    pub tamper_shares: u64,
    pub degraded_serves: u64,
    pub repairs_received: u64,
    pub quarantined: bool,
}

/// Point-in-time health of one storage node, with its suspicion score.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeHealthSnapshot {
    /// The node being scored.
    pub node: NodeId,
    /// Durability acks this node granted at publish time.
    pub acks: u64,
    /// Publish acks this node withheld (stored but never acknowledged).
    pub withheld_acks: u64,
    /// Intact shares this node contributed to quorum reads.
    pub shares_served: u64,
    /// Shares served that failed their manifest digest check.
    pub tamper_shares: u64,
    /// Reads carried while the blob was at exactly `k` usable shares.
    pub degraded_serves: u64,
    /// Shares re-placed onto this node by the repair scheduler.
    pub repairs_received: u64,
    /// Whether digest quarantine currently excludes the node.
    pub quarantined: bool,
    /// Deterministic Byzantine-suspicion score in `[0, 1000]`.
    pub suspicion: u32,
}

/// Maximum suspicion score.
pub const MAX_SUSPICION: u32 = 1000;

pub(crate) fn suspicion_score(stats: &NodeHealthStats) -> u32 {
    let quarantine = if stats.quarantined { 600 } else { 0 };
    let tamper = (stats.tamper_shares.saturating_mul(50)).min(250) as u32;
    let withheld = (stats.withheld_acks.saturating_mul(30)).min(150) as u32;
    (quarantine + tamper + withheld).min(MAX_SUSPICION)
}

pub(crate) fn snapshot(node: NodeId, stats: &NodeHealthStats) -> NodeHealthSnapshot {
    NodeHealthSnapshot {
        node,
        acks: stats.acks,
        withheld_acks: stats.withheld_acks,
        shares_served: stats.shares_served,
        tamper_shares: stats.tamper_shares,
        degraded_serves: stats.degraded_serves,
        repairs_received: stats.repairs_received,
        quarantined: stats.quarantined,
        suspicion: suspicion_score(stats),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn honest_nodes_score_zero() {
        let honest = NodeHealthStats {
            acks: 100,
            shares_served: 400,
            degraded_serves: 12,
            repairs_received: 3,
            ..NodeHealthStats::default()
        };
        assert_eq!(suspicion_score(&honest), 0);
    }

    #[test]
    fn forgers_rank_strictly_above_ack_withholders() {
        let forger = NodeHealthStats {
            quarantined: true,
            tamper_shares: 1,
            ..NodeHealthStats::default()
        };
        let flaky = NodeHealthStats {
            withheld_acks: 1_000_000, // saturates its cap
            ..NodeHealthStats::default()
        };
        assert!(suspicion_score(&forger) > suspicion_score(&flaky));
        assert_eq!(suspicion_score(&flaky), 150);
    }

    #[test]
    fn score_saturates_at_max() {
        let worst = NodeHealthStats {
            quarantined: true,
            tamper_shares: u64::MAX,
            withheld_acks: u64::MAX,
            ..NodeHealthStats::default()
        };
        assert_eq!(suspicion_score(&worst), MAX_SUSPICION);
    }

    #[test]
    fn score_is_monotone_in_evidence() {
        let mut s = NodeHealthStats::default();
        let mut last = suspicion_score(&s);
        for _ in 0..6 {
            s.tamper_shares += 1;
            let next = suspicion_score(&s);
            assert!(next >= last);
            last = next;
        }
    }
}

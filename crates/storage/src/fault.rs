//! Deterministic fault injection for the simulated storage network.
//!
//! A [`FaultPlan`] is a seeded, declarative schedule of infrastructure
//! faults installed into a [`crate::StorageNetwork`]:
//!
//! - **crash / churn** — a node becomes unreachable once the simulated
//!   clock passes its crash tick;
//! - **latency** — contacting a node costs a configurable number of clock
//!   ticks instead of the default one;
//! - **probabilistic drop** — a request to a node is lost with a given
//!   probability, decided by a counter-mode PRF of the plan seed so every
//!   run of the same schedule drops exactly the same requests;
//! - **share corruption** — the shares of one blob that one node holds
//!   serve bytes that fail their digest (the other holders stay intact);
//! - **stale provider records** — a node still advertises a share it has
//!   garbage-collected and answers the fetch with a miss;
//! - **Byzantine share corruption** — a node rewrites *every* erasure
//!   share it stores, modelling an actively malicious replica rather than
//!   a single bit-rotted block;
//! - **ack withholding** — a node stores writes but never acknowledges
//!   them, starving publishes of their durability quorum.
//!
//! The plan is pure data: all randomness is derived from `(seed, request
//! nonce)`, never from ambient entropy, so chaos tests replay bit-for-bit.

use std::collections::{BTreeMap, BTreeSet};

use crate::dht::NodeId;
use crate::Cid;

/// Ticks a request to an un-delayed node costs on the simulated clock.
pub const DEFAULT_LATENCY_TICKS: u64 = 1;

pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn node_fingerprint(node: &NodeId) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in &node.0 {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A seeded, deterministic schedule of storage faults.
///
/// Built with the `with_*` combinators; inert by default (a plan with no
/// combinator applied injects nothing, whatever its seed).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    /// Probability (parts per million) that any request is dropped.
    global_drop_ppm: u32,
    /// Per-node request latency in clock ticks.
    latency: BTreeMap<NodeId, u64>,
    /// Tick at which a node crashes (unreachable from then on).
    crash_at: BTreeMap<NodeId, u64>,
    /// (holder, content or share key) pairs that serve corrupted bytes.
    corrupt: BTreeSet<(NodeId, Cid)>,
    /// Provider records that are stale: advertised but gone.
    stale: BTreeSet<(NodeId, Cid)>,
    /// Byzantine nodes: every share they serve is corrupted.
    byzantine: BTreeSet<NodeId>,
    /// Nodes that store writes but withhold the durability ack.
    ack_withhold: BTreeSet<NodeId>,
}

impl FaultPlan {
    /// An inert plan (every fault off).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An inert plan carrying `seed` for its drop-decision PRF.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Drops every request with probability `prob` (clamped to `[0, 1]`).
    pub fn with_global_drop(mut self, prob: f64) -> Self {
        self.global_drop_ppm = to_ppm(prob);
        self
    }

    /// Requests to `node` cost `ticks` on the simulated clock.
    pub fn with_latency(mut self, node: NodeId, ticks: u64) -> Self {
        self.latency.insert(node, ticks);
        self
    }

    /// `node` crashes once the simulated clock reaches `tick`.
    pub fn with_crash_at(mut self, node: NodeId, tick: u64) -> Self {
        self.crash_at.insert(node, tick);
        self
    }

    /// `node` serves corrupted bytes for `cid` — every share of that
    /// content it holds, or the one share when `cid` is a share key.
    pub fn with_corrupt_replica(mut self, node: NodeId, cid: Cid) -> Self {
        self.corrupt.insert((node, cid));
        self
    }

    /// `node` advertises `cid` (a content's shares, or one share key) but
    /// no longer holds it.
    pub fn with_stale_record(mut self, node: NodeId, cid: Cid) -> Self {
        self.stale.insert((node, cid));
        self
    }

    /// `node` is Byzantine: every block or erasure share it serves is
    /// corrupted (detected per share against the manifest digests, so the
    /// evidence attributes the exact `(node, content, share)` triple).
    pub fn with_byzantine_node(mut self, node: NodeId) -> Self {
        self.byzantine.insert(node);
        self
    }

    /// `node` stores writes but never sends the durability ack, so it
    /// contributes nothing toward a publish's write quorum.
    pub fn with_ack_withholding(mut self, node: NodeId) -> Self {
        self.ack_withhold.insert(node);
        self
    }

    /// Is `node` reachable at simulated time `now`?
    pub fn node_up(&self, node: &NodeId, now: u64) -> bool {
        match self.crash_at.get(node) {
            Some(tick) => now < *tick,
            None => true,
        }
    }

    /// Clock cost of one request to `node`.
    pub fn latency_of(&self, node: &NodeId) -> u64 {
        self.latency
            .get(node)
            .copied()
            .unwrap_or(DEFAULT_LATENCY_TICKS)
    }

    /// Deterministic drop decision for request number `nonce` to `node`.
    pub fn should_drop(&self, node: &NodeId, nonce: u64) -> bool {
        let ppm = self.global_drop_ppm;
        if ppm == 0 {
            return false;
        }
        let roll = splitmix64(self.seed ^ node_fingerprint(node) ^ nonce.wrapping_mul(0x2545_F491_4F6C_DD1D));
        // Compare the low 32 bits against the ppm threshold scaled to 2^32.
        let threshold = ((ppm as u64) << 32) / 1_000_000;
        (roll & 0xFFFF_FFFF) < threshold
    }

    /// Does `node` serve a corrupted copy of `cid`?
    pub fn corrupts(&self, node: &NodeId, cid: &Cid) -> bool {
        self.byzantine.contains(node) || self.corrupt.contains(&(*node, *cid))
    }

    /// Is `node` Byzantine (corrupting everything it serves)?
    pub fn is_byzantine(&self, node: &NodeId) -> bool {
        self.byzantine.contains(node)
    }

    /// Does `node` withhold durability acks?
    pub fn withholds_ack(&self, node: &NodeId) -> bool {
        self.ack_withhold.contains(node)
    }

    /// Is `node`'s provider record for `cid` stale?
    pub fn is_stale(&self, node: &NodeId, cid: &Cid) -> bool {
        self.stale.contains(&(*node, *cid))
    }
}

fn to_ppm(prob: f64) -> u32 {
    (prob.clamp(0.0, 1.0) * 1_000_000.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let node = NodeId::from_seed(1);
        let cid = Cid::from_bytes(b"blob");
        for plan in [FaultPlan::none(), FaultPlan::seeded(99)] {
            assert!(plan.node_up(&node, u64::MAX));
            assert_eq!(plan.latency_of(&node), DEFAULT_LATENCY_TICKS);
            assert!((0..256).all(|n| !plan.should_drop(&node, n)));
            assert!(!plan.corrupts(&node, &cid));
            assert!(!plan.is_stale(&node, &cid));
            assert!(!plan.is_byzantine(&node));
            assert!(!plan.withholds_ack(&node));
        }
    }

    #[test]
    fn drop_decisions_are_deterministic() {
        let plan = FaultPlan::seeded(7).with_global_drop(0.5);
        let node = NodeId::from_seed(3);
        let run1: Vec<bool> = (0..64).map(|n| plan.should_drop(&node, n)).collect();
        let run2: Vec<bool> = (0..64).map(|n| plan.should_drop(&node, n)).collect();
        assert_eq!(run1, run2);
        // A 50% rate must actually drop some and pass some.
        assert!(run1.iter().any(|d| *d));
        assert!(run1.iter().any(|d| !*d));
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::seeded(11).with_global_drop(0.25);
        let node = NodeId::from_seed(1);
        let drops = (0..10_000).filter(|n| plan.should_drop(&node, *n)).count();
        assert!((2_000..3_000).contains(&drops), "got {drops} drops");
    }

    #[test]
    fn crash_schedule_respects_clock() {
        let node = NodeId::from_seed(4);
        let plan = FaultPlan::seeded(0).with_crash_at(node, 10);
        assert!(plan.node_up(&node, 0));
        assert!(plan.node_up(&node, 9));
        assert!(!plan.node_up(&node, 10));
        assert!(!plan.node_up(&node, 1_000));
    }

    #[test]
    fn byzantine_and_ack_withholding_flavours() {
        let node = NodeId::from_seed(9);
        let other = NodeId::from_seed(10);
        let cid = Cid::from_bytes(b"blob");
        let plan = FaultPlan::seeded(1)
            .with_byzantine_node(node)
            .with_ack_withholding(other);
        assert!(plan.is_byzantine(&node));
        assert!(!plan.is_byzantine(&other));
        // A Byzantine node corrupts every cid, not just scheduled ones.
        assert!(plan.corrupts(&node, &cid));
        assert!(!plan.corrupts(&other, &cid));
        assert!(plan.withholds_ack(&other));
        assert!(!plan.withholds_ack(&node));
    }

    #[test]
    fn zero_probability_never_drops() {
        let plan = FaultPlan::seeded(5);
        let node = NodeId::from_seed(2);
        assert!((0..1000).all(|n| !plan.should_drop(&node, n)));
    }
}

//! Kademlia-style XOR-metric placement over simulated nodes.
//!
//! Faithful to the part of the protocol ZKDET relies on — a key's home is
//! the live node XOR-closest to it — while running in a single process
//! with deterministic node identities.

use std::collections::BTreeMap;
use std::sync::Arc;

use zkdet_crypto::sha256;

use crate::Cid;

/// A node identifier in the same 256-bit key space as [`Cid`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub [u8; 32]);

impl NodeId {
    /// Derives a node identity from a seed (deterministic for tests).
    pub fn from_seed(seed: u64) -> NodeId {
        let mut data = b"zkdet-dht-node".to_vec();
        data.extend_from_slice(&seed.to_le_bytes());
        NodeId(sha256(&data))
    }
}

impl core::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Node(")?;
        for b in &self.0[..4] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

/// XOR distance between a node and a key, as a big-endian 256-bit integer.
pub fn xor_distance(node: &NodeId, key: &Cid) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (o, (a, b)) in out.iter_mut().zip(node.0.iter().zip(key.as_bytes())) {
        *o = a ^ b;
    }
    out
}

/// One simulated storage node: its block store.
#[derive(Clone, Debug, Default)]
pub struct DhtNode {
    /// Blocks (erasure shares, keyed by share key) pinned on this node.
    pub(crate) blocks: BTreeMap<Cid, Arc<[u8]>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_distance_properties() {
        let a = NodeId::from_seed(1);
        let b = NodeId::from_seed(2);
        let key = Cid::from_bytes(b"k");
        // d(x, x-as-key) = 0
        assert_eq!(xor_distance(&a, &Cid(a.0)), [0u8; 32]);
        // symmetry of the underlying metric: d(a⊕key) ≠ d(b⊕key) generically
        assert_ne!(xor_distance(&a, &key), xor_distance(&b, &key));
    }

    #[test]
    fn node_ids_are_deterministic() {
        assert_eq!(NodeId::from_seed(7), NodeId::from_seed(7));
        assert_ne!(NodeId::from_seed(7), NodeId::from_seed(8));
    }
}

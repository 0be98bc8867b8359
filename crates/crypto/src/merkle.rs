//! Poseidon Merkle trees.
//!
//! Used by the gadget library (§IV-D lists "Merkle proof" among the
//! cryptographic primitives) and by provenance digests in the core
//! protocols.

use zkdet_field::{Field, Fr};

use crate::poseidon::Poseidon;

/// A complete binary Merkle tree over field-element leaves.
///
/// Leaves are padded with `Fr::ZERO` up to the next power of two; the empty
/// tree has root `Poseidon::hash(&[])`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleTree {
    /// Level 0 = leaves (padded), up to the root's two children; empty for
    /// a one-leaf tree.
    levels: Vec<Vec<Fr>>,
    root: Fr,
}

/// An authentication path from a leaf to the root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerklePath {
    /// The leaf index this path authenticates.
    pub leaf_index: usize,
    /// Sibling hashes from the leaf level upward.
    pub siblings: Vec<Fr>,
}

impl MerkleTree {
    /// Builds a tree over the given leaves.
    pub fn new(leaves: &[Fr]) -> Self {
        if leaves.is_empty() {
            return MerkleTree {
                levels: vec![],
                root: Poseidon::hash(&[]),
            };
        }
        let mut level: Vec<Fr> = leaves.to_vec();
        level.resize(leaves.len().next_power_of_two(), Fr::ZERO);
        let mut levels = Vec::new();
        // Each pass halves a power-of-two level, so it ends at one node.
        loop {
            if let [root] = level[..] {
                return MerkleTree { levels, root };
            }
            let next: Vec<Fr> = level
                .as_chunks::<2>()
                .0
                .iter()
                .map(|&[left, right]| Poseidon::hash_two(left, right))
                .collect();
            levels.push(std::mem::replace(&mut level, next));
        }
    }

    /// The Merkle root.
    pub fn root(&self) -> Fr {
        self.root
    }

    /// Number of (padded) leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels.first().map_or(1, Vec::len)
    }

    /// Tree depth (0 for a single-leaf tree).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Authentication path for the given leaf.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn path(&self, index: usize) -> MerklePath {
        assert!(index < self.leaf_count(), "leaf index out of range");
        let mut siblings = Vec::with_capacity(self.depth());
        let mut idx = index;
        for level in &self.levels {
            siblings.push(level[idx ^ 1]);
            idx >>= 1;
        }
        MerklePath {
            leaf_index: index,
            siblings,
        }
    }

    /// Verifies a path against a root.
    pub fn verify(root: Fr, leaf: Fr, path: &MerklePath) -> bool {
        let mut acc = leaf;
        let mut idx = path.leaf_index;
        for sibling in &path.siblings {
            acc = if idx & 1 == 0 {
                Poseidon::hash_two(acc, *sibling)
            } else {
                Poseidon::hash_two(*sibling, acc)
            };
            idx >>= 1;
        }
        acc == root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn paths_verify_for_all_leaves() {
        let mut rng = StdRng::seed_from_u64(100);
        let leaves: Vec<Fr> = (0..11).map(|_| Fr::random(&mut rng)).collect();
        let tree = MerkleTree::new(&leaves);
        assert_eq!(tree.leaf_count(), 16);
        assert_eq!(tree.depth(), 4);
        for (i, leaf) in leaves.iter().enumerate() {
            let path = tree.path(i);
            assert!(MerkleTree::verify(tree.root(), *leaf, &path));
        }
    }

    #[test]
    fn wrong_leaf_or_index_fails() {
        let mut rng = StdRng::seed_from_u64(101);
        let leaves: Vec<Fr> = (0..8).map(|_| Fr::random(&mut rng)).collect();
        let tree = MerkleTree::new(&leaves);
        let path = tree.path(3);
        assert!(!MerkleTree::verify(tree.root(), leaves[3] + Fr::ONE, &path));
        let mut wrong_idx = tree.path(3);
        wrong_idx.leaf_index = 2;
        assert!(!MerkleTree::verify(tree.root(), leaves[3], &wrong_idx));
    }

    #[test]
    fn tampered_sibling_fails() {
        let mut rng = StdRng::seed_from_u64(102);
        let leaves: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
        let tree = MerkleTree::new(&leaves);
        let mut path = tree.path(0);
        path.siblings[1] += Fr::ONE;
        assert!(!MerkleTree::verify(tree.root(), leaves[0], &path));
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let mut rng = StdRng::seed_from_u64(103);
        let leaves: Vec<Fr> = (0..8).map(|_| Fr::random(&mut rng)).collect();
        let base = MerkleTree::new(&leaves).root();
        for i in 0..8 {
            let mut mutated = leaves.clone();
            mutated[i] += Fr::ONE;
            assert_ne!(MerkleTree::new(&mutated).root(), base);
        }
    }

    #[test]
    fn singleton_and_empty_trees() {
        let one = MerkleTree::new(&[Fr::from(5u64)]);
        assert_eq!(one.depth(), 0);
        assert_eq!(one.root(), Fr::from(5u64));
        assert!(MerkleTree::verify(one.root(), Fr::from(5u64), &one.path(0)));
        let empty = MerkleTree::new(&[]);
        assert_eq!(empty.depth(), 0);
    }
}

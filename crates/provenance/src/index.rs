//! The incrementally-maintained transformation-DAG index.
//!
//! One [`ProvenanceIndex`] owns the full mint/transform history of a token
//! registry: for every node its parents and children, its depth, and
//! whether it has been burned. Structure is maintained *at insert time* —
//! parent-existence and acyclicity are rejected up front, so every query
//! can assume a DAG — and ancestor sets are memoised behind the query
//! surface so repeated lineage walks (the common auditing pattern) cost
//! one lookup.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use zkdet_field::Fr;

/// A node identifier — the numeric token id of the registry the index
/// shadows (chain-side `TokenId(u64)` converts losslessly).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct NodeId(pub u64);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Structural errors the index rejects at the mutation boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DagError {
    /// The node id is already present.
    DuplicateNode(NodeId),
    /// A declared parent is not in the index.
    MissingParent {
        /// The node being inserted.
        child: NodeId,
        /// The absent parent.
        parent: NodeId,
    },
    /// Inserting the edge would close a cycle (includes self-parenting).
    WouldCycle {
        /// The node being inserted.
        child: NodeId,
        /// The offending parent.
        parent: NodeId,
    },
    /// The queried node is not in the index.
    UnknownNode(NodeId),
}

impl core::fmt::Display for DagError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DagError::DuplicateNode(n) => write!(f, "node {n} already indexed"),
            DagError::MissingParent { child, parent } => {
                write!(f, "node {child} names missing parent {parent}")
            }
            DagError::WouldCycle { child, parent } => {
                write!(f, "edge {child} → {parent} would create a cycle")
            }
            DagError::UnknownNode(n) => write!(f, "node {n} is not indexed"),
        }
    }
}

impl std::error::Error for DagError {}

/// Per-node record.
#[derive(Clone, Debug)]
pub(crate) struct NodeRecord {
    pub(crate) parents: Vec<NodeId>,
    pub(crate) children: Vec<NodeId>,
    /// The node's public payload commitment (`c_d` on-chain).
    pub(crate) payload: Fr,
    /// Human-readable transformation label ("original", "aggregation", …).
    pub(crate) label: String,
    /// Longest path from any root (0 for roots).
    pub(crate) depth: usize,
    pub(crate) burned: bool,
}

/// Metric names for the index (DESIGN.md §10 naming scheme).
mod metric {
    pub const INSERTS: &str = "zkdet.provenance.index.inserts";
    pub const BURNS: &str = "zkdet.provenance.index.burns";
    pub const MEMO_HITS: &str = "zkdet.provenance.index.memo.hits";
    pub const MEMO_MISSES: &str = "zkdet.provenance.index.memo.misses";
}

/// The indexed transformation DAG.
///
/// Mutations (`insert`, `mark_burned`) take `&mut self`; queries take
/// `&self` and memoise ancestor sets internally. Memoisation is sound
/// because inserts can only *add leaves* (parents must pre-exist, so no
/// new node ever becomes an ancestor of an existing one): ancestor sets of
/// existing nodes never change on insert. Burns tombstone the node — edges
/// are kept so lineage stays traceable through burned tokens — and drop
/// the memo table so any liveness-sensitive consumer re-derives.
#[derive(Default)]
pub struct ProvenanceIndex {
    nodes: BTreeMap<NodeId, NodeRecord>,
    /// Memoised BFS ancestor lists (excluding the node itself).
    ancestors_memo: Mutex<BTreeMap<NodeId, Arc<Vec<NodeId>>>>,
}

impl Clone for ProvenanceIndex {
    fn clone(&self) -> Self {
        ProvenanceIndex {
            nodes: self.nodes.clone(),
            // The memo restarts cold; it is a cache, not state.
            ancestors_memo: Mutex::new(BTreeMap::new()),
        }
    }
}

impl core::fmt::Debug for ProvenanceIndex {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ProvenanceIndex")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl ProvenanceIndex {
    /// Fresh, empty index.
    pub fn new() -> Self {
        ProvenanceIndex::default()
    }

    /// Number of indexed nodes (burned nodes included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been indexed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True when the node is indexed (live or burned).
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// True when the node is indexed and tombstoned.
    pub fn is_burned(&self, id: NodeId) -> bool {
        self.nodes.get(&id).is_some_and(|n| n.burned)
    }

    /// Indexes a new node below `parents` (in the given order, which is
    /// preserved by every ancestry query).
    ///
    /// # Errors
    ///
    /// [`DagError::DuplicateNode`] when `id` is already present,
    /// [`DagError::MissingParent`] when a parent is unknown, and
    /// [`DagError::WouldCycle`] when a parent equals `id` (the only cycle
    /// shape reachable when parents must pre-exist). Nothing is mutated on
    /// error.
    pub fn insert(
        &mut self,
        id: NodeId,
        payload: Fr,
        parents: &[NodeId],
        label: impl Into<String>,
    ) -> Result<(), DagError> {
        if self.nodes.contains_key(&id) {
            return Err(DagError::DuplicateNode(id));
        }
        let mut depth = 0usize;
        for p in parents {
            if *p == id {
                return Err(DagError::WouldCycle {
                    child: id,
                    parent: *p,
                });
            }
            let rec = self.nodes.get(p).ok_or(DagError::MissingParent {
                child: id,
                parent: *p,
            })?;
            depth = depth.max(rec.depth + 1);
        }
        self.nodes.insert(
            id,
            NodeRecord {
                parents: parents.to_vec(),
                children: Vec::new(),
                payload,
                label: label.into(),
                depth,
                burned: false,
            },
        );
        // Dedupe the reverse edges so a repeated parent (allowed in
        // prevIds[]) does not double-link the child.
        let mut linked = BTreeSet::new();
        for p in parents {
            if linked.insert(*p) {
                if let Some(rec) = self.nodes.get_mut(p) {
                    rec.children.push(id);
                }
            }
        }
        // Ancestor memos of existing nodes are untouched by a new leaf.
        zkdet_telemetry::counter_add(metric::INSERTS, 1);
        Ok(())
    }

    /// Tombstones a node. Edges are kept — burned ancestors still appear
    /// in lineage queries, mirroring `prevIds[]` on-chain — but the memo
    /// table is dropped so liveness-sensitive consumers re-derive.
    ///
    /// # Errors
    ///
    /// [`DagError::UnknownNode`] when the node was never indexed.
    pub fn mark_burned(&mut self, id: NodeId) -> Result<(), DagError> {
        let rec = self.nodes.get_mut(&id).ok_or(DagError::UnknownNode(id))?;
        rec.burned = true;
        self.memo().clear();
        zkdet_telemetry::counter_add(metric::BURNS, 1);
        Ok(())
    }

    /// The ancestor memo. It is a cache whose entries are whole BFS
    /// results, so a panic while it was held leaves nothing half-written:
    /// a poisoned lock is recovered rather than propagated.
    fn memo(&self) -> MutexGuard<'_, BTreeMap<NodeId, Arc<Vec<NodeId>>>> {
        self.ancestors_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The node's direct parents, in `prevIds[]` order.
    ///
    /// # Errors
    ///
    /// [`DagError::UnknownNode`] for unindexed nodes.
    pub fn parents(&self, id: NodeId) -> Result<&[NodeId], DagError> {
        self.nodes
            .get(&id)
            .map(|n| n.parents.as_slice())
            .ok_or(DagError::UnknownNode(id))
    }

    /// The node's payload commitment.
    ///
    /// # Errors
    ///
    /// [`DagError::UnknownNode`] for unindexed nodes.
    pub fn payload(&self, id: NodeId) -> Result<Fr, DagError> {
        self.nodes
            .get(&id)
            .map(|n| n.payload)
            .ok_or(DagError::UnknownNode(id))
    }

    /// The node's transformation label.
    ///
    /// # Errors
    ///
    /// [`DagError::UnknownNode`] for unindexed nodes.
    pub fn label(&self, id: NodeId) -> Result<&str, DagError> {
        self.nodes
            .get(&id)
            .map(|n| n.label.as_str())
            .ok_or(DagError::UnknownNode(id))
    }

    /// Longest root-to-node path length (0 for roots), maintained
    /// incrementally at insert.
    ///
    /// # Errors
    ///
    /// [`DagError::UnknownNode`] for unindexed nodes.
    pub fn depth(&self, id: NodeId) -> Result<usize, DagError> {
        self.nodes
            .get(&id)
            .map(|n| n.depth)
            .ok_or(DagError::UnknownNode(id))
    }

    /// All ancestors of `id` in BFS order (nearest first, excluding `id`
    /// itself), exactly the paper's `prevIds[]` walk. Memoised: the first
    /// call costs O(sub-DAG), repeats cost one map lookup.
    ///
    /// # Errors
    ///
    /// [`DagError::UnknownNode`] for unindexed nodes.
    pub fn ancestors(&self, id: NodeId) -> Result<Arc<Vec<NodeId>>, DagError> {
        if !self.nodes.contains_key(&id) {
            return Err(DagError::UnknownNode(id));
        }
        if let Some(hit) = self.memo().get(&id) {
            zkdet_telemetry::counter_add(metric::MEMO_HITS, 1);
            return Ok(hit.clone());
        }
        zkdet_telemetry::counter_add(metric::MEMO_MISSES, 1);
        let mut out = Vec::new();
        let mut queue = VecDeque::from([id]);
        let mut seen = BTreeSet::from([id]);
        while let Some(cur) = queue.pop_front() {
            if let Some(rec) = self.nodes.get(&cur) {
                for n in &rec.parents {
                    if seen.insert(*n) {
                        out.push(*n);
                        queue.push_back(*n);
                    }
                }
            }
        }
        let out = Arc::new(out);
        self.memo().insert(id, out.clone());
        Ok(out)
    }

    /// True when `ancestor` is reachable upward from `descendant`
    /// (equivalently: `descendant` derives, possibly transitively, from
    /// `ancestor`). A node does not reach itself.
    ///
    /// # Errors
    ///
    /// [`DagError::UnknownNode`] when either node is unindexed.
    pub fn reaches(&self, descendant: NodeId, ancestor: NodeId) -> Result<bool, DagError> {
        if !self.nodes.contains_key(&ancestor) {
            return Err(DagError::UnknownNode(ancestor));
        }
        Ok(self.ancestors(descendant)?.contains(&ancestor))
    }

    /// The sub-DAG rooted (downward) at `id` — `id` plus all ancestors — in
    /// the *canonical* topological order: Kahn's algorithm with a min-id
    /// tie-break. The order depends only on the DAG's shape, never on
    /// insertion order, which makes it the stable spine for lineage
    /// digests.
    ///
    /// # Errors
    ///
    /// [`DagError::UnknownNode`] for unindexed nodes.
    pub fn canonical_lineage(&self, id: NodeId) -> Result<Vec<NodeId>, DagError> {
        let ancestors = self.ancestors(id)?;
        let mut members: BTreeSet<NodeId> = ancestors.iter().copied().collect();
        members.insert(id);

        // In-degree restricted to the sub-DAG: every parent of a member is
        // itself a member (ancestor closure), so this is just the parent
        // count with repeated parents deduplicated.
        let mut indeg: BTreeMap<NodeId, usize> = BTreeMap::new();
        for m in &members {
            if let Some(rec) = self.nodes.get(m) {
                let distinct: BTreeSet<NodeId> = rec.parents.iter().copied().collect();
                indeg.insert(*m, distinct.len());
            }
        }
        let mut heap: BinaryHeap<core::cmp::Reverse<NodeId>> = indeg
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(n, _)| core::cmp::Reverse(*n))
            .collect();
        let mut out = Vec::with_capacity(members.len());
        while let Some(core::cmp::Reverse(n)) = heap.pop() {
            out.push(n);
            if let Some(rec) = self.nodes.get(&n) {
                for c in &rec.children {
                    if let Some(d) = indeg.get_mut(c) {
                        *d -= 1;
                        if *d == 0 {
                            heap.push(core::cmp::Reverse(*c));
                        }
                    }
                }
            }
        }
        debug_assert_eq!(out.len(), members.len(), "insert-time checks keep us acyclic");
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn fr(v: u64) -> Fr {
        Fr::from(v)
    }

    fn n(v: u64) -> NodeId {
        NodeId(v)
    }

    #[test]
    fn insert_rejects_duplicates_missing_parents_and_self_loops() {
        let mut idx = ProvenanceIndex::new();
        idx.insert(n(0), fr(1), &[], "original").unwrap();
        assert_eq!(
            idx.insert(n(0), fr(1), &[], "original"),
            Err(DagError::DuplicateNode(n(0)))
        );
        assert_eq!(
            idx.insert(n(1), fr(2), &[n(9)], "duplication"),
            Err(DagError::MissingParent {
                child: n(1),
                parent: n(9)
            })
        );
        assert_eq!(
            idx.insert(n(1), fr(2), &[n(1)], "duplication"),
            Err(DagError::WouldCycle {
                child: n(1),
                parent: n(1)
            })
        );
        // Failed inserts leave no residue.
        assert_eq!(idx.len(), 1);
        assert!(!idx.contains(n(1)));
    }

    #[test]
    fn bfs_ancestry_matches_the_contract_walk() {
        // 0, 1 originals; 2 = agg(0, 1); 3 = dup(2); 4 = part(3).
        let mut idx = ProvenanceIndex::new();
        idx.insert(n(0), fr(10), &[], "original").unwrap();
        idx.insert(n(1), fr(11), &[], "original").unwrap();
        idx.insert(n(2), fr(12), &[n(0), n(1)], "aggregation").unwrap();
        idx.insert(n(3), fr(13), &[n(2)], "duplication").unwrap();
        idx.insert(n(4), fr(14), &[n(3)], "partition").unwrap();

        let anc = idx.ancestors(n(4)).unwrap();
        assert_eq!(*anc, vec![n(3), n(2), n(0), n(1)]);
        // Memoised result is the same object.
        let again = idx.ancestors(n(4)).unwrap();
        assert!(Arc::ptr_eq(&anc, &again));

        assert!(idx.reaches(n(4), n(0)).unwrap());
        assert!(!idx.reaches(n(0), n(4)).unwrap());
        assert!(!idx.reaches(n(0), n(0)).unwrap());

        assert_eq!(idx.depth(n(0)).unwrap(), 0);
        assert_eq!(idx.depth(n(4)).unwrap(), 3);
    }

    #[test]
    fn burn_keeps_edges_but_tombstones() {
        let mut idx = ProvenanceIndex::new();
        idx.insert(n(0), fr(1), &[], "original").unwrap();
        idx.insert(n(1), fr(2), &[n(0)], "duplication").unwrap();
        idx.mark_burned(n(0)).unwrap();
        assert!(idx.is_burned(n(0)));
        assert_eq!(*idx.ancestors(n(1)).unwrap(), vec![n(0)]);
        assert_eq!(
            idx.mark_burned(n(7)),
            Err(DagError::UnknownNode(n(7)))
        );
    }

    #[test]
    fn canonical_lineage_is_topological_and_order_insensitive() {
        // Diamond: 0 → {1, 2} → 3, inserted in two different (topological)
        // orders with the same ids.
        let build = |order: &[(u64, &[u64])]| {
            let mut idx = ProvenanceIndex::new();
            for (id, parents) in order {
                let ps: Vec<NodeId> = parents.iter().map(|p| n(*p)).collect();
                idx.insert(n(*id), fr(100 + id), &ps, "x").unwrap();
            }
            idx
        };
        let a = build(&[(0, &[]), (1, &[0]), (2, &[0]), (3, &[1, 2])]);
        let b = build(&[(0, &[]), (2, &[0]), (1, &[0]), (3, &[2, 1])]);
        assert_eq!(a.canonical_lineage(n(3)).unwrap(), b.canonical_lineage(n(3)).unwrap());
        let lin = a.canonical_lineage(n(3)).unwrap();
        assert_eq!(lin, vec![n(0), n(1), n(2), n(3)]);
    }

    #[test]
    fn repeated_parent_links_once() {
        let mut idx = ProvenanceIndex::new();
        idx.insert(n(0), fr(1), &[], "original").unwrap();
        idx.insert(n(1), fr(2), &[n(0), n(0)], "processing").unwrap();
        assert_eq!(*idx.ancestors(n(1)).unwrap(), vec![n(0)]);
        // A double reverse link would drive the child's in-degree below
        // zero in Kahn's walk.
        assert_eq!(idx.canonical_lineage(n(1)).unwrap(), vec![n(0), n(1)]);
    }

    #[test]
    fn poisoned_memo_is_recovered() {
        let mut idx = ProvenanceIndex::new();
        idx.insert(n(0), fr(1), &[], "original").unwrap();
        idx.insert(n(1), fr(2), &[n(0)], "duplication").unwrap();
        let memoized = idx.ancestors(n(1)).unwrap();
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = idx.memo();
            panic!("poison the ancestor memo");
        }));
        assert!(poisoned.is_err());
        assert!(idx.ancestors_memo.is_poisoned());
        assert!(Arc::ptr_eq(&idx.ancestors(n(1)).unwrap(), &memoized));
        idx.insert(n(2), fr(3), &[n(1)], "duplication").unwrap();
        assert_eq!(*idx.ancestors(n(2)).unwrap(), vec![n(1), n(0)]);
    }
}

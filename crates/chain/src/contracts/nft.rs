//! The ERC-721 data-token contract with provenance links (§III-A/B).
//!
//! Beyond the standard ERC-721 surface (mint/transfer/burn/ownerOf/
//! approve), every token carries ZKDET metadata: the storage URI of the
//! encrypted dataset, the Poseidon commitment `c_d` to its plaintext, the
//! `prevIds[]` provenance field linking to parent tokens, and a pointer to
//! the proof bundle (`π_e`, `π_t`) for the transformation that produced it.

use std::collections::BTreeMap;

use zkdet_field::Fr;
use zkdet_provenance::{NodeId, ProvenanceIndex};
use zkdet_storage::Cid;

use crate::chain::{ChainError, Event};
use crate::gas::GasMeter;
use crate::types::{Address, TokenId};

/// How a token's dataset was produced (§III-B operations 4–7).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransformKind {
    /// A freshly published dataset (no parents).
    Original,
    /// Merged from its parents (§IV-D 2).
    Aggregation,
    /// Split out of its parent (§IV-D 3).
    Partition,
    /// Byte-identical replica of its parent (§IV-D 1).
    Duplication,
    /// Derived by computation (model training etc., §IV-E); the string
    /// names the formula `f`.
    Processing(String),
}

impl TransformKind {
    /// Human-readable label used by the provenance index and its exports.
    pub fn label(&self) -> &str {
        match self {
            TransformKind::Original => "original",
            TransformKind::Aggregation => "aggregation",
            TransformKind::Partition => "partition",
            TransformKind::Duplication => "duplication",
            TransformKind::Processing(f) => f,
        }
    }
}

/// Per-token metadata stored on-chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TokenMeta {
    /// URI (content hash) of the encrypted dataset in public storage.
    pub cid: Cid,
    /// Poseidon commitment `c_d` to the plaintext dataset.
    pub commitment: Fr,
    /// Parent tokens (`prevIds[]` in the paper).
    pub prev_ids: Vec<TokenId>,
    /// Transformation that produced the dataset.
    pub kind: TransformKind,
    /// Storage pointer to the proof bundle (`π_e` and, for derived
    /// datasets, `π_t`) that anyone can fetch and verify.
    pub proof_cid: Option<Cid>,
}

/// The data-NFT registry.
///
/// The transformation DAG lives in an embedded [`ProvenanceIndex`] that is
/// kept in lockstep with mint/burn: every mint is indexed (burned tokens
/// stay as tombstones so lineage remains traceable through them), and
/// lineage queries delegate to the index instead of re-walking `prevIds[]`
/// maps on every call.
#[derive(Clone, Debug, Default)]
pub struct NftContract {
    owners: BTreeMap<TokenId, Address>,
    meta: BTreeMap<TokenId, TokenMeta>,
    approvals: BTreeMap<TokenId, Address>,
    balances: BTreeMap<Address, u64>,
    next_id: u64,
    total_supply: u64,
    index: ProvenanceIndex,
}

/// Estimated deployed-code size in bytes (a flattened ERC-721 with the
/// ZKDET metadata extensions — calibrated against the paper's 1,020,954-gas
/// deployment).
pub(crate) const NFT_CODE_BYTES: usize = 4_830;

impl NftContract {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh registry whose token ids start at `base` instead of 0.
    ///
    /// A sharded marketplace deploys one registry per shard with disjoint
    /// `base` values, so every shard mints from its own token-id range and
    /// a token id alone routes to its shard (DESIGN.md §16).
    pub fn with_base(base: u64) -> Self {
        NftContract {
            next_id: base,
            ..Self::default()
        }
    }

    /// Total tokens ever minted minus burned.
    pub fn total_supply(&self) -> u64 {
        self.total_supply
    }

    /// Owner lookup.
    ///
    /// # Errors
    ///
    /// [`ChainError::NoSuchToken`] for unknown or burned tokens.
    pub fn owner_of(&self, id: TokenId) -> Result<Address, ChainError> {
        self.owners.get(&id).copied().ok_or(ChainError::NoSuchToken(id))
    }

    /// ERC-721 `balanceOf`.
    pub fn balance_of(&self, addr: &Address) -> u64 {
        self.balances.get(addr).copied().unwrap_or(0)
    }

    /// Token metadata.
    ///
    /// # Errors
    ///
    /// [`ChainError::NoSuchToken`] for unknown or burned tokens.
    pub fn token_meta(&self, id: TokenId) -> Result<&TokenMeta, ChainError> {
        self.meta.get(&id).ok_or(ChainError::NoSuchToken(id))
    }

    /// Iterates every live token in id order with its owner and metadata
    /// (the chain-state export walks this).
    pub fn tokens(&self) -> impl Iterator<Item = (TokenId, &Address, &TokenMeta)> {
        self.owners.iter().filter_map(|(id, owner)| {
            self.meta.get(id).map(|meta| (*id, owner, meta))
        })
    }

    /// Mints a token. Parents must exist; the transformation kind must be
    /// consistent with the parent count.
    pub fn mint(
        &mut self,
        meter: &mut GasMeter,
        events: &mut Vec<Event>,
        to: Address,
        meta: TokenMeta,
    ) -> Result<TokenId, ChainError> {
        match (&meta.kind, meta.prev_ids.len()) {
            (TransformKind::Original, 0) => {}
            (TransformKind::Original, _) => return Err(ChainError::InvalidProvenance),
            (TransformKind::Aggregation, n) if n >= 2 => {}
            (TransformKind::Partition | TransformKind::Duplication, 1) => {}
            (TransformKind::Processing(_), n) if n >= 1 => {}
            _ => return Err(ChainError::InvalidProvenance),
        }
        for p in &meta.prev_ids {
            meter.sload();
            if !self.meta.contains_key(p) {
                return Err(ChainError::NoSuchToken(*p));
            }
        }
        let id = TokenId(self.next_id);
        self.next_id += 1;

        // Storage writes: owner, cid, commitment, kind+proof pointer,
        // one slot per parent link, balance, total supply.
        meter.sstore(true); // owner
        meter.sstore(true); // cid + kind + proof pointer (packed record)
        meter.sstore(true); // commitment
        for _ in &meta.prev_ids {
            meter.sstore(true);
        }
        let fresh_holder = self.balance_of(&to) == 0;
        meter.sstore(fresh_holder); // balance
        meter.sstore(self.total_supply == 0); // totalSupply
        meter.log(3, 32); // Transfer(0, to, id)

        let parents: Vec<NodeId> = meta.prev_ids.iter().map(|p| NodeId(p.0)).collect();
        self.index
            .insert(NodeId(id.0), meta.commitment, &parents, meta.kind.label())
            .map_err(|_| ChainError::InvalidProvenance)?;

        self.owners.insert(id, to);
        self.meta.insert(id, meta);
        *self.balances.entry(to).or_insert(0) += 1;
        self.total_supply += 1;
        events.push(Event::Transfer {
            from: Address::ZERO,
            to,
            token: id,
        });
        Ok(id)
    }

    /// ERC-721 `transferFrom` (caller must be owner or approved).
    pub fn transfer(
        &mut self,
        meter: &mut GasMeter,
        events: &mut Vec<Event>,
        caller: Address,
        to: Address,
        id: TokenId,
    ) -> Result<(), ChainError> {
        meter.sload();
        let owner = self.owner_of(id)?;
        meter.sload();
        let approved = self.approvals.get(&id) == Some(&caller);
        if caller != owner && !approved {
            return Err(ChainError::NotAuthorized { caller, token: id });
        }
        meter.sstore(false); // owner slot
        meter.sstore(false); // from balance
        meter.sstore(self.balance_of(&to) == 0); // to balance
        if self.approvals.remove(&id).is_some() {
            meter.sstore_clear();
        }
        meter.log(3, 0);

        self.owners.insert(id, to);
        *self.balances.entry(owner).or_insert(1) -= 1;
        *self.balances.entry(to).or_insert(0) += 1;
        events.push(Event::Transfer {
            from: owner,
            to,
            token: id,
        });
        Ok(())
    }

    /// ERC-721 `approve`.
    pub fn approve(
        &mut self,
        meter: &mut GasMeter,
        events: &mut Vec<Event>,
        caller: Address,
        spender: Address,
        id: TokenId,
    ) -> Result<(), ChainError> {
        meter.sload();
        let owner = self.owner_of(id)?;
        if caller != owner {
            return Err(ChainError::NotAuthorized { caller, token: id });
        }
        meter.sstore(true);
        meter.log(3, 0);
        self.approvals.insert(id, spender);
        events.push(Event::Approval {
            owner,
            spender,
            token: id,
        });
        Ok(())
    }

    /// Burns a token, taking the dataset out of circulation (§III-B op 3).
    pub fn burn(
        &mut self,
        meter: &mut GasMeter,
        events: &mut Vec<Event>,
        caller: Address,
        id: TokenId,
    ) -> Result<(), ChainError> {
        meter.sload();
        let owner = self.owner_of(id)?;
        if caller != owner {
            return Err(ChainError::NotAuthorized { caller, token: id });
        }
        meter.sstore_clear(); // owner
        meter.sstore_clear(); // cid
        meter.sstore_clear(); // commitment
        meter.sstore(false); // balance
        meter.sstore(false); // total supply
        meter.log(3, 0);

        self.owners.remove(&id);
        self.meta.remove(&id);
        self.approvals.remove(&id);
        // Tombstone, not removal: descendants keep tracing through it.
        let _ = self.index.mark_burned(NodeId(id.0));
        *self.balances.entry(owner).or_insert(1) -= 1;
        self.total_supply -= 1;
        events.push(Event::Transfer {
            from: owner,
            to: Address::ZERO,
            token: id,
        });
        Ok(())
    }

    /// Full provenance of a token: ancestors in BFS order (the paper's
    /// "traced through `prevIds[]` up to their sources", §III-B). Burned
    /// ancestors still appear (their ids are recorded in the children).
    pub fn provenance(&self, id: TokenId) -> Result<Vec<TokenId>, ChainError> {
        if !self.meta.contains_key(&id) {
            return Err(ChainError::NoSuchToken(id));
        }
        let ancestors = self
            .index
            .ancestors(NodeId(id.0))
            .map_err(|_| ChainError::NoSuchToken(id))?;
        Ok(ancestors.iter().map(|n| TokenId(n.0)).collect())
    }

    /// The embedded transformation-DAG index (lineage digests, DOT/JSON
    /// export, reachability — everything beyond the plain ancestor list).
    pub fn provenance_index(&self) -> &ProvenanceIndex {
        &self.index
    }
}

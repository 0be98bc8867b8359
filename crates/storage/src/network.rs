//! The public storage-network API used by the ZKDET protocols.
//!
//! One durability backend, a Byzantine quorum: blobs are erasure-coded
//! into `n` shares of which any `k` reconstruct, each share digest-bound
//! to the content CID by a [`ShareManifest`] and placed on the live node
//! XOR-closest to its share key; writes are acknowledged only after `w`
//! distinct-node durability acks, reads reconstruct from any `k` shares
//! with share-level tamper attribution, and a deterministic repair
//! scheduler restores redundancy after churn.
//!
//! There is one read, [`StorageNetwork::retrieve`]: up to four sweeps
//! (`MAX_SWEEPS`) of the share slots, a capped exponential backoff on the
//! simulated clock between sweeps that lost requests to drops, hedged
//! probes past slow or stale holders, and degraded reads (exactly `k`
//! usable shares) served and flagged. On a fault-free network it makes
//! one sweep and waits for nothing.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::dht::{xor_distance, DhtNode, NodeId};
use crate::erasure::ErasureCodec;
use crate::fault::FaultPlan;
use crate::health::{self, NodeHealthSnapshot, NodeHealthStats};
use crate::manifest::ShareManifest;
use crate::quorum::{DurabilityReport, QuorumConfig, RepairReport, TamperEvidence};
use crate::Cid;

/// Minimum simulated ticks between two background repair passes driven by
/// [`StorageNetwork::tick_repairs`].
pub const REPAIR_INTERVAL_TICKS: u64 = 16;

/// Share sweeps a read makes before it gives up on dropped requests.
const MAX_SWEEPS: u32 = 4;
/// Backoff after the first sweep that lost requests, in simulated ticks;
/// it doubles per sweep.
const BASE_BACKOFF_TICKS: u64 = 2;
/// Ceiling on one backoff wait.
const MAX_BACKOFF_TICKS: u64 = 64;
/// A share holder answering slower than this many ticks counts as a
/// hedge: its share is held in reserve and used only if the faster
/// holders do not reach `k`.
const HEDGE_LATENCY_TICKS: u64 = 8;

/// The wait after sweep `sweep` (0-based) lost requests: capped
/// exponential.
fn backoff_for(sweep: u32) -> u64 {
    let factor = 1u64.checked_shl(sweep).unwrap_or(u64::MAX);
    BASE_BACKOFF_TICKS
        .saturating_mul(factor)
        .min(MAX_BACKOFF_TICKS)
}

/// Identifier of the party that pinned a block (only the owner may unpin —
/// "any persisted dataset will not be removed unless explicitly requested
/// by its owner", §IV-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PinOwner(pub u64);

/// Errors surfaced by the storage network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Nothing is pinned under the requested CID (definitive: no share
    /// manifest exists for it).
    NotFound(Cid),
    /// Shares were served whose bytes fail their digest check (tampering),
    /// and fewer than `k` intact shares could be reached.
    DigestMismatch(Cid),
    /// Unpin attempted by a non-owner.
    NotOwner(Cid),
    /// Enough shares may exist but the retry budget was exhausted on
    /// dropped or unanswered requests — transient by nature, safe to retry
    /// later.
    Unavailable(Cid),
    /// A publish could not gather its durability quorum: fewer than the
    /// required number of distinct live nodes acknowledged the write. The
    /// write was rolled back — the data is **not** durable.
    InsufficientAcks {
        /// The content that failed to publish.
        cid: Cid,
        /// Distinct-node acks received.
        acked: u32,
        /// Acks required: `w`, capped at the node count when the cluster
        /// is smaller than `w`.
        required: u32,
    },
    /// Fewer than `k` intact shares of a published blob survive —
    /// the fault budget (`n − k`) was exceeded and the content cannot be
    /// reconstructed without out-of-band restore.
    QuorumLoss {
        /// The unreconstructible content.
        cid: Cid,
        /// Intact shares found.
        intact: u32,
        /// Shares required (`k`).
        required: u32,
    },
}

impl StorageError {
    /// `true` for faults that a later retry could clear (the network was
    /// flaky, not the data wrong).
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::Unavailable(_))
    }
}

impl core::fmt::Display for StorageError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StorageError::NotFound(c) => write!(f, "content {c} not found"),
            StorageError::DigestMismatch(c) => write!(f, "content {c} failed digest check"),
            StorageError::NotOwner(c) => write!(f, "caller does not own pin for {c}"),
            StorageError::Unavailable(c) => {
                write!(f, "content {c} unavailable (requests dropped, retries exhausted)")
            }
            StorageError::InsufficientAcks {
                cid,
                acked,
                required,
            } => write!(
                f,
                "publish of {cid} got {acked} of {required} required durability acks"
            ),
            StorageError::QuorumLoss {
                cid,
                intact,
                required,
            } => write!(
                f,
                "content {cid} lost its quorum: {intact} of {required} required shares intact"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

/// Statistics of a retrieval (exposed for the curious, for tests, and for
/// the robustness counters the marketplace reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrievalStats {
    /// Share holders contacted in the successful attempt.
    pub hops: usize,
    /// Node that served the first share used for reconstruction.
    pub served_by: NodeId,
    /// Share sweeps made (1 = the first sweep succeeded, or failed
    /// definitively).
    pub attempts: u32,
    /// Redundant share probes issued (after drops, stale records, or
    /// slow holders).
    pub hedges: u32,
    /// Nodes quarantined for serving corrupt bytes during this retrieval.
    pub quarantined: u32,
    /// Total simulated ticks spent in exponential backoff.
    pub backoff_ticks: u64,
    /// The read succeeded with exactly `k` usable shares — zero
    /// redundancy margin. The blob is queued for repair.
    pub degraded: bool,
}

struct Inner {
    nodes: BTreeMap<NodeId, DhtNode>,
    /// Pin ownership records. Invariant: `owners` and `manifests` have
    /// the same key set — an acknowledged publish inserts both, a
    /// rolled-back one neither, and unpin removes both — so a scan over
    /// `manifests` visits every pinned blob.
    owners: BTreeMap<Cid, PinOwner>,
    /// Adversarial test hook: corrupt a stored blob in place (every
    /// share — for single-holder corruption use
    /// [`FaultPlan::with_corrupt_replica`]).
    corrupted: Vec<Cid>,
    /// Installed fault schedule (inert by default).
    faults: FaultPlan,
    /// Simulated clock, advanced by request latency and backoff waits.
    clock: u64,
    /// Monotonic request counter feeding the fault plan's drop PRF.
    nonce: u64,
    /// Nodes that served corrupt bytes; skipped by reads.
    quarantined: BTreeSet<NodeId>,
    /// Erasure/quorum parameters.
    quorum: QuorumConfig,
    /// Share manifests of published blobs (same keys as `owners`).
    manifests: BTreeMap<Cid, ShareManifest>,
    /// Every CID whose publish was acknowledged (durability promised).
    acked: Vec<Cid>,
    /// Share-level tamper evidence gathered by quorum reads.
    tamper_log: Vec<TamperEvidence>,
    /// Blobs awaiting a repair pass (damage seen by reads or churn).
    repair_queue: BTreeSet<Cid>,
    /// Earliest tick at which [`StorageNetwork::tick_repairs`] runs again.
    next_repair_due: u64,
    /// Per-node health counters feeding the Byzantine-suspicion score.
    /// Entries persist across [`StorageNetwork::kill_node`] — evidence
    /// against a node outlives the node.
    health: BTreeMap<NodeId, NodeHealthStats>,
}

impl Inner {
    fn health_of(&mut self, node: NodeId) -> &mut NodeHealthStats {
        self.health.entry(node).or_default()
    }
}

/// A simulated content-addressed storage network (IPFS substitute).
///
/// Thread-safe behind one lock; the protocols hold one handle per
/// deployment.
pub struct StorageNetwork {
    inner: RwLock<Inner>,
}

impl StorageNetwork {
    /// Spins up a network of `num_nodes` deterministic nodes under the
    /// fault schedule `plan`: blobs are erasure-coded per `config`,
    /// published only after `config.write_quorum()` distinct-node acks,
    /// and read back by reconstructing from any `config.data_shares()`
    /// intact shares.
    pub fn with_quorum(num_nodes: usize, config: QuorumConfig, plan: FaultPlan) -> Self {
        assert!(num_nodes >= 1, "network needs at least one node");
        let nodes = (0..num_nodes as u64)
            .map(|seed| (NodeId::from_seed(seed), DhtNode::default()))
            .collect();
        StorageNetwork {
            inner: RwLock::new(Inner {
                nodes,
                owners: BTreeMap::new(),
                corrupted: vec![],
                faults: plan,
                clock: 0,
                nonce: 0,
                quarantined: BTreeSet::new(),
                quorum: config,
                manifests: BTreeMap::new(),
                acked: Vec::new(),
                tamper_log: Vec::new(),
                repair_queue: BTreeSet::new(),
                next_repair_due: 0,
                health: BTreeMap::new(),
            }),
        }
    }

    /// Shared access to the network state. A poisoned lock is recovered
    /// rather than propagated, so one caller that panicked under the guard
    /// does not fail every later storage call.
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access to the network state; see [`Self::read`].
    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Installs (replaces) the fault schedule.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.write().faults = plan;
    }

    /// Current simulated time in ticks.
    pub fn now(&self) -> u64 {
        self.read().clock
    }

    /// Advances the simulated clock (e.g. to trigger scheduled crashes).
    pub fn advance_clock(&self, ticks: u64) {
        self.write().clock += ticks;
    }

    /// Re-admits every quarantined node — the operator repaired or
    /// replaced the corrupt replicas (chaos harnesses call this between
    /// schedules so one schedule's quarantine doesn't starve the next).
    pub fn clear_quarantine(&self) {
        let mut inner = self.write();
        inner.quarantined.clear();
        // Re-admission lifts the quarantine component of the suspicion
        // score; accumulated tamper evidence still counts against the node.
        for stats in inner.health.values_mut() {
            stats.quarantined = false;
        }
    }

    /// Nodes currently quarantined for serving corrupt bytes.
    pub fn quarantined_nodes(&self) -> Vec<NodeId> {
        let inner = self.read();
        let mut out: Vec<NodeId> = inner.quarantined.iter().copied().collect();
        out.sort();
        out
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.read().nodes.len()
    }

    /// All node identities, sorted (chaos tests target these).
    pub fn node_ids(&self) -> Vec<NodeId> {
        let inner = self.read();
        let mut out: Vec<NodeId> = inner.nodes.keys().copied().collect();
        out.sort();
        out
    }

    /// Publishes a blob and returns its URI (= CID) once durability is
    /// acknowledged.
    ///
    /// The blob is erasure-coded into `n` shares placed on distinct
    /// **live** nodes and acknowledged only after `w` distinct nodes
    /// acked. A failed publish is rolled back — this method never reports
    /// a CID whose durability promise does not hold.
    ///
    /// Writes are modelled as retried-until-delivered, so the plan's
    /// request-drop PRF does not affect them; only crashed nodes (which
    /// cannot store) and ack-withholding nodes (which store but stay
    /// silent) deny acks.
    ///
    /// # Errors
    ///
    /// [`StorageError::InsufficientAcks`] when too few live nodes
    /// acknowledged; the write was rolled back.
    pub fn publish(
        &self,
        owner: PinOwner,
        data: impl Into<Arc<[u8]>>,
    ) -> Result<Cid, StorageError> {
        let data = data.into();
        let mut span = zkdet_telemetry::span("storage.publish");
        if span.is_recording() {
            span.record("bytes", data.len() as u64);
            zkdet_telemetry::counter_add("zkdet.storage.publish.calls", 1);
            zkdet_telemetry::counter_add("zkdet.storage.publish.bytes", data.len() as u64);
        }
        let cid = Cid::from_bytes(&data);
        let mut inner = self.write();
        let result = publish_quorum(&mut inner, owner, cid, &data);
        if span.is_recording() {
            span.record("ok", u64::from(result.is_ok()));
            if result.is_err() {
                zkdet_telemetry::counter_add("zkdet.storage.publish.rejected", 1);
            }
        }
        result
    }

    /// Retrieves a blob by sweeping its share slots and reconstructing
    /// from any `k` digest-verified shares, re-checking the whole-blob CID
    /// on arrival. Fights infrastructure faults: a sweep that lost
    /// requests to drops is retried after a backoff on the simulated
    /// clock, up to four sweeps; further holders are probed when
    /// one drops, is stale, or answers slowly (a hedge); nodes caught
    /// serving corrupt bytes are quarantined and the sweep goes on with
    /// the other holders.
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] when nothing is pinned under `cid`;
    /// [`StorageError::QuorumLoss`] when fewer than `k` shares survive;
    /// [`StorageError::DigestMismatch`] when corrupt shares left fewer
    /// than `k` intact ones; [`StorageError::Unavailable`] when every
    /// sweep lost too many requests to drops.
    pub fn retrieve(&self, cid: &Cid) -> Result<Arc<[u8]>, StorageError> {
        self.retrieve_with_stats(cid).map(|(b, _)| b)
    }

    /// [`Self::retrieve`] with lookup statistics.
    pub fn retrieve_with_stats(
        &self,
        cid: &Cid,
    ) -> Result<(Arc<[u8]>, RetrievalStats), StorageError> {
        let mut span = zkdet_telemetry::span("storage.retrieve");
        let mut inner = self.write();
        if zkdet_telemetry::is_enabled() {
            zkdet_telemetry::counter_add("zkdet.storage.quorum.read.calls", 1);
        }
        let mut stats = RetrievalStats {
            hops: 0,
            served_by: NodeId([0u8; 32]),
            attempts: 0,
            hedges: 0,
            quarantined: 0,
            backoff_ticks: 0,
            degraded: false,
        };
        loop {
            stats.attempts += 1;
            match quorum_lookup_once(&mut inner, cid, &mut stats) {
                Ok(data) => {
                    note_retrieval(&mut span, &stats, true);
                    return Ok((data, stats));
                }
                // Drops are transient: back off and sweep again.
                Err(err) if err.is_transient() && stats.attempts < MAX_SWEEPS => {
                    let wait = backoff_for(stats.attempts - 1);
                    inner.clock += wait;
                    stats.backoff_ticks += wait;
                }
                // NotFound / QuorumLoss / DigestMismatch are definitive, and
                // the last sweep's drops end the read.
                Err(err) => {
                    note_retrieval(&mut span, &stats, false);
                    return Err(err);
                }
            }
        }
    }

    /// Unpins content; only the original publisher may do so (§IV-A).
    ///
    /// # Errors
    ///
    /// [`StorageError::NotOwner`] for anyone else;
    /// [`StorageError::NotFound`] if nothing is pinned under the CID.
    pub fn unpin(&self, owner: PinOwner, cid: &Cid) -> Result<(), StorageError> {
        let mut inner = self.write();
        match inner.owners.get(cid) {
            None => return Err(StorageError::NotFound(*cid)),
            Some(o) if *o != owner => return Err(StorageError::NotOwner(*cid)),
            Some(_) => {}
        }
        inner.owners.remove(cid);
        let share_keys: Vec<Cid> = inner
            .manifests
            .remove(cid)
            .map(|m| (0..m.total_shares()).map(|i| m.share_key(i)).collect())
            .unwrap_or_default();
        for node in inner.nodes.values_mut() {
            for key in &share_keys {
                node.blocks.remove(key);
            }
        }
        inner.acked.retain(|c| c != cid);
        inner.repair_queue.remove(cid);
        Ok(())
    }

    /// Kills a node (churn); content stays available while `k` of its
    /// shares live elsewhere, and every blob that lost a share is queued
    /// for repair.
    pub fn kill_node(&self, id: NodeId) {
        let mut inner = self.write();
        let Some(dead) = inner.nodes.remove(&id) else {
            return;
        };
        let dead_blocks: BTreeSet<Cid> = dead.blocks.keys().copied().collect();
        let damaged: Vec<Cid> = inner
            .manifests
            .iter()
            .filter(|(_, m)| (0..m.total_shares()).any(|i| dead_blocks.contains(&m.share_key(i))))
            .map(|(content, _)| *content)
            .collect();
        inner.repair_queue.extend(damaged);
    }

    /// Nodes currently holding an erasure share of a CID (diagnostics).
    pub fn replica_nodes(&self, cid: &Cid) -> Vec<NodeId> {
        let inner = self.read();
        let share_keys: Vec<Cid> = inner
            .manifests
            .get(cid)
            .map(|m| (0..m.total_shares()).map(|i| m.share_key(i)).collect())
            .unwrap_or_default();
        let mut out: Vec<NodeId> = inner
            .nodes
            .iter()
            .filter(|(_, n)| share_keys.iter().any(|k| n.blocks.contains_key(k)))
            .map(|(id, _)| *id)
            .collect();
        out.sort();
        out
    }

    /// Every CID whose publish was acknowledged — the durability promise
    /// the invariant suites hold the network to.
    pub fn acknowledged_publishes(&self) -> Vec<Cid> {
        self.read().acked.clone()
    }

    /// Share-level tamper evidence gathered by reads: which node
    /// served bad bytes for which share of which content.
    pub fn tamper_evidence(&self) -> Vec<TamperEvidence> {
        self.read().tamper_log.clone()
    }

    /// Point-in-time durability of a published blob: how many share slots
    /// are intact on live, unquarantined nodes versus how many
    /// reconstruction needs, plus the per-node health census
    /// (suspicion-ranked) at report time. `None` if nothing is pinned
    /// under `cid`.
    pub fn durability_report(&self, cid: &Cid) -> Option<DurabilityReport> {
        let inner = self.read();
        let manifest = inner.manifests.get(cid)?;
        let total = manifest.total_shares();
        let intact = (0..total)
            .filter(|i| find_intact_share(&inner, manifest, *i).is_some())
            .count() as u32;
        Some(DurabilityReport {
            total_shares: total,
            intact_shares: intact,
            required_shares: manifest.data_shares(),
            node_health: health_census(&inner),
        })
    }

    /// The per-node health census: one [`NodeHealthSnapshot`] per node
    /// that ever granted an ack, served a share, or misbehaved — most
    /// suspicious first (ties broken by node id, so the ranking is
    /// deterministic). Nodes killed by churn keep their entry: evidence
    /// outlives the node.
    pub fn node_health(&self) -> Vec<NodeHealthSnapshot> {
        health_census(&self.read())
    }

    /// Blobs currently queued for repair.
    pub fn pending_repairs(&self) -> usize {
        self.read().repair_queue.len()
    }

    /// Queues **every** pinned blob for a repair survey — an operator's
    /// full-sweep anti-entropy pass (blobs found healthy are dequeued for
    /// free on the next run).
    pub fn schedule_repair_scan(&self) {
        let mut inner = self.write();
        let all: Vec<Cid> = inner.manifests.keys().copied().collect();
        inner.repair_queue.extend(all);
    }

    /// Runs the repair pass now, regardless of the scheduler interval:
    /// every queued blob is surveyed, and damaged ones are re-encoded from
    /// `k` intact shares with the missing/corrupt shares re-placed on
    /// live, unquarantined, non-Byzantine nodes.
    pub fn run_pending_repairs(&self) -> RepairReport {
        let mut inner = self.write();
        let now = inner.clock;
        inner.next_repair_due = now + REPAIR_INTERVAL_TICKS;
        repair_locked(&mut inner)
    }

    /// The deterministic background repair scheduler: runs a repair pass
    /// if damage is queued and at least [`REPAIR_INTERVAL_TICKS`] of
    /// simulated time passed since the last pass. Drive loops call this
    /// every iteration; it is a cheap no-op otherwise.
    pub fn tick_repairs(&self) -> Option<RepairReport> {
        let mut inner = self.write();
        if inner.repair_queue.is_empty() || inner.clock < inner.next_repair_due {
            return None;
        }
        let now = inner.clock;
        inner.next_repair_due = now + REPAIR_INTERVAL_TICKS;
        Some(repair_locked(&mut inner))
    }

    /// Adversarial test hook: marks a blob as corrupted on *every* share
    /// holder so retrieval exercises the unrecoverable tamper-evidence path.
    #[doc(hidden)]
    pub fn corrupt_block(&self, cid: &Cid) {
        self.write().corrupted.push(*cid);
    }
}

/// Feeds one finished retrieval into telemetry: span fields mirroring
/// [`RetrievalStats`] plus the shared `zkdet.storage.*` counters. No-op
/// (one atomic load) when telemetry is off.
fn note_retrieval(
    span: &mut zkdet_telemetry::SpanGuard<'_>,
    stats: &RetrievalStats,
    ok: bool,
) {
    if !span.is_recording() && !zkdet_telemetry::is_enabled() {
        return;
    }
    span.record("attempts", u64::from(stats.attempts));
    span.record("hedges", u64::from(stats.hedges));
    span.record("quarantined", u64::from(stats.quarantined));
    span.record("backoff_ticks", stats.backoff_ticks);
    span.record("ok", u64::from(ok));
    zkdet_telemetry::counter_add("zkdet.storage.retrieve.calls", 1);
    zkdet_telemetry::counter_add(
        "zkdet.storage.retrieve.attempts",
        u64::from(stats.attempts),
    );
    zkdet_telemetry::counter_add("zkdet.storage.retrieve.hedges", u64::from(stats.hedges));
    zkdet_telemetry::counter_add(
        "zkdet.storage.retrieve.quarantined",
        u64::from(stats.quarantined),
    );
    zkdet_telemetry::counter_add("zkdet.storage.backoff.ticks", stats.backoff_ticks);
    if stats.degraded {
        zkdet_telemetry::counter_add("zkdet.storage.quorum.read.degraded", 1);
    }
    if !ok {
        zkdet_telemetry::counter_add("zkdet.storage.retrieve.failures", 1);
    }
}

/// Live (not plan-crashed), unquarantined nodes, XOR-sorted towards `key`.
fn live_nodes_towards(inner: &Inner, key: &Cid) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = inner
        .nodes
        .keys()
        .filter(|n| !inner.quarantined.contains(n) && inner.faults.node_up(n, inner.clock))
        .copied()
        .collect();
    ids.sort_by_key(|n| xor_distance(n, key));
    ids
}

/// Quorum publish: erasure-code into `n` shares, place each on a distinct
/// live node (preferring the XOR-closest to the share key), and require
/// `w` distinct-node acks before acknowledging.
fn publish_quorum(
    inner: &mut Inner,
    owner: PinOwner,
    cid: Cid,
    data: &[u8],
) -> Result<Cid, StorageError> {
    if inner.manifests.contains_key(&cid) {
        // Content-addressed dedup: the identical blob is already durable.
        inner.owners.entry(cid).or_insert(owner);
        return Ok(cid);
    }
    let cfg = inner.quorum;
    let codec = cfg.codec();
    let shares = codec.encode(data);
    let manifest = ShareManifest::build(cid, &codec, data.len() as u64, &shares);
    let mut used: BTreeSet<NodeId> = BTreeSet::new();
    let mut ackers: BTreeSet<NodeId> = BTreeSet::new();
    let mut placed: Vec<(NodeId, Cid)> = Vec::new();
    for (index, share) in shares.iter().enumerate() {
        let key = manifest.share_key(index as u32);
        let candidates = live_nodes_towards(inner, &key);
        // One share per node while nodes last; double up only when the
        // cluster is smaller than n.
        let Some(target) = candidates
            .iter()
            .find(|c| !used.contains(c))
            .or_else(|| candidates.first())
            .copied()
        else {
            break; // no live node at all
        };
        used.insert(target);
        if inner.nodes.contains_key(&target) {
            let withheld = inner.faults.withholds_ack(&target);
            if let Some(node) = inner.nodes.get_mut(&target) {
                if node.blocks.insert(key, Arc::from(share.as_slice())).is_none() {
                    placed.push((target, key));
                }
            }
            if withheld {
                inner.health_of(target).withheld_acks += 1;
            } else {
                inner.health_of(target).acks += 1;
                ackers.insert(target);
            }
        }
    }
    let acked = ackers.len() as u32;
    // The write quorum is a distinct-node count, scaled down when the
    // cluster itself is smaller than w (mirroring for_cluster's floor).
    let required = cfg.write_quorum().min(inner.nodes.len() as u32).max(1);
    if zkdet_telemetry::is_enabled() {
        zkdet_telemetry::counter_add("zkdet.storage.quorum.publish.calls", 1);
        zkdet_telemetry::counter_add("zkdet.storage.quorum.publish.bytes", data.len() as u64);
        zkdet_telemetry::counter_add("zkdet.storage.quorum.publish.acks", u64::from(acked));
    }
    if acked < required {
        for (id, key) in placed {
            if let Some(node) = inner.nodes.get_mut(&id) {
                node.blocks.remove(&key);
            }
        }
        return Err(StorageError::InsufficientAcks {
            cid,
            acked,
            required,
        });
    }
    inner.manifests.insert(cid, manifest);
    inner.owners.entry(cid).or_insert(owner);
    if !inner.acked.contains(&cid) {
        inner.acked.push(cid);
    }
    Ok(cid)
}

/// One fault-aware quorum read: sweep all `n` share slots, verify every
/// answered share against the manifest digests (quarantining and
/// attributing Byzantine servers per share), and reconstruct from any `k`
/// intact shares. Slow shares count as hedged and are used only if the
/// fast ones don't reach `k`. Any slot found missing, stale, or corrupt
/// queues the blob for background repair. Every sweep adds its hedges and
/// quarantines to `stats`; a successful one also sets its server, hops and
/// degraded flag.
fn quorum_lookup_once(
    inner: &mut Inner,
    cid: &Cid,
    stats: &mut RetrievalStats,
) -> Result<Arc<[u8]>, StorageError> {
    let Some(manifest) = inner.manifests.get(cid).cloned() else {
        return Err(StorageError::NotFound(*cid));
    };
    let cfg = inner.quorum;
    let k = cfg.data_shares() as usize;
    let mut fast: Vec<(usize, Arc<[u8]>, NodeId)> = Vec::new();
    let mut slow: Vec<(usize, Arc<[u8]>, NodeId)> = Vec::new();
    let mut served_by: Option<NodeId> = None;
    let mut contacted = 0usize;
    let mut dropped_slots = 0usize;
    let mut saw_corrupt = false;
    let mut damaged = false;
    for index in 0..cfg.total_shares() {
        let key = manifest.share_key(index);
        let holders: Vec<NodeId> = live_nodes_towards(inner, &key)
            .into_iter()
            .filter(|n| inner.nodes[n].blocks.contains_key(&key))
            .collect();
        if holders.is_empty() {
            damaged = true; // lost or crashed-away slot
            continue;
        }
        let mut got = false;
        let mut dropped_here = false;
        for node_id in holders {
            let latency = inner.faults.latency_of(&node_id);
            inner.clock += latency;
            contacted += 1;
            let nonce = inner.nonce;
            inner.nonce += 1;
            if !inner.faults.node_up(&node_id, inner.clock) {
                damaged = true; // crashed mid-sweep
                continue;
            }
            if inner.faults.should_drop(&node_id, nonce) {
                dropped_here = true;
                stats.hedges += 1;
                continue;
            }
            if inner.faults.is_stale(&node_id, cid) || inner.faults.is_stale(&node_id, &key) {
                // Advertised but garbage-collected: probe the next holder.
                stats.hedges += 1;
                damaged = true;
                continue;
            }
            let Some(bytes) = inner.nodes[&node_id].blocks.get(&key).cloned() else {
                continue;
            };
            let corrupt = inner.corrupted.contains(cid)
                || inner.faults.corrupts(&node_id, cid)
                || inner.faults.corrupts(&node_id, &key)
                || !manifest.verify_share(index, &bytes);
            if corrupt {
                saw_corrupt = true;
                damaged = true;
                stats.quarantined += 1;
                inner.quarantined.insert(node_id);
                inner.tamper_log.push(TamperEvidence {
                    node: node_id,
                    content: *cid,
                    share_index: index,
                });
                let health = inner.health_of(node_id);
                health.tamper_shares += 1;
                health.quarantined = true;
                if zkdet_telemetry::is_enabled() {
                    zkdet_telemetry::counter_add("zkdet.storage.quorum.byzantine_shares", 1);
                }
                continue;
            }
            inner.health_of(node_id).shares_served += 1;
            if latency > HEDGE_LATENCY_TICKS {
                // Answered, but slower than the hedge threshold: keep the
                // share in reserve and count the extra probe as a hedge.
                stats.hedges += 1;
                slow.push((index as usize, bytes, node_id));
            } else {
                fast.push((index as usize, bytes, node_id));
                if served_by.is_none() {
                    served_by = Some(node_id);
                }
            }
            got = true;
            break;
        }
        if !got && dropped_here {
            dropped_slots += 1;
        }
    }
    if damaged {
        inner.repair_queue.insert(*cid);
    }
    let usable = fast.len() + slow.len();
    if usable < k {
        // Drops are transient: if undropped answers could have reached k,
        // report Unavailable so the retry loop gets another pass.
        return Err(if usable + dropped_slots >= k {
            StorageError::Unavailable(*cid)
        } else if saw_corrupt {
            StorageError::DigestMismatch(*cid)
        } else {
            StorageError::QuorumLoss {
                cid: *cid,
                intact: usable as u32,
                required: k as u32,
            }
        });
    }
    let degraded = usable == k;
    let mut picked: Vec<(usize, Arc<[u8]>)> = Vec::new();
    let mut servers: Vec<NodeId> = Vec::new();
    for (index, bytes, node_id) in fast.into_iter().chain(slow) {
        if picked.len() >= k {
            break;
        }
        picked.push((index, bytes));
        servers.push(node_id);
        if served_by.is_none() {
            served_by = Some(node_id);
        }
    }
    if degraded {
        // The read was carried with zero redundancy margin — credit the
        // nodes that held the line (capacity signal, not suspicion).
        for node_id in &servers {
            inner.health_of(*node_id).degraded_serves += 1;
        }
    }
    let data = cfg
        .codec()
        .reconstruct(&picked, manifest.data_len() as usize)
        .map_err(|_| StorageError::QuorumLoss {
            cid: *cid,
            intact: usable as u32,
            required: k as u32,
        })?;
    if !cid.matches(&data) {
        // Belt and braces: per-share digests verified, so the manifest
        // itself would have to be wrong for this to fire.
        return Err(StorageError::DigestMismatch(*cid));
    }
    stats.served_by = served_by.unwrap_or(NodeId([0u8; 32]));
    stats.hops = contacted;
    stats.degraded = degraded;
    Ok(data.into())
}

/// Snapshot every node's health counters, most suspicious first (ties
/// broken by node id so the ranking is deterministic).
fn health_census(inner: &Inner) -> Vec<NodeHealthSnapshot> {
    let mut census: Vec<NodeHealthSnapshot> = inner
        .health
        .iter()
        .map(|(node, stats)| health::snapshot(*node, stats))
        .collect();
    census.sort_by(|a, b| {
        b.suspicion
            .cmp(&a.suspicion)
            .then_with(|| a.node.cmp(&b.node))
    });
    census
}

/// Read-only survey: the first live, unquarantined node serving an
/// intact (digest-verified, not plan-corrupted, not stale) copy of share
/// `index`, or `None` if the slot is damaged.
fn find_intact_share(
    inner: &Inner,
    manifest: &ShareManifest,
    index: u32,
) -> Option<(NodeId, Arc<[u8]>)> {
    let content = manifest.content();
    if inner.corrupted.contains(&content) {
        return None;
    }
    let key = manifest.share_key(index);
    for node_id in live_nodes_towards(inner, &key) {
        let Some(bytes) = inner.nodes[&node_id].blocks.get(&key) else {
            continue;
        };
        if inner.faults.corrupts(&node_id, &content)
            || inner.faults.corrupts(&node_id, &key)
            || inner.faults.is_stale(&node_id, &content)
            || inner.faults.is_stale(&node_id, &key)
            || !manifest.verify_share(index, bytes)
        {
            continue;
        }
        return Some((node_id, bytes.clone()));
    }
    None
}

enum RepairOutcome {
    /// All share slots intact; nothing to do.
    Healthy,
    /// Damage found and repaired: this many shares re-placed.
    Restored(u64),
    /// Fewer than `k` intact shares remain.
    Unrecoverable,
}

/// One repair pass over the queued blobs. Blobs found healthy or repaired
/// leave the queue; unrecoverable ones leave it too (re-running cannot
/// help — a later read will re-queue them if the world changes).
fn repair_locked(inner: &mut Inner) -> RepairReport {
    let mut span = zkdet_telemetry::span("storage.repair.run");
    let queue: Vec<Cid> = inner.repair_queue.iter().copied().collect();
    inner.repair_queue.clear();
    let mut report = RepairReport::default();
    for cid in queue {
        let outcome = match inner.manifests.get(&cid).cloned() {
            Some(manifest) => repair_quorum(inner, &cid, &manifest),
            None => RepairOutcome::Healthy, // unpinned since it was queued
        };
        match outcome {
            RepairOutcome::Healthy => {}
            RepairOutcome::Restored(shares) => {
                report.contents_repaired += 1;
                report.shares_restored += shares;
            }
            RepairOutcome::Unrecoverable => report.unrecoverable.push(cid),
        }
    }
    if span.is_recording() || zkdet_telemetry::is_enabled() {
        span.record("contents_repaired", report.contents_repaired);
        span.record("shares_restored", report.shares_restored);
        span.record("unrecoverable", report.unrecoverable.len() as u64);
        zkdet_telemetry::counter_add("zkdet.storage.repair.runs", 1);
        zkdet_telemetry::counter_add(
            "zkdet.storage.repair.shares_restored",
            report.shares_restored,
        );
        zkdet_telemetry::counter_add(
            "zkdet.storage.repair.unrecoverable",
            report.unrecoverable.len() as u64,
        );
    }
    report
}

/// Repairs one blob: survey all `n` slots, reconstruct the blob
/// from any `k` intact shares, re-encode, and re-place every damaged
/// share on a live, unquarantined, non-Byzantine node (preferring nodes
/// not already holding a share of this blob, XOR-closest to the share
/// key first).
fn repair_quorum(inner: &mut Inner, cid: &Cid, manifest: &ShareManifest) -> RepairOutcome {
    let total = manifest.total_shares();
    let k = manifest.data_shares() as usize;
    let mut intact: Vec<(usize, Arc<[u8]>)> = Vec::new();
    let mut damaged: Vec<u32> = Vec::new();
    for index in 0..total {
        match find_intact_share(inner, manifest, index) {
            Some((_, bytes)) => intact.push((index as usize, bytes)),
            None => damaged.push(index),
        }
    }
    if damaged.is_empty() {
        return RepairOutcome::Healthy;
    }
    if intact.len() < k {
        return RepairOutcome::Unrecoverable;
    }
    let codec = ErasureCodec::new(manifest.data_shares() as usize, total as usize)
        .unwrap_or_else(|_| ErasureCodec::single());
    let Ok(data) = codec.reconstruct(&intact, manifest.data_len() as usize) else {
        return RepairOutcome::Unrecoverable;
    };
    let shares = codec.encode(&data);
    // Nodes already holding a share of this blob (avoid stacking slots).
    let mut holding: BTreeSet<NodeId> = BTreeSet::new();
    for index in 0..total {
        let key = manifest.share_key(index);
        for (id, node) in &inner.nodes {
            if node.blocks.contains_key(&key) {
                holding.insert(*id);
            }
        }
    }
    let mut restored = 0u64;
    for index in damaged {
        let Some(share) = shares.get(index as usize) else {
            continue;
        };
        let key = manifest.share_key(index);
        let candidates: Vec<NodeId> = live_nodes_towards(inner, &key)
            .into_iter()
            .filter(|n| !inner.faults.corrupts(n, cid) && !inner.faults.is_stale(n, cid))
            .collect();
        let Some(target) = candidates
            .iter()
            .find(|c| !holding.contains(c))
            .or_else(|| candidates.first())
            .copied()
        else {
            continue; // no eligible node; leave the slot for a later pass
        };
        if let Some(node) = inner.nodes.get_mut(&target) {
            node.blocks.insert(key, Arc::from(share.as_slice()));
            holding.insert(target);
            restored += 1;
        } else {
            continue;
        }
        inner.health_of(target).repairs_received += 1;
    }
    if restored == 0 {
        // Damage seen but nowhere to put the repaired shares.
        inner.repair_queue.insert(*cid);
        return RepairOutcome::Healthy;
    }
    RepairOutcome::Restored(restored)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    
    fn net(nodes: usize, plan: FaultPlan) -> StorageNetwork {
        StorageNetwork::with_quorum(nodes, QuorumConfig::for_cluster(nodes), plan)
    }

    /// The node holding share slot `index` of `cid`. Slot 0's holder is
    /// the one a healthy read reports as `served_by`.
    fn holder_of(net: &StorageNetwork, cid: &Cid, index: u32) -> NodeId {
        let key = crate::manifest::share_key(cid, index);
        let inner = net.read();
        let holder = inner
            .nodes
            .iter()
            .find(|(_, node)| node.blocks.contains_key(&key));
        *holder.expect("slot has a holder").0
    }

    #[test]
    fn publish_retrieve_roundtrip() {
        let net = net(10, FaultPlan::none());
        let cid = net.publish(PinOwner(1), &b"encrypted dataset bytes"[..]).unwrap();
        let got = net.retrieve(&cid).unwrap();
        assert_eq!(&got[..], b"encrypted dataset bytes");
        // One share per node, n = 8 of the 10 nodes.
        assert_eq!(net.replica_nodes(&cid).len(), 8);
    }

    #[test]
    fn content_addressing_deduplicates() {
        let net = net(5, FaultPlan::none());
        let c1 = net.publish(PinOwner(1), &b"same"[..]).unwrap();
        let c2 = net.publish(PinOwner(2), &b"same"[..]).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(net.acknowledged_publishes(), vec![c1]);
    }

    #[test]
    fn missing_content_not_found() {
        let net = net(5, FaultPlan::none());
        let bogus = Cid::from_bytes(b"never published");
        assert_eq!(net.retrieve(&bogus), Err(StorageError::NotFound(bogus)));
    }

    #[test]
    fn tampering_detected() {
        let net = net(5, FaultPlan::none());
        let cid = net.publish(PinOwner(1), &b"data"[..]).unwrap();
        net.corrupt_block(&cid);
        assert_eq!(net.retrieve(&cid), Err(StorageError::DigestMismatch(cid)));
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        let net = net(5, FaultPlan::none());
        let before = net.publish(PinOwner(1), &b"before"[..]).unwrap();
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = net.write();
            panic!("poison the network lock");
        }));
        assert!(poisoned.is_err());
        assert!(net.inner.is_poisoned());
        assert_eq!(&net.retrieve(&before).unwrap()[..], b"before");
        let after = net.publish(PinOwner(1), &b"after"[..]).unwrap();
        assert_eq!(&net.retrieve(&after).unwrap()[..], b"after");
        assert_eq!(net.acknowledged_publishes().len(), 2);
    }

    #[test]
    fn only_owner_can_unpin() {
        let net = net(5, FaultPlan::none());
        let cid = net.publish(PinOwner(1), &b"data"[..]).unwrap();
        assert_eq!(
            net.unpin(PinOwner(2), &cid),
            Err(StorageError::NotOwner(cid))
        );
        assert!(net.unpin(PinOwner(1), &cid).is_ok());
        assert_eq!(net.retrieve(&cid), Err(StorageError::NotFound(cid)));
        assert!(net.replica_nodes(&cid).is_empty(), "every share is gone");
    }

    #[test]
    fn survives_node_churn_within_replication() {
        let net = net(12, FaultPlan::none());
        let cid = net.publish(PinOwner(1), &b"erasure-coded"[..]).unwrap();
        let holders = net.replica_nodes(&cid);
        // Kill n − k = 4 holders: exactly k shares are left.
        for id in &holders[..4] {
            net.kill_node(*id);
        }
        assert_eq!(&net.retrieve(&cid).unwrap()[..], b"erasure-coded");
        // One more loses the content.
        net.kill_node(holders[4]);
        assert_eq!(
            net.retrieve(&cid),
            Err(StorageError::QuorumLoss {
                cid,
                intact: 3,
                required: 4
            })
        );
    }

    #[test]
    fn lookup_terminates_on_large_network() {
        let net = net(64, FaultPlan::none());
        let cid = net.publish(PinOwner(1), &b"needle"[..]).unwrap();
        let (_, stats) = net.retrieve_with_stats(&cid).unwrap();
        assert_eq!(stats.hops, 8, "n contacts, whatever the cluster size");
    }

    #[test]
    fn inert_fault_plan_is_byte_identical_to_no_plan() {
        let plain = net(16, FaultPlan::none());
        let planned = net(16, FaultPlan::seeded(42));
        let payloads: Vec<Vec<u8>> = (0u8..8).map(|i| vec![i; 64 + i as usize]).collect();
        for payload in &payloads {
            let c1 = plain.publish(PinOwner(1), payload.clone()).unwrap();
            let c2 = planned.publish(PinOwner(1), payload.clone()).unwrap();
            assert_eq!(c1, c2);
            let (b1, s1) = plain.retrieve_with_stats(&c1).unwrap();
            let (b2, s2) = planned.retrieve_with_stats(&c2).unwrap();
            assert_eq!(b1.to_vec(), b2.to_vec());
            assert_eq!(s1, s2);
            // Nothing failed, so nothing was retried or waited for.
            assert_eq!((s1.attempts, s1.backoff_ticks, s1.hedges), (1, 0, 0));
        }
        assert_eq!(plain.now(), planned.now(), "a seed alone must not move the clock");
    }

    #[test]
    fn backoff_doubles_then_caps() {
        assert_eq!(backoff_for(0), BASE_BACKOFF_TICKS);
        assert_eq!(backoff_for(1), 4);
        assert_eq!(backoff_for(2), 8);
        assert_eq!(backoff_for(5), MAX_BACKOFF_TICKS);
        assert_eq!(backoff_for(6), MAX_BACKOFF_TICKS);
        assert_eq!(backoff_for(63), MAX_BACKOFF_TICKS);
        assert_eq!(backoff_for(64), MAX_BACKOFF_TICKS);
    }

    #[test]
    fn retrieve_retries_through_drops() {
        // Heavy but sub-certain drop probability: the first sweep loses
        // too many requests, a later one gets through.
        let plan = FaultPlan::seeded(1234).with_global_drop(0.6);
        let net = net(8, plan);
        let cid = net.publish(PinOwner(1), &b"flaky fetch"[..]).unwrap();
        let (bytes, stats) = net.retrieve_with_stats(&cid).unwrap();
        assert_eq!(&bytes[..], b"flaky fetch");
        assert!(stats.attempts >= 2, "attempts = {}", stats.attempts);
        assert!(stats.backoff_ticks > 0, "retries must have backed off");
    }

    #[test]
    fn drops_on_every_sweep_give_up_after_four_sweeps() {
        let net = net(8, FaultPlan::none());
        let cid = net.publish(PinOwner(1), &b"never answered"[..]).unwrap();
        net.set_fault_plan(FaultPlan::seeded(4).with_global_drop(1.0));
        let before = net.now();
        assert_eq!(net.retrieve(&cid), Err(StorageError::Unavailable(cid)));
        // Four sweeps of the eight slots, and a backoff of 2, 4 and 8 ticks
        // between them: the last sweep's drops end the read unwaited.
        let sweeps = u64::from(MAX_SWEEPS);
        let waits: u64 = (0..MAX_SWEEPS - 1).map(backoff_for).sum();
        assert_eq!(waits, 14);
        assert_eq!(
            net.now() - before,
            sweeps * 8 * crate::fault::DEFAULT_LATENCY_TICKS + waits
        );
    }

    #[test]
    fn missing_content_is_not_retried_under_drops() {
        let net = net(8, FaultPlan::seeded(4).with_global_drop(1.0));
        let bogus = Cid::from_bytes(b"never published");
        let before = net.now();
        assert_eq!(net.retrieve(&bogus), Err(StorageError::NotFound(bogus)));
        assert_eq!(net.now(), before, "no holder contacted, no backoff");
    }

    #[test]
    fn backoff_replays_byte_identical() {
        // Two fresh networks under the same seeded schedule must wait the
        // same ticks — this is what makes crash-restart replays of a chaos
        // schedule deterministic.
        let run = || {
            let plan = FaultPlan::seeded(1234).with_global_drop(0.6);
            let net = net(8, plan);
            let cid = net.publish(PinOwner(1), &b"flaky fetch"[..]).unwrap();
            let (bytes, stats) = net.retrieve_with_stats(&cid).unwrap();
            (bytes.to_vec(), stats, net.now())
        };
        let (b1, s1, t1) = run();
        let (b2, s2, t2) = run();
        assert_eq!(b1, b2);
        assert_eq!(s1, s2, "stats (incl. backoff_ticks) must replay exactly");
        assert_eq!(t1, t2, "simulated clock must replay exactly");
    }

    #[test]
    fn corrupt_replica_quarantined_and_refetched() {
        let net = net(10, FaultPlan::none());
        let cid = net.publish(PinOwner(1), &b"one bad share"[..]).unwrap();
        // Corrupt the holder the sweep meets first.
        let first = holder_of(&net, &cid, 0);
        net.set_fault_plan(FaultPlan::seeded(7).with_corrupt_replica(first, cid));
        let (bytes, stats) = net.retrieve_with_stats(&cid).unwrap();
        assert_eq!(&bytes[..], b"one bad share");
        assert!(stats.quarantined >= 1);
        assert_ne!(stats.served_by, first);
        assert!(net.quarantined_nodes().contains(&first));
    }

    #[test]
    fn too_many_corrupt_shares_is_fatal_not_retried_forever() {
        let net = net(6, FaultPlan::none());
        let cid = net.publish(PinOwner(1), &b"doomed"[..]).unwrap();
        // n = 6, k = 3: four corrupt holders leave two intact shares.
        let mut plan = FaultPlan::seeded(3);
        for node in &net.replica_nodes(&cid)[..4] {
            plan = plan.with_corrupt_replica(*node, cid);
        }
        net.set_fault_plan(plan);
        let before = net.now();
        let err = net.retrieve(&cid).unwrap_err();
        assert_eq!(err, StorageError::DigestMismatch(cid));
        assert!(!err.is_transient());
        // One sweep of the six slots, no backoff, no second attempt.
        assert_eq!(net.now() - before, 6);
    }

    #[test]
    fn stale_record_skipped_via_hedge() {
        let net = net(10, FaultPlan::none());
        let cid = net.publish(PinOwner(1), &b"stale provider"[..]).unwrap();
        let first = holder_of(&net, &cid, 0);
        net.set_fault_plan(FaultPlan::seeded(5).with_stale_record(first, cid));
        let (bytes, stats) = net.retrieve_with_stats(&cid).unwrap();
        assert_eq!(&bytes[..], b"stale provider");
        assert!(stats.hedges >= 1);
        assert_ne!(stats.served_by, first);
    }

    #[test]
    fn scheduled_crash_fails_over_to_surviving_replica() {
        let net = net(10, FaultPlan::none());
        let cid = net.publish(PinOwner(1), &b"crash schedule"[..]).unwrap();
        let first = holder_of(&net, &cid, 0);
        // Slot 0's holder crashes at tick 0 — dead before any request.
        net.set_fault_plan(FaultPlan::seeded(9).with_crash_at(first, 0));
        let (bytes, stats) = net.retrieve_with_stats(&cid).unwrap();
        assert_eq!(&bytes[..], b"crash schedule");
        assert_ne!(stats.served_by, first);
    }

    #[test]
    fn slow_replica_hedged() {
        let net = net(10, FaultPlan::none());
        let cid = net.publish(PinOwner(1), &b"slow node"[..]).unwrap();
        let first = holder_of(&net, &cid, 0);
        // Slot 0's holder is far slower than the hedge threshold.
        net.set_fault_plan(FaultPlan::seeded(2).with_latency(first, 1_000));
        let (bytes, stats) = net.retrieve_with_stats(&cid).unwrap();
        assert_eq!(&bytes[..], b"slow node");
        assert!(stats.hedges >= 1, "slow holder must trigger a hedge");
        // Faster holders reach k on their own, so the slow share is unused.
        assert_ne!(stats.served_by, first);
    }

    #[test]
    fn hedge_threshold_is_exclusive() {
        let read_with_slot0_latency = |ticks: u64| {
            let net = net(10, FaultPlan::none());
            let cid = net.publish(PinOwner(1), &b"at the threshold"[..]).unwrap();
            let first = holder_of(&net, &cid, 0);
            net.set_fault_plan(FaultPlan::seeded(2).with_latency(first, ticks));
            let (bytes, stats) = net.retrieve_with_stats(&cid).unwrap();
            assert_eq!(&bytes[..], b"at the threshold");
            (stats, first)
        };
        // Exactly at the threshold the holder is still a fast one.
        let (at, first) = read_with_slot0_latency(HEDGE_LATENCY_TICKS);
        assert_eq!((at.hedges, at.served_by), (0, first));
        // One tick over, its share is held in reserve.
        let (over, first) = read_with_slot0_latency(HEDGE_LATENCY_TICKS + 1);
        assert_eq!(over.hedges, 1);
        assert_ne!(over.served_by, first);
    }

    #[test]
    fn clock_advances_with_latency_and_backoff() {
        let plan = FaultPlan::seeded(21).with_global_drop(0.9);
        let net = net(4, plan);
        let cid = net.publish(PinOwner(1), &b"tick tock"[..]).unwrap();
        let before = net.now();
        let _ = net.retrieve(&cid);
        assert!(net.now() > before, "requests and backoff must consume time");
    }
}

//! The ZKDET marketplace: deployment state plus the generic
//! data-transformation protocol (§IV-B).
//!
//! A [`Marketplace`] bundles the storage network, the chain (with the NFT,
//! auction and π_k-verifier contracts deployed), the universal SRS, and the
//! deployment's [`KeyRegistry`]: one entry of preprocessed keys per circuit
//! *shape*, for every relation (π_e, π_t, π_p, π_k) and every path. A
//! stand-alone marketplace owns its registry; the shards of a
//! [`crate::shard::ShardedMarketplace`] share one, handed down through
//! [`MarketConfig::keys`] together with the SRS it is derived from. It is
//! never process-global — a new deployment starts empty, which keeps a
//! replayed run's schedule identical. π_e/π_t/π_k entries are keyed by
//! their public sizes and derived from the circuit's own sampler, so no
//! lookup takes an rng or builds a witness; π_p, whose predicate is the
//! caller's, is keyed by a digest of the compiled circuit and derived from
//! it. Keys are derived once and reused — the universal-setup property the
//! paper evaluates in Fig. 5.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::Rng;
use zkdet_chain::{Address, Blockchain, TokenId, TokenMeta, TransformKind};
use zkdet_circuits::{AggregationCircuit, DuplicationCircuit, EncryptionCircuit, PartitionCircuit};
use zkdet_crypto::commitment::{Commitment, CommitmentScheme, Opening};
use zkdet_crypto::mimc::{Ciphertext, MimcCtr};
use zkdet_field::{Field, Fr};
use zkdet_kzg::Srs;
use zkdet_plonk::{CompiledCircuit, Plonk, Proof, VerifyingKey};
use zkdet_provenance::{
    export, lineage_digest, verify_lineage, AuditCache, LineageCheck, NodeId,
};
use zkdet_storage::{PinOwner, StorageNetwork};

use crate::bundle::{ProofBundle, TransformProof};
use crate::codec::{decode_ciphertext, encode_ciphertext};
use crate::dataset::Dataset;
use crate::error::ZkdetError;
use crate::keys::{KeyPair, KeyRegistry, Shape};

/// Seller-side secrets for one published dataset.
#[derive(Clone, Debug)]
pub struct DatasetSecret {
    /// MiMC-CTR key.
    pub key: Fr,
    /// CTR nonce (public, but kept here for convenience).
    pub nonce: Fr,
    /// Commitment blinder `o_d`.
    pub opening: Opening,
    /// The plaintext itself.
    pub data: Dataset,
    /// The published commitment `c_d`.
    pub commitment: Commitment,
}

/// A marketplace participant: an on-chain account plus locally held
/// dataset secrets.
#[derive(Clone, Debug)]
pub struct DataOwner {
    /// On-chain account address.
    pub address: Address,
    /// Storage pin identity.
    pub pin: PinOwner,
    secrets: BTreeMap<TokenId, DatasetSecret>,
}

impl DataOwner {
    /// The secrets held for a token, if this owner published it.
    pub fn secret(&self, token: TokenId) -> Option<&DatasetSecret> {
        self.secrets.get(&token)
    }

    /// Records secrets for a token (used when keys are handed over
    /// off-chain after an exchange).
    pub fn learn_secret(&mut self, token: TokenId, secret: DatasetSecret) {
        self.secrets.insert(token, secret);
    }
}

/// Result of auditing a token's provenance chain (§III-B, Fig. 3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvenanceReport {
    /// Every token whose proofs were checked, in audit (BFS) order,
    /// starting with the audited token itself.
    pub verified_tokens: Vec<TokenId>,
    /// Number of transformation edges traversed.
    pub transform_edges: usize,
}

/// Cumulative retrieval-robustness counters across every storage fetch a
/// marketplace performed (audits, recoveries, adversary decryptions…).
///
/// Each counter sums the per-retrieval [`zkdet_storage::RetrievalStats`];
/// `retrievals`
/// counts the fetches themselves. A fault-free run shows
/// `attempts == retrievals` and zeros everywhere else.
///
/// This is a point-in-time *view* of the marketplace's
/// [`zkdet_telemetry::Registry`] (see [`Marketplace::metrics`]) — the
/// registry is the single metrics vocabulary; this struct survives as the
/// ergonomic read side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RobustnessMetrics {
    /// Storage fetches performed.
    pub retrievals: u64,
    /// Full lookup attempts across all fetches (≥ `retrievals`).
    pub attempts: u64,
    /// Redundant share probes issued after drops, stale records or slow
    /// share holders.
    pub hedges: u64,
    /// Nodes quarantined for serving corrupt bytes.
    pub quarantined: u64,
    /// Simulated ticks spent in exponential backoff.
    pub backoff_ticks: u64,
    /// Quorum reads that succeeded with exactly `k` usable shares (zero
    /// redundancy margin) — served, flagged, and queued for repair.
    pub degraded_reads: u64,
    /// Erasure shares re-placed by the background repair scheduler while
    /// this marketplace drove exchanges.
    pub repaired_shares: u64,
}

/// Canonical metric names shared with the storage layer's own
/// instrumentation (DESIGN.md §10).
pub(crate) mod metric {
    pub const RETRIEVALS: &str = "zkdet.storage.retrieve.calls";
    pub const ATTEMPTS: &str = "zkdet.storage.retrieve.attempts";
    pub const HEDGES: &str = "zkdet.storage.retrieve.hedges";
    pub const QUARANTINED: &str = "zkdet.storage.retrieve.quarantined";
    pub const BACKOFF_TICKS: &str = "zkdet.storage.backoff.ticks";
    pub const DEGRADED: &str = "zkdet.storage.quorum.read.degraded";
    pub const REPAIRED_SHARES: &str = "zkdet.storage.repair.shares_restored";
    pub const RETRIEVE_LATENCY_US: &str = "zkdet.storage.retrieve.latency_us";
    /// Key-registry lookups that found the shape's keys ready; the counter
    /// is `<this>.<relation>` with relation ∈ `pi_e`, `pi_t`, `pi_p`, `pi_k`.
    pub const KEYS_HIT: &str = "zkdet.core.keys.hit";
    /// Lookups that did not: the caller derived the keys, or waited for a
    /// derivation in flight. Same `.<relation>` suffix.
    pub const KEYS_MISS: &str = "zkdet.core.keys.miss";
}

/// Deployment parameters for [`Marketplace::bootstrap_with`].
///
/// [`Marketplace::bootstrap`] covers the common single-instance case; this
/// config exists for sharded deployments (DESIGN.md §16) that share one
/// SRS and key registry across shards, mint from disjoint token-id ranges,
/// and inject a storage fault plan per shard.
#[derive(Clone)]
pub struct MarketConfig {
    /// The deployment's key registry to join (the shared SRS plus every key
    /// derived from it so far); `None` runs a fresh universal setup sized
    /// by `max_constraints` and starts an empty registry.
    pub keys: Option<Arc<KeyRegistry>>,
    /// Circuit-size ceiling for a fresh setup (ignored when `keys` is set).
    pub max_constraints: usize,
    /// Storage nodes backing this instance's quorum network.
    pub storage_nodes: usize,
    /// Infrastructure faults injected into the storage network.
    pub fault_plan: zkdet_storage::FaultPlan,
    /// First token id the NFT registry mints. Shards use disjoint bases so
    /// a token id alone routes to its shard.
    pub token_base: u64,
    /// First participant seed [`Marketplace::register`] draws (≥ 1; seed 0
    /// is the operator). Shards use disjoint bases so participant
    /// addresses never collide across shards.
    pub owner_seed_base: u64,
}

impl Default for MarketConfig {
    fn default() -> Self {
        MarketConfig {
            keys: None,
            max_constraints: 1 << 12,
            storage_nodes: 8,
            fault_plan: zkdet_storage::FaultPlan::none(),
            token_base: 0,
            owner_seed_base: 1,
        }
    }
}

/// The assembled ZKDET deployment.
pub struct Marketplace {
    /// The universal SRS (Fig. 5's one-time ceremony output).
    pub srs: Arc<Srs>,
    /// The public storage network.
    pub storage: StorageNetwork,
    /// The chain with contracts deployed.
    pub chain: Blockchain,
    /// The data-NFT contract address.
    pub nft_addr: Address,
    /// The clock-auction contract address.
    pub auction_addr: Address,
    /// The on-chain verifier for the π_k relation.
    pub keyneg_verifier_addr: Address,
    /// The registry's π_k entry, read once at bootstrap.
    pub(crate) keyneg: KeyPair,
    keys: Arc<KeyRegistry>,
    /// Registered processing relations (§IV-D 4): formula name → vk.
    processing_vks: BTreeMap<String, VerifyingKey>,
    next_owner_seed: u64,
    /// Per-instance metrics registry: always on (unlike the disabled-by-
    /// default global), so parallel tests stay isolated and the robustness
    /// counters are never silently lost.
    metrics: zkdet_telemetry::Registry,
    /// Verified-lineage-proof cache: re-auditing a token whose ancestors
    /// were audited before only verifies the new edges.
    audit_cache: AuditCache,
}

impl Marketplace {
    /// Bootstraps a deployment: runs the universal setup for circuits of up
    /// to `max_constraints` gates, spins up `storage_nodes` storage nodes,
    /// deploys the NFT + auction + π_k-verifier contracts from an operator
    /// account.
    pub fn bootstrap<R: Rng + ?Sized>(
        max_constraints: usize,
        storage_nodes: usize,
        rng: &mut R,
    ) -> Result<Self, ZkdetError> {
        Marketplace::bootstrap_with(
            MarketConfig {
                max_constraints,
                storage_nodes,
                ..MarketConfig::default()
            },
            rng,
        )
    }

    /// [`Marketplace::bootstrap`] with explicit [`MarketConfig`]: a shared
    /// SRS, a token-id base for the NFT registry, a participant-seed base,
    /// and a storage fault plan — everything a sharded deployment varies
    /// per shard.
    pub fn bootstrap_with<R: Rng + ?Sized>(
        config: MarketConfig,
        rng: &mut R,
    ) -> Result<Self, ZkdetError> {
        let mut span = zkdet_telemetry::span("market.bootstrap");
        span.record("max_constraints", config.max_constraints as u64);
        span.record("storage_nodes", config.storage_nodes as u64);
        span.record("token_base", config.token_base);
        let keys = match config.keys {
            Some(keys) => keys,
            None => Arc::new(KeyRegistry::new(Arc::new(Srs::universal_setup(
                config.max_constraints + 8,
                rng,
            )))),
        };
        // Blobs are erasure-coded k-of-n with w-ack durability (8/4/6 at
        // ≥ 8 nodes), so any n − k crashed/corrupt/Byzantine share holders
        // per blob are survivable and repairable.
        let storage = StorageNetwork::with_quorum(
            config.storage_nodes,
            zkdet_storage::QuorumConfig::for_cluster(config.storage_nodes),
            config.fault_plan,
        );
        let mut chain = Blockchain::new();
        let operator = Address::from_seed(0);
        chain.state.fund(operator, 1_000_000_000_000);
        let (nft_addr, _) = chain.deploy_nft_with_base(operator, config.token_base);
        let (auction_addr, _) = chain.deploy_auction(operator);

        // The (fixed-shape) π_k relation: the first bootstrap of a
        // deployment preprocesses it, later shards find it in the registry.
        let metrics = zkdet_telemetry::Registry::new();
        let keyneg = keys.keys(Shape::KeyNeg, &metrics)?;
        let (keyneg_verifier_addr, _) =
            chain.deploy_verifier(operator, VerifyingKey::clone(&keyneg.vk));
        chain.mine_block();

        Ok(Marketplace {
            srs: Arc::clone(keys.srs()),
            storage,
            chain,
            nft_addr,
            auction_addr,
            keyneg_verifier_addr,
            keyneg,
            keys,
            processing_vks: BTreeMap::new(),
            next_owner_seed: config.owner_seed_base.max(1),
            metrics,
            audit_cache: AuditCache::new(),
        })
    }

    /// Verifying key for π_k: the registry's entry the verifier contract embeds.
    pub fn keyneg_vk(&self) -> &VerifyingKey {
        &self.keyneg.vk
    }

    /// Cumulative robustness counters over every fetch performed so far
    /// (a view of [`Self::metrics`]).
    pub fn robustness(&self) -> RobustnessMetrics {
        RobustnessMetrics {
            retrievals: self.metrics.counter_value(metric::RETRIEVALS),
            attempts: self.metrics.counter_value(metric::ATTEMPTS),
            hedges: self.metrics.counter_value(metric::HEDGES),
            quarantined: self.metrics.counter_value(metric::QUARANTINED),
            backoff_ticks: self.metrics.counter_value(metric::BACKOFF_TICKS),
            degraded_reads: self.metrics.counter_value(metric::DEGRADED),
            repaired_shares: self.metrics.counter_value(metric::REPAIRED_SHARES),
        }
    }

    /// The marketplace's own metrics registry: retrieval robustness plus
    /// anything future protocol code records per instance.
    pub fn metrics(&self) -> &zkdet_telemetry::Registry {
        &self.metrics
    }

    /// Registers a processing relation `f` (public setup data): auditors
    /// will verify `Processing` edges claiming this formula against `vk`.
    pub fn register_processing_relation(&mut self, formula: impl Into<String>, vk: VerifyingKey) {
        self.processing_vks.insert(formula.into(), vk);
    }

    /// Publishes a dataset derived by a registered processing relation
    /// (model training, §IV-E). The caller supplies the transformation
    /// proof and its statement; the statement convention is
    /// `[c_{s₁}, …, c_{sₓ}, c_d, extra…]` and is checked during audits.
    #[allow(clippy::too_many_arguments)]
    pub fn publish_processed<R: Rng + ?Sized>(
        &mut self,
        owner: &mut DataOwner,
        source_tokens: &[TokenId],
        derived: Dataset,
        formula: impl Into<String>,
        proof: Proof,
        publics: Vec<Fr>,
        derived_commitment: Commitment,
        derived_opening: Opening,
        rng: &mut R,
    ) -> Result<TokenId, ZkdetError> {
        let formula = formula.into();
        if !self.processing_vks.contains_key(&formula) {
            return Err(ZkdetError::Protocol(format!(
                "processing relation '{formula}' is not registered"
            )));
        }
        // The derived commitment must sit at position x (after the parents).
        if publics.get(source_tokens.len()) != Some(&derived_commitment.0) {
            return Err(ZkdetError::Inconsistent(
                "derived commitment not at the conventional statement position".into(),
            ));
        }
        // Encrypt the derived dataset under a fresh key, reusing the given
        // commitment (the processing circuit already committed to it).
        let key = Fr::random(rng);
        let nonce = Fr::random(rng);
        let ciphertext = MimcCtr::new(key, nonce).encrypt(derived.entries());
        let keys = self.keys_of(Shape::Enc(derived.len()))?;
        let circuit = EncryptionCircuit::new(derived.len()).synthesize(
            derived.entries(),
            key,
            &ciphertext,
            &derived_commitment,
            &derived_opening,
        );
        let pi_e = Plonk::prove(&keys.pk, &circuit, rng)?;
        let secret = DatasetSecret {
            key,
            nonce,
            opening: derived_opening,
            data: derived.clone(),
            commitment: derived_commitment,
        };
        let bundle = ProofBundle {
            pi_e,
            len: derived.len(),
            pi_t: Some(TransformProof::Processing {
                formula: formula.clone(),
                publics,
                proof,
            }),
        };
        self.mint_with_bundle(
            owner,
            secret,
            ciphertext,
            bundle,
            TransformKind::Processing(formula),
            source_tokens.to_vec(),
        )
    }

    /// Registers a funded participant.
    pub fn register(&mut self) -> DataOwner {
        let seed = self.next_owner_seed;
        self.next_owner_seed += 1;
        let address = Address::from_seed(seed);
        self.chain.state.fund(address, 1_000_000_000);
        DataOwner {
            address,
            pin: PinOwner(seed),
            secrets: BTreeMap::new(),
        }
    }

    /// The deployment's key registry (shared with sibling shards, if any).
    pub fn key_registry(&self) -> &Arc<KeyRegistry> {
        &self.keys
    }

    /// A fixed shape's keys from the registry, derived from the shape's
    /// sample if this deployment has not seen the shape yet.
    fn keys_of(&self, shape: Shape) -> Result<KeyPair, ZkdetError> {
        Ok(self.keys.keys(shape, &self.metrics)?)
    }

    /// The π_p keys for a synthesized validation circuit, keyed by its
    /// shape digest so that no predicate can alias another's relation.
    pub(crate) fn validation_keys(&self, circuit: &CompiledCircuit) -> Result<KeyPair, ZkdetError> {
        let shape = Shape::Validation(circuit.shape_digest());
        if let Some(keys) = self.keys.lookup(&shape, &self.metrics) {
            return Ok(keys);
        }
        Ok(self.keys.insert(shape, KeyRegistry::derive(&self.srs, circuit)?))
    }

    /// Encrypts, commits, proves and publishes a dataset end-to-end,
    /// producing the token (§IV-B step 1 + §III-A binding).
    pub fn publish_original<R: Rng + ?Sized>(
        &mut self,
        owner: &mut DataOwner,
        data: Dataset,
        rng: &mut R,
    ) -> Result<TokenId, ZkdetError> {
        let mut span = zkdet_telemetry::span("market.publish");
        span.record("blocks", data.len() as u64);
        let (secret, ciphertext, pi_e) = self.encrypt_and_prove(&data, rng)?;
        let bundle = ProofBundle {
            pi_e,
            len: data.len(),
            pi_t: None,
        };
        self.mint_with_bundle(
            owner,
            secret,
            ciphertext,
            bundle,
            TransformKind::Original,
            vec![],
        )
    }

    /// Shared §IV-B step-1/3 logic: fresh key + nonce, MiMC-CTR encryption,
    /// Poseidon commitment, and `π_e`. An empty dataset is refused here,
    /// before any key, proof, upload or mint, for every protocol that
    /// publishes one.
    fn encrypt_and_prove<R: Rng + ?Sized>(
        &mut self,
        data: &Dataset,
        rng: &mut R,
    ) -> Result<(DatasetSecret, Ciphertext, Proof), ZkdetError> {
        if data.is_empty() {
            return Err(ZkdetError::Protocol(
                "cannot publish an empty dataset".into(),
            ));
        }
        let _span = zkdet_telemetry::span("market.encrypt_and_prove");
        let key = Fr::random(rng);
        let nonce = Fr::random(rng);
        let ciphertext = MimcCtr::new(key, nonce).encrypt(data.entries());
        let (commitment, opening) = CommitmentScheme::commit(data.entries(), rng);
        let keys = self.keys_of(Shape::Enc(data.len()))?;
        let circuit = EncryptionCircuit::new(data.len()).synthesize(
            data.entries(),
            key,
            &ciphertext,
            &commitment,
            &opening,
        );
        let pi_e = Plonk::prove(&keys.pk, &circuit, rng)?;
        Ok((
            DatasetSecret {
                key,
                nonce,
                opening,
                data: data.clone(),
                commitment,
            },
            ciphertext,
            pi_e,
        ))
    }

    /// Uploads ciphertext + bundle and mints the token.
    pub(crate) fn mint_with_bundle(
        &mut self,
        owner: &mut DataOwner,
        secret: DatasetSecret,
        ciphertext: Ciphertext,
        bundle: ProofBundle,
        kind: TransformKind,
        prev_ids: Vec<TokenId>,
    ) -> Result<TokenId, ZkdetError> {
        let _span = zkdet_telemetry::span("market.mint");
        let cid = self.storage.publish(owner.pin, encode_ciphertext(&ciphertext))?;
        let proof_cid = self.storage.publish(owner.pin, bundle.to_bytes())?;
        let meta = TokenMeta {
            cid,
            commitment: secret.commitment.0,
            prev_ids,
            kind,
            proof_cid: Some(proof_cid),
        };
        let (token, _receipt) = self.chain.nft_mint(self.nft_addr, owner.address, meta)?;
        owner.secrets.insert(token, secret);
        Ok(token)
    }

    /// Duplication (§IV-D 1): replicates a dataset under a fresh key and
    /// commitment, proving `D = S` over the two commitments.
    pub fn duplicate<R: Rng + ?Sized>(
        &mut self,
        owner: &mut DataOwner,
        source_token: TokenId,
        rng: &mut R,
    ) -> Result<TokenId, ZkdetError> {
        let src = owner
            .secrets
            .get(&source_token)
            .ok_or(ZkdetError::MissingSecret(source_token))?
            .clone();
        let data = src.data.clone();
        let (secret, ciphertext, pi_e) = self.encrypt_and_prove(&data, rng)?;
        let n = data.len();
        let circuit = DuplicationCircuit::new(n).synthesize(
            data.entries(),
            &src.commitment,
            &src.opening,
            &secret.commitment,
            &secret.opening,
        );
        let keys = self.keys_of(Shape::Dup(n))?;
        let proof = Plonk::prove(&keys.pk, &circuit, rng)?;
        let bundle = ProofBundle {
            pi_e,
            len: n,
            pi_t: Some(TransformProof::Duplication { len: n, proof }),
        };
        self.mint_with_bundle(
            owner,
            secret,
            ciphertext,
            bundle,
            TransformKind::Duplication,
            vec![source_token],
        )
    }

    /// Aggregation (§IV-D 2): merges datasets in token order into a new
    /// derived dataset `D = S₁ ‖ … ‖ Sₓ`.
    pub fn aggregate<R: Rng + ?Sized>(
        &mut self,
        owner: &mut DataOwner,
        source_tokens: &[TokenId],
        rng: &mut R,
    ) -> Result<TokenId, ZkdetError> {
        if source_tokens.len() < 2 {
            return Err(ZkdetError::Protocol(
                "aggregation needs at least two sources".into(),
            ));
        }
        let sources: Vec<DatasetSecret> = source_tokens
            .iter()
            .map(|t| {
                owner
                    .secrets
                    .get(t)
                    .cloned()
                    .ok_or(ZkdetError::MissingSecret(*t))
            })
            .collect::<Result<_, _>>()?;
        let datasets: Vec<Dataset> = sources.iter().map(|s| s.data.clone()).collect();
        let merged = Dataset::concat(&datasets);
        let (secret, ciphertext, pi_e) = self.encrypt_and_prove(&merged, rng)?;

        let source_lens: Vec<usize> = datasets.iter().map(|d| d.len()).collect();
        let shape = AggregationCircuit::new(source_lens.clone());
        let source_entries: Vec<Vec<Fr>> =
            datasets.iter().map(|d| d.entries().to_vec()).collect();
        let source_commits: Vec<(Commitment, Opening)> = sources
            .iter()
            .map(|s| (s.commitment, s.opening))
            .collect();
        let circuit = shape.synthesize(
            &source_entries,
            &source_commits,
            &secret.commitment,
            &secret.opening,
        );
        let keys = self.keys_of(Shape::Agg(source_lens))?;
        let proof = Plonk::prove(&keys.pk, &circuit, rng)?;
        let bundle = ProofBundle {
            pi_e,
            len: merged.len(),
            pi_t: Some(TransformProof::Aggregation {
                source_lens: shape.source_lens.clone(),
                proof,
            }),
        };
        self.mint_with_bundle(
            owner,
            secret,
            ciphertext,
            bundle,
            TransformKind::Aggregation,
            source_tokens.to_vec(),
        )
    }

    /// Partition (§IV-D 3): splits a dataset into consecutive parts, each
    /// minted as its own token carrying the shared partition proof.
    pub fn partition<R: Rng + ?Sized>(
        &mut self,
        owner: &mut DataOwner,
        source_token: TokenId,
        sizes: &[usize],
        rng: &mut R,
    ) -> Result<Vec<TokenId>, ZkdetError> {
        let src = owner
            .secrets
            .get(&source_token)
            .ok_or(ZkdetError::MissingSecret(source_token))?
            .clone();
        if sizes.iter().sum::<usize>() != src.data.len() || sizes.contains(&0) {
            return Err(ZkdetError::Protocol(
                "partition sizes must be non-empty and cover the dataset".into(),
            ));
        }
        let parts = src.data.split(sizes);
        // Encrypt + π_e per part.
        let mut encrypted = Vec::with_capacity(parts.len());
        for part in &parts {
            encrypted.push(self.encrypt_and_prove(part, rng)?);
        }
        let part_commits: Vec<(Commitment, Opening)> = encrypted
            .iter()
            .map(|(s, _, _)| (s.commitment, s.opening))
            .collect();
        let part_commitment_values: Vec<Fr> =
            part_commits.iter().map(|(c, _)| c.0).collect();

        // One shared partition proof.
        let shape = PartitionCircuit::new(sizes.to_vec());
        let circuit = shape.synthesize(
            src.data.entries(),
            &src.commitment,
            &src.opening,
            &part_commits,
        );
        let keys = self.keys_of(Shape::Part(sizes.to_vec()))?;
        let proof = Plonk::prove(&keys.pk, &circuit, rng)?;

        let mut tokens = Vec::with_capacity(parts.len());
        for (idx, (secret, ciphertext, pi_e)) in encrypted.into_iter().enumerate() {
            let bundle = ProofBundle {
                pi_e,
                len: sizes[idx],
                pi_t: Some(TransformProof::Partition {
                    part_lens: sizes.to_vec(),
                    part_index: idx,
                    part_commitments: part_commitment_values.clone(),
                    proof: proof.clone(),
                }),
            };
            let token = self.mint_with_bundle(
                owner,
                secret,
                ciphertext,
                bundle,
                TransformKind::Partition,
                vec![source_token],
            )?;
            tokens.push(token);
        }
        Ok(tokens)
    }

    /// Fetches a token's public artefacts: `(ciphertext, bundle)`.
    ///
    /// Retrieval goes through [`StorageNetwork::retrieve_with_stats`], so
    /// transient storage faults (drops, slow or crashed share holders,
    /// stale records) are retried, hedged and backed off before an error
    /// surfaces; per-fetch statistics are accumulated into
    /// [`Marketplace::robustness`].
    pub fn fetch_artefacts(
        &mut self,
        token: TokenId,
    ) -> Result<(Ciphertext, ProofBundle), ZkdetError> {
        let _span = zkdet_telemetry::span("market.fetch_artefacts");
        let meta = self.chain.nft(&self.nft_addr)?.token_meta(token)?.clone();
        let ct_bytes = self.retrieve_tracked(&meta.cid)?;
        let ciphertext = decode_ciphertext(&ct_bytes)?;
        let proof_cid = meta
            .proof_cid
            .ok_or_else(|| ZkdetError::Inconsistent(format!("token {token} has no proof")))?;
        let bundle_bytes = self.retrieve_tracked(&proof_cid)?;
        let bundle = ProofBundle::from_bytes(&bundle_bytes)?;
        Ok((ciphertext, bundle))
    }

    /// One retrieval with metrics accumulation.
    fn retrieve_tracked(&mut self, cid: &zkdet_storage::Cid) -> Result<Arc<[u8]>, ZkdetError> {
        // zkdet-analyzer: allow(wall-clock) retrieval latency metric only; never feeds protocol or schedule state
        let t0 = std::time::Instant::now();
        let (bytes, stats) = self.storage.retrieve_with_stats(cid)?;
        self.metrics.observe(
            metric::RETRIEVE_LATENCY_US,
            t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        );
        self.metrics.counter_add(metric::RETRIEVALS, 1);
        self.metrics
            .counter_add(metric::ATTEMPTS, u64::from(stats.attempts));
        self.metrics
            .counter_add(metric::HEDGES, u64::from(stats.hedges));
        self.metrics
            .counter_add(metric::QUARANTINED, u64::from(stats.quarantined));
        self.metrics
            .counter_add(metric::BACKOFF_TICKS, stats.backoff_ticks);
        if stats.degraded {
            self.metrics.counter_add(metric::DEGRADED, 1);
        }
        Ok(bytes)
    }

    /// Runs the storage layer's deterministic repair scheduler one tick
    /// and folds any restored shares into the robustness counters. The
    /// exchange drive loop calls this every iteration, so redundancy lost
    /// to churn or Byzantine corruption heals while exchanges are in
    /// flight; it is a cheap no-op when nothing is queued or the repair
    /// interval has not elapsed on the simulated clock.
    pub fn tick_storage_repairs(&mut self) {
        if let Some(report) = self.storage.tick_repairs() {
            self.metrics
                .counter_add(metric::REPAIRED_SHARES, report.shares_restored);
        }
    }

    /// Third-party audit (§III-B / Fig. 3): verifies a token's proof of
    /// encryption against the public ciphertext and on-chain commitment,
    /// verifies its transformation proof against the parents' commitments,
    /// and recurses up the `prevIds[]` chain to the sources.
    ///
    /// Needs only public data — no plaintexts, keys or openings. Every
    /// proof not already in the audit cache is folded into a **single**
    /// pairing check ([`verify_lineage`]); if that rejects, the proofs are
    /// re-verified one by one so the error names the exact token and check.
    pub fn audit_token<R: Rng + ?Sized>(
        &mut self,
        token: TokenId,
        rng: &mut R,
    ) -> Result<ProvenanceReport, ZkdetError> {
        let mut span = zkdet_telemetry::span("market.audit");
        let (checks, report) = self.collect_audit_checks(token)?;
        span.record("proofs", checks.len() as u64);
        span.record("edges", report.transform_edges as u64);
        verify_lineage(&checks, &mut self.audit_cache, rng).map_err(|r| {
            ZkdetError::LineageProofInvalid {
                token: TokenId(r.node.0),
                what: r.label,
            }
        })?;
        Ok(report)
    }

    /// The verified-lineage-proof cache (hit/miss counters, size).
    pub fn audit_cache(&self) -> &AuditCache {
        &self.audit_cache
    }

    /// Drops every cached verified check (e.g. after rotating trust roots).
    pub fn clear_audit_cache(&mut self) {
        self.audit_cache.clear();
    }

    /// Tamper-evident lineage digest of a token: a Merkle accumulator over
    /// its canonically-ordered sub-DAG (stable across insertion orders,
    /// sensitive to any payload or edge change).
    pub fn lineage_digest(&self, token: TokenId) -> Result<Fr, ZkdetError> {
        let nft = self.chain.nft(&self.nft_addr)?;
        nft.token_meta(token)?;
        lineage_digest(nft.provenance_index(), NodeId(token.0))
            .map_err(|e| ZkdetError::Inconsistent(format!("lineage digest: {e}")))
    }

    /// ASCII provenance tree of a token (parents indented beneath each
    /// node, shared ancestors elided).
    pub fn provenance_tree(&self, token: TokenId) -> Result<String, ZkdetError> {
        let nft = self.chain.nft(&self.nft_addr)?;
        nft.token_meta(token)?;
        export::render_tree(nft.provenance_index(), NodeId(token.0))
            .map_err(|e| ZkdetError::Inconsistent(format!("provenance tree: {e}")))
    }

    /// Graphviz DOT rendering of a token's lineage sub-DAG.
    pub fn provenance_dot(&self, token: TokenId) -> Result<String, ZkdetError> {
        let nft = self.chain.nft(&self.nft_addr)?;
        nft.token_meta(token)?;
        export::to_dot(nft.provenance_index(), NodeId(token.0))
            .map_err(|e| ZkdetError::Inconsistent(format!("provenance dot: {e}")))
    }

    /// Structured JSON rendering of a token's lineage sub-DAG.
    pub fn provenance_json(
        &self,
        token: TokenId,
    ) -> Result<zkdet_telemetry::Value, ZkdetError> {
        let nft = self.chain.nft(&self.nft_addr)?;
        nft.token_meta(token)?;
        export::to_json(nft.provenance_index(), NodeId(token.0))
            .map_err(|e| ZkdetError::Inconsistent(format!("provenance json: {e}")))
    }

    /// Walks the lineage collecting `(vk, statement, proof, label)` tuples
    /// plus the structural report. Performs all non-cryptographic integrity
    /// checks (digests, lengths, bundle shapes, statement consistency)
    /// eagerly, each before the key lookup it guards.
    fn collect_audit_checks(
        &mut self,
        token: TokenId,
    ) -> Result<(Vec<LineageCheck>, ProvenanceReport), ZkdetError> {
        let mut checks: Vec<LineageCheck> = Vec::new();
        let mut verified = Vec::new();
        let mut edges = 0usize;
        let mut queue = std::collections::VecDeque::from([token]);
        let mut seen = std::collections::BTreeSet::from([token]);
        while let Some(cur) = queue.pop_front() {
            let meta = self.chain.nft(&self.nft_addr)?.token_meta(cur)?.clone();
            let (ciphertext, bundle) = self.fetch_artefacts(cur)?;

            // π_e: ciphertext matches the committed plaintext.
            if ciphertext.blocks.len() != bundle.len {
                return Err(ZkdetError::Inconsistent(format!(
                    "token {cur}: ciphertext length {} vs bundle length {}",
                    ciphertext.blocks.len(),
                    bundle.len
                )));
            }
            // π_t's sizes pick the circuit its key derives from: they must
            // agree with that verified length before any key lookup.
            if !bundle.shape_fits(meta.prev_ids.len(), self.srs.max_degree()) {
                return Err(ZkdetError::Inconsistent(format!(
                    "token {cur}: π_t shape does not fit bundle length {}",
                    bundle.len
                )));
            }
            let enc_shape = EncryptionCircuit::new(bundle.len);
            let commitment = Commitment(meta.commitment);
            checks.push(LineageCheck {
                node: NodeId(cur.0),
                vk: self.keys_of(Shape::Enc(bundle.len))?.vk,
                publics: enc_shape.public_inputs(&ciphertext, &commitment),
                proof: bundle.pi_e.clone(),
                label: "π_e",
            });

            // π_t: the transformation relating this token to its parents.
            let parent_commitments: Vec<Fr> = meta
                .prev_ids
                .iter()
                .map(|p| {
                    self.chain
                        .nft(&self.nft_addr)
                        .and_then(|n| n.token_meta(*p))
                        .map(|m| m.commitment)
                        .map_err(ZkdetError::from)
                })
                .collect::<Result<_, _>>()?;
            let parents: Vec<Commitment> =
                parent_commitments.iter().copied().map(Commitment).collect();
            let transform = match (&meta.kind, &bundle.pi_t) {
                (TransformKind::Original, None) => None,
                (TransformKind::Duplication, Some(TransformProof::Duplication { len, proof })) => {
                    Some((
                        self.keys_of(Shape::Dup(*len))?.vk,
                        DuplicationCircuit::new(*len).public_inputs(&parents[0], &commitment),
                        proof,
                        "π_t (duplication)",
                    ))
                }
                (
                    TransformKind::Aggregation,
                    Some(TransformProof::Aggregation { source_lens, proof }),
                ) => Some((
                    self.keys_of(Shape::Agg(source_lens.clone()))?.vk,
                    AggregationCircuit::new(source_lens.clone())
                        .public_inputs(&commitment, &parents),
                    proof,
                    "π_t (aggregation)",
                )),
                (
                    TransformKind::Partition,
                    Some(TransformProof::Partition {
                        part_lens,
                        part_index,
                        part_commitments,
                        proof,
                    }),
                ) => {
                    if part_commitments.get(*part_index) != Some(&meta.commitment) {
                        return Err(ZkdetError::Inconsistent(format!(
                            "token {cur}: partition index does not match its commitment"
                        )));
                    }
                    let parts: Vec<Commitment> =
                        part_commitments.iter().copied().map(Commitment).collect();
                    Some((
                        self.keys_of(Shape::Part(part_lens.clone()))?.vk,
                        PartitionCircuit::new(part_lens.clone()).public_inputs(&parents[0], &parts),
                        proof,
                        "π_t (partition)",
                    ))
                }
                (
                    TransformKind::Processing(kind_formula),
                    Some(TransformProof::Processing {
                        formula,
                        publics,
                        proof,
                    }),
                ) => {
                    if kind_formula != formula {
                        return Err(ZkdetError::Inconsistent(format!(
                            "token {cur}: on-chain formula '{kind_formula}' vs bundle '{formula}'"
                        )));
                    }
                    let vk = self.processing_vks.get(formula).ok_or_else(|| {
                        ZkdetError::Protocol(format!(
                            "processing relation '{formula}' is not registered"
                        ))
                    })?;
                    // Statement convention: parents' commitments first, then
                    // the derived commitment.
                    for (i, pc) in parent_commitments.iter().enumerate() {
                        if publics.get(i) != Some(pc) {
                            return Err(ZkdetError::Inconsistent(format!(
                                "token {cur}: processing statement omits parent {i}"
                            )));
                        }
                    }
                    if publics.get(parent_commitments.len()) != Some(&meta.commitment) {
                        return Err(ZkdetError::Inconsistent(format!(
                            "token {cur}: processing statement omits the derived commitment"
                        )));
                    }
                    Some((Arc::new(vk.clone()), publics.clone(), proof, "π_t (processing)"))
                }
                _ => {
                    return Err(ZkdetError::Inconsistent(format!(
                        "token {cur}: transformation kind does not match proof bundle"
                    )))
                }
            };
            if let Some((vk, publics, proof, label)) = transform {
                checks.push(LineageCheck {
                    node: NodeId(cur.0),
                    vk,
                    publics,
                    proof: proof.clone(),
                    label,
                });
                edges += 1;
            }

            verified.push(cur);
            for p in meta.prev_ids {
                if seen.insert(p) {
                    queue.push_back(p);
                }
            }
        }
        Ok((
            checks,
            ProvenanceReport {
                verified_tokens: verified,
                transform_edges: edges,
            },
        ))
    }
}

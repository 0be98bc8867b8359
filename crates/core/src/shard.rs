//! Token-range sharded marketplace (DESIGN.md §16).
//!
//! A [`ShardedMarketplace`] is N independent [`Marketplace`] instances —
//! each with its own chain, storage quorum, contracts and write-ahead
//! exchange journal — sharing one universal SRS and the proving-key
//! registry derived from it (the paper's one-time ceremony and per-relation
//! `KeyGen` outputs are deployment-global; everything else is per-shard
//! state). Shards mint from disjoint token-id ranges spaced
//! [`SHARD_TOKEN_STRIDE`] apart, so a bare [`TokenId`] routes to its
//! shard with one division and no cross-shard lookup table.
//!
//! Sharding is what lets the deterministic executor run exchanges
//! concurrently without cross-exchange interference: two exchanges on
//! different shards touch disjoint chains and journals, so their
//! interleaving cannot change either one's outcome — only the scheduler's
//! seed decides the global event order, and that order is replayable.

use rand::Rng;
use std::sync::Arc;
use zkdet_chain::{Address, TokenId};
use zkdet_kzg::Srs;
use zkdet_storage::FaultPlan;

use crate::error::ZkdetError;
use crate::journal::ExchangeWal;
use crate::keys::KeyRegistry;
use crate::market::{DataOwner, MarketConfig, Marketplace};
use crate::recovery::RecoveryReport;

/// Token-id spacing between shards. 2⁴⁰ tokens per shard is far beyond
/// any simulated workload, so ranges never collide and `token / stride`
/// is the shard index.
pub const SHARD_TOKEN_STRIDE: u64 = 1 << 40;

/// Participant-seed spacing between shards (addresses are derived from
/// seeds, so disjoint ranges keep addresses distinct across shards).
pub const SHARD_OWNER_SEED_STRIDE: u64 = 1 << 20;

/// One shard: a full marketplace deployment plus its own exchange WAL.
pub struct MarketShard {
    /// The shard's marketplace (chain, storage quorum, contracts, keys).
    pub market: Marketplace,
    /// The shard's write-ahead exchange journal. Per-shard journals keep
    /// WAL appends free of cross-shard ordering: the byte stream of one
    /// shard's journal is a pure function of that shard's exchange steps.
    pub wal: ExchangeWal,
}

/// Configuration for [`ShardedMarketplace::bootstrap_with`].
#[derive(Clone)]
pub struct ShardPlanConfig {
    /// Number of shards.
    pub shards: usize,
    /// Circuit-size ceiling for the shared SRS setup.
    pub max_constraints: usize,
    /// Storage nodes per shard.
    pub storage_nodes: usize,
    /// Per-shard storage fault plans; shards beyond the slice get
    /// [`FaultPlan::none`].
    pub fault_plans: Vec<FaultPlan>,
}

impl Default for ShardPlanConfig {
    fn default() -> Self {
        ShardPlanConfig {
            shards: 4,
            max_constraints: 1 << 12,
            storage_nodes: 8,
            fault_plans: Vec::new(),
        }
    }
}

/// Per-shard participants for [`ShardedMarketplace::recover`].
pub struct ShardParties {
    /// The shard's seller, if still reachable after the crash.
    pub seller: Option<DataOwner>,
    /// The shard's buyer (recovery re-drives retrieval on their behalf).
    pub buyer: DataOwner,
    /// The shard's FairSwap contract, if swap records may be in-flight.
    pub fairswap: Option<Address>,
}

/// N marketplaces behind a token-range router, sharing one SRS and one
/// key registry.
pub struct ShardedMarketplace {
    shards: Vec<MarketShard>,
    /// The deployment's key registry (and, through it, the universal SRS):
    /// a shape preprocessed on one shard is ready on all of them.
    pub keys: Arc<KeyRegistry>,
}

impl ShardedMarketplace {
    /// Bootstraps `shards` fault-free shards sharing one fresh SRS.
    pub fn bootstrap<R: Rng + ?Sized>(
        shards: usize,
        max_constraints: usize,
        storage_nodes: usize,
        rng: &mut R,
    ) -> Result<Self, ZkdetError> {
        Self::bootstrap_with(
            ShardPlanConfig {
                shards,
                max_constraints,
                storage_nodes,
                ..ShardPlanConfig::default()
            },
            rng,
        )
    }

    /// Bootstraps per [`ShardPlanConfig`]: one SRS ceremony and one key
    /// registry over it, then one marketplace per shard with its own
    /// token-id range, participant-seed range, storage quorum (with that
    /// shard's fault plan) and WAL.
    pub fn bootstrap_with<R: Rng + ?Sized>(
        config: ShardPlanConfig,
        rng: &mut R,
    ) -> Result<Self, ZkdetError> {
        let mut span = zkdet_telemetry::span("market.bootstrap_sharded");
        span.record("shards", config.shards as u64);
        if config.shards == 0 {
            return Err(ZkdetError::Protocol(
                "a sharded marketplace needs at least one shard".into(),
            ));
        }
        let keys = Arc::new(KeyRegistry::new(Arc::new(Srs::universal_setup(
            config.max_constraints + 8,
            rng,
        ))));
        let mut shards = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            let fault_plan = config
                .fault_plans
                .get(i)
                .cloned()
                .unwrap_or_else(FaultPlan::none);
            let market = Marketplace::bootstrap_with(
                MarketConfig {
                    keys: Some(Arc::clone(&keys)),
                    max_constraints: config.max_constraints,
                    storage_nodes: config.storage_nodes,
                    fault_plan,
                    token_base: i as u64 * SHARD_TOKEN_STRIDE,
                    owner_seed_base: 1 + i as u64 * SHARD_OWNER_SEED_STRIDE,
                },
                rng,
            )?;
            shards.push(MarketShard {
                market,
                wal: ExchangeWal::new(),
            });
        }
        Ok(ShardedMarketplace { shards, keys })
    }

    /// The shard a token id routes to.
    pub fn shard_of(token: TokenId) -> usize {
        (token.0 / SHARD_TOKEN_STRIDE) as usize
    }

    /// Shard by index.
    pub fn shard(&self, idx: usize) -> &MarketShard {
        &self.shards[idx]
    }

    /// Shard by index, mutably.
    pub fn shard_mut(&mut self, idx: usize) -> &mut MarketShard {
        &mut self.shards[idx]
    }

    /// All shards, in index order.
    pub fn shards(&self) -> impl Iterator<Item = &MarketShard> {
        self.shards.iter()
    }

    /// Crash recovery across every shard, replayed **in shard-index
    /// order** — a deterministic total order over journals, so two
    /// recoveries of the same crashed state take identical steps and
    /// produce identical post-recovery journals shard by shard.
    ///
    /// `parties[i]` supplies shard *i*'s participants; a `None` seller
    /// models a withholding or dead seller exactly as in
    /// [`Marketplace::recover`]. Settlement stays exactly-once per shard:
    /// each shard's chain settlement journal and idempotent submit paths
    /// are untouched by sharding, and journals never cross shards.
    pub fn recover<R: Rng + ?Sized>(
        &mut self,
        parties: &mut [ShardParties],
        rng: &mut R,
    ) -> Result<Vec<RecoveryReport>, ZkdetError> {
        if parties.len() != self.shards.len() {
            return Err(ZkdetError::Protocol(format!(
                "recover needs one participant set per shard: got {} for {} shards",
                parties.len(),
                self.shards.len()
            )));
        }
        let mut reports = Vec::with_capacity(self.shards.len());
        for (shard, p) in self.shards.iter_mut().zip(parties.iter_mut()) {
            let report = shard.market.recover(
                &mut shard.wal,
                p.seller.as_ref(),
                &mut p.buyer,
                p.fairswap,
                rng,
            )?;
            reports.push(report);
        }
        Ok(reports)
    }
}

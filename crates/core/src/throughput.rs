//! The fig_throughput load harness (DESIGN.md §16): drives many
//! concurrent key-secure exchanges over a [`ShardedMarketplace`] on the
//! deterministic executor, under a seeded chaos fault schedule, and
//! checks the terminal-state invariants plus byte-identical replay.
//!
//! The harness is deliberately a library: the bench binary
//! (`crates/bench/src/bin/fig_throughput.rs`) calls [`run_load`] twice
//! with the same seed to assert replay determinism, once with
//! `sim_workers = 1` for the serial baseline, and turns the outcomes
//! into a schema-validated report. The determinism proptest reuses the
//! same entry point with swap-heavy mixes.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkdet_chain::{TokenId, Wei};
use zkdet_exec::{ExecSummary, Executor};
use zkdet_field::Fr;
use zkdet_storage::FaultPlan;

use crate::dataset::Dataset;
use crate::error::ZkdetError;
use crate::machine::{
    BatcherDaemon, ExchangeMachine, ExchangeResult, ExchangeSpec, MaintenanceDaemon, MarketWorld,
    SwapMachine, SwapSpec,
};
use crate::market::DataOwner;
use crate::shard::{ShardPlanConfig, ShardedMarketplace};
use crate::trace_timeline::trace_timeline;
use crate::exchange::ExchangeOutcome;

/// Participants registered per shard; exchanges reuse them, so the
/// harness exercises repeated buyers/sellers rather than fresh accounts.
pub const OWNERS_PER_SHARD: usize = 4;

/// One load-harness run, fully described.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Schedule seed: decides interleaving, drawn keys, fault schedule.
    pub seed: u64,
    /// Number of marketplace shards.
    pub shards: usize,
    /// Simulated workers the executor schedules proving jobs over.
    pub sim_workers: usize,
    /// Key-secure exchanges to drive.
    pub exchanges: usize,
    /// Of those, how many sellers withhold settlement (refund path).
    pub withheld: usize,
    /// Cheap FairSwap machines mixed in for interleaving pressure.
    pub swaps: usize,
    /// Entries per exchanged dataset.
    pub dataset_len: usize,
    /// Range-predicate width for π_p.
    pub bits: usize,
    /// SRS ceiling.
    pub max_constraints: usize,
    /// Storage nodes per shard.
    pub storage_nodes: usize,
    /// Inject a seeded storage fault schedule per shard.
    pub chaos: bool,
}

impl LoadConfig {
    /// CI-sized preset: finishes in about a minute of wall time.
    pub fn small(seed: u64) -> Self {
        LoadConfig {
            seed,
            shards: 2,
            sim_workers: 8,
            exchanges: 8,
            withheld: 2,
            swaps: 4,
            dataset_len: 2,
            bits: 16,
            max_constraints: 1 << 13,
            storage_nodes: 8,
            chaos: true,
        }
    }

    /// The paper-figure preset: 48 fully-proving key-secure exchanges
    /// plus 10^4 FairSwap sessions — a 10_048-exchange run, with the
    /// proving-path concurrency bounded by real CPU work and the session
    /// count bounded only by the simulated clock.
    pub fn full(seed: u64) -> Self {
        LoadConfig {
            seed,
            shards: 4,
            sim_workers: 16,
            exchanges: 48,
            withheld: 8,
            swaps: 10_000,
            dataset_len: 2,
            bits: 16,
            max_constraints: 1 << 13,
            storage_nodes: 8,
            chaos: true,
        }
    }

    /// The same workload scheduled on one simulated worker — the serial
    /// baseline the speedup figure divides by. Fewer exchanges keep the
    /// (already serialized) wall time in budget; rates normalize by count.
    pub fn serial_baseline(&self, exchanges: usize, withheld: usize) -> Self {
        LoadConfig {
            sim_workers: 1,
            exchanges,
            withheld,
            swaps: 0,
            ..self.clone()
        }
    }
}

/// Everything the replay-determinism check compares, byte for byte.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayArtifacts {
    /// The executor's canonical schedule log.
    pub schedule_log: Vec<u8>,
    /// Per-shard WAL bytes, in shard order.
    pub journals: Vec<Vec<u8>>,
    /// Per-exchange journal-only trace timelines (JSON), in token order.
    pub timelines: Vec<String>,
}

/// Outcome of one [`run_load`] call.
pub struct LoadOutcome {
    /// Executor counters (ticks = simulated makespan).
    pub summary: ExecSummary,
    /// Terminal per-exchange results, in completion order.
    pub results: Vec<ExchangeResult>,
    /// Settled / refunded / aborted exchange counts.
    pub settled: usize,
    /// Exchanges that ended refunded.
    pub refunded: usize,
    /// Exchanges that settled on-chain but lost the artefact race.
    pub aborted: usize,
    /// FairSwap sessions completed.
    pub swaps_completed: u64,
    /// Folded verification batches flushed.
    pub verify_batches: u64,
    /// π_p proofs verified through folded batches.
    pub batched_proofs: u64,
    /// Per-exchange latency in ticks (end − start), completion order.
    pub latency_ticks: Vec<u64>,
    /// 64-bit digest of the schedule log.
    pub schedule_digest: u64,
    /// The byte-level replay witness.
    pub replay: ReplayArtifacts,
    /// Declared World-state accesses in step order — input to the
    /// `zkdet_analyzer::race` happens-before checker, which the bench
    /// and the determinism suite run as a self-gate.
    pub accesses: Vec<zkdet_exec::AccessRecord>,
    /// Invariant violations found in the terminal state (must be empty).
    pub invariant_failures: Vec<String>,
}

/// Latency quantile over a tick-latency sample (nearest-rank).
pub fn latency_quantile(latencies: &[u64], q: f64) -> Option<u64> {
    if latencies.is_empty() {
        return None;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

fn chaos_plan(seed: u64, shard: usize) -> FaultPlan {
    // Mild but real: a global drop probability plus one slow node per
    // shard. Transient enough that the retry/repair machinery wins, real
    // enough that retrieve attempts and repair ticks show up in traces.
    FaultPlan::seeded(seed ^ (0xc4a05 + shard as u64))
        .with_global_drop(0.04)
        .with_latency(zkdet_storage::NodeId::from_seed(shard as u64 % 4), 2)
}

/// Runs the full load: bootstrap, publish, spawn machines and daemons,
/// execute, then audit the terminal state.
///
/// # Errors
///
/// Propagates setup failures and executor aborts; invariant *violations*
/// are reported in [`LoadOutcome::invariant_failures`] instead so the
/// caller can render them.
pub fn run_load(config: &LoadConfig) -> Result<LoadOutcome, ZkdetError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let fault_plans = (0..config.shards)
        .map(|s| {
            if config.chaos {
                chaos_plan(config.seed, s)
            } else {
                FaultPlan::none()
            }
        })
        .collect();
    let sharded = ShardedMarketplace::bootstrap_with(
        ShardPlanConfig {
            shards: config.shards,
            max_constraints: config.max_constraints,
            storage_nodes: config.storage_nodes,
            fault_plans,
        },
        &mut rng,
    )?;
    let mut world = MarketWorld::new(sharded, Vec::new());

    // Register the participant pools and (where needed) the FairSwap
    // contracts, then publish one dataset per exchange.
    let mut swap_contracts = Vec::with_capacity(config.shards);
    for s in 0..config.shards {
        let shard = world.sharded.shard_mut(s);
        let pool: Vec<DataOwner> = (0..OWNERS_PER_SHARD).map(|_| shard.market.register()).collect();
        world.owners.push(pool);
        let contract = if config.swaps > 0 {
            Some(world.sharded.shard_mut(s).market.deploy_fairswap_contract())
        } else {
            None
        };
        swap_contracts.push(contract);
    }

    let mut specs = Vec::with_capacity(config.exchanges);
    for i in 0..config.exchanges {
        let shard = i % config.shards;
        let seller = (i / config.shards) % OWNERS_PER_SHARD;
        let buyer = (seller + 1 + i % (OWNERS_PER_SHARD - 1)) % OWNERS_PER_SHARD;
        let data = Dataset::from_entries(
            (0..config.dataset_len)
                .map(|j| Fr::from(((i * 131 + j * 17 + 3) % (1 << config.bits)) as u64))
                .collect(),
        );
        let market = &mut world.sharded.shard_mut(shard).market;
        let owner = &mut world.owners[shard][seller];
        let token = market.publish_original(owner, data, &mut rng)?;
        specs.push(ExchangeSpec {
            shard,
            seller,
            buyer,
            token,
            start_price: 1_200,
            floor_price: 400,
            decay_per_block: 2,
            bits: config.bits,
            withhold: i < config.withheld,
        });
    }

    // Balances after setup, before the run: the paid-exactly-once check
    // works on deltas because participants are reused across exchanges.
    let mut start_balance: BTreeMap<(usize, usize), Wei> = BTreeMap::new();
    for (s, pool) in world.owners.iter().enumerate() {
        for (o, owner) in pool.iter().enumerate() {
            start_balance.insert(
                (s, o),
                world.sharded.shard(s).market.chain.state.balance(&owner.address),
            );
        }
    }

    let mut executor: Executor<MarketWorld> = Executor::new(config.seed, config.sim_workers);
    for s in 0..config.shards {
        executor.spawn_daemon(Box::new(MaintenanceDaemon { shard: s }));
    }
    executor.spawn_daemon(Box::new(BatcherDaemon::new()));
    let mut swap_specs = Vec::with_capacity(config.swaps);
    for spec in &specs {
        executor.spawn(Box::new(ExchangeMachine::new(spec.clone())));
    }
    for i in 0..config.swaps {
        let shard = i % config.shards;
        let Some(contract) = swap_contracts[shard] else {
            continue;
        };
        let seller = i % OWNERS_PER_SHARD;
        let buyer = (seller + 1) % OWNERS_PER_SHARD;
        let spec = SwapSpec {
            shard,
            seller,
            buyer,
            contract,
            data: (0..config.dataset_len)
                .map(|j| Fr::from((i * 37 + j * 5 + 11) as u64))
                .collect(),
            price: 300,
        };
        swap_specs.push(spec.clone());
        executor.spawn(Box::new(SwapMachine::new(spec)));
    }

    let summary = executor
        .run(&mut world)
        .map_err(|e| ZkdetError::Protocol(format!("executor aborted: {e}")))?;

    // ---------------- terminal-state audit ---------------- //
    let mut failures = Vec::new();

    // No wedged escrow, per shard.
    for s in 0..config.shards {
        let market = &world.sharded.shard(s).market;
        let escrow = market.chain.state.balance(&market.auction_addr);
        if escrow != 0 {
            failures.push(format!("shard {s}: auction contract holds {escrow} in escrow"));
        }
    }

    // Paid exactly once, by balance delta over reused participants:
    // settled/aborted exchanges move the price buyer → seller, refunds
    // move nothing, completed swaps move their price.
    let mut expected_delta: BTreeMap<(usize, usize), i128> = BTreeMap::new();
    for r in &world.results {
        let price = r.price.unwrap_or(0) as i128;
        match r.outcome {
            ExchangeOutcome::Settled | ExchangeOutcome::Aborted => {
                *expected_delta.entry((r.shard, r.seller)).or_default() += price;
                *expected_delta.entry((r.shard, r.buyer)).or_default() -= price;
            }
            ExchangeOutcome::Refunded => {}
        }
    }
    for spec in &swap_specs {
        *expected_delta.entry((spec.shard, spec.seller)).or_default() += spec.price as i128;
        *expected_delta.entry((spec.shard, spec.buyer)).or_default() -= spec.price as i128;
    }
    for (s, pool) in world.owners.iter().enumerate() {
        for (o, owner) in pool.iter().enumerate() {
            let start = *start_balance.get(&(s, o)).unwrap_or(&0) as i128;
            let expected = start + expected_delta.get(&(s, o)).copied().unwrap_or(0);
            let actual =
                world.sharded.shard(s).market.chain.state.balance(&owner.address) as i128;
            if actual != expected {
                failures.push(format!(
                    "shard {s} owner {o}: balance {actual}, expected {expected} \
                     (paid-exactly-once violated)"
                ));
            }
        }
    }

    // Every acknowledged publish is still reconstructible (unless the
    // fault schedule provably exceeded the erasure budget), through the
    // same read the protocol itself does.
    for s in 0..config.shards {
        let market = &mut world.sharded.shard_mut(s).market;
        for cid in market.storage.acknowledged_publishes() {
            let Some(report) = market.storage.durability_report(&cid) else {
                continue;
            };
            if !report.recoverable() {
                continue;
            }
            if market.storage.retrieve(&cid).is_err() {
                failures.push(format!(
                    "shard {s}: acked publish {cid} with {}/{} intact shares failed to \
                     reconstruct",
                    report.intact_shares, report.required_shares,
                ));
            }
        }
    }

    // Every machine must have reached a terminal outcome.
    if world.results.len() != config.exchanges {
        failures.push(format!(
            "{} of {} exchanges reached a terminal state",
            world.results.len(),
            config.exchanges
        ));
    }
    if world.swaps_completed != swap_specs.len() as u64 {
        failures.push(format!(
            "{} of {} swaps completed",
            world.swaps_completed,
            swap_specs.len()
        ));
    }

    // ---------------- replay witness ---------------- //
    let journals: Vec<Vec<u8>> = (0..config.shards)
        .map(|s| world.sharded.shard(s).wal.durable_bytes().to_vec())
        .collect();
    let mut timelines = Vec::with_capacity(specs.len());
    let mut tokens: Vec<TokenId> = specs.iter().map(|sp| sp.token).collect();
    tokens.sort_unstable_by_key(|t| t.0);
    for token in tokens {
        let shard = ShardedMarketplace::shard_of(token);
        let timeline = trace_timeline(&world.sharded.shard(shard).wal, token, &[])?;
        timelines.push(timeline.to_json().encode());
    }

    let mut settled = 0;
    let mut refunded = 0;
    let mut aborted = 0;
    let mut latency_ticks = Vec::with_capacity(world.results.len());
    for r in &world.results {
        match r.outcome {
            ExchangeOutcome::Settled => settled += 1,
            ExchangeOutcome::Refunded => refunded += 1,
            ExchangeOutcome::Aborted => aborted += 1,
        }
        latency_ticks.push(r.end_tick.saturating_sub(r.start_tick));
    }

    Ok(LoadOutcome {
        summary,
        settled,
        refunded,
        aborted,
        swaps_completed: world.swaps_completed,
        verify_batches: world.batcher.batches,
        batched_proofs: world.batcher.batched_proofs,
        latency_ticks,
        schedule_digest: executor.schedule_digest(),
        replay: ReplayArtifacts {
            schedule_log: executor.schedule_log_bytes(),
            journals,
            timelines,
        },
        accesses: executor.take_access_log(),
        invariant_failures: failures,
        results: world.results,
    })
}

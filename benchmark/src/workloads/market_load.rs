//! `market_load` — many concurrent key-secure exchanges, refunds and cheap
//! FairSwap sessions on the deterministic executor, under a seeded storage
//! fault schedule: one `throughput::run_load` call per timed operation.
//!
//! Why it exists: it is the only path through `exec`, `shard`, the machines
//! in `core::machine`, `wal`, the verify batcher, refunds and the chaos
//! `FaultPlan`. `run_load` is the harness layer's public entry and carries
//! the terminal-state invariant audit, so it is timed whole: its own
//! bootstrap and publishes are inside the operation (a traced run sizes that
//! share as `core.run_load.bootstrap_publish.ms`). Per-exchange wall time is
//! not visible from outside, so `op_p50_ms` here is the call's wall time
//! divided by the operations it carried.
//!
//! Every call of a run uses the same seed, so all of them must report the
//! same schedule digest and makespan: replay determinism is checked on
//! every run, and the calls are repeat samples of one schedule.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkdet_core::shard::{ShardPlanConfig, ShardedMarketplace};
use zkdet_core::throughput::{run_load, LoadConfig, LoadOutcome, OWNERS_PER_SHARD};
use zkdet_core::ExchangeWal;

use super::{at, ensure, random_dataset, Failure, Workload};
use crate::metrics::Metrics;
use crate::stats::OpSample;
use crate::trace::Tracer;

/// The timed call: `LoadConfig::small`'s shape (2 shards, 8 simulated
/// workers, 2-entry datasets, 16-bit π_p, chaos on) at a sixth of the
/// issue's 24/6/8 mix.
fn timed_config(seed: u64) -> LoadConfig {
    LoadConfig {
        exchanges: 4,
        withheld: 1,
        swaps: 2,
        ..LoadConfig::small(seed)
    }
}

/// The set-up's untimed call: warms the allocator and page cache.
fn warmup_config(seed: u64) -> LoadConfig {
    LoadConfig {
        exchanges: 2,
        withheld: 0,
        swaps: 0,
        ..LoadConfig::small(seed)
    }
}

pub struct MarketLoad {
    config: LoadConfig,
    /// The first timed call's outcome: what every later call must replay,
    /// byte for byte (schedule log, journals, timelines).
    first: Option<LoadOutcome>,
}

/// Checks one call's terminal state against its configuration and returns
/// how many of its operations failed. An operation fails when it ends
/// aborted or not at all; a broken invariant fails the whole call.
fn failed_operations(config: &LoadConfig, outcome: &LoadOutcome) -> u64 {
    let carried = (config.exchanges + config.swaps) as u64;
    for failure in &outcome.invariant_failures {
        eprintln!("market_load: invariant broken: {failure}");
    }
    let refunds_as_planned = outcome.refunded == config.withheld;
    if !outcome.invariant_failures.is_empty() || !refunds_as_planned {
        return carried;
    }
    let terminal = outcome.settled + outcome.refunded + outcome.aborted;
    let unfinished = config.exchanges.saturating_sub(terminal) as u64;
    let swaps_missing = (config.swaps as u64).saturating_sub(outcome.swaps_completed);
    (outcome.aborted as u64 + unfinished + swaps_missing).min(carried)
}

impl Workload for MarketLoad {
    const NAME: &'static str = "market_load";

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, Failure> {
        let warmup = warmup_config(seed);
        let outcome = tr
            .call("core.run_load_warmup", || run_load(&warmup))
            .map_err(at("warm-up run_load"))?;
        ensure(failed_operations(&warmup, &outcome) == 0, || {
            "the warm-up load did not end clean".to_string()
        })?;
        Ok(MarketLoad {
            config: timed_config(seed),
            first: None,
        })
    }

    fn op(&mut self, tr: &mut Tracer) -> OpSample {
        let attempted = (self.config.exchanges + self.config.swaps) as u64;
        let (wall_s, outcome) = tr.op(|tr| tr.call("core.run_load", || run_load(&self.config)));
        let failed = match outcome {
            Err(e) => {
                eprintln!("market_load: run_load failed: {e}");
                attempted
            }
            Ok(outcome) => {
                let mut failed = failed_operations(&self.config, &outcome);
                match &self.first {
                    None => self.first = Some(outcome),
                    Some(first) if first.replay == outcome.replay => {}
                    Some(first) => {
                        eprintln!(
                            "market_load: same seed, different run: schedule digest {:016x}, first call {:016x}",
                            outcome.schedule_digest, first.schedule_digest
                        );
                        failed = attempted;
                    }
                }
                failed
            }
        };
        OpSample {
            wall_s,
            attempted,
            failed,
            traced: false,
        }
    }

    fn finish(self, tr: &mut Tracer, layers: &mut Metrics) -> Result<(), Failure> {
        let first = self.first.ok_or("no run_load call completed")?;
        // The journals the run left behind must decode record by record.
        let mut wal_bytes = 0usize;
        for (shard, journal) in first.replay.journals.iter().enumerate() {
            wal_bytes += journal.len();
            ExchangeWal::open(journal.clone())
                .and_then(|wal| wal.records())
                .map_err(|e| format!("shard {shard}: journal does not decode: {e}"))?;
        }
        if !tr.is_recording() {
            return Ok(());
        }

        // Per-layer numbers only this workload can supply.
        let summary = &first.summary;
        layers.set("exec.makespan_ticks", summary.ticks as f64);
        layers.set("exec.busy_ticks", summary.busy_ticks as f64);
        layers.set("exec.jobs_run", summary.jobs_run as f64);
        layers.set("exec.steps", summary.steps as f64);
        layers.set("exec.job_wall_ms", summary.job_wall_micros as f64 / 1e3);
        if first.verify_batches > 0 {
            layers.set(
                "exec.verify_batch_fill",
                first.batched_proofs as f64 / first.verify_batches as f64,
            );
        }
        // The digest's top 53 bits: exact in the f64 a JSON number is read as.
        layers.set("exec.schedule_digest", (first.schedule_digest >> 11) as f64);
        layers.set(
            "wal.bytes_per_exchange",
            wal_bytes as f64 / self.config.exchanges as f64,
        );

        tr.call("core.run_load.bootstrap_publish", || {
            bootstrap_and_publish(&self.config)
        })?;
        let mean_ms = |span| tr.mean_ms(span).unwrap_or(0.0);
        let executing_ms = mean_ms("core.run_load") - mean_ms("core.run_load.bootstrap_publish");
        if executing_ms > 0.0 && summary.real_threads > 0 {
            layers.set(
                "exec.job_wall_share",
                summary.job_wall_micros as f64 / 1e3 / executing_ms / summary.real_threads as f64,
            );
        }
        Ok(())
    }
}

/// The part of `run_load` that is set-up rather than load, repeated outside
/// it so its share of the timed call can be sized: the sharded bootstrap
/// (one SRS, per-shard chain and storage) and one publish per exchange,
/// without faults.
fn bootstrap_and_publish(config: &LoadConfig) -> Result<(), Failure> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut sharded = ShardedMarketplace::bootstrap_with(
        ShardPlanConfig {
            shards: config.shards,
            max_constraints: config.max_constraints,
            storage_nodes: config.storage_nodes,
            fault_plans: Vec::new(),
        },
        &mut rng,
    )
    .map_err(at("sharded bootstrap"))?;
    let mut owners = Vec::with_capacity(config.shards);
    for s in 0..config.shards {
        let market = &mut sharded.shard_mut(s).market;
        owners.push(
            (0..OWNERS_PER_SHARD)
                .map(|_| market.register())
                .collect::<Vec<_>>(),
        );
    }
    for i in 0..config.exchanges {
        let shard = i % config.shards;
        let seller = (i / config.shards) % OWNERS_PER_SHARD;
        let data = random_dataset(config.dataset_len, config.bits as u32, &mut rng);
        sharded
            .shard_mut(shard)
            .market
            .publish_original(&mut owners[shard][seller], data, &mut rng)
            .map_err(at("publish_original"))?;
    }
    Ok(())
}

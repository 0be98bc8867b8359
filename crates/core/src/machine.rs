//! Event-driven exchange machines for the deterministic executor
//! (DESIGN.md §16).
//!
//! Each key-secure exchange becomes a resumable [`zkdet_exec::Task`]
//! stepping through *list → pay(π_p verify) → settle-prove(π_k) →
//! retrieve → decrypt → settle/refund*. Control-thread steps touch the
//! shared [`MarketWorld`]; the CPU-bound proofs run as priced pool jobs
//! whose completion ticks the simulated clock decides. The machine owns
//! the scheduling only: the protocol steps, and every WAL record they
//! write, are the ones in [`crate::exchange`] that the inline paths call,
//! so [`crate::market::Marketplace::recover`] replays machine-driven
//! exchanges without knowing the executor exists.
//!
//! Independent π_p verifications from concurrent exchanges are not
//! checked one by one: machines enqueue them on the world's
//! [`VerifyBatcher`] and a daemon folds each batch into **one** pairing
//! check (`verify_lineage`), falling back to per-proof verification only
//! if a batch rejects.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkdet_chain::contracts::ListingId;
use zkdet_chain::{Address, TokenId, Wei};
use zkdet_circuits::exchange::{RangePredicate, ValidationCircuit};
use zkdet_exec::{Step, Task, TaskCx, TaskError};
use zkdet_plonk::{CompiledCircuit, Plonk, Proof, VerifyingKey};
use zkdet_provenance::{verify_lineage, AuditCache, LineageCheck, NodeId};

use crate::dataset::Dataset;
use crate::error::ZkdetError;
use crate::exchange::{
    BuyerSession, ExchangeOutcome, SellerListing, SettlementSubmission, ValidationPackage,
};
use crate::fairswap::{FairSwapBuyer, FairSwapSeller};
use crate::keys::{KeyPair, KeyRegistry, Shape};
use crate::market::{DataOwner, DatasetSecret};
use crate::shard::ShardedMarketplace;
use crate::trace_timeline::exchange_trace;

// ------------------------------------------------------------------ //
//  Tick-cost model                                                   //
// ------------------------------------------------------------------ //
// One tick ≈ 1 ms of simulated time; the constants are calibrated to
// release-build wall times of the underlying operations so the simulated
// schedule has realistic proportions (proving dominates, verification is
// ~two orders cheaper, folded batches amortize the pairing).

/// Simulated cost of preprocessing the π_p circuit shape (done once per
/// shape and deployment: the result lands in the sharded marketplace's
/// [`KeyRegistry`], where every later machine on any shard finds it).
pub const COST_PREPROCESS_PI_P: u64 = 400;
/// Simulated cost of proving π_p.
pub const COST_PROVE_PI_P: u64 = 650;
/// Simulated cost of proving π_k.
pub const COST_PROVE_PI_K: u64 = 750;
/// Simulated base cost of one folded batch verification (the pairing).
pub const COST_VERIFY_BATCH_BASE: u64 = 8;
/// Simulated per-proof cost inside a folded batch (MSM folding work).
pub const COST_VERIFY_PER_PROOF: u64 = 10;
/// Ticks between block-producer daemon beats (one block per beat).
pub const BLOCK_TICKS: u64 = 8;
/// Polling cadence for machines waiting on shared state.
pub const POLL_TICKS: u64 = 2;

// ------------------------------------------------------------------ //
//  Shared world                                                      //
// ------------------------------------------------------------------ //

/// Cross-exchange proof-verification batcher: machines enqueue checks
/// and poll for verdicts; the [`BatcherDaemon`] folds queued checks into
/// single pairing checks on the worker pool.
#[derive(Default)]
pub struct VerifyBatcher {
    next_ticket: u64,
    queue: Vec<(u64, LineageCheck)>,
    verdicts: BTreeMap<u64, bool>,
    /// Proofs verified through folded batches (for reports).
    pub batched_proofs: u64,
    /// Folded batches flushed (for reports).
    pub batches: u64,
}

impl VerifyBatcher {
    /// Queues a check; the verdict appears under the returned ticket.
    pub fn enqueue(&mut self, check: LineageCheck) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.queue.push((ticket, check));
        ticket
    }

    /// Takes the current queue for a flush.
    pub fn drain(&mut self) -> Vec<(u64, LineageCheck)> {
        std::mem::take(&mut self.queue)
    }

    /// Records a flushed batch's verdicts.
    pub fn record(&mut self, verdicts: impl IntoIterator<Item = (u64, bool)>) {
        for (ticket, ok) in verdicts {
            self.verdicts.insert(ticket, ok);
        }
    }

    /// Takes a verdict, if the ticket's batch has completed.
    pub fn verdict(&mut self, ticket: u64) -> Option<bool> {
        self.verdicts.remove(&ticket)
    }
}

/// Terminal record of one machine-driven exchange.
#[derive(Clone, Debug)]
pub struct ExchangeResult {
    /// The exchanged token.
    pub token: TokenId,
    /// Shard the exchange ran on.
    pub shard: usize,
    /// Seller's index in the shard's owner pool.
    pub seller: usize,
    /// Buyer's index in the shard's owner pool.
    pub buyer: usize,
    /// Escrowed price (`None` if the machine never locked).
    pub price: Option<Wei>,
    /// Terminal protocol state.
    pub outcome: ExchangeOutcome,
    /// Tick the machine first stepped.
    pub start_tick: u64,
    /// Tick the machine finished.
    pub end_tick: u64,
    /// Retrieve attempts against the published `k_c`.
    pub recover_attempts: u32,
}

/// The world every executor task shares: the sharded deployment,
/// per-shard participant pools, the verification batcher, the π_p
/// shapes being preprocessed and the accumulated results.
///
/// The fields are deliberately separate so a machine can split borrows —
/// `&mut` the shard it routes to and `&mut` one owner at a time — without
/// aliasing.
pub struct MarketWorld {
    /// The sharded marketplace (chains, storage quorums, WALs).
    pub sharded: ShardedMarketplace,
    /// `owners[shard][idx]`: each participant lives on one shard's chain.
    pub owners: Vec<Vec<DataOwner>>,
    /// Cross-exchange π_p verification batcher.
    pub batcher: VerifyBatcher,
    /// π_p shapes some machine's preprocessing job is deriving right now;
    /// machines needing one of them poll the key registry instead of
    /// shipping a second job.
    preprocessing: BTreeSet<Shape>,
    /// Terminal results, in completion order (deterministic).
    pub results: Vec<ExchangeResult>,
    /// Swap machines completed (for reports).
    pub swaps_completed: u64,
}

impl MarketWorld {
    /// A world over a sharded deployment with the given per-shard pools.
    pub fn new(sharded: ShardedMarketplace, owners: Vec<Vec<DataOwner>>) -> Self {
        MarketWorld {
            sharded,
            owners,
            batcher: VerifyBatcher::default(),
            preprocessing: BTreeSet::new(),
            results: Vec::new(),
            swaps_completed: 0,
        }
    }
}

// ------------------------------------------------------------------ //
//  The exchange machine                                              //
// ------------------------------------------------------------------ //

/// Static description of one exchange a machine will drive.
#[derive(Clone, Debug)]
pub struct ExchangeSpec {
    /// Shard the token lives on.
    pub shard: usize,
    /// Seller's index in the shard's owner pool (must own `token`).
    pub seller: usize,
    /// Buyer's index in the shard's owner pool.
    pub buyer: usize,
    /// The token to exchange (published during setup).
    pub token: TokenId,
    /// Clock-auction start price.
    pub start_price: Wei,
    /// Clock-auction floor price.
    pub floor_price: Wei,
    /// Clock-auction decay per block.
    pub decay_per_block: Wei,
    /// Range-predicate width for π_p (every entry `< 2^bits`).
    pub bits: usize,
    /// A withholding seller: never settles, driving the buyer to the
    /// refund path (chaos coverage for the timeout discipline).
    pub withhold: bool,
}

enum Phase {
    Init,
    /// π_p synthesized, its keys not ready: `job` is this machine's own
    /// preprocessing job, or `None` while another machine's is in flight.
    AwaitKeys {
        job: Option<zkdet_exec::JobId>,
        shape: Shape,
        circuit: Arc<CompiledCircuit>,
    },
    ProvingValidation {
        job: zkdet_exec::JobId,
        vk: Arc<VerifyingKey>,
    },
    VerifyWait {
        ticket: u64,
        package: Box<ValidationPackage>,
    },
    SettleProving {
        job: zkdet_exec::JobId,
        listing: ListingId,
        k_c: zkdet_field::Fr,
    },
    Driving,
    Finished,
}

/// One key-secure exchange as a resumable executor task.
pub struct ExchangeMachine {
    spec: ExchangeSpec,
    phase: Phase,
    start_tick: Option<u64>,
    seller_listing: Option<SellerListing>,
    session: Option<BuyerSession>,
    attempts: u32,
}

impl ExchangeMachine {
    /// A fresh machine for the spec; spawn it on an executor over a
    /// [`MarketWorld`].
    pub fn new(spec: ExchangeSpec) -> Self {
        ExchangeMachine {
            spec,
            phase: Phase::Init,
            start_tick: None,
            seller_listing: None,
            session: None,
            attempts: 0,
        }
    }

    /// The seller's π_p relation and the secret it is proved over.
    fn validation<'a>(
        &self,
        seller: &'a DataOwner,
    ) -> Result<(ValidationCircuit<RangePredicate>, &'a DatasetSecret), ZkdetError> {
        let secret = seller
            .secret(self.spec.token)
            .ok_or(ZkdetError::MissingSecret(self.spec.token))?;
        let relation = ValidationCircuit::new(
            secret.data.len(),
            RangePredicate {
                bits: self.spec.bits,
            },
        );
        Ok((relation, secret))
    }

    /// With the shape's keys in hand: ship the π_p proving job.
    fn submit_validation_prove(
        &mut self,
        keys: KeyPair,
        circuit: Arc<CompiledCircuit>,
        cx: &mut TaskCx<'_>,
    ) -> Step {
        let seed = cx.seed_for(2);
        let pk = keys.pk;
        let job = cx.submit_job(COST_PROVE_PI_P, move || -> Result<Proof, String> {
            let mut rng = StdRng::seed_from_u64(seed);
            Plonk::prove(&pk, &circuit, &mut rng).map_err(|e| e.to_string())
        });
        self.phase = Phase::ProvingValidation { job, vk: keys.vk };
        Step::AwaitJob(job)
    }
}

impl Task<MarketWorld> for ExchangeMachine {
    fn label(&self) -> String {
        format!("exchange-{}", self.spec.token.0)
    }

    fn step(&mut self, world: &mut MarketWorld, cx: &mut TaskCx<'_>) -> Result<Step, TaskError> {
        // Every step runs inside the exchange's deterministic trace, so
        // machine-written WAL records and telemetry line up with the
        // journaled flows' causal story.
        let _trace = exchange_trace(self.spec.token).adopt();
        self.start_tick.get_or_insert(cx.now());
        // Every step mutates this exchange's lifecycle state (listing,
        // session, settlement) — a token-unique resource, so healthy
        // workloads stay conflict-free while a second writer of the same
        // exchange would trip the race detector (DESIGN.md §12.5).
        cx.declare_write(
            self.spec.shard as u32,
            &format!("exchange/{}", self.spec.token.0),
        );
        match std::mem::replace(&mut self.phase, Phase::Finished) {
            Phase::Init => {
                // List the token.
                let shard = world.sharded.shard_mut(self.spec.shard);
                let seller = &world.owners[self.spec.shard][self.spec.seller];
                let mut rng = StdRng::seed_from_u64(cx.seed_for(0));
                let listing = shard.market.journaled_list_for_sale(
                    &mut shard.wal,
                    seller,
                    self.spec.token,
                    self.spec.start_price,
                    self.spec.floor_price,
                    self.spec.decay_per_block,
                    format!("every entry < 2^{}", self.spec.bits),
                    &mut rng,
                )?;
                self.seller_listing = Some(listing);
                // Synthesize π_p once (cheap; the proving is not) and route
                // by the deployment's key registry.
                let (relation, secret) = self.validation(seller)?;
                let circuit = Arc::new(relation.synthesize(
                    secret.data.entries(),
                    &secret.commitment,
                    &secret.opening,
                ));
                let shape = Shape::Validation(circuit.shape_digest());
                let registry = shard.market.key_registry();
                if let Some(keys) = registry.lookup(&shape, shard.market.metrics()) {
                    return Ok(self.submit_validation_prove(keys, circuit, cx));
                }
                let job = if world.preprocessing.insert(shape.clone()) {
                    // First machine with this shape preprocesses for
                    // everyone.
                    let srs = Arc::clone(registry.srs());
                    let circuit = Arc::clone(&circuit);
                    Some(
                        cx.submit_job(COST_PREPROCESS_PI_P, move || -> Result<KeyPair, String> {
                            KeyRegistry::derive(&srs, &circuit).map_err(|e| e.to_string())
                        }),
                    )
                } else {
                    None
                };
                self.phase = Phase::AwaitKeys {
                    job,
                    shape,
                    circuit,
                };
                Ok(job.map_or(Step::Yield(POLL_TICKS), Step::AwaitJob))
            }
            Phase::AwaitKeys {
                job,
                shape,
                circuit,
            } => {
                let keys = match job {
                    Some(job) => {
                        let keys = *cx
                            .take_result::<Result<KeyPair, String>>(job)
                            .ok_or_else(|| TaskError("missing preprocess result".into()))?;
                        world.preprocessing.remove(&shape);
                        world.sharded.keys.insert(shape, keys.map_err(TaskError)?)
                    }
                    None => match world.sharded.keys.get(&shape) {
                        Some(keys) => keys,
                        None => {
                            self.phase = Phase::AwaitKeys {
                                job,
                                shape,
                                circuit,
                            };
                            return Ok(Step::Yield(POLL_TICKS));
                        }
                    },
                };
                Ok(self.submit_validation_prove(keys, circuit, cx))
            }
            Phase::ProvingValidation { job, vk } => {
                let proof = *cx
                    .take_result::<Result<Proof, String>>(job)
                    .ok_or_else(|| TaskError("missing π_p proving result".into()))?;
                let proof = proof.map_err(TaskError)?;
                let seller = &world.owners[self.spec.shard][self.spec.seller];
                let (relation, secret) = self.validation(seller)?;
                let publics = relation.public_inputs(&secret.commitment);
                let package = ValidationPackage {
                    proof: proof.clone(),
                    publics: publics.clone(),
                    vk: Arc::clone(&vk),
                };
                // The buyer's binding check runs now (cheap); the pairing
                // check joins the next folded batch.
                let listing = self
                    .seller_listing
                    .as_ref()
                    .ok_or_else(|| TaskError("no listing before verify".into()))?
                    .listing;
                let shard = world.sharded.shard_mut(self.spec.shard);
                shard.market.check_validation_binding(listing, &package)?;
                let ticket = world.batcher.enqueue(LineageCheck {
                    node: NodeId(self.spec.token.0),
                    vk,
                    publics,
                    proof,
                    label: "π_p",
                });
                self.phase = Phase::VerifyWait {
                    ticket,
                    package: Box::new(package),
                };
                Ok(Step::Yield(POLL_TICKS))
            }
            Phase::VerifyWait { ticket, package } => {
                match world.batcher.verdict(ticket) {
                    None => {
                        self.phase = Phase::VerifyWait { ticket, package };
                        Ok(Step::Yield(POLL_TICKS))
                    }
                    Some(false) => Err(TaskError(ZkdetError::ProofInvalid("π_p").to_string())),
                    Some(true) => {
                        // Lock: the batch vouched for π_p, so take the
                        // verified path (same WAL records).
                        let seller_listing = self
                            .seller_listing
                            .as_ref()
                            .ok_or_else(|| TaskError("no listing before lock".into()))?;
                        let shard = world.sharded.shard_mut(self.spec.shard);
                        let buyer = &world.owners[self.spec.shard][self.spec.buyer];
                        let mut rng = StdRng::seed_from_u64(cx.seed_for(1));
                        let session = shard.market.journaled_lock_verified(
                            &mut shard.wal,
                            buyer,
                            seller_listing.listing,
                            &package,
                            &mut rng,
                        )?;
                        let k_v = session.k_v_message();
                        self.session = Some(session);
                        if self.spec.withhold {
                            // The seller goes silent: straight to the
                            // drive loop, which will hit the timeout.
                            self.phase = Phase::Driving;
                            return Ok(Step::Yield(BLOCK_TICKS));
                        }
                        // Seller settles: begin the step on the control
                        // thread, ship π_k proving to the pool.
                        let seller = &world.owners[self.spec.shard][self.spec.seller];
                        let Some(witness) = shard.market.seller_begin_settlement(
                            &mut shard.wal,
                            seller,
                            seller_listing,
                            k_v,
                        )?
                        else {
                            self.phase = Phase::Driving;
                            return Ok(Step::Yield(POLL_TICKS));
                        };
                        let pk = Arc::clone(&shard.market.keyneg.pk);
                        let circuit = witness.circuit;
                        let seed = cx.seed_for(3);
                        let job =
                            cx.submit_job(COST_PROVE_PI_K, move || -> Result<Proof, String> {
                                let mut rng = StdRng::seed_from_u64(seed);
                                Plonk::prove(&pk, &circuit, &mut rng).map_err(|e| e.to_string())
                            });
                        self.phase = Phase::SettleProving {
                            job,
                            listing: witness.listing,
                            k_c: witness.k_c,
                        };
                        Ok(Step::AwaitJob(job))
                    }
                }
            }
            Phase::SettleProving { job, listing, k_c } => {
                let proof = *cx
                    .take_result::<Result<Proof, String>>(job)
                    .ok_or_else(|| TaskError("missing π_k proving result".into()))?;
                let proof = proof.map_err(TaskError)?;
                let shard = world.sharded.shard_mut(self.spec.shard);
                let seller_addr = world.owners[self.spec.shard][self.spec.seller].address;
                shard.market.seller_submit_settlement(
                    seller_addr,
                    &SettlementSubmission {
                        listing,
                        k_c,
                        proof,
                    },
                )?;
                self.phase = Phase::Driving;
                Ok(Step::Yield(POLL_TICKS))
            }
            Phase::Driving => {
                let session = self
                    .session
                    .clone()
                    .ok_or_else(|| TaskError("driving without a session".into()))?;
                let shard = world.sharded.shard_mut(self.spec.shard);
                let buyer = &mut world.owners[self.spec.shard][self.spec.buyer];
                match shard.market.advance_exchange(
                    &mut shard.wal,
                    buyer,
                    &session,
                    &mut self.attempts,
                )? {
                    // The shard's block producer owns the chain's pace.
                    None => {
                        self.phase = Phase::Driving;
                        Ok(Step::Yield(BLOCK_TICKS))
                    }
                    Some(report) => {
                        world.results.push(ExchangeResult {
                            token: self.spec.token,
                            shard: self.spec.shard,
                            seller: self.spec.seller,
                            buyer: self.spec.buyer,
                            price: Some(session.price),
                            outcome: report.outcome,
                            start_tick: self.start_tick.unwrap_or(0),
                            end_tick: cx.now(),
                            recover_attempts: self.attempts,
                        });
                        Ok(Step::Done)
                    }
                }
            }
            Phase::Finished => Err(TaskError("stepped a finished machine".into())),
        }
    }
}

// ------------------------------------------------------------------ //
//  Daemons                                                           //
// ------------------------------------------------------------------ //

/// Per-shard block producer: mines one block and ticks the storage
/// repair scheduler every [`BLOCK_TICKS`] ticks, so chain height and
/// repair progress advance at a deterministic cadence independent of
/// which exchanges are in flight.
pub struct MaintenanceDaemon {
    /// The shard this daemon paces.
    pub shard: usize,
}

impl Task<MarketWorld> for MaintenanceDaemon {
    fn label(&self) -> String {
        format!("maintenance-{}", self.shard)
    }

    fn step(&mut self, world: &mut MarketWorld, cx: &mut TaskCx<'_>) -> Result<Step, TaskError> {
        // The daemon is the sole declared writer of its shard's block
        // clock and repair scheduler (DESIGN.md §12.5).
        cx.declare_write(self.shard as u32, &format!("chain-blocks/{}", self.shard));
        cx.declare_write(self.shard as u32, &format!("storage-repairs/{}", self.shard));
        let shard = world.sharded.shard_mut(self.shard);
        shard.market.chain.mine_block();
        shard.market.tick_storage_repairs();
        Ok(Step::Yield(BLOCK_TICKS))
    }
}

/// Flushes the [`VerifyBatcher`]: drains queued π_p checks into one
/// pool job that folds them into a single pairing check
/// ([`verify_lineage`]); a rejecting batch falls back to per-proof
/// verification inside the same job, so one bad proof cannot poison its
/// batchmates' verdicts.
pub struct BatcherDaemon {
    inflight: Option<zkdet_exec::JobId>,
}

impl BatcherDaemon {
    /// A fresh daemon; spawn with [`zkdet_exec::Executor::spawn_daemon`].
    pub fn new() -> Self {
        BatcherDaemon { inflight: None }
    }
}

impl Default for BatcherDaemon {
    fn default() -> Self {
        Self::new()
    }
}

impl Task<MarketWorld> for BatcherDaemon {
    fn label(&self) -> String {
        "verify-batcher".into()
    }

    fn step(&mut self, world: &mut MarketWorld, cx: &mut TaskCx<'_>) -> Result<Step, TaskError> {
        // Sole declared owner of the drain side of the verify batcher
        // (enqueues are any-order by design — DESIGN.md §12.5).
        cx.declare_write(0, "verify-batcher");
        if let Some(job) = self.inflight.take() {
            let verdicts = *cx
                .take_result::<Vec<(u64, bool)>>(job)
                .ok_or_else(|| TaskError("missing batch verification result".into()))?;
            world.batcher.record(verdicts);
        }
        let batch = world.batcher.drain();
        if batch.is_empty() {
            return Ok(Step::Yield(POLL_TICKS));
        }
        world.batcher.batches += 1;
        world.batcher.batched_proofs += batch.len() as u64;
        let cost = COST_VERIFY_BATCH_BASE + COST_VERIFY_PER_PROOF * batch.len() as u64;
        let seed = cx.seed_for(world.batcher.batches);
        let job = cx.submit_job(cost, move || -> Vec<(u64, bool)> {
            let mut rng = StdRng::seed_from_u64(seed);
            let checks: Vec<LineageCheck> = batch.iter().map(|(_, c)| c.clone()).collect();
            let mut cache = AuditCache::new();
            match verify_lineage(&checks, &mut cache, &mut rng) {
                Ok(_) => batch.iter().map(|(t, _)| (*t, true)).collect(),
                Err(_) => batch
                    .iter()
                    .map(|(t, c)| (*t, Plonk::verify(&c.vk, &c.publics, &c.proof)))
                    .collect(),
            }
        });
        self.inflight = Some(job);
        Ok(Step::AwaitJob(job))
    }
}

// ------------------------------------------------------------------ //
//  FairSwap machine (cheap, for interleaving-heavy determinism tests) //
// ------------------------------------------------------------------ //

/// Static description of one FairSwap session a machine will drive.
#[derive(Clone, Debug)]
pub struct SwapSpec {
    /// Shard the swap runs on.
    pub shard: usize,
    /// Seller's index in the shard's owner pool.
    pub seller: usize,
    /// Buyer's index in the shard's owner pool.
    pub buyer: usize,
    /// The shard's FairSwap contract (deployed during setup).
    pub contract: Address,
    /// Plaintext blocks to swap.
    pub data: Vec<zkdet_field::Fr>,
    /// Sale price.
    pub price: Wei,
}

enum SwapPhase {
    Offer,
    Accept {
        seller_state: Box<FairSwapSeller>,
        ciphertext: Vec<zkdet_field::Fr>,
    },
    Reveal {
        seller_state: Box<FairSwapSeller>,
        buyer_state: Box<FairSwapBuyer>,
    },
    Finish {
        buyer_state: Box<FairSwapBuyer>,
    },
    /// Waiting out the complaint window so the seller can collect the
    /// escrow — without this the price would sit in the contract and the
    /// paid-exactly-once audit would flag every swap seller.
    Finalize {
        swap: zkdet_chain::contracts::SwapId,
        ready_after: u64,
    },
    Finished,
}

/// One FairSwap session as a resumable executor task. No proving, so
/// hundreds of these interleave cheaply — the determinism proptest's
/// workhorse. It drives the plain [`crate::fairswap`] steps and writes no
/// journal.
pub struct SwapMachine {
    spec: SwapSpec,
    phase: SwapPhase,
}

impl SwapMachine {
    /// A fresh machine for the spec.
    pub fn new(spec: SwapSpec) -> Self {
        SwapMachine {
            spec,
            phase: SwapPhase::Offer,
        }
    }
}

impl Task<MarketWorld> for SwapMachine {
    fn label(&self) -> String {
        format!("swap-{}-{}", self.spec.shard, self.spec.seller)
    }

    fn step(&mut self, world: &mut MarketWorld, cx: &mut TaskCx<'_>) -> Result<Step, TaskError> {
        // Before the contract assigns a swap id the machine's only
        // footprint is its own offer; afterwards every step writes the
        // id-unique swap resource (DESIGN.md §12.5).
        let declared_shard = self.spec.shard as u32;
        match &self.phase {
            SwapPhase::Offer => {
                cx.declare_write(declared_shard, &format!("swap-offer/{}", cx.task_id().0));
            }
            SwapPhase::Accept { seller_state, .. } | SwapPhase::Reveal { seller_state, .. } => {
                cx.declare_write(
                    declared_shard,
                    &format!("swap/{}/{}", self.spec.shard, seller_state.swap.0),
                );
            }
            SwapPhase::Finish { buyer_state } => {
                cx.declare_write(
                    declared_shard,
                    &format!("swap/{}/{}", self.spec.shard, buyer_state.swap.0),
                );
            }
            SwapPhase::Finalize { swap, .. } => {
                cx.declare_write(
                    declared_shard,
                    &format!("swap/{}/{}", self.spec.shard, swap.0),
                );
            }
            SwapPhase::Finished => {}
        }
        match std::mem::replace(&mut self.phase, SwapPhase::Finished) {
            SwapPhase::Offer => {
                let shard = world.sharded.shard_mut(self.spec.shard);
                let seller = &world.owners[self.spec.shard][self.spec.seller];
                let mut rng = StdRng::seed_from_u64(cx.seed_for(10));
                let (seller_state, ciphertext) = shard.market.fairswap_offer(
                    self.spec.contract,
                    seller,
                    Dataset::from_entries(self.spec.data.clone()),
                    self.spec.price,
                    &mut rng,
                )?;
                self.phase = SwapPhase::Accept {
                    seller_state: Box::new(seller_state),
                    ciphertext,
                };
                Ok(Step::Yield(1 + cx.seed_for(11) % 3))
            }
            SwapPhase::Accept {
                seller_state,
                ciphertext,
            } => {
                let shard = world.sharded.shard_mut(self.spec.shard);
                let buyer = &world.owners[self.spec.shard][self.spec.buyer];
                let expected = Dataset::from_entries(self.spec.data.clone());
                let buyer_state = shard.market.fairswap_accept(
                    self.spec.contract,
                    buyer,
                    seller_state.swap,
                    ciphertext,
                    &expected,
                )?;
                self.phase = SwapPhase::Reveal {
                    seller_state,
                    buyer_state: Box::new(buyer_state),
                };
                Ok(Step::Yield(1 + cx.seed_for(12) % 3))
            }
            SwapPhase::Reveal {
                seller_state,
                buyer_state,
            } => {
                let shard = world.sharded.shard_mut(self.spec.shard);
                let seller = &world.owners[self.spec.shard][self.spec.seller];
                shard
                    .market
                    .fairswap_reveal(self.spec.contract, seller, &seller_state)?;
                self.phase = SwapPhase::Finish { buyer_state };
                Ok(Step::Yield(1 + cx.seed_for(13) % 3))
            }
            SwapPhase::Finish { buyer_state } => {
                let shard = world.sharded.shard_mut(self.spec.shard);
                // A disputed swap is Refunded and fails Finalize below.
                let _ = shard
                    .market
                    .fairswap_finish_or_dispute(self.spec.contract, &buyer_state)?;
                self.phase = SwapPhase::Finalize {
                    swap: buyer_state.swap,
                    ready_after: shard.market.chain.height()
                        + zkdet_chain::contracts::COMPLAINT_WINDOW_BLOCKS,
                };
                Ok(Step::Yield(BLOCK_TICKS))
            }
            SwapPhase::Finalize { swap, ready_after } => {
                let shard = world.sharded.shard_mut(self.spec.shard);
                if shard.market.chain.height() <= ready_after {
                    self.phase = SwapPhase::Finalize { swap, ready_after };
                    return Ok(Step::Yield(BLOCK_TICKS));
                }
                let seller = &world.owners[self.spec.shard][self.spec.seller];
                shard
                    .market
                    .chain
                    .fairswap_finalize(self.spec.contract, seller.address, swap)
                    .map_err(crate::error::ZkdetError::from)?;
                world.swaps_completed += 1;
                Ok(Step::Done)
            }
            SwapPhase::Finished => Err(TaskError("stepped a finished swap machine".into())),
        }
    }
}

//! zkdet-exec — the deterministic concurrent execution substrate
//! (DESIGN.md §16).
//!
//! A cooperative task executor driven by a seeded simulated clock. All
//! *control* — which task steps next, when a proving job "completes",
//! which exchange locks a listing first — happens on the caller's thread
//! in an order derived from `(seed, task, tick)` alone, so two runs with
//! the same seed replay the exact same interleaving byte for byte. No
//! wall-clock reads and no OS-thread scheduling ever decide an ordering.
//!
//! CPU-bound jobs (PLONK proving, folded verification) are the one place
//! real threads appear: [`TaskCx::submit_job`] prices the job in simulated
//! ticks, assigns it to one of `W` *simulated* workers (earliest-free
//! wins), and dispatches the closure to a real worker pool. The awaiting
//! task wakes at the deterministic completion tick; the executor blocks
//! there until the real result has arrived, so real completion order never
//! leaks into the schedule.
//!
//! ```text
//! control thread (deterministic)            worker pool (real threads)
//!  ┌───────────────────────────┐             ┌──────────────────────┐
//!  │ tick heap: (tick,tie,seq) │──dispatch──▶│ prove/verify closures│
//!  │ task.step(world, cx)      │◀──join-at───│ (TraceId::adopt)     │
//!  └───────────────────────────┘  done-tick  └──────────────────────┘
//! ```

#![forbid(unsafe_code)]

mod pool;

pub use pool::JobOutput;

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Identifies a spawned task within one executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task-{}", self.0)
    }
}

/// Identifies a pool job within one executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// What a task wants after one step.
pub enum Step {
    /// Run again `ticks` later (`0` = again at the same tick, after any
    /// other task already queued there).
    Yield(u64),
    /// Sleep until the job completes on the simulated clock; its result
    /// becomes available through [`TaskCx::take_result`] on the next step.
    AwaitJob(JobId),
    /// The task is finished and is dropped.
    Done,
}

/// A task-level failure: aborts the whole run (deterministically), naming
/// the task that failed.
#[derive(Debug)]
pub struct TaskError(pub String);

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl<E: std::error::Error> From<E> for TaskError {
    fn from(e: E) -> Self {
        TaskError(e.to_string())
    }
}

/// A resumable unit of cooperative work over a shared world `W`.
///
/// `step` runs on the control thread with exclusive access to the world;
/// it must not block, sleep, or read wall-clock time — CPU-heavy work goes
/// through [`TaskCx::submit_job`]. Any randomness must derive from
/// [`TaskCx::seed_for`], or determinism is lost.
pub trait Task<W> {
    /// Display label for logs and error messages.
    fn label(&self) -> String {
        "task".into()
    }

    /// Advances the task one step.
    fn step(&mut self, world: &mut W, cx: &mut TaskCx<'_>) -> Result<Step, TaskError>;
}

/// Abort threshold for the simulated clock (livelock guard).
const MAX_TICKS: u64 = u64::MAX / 4;
/// Abort threshold for total task steps (runaway-poll guard).
const MAX_STEPS: u64 = 100_000_000;

/// Why a run aborted.
#[derive(Debug)]
pub enum ExecError {
    /// A task's `step` returned an error.
    Task {
        /// The failing task.
        task: TaskId,
        /// Its display label.
        label: String,
        /// The error it reported.
        error: TaskError,
    },
    /// A pool job panicked on its worker thread.
    JobPanicked {
        /// The job.
        job: JobId,
        /// Rendered panic payload.
        message: String,
    },
    /// The worker pool died before delivering a result.
    WorkerLost,
    /// A task awaited a job id it never submitted.
    UnknownJob(JobId),
    /// Live tasks remain but nothing is scheduled to wake.
    Starved,
    /// The simulated clock or step counter passed its limit.
    Livelock {
        /// Clock value at abort.
        ticks: u64,
        /// Steps taken at abort.
        steps: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Task { task, label, error } => {
                write!(f, "{task} ({label}) failed: {error}")
            }
            ExecError::JobPanicked { job, message } => {
                write!(f, "{job} panicked on its worker: {message}")
            }
            ExecError::WorkerLost => write!(f, "worker pool died before delivering a result"),
            ExecError::UnknownJob(job) => write!(f, "awaited unsubmitted {job}"),
            ExecError::Starved => write!(f, "live tasks remain but none is scheduled"),
            ExecError::Livelock { ticks, steps } => {
                write!(f, "executor passed its limit at tick {ticks} after {steps} steps")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Aggregate counters of one [`Executor::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecSummary {
    /// Final simulated clock value.
    pub ticks: u64,
    /// Task steps executed.
    pub steps: u64,
    /// Non-daemon tasks driven to `Done`.
    pub tasks_completed: u64,
    /// Pool jobs executed.
    pub jobs_run: u64,
    /// Sum of job tick costs (simulated CPU demand).
    pub busy_ticks: u64,
    /// Real wall time spent inside job closures, summed over workers.
    pub job_wall_micros: u64,
    /// Simulated workers the schedule was computed over.
    pub sim_workers: usize,
    /// Real threads that executed the jobs.
    pub real_threads: usize,
}

/// SplitMix64 — the same mixer the telemetry crate mints trace ids with;
/// here it turns `(seed, task, tick)` into the scheduling tiebreak.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One schedule-log event — the replay witness. Two identically-seeded
/// runs must produce byte-identical logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LogEvent {
    tick: u64,
    kind: u8,
    task: u64,
    aux: u64,
}

const EV_SPAWN: u8 = 0;
const EV_STEP: u8 = 1;
const EV_YIELD: u8 = 2;
const EV_SUBMIT: u8 = 3;
const EV_AWAIT: u8 = 4;
const EV_DONE: u8 = 5;
const EV_ACCESS: u8 = 6;

/// One declared World-state access: which task touched which
/// `(shard, key)` resource at which tick, and whether it wrote.
///
/// Tasks declare accesses through [`TaskCx::declare_read`] /
/// [`TaskCx::declare_write`]; the race detector
/// (`zkdet_analyzer::race`) replays the stream and reports any
/// conflicting pair not ordered by the scheduler's happens-before
/// relation (program order within a task, plus the tick frontier).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessRecord {
    /// Simulated tick of the declaring step.
    pub tick: u64,
    /// Global step counter at declaration time (program order witness).
    pub step: u64,
    /// The declaring task.
    pub task: u64,
    /// The declaring task's display label (for race reports).
    pub label: String,
    /// Shard the resource lives on (0 for unsharded worlds).
    pub shard: u32,
    /// Resource key within the shard (e.g. `escrow/42`).
    pub key: String,
    /// `true` if the access mutates the resource.
    pub write: bool,
}

struct PendingJob {
    done_tick: u64,
}

/// Scheduling state the [`TaskCx`] mutates during a step.
struct Sched {
    seed: u64,
    clock: u64,
    next_job: u64,
    /// Per-simulated-worker next-free tick; argmin assignment.
    sim_free: Vec<u64>,
    pending: BTreeMap<u64, PendingJob>,
    results: BTreeMap<u64, JobOutput>,
    log: Vec<LogEvent>,
    accesses: Vec<AccessRecord>,
    /// Label of the task currently stepping (stamped by `run`).
    current_label: String,
    /// Global step counter at the current step (program-order witness).
    cur_step: u64,
    jobs_run: u64,
    busy_ticks: u64,
    pool: pool::Pool,
    pool_dead: bool,
}

impl Sched {
    fn submit(
        &mut self,
        task: TaskId,
        cost_ticks: u64,
        f: Box<dyn FnOnce() -> JobOutput + Send>,
    ) -> JobId {
        let id = self.next_job;
        self.next_job += 1;
        // Earliest-free simulated worker takes the job (ties: lowest
        // index). Completion is purely a function of (now, prior costs).
        let mut w = 0usize;
        for (i, free) in self.sim_free.iter().enumerate() {
            if *free < self.sim_free[w] {
                w = i;
            }
        }
        let start = self.sim_free[w].max(self.clock);
        let done_tick = start.saturating_add(cost_ticks.max(1));
        self.sim_free[w] = done_tick;
        self.busy_ticks += cost_ticks.max(1);
        self.jobs_run += 1;
        self.log.push(LogEvent {
            tick: self.clock,
            kind: EV_SUBMIT,
            task: task.0,
            aux: id ^ (done_tick << 20),
        });
        self.pending.insert(id, PendingJob { done_tick });
        // The trace the submitting task is inside travels with the job;
        // the worker re-enters it via TraceId::adopt.
        let trace = zkdet_telemetry::current_trace();
        if self
            .pool
            .dispatch(pool::JobMsg { id, trace, f })
            .is_err()
        {
            self.pool_dead = true;
        }
        JobId(id)
    }

    fn declare(&mut self, task: TaskId, shard: u32, key: &str, write: bool) {
        // The access also lands in the canonical schedule log, so replay
        // byte-identity covers the declared footprint too. aux packs a
        // 63-bit key digest with the write bit in bit 0.
        let mut h = splitmix64(u64::from(shard) ^ 0x9e37_79b9_7f4a_7c15);
        for b in key.as_bytes() {
            h = splitmix64(h ^ u64::from(*b));
        }
        self.log.push(LogEvent {
            tick: self.clock,
            kind: EV_ACCESS,
            task: task.0,
            aux: (h & !1) | u64::from(write),
        });
        self.accesses.push(AccessRecord {
            tick: self.clock,
            step: self.cur_step,
            task: task.0,
            label: self.current_label.clone(),
            shard,
            key: key.to_string(),
            write,
        });
    }
}

/// Per-step handle a task uses to read the clock, derive seeds, and run
/// CPU-bound jobs on the pool.
pub struct TaskCx<'a> {
    task: TaskId,
    sched: &'a mut Sched,
}

impl TaskCx<'_> {
    /// The current simulated tick.
    pub fn now(&self) -> u64 {
        self.sched.clock
    }

    /// The stepping task's id.
    pub fn task_id(&self) -> TaskId {
        self.task
    }

    /// A deterministic seed derived from `(executor seed, task, salt)` —
    /// the only sanctioned randomness source inside a task.
    pub fn seed_for(&self, salt: u64) -> u64 {
        splitmix64(
            self.sched
                .seed
                .wrapping_add(splitmix64(self.task.0))
                .wrapping_add(splitmix64(salt ^ 0xa5a5_5a5a_dead_beef)),
        )
    }

    /// Submits a CPU-bound job priced at `cost_ticks` simulated ticks.
    ///
    /// The closure runs on a real worker thread (inside the submitting
    /// task's ambient trace, if any); the task should return
    /// [`Step::AwaitJob`] with the id and fetch the value with
    /// [`TaskCx::take_result`] on its next step. The tick cost — not the
    /// real duration — decides the completion tick, so schedules replay
    /// identically on any machine.
    pub fn submit_job<T: Any + Send>(
        &mut self,
        cost_ticks: u64,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> JobId {
        self.sched
            .submit(self.task, cost_ticks, Box::new(move || Box::new(f()) as JobOutput))
    }

    /// Takes a completed job's result, downcast to `T`. `None` if the job
    /// has not completed (on the simulated clock) or the type is wrong —
    /// both are task bugs worth failing loudly on.
    pub fn take_result<T: Any>(&mut self, job: JobId) -> Option<Box<T>> {
        self.sched
            .results
            .remove(&job.0)
            .and_then(|b| b.downcast::<T>().ok())
    }

    /// Declares that this step reads `(shard, key)` World state.
    ///
    /// Declared accesses feed the schedule-log race detector: any
    /// conflicting pair (same resource, at least one write, different
    /// tasks) not ordered by the scheduler's happens-before relation is
    /// reported as a seed-tiebreak-dependent race.
    pub fn declare_read(&mut self, shard: u32, key: &str) {
        self.sched.declare(self.task, shard, key, false);
    }

    /// Declares that this step writes `(shard, key)` World state.
    pub fn declare_write(&mut self, shard: u32, key: &str) {
        self.sched.declare(self.task, shard, key, true);
    }
}

struct Slot<W> {
    task: Box<dyn Task<W>>,
    daemon: bool,
    awaiting: Option<u64>,
}

/// The deterministic cooperative executor over a world `W`.
///
/// Spawn tasks, then [`Executor::run`] until every non-daemon task is
/// done. Daemons (block miners, repair tickers) run as long as any
/// non-daemon task is live and stop with the run.
pub struct Executor<W> {
    sched: Sched,
    heap: BinaryHeap<Reverse<(u64, u64, u64, u64)>>,
    tasks: BTreeMap<u64, Slot<W>>,
    next_task: u64,
    seq: u64,
    live: usize,
    steps: u64,
    completed: u64,
    job_wall_micros: u64,
}

impl<W> Executor<W> {
    /// A fresh executor with the given schedule seed, scheduling jobs over
    /// `sim_workers` simulated workers — the concurrency the *schedule*
    /// exhibits, independent of real CPUs. Job closures run on the
    /// machine's available parallelism, capped by `sim_workers`.
    pub fn new(seed: u64, sim_workers: usize) -> Self {
        let sim_workers = sim_workers.max(1);
        let hw = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Executor {
            sched: Sched {
                seed,
                clock: 0,
                next_job: 0,
                sim_free: vec![0; sim_workers],
                pending: BTreeMap::new(),
                results: BTreeMap::new(),
                log: Vec::new(),
                accesses: Vec::new(),
                current_label: String::new(),
                cur_step: 0,
                jobs_run: 0,
                busy_ticks: 0,
                pool: pool::Pool::new(sim_workers.min(hw)),
                pool_dead: false,
            },
            heap: BinaryHeap::new(),
            tasks: BTreeMap::new(),
            next_task: 0,
            seq: 0,
            live: 0,
            steps: 0,
            completed: 0,
            job_wall_micros: 0,
        }
    }

    /// The current simulated tick.
    pub fn now(&self) -> u64 {
        self.sched.clock
    }

    /// Spawns a task; the run completes when every spawned (non-daemon)
    /// task is done.
    pub fn spawn(&mut self, task: Box<dyn Task<W>>) -> TaskId {
        self.spawn_inner(task, false)
    }

    /// Spawns a daemon: stepped like any task but never counted towards
    /// completion — it runs until the last non-daemon task finishes.
    pub fn spawn_daemon(&mut self, task: Box<dyn Task<W>>) -> TaskId {
        self.spawn_inner(task, true)
    }

    fn spawn_inner(&mut self, task: Box<dyn Task<W>>, daemon: bool) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        if !daemon {
            self.live += 1;
        }
        self.sched.log.push(LogEvent {
            tick: self.sched.clock,
            kind: EV_SPAWN,
            task: id.0,
            aux: u64::from(daemon),
        });
        self.tasks.insert(
            id.0,
            Slot {
                task,
                daemon,
                awaiting: None,
            },
        );
        self.push_wake(id.0, self.sched.clock);
        id
    }

    /// Schedules a wake-up: the tiebreak mixes `(seed, task, tick)` so
    /// same-tick ordering is seed-derived, and the monotone sequence
    /// number makes every key unique.
    fn push_wake(&mut self, task: u64, tick: u64) {
        let tie = splitmix64(self.sched.seed ^ splitmix64(task) ^ tick.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((tick, tie, seq, task)));
    }

    /// Runs every task to completion, returning the aggregate summary.
    ///
    /// # Errors
    ///
    /// [`ExecError`] on task failure, job panic, a lost worker pool, or
    /// the livelock limits; the world may be mid-flight in that case.
    pub fn run(&mut self, world: &mut W) -> Result<ExecSummary, ExecError> {
        while self.live > 0 {
            let Some(Reverse((tick, _tie, _seq, tid))) = self.heap.pop() else {
                return Err(ExecError::Starved);
            };
            debug_assert!(tick >= self.sched.clock, "clock must be monotone");
            self.sched.clock = tick;
            self.steps += 1;
            if self.sched.clock > MAX_TICKS || self.steps > MAX_STEPS {
                return Err(ExecError::Livelock {
                    ticks: self.sched.clock,
                    steps: self.steps,
                });
            }
            let Some(mut slot) = self.tasks.remove(&tid) else {
                // A finished task's stale wake (cannot happen: one wake per
                // live task) — skip defensively.
                continue;
            };
            if let Some(job) = slot.awaiting.take() {
                self.collect_job(job)?;
            }
            self.sched.log.push(LogEvent {
                tick,
                kind: EV_STEP,
                task: tid,
                aux: 0,
            });
            self.sched.current_label = slot.task.label();
            self.sched.cur_step = self.steps;
            let mut cx = TaskCx {
                task: TaskId(tid),
                sched: &mut self.sched,
            };
            let step = slot.task.step(world, &mut cx);
            if self.sched.pool_dead {
                return Err(ExecError::WorkerLost);
            }
            match step {
                Err(error) => {
                    return Err(ExecError::Task {
                        task: TaskId(tid),
                        label: slot.task.label(),
                        error,
                    })
                }
                Ok(Step::Yield(ticks)) => {
                    let wake = self.sched.clock.saturating_add(ticks);
                    self.sched.log.push(LogEvent {
                        tick: self.sched.clock,
                        kind: EV_YIELD,
                        task: tid,
                        aux: ticks,
                    });
                    self.push_wake(tid, wake);
                    self.tasks.insert(tid, slot);
                }
                Ok(Step::AwaitJob(job)) => {
                    let Some(pending) = self.sched.pending.get(&job.0) else {
                        return Err(ExecError::UnknownJob(job));
                    };
                    let wake = pending.done_tick;
                    self.sched.log.push(LogEvent {
                        tick: self.sched.clock,
                        kind: EV_AWAIT,
                        task: tid,
                        aux: job.0,
                    });
                    slot.awaiting = Some(job.0);
                    self.push_wake(tid, wake);
                    self.tasks.insert(tid, slot);
                }
                Ok(Step::Done) => {
                    self.sched.log.push(LogEvent {
                        tick: self.sched.clock,
                        kind: EV_DONE,
                        task: tid,
                        aux: 0,
                    });
                    if !slot.daemon {
                        self.live -= 1;
                    }
                    self.completed += 1;
                }
            }
        }
        Ok(self.summary())
    }

    /// Blocks until the real result of `job` has arrived from the pool
    /// (the simulated clock already sits at its completion tick).
    fn collect_job(&mut self, job: u64) -> Result<(), ExecError> {
        self.sched.pending.remove(&job);
        while !self.sched.results.contains_key(&job) {
            let done = self
                .sched
                .pool
                .results
                .recv()
                .map_err(|_| ExecError::WorkerLost)?;
            self.job_wall_micros += done.wall_micros;
            match done.outcome {
                Ok(out) => {
                    self.sched.results.insert(done.id, out);
                }
                Err(message) => {
                    return Err(ExecError::JobPanicked {
                        job: JobId(done.id),
                        message,
                    })
                }
            }
        }
        Ok(())
    }

    /// The run counters so far.
    pub fn summary(&self) -> ExecSummary {
        ExecSummary {
            ticks: self.sched.clock,
            steps: self.steps,
            tasks_completed: self.completed,
            jobs_run: self.sched.jobs_run,
            busy_ticks: self.sched.busy_ticks,
            job_wall_micros: self.job_wall_micros,
            sim_workers: self.sched.sim_free.len(),
            real_threads: self.sched.pool.threads,
        }
    }

    /// The canonical byte encoding of the schedule log: every spawn,
    /// step, yield, submit, await and completion with its tick. Two runs
    /// of the same seeded workload must produce identical bytes — the
    /// determinism tests and the bench replay check compare exactly this.
    pub fn schedule_log_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.sched.log.len() * 25);
        for ev in &self.sched.log {
            out.extend_from_slice(&ev.tick.to_le_bytes());
            out.push(ev.kind);
            out.extend_from_slice(&ev.task.to_le_bytes());
            out.extend_from_slice(&ev.aux.to_le_bytes());
        }
        out
    }

    /// A 64-bit digest of [`Executor::schedule_log_bytes`] for cheap
    /// equality checks in reports.
    pub fn schedule_digest(&self) -> u64 {
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for b in self.schedule_log_bytes() {
            acc = splitmix64(acc ^ u64::from(b));
        }
        acc
    }

    /// The declared World-state accesses in step order — input to the
    /// `zkdet_analyzer::race` happens-before checker.
    pub fn access_log(&self) -> &[AccessRecord] {
        &self.sched.accesses
    }

    /// Takes ownership of the declared-access stream (e.g. to embed in a
    /// load-harness outcome) leaving the executor's copy empty.
    pub fn take_access_log(&mut self) -> Vec<AccessRecord> {
        std::mem::take(&mut self.sched.accesses)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    /// World: a shared append-only trace of (tick, task, note).
    #[derive(Default)]
    struct World {
        notes: Vec<(u64, u64, u64)>,
    }

    /// Counts down `remaining` yields, then optionally runs a squaring
    /// job on the pool before finishing.
    struct Counter {
        remaining: u32,
        job: Option<JobId>,
        input: u64,
        use_pool: bool,
    }

    impl Task<World> for Counter {
        fn label(&self) -> String {
            format!("counter-{}", self.input)
        }

        fn step(&mut self, world: &mut World, cx: &mut TaskCx<'_>) -> Result<Step, TaskError> {
            if let Some(job) = self.job.take() {
                let out = *cx
                    .take_result::<u64>(job)
                    .ok_or_else(|| TaskError("missing job result".into()))?;
                world.notes.push((cx.now(), cx.task_id().0, out));
                return Ok(Step::Done);
            }
            if self.remaining > 0 {
                self.remaining -= 1;
                world.notes.push((cx.now(), cx.task_id().0, 0));
                return Ok(Step::Yield(1 + cx.task_id().0 % 3));
            }
            if self.use_pool {
                let x = self.input;
                let job = cx.submit_job(10, move || x * x);
                self.job = Some(job);
                return Ok(Step::AwaitJob(job));
            }
            world.notes.push((cx.now(), cx.task_id().0, self.input));
            Ok(Step::Done)
        }
    }

    fn run_workload(seed: u64, use_pool: bool) -> (Vec<(u64, u64, u64)>, Vec<u8>, ExecSummary) {
        let mut ex = Executor::new(seed, 4);
        for i in 0..12u64 {
            ex.spawn(Box::new(Counter {
                remaining: (i % 4) as u32,
                job: None,
                input: i,
                use_pool,
            }));
        }
        let mut world = World::default();
        let summary = ex.run(&mut world).expect("run");
        (world.notes, ex.schedule_log_bytes(), summary)
    }

    #[test]
    fn identical_seeds_replay_byte_identically() {
        let (notes_a, log_a, sum_a) = run_workload(7, true);
        let (notes_b, log_b, sum_b) = run_workload(7, true);
        assert_eq!(notes_a, notes_b);
        assert_eq!(log_a, log_b);
        // `job_wall_micros` is measured wall time — the one field of the
        // summary a replay does not reproduce.
        let simulated = |s: ExecSummary| ExecSummary {
            job_wall_micros: 0,
            ..s
        };
        assert_eq!(simulated(sum_a), simulated(sum_b));
    }

    #[test]
    fn different_seeds_change_the_interleaving() {
        let (notes_a, log_a, _) = run_workload(7, false);
        let (notes_b, log_b, _) = run_workload(8, false);
        // Same work gets done either way…
        assert_eq!(notes_a.len(), notes_b.len());
        // …but the seed decides the order.
        assert_ne!(log_a, log_b);
    }

    #[test]
    fn pool_results_reenter_at_deterministic_ticks() {
        let (notes, _, summary) = run_workload(3, true);
        // Every task ends with its squared input delivered by the pool.
        for i in 0..12u64 {
            assert!(
                notes.iter().any(|(_, _, v)| *v == i * i && *v != 0 || (i == 0 && *v == 0)),
                "square of {i} missing"
            );
        }
        assert_eq!(summary.jobs_run, 12);
        assert_eq!(summary.tasks_completed, 12);
        assert!(summary.busy_ticks >= 120);
        // 4 simulated workers over 12 × 10-tick jobs: the makespan must
        // reflect queueing (≥ 30 ticks of job time on the critical path).
        assert!(summary.ticks >= 30, "ticks={}", summary.ticks);
    }

    #[test]
    fn serial_schedule_is_slower_than_parallel() {
        let run = |workers: usize| {
            let mut ex = Executor::new(11, workers);
            for i in 0..8u64 {
                ex.spawn(Box::new(Counter {
                    remaining: 0,
                    job: None,
                    input: i,
                    use_pool: true,
                }));
            }
            let mut world = World::default();
            ex.run(&mut world).expect("run").ticks
        };
        let serial = run(1);
        let parallel = run(8);
        assert!(
            serial >= parallel * 7,
            "serial={serial} parallel={parallel}"
        );
    }

    #[test]
    fn zero_sim_workers_schedule_on_one() {
        let mut ex = Executor::new(11, 0);
        ex.spawn(Box::new(Counter {
            remaining: 0,
            job: None,
            input: 3,
            use_pool: true,
        }));
        let mut world = World::default();
        let summary = ex.run(&mut world).expect("run");
        assert_eq!((summary.sim_workers, summary.real_threads), (1, 1));
        assert_eq!(summary.jobs_run, 1);
    }

    #[test]
    fn daemons_stop_with_the_last_task() {
        struct Daemon;
        impl Task<World> for Daemon {
            fn step(&mut self, world: &mut World, cx: &mut TaskCx<'_>) -> Result<Step, TaskError> {
                world.notes.push((cx.now(), u64::MAX, 0));
                Ok(Step::Yield(2))
            }
        }
        let mut ex = Executor::new(5, 2);
        ex.spawn_daemon(Box::new(Daemon));
        ex.spawn(Box::new(Counter {
            remaining: 6,
            job: None,
            input: 1,
            use_pool: false,
        }));
        let mut world = World::default();
        let summary = ex.run(&mut world).expect("run");
        assert_eq!(summary.tasks_completed, 1);
        assert!(world.notes.iter().any(|(_, t, _)| *t == u64::MAX));
    }

    #[test]
    fn job_panic_surfaces_as_exec_error() {
        struct Panicker {
            job: Option<JobId>,
        }
        impl Task<World> for Panicker {
            fn step(&mut self, _world: &mut World, cx: &mut TaskCx<'_>) -> Result<Step, TaskError> {
                match self.job.take() {
                    None => {
                        let job = cx.submit_job(1, || -> u64 { panic!("boom") });
                        self.job = Some(job);
                        Ok(Step::AwaitJob(job))
                    }
                    Some(_) => Ok(Step::Done),
                }
            }
        }
        let mut ex = Executor::new(1, 1);
        ex.spawn(Box::new(Panicker { job: None }));
        let mut world = World::default();
        match ex.run(&mut world) {
            Err(ExecError::JobPanicked { message, .. }) => assert!(message.contains("boom")),
            other => panic!("expected JobPanicked, got {other:?}"),
        }
    }

    #[test]
    fn seed_for_is_stable_and_task_scoped() {
        let mut ex = Executor::new(42, 1);
        struct SeedProbe;
        impl Task<World> for SeedProbe {
            fn step(&mut self, world: &mut World, cx: &mut TaskCx<'_>) -> Result<Step, TaskError> {
                world
                    .notes
                    .push((cx.seed_for(1), cx.task_id().0, cx.seed_for(2)));
                Ok(Step::Done)
            }
        }
        ex.spawn(Box::new(SeedProbe));
        ex.spawn(Box::new(SeedProbe));
        let mut world = World::default();
        ex.run(&mut world).expect("run");
        assert_eq!(world.notes.len(), 2);
        // Different tasks draw different seeds; salts differ within a task.
        assert_ne!(world.notes[0].0, world.notes[1].0);
        assert_ne!(world.notes[0].0, world.notes[0].2);
    }
}

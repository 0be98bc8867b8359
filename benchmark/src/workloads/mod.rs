//! The four workloads and the loop that drives any of them: set-up
//! (repeated, so `setup_s` is a median), a closed loop of timed operations
//! from one driver thread, then the end-of-run output checks.
//!
//! Why each workload exists is recorded in its module and in `README.md`.

pub mod audit_lineage;
pub mod exchange_small;
pub mod market_load;
pub mod publish_large;

use rand::rngs::StdRng;
use rand::Rng;
use zkdet_core::Dataset;
use zkdet_field::Fr;

use crate::clock;
use crate::metrics::Metrics;
use crate::stats::OpSample;
use crate::trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    exchange_small::ExchangeSmall::NAME,
    publish_large::PublishLarge::NAME,
    audit_lineage::AuditLineage::NAME,
    market_load::MarketLoad::NAME,
];

/// Set-ups per untraced run; `setup_s` is their median. Every repetition
/// uses the same seed, so each rebuilds the same state from scratch.
pub const SETUP_REPS: usize = 3;

/// Consecutive failed operations after which the timed loop gives up.
const MAX_FAILURE_STREAK: usize = 3;

/// A failure the runner reports instead of panicking on.
pub type Failure = String;

/// One benchmark workload.
pub trait Workload: Sized {
    /// Name as given to `--workload`.
    const NAME: &'static str;

    /// Everything before the first timed operation: SRS, contract
    /// deployment, set-up publishes, untimed warm-ups and the negative
    /// controls. All inputs derive from `seed`.
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, Failure>;

    /// One timed operation, its output check included (outside the timed
    /// part). A step that errors is a failed operation, not a failed run.
    fn op(&mut self, tr: &mut Tracer) -> OpSample;

    /// End-of-run checks over everything the run produced, plus (when
    /// `tr` is recording) the per-layer numbers only this workload can
    /// supply.
    fn finish(self, tr: &mut Tracer, layers: &mut Metrics) -> Result<(), Failure>;
}

/// How long to run.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Keep starting operations until this many seconds have been measured.
    Seconds(f64),
    /// Exactly this many operations (smoke tests, reproducing a count).
    Ops(usize),
}

/// What [`drive`] measured.
pub struct Driven {
    /// Wall seconds of each set-up.
    pub setups_s: Vec<f64>,
    /// Every timed operation, in order.
    pub samples: Vec<OpSample>,
    /// Process CPU seconds over the timed loop.
    pub loop_cpu_s: Option<f64>,
    /// The end-of-run checks' verdict.
    pub checks: Result<(), Failure>,
}

/// Sets up `W`, runs its timed loop within `budget`, and finishes it.
///
/// Untraced, the set-up is repeated [`SETUP_REPS`] times and nothing is
/// recorded. Traced, the set-up runs once under spans and the timed loop
/// alternates untraced and traced operations (odd ones traced), so one
/// process yields both the per-layer numbers and the tracing overhead.
pub fn drive<W: Workload>(
    seed: u64,
    budget: Budget,
    traced: bool,
    tr: &mut Tracer,
    layers: &mut Metrics,
) -> Result<Driven, Failure> {
    tr.set_recording(traced);
    let mut setups_s = Vec::new();
    let mut state = None;
    for _ in 0..if traced { 1 } else { SETUP_REPS } {
        // The previous repetition's state goes first, so its memory is not
        // held while the next one is built.
        drop(state.take());
        let t0 = clock::now();
        state = Some(W::setup(seed, tr)?);
        setups_s.push(clock::seconds_since(t0));
    }
    let mut state = state.ok_or("no set-up ran")?;

    let mut samples: Vec<OpSample> = Vec::new();
    let cpu0 = clock::cpu_seconds();
    let loop0 = clock::now();
    loop {
        let trace_this = traced && samples.len() % 2 == 1;
        tr.set_recording(trace_this);
        tr.set_op(Some(samples.len() as u64));
        let mut sample = state.op(tr);
        sample.traced = trace_this;
        samples.push(sample);
        let done = match budget {
            // A traced run needs one operation of each kind.
            Budget::Seconds(s) => {
                clock::seconds_since(loop0) >= s && (!traced || samples.len() >= 2)
            }
            Budget::Ops(n) => samples.len() >= n,
        };
        if done {
            break;
        }
        // A failed operation can leave the state unable to run the next
        // (a token stuck in escrow): stop rather than fail thousands of
        // times a second. What failed stays in the counts.
        let streak = samples.iter().rev().take_while(|s| s.failed > 0).count();
        if streak >= MAX_FAILURE_STREAK {
            eprintln!(
                "{}: {streak} operations failed in a row, stopping early",
                W::NAME
            );
            break;
        }
    }
    let loop_cpu_s = cpu0.zip(clock::cpu_seconds()).map(|(a, b)| b - a);

    tr.set_op(None);
    tr.set_recording(traced);
    let checks = state.finish(tr, layers);
    Ok(Driven {
        setups_s,
        samples,
        loop_cpu_s,
        checks,
    })
}

/// The sample of an operation that stands for one user-visible operation
/// and took `wall_s`; a failure's reason goes to stderr.
pub fn single_op(workload: &str, wall_s: f64, outcome: Result<(), Failure>) -> OpSample {
    if let Err(why) = &outcome {
        eprintln!("{workload}: operation failed: {why}");
    }
    OpSample {
        wall_s,
        attempted: 1,
        failed: u64::from(outcome.is_err()),
        traced: false,
    }
}

/// A dataset of `len` entries below `2^bits`, drawn from `rng`.
pub fn random_dataset(len: usize, bits: u32, rng: &mut StdRng) -> Dataset {
    Dataset::from_entries(
        (0..len)
            .map(|_| Fr::from(rng.gen_range(0..1u64 << bits)))
            .collect(),
    )
}

/// Renders any error as a [`Failure`] with the step that raised it.
pub fn at<E: std::fmt::Display>(step: &'static str) -> impl FnOnce(E) -> Failure {
    move |e| format!("{step}: {e}")
}

/// Fails with `what` unless `ok`.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), Failure> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

//! The real-thread worker pool behind the simulated one.
//!
//! The executor's *scheduling* model is W simulated workers on the
//! deterministic clock; this module supplies the actual CPU: a fixed set
//! of OS threads fed over one `std::sync::mpsc` channel, whose receiver
//! the workers share behind a mutex. Results re-enter the
//! executor keyed by job id, so the real completion order — which the OS
//! controls — never influences the simulated schedule.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use zkdet_telemetry::TraceId;

/// What a job returns: any sendable value, downcast by the awaiting task.
pub type JobOutput = Box<dyn Any + Send>;

/// A unit of CPU-bound work dispatched to the pool.
pub(crate) struct JobMsg {
    pub id: u64,
    /// The exchange trace the submitting task was inside, if any; the
    /// worker re-enters it via [`TraceId::adopt`] so pooled proving and
    /// verification spans land in the exchange's timeline.
    pub trace: Option<TraceId>,
    pub f: Box<dyn FnOnce() -> JobOutput + Send>,
}

/// A finished job coming back from a worker thread.
pub(crate) struct JobDone {
    pub id: u64,
    /// `Err` carries the panic payload rendered as text.
    pub outcome: Result<JobOutput, String>,
    pub wall_micros: u64,
}

/// Fixed-size pool of OS worker threads.
pub(crate) struct Pool {
    tx: Option<Sender<JobMsg>>,
    pub(crate) results: Receiver<JobDone>,
    handles: Vec<JoinHandle<()>>,
    pub(crate) threads: usize,
}

impl Pool {
    pub(crate) fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = channel::<JobMsg>();
        let rx = Arc::new(Mutex::new(rx));
        let (done_tx, done_rx) = channel::<JobDone>();
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let rx = Arc::clone(&rx);
            let done_tx = done_tx.clone();
            // zkdet-analyzer: allow(raw-thread-spawn) this IS the sanctioned pool; completion ticks come from the simulated clock
            handles.push(std::thread::spawn(move || loop {
                // The lock is held while waiting for a job, never while
                // running one. Nothing panics under it, so it is never
                // poisoned; a worker that found it so would leave.
                let next = match rx.lock() {
                    Ok(rx) => rx.recv(),
                    Err(_) => break,
                };
                let Ok(msg) = next else { break };
                // zkdet-analyzer: allow(wall-clock) job wall timing is measurement only, never scheduling
                let t0 = Instant::now();
                let _guard = msg.trace.map(TraceId::adopt);
                let outcome =
                    catch_unwind(AssertUnwindSafe(msg.f)).map_err(|p| panic_text(p.as_ref()));
                let wall_micros = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                if done_tx
                    .send(JobDone {
                        id: msg.id,
                        outcome,
                        wall_micros,
                    })
                    .is_err()
                {
                    break;
                }
            }));
        }
        Pool {
            tx: Some(tx),
            results: done_rx,
            handles,
            threads,
        }
    }

    /// Dispatches a job; fails only if every worker thread is gone.
    pub(crate) fn dispatch(&self, msg: JobMsg) -> Result<(), ()> {
        match &self.tx {
            Some(tx) => tx.send(msg).map_err(|_| ()),
            None => Err(()),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Disconnect the job channel so workers drain and exit, then join.
        self.tx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn panic_text(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker job panicked".to_string()
    }
}

//! Scoped fan-out: the one way a compute kernel (MSM, FFT, the PLONK
//! quotient) spreads a call over more than one core.
//!
//! Each kernel cuts its own work into disjoint pieces whose results do not
//! depend on how many pieces there are, and hands them to
//! [`for_each_parallel`]. Every thread is joined before the call returns,
//! so nothing outlives the kernel call and a worker's panic re-raises on
//! the caller. The executor's pool (`zkdet-exec`) is a different thing: it
//! runs whole jobs on long-lived threads and schedules them on simulated
//! time.

use std::sync::OnceLock;

/// The most threads one kernel call fans out to.
const MAX_WORKERS: usize = 8;

/// Threads one kernel call may use: `available_parallelism`, read once per
/// process, capped at [`MAX_WORKERS`].
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, |c| c.get().min(MAX_WORKERS))
    })
}

/// Runs `f` on every item, one item per thread; the calling thread takes
/// the first, so a single item spawns nothing. Returns once every item is
/// done.
pub fn for_each_parallel<T: Send>(items: impl IntoIterator<Item = T>, f: impl Fn(T) + Sync) {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return;
    };
    let f = &f;
    // zkdet-analyzer: allow(raw-thread-spawn) the kernels' one fan-out: every item is a disjoint piece of one call, all joined before the scope returns, so results never depend on thread timing
    std::thread::scope(|scope| {
        for item in items {
            scope.spawn(move || f(item));
        }
        f(first);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_item_runs_once_and_the_first_on_the_caller() {
        let caller = std::thread::current().id();
        for count in [0usize, 1, 2, 5] {
            let mut slots = vec![None; count];
            let runs = AtomicUsize::new(0);
            for_each_parallel(slots.iter_mut().enumerate(), |(i, slot)| {
                runs.fetch_add(1, Ordering::Relaxed);
                *slot = Some((i, std::thread::current().id() == caller));
            });
            assert_eq!(runs.load(Ordering::Relaxed), count);
            for (i, slot) in slots.iter().enumerate() {
                assert_eq!(*slot, Some((i, i == 0)), "{count} items, item {i}");
            }
        }
        assert!((1..=MAX_WORKERS).contains(&cores()));
    }
}

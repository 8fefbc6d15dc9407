//! # hd-pool — scoped fan-out of independent indexed tasks
//!
//! The prober runs each probe family's `shifts` inferences as independent
//! tasks. [`try_map`] fans them across scoped threads and returns exactly
//! what the serial loop `(0..n).map(f).collect::<Result<Vec<_>, _>>()`
//! returns, so the result never depends on the worker count or on how the
//! threads interleave.
//!
//! Zero dependencies by design: every crate that fans work out can sit
//! on top of it.
//!
//! # Scheduling model
//!
//! The caller and at most `workers - 1` scoped threads claim the next
//! unclaimed index from one shared counter, one index at a time, so a
//! slow task never strands a statically assigned chunk behind it. Each
//! participant keeps its `(index, result)` pairs; the caller sorts them by
//! index once every thread has joined.
//!
//! # Cancellation
//!
//! A failing task publishes its index to a `fetch_min` cut, and a
//! participant starts a claimed index only if it is not above the cut.
//! Claims rise and the cut only falls, so every index below the final cut
//! was claimed while the cut stood at or above it and therefore ran: the
//! lowest failing index is the serial loop's first error. Tasks above it
//! that had already started still finish; their results are dropped.
//!
//! # Panics
//!
//! A task panic is caught, cuts like an error and is resumed on the
//! caller once every thread has joined. The payload is that of the lowest
//! failing index, as in the serial loop.
//!
//! # Example
//!
//! ```
//! let squares: Result<Vec<usize>, ()> = hd_pool::try_map(8, 4, |i| Ok(i * i));
//! assert_eq!(squares, Ok(vec![0, 1, 4, 9, 16, 25, 36, 49]));
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Threads (the caller included) that [`try_map`] runs `n` tasks on when
/// asked for `workers`: `min(workers, n, available_parallelism())`, and at
/// least one.
pub fn participants(workers: usize, n: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    workers.min(n).min(cores).max(1)
}

/// Runs `f(0), f(1), …, f(n - 1)` on [`participants`]`(workers, n)`
/// threads, the caller and scoped helpers, and returns what
/// `(0..n).map(f).collect::<Result<Vec<_>, _>>()` returns:
/// every result in index order, or the error of the lowest failing index.
/// No index above the lowest published failure is started.
///
/// `workers <= 1` (or a single task, or a single core) runs the serial
/// loop on the caller, claiming indices in order.
///
/// # Panics
///
/// Resumes the panic of the lowest failing index on the caller.
pub fn try_map<T, E, F>(n: usize, workers: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let workers = participants(workers, n);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let cut = AtomicUsize::new(usize::MAX);
    let claim = || {
        let mut ran = Vec::new();
        loop {
            // hd-lint: allow(atomic-ordering) -- the claim counter only needs atomicity; results reach the caller through the thread joins
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n || i > cut.load(Ordering::Acquire) {
                return ran;
            }
            let r = catch_unwind(AssertUnwindSafe(|| f(i)));
            if !matches!(r, Ok(Ok(_))) {
                cut.fetch_min(i, Ordering::AcqRel);
            }
            ran.push((i, r));
        }
    };
    let mut ran = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(claim)).collect();
        let mut ran = claim();
        for h in helpers {
            // `claim` catches every task panic, so a join fails only if
            // the participant itself could not run.
            ran.extend(h.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        ran
    });
    ran.sort_unstable_by_key(|&(i, _)| i);
    let mut out = Vec::with_capacity(n);
    for (_, r) in ran {
        match r {
            Ok(Ok(v)) => out.push(v),
            Ok(Err(e)) => return Err(e),
            Err(payload) => resume_unwind(payload),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Mutex};

    #[test]
    fn participants_are_capped_by_workers_tasks_and_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        assert_eq!(participants(8, 3), 3.min(cores));
        assert_eq!(participants(usize::MAX, 100), 100.min(cores));
        assert_eq!(participants(0, 5), 1);
        assert_eq!(participants(8, 0), 1);
    }

    #[test]
    fn results_come_back_in_index_order() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            let got: Result<Vec<usize>, ()> = try_map(n, 8, |i| Ok(i * 2));
            assert_eq!(got, Ok((0..n).map(|i| i * 2).collect()), "n = {n}");
        }
    }

    #[test]
    fn one_worker_claims_in_index_order_on_the_caller() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let got: Result<Vec<usize>, ()> = try_map(6, 1, |i| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
            Ok(i)
        });
        assert_eq!(got, Ok(vec![0, 1, 2, 3, 4, 5]));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn workers_bounds_concurrency() {
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let got: Result<Vec<()>, ()> = try_map(64, 2, |_| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            active.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        });
        assert!(got.is_ok());
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak <= 2, "cap 2 exceeded: peak {peak}");
    }

    #[test]
    fn results_identical_at_every_worker_count() {
        let task = |i: usize| Ok::<u64, ()>((i as u64).wrapping_mul(0x9E37));
        let serial: Vec<u64> = (0..37).map(|i| task(i).unwrap()).collect();
        for workers in [1, 2, 4, 7, 64] {
            assert_eq!(try_map(37, workers, task), Ok(serial.clone()), "{workers}");
        }
    }

    #[test]
    fn task_panic_resumes_on_the_caller() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            try_map(16, 4, |i| {
                if i == 5 || i == 11 {
                    panic!("boom at {i}");
                }
                Ok::<usize, ()>(i)
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert_eq!(msg, "boom at 5", "the lowest panicking index surfaces");
    }

    /// Every participant's first task waits at a barrier, so each holds
    /// one of the first `w` indices, and every one of them fails. Each
    /// participant therefore publishes a failure before it may claim
    /// again, and no index past the first `w` is ever started.
    #[test]
    fn a_published_failure_stops_every_later_claim() {
        let w = participants(4, 64);
        let barrier = Barrier::new(w);
        let runs = AtomicUsize::new(0);
        let got: Result<Vec<()>, usize> = try_map(64, 4, |i| {
            runs.fetch_add(1, Ordering::SeqCst);
            barrier.wait();
            Err(i)
        });
        assert_eq!(got, Err(0));
        assert_eq!(runs.load(Ordering::SeqCst), w);
    }
}

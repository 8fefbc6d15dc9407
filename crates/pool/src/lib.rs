//! # hd-pool — persistent work-stealing worker pool
//!
//! The prober fans the independent inferences of one probe family across
//! cores thousands of times per attack. Spawning OS threads per family
//! (the old `std::thread::scope` design) pays thread creation and teardown
//! on every round; this crate instead keeps one set of workers alive for
//! the whole probe/attack/campaign and feeds them jobs.
//!
//! Zero dependencies by design: the pool is the workspace's sanctioned
//! thread-spawn site (`hd-lint`'s `no-bare-spawn` rule forbids spawning
//! anywhere else), so it must sit below every other crate.
//!
//! # Scheduling model
//!
//! A job is `n` independent tasks indexed `0..n`. Instead of static
//! chunking (which straggles when per-task cost is skewed — exactly the
//! case for probe images of different sparsity), every participant claims
//! the next unclaimed index from a shared atomic counter: chunk-free
//! dynamic stealing with perfectly balanced tails. Task indices are claimed
//! in order, results land in per-index slots, and the caller reduces in
//! index order — so the output is bit-identical regardless of worker count
//! or interleaving.
//!
//! The **caller participates**: [`WorkerPool::map`] runs claims on the
//! calling thread too, so a pool with zero background threads (e.g. a
//! 1-core host) degrades to exactly the serial loop, and a job is never
//! stranded waiting for a busy pool.
//!
//! # Panics
//!
//! A panicking task does not take down a worker: the payload is captured,
//! remaining claims are drained without running, and the panic resumes on
//! the **caller** of [`WorkerPool::map`] — same observable behavior as the
//! serial loop, minus the tasks that had already started elsewhere.
//!
//! # Example
//!
//! ```
//! let pool = hd_pool::WorkerPool::new(2);
//! let squares = pool.map(8, 4, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

// --- Seeded schedule perturbation (stress testing) -----------------------
//
// The pool's bit-identical-output contract must hold for *every*
// interleaving, but an unperturbed test run explores only the handful of
// schedules the host's scheduler happens to produce. The stress hook lets a
// test inject deterministic, seed-controlled yields at the scheduling
// decision points (claim, completion signal, steal admission) so 32 seeds
// exercise 32 reproducibly different interleavings. Always compiled — the
// disarmed cost is one relaxed load and a branch per site — so the tested
// binary is the shipped binary.

/// The armed stress seed; `0` means disarmed (the default).
static STRESS_SEED: AtomicU64 = AtomicU64::new(0);

/// Yield-site id: a task index was just claimed in [`Job::work`].
const SITE_CLAIM: u64 = 1;
/// Yield-site id: about to publish a completion via `finished`.
const SITE_FINISH: u64 = 2;
/// Yield-site id: a worker admitted itself to a stolen job.
const SITE_STEAL: u64 = 3;

/// Arms (non-zero) or disarms (zero) the deterministic stress yields.
///
/// Process-global: intended for single-campaign stress tests that set a
/// seed, run a job, and compare against the serial schedule. The injected
/// yields perturb timing only — they cannot change claim atomicity — so
/// results must stay bit-identical under every seed.
pub fn set_stress_seed(seed: u64) {
    // hd-lint: allow(atomic-ordering) -- test-arming knob; the hook only perturbs timing, so no ordering obligation exists
    STRESS_SEED.store(seed, Ordering::Relaxed);
}

/// Bounded deterministic yield: mixes `(seed, site, step)` through a
/// SplitMix64 finalizer and spins `0..=3` `yield_now`s. Disarmed, this is
/// one relaxed load and a taken branch.
#[inline]
fn stress_yield(site: u64, step: u64) {
    // hd-lint: allow(atomic-ordering) -- reads the arming knob; stale values only change which schedules get explored
    let seed = STRESS_SEED.load(Ordering::Relaxed);
    if seed == 0 {
        return;
    }
    let mut z =
        seed ^ site.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ step.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    for _ in 0..(z & 3) {
        std::thread::yield_now();
    }
}

/// Lifetime-erased pointer to a job's task closure.
///
/// Safety: the pointee lives on the stack frame of [`WorkerPool::map`],
/// which does not return until every claimed index has finished, and
/// claims past `n` never dereference it — so no worker can observe a
/// dangling pointer.
struct TaskPtr(*const (dyn Fn(usize) + Sync + 'static));

// Safety: the pointee is `Sync` (shared calls from many threads are fine)
// and the pointer itself is only ever dereferenced while the owning `map`
// frame is alive (see `TaskPtr` docs), so sending the pointer is sound.
// hd-lint: allow(no-unsafe) -- Send/Sync argument in the comment above
unsafe impl Send for TaskPtr {}
// hd-lint: allow(no-unsafe) -- Send/Sync argument in the comment above
unsafe impl Sync for TaskPtr {}

/// One enqueued job: `n` tasks claimed off a shared counter.
struct Job {
    task: TaskPtr,
    n: usize,
    /// Next unclaimed task index; `fetch_add` hands out each index exactly
    /// once. Values `>= n` mean the job is fully claimed.
    next: AtomicUsize,
    /// Workers currently inside this job (caller included), bounded by
    /// `cap` so one job cannot monopolize a shared pool.
    active: AtomicUsize,
    cap: usize,
    /// Completed tasks; the increment that reaches `n` signals `done`.
    finished: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// First captured panic payload (resumed on the caller).
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    panicked: AtomicBool,
}

impl Job {
    /// Claims and runs tasks until the job is fully claimed.
    fn work(&self) {
        loop {
            // hd-lint: allow(atomic-ordering) -- the claim counter only needs atomicity; slot writes publish via the AcqRel `finished` increment below
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            stress_yield(SITE_CLAIM, i as u64);
            // hd-lint: allow(atomic-ordering) -- advisory fast-path skip; a stale false only runs one extra task, correctness comes from the panic-slot mutex
            if !self.panicked.load(Ordering::Relaxed) {
                // AssertUnwindSafe: on panic the caller resumes the payload
                // without ever reading the (possibly torn) result slots.
                if let Err(payload) =
                    // hd-lint: allow(no-unsafe) -- TaskPtr pointee outlives the job (see TaskPtr docs)
                    catch_unwind(AssertUnwindSafe(|| unsafe { (*self.task.0)(i) }))
                {
                    // hd-lint: allow(atomic-ordering) -- advisory flag; the payload itself is published by the panic-slot mutex on the next line
                    self.panicked.store(true, Ordering::Relaxed);
                    let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            stress_yield(SITE_FINISH, i as u64);
            // AcqRel chains every participant's slot writes into the final
            // increment, so the caller (synchronizing via `done`) sees them.
            if self.finished.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
                *done = true;
                self.done_cv.notify_all();
            }
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Removes `job` from the queue if still present (jobs are also reaped
    /// lazily by workers once fully claimed).
    fn remove(&self, job: &Arc<Job>) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.retain(|j| !Arc::ptr_eq(j, job));
    }
}

/// Sends the raw slot pointer of `map`'s result vector across threads.
///
/// Safety: each task index writes only its own slot, and the caller reads
/// the slots only after every task finished (synchronized via `done`).
struct SlotPtr<T>(*mut Option<T>);
// hd-lint: allow(no-unsafe) -- disjoint-slot protocol in the comment above
unsafe impl<T: Send> Send for SlotPtr<T> {}
// hd-lint: allow(no-unsafe) -- disjoint-slot protocol in the comment above
unsafe impl<T: Send> Sync for SlotPtr<T> {}

impl<T> SlotPtr<T> {
    /// Safety: each index must be written at most once, and reads must be
    /// synchronized after all writes (both upheld by the claim protocol).
    // hd-lint: allow(no-unsafe) -- unsafe fn: obligations documented on the item
    unsafe fn write(&self, i: usize, v: T) {
        *self.0.add(i) = Some(v);
    }
}

/// A persistent pool of worker threads executing index-claimed jobs.
///
/// Create one per campaign (or use [`WorkerPool::global`]) and reuse it
/// across probe families and refinement rounds; workers stay parked on a
/// condvar between jobs instead of being respawned.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `threads` background workers.
    ///
    /// `threads == 0` is valid and useful: every [`WorkerPool::map`] then
    /// runs entirely on the calling thread, claiming indices in order —
    /// the deterministic single-participant schedule tests pin against.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hd-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // hd-lint: allow(no-panic) -- thread spawn fails only on OS resource exhaustion at pool construction
                    .expect("spawn hd-pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// The process-wide pool: `available_parallelism - 1` background
    /// workers (the caller of every `map` is the final participant), built
    /// on first use and alive for the rest of the process.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            WorkerPool::new(cores.saturating_sub(1))
        })
    }

    /// Number of background worker threads (callers add one more
    /// participant per `map`).
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Runs `f(0), f(1), …, f(n-1)` across the pool plus the calling
    /// thread, with at most `max_workers` concurrent participants, and
    /// returns the results **in index order**.
    ///
    /// Tasks are claimed one index at a time from a shared counter
    /// (chunk-free stealing), so skewed per-task cost balances itself; the
    /// index-ordered reduction makes the result bit-identical for every
    /// `threads`/`max_workers` combination.
    ///
    /// # Panics
    ///
    /// Resumes the first panic raised by any task.
    pub fn map<T, F>(&self, n: usize, max_workers: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let slot_ptr = SlotPtr(slots.as_mut_ptr());
        let run = move |i: usize| {
            let v = f(i);
            // Safety: index `i` is claimed exactly once, so this is the
            // only write to slot `i`, and the caller reads it only after
            // `finished == n` (see `SlotPtr`).
            // hd-lint: allow(no-unsafe) -- single writer per slot, reads after `done`
            unsafe { slot_ptr.write(i, v) };
        };
        let task = erase_task(&run);
        let job = Arc::new(Job {
            task,
            n,
            next: AtomicUsize::new(0),
            active: AtomicUsize::new(1), // the caller, admitted up front
            cap: max_workers.max(1),
            finished: AtomicUsize::new(0),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
            panicked: AtomicBool::new(false),
        });
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.push_back(Arc::clone(&job));
            self.shared.work_cv.notify_all();
        }
        // The caller is always a participant: a zero-thread or busy pool
        // degrades to the serial loop instead of deadlocking.
        job.work();
        // hd-lint: allow(atomic-ordering) -- `active` only throttles admission (try_admit CAS); completion is signalled by `finished`/`done`, not this counter
        job.active.fetch_sub(1, Ordering::Relaxed);
        {
            let mut done = job.done.lock().unwrap_or_else(|e| e.into_inner());
            while !*done {
                done = job.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
            }
        }
        self.shared.remove(&job);
        let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            // hd-lint: allow(no-panic) -- every index 0..n was claimed and finished exactly once
            .map(|s| s.expect("task wrote its slot"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Store under the queue lock: a worker that just saw
        // `shutdown == false` still holds the lock until it parks on
        // `work_cv`, so it cannot miss this wakeup. Release pairs with the
        // Acquire load in `worker_loop`.
        {
            let _q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Erases the borrow lifetime of a job's task closure.
///
/// Safety: sound only because [`WorkerPool::map`] blocks until every
/// claimed index has finished before its frame (holding the closure)
/// unwinds, and claims past `n` never dereference the pointer.
fn erase_task<'a>(task: &'a (dyn Fn(usize) + Sync + 'a)) -> TaskPtr {
    // hd-lint: allow(no-unsafe) -- lifetime erasure justified in the fn docs
    TaskPtr(unsafe {
        std::mem::transmute::<&'a (dyn Fn(usize) + Sync + 'a), *const (dyn Fn(usize) + Sync)>(task)
    })
}

fn worker_loop(shared: &Shared) {
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        // Acquire pairs with the Release store in `Drop` (made under this
        // same queue lock, so the flag cannot flip between this check and
        // the `work_cv` wait below).
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Reap fully-claimed jobs; their remaining stragglers run to
        // completion off the Arc clones held by active participants.
        // hd-lint: allow(atomic-ordering) -- reaping is best-effort housekeeping; a stale `next` keeps a job queued one extra round, never drops work
        q.retain(|j| j.next.load(Ordering::Relaxed) < j.n);
        let picked = q.iter().find_map(try_admit);
        match picked {
            Some(job) => {
                drop(q);
                stress_yield(SITE_STEAL, job.n as u64);
                job.work();
                // hd-lint: allow(atomic-ordering) -- admission throttle only; see the matching fetch_sub in `map`
                job.active.fetch_sub(1, Ordering::Relaxed);
                q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                // A slot under this job's cap may have opened for a parked
                // worker.
                shared.work_cv.notify_all();
            }
            None => {
                q = shared.work_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

/// Atomically reserves a participation slot under `job.cap`.
fn try_admit(job: &Arc<Job>) -> Option<Arc<Job>> {
    // hd-lint: allow(atomic-ordering) -- `active` is a pure admission counter: the CAS guarantees the cap, and no data is published through it
    let mut cur = job.active.load(Ordering::Relaxed);
    loop {
        if cur >= job.cap {
            return None;
        }
        match job
            .active
            // hd-lint: allow(atomic-ordering) -- cap enforcement needs only atomicity of the CAS itself
            .compare_exchange_weak(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return Some(Arc::clone(job)),
            Err(now) => cur = now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_returns_results_in_index_order() {
        let pool = WorkerPool::new(3);
        for n in [0usize, 1, 2, 7, 64, 1000] {
            let got = pool.map(n, 8, |i| i * 2);
            assert_eq!(got, (0..n).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_thread_pool_runs_on_the_caller_in_order() {
        let pool = WorkerPool::new(0);
        let order = Mutex::new(Vec::new());
        let got = pool.map(6, 4, |i| {
            order.lock().unwrap().push(i);
            i
        });
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        // Single participant => claims strictly in index order.
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn max_workers_bounds_concurrency() {
        let pool = WorkerPool::new(8);
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.map(64, 2, |_| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            active.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "cap 2 exceeded: peak {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = WorkerPool::new(2);
        for round in 0..50 {
            let got = pool.map(10, 4, |i| i + round);
            assert_eq!(got, (0..10).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let serial: Vec<u64> = (0..37).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for threads in [0, 1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            let got = pool.map(37, 64, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(got, serial, "threads = {threads}");
        }
    }

    #[test]
    fn task_panic_resumes_on_the_caller() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(16, 4, |i| {
                if i == 5 {
                    panic!("boom at 5");
                }
                i
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom at 5");
        // The pool survives the panic and accepts new jobs.
        assert_eq!(pool.map(3, 4, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn global_pool_is_usable() {
        let pool = WorkerPool::global();
        assert_eq!(pool.map(5, 4, |i| i * 3), vec![0, 3, 6, 9, 12]);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(4);
        pool.map(8, 8, |i| i);
        drop(pool); // must not hang
    }
}

//! # hd-obs — telemetry for the HuffDuff workspace
//!
//! A zero-dependency observability substrate shared by the device
//! simulator, the prober, and the attack orchestration: thread-safe
//! counters and histograms, RAII [`Span`]s with monotonic timestamps, and
//! three export formats (a human-readable summary table, stable-schema
//! JSON, and Chrome trace-event JSON loadable in `chrome://tracing` /
//! `ui.perfetto.dev`).
//!
//! # Overhead contract
//!
//! Telemetry is **off by default**. Every instrumentation entry point
//! ([`counter_add`], [`observe`], [`span`]) first reads a single global
//! `AtomicBool` with `Ordering::Relaxed` and returns immediately when
//! disabled — no locks, no allocation, no timestamps. Instrumented code
//! therefore pays one relaxed atomic load per call site when telemetry is
//! off, and instrumentation never feeds back into computation, so enabling
//! or disabling telemetry leaves every simulated trace, timing, and attack
//! outcome bit-identical (asserted by `tests/obs_invariance.rs` in the
//! workspace root).
//!
//! # Model
//!
//! * **Counters** are monotonically increasing `u64`s keyed by
//!   `(name, label)` — e.g. `("dram.read.bytes", "weights")`. Addition is
//!   commutative, so counter values are deterministic even when updates
//!   race across probe worker threads.
//! * **Histograms** aggregate `f64` samples per `(name, label)` into
//!   count/sum/min/max. Count, min, and max are order-independent; `sum`
//!   may differ in the last bits across thread interleavings (floating
//!   point addition is not associative) — pin only the order-independent
//!   fields in golden tests.
//! * **Spans** are RAII timers: [`span`] records the start, dropping the
//!   returned [`Span`] records the duration. Timestamps are microseconds
//!   on a process-wide monotonic clock (first-use epoch), which is exactly
//!   the Chrome trace-event `ts` domain.
//!
//! State lives in one process-global registry. [`reset`] clears it;
//! [`snapshot`] takes a consistent copy for export. Tests that assert on
//! global counters must serialize themselves (the registry is shared by
//! every thread in the process).
//!
//! # Example
//!
//! ```
//! hd_obs::reset();
//! hd_obs::set_enabled(true);
//! {
//!     let _span = hd_obs::span("work", "demo");
//!     hd_obs::counter_add("bytes.moved", "demo", 512);
//!     hd_obs::observe("batch.size", "demo", 32.0);
//! }
//! hd_obs::set_enabled(false);
//! let snap = hd_obs::snapshot();
//! assert_eq!(snap.counter("bytes.moved", "demo"), Some(512));
//! assert_eq!(snap.span_count("work"), 1);
//! let json = snap.to_json();
//! assert!(hd_obs::json::Json::parse(&json).is_ok());
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod export;
pub mod json;
mod registry;
mod span;

pub use export::{CounterSnap, HistSnap, Snapshot, SpanSnap};
pub use registry::MAX_SPANS;
pub use span::Span;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry collection is currently enabled.
///
/// One relaxed atomic load: cheap enough for per-layer (not per-element)
/// hot paths. Instrumented code may use this to guard label formatting or
/// other prep work that would otherwise run while disabled.
#[inline]
pub fn enabled() -> bool {
    // hd-lint: allow(atomic-ordering) -- advisory gate on a monotonic flag; recorded data publishes via the registry mutexes, not this load
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables telemetry collection.
///
/// Disabling does not clear previously recorded data; see [`reset`].
pub fn set_enabled(on: bool) {
    // hd-lint: allow(atomic-ordering) -- flips an advisory gate; callers needing a cut-over barrier synchronize on the registry lock
    ENABLED.store(on, Ordering::Relaxed);
}

/// Adds `delta` to the counter `(name, label)`. No-op while disabled.
#[inline]
pub fn counter_add(name: &'static str, label: &str, delta: u64) {
    if !enabled() {
        return;
    }
    registry::global().counter_add(name, label, delta);
}

/// Records one sample into the histogram `(name, label)`. No-op while
/// disabled. Non-finite samples are ignored (they would poison the JSON
/// export).
#[inline]
pub fn observe(name: &'static str, label: &str, value: f64) {
    if !enabled() || !value.is_finite() {
        return;
    }
    registry::global().observe(name, label, value);
}

/// Starts an RAII span; the span ends (and is recorded) when the returned
/// guard drops. Returns an inert guard while disabled.
#[inline]
pub fn span(name: &'static str, label: &str) -> Span {
    Span::start(name, label)
}

/// Clears all recorded counters, histograms, and spans.
///
/// The monotonic epoch is preserved so span timestamps stay monotonic
/// across resets (Chrome traces from successive windows never overlap).
pub fn reset() {
    registry::global().reset();
}

/// Takes a consistent copy of everything recorded so far.
pub fn snapshot() -> Snapshot {
    registry::global().snapshot()
}

/// Microseconds elapsed on the process-wide monotonic clock (first-use
/// epoch) — the same domain as span timestamps.
///
/// This is the sanctioned wall-clock read for the rest of the workspace:
/// `clippy.toml` disallows `Instant::now()` and `SystemTime` everywhere
/// (the registry's epoch is the one library read that expects the lint),
/// so latency telemetry elsewhere should difference two `monotonic_us()`
/// readings instead.
#[inline]
pub fn monotonic_us() -> u64 {
    registry::global().now_us()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global; tests that read it must serialize.
    static LOCK: Mutex<()> = Mutex::new(());

    fn with_clean_registry<R>(f: impl FnOnce() -> R) -> R {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        reset();
        r
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(false);
        counter_add("c", "l", 5);
        observe("h", "l", 1.0);
        drop(span("s", "l"));
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.hists.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn counters_accumulate_per_name_label() {
        with_clean_registry(|| {
            counter_add("bytes", "read", 3);
            counter_add("bytes", "read", 4);
            counter_add("bytes", "write", 10);
            let snap = snapshot();
            assert_eq!(snap.counter("bytes", "read"), Some(7));
            assert_eq!(snap.counter("bytes", "write"), Some(10));
            assert_eq!(snap.counter_total("bytes"), 17);
            assert_eq!(snap.counter("bytes", "missing"), None);
        });
    }

    #[test]
    fn histograms_track_count_sum_min_max() {
        with_clean_registry(|| {
            for v in [4.0, 1.0, 9.0] {
                observe("lat", "", v);
            }
            observe("lat", "", f64::NAN); // ignored
            let snap = snapshot();
            let h = snap.hist("lat", "").expect("histogram recorded");
            assert_eq!(h.count, 3);
            assert_eq!(h.min, 1.0);
            assert_eq!(h.max, 9.0);
            assert!((h.sum - 14.0).abs() < 1e-12);
            assert!((h.mean() - 14.0 / 3.0).abs() < 1e-12);
        });
    }

    #[test]
    fn spans_record_duration_and_survive_threads() {
        with_clean_registry(|| {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let _sp = span("worker", "t");
                    });
                }
            });
            {
                let _sp = span("outer", "");
            }
            let snap = snapshot();
            assert_eq!(snap.span_count("worker"), 4);
            assert_eq!(snap.span_count("outer"), 1);
            for sp in &snap.spans {
                assert!(sp.start_us <= sp.start_us + sp.dur_us);
            }
        });
    }

    #[test]
    fn counters_are_deterministic_under_contention() {
        with_clean_registry(|| {
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        for _ in 0..1000 {
                            counter_add("contended", "", 1);
                        }
                    });
                }
            });
            assert_eq!(snapshot().counter("contended", ""), Some(8000));
        });
    }

    #[test]
    fn exited_threads_fold_their_counts_and_unregister_their_shards() {
        with_clean_registry(|| {
            let before = registry::global().shard_count();
            for _ in 0..25 {
                std::thread::scope(|s| {
                    let threads: Vec<_> = (0..8)
                        .map(|_| s.spawn(|| counter_add("short", "", 1)))
                        .collect();
                    // A join waits for the thread's exit, shard fold included.
                    for t in threads {
                        t.join().unwrap();
                    }
                });
            }
            assert_eq!(snapshot().counter("short", ""), Some(200));
            // Earlier tests' threads may still be exiting, which only
            // shrinks the list.
            assert!(registry::global().shard_count() <= before);
        });
    }

    #[test]
    fn sequential_fan_outs_reuse_thread_ordinals() {
        with_clean_registry(|| {
            let fan_out = || -> Vec<u64> {
                let barrier = std::sync::Barrier::new(3);
                std::thread::scope(|s| {
                    let threads: Vec<_> = (0..3)
                        .map(|_| {
                            s.spawn(|| {
                                let id = registry::thread_ordinal();
                                // All three hold their ordinals at once.
                                barrier.wait();
                                id
                            })
                        })
                        .collect();
                    // A join waits for the thread's exit, ordinal release included.
                    threads.into_iter().map(|t| t.join().unwrap()).collect()
                })
            };
            let mut first = fan_out();
            first.sort_unstable();
            first.dedup();
            assert_eq!(
                first.len(),
                3,
                "concurrent threads share an ordinal: {first:?}"
            );
            let second = fan_out();
            // The second batch reuses freed rows instead of opening new ones
            // (an exiting thread of an earlier test may free a lower one).
            assert!(
                second.iter().max() <= first.iter().max(),
                "{second:?} went past {first:?}"
            );
        });
    }

    #[test]
    fn reset_clears_but_keeps_time_monotonic() {
        with_clean_registry(|| {
            {
                let _sp = span("a", "");
            }
            let t1 = snapshot().spans[0].start_us;
            reset();
            {
                let _sp = span("b", "");
            }
            let snap = snapshot();
            assert_eq!(snap.spans.len(), 1);
            assert!(snap.spans[0].start_us >= t1, "epoch must survive reset");
        });
    }
}

//! The process-global telemetry store.
//!
//! Counters — the hot path now that the prober fans probe runs across
//! threads — are sharded per thread: each thread owns an [`Arc<Shard>`]
//! holding its private map, so an increment locks only the caller's shard
//! and never serializes the threads on a global mutex.
//! `snapshot` merges the shards (addition is order-independent) and
//! `reset` clears them in place. A thread that exits folds its shard into
//! the shared `fallback` shard and unregisters it, both under the `shards`
//! lock, so totals are exact under any interleaving, survive the thread,
//! and the shard list stays as long as the set of live threads.
//!
//! Histograms and spans stay behind the single `Mutex<Inner>`: they fire
//! at layer/probe granularity — thousands of events per second, not
//! millions — and the disabled path never reaches any lock at all.

use crate::export::{CounterSnap, HistSnap, Snapshot, SpanSnap};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on retained span records; beyond it spans are counted in
/// `spans_dropped` instead of stored. A runaway probe campaign then costs
/// bounded memory and the exports report the truncation explicitly.
pub const MAX_SPANS: usize = 1 << 20;

/// `(metric name, label)` — the key of every counter and histogram.
///
/// Names are `&'static str` by design: the set of metrics is closed at
/// compile time, labels carry the open-ended dimension (layer name,
/// transfer type, shift index).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Key {
    pub name: &'static str,
    pub label: String,
}

/// Order-independent aggregate of histogram samples. `count`, `min`, and
/// `max` are exact under any thread interleaving; `sum` is exact in value
/// terms only up to f64 addition order.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct HistStats {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl HistStats {
    fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }
}

/// One completed span.
#[derive(Clone, Debug)]
pub(crate) struct SpanRecord {
    pub name: &'static str,
    pub label: String,
    pub tid: u64,
    pub start_us: u64,
    pub dur_us: u64,
}

#[derive(Default)]
struct Inner {
    hists: BTreeMap<Key, HistStats>,
    spans: Vec<SpanRecord>,
    spans_dropped: u64,
}

/// One thread's private counter map. Locked only by its owner thread on
/// the increment path; `snapshot`/`reset` lock shards one at a time from
/// whatever thread collects.
#[derive(Default)]
struct Shard {
    counters: Mutex<BTreeMap<Key, u64>>,
}

impl Shard {
    fn add(&self, name: &'static str, label: &str, delta: u64) {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        let slot = map
            .entry(Key {
                name,
                label: label.to_string(),
            })
            .or_insert(0);
        *slot = slot.saturating_add(delta);
    }
}

pub(crate) struct Registry {
    inner: Mutex<Inner>,
    /// The counter shard of every live thread that has counted.
    shards: Mutex<Vec<Arc<Shard>>>,
    /// Counts of exited threads, folded in at thread exit, plus increments
    /// made after a thread's local storage is torn down.
    fallback: Shard,
    /// Process-wide monotonic epoch: all span timestamps are microseconds
    /// since the registry's first use. Survives `reset` so successive
    /// collection windows never produce overlapping Chrome timelines.
    epoch: Instant,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

#[expect(
    clippy::disallowed_methods,
    reason = "the span epoch is the sanctioned wall-clock read"
)]
pub(crate) fn global() -> &'static Registry {
    GLOBAL.get_or_init(|| Registry {
        inner: Mutex::new(Inner::default()),
        shards: Mutex::new(Vec::new()),
        fallback: Shard::default(),
        epoch: Instant::now(),
    })
}

/// A thread's registered shard; dropping it at thread exit hands its
/// counts to the fallback shard.
struct LocalShard(Arc<Shard>);

impl Drop for LocalShard {
    fn drop(&mut self) {
        let registry = global();
        // Fold and unregister under the `shards` lock, so a concurrent
        // snapshot sees these counts exactly once.
        let mut shards = registry.shards.lock().unwrap_or_else(|e| e.into_inner());
        let counts =
            std::mem::take(&mut *self.0.counters.lock().unwrap_or_else(|e| e.into_inner()));
        let mut fallback = registry
            .fallback
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for (k, v) in counts {
            let slot = fallback.entry(k).or_insert(0);
            *slot = slot.saturating_add(v);
        }
        shards.retain(|s| !Arc::ptr_eq(s, &self.0));
    }
}

thread_local! {
    /// This thread's counter shard, registered with the global registry on
    /// first use so snapshots can find it.
    static SHARD: LocalShard = {
        let shard = Arc::new(Shard::default());
        global()
            .shards
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&shard));
        LocalShard(shard)
    };
}

/// Thread ordinals handed out so far (`next` is the first never used)
/// and those returned by exited threads.
struct Ordinals {
    next: u64,
    free: BTreeSet<u64>,
}

static ORDINALS: Mutex<Ordinals> = Mutex::new(Ordinals {
    next: 1,
    free: BTreeSet::new(),
});

fn ordinals() -> std::sync::MutexGuard<'static, Ordinals> {
    ORDINALS.lock().unwrap_or_else(|e| e.into_inner())
}

/// A live thread's ordinal; dropping it at thread exit frees the ordinal
/// for the next thread.
struct Ordinal(u64);

impl Drop for Ordinal {
    fn drop(&mut self) {
        ordinals().free.insert(self.0);
    }
}

/// Small dense thread id for Chrome trace `tid` fields (std's `ThreadId`
/// has no stable integer accessor). Assigned on first telemetry use per
/// thread: the smallest ordinal no live thread holds, so a trace has as
/// many thread rows as threads ever ran at once, however many scoped
/// fan-outs came and went. `0` marks a span recorded during the thread's
/// own teardown.
pub(crate) fn thread_ordinal() -> u64 {
    thread_local! {
        static ORDINAL: Ordinal = {
            let mut o = ordinals();
            let id = o.free.pop_first().unwrap_or(o.next);
            o.next = o.next.max(id + 1);
            Ordinal(id)
        };
    }
    ORDINAL.try_with(|o| o.0).unwrap_or(0)
}

impl Registry {
    /// Microseconds on the registry's monotonic clock.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Telemetry must never take the process down: a panic while the
        // lock was held (poisoned mutex) still leaves a usable map.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn counter_add(&self, name: &'static str, label: &str, delta: u64) {
        match SHARD.try_with(|local| Arc::clone(&local.0)) {
            Ok(shard) => shard.add(name, label, delta),
            // Thread-local storage already destroyed (increment during
            // thread teardown) — fall back to the shared shard.
            Err(_) => self.fallback.add(name, label, delta),
        }
    }

    /// Counter shards currently registered for live threads.
    #[cfg(test)]
    pub fn shard_count(&self) -> usize {
        self.shards.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Sums every shard's counters into one ordered map.
    fn merged_counters(&self) -> BTreeMap<Key, u64> {
        let mut merged: BTreeMap<Key, u64> = BTreeMap::new();
        let shards = self.shards.lock().unwrap_or_else(|e| e.into_inner());
        for shard in shards.iter().map(Arc::as_ref).chain([&self.fallback]) {
            let map = shard.counters.lock().unwrap_or_else(|e| e.into_inner());
            for (k, &v) in map.iter() {
                let slot = merged.entry(k.clone()).or_insert(0);
                *slot = slot.saturating_add(v);
            }
        }
        merged
    }

    pub fn observe(&self, name: &'static str, label: &str, value: f64) {
        let mut inner = self.lock();
        inner
            .hists
            .entry(Key {
                name,
                label: label.to_string(),
            })
            .or_default()
            .record(value);
    }

    pub fn push_span(&self, record: SpanRecord) {
        let mut inner = self.lock();
        if inner.spans.len() >= MAX_SPANS {
            inner.spans_dropped += 1;
        } else {
            inner.spans.push(record);
        }
    }

    pub fn reset(&self) {
        *self.lock() = Inner::default();
        let shards = self.shards.lock().unwrap_or_else(|e| e.into_inner());
        for shard in shards.iter().map(Arc::as_ref).chain([&self.fallback]) {
            shard
                .counters
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clear();
        }
    }

    pub fn snapshot(&self) -> Snapshot {
        let counters = self.merged_counters();
        let inner = self.lock();
        Snapshot {
            counters: counters
                .iter()
                .map(|(k, &v)| CounterSnap {
                    name: k.name.to_string(),
                    label: k.label.clone(),
                    value: v,
                })
                .collect(),
            hists: inner
                .hists
                .iter()
                .map(|(k, h)| HistSnap {
                    name: k.name.to_string(),
                    label: k.label.clone(),
                    count: h.count,
                    sum: h.sum,
                    min: h.min,
                    max: h.max,
                })
                .collect(),
            spans: inner
                .spans
                .iter()
                .map(|s| SpanSnap {
                    name: s.name.to_string(),
                    label: s.label.clone(),
                    tid: s.tid,
                    start_us: s.start_us,
                    dur_us: s.dur_us,
                })
                .collect(),
            spans_dropped: inner.spans_dropped,
        }
    }
}

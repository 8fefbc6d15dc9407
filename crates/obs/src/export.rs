//! Snapshot of the registry plus the three export formats.
//!
//! * [`Snapshot::summary_table`] — human-readable breakdown for stdout,
//! * [`Snapshot::to_json`] — stable-schema JSON (`"schema": "hd-obs/v1"`),
//!   the backbone format for `BENCH_*.json`-style artifacts,
//! * [`Snapshot::to_chrome_trace`] — Chrome trace-event JSON: load the file
//!   in `chrome://tracing` or <https://ui.perfetto.dev> to see the span
//!   timeline across threads.

use crate::json::{number, quote};
use std::fmt::Write as _;

/// One counter at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnap {
    /// Metric name (compile-time closed set, e.g. `dram.read.bytes`).
    pub name: String,
    /// Open-ended dimension (transfer type, layer name, shift index…).
    pub label: String,
    /// Accumulated value.
    pub value: u64,
}

/// One histogram aggregate at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSnap {
    /// Metric name.
    pub name: String,
    /// Label dimension.
    pub label: String,
    /// Number of samples (order-independent, safe to pin in tests).
    pub count: u64,
    /// Sum of samples. Exact only up to f64 addition order across threads;
    /// don't pin bitwise in golden tests.
    pub sum: f64,
    /// Smallest sample (order-independent).
    pub min: f64,
    /// Largest sample (order-independent).
    pub max: f64,
}

impl HistSnap {
    /// Arithmetic mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One recorded span at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnap {
    /// Span name.
    pub name: String,
    /// Label (rendered into the Chrome trace `args`).
    pub label: String,
    /// Dense thread ordinal (Chrome `tid`).
    pub tid: u64,
    /// Start, microseconds on the process-monotonic clock (Chrome `ts`).
    pub start_us: u64,
    /// Duration in microseconds (Chrome `dur`).
    pub dur_us: u64,
}

/// A consistent copy of the registry. Counters and histograms are sorted
/// by `(name, label)`; spans are in completion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// All counters, sorted by `(name, label)`.
    pub counters: Vec<CounterSnap>,
    /// All histograms, sorted by `(name, label)`.
    pub hists: Vec<HistSnap>,
    /// All retained spans, in completion order.
    pub spans: Vec<SpanSnap>,
    /// Spans discarded after the [`crate::MAX_SPANS`] cap was hit.
    pub spans_dropped: u64,
}

impl Snapshot {
    /// The value of counter `(name, label)`, if recorded.
    pub fn counter(&self, name: &str, label: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && c.label == label)
            .map(|c| c.value)
    }

    /// Sum of counter `name` across all labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// The histogram aggregate for `(name, label)`, if recorded.
    pub fn hist(&self, name: &str, label: &str) -> Option<&HistSnap> {
        self.hists
            .iter()
            .find(|h| h.name == name && h.label == label)
    }

    /// Number of recorded spans named `name`.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Human-readable summary: counters, histograms, and per-name span
    /// aggregates, each section sorted for stable diffs.
    pub fn summary_table(&self) -> String {
        let mut s = String::from("== telemetry summary ==\n");
        if self.counters.is_empty() && self.hists.is_empty() && self.spans.is_empty() {
            s.push_str("  (empty — was telemetry enabled?)\n");
            return s;
        }
        if !self.counters.is_empty() {
            s.push_str("counters:\n");
            for c in &self.counters {
                let _ = writeln!(s, "  {:<44} {:>16}", key_of(&c.name, &c.label), c.value);
            }
        }
        if !self.hists.is_empty() {
            s.push_str("histograms (count / mean / min / max):\n");
            for h in &self.hists {
                let _ = writeln!(
                    s,
                    "  {:<44} {:>8}  {:>12.1}  {:>12.1}  {:>12.1}",
                    key_of(&h.name, &h.label),
                    h.count,
                    h.mean(),
                    h.min,
                    h.max
                );
            }
        }
        if !self.spans.is_empty() {
            s.push_str("spans (count / total ms / mean us):\n");
            for (name, count, total_us) in self.span_aggregates() {
                let _ = writeln!(
                    s,
                    "  {:<44} {:>8}  {:>12.3}  {:>12.1}",
                    name,
                    count,
                    total_us as f64 / 1e3,
                    total_us as f64 / count.max(1) as f64
                );
            }
        }
        if self.spans_dropped > 0 {
            let _ = writeln!(s, "  ({} spans dropped past the cap)", self.spans_dropped);
        }
        s
    }

    /// Stable-schema JSON export.
    ///
    /// Schema (`"hd-obs/v1"`): top-level object with `schema` (string),
    /// `counters` (array of `{name, label, value}`), `histograms` (array of
    /// `{name, label, count, sum, min, max, mean}`), `spans` (array of
    /// per-name aggregates `{name, count, total_us}`), and `spans_dropped`
    /// (number). Arrays are sorted by `(name, label)`; the full span list is
    /// deliberately left to [`Snapshot::to_chrome_trace`].
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"hd-obs/v1\",\n  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"name\": {}, \"label\": {}, \"value\": {}}}",
                quote(&c.name),
                quote(&c.label),
                c.value
            );
        }
        s.push_str(if self.counters.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"histograms\": [");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"name\": {}, \"label\": {}, \"count\": {}, \"sum\": {}, \
                 \"min\": {}, \"max\": {}, \"mean\": {}}}",
                quote(&h.name),
                quote(&h.label),
                h.count,
                number(h.sum),
                number(h.min),
                number(h.max),
                number(h.mean())
            );
        }
        s.push_str(if self.hists.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"spans\": [");
        let aggs = self.span_aggregates();
        for (i, (name, count, total_us)) in aggs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"name\": {}, \"count\": {count}, \"total_us\": {total_us}}}",
                quote(name)
            );
        }
        s.push_str(if aggs.is_empty() { "],\n" } else { "\n  ],\n" });
        let _ = writeln!(s, "  \"spans_dropped\": {}\n}}", self.spans_dropped);
        s
    }

    /// Chrome trace-event export: one complete (`"ph": "X"`) event per
    /// span. Load the file in `chrome://tracing` or ui.perfetto.dev.
    pub fn to_chrome_trace(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n  {{\"name\": {}, \"cat\": \"hd-obs\", \"ph\": \"X\", \"ts\": {}, \
                 \"dur\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{\"label\": {}}}}}",
                quote(&sp.name),
                sp.start_us,
                sp.dur_us,
                sp.tid,
                quote(&sp.label)
            );
        }
        s.push_str(if self.spans.is_empty() {
            "]}\n"
        } else {
            "\n]}\n"
        });
        s
    }

    /// `(name, count, total_us)` per span name, sorted by name.
    fn span_aggregates(&self) -> Vec<(String, usize, u64)> {
        let mut by_name: std::collections::BTreeMap<&str, (usize, u64)> = Default::default();
        for sp in &self.spans {
            let e = by_name.entry(&sp.name).or_default();
            e.0 += 1;
            e.1 += sp.dur_us;
        }
        by_name
            .into_iter()
            .map(|(name, (count, total))| (name.to_string(), count, total))
            .collect()
    }
}

fn key_of(name: &str, label: &str) -> String {
    if label.is_empty() {
        name.to_string()
    } else {
        format!("{name}/{label}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            counters: vec![
                CounterSnap {
                    name: "dram.read.bytes".into(),
                    label: "weights".into(),
                    value: 4096,
                },
                CounterSnap {
                    name: "probe.runs".into(),
                    label: String::new(),
                    value: 12,
                },
            ],
            hists: vec![HistSnap {
                name: "encode.duration_ps".into(),
                label: "conv1".into(),
                count: 2,
                sum: 3.0,
                min: 1.0,
                max: 2.0,
            }],
            spans: vec![
                SpanSnap {
                    name: "device.layer".into(),
                    label: "conv1".into(),
                    tid: 1,
                    start_us: 10,
                    dur_us: 5,
                },
                SpanSnap {
                    name: "device.layer".into(),
                    label: "pool2".into(),
                    tid: 1,
                    start_us: 16,
                    dur_us: 3,
                },
            ],
            spans_dropped: 0,
        }
    }

    #[test]
    fn accessors_find_entries() {
        let s = sample_snapshot();
        assert_eq!(s.counter("dram.read.bytes", "weights"), Some(4096));
        assert_eq!(s.counter_total("dram.read.bytes"), 4096);
        assert_eq!(s.hist("encode.duration_ps", "conv1").unwrap().count, 2);
        assert_eq!(s.span_count("device.layer"), 2);
    }

    #[test]
    fn summary_table_mentions_every_section() {
        let t = sample_snapshot().summary_table();
        assert!(t.contains("counters:"));
        assert!(t.contains("dram.read.bytes/weights"));
        assert!(t.contains("histograms"));
        assert!(t.contains("spans"));
    }

    #[test]
    fn json_export_parses_and_round_trips_values() {
        let snap = sample_snapshot();
        let v = crate::json::Json::parse(&snap.to_json()).expect("valid JSON");
        assert_eq!(v.get("schema").and_then(|j| j.as_str()), Some("hd-obs/v1"));
        let counters = v.get("counters").and_then(|j| j.as_array()).unwrap();
        assert_eq!(counters.len(), 2);
        assert_eq!(
            counters[0].get("value").and_then(|j| j.as_f64()),
            Some(4096.0)
        );
        let spans = v.get("spans").and_then(|j| j.as_array()).unwrap();
        assert_eq!(spans[0].get("count").and_then(|j| j.as_f64()), Some(2.0));
        assert_eq!(spans[0].get("total_us").and_then(|j| j.as_f64()), Some(8.0));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let trace = sample_snapshot().to_chrome_trace();
        let v = crate::json::Json::parse(&trace).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|j| j.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").and_then(|j| j.as_str()), Some("X"));
            assert!(e.get("ts").and_then(|j| j.as_f64()).is_some());
            assert!(e.get("dur").and_then(|j| j.as_f64()).is_some());
        }
    }

    #[test]
    fn empty_snapshot_exports_are_valid() {
        let snap = Snapshot::default();
        assert!(crate::json::Json::parse(&snap.to_json()).is_ok());
        assert!(crate::json::Json::parse(&snap.to_chrome_trace()).is_ok());
        assert!(snap.summary_table().contains("empty"));
    }

    #[test]
    fn json_strings_escape_specials() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}

//! RAII spans: construct to start, drop to record.

use crate::registry::{self, SpanRecord};

/// A live span. Created by [`crate::span`]; records itself into the global
/// registry when dropped. While telemetry is disabled the guard is inert —
/// no label allocation, no timestamps, and drop does nothing.
///
/// Spans are recorded even if telemetry was disabled *between* start and
/// drop: a span that began under an enabled registry describes work that
/// was meant to be measured, and dropping it silently would leave its
/// start dangling in the Chrome timeline.
#[must_use = "a span measures the scope it lives in; drop it at the end of the work"]
pub struct Span {
    active: Option<Active>,
}

struct Active {
    name: &'static str,
    label: String,
    start_us: u64,
}

impl Span {
    pub(crate) fn start(name: &'static str, label: &str) -> Span {
        if !crate::enabled() {
            return Span { active: None };
        }
        Span {
            active: Some(Active {
                name,
                label: label.to_string(),
                start_us: registry::global().now_us(),
            }),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let reg = registry::global();
        let end_us = reg.now_us();
        reg.push_span(SpanRecord {
            name: active.name,
            label: active.label,
            tid: registry::thread_ordinal(),
            start_us: active.start_us,
            dur_us: end_us.saturating_sub(active.start_us),
        });
    }
}

//! Outcomes pinned at each workload's default seed (`fixtures/pinned.tsv`).
//!
//! `cell` lines hold one scored target each, in operation order; the
//! `defence_matrix` cells are the committed `BENCH_channel_matrix.json`
//! rows. `digest` lines hold the simulated-statistics digest of the traced
//! run's replay sample (bus events, bytes and final simulated time).

use crate::workloads::Workload;

const PINNED: &str = include_str!("../fixtures/pinned.tsv");

fn lines(kind: &'static str, w: Workload) -> impl Iterator<Item = &'static str> {
    PINNED.lines().filter_map(move |line| {
        let rest = line.strip_prefix(kind)?.strip_prefix('\t')?;
        rest.strip_prefix(w.name())?.strip_prefix('\t')
    })
}

/// Pinned cell rows for `w`, in [`crate::workloads::Cell::row`] format.
pub fn rows(w: Workload) -> Vec<String> {
    lines("cell", w).map(str::to_string).collect()
}

/// Pinned replay digest for `w`, if one is recorded.
pub fn digest(w: Workload) -> Option<u64> {
    lines("digest", w)
        .next()
        .and_then(|h| u64::from_str_radix(h, 16).ok())
}

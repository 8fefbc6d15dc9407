//! Experiment harness for the HuffDuff reproduction.
//!
//! Every table and figure in the paper's evaluation (§8) has a regenerator
//! here; the `experiments` binary prints them at full scale and the
//! benches print fast-scale versions while timing the hot kernels through
//! [`harness`], which also records the `BENCH_*.json` artifacts. See
//! `EXPERIMENTS.md` at the workspace root for the paper-vs-measured record.

pub mod experiments;
pub mod harness;
pub mod table;
pub mod victims;

pub use table::Table;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minimal sizes for the CI smoke runs of the matrix benches
    /// (`HD_BENCH_SMOKE=1`) and the golden tests that pin their cells.
    Smoke,
    /// Reduced sizes for quick runs (`experiments --fast`).
    Fast,
    /// The scale reported in `EXPERIMENTS.md`.
    Full,
}

//! Bench for E2 (§5.2): prints the observability table and times the
//! Monte-Carlo estimator.

use hd_bench::harness;
use hd_bench::{experiments::observability_table, Scale};
use huffduff_core::boundary_obs::{observability_rate, ObservabilityConfig};

fn main() {
    println!("{}", observability_table(Scale::Fast));
    let cfg = ObservabilityConfig {
        trials: 200,
        ..Default::default()
    };
    harness::report("observability_200_trials", 10, || {
        observability_rate(std::hint::black_box(&cfg), 7)
    });
}

//! Defence + probe-budget ablation bench: prints both ablation tables and
//! times pattern refinement.

use hd_bench::experiments::{defence_ablation, probe_budget_ablation};
use hd_bench::harness;
use hd_bench::Scale;
use huffduff_core::pattern::Pattern;

fn main() {
    println!("{}", defence_ablation(Scale::Fast));
    println!("{}", probe_budget_ablation(Scale::Fast));

    let patterns: Vec<Pattern> = (0..64u64)
        .map(|s| Pattern::of(&(0..24).map(|i| (i as u64 * s) % 7).collect::<Vec<_>>()))
        .collect();
    harness::report("pattern_refine_64x24", 10, || {
        Pattern::refine_all(std::hint::black_box(&patterns))
    });
}

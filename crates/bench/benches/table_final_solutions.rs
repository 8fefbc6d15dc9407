//! Bench for E5 (§8.2 finalization): prints the solution-space table and
//! times the first-layer range computation.

use hd_bench::harness;
use hd_bench::{experiments::final_solution_table, Scale};
use huffduff_core::solution::{first_layer_k_range, CodecModel};

fn main() {
    println!("{}", final_solution_table(Scale::Fast));
    harness::report("first_layer_k_range", 10, || {
        first_layer_k_range(
            std::hint::black_box(9_000),
            7,
            3,
            &CodecModel::default(),
            0.6,
            1024,
        )
    });
}

//! Artifact bench for the pruning-mode robustness matrix: runs the full
//! zoo × {unstructured, N:M, structured} × defence × backend attack grid
//! and writes one JSON row per cell (geometry recovery, probe budget,
//! wall-clock) to `BENCH_prune_matrix.json` at the repository root.
//!
//! ```text
//! cargo bench -p hd-bench --bench fig_prune_matrix
//! HD_BENCH_SMOKE=1 cargo bench -p hd-bench --bench fig_prune_matrix   # CI
//! ```
//!
//! Smoke mode shrinks the grid to one zoo entry per pruning mode and
//! skips the JSON write so CI cannot clobber the checked-in full-run
//! artifact. The cross-backend agreement contract (cells differing only
//! in backend are indistinguishable to the prober) is asserted inside
//! [`hd_bench::experiments::render_matrix`] on every run.

use criterion::{criterion_group, criterion_main, Criterion};
use hd_bench::experiments::{backend_label, prune_matrix_cells, render_matrix, MATRIX_WIDTH};
use hd_bench::Scale;
use std::time::Instant;

const BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_prune_matrix.json");

fn bench(_c: &mut Criterion) {
    let smoke = std::env::var("HD_BENCH_SMOKE").is_ok();
    let scale = if smoke { Scale::Smoke } else { Scale::Full };
    let t0 = Instant::now();
    let cells = prune_matrix_cells(scale);
    let wall_s = t0.elapsed().as_secs_f64();
    // render_matrix asserts cross-backend agreement before printing.
    println!("{}", render_matrix(&cells));
    println!("{} cells in {wall_s:.1}s ({:?} scale)", cells.len(), scale);

    if smoke {
        println!("smoke mode: skipping BENCH_prune_matrix.json");
        return;
    }
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{ \"victim\": \"{}\", \"pruning\": \"{}\", \"defence\": \"{}\", \
                 \"backend\": \"{}\", \"probes_used\": {}, \"geometry_correct\": {}, \
                 \"geometry_total\": {} }}",
                c.model.name(),
                c.mode.name(),
                c.defence,
                backend_label(c.backend),
                c.probes_used,
                c.geometry_correct,
                c.geometry_total,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"fig_prune_matrix\",\n  \"width\": {MATRIX_WIDTH},\n  \
         \"wall_s\": {wall_s:.1},\n  \
         \"note\": \"geometry recovery and probe budget per zoo x pruning-mode x defence x \
         conv-backend cell; width-scaled victims; cells differing only in backend are \
         asserted identical (bit-identity contract)\",\n  \
         \"cross_backend_identical\": true,\n  \"cells\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(BENCH_JSON, json).expect("write BENCH_prune_matrix.json");
    println!("wrote {BENCH_JSON}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(2);
    targets = bench
}
criterion_main!(benches);

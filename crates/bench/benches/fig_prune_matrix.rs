//! Artifact bench for the pruning-mode robustness matrix: runs the full
//! zoo × {unstructured, N:M, structured} × defence attack grid
//! and writes one JSON row per cell (geometry recovery, probe budget,
//! wall-clock) to `BENCH_prune_matrix.json` at the repository root.
//!
//! ```text
//! cargo bench -p hd-bench --bench fig_prune_matrix
//! HD_BENCH_SMOKE=1 cargo bench -p hd-bench --bench fig_prune_matrix   # CI
//! ```
//!
//! Smoke mode shrinks the grid to one zoo entry per pruning mode and,
//! instead of writing the artifact, checks that its key paths match the
//! committed one.

use hd_bench::experiments::{prune_matrix_cells, render_matrix, MATRIX_WIDTH};
use hd_bench::harness::{self, Artifact};
use hd_bench::Scale;
use hd_obs::json::Json;

const ARTIFACT: Artifact = Artifact {
    bench: "fig_prune_matrix",
    name: "prune_matrix",
    schema: "hd-bench/prune-matrix/v1",
};

fn main() {
    let scale = if harness::smoke() {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let (cells, wall_s) = harness::time(|| prune_matrix_cells(scale));
    println!("{}", render_matrix(&cells));
    println!("{} cells in {wall_s:.1}s ({:?} scale)", cells.len(), scale);

    let rows = cells.iter().map(|c| {
        Json::obj([
            ("victim", c.model.name().into()),
            ("pruning", c.mode.name().into()),
            ("defence", c.defence.as_str().into()),
            ("probes_used", c.probes_used.into()),
            ("geometry_correct", c.geometry_correct.into()),
            ("geometry_total", c.geometry_total.into()),
        ])
    });
    ARTIFACT.finish(Json::obj([
        ("width", MATRIX_WIDTH.into()),
        ("wall_s", harness::round(wall_s, 1)),
        (
            "note",
            "geometry recovery and probe budget per zoo x pruning-mode x defence cell; \
             width-scaled victims"
                .into(),
        ),
        ("cells", Json::Arr(rows.collect())),
    ]));
}

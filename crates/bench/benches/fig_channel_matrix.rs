//! Artifact bench for the channel × defence matrix: runs the full
//! zoo × observation-channel × defence attack grid and writes one JSON row
//! per cell (per-stage recovery, probe budget) to
//! `BENCH_channel_matrix.json` at the repository root.
//!
//! ```text
//! cargo bench -p hd-bench --bench fig_channel_matrix
//! HD_BENCH_SMOKE=1 cargo bench -p hd-bench --bench fig_channel_matrix   # CI
//! ```
//!
//! Smoke mode shrinks the grid to one zoo entry and the {none, nn-rearch}
//! defence pair and, instead of writing the artifact, checks that its key
//! paths match the committed one.

use hd_bench::experiments::{channel_matrix_cells, render_channel_matrix, CHANNEL_MATRIX_WIDTH};
use hd_bench::harness::{self, Artifact};
use hd_bench::Scale;
use hd_obs::json::Json;

const ARTIFACT: Artifact = Artifact {
    bench: "fig_channel_matrix",
    name: "channel_matrix",
    schema: "hd-bench/channel-matrix/v1",
};

fn main() {
    let scale = if harness::smoke() {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let (cells, wall_s) = harness::time(|| channel_matrix_cells(scale));
    println!("{}", render_channel_matrix(&cells));
    println!("{} cells in {wall_s:.1}s ({scale:?} scale)", cells.len());

    let rows = cells.iter().map(|c| {
        Json::obj([
            ("victim", c.model.name().into()),
            ("channel", c.channel.label().into()),
            ("defence", c.defence.as_str().into()),
            ("probes_used", c.probes_used.into()),
            ("geometry_correct", c.geometry_correct.into()),
            ("geometry_total", c.geometry_total.into()),
            ("conv_correct", c.conv_correct.into()),
            ("conv_total", c.conv_total.into()),
            ("ratios_recovered", c.ratios_recovered.into()),
            ("solution_count", c.solution_count.into()),
            ("k1_hit", c.k1_hit.into()),
        ])
    });
    ARTIFACT.finish(Json::obj([
        ("width", CHANNEL_MATRIX_WIDTH.into()),
        ("wall_s", harness::round(wall_s, 1)),
        (
            "note",
            "attack-stage recovery per zoo x observation-channel x defence cell; \
             width-scaled victims on the im2col+GEMM backend; full = paper channel, gemm = \
             Cache-Telepathy-style GEMM dimensions; nn-rearch pads scheduler-visible dims to \
             the tile, degrading the gemm channel while volume channels pass through"
                .into(),
        ),
        ("cells", Json::Arr(rows.collect())),
    ]));
}

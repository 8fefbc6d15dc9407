//! Bench for the sparse forward path: runs the full end-to-end prober
//! (stripe probes through the victim device, single-threaded) against
//! VGG-S and ResNet-18 with (a) the uncached full-width walk, kept off the
//! cache by an `auto_sparse: false` policy, and (b) the cached-CSC sparse
//! path, asserts the `ProberResult`s are bit-identical, and writes the
//! measured wall-clock numbers to `BENCH_sparse_fwd.json` at the
//! repository root.
//!
//! ```text
//! cargo bench -p hd-bench --bench fig_sparse_fwd
//! HD_BENCH_SMOKE=1 cargo bench -p hd-bench --bench fig_sparse_fwd   # CI
//! ```
//!
//! Both rows run with `parallelism = Some(1)`: the sparse path accelerates
//! each inference, so its speedup is orthogonal to (and composes with) the
//! `-j` probe-level parallelism measured by `fig_prober_parallel`. Smoke
//! mode shrinks the probe budget and, instead of writing the artifact,
//! checks that its key paths match the committed one.

use hd_bench::harness::{self, Artifact};
use hd_bench::victims::{paper_victim_with, Model};
use hd_obs::json::Json;
use hd_tensor::BackendPolicy;
use huffduff_core::prober::{probe, ProberConfig};

const ARTIFACT: Artifact = Artifact {
    bench: "fig_sparse_fwd",
    name: "sparse_fwd",
    schema: "hd-bench/sparse-fwd/v1",
};

fn main() {
    let smoke = harness::smoke();
    let probe_cfg = if smoke {
        ProberConfig {
            shifts: 8,
            max_probes: 2,
            stable_probes: 1,
            ..Default::default()
        }
    } else {
        ProberConfig::default()
    }
    .with_parallelism(Some(1)); // isolate per-inference speed from -j fan-out

    // Dense baseline: the default backend with auto sparse routing off, so
    // every probe takes the uncached full-width walk. `conv2d` still sends
    // sparse operands (the ~99%-pruned layers) to the sparse kernel.
    let dense_policy = BackendPolicy { auto_sparse: false };
    let models = if smoke {
        vec![Model::VggS]
    } else {
        Model::BOTH.to_vec()
    };

    let mut rows = Vec::new();
    for model in models {
        let (dense_dev, _) = paper_victim_with(
            model,
            3,
            hd_accel::AccelConfig::eyeriss_v2().with_backend_policy(dense_policy),
        );
        // Sparse path: the out-of-the-box default config auto-selects the
        // cached-CSC forward for sparse inputs (every stripe probe).
        let (sparse_dev, _) = paper_victim_with(model, 3, hd_accel::AccelConfig::eyeriss_v2());

        let (dense_res, dense) =
            harness::sample(2, || probe(&dense_dev, &probe_cfg).expect("probe succeeds"));
        let (sparse_res, sparse) = harness::sample(2, || {
            probe(&sparse_dev, &probe_cfg).expect("probe succeeds")
        });
        assert_eq!(
            dense_res,
            sparse_res,
            "sparse forward must be bit-identical to the dense backend on {}",
            model.name()
        );

        let (d_mean, s_mean) = (dense.mean(), sparse.mean());
        let speedup = d_mean / s_mean;
        println!(
            "{}: dense {d_mean:.2}s vs sparse {s_mean:.2}s (single-threaded): \
             {speedup:.2}x, results identical",
            model.name()
        );
        rows.push(Json::obj([
            ("victim", model.name().into()),
            ("dense", Json::obj(dense.fields())),
            ("sparse", Json::obj(sparse.fields())),
            ("speedup", harness::round(speedup, 3)),
        ]));
    }

    ARTIFACT.finish(Json::obj([
        ("parallelism", 1usize.into()),
        (
            "note",
            "single-threaded end-to-end prober wall-clock; dense row pins the \
             default im2col+GEMM backend via auto_sparse=false, sparse row is the default \
             device config (auto CSC on stripe probes); orthogonal to -j probe fan-out"
                .into(),
        ),
        ("results_bit_identical", true.into()),
        ("victims", Json::Arr(rows)),
    ]));
}

//! Bench for the convolution kernels: times every VGG-S conv layer shape
//! on the im2col + GEMM kernel (both operands are dense enough for `conv2d`
//! to pick it) — with the SIMD dispatcher on and forced to scalar — plus
//! the INT8 `qconv2d` kernel, with dense and paper-style pruned weights. Asserts (untimed) that the GEMM output is bit-identical
//! to the `conv2d_reference` oracle and that GEMM and INT8 outputs are
//! byte-identical across both SIMD paths, and writes the wall-clock numbers
//! to `BENCH_conv_gemm.json` at the repository root.
//!
//! ```text
//! cargo bench -p hd-bench --bench fig_conv_backend
//! HD_BENCH_SMOKE=1 cargo bench -p hd-bench --bench fig_conv_backend   # CI
//! HD_BENCH_GUARD=1 cargo bench -p hd-bench --bench fig_conv_backend   # guard
//! ```
//!
//! Smoke mode benches only the first and last layers and, instead of
//! writing the artifact, checks that its key paths match the committed
//! one; the run takes seconds while still exercising every kernel end to
//! end. `HD_BENCH_GUARD=1` runs only the guard: 10 alternating SIMD/scalar
//! pairs of the largest layer's dense GEMM conv, failing unless SIMD wins
//! at least 9 pairs and has the lower median (skipped when the host has no
//! SIMD path). Every run records the same comparison in the artifact.

use hd_bench::harness::{self, Artifact, Pairs};
use hd_dnn::graph::{Op, ValueShape};
use hd_obs::json::Json;
use hd_tensor::conv::{conv2d, conv2d_reference, Conv2dCfg};
use hd_tensor::gemm::{gemm, GemmBlocking};
use hd_tensor::qconv::{qconv2d, QConvParams};
use hd_tensor::qtensor::{QTensor3, QTensor4, QuantParams};
use hd_tensor::{simd, Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ARTIFACT: Artifact = Artifact {
    bench: "fig_conv_backend",
    name: "conv_gemm",
    schema: "hd-bench/conv-gemm/v1",
};

/// Alternating SIMD/scalar pairs in the guard, and the wins SIMD needs.
const GUARD_PAIRS: usize = 10;
const GUARD_WINS: usize = 9;

/// One VGG-S convolution workload: input tensor + weights + cfg skeleton.
struct Layer {
    name: String,
    input: Tensor3,
    weights: Tensor4,
    stride: usize,
    /// Fraction of weights zeroed in the pruned variant.
    sparsity: f64,
}

/// Extracts every conv layer shape from the VGG-S zoo graph and
/// materializes seed-pinned dense inputs and He-initialized weights.
fn vgg_s_layers() -> Vec<Layer> {
    let net = hd_dnn::zoo::vgg_s(10);
    let mut layers = Vec::new();
    for (pos, &id) in net.conv_nodes().iter().enumerate() {
        let node = &net.nodes()[id];
        let Op::Conv(spec) = &node.op else { continue };
        let ValueShape::Map(shape) = net.value_shape(node.inputs[0]) else {
            continue;
        };
        let (c, h, w) = (shape.c, shape.h, shape.w);
        let mut input = Tensor3::zeros(c, h, w);
        let mut rng = StdRng::seed_from_u64(0xC0DE + pos as u64);
        input.fill_uniform(&mut rng, 0.05, 1.0);
        let mut weights = Tensor4::zeros(spec.out_channels, c, spec.kernel, spec.kernel);
        weights.init_he(&mut StdRng::seed_from_u64(0xF1EE + pos as u64));
        layers.push(Layer {
            name: format!(
                "{}_{}x{}x{}x{}",
                net.name(id),
                spec.out_channels,
                c,
                spec.kernel,
                spec.kernel
            ),
            input,
            weights,
            stride: spec.stride,
            // Paper-shaped profile: first layer lightly pruned, interior heavily.
            sparsity: if pos == 0 { 0.45 } else { 0.7 },
        });
    }
    layers
}

/// Zeroes `sparsity` of the weights (element-wise, seed-pinned).
fn pruned(weights: &Tensor4, sparsity: f64, seed: u64) -> Tensor4 {
    let mut w = weights.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    for v in w.data_mut().iter_mut() {
        if rng.gen_range(0.0..1.0) < sparsity as f32 {
            *v = 0.0;
        }
    }
    w
}

/// INT8 version of one workload: affine-quantized input, symmetric
/// per-channel weights, and requantization parameters calibrated from the
/// f32 output range (zero bias — the bench times the kernel, not a net).
fn quantize_workload(x: &Tensor3, w: &Tensor4, cfg: &Conv2dCfg) -> (QTensor3, QConvParams) {
    let range = |data: &[f32]| {
        data.iter()
            .fold((0.0f32, 0.0f32), |(lo, hi), &v| (lo.min(v), hi.max(v)))
    };
    let (lo, hi) = range(x.data());
    let in_qp = QuantParams::from_range(lo, hi);
    let qx = QTensor3::quantize(x, in_qp);
    let qw = QTensor4::quantize(w);
    let out = conv2d(x, w, None, cfg);
    let (lo, hi) = range(out.data());
    let out_qp = QuantParams::from_range(lo, hi);
    let multipliers: Vec<f32> = qw
        .scales()
        .iter()
        .map(|sw| in_qp.scale * sw / out_qp.scale)
        .collect();
    let bias_q = vec![0i32; qw.k()];
    (
        qx,
        QConvParams {
            weight: qw,
            bias_q,
            multipliers,
            out_qp,
        },
    )
}

/// The guard layer: the largest by weight count, first on ties.
fn guard_layer(layers: &[Layer]) -> &Layer {
    let mut g = &layers[0];
    for l in layers {
        if l.weights.len() > g.weights.len() {
            g = l;
        }
    }
    g
}

/// Alternating pairs of `layer`'s dense GEMM conv: arm A with the SIMD
/// dispatcher on, arm B forced to scalar.
fn gemm_pairs(layer: &Layer) -> Pairs {
    let cfg = Conv2dCfg::new(layer.stride, hd_tensor::conv::Padding::Same);
    let conv = |simd_on| {
        simd::set_enabled(simd_on);
        conv2d(&layer.input, &layer.weights, None, &cfg)
    };
    let pairs = harness::pairs(GUARD_PAIRS, || conv(true), || conv(false));
    simd::set_enabled(true);
    pairs
}

/// `HD_BENCH_GUARD=1`: on the guard layer's dense GEMM conv, SIMD must win
/// at least [`GUARD_WINS`] of [`GUARD_PAIRS`] alternating pairs against
/// scalar and have the lower median. Both arms run in this process, so
/// the comparison does not depend on a recording from another host.
fn kernel_regression_guard() {
    if !simd::simd_available() {
        println!("guard: skipped, no SIMD path on this host");
        return;
    }
    let layers = vgg_s_layers();
    let layer = guard_layer(&layers);
    let p = gemm_pairs(layer);
    let (simd_ms, scalar_ms) = (p.a.median * 1e3, p.b.median * 1e3);
    let verdict = format!(
        "fig_conv_backend guard, {}: SIMD GEMM median {simd_ms:.3} ms vs scalar \
         {scalar_ms:.3} ms, SIMD won {}/{GUARD_PAIRS} pairs ({})",
        layer.name,
        p.a.wins,
        simd::active_isa()
    );
    println!("{verdict}");
    assert!(
        p.a.wins >= GUARD_WINS && p.a.median < p.b.median,
        "{verdict}; needs at least {GUARD_WINS} wins and the lower median"
    );
}

fn main() {
    if harness::guard() {
        kernel_regression_guard();
        return;
    }
    let smoke = harness::smoke();
    let mut layers = vgg_s_layers();
    if smoke {
        // First (stem) and last (largest, conv5_3 at 512x512x3x3) layers only.
        let last = layers.len() - 1;
        layers = vec![layers.remove(last), layers.remove(0)];
        layers.reverse();
    }

    // The guard comparison runs first, before the sweep heats the machine.
    let guard = {
        let layer = guard_layer(&layers);
        let p = gemm_pairs(layer);
        Json::obj([
            ("layer", layer.name.as_str().into()),
            ("pairs", GUARD_PAIRS.into()),
            ("simd_wins", p.a.wins.into()),
            ("simd_median_ms", harness::round(p.a.median * 1e3, 3)),
            ("scalar_median_ms", harness::round(p.b.median * 1e3, 3)),
        ])
    };

    let mut rows = Vec::new();
    let mut kernel_rows = Vec::new();
    // Per-layer SIMD-over-scalar ratios of the bare GEMM kernel.
    let mut gemm_ratios = Vec::new();

    for (pos, layer) in layers.iter().enumerate() {
        for (variant, weights) in [
            ("dense", layer.weights.clone()),
            (
                "pruned",
                pruned(&layer.weights, layer.sparsity, 0x5EED + pos as u64),
            ),
        ] {
            let gemm_cfg = Conv2dCfg::new(layer.stride, hd_tensor::conv::Padding::Same);
            let (qx, qp) = quantize_workload(&layer.input, &weights, &gemm_cfg);
            let mut outputs: Vec<(bool, Tensor3, Vec<i8>)> = Vec::new();

            for simd_on in [true, false] {
                simd::set_enabled(simd_on);
                let tag = if simd_on { "simd" } else { "scalar" };
                let (g_out, g_times) =
                    harness::sample(2, || conv2d(&layer.input, &weights, None, &gemm_cfg));
                let (q_out, q_times) = harness::sample(2, || qconv2d(&qx, &qp, &gemm_cfg));
                let (g_ms, q_ms) = (g_times.mean() * 1e3, q_times.mean() * 1e3);
                println!(
                    "{} [{variant}, {tag}]: gemm {g_ms:.3} ms, int8 {q_ms:.3} ms",
                    layer.name
                );
                rows.push(Json::obj([
                    ("layer", layer.name.as_str().into()),
                    ("weights", variant.into()),
                    ("simd", simd_on.into()),
                    ("gemm_ms", harness::round(g_ms, 3)),
                    ("int8_ms", harness::round(q_ms, 3)),
                ]));
                outputs.push((simd_on, g_out, q_out.data().to_vec()));
            }
            simd::set_enabled(true);

            // The whole point of the no-FMA lane discipline: both SIMD
            // paths produce the same bytes, f32 and INT8 alike.
            let [(_, g_simd, q_simd), (_, g_scalar, q_scalar)] = &outputs[..] else {
                unreachable!("two SIMD modes benched");
            };
            // Once per layer and variant, outside every timed region: the
            // GEMM output must be bit-identical to the reference oracle.
            let reference = conv2d_reference(&layer.input, &weights, None, &gemm_cfg);
            assert_eq!(
                reference.data(),
                g_simd.data(),
                "GEMM diverged from conv2d_reference on {} ({variant})",
                layer.name
            );
            assert_eq!(
                g_simd.data(),
                g_scalar.data(),
                "SIMD and scalar GEMM diverged on {} ({variant})",
                layer.name
            );
            assert_eq!(
                q_simd, q_scalar,
                "SIMD and scalar INT8 diverged on {} ({variant})",
                layer.name
            );
        }

        // Bare GEMM kernel at this layer's im2col dimensions: m = output
        // channels, k = C*R*S, n = out_h*out_w. The conv-level rows above
        // include the (scalar, mode-independent) im2col packing, so the
        // kernel speedup is measured on the kernel alone.
        let (m, k) = (layer.weights.k(), layer.weights.len() / layer.weights.k());
        let out_h = hd_tensor::conv::conv_out_dim(
            layer.input.h(),
            layer.weights.r(),
            layer.stride,
            hd_tensor::conv::Padding::Same,
        );
        let out_w = hd_tensor::conv::conv_out_dim(
            layer.input.w(),
            layer.weights.s(),
            layer.stride,
            hd_tensor::conv::Padding::Same,
        );
        let n = out_h * out_w;
        let mut rng = StdRng::seed_from_u64(0xABCD ^ pos as u64);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let blk = GemmBlocking::default();
        let mut kernel_out = Vec::new();
        let mut kernel_ms = [0.0f64; 2];
        for (slot, simd_on) in [true, false].into_iter().enumerate() {
            simd::set_enabled(simd_on);
            let (out, times) = harness::sample(2, || {
                let mut cmat = vec![0.0f32; m * n];
                gemm(m, n, k, &a, k, &b, n, &mut cmat, n, &blk);
                cmat
            });
            kernel_ms[slot] = times.mean() * 1e3;
            kernel_out.push(out);
        }
        simd::set_enabled(true);
        assert_eq!(
            kernel_out[0], kernel_out[1],
            "SIMD and scalar GEMM kernel diverged on {}",
            layer.name
        );
        let ratio = kernel_ms[1] / kernel_ms[0];
        println!(
            "{} gemm kernel {m}x{k}x{n}: simd {:.3} ms, scalar {:.3} ms, {ratio:.2}x",
            layer.name, kernel_ms[0], kernel_ms[1]
        );
        gemm_ratios.push(ratio);
        kernel_rows.push(Json::obj([
            ("layer", layer.name.as_str().into()),
            ("m", m.into()),
            ("k", k.into()),
            ("n", n.into()),
            ("simd_ms", harness::round(kernel_ms[0], 3)),
            ("scalar_ms", harness::round(kernel_ms[1], 3)),
            ("speedup", harness::round(ratio, 3)),
        ]));
    }

    let geomean =
        (gemm_ratios.iter().map(|r| r.ln()).sum::<f64>() / gemm_ratios.len() as f64).exp();
    println!(
        "SIMD-over-scalar GEMM geomean {geomean:.2}x (ISA {})",
        simd::active_isa()
    );
    ARTIFACT.finish(Json::obj([
        ("victim", "VGG-S conv layer shapes".into()),
        ("simd_available", simd::simd_available().into()),
        ("gemm_simd_speedup_geomean", harness::round(geomean, 3)),
        ("guard", guard),
        ("results_bit_identical", true.into()),
        ("gemm_kernel", Json::Arr(kernel_rows)),
        ("layers", Json::Arr(rows)),
    ]));
}

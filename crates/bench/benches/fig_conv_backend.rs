//! Bench for the convolution kernels: times every VGG-S conv layer shape
//! under the `Im2colGemm` backend — with the SIMD dispatcher on and forced
//! to scalar — plus the INT8 `qconv2d` kernel, with dense and paper-style
//! pruned weights. Asserts (untimed) that the GEMM output is bit-identical
//! to the `conv2d_reference` oracle and across both SIMD paths, and writes
//! the wall-clock numbers to `BENCH_conv_gemm.json` at the repository root.
//!
//! ```text
//! cargo bench -p hd-bench --bench fig_conv_backend
//! HD_BENCH_SMOKE=1 cargo bench -p hd-bench --bench fig_conv_backend   # CI
//! HD_BENCH_GUARD=1 cargo bench -p hd-bench --bench fig_conv_backend   # guard
//! ```
//!
//! Smoke mode benches only the first and largest layers and skips the JSON
//! write (so CI cannot clobber the checked-in full-run artifact), which
//! keeps the run to seconds while still exercising every kernel end to end.
//! `HD_BENCH_GUARD=1` re-times the largest layer's SIMD GEMM and INT8
//! kernels and fails if either regressed more than 2% over the recorded
//! artifact (skipped with a notice when the recording host's ISA differs).

use criterion::{criterion_group, criterion_main, Criterion};
use hd_dnn::graph::{Op, ValueShape};
use hd_tensor::conv::{conv2d, conv2d_reference, Conv2dCfg, ConvBackend};
use hd_tensor::gemm::{gemm, GemmBlocking};
use hd_tensor::qconv::{qconv2d, QConvParams};
use hd_tensor::qtensor::{QTensor3, QTensor4, QuantParams};
use hd_tensor::{simd, Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use std::time::Instant;

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

/// Times one closure under criterion, recording every sample (first
/// sample dropped as warmup) and returning the last result.
fn timed<T: Send>(c: &mut Criterion, id: &str, f: impl Fn() -> T + Sync) -> (T, Vec<f64>) {
    let times = Mutex::new(Vec::new());
    let last = Mutex::new(None);
    c.bench_function(id, |b| {
        b.iter(|| {
            let t0 = Instant::now();
            let out = f();
            times.lock().unwrap().push(t0.elapsed().as_secs_f64());
            *last.lock().unwrap() = Some(out);
        })
    });
    let mut times = times.into_inner().unwrap();
    if times.len() > 1 {
        times.remove(0); // warmup sample
    }
    (last.into_inner().unwrap().expect("kernel ran"), times)
}

const BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_conv_gemm.json");

/// Times the guard layer's dense SIMD GEMM conv and INT8 conv: warmup,
/// then best of five runs. Used by both the recorder (to stamp
/// `guard_*_ms` into the artifact) and the guard (to check against it),
/// so the two numbers come from the identical procedure.
fn guard_measure(guard_layer: &str) -> (f64, f64) {
    let layer = vgg_s_layers()
        .into_iter()
        .find(|l| l.name == guard_layer)
        .expect("guard layer exists in the zoo");
    let cfg = Conv2dCfg::new(layer.stride, hd_tensor::conv::Padding::Same)
        .with_backend(ConvBackend::Im2colGemm);
    let (qx, qp) = quantize_workload(&layer.input, &layer.weights, &cfg);
    let best_of = |f: &dyn Fn()| {
        f(); // warmup
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        best
    };
    let gemm_ms = best_of(&|| {
        conv2d(&layer.input, &layer.weights, None, &cfg);
    });
    let int8_ms = best_of(&|| {
        qconv2d(&qx, &qp, &cfg);
    });
    (gemm_ms, int8_ms)
}

/// `HD_BENCH_GUARD=1`: the largest layer's dense SIMD GEMM and INT8
/// kernels must stay within 2% of the recorded artifact. Best of five
/// measured runs after a warmup, against a baseline recorded with the
/// same procedure, so scheduler noise on a loaded host cannot easily
/// produce a false regression. Skipped (loudly) when the host ISA
/// differs from the recording.
fn kernel_regression_guard() {
    use hd_obs::json::Json;
    let text = std::fs::read_to_string(BENCH_JSON).expect("BENCH_conv_gemm.json missing");
    let json = Json::parse(&text).expect("BENCH_conv_gemm.json is valid JSON");
    let recorded_isa = json
        .get("isa")
        .and_then(|v| v.as_str())
        .expect("isa recorded");
    if recorded_isa != simd::active_isa() {
        println!(
            "guard: skipped — artifact recorded on `{recorded_isa}`, host runs `{}`",
            simd::active_isa()
        );
        return;
    }
    let guard_layer = json
        .get("guard_layer")
        .and_then(|v| v.as_str())
        .expect("guard_layer recorded");
    // Baselines recorded by `guard_measure` itself at record time, so
    // check and record use the exact same measurement procedure.
    let gemm_baseline = json
        .get("guard_gemm_ms")
        .and_then(|v| v.as_f64())
        .expect("guard_gemm_ms recorded");
    let int8_baseline = json
        .get("guard_int8_ms")
        .and_then(|v| v.as_f64())
        .expect("guard_int8_ms recorded");
    let (gemm_ms, int8_ms) = guard_measure(guard_layer);
    for (name, got, baseline) in [
        ("simd gemm", gemm_ms, gemm_baseline),
        ("int8 qconv", int8_ms, int8_baseline),
    ] {
        let limit = baseline * 1.02;
        println!("guard: {guard_layer} {name} {got:.3} ms (recorded {baseline:.3} ms, limit {limit:.3} ms)");
        assert!(
            got <= limit,
            "{name} regressed more than 2% on {guard_layer}: {got:.3} ms vs recorded {baseline:.3} ms"
        );
    }
}

fn bench(c: &mut Criterion) {
    if std::env::var("HD_BENCH_GUARD").is_ok() {
        kernel_regression_guard();
        return;
    }
    let smoke = std::env::var("HD_BENCH_SMOKE").is_ok();
    let mut layers = vgg_s_layers();
    if smoke {
        // First (stem) and last (largest, conv5_3 at 512x512x3x3) layers only.
        let last = layers.len() - 1;
        layers = vec![layers.remove(last), layers.remove(0)];
        layers.reverse();
    }

    // Guard baselines are measured FIRST, before the criterion sweep
    // heats the machine, so they match the state a standalone
    // `HD_BENCH_GUARD=1` run sees. The guard layer is the largest by
    // weight count (first on ties, matching the loop below).
    let guard_baselines = if smoke {
        None
    } else {
        let mut g = &layers[0];
        for l in &layers {
            if l.weights.len() > g.weights.len() {
                g = l;
            }
        }
        Some((g.name.clone(), guard_measure(&g.name)))
    };

    let mean = |ts: &[f64]| ts.iter().sum::<f64>() / ts.len() as f64;
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
            let gemm_cfg = Conv2dCfg::new(layer.stride, hd_tensor::conv::Padding::Same)
                .with_backend(ConvBackend::Im2colGemm);
            let (qx, qp) = quantize_workload(&layer.input, &weights, &gemm_cfg);
            let mut outputs: Vec<(bool, Tensor3, Vec<i8>)> = Vec::new();

            for simd_on in [true, false] {
                simd::set_enabled(simd_on);
                let tag = if simd_on { "simd" } else { "scalar" };
                let (g_out, g_times) =
                    timed(c, &format!("{}_{variant}_gemm_{tag}", layer.name), || {
                        conv2d(&layer.input, &weights, None, &gemm_cfg)
                    });
                let (q_out, q_times) =
                    timed(c, &format!("{}_{variant}_int8_{tag}", layer.name), || {
                        qconv2d(&qx, &qp, &gemm_cfg)
                    });
                let (g_ms, q_ms) = (mean(&g_times) * 1e3, mean(&q_times) * 1e3);
                println!(
                    "{} [{variant}, {tag}]: gemm {g_ms:.3} ms, int8 {q_ms:.3} ms",
                    layer.name
                );
                rows.push(format!(
                    "    {{ \"layer\": \"{}\", \"weights\": \"{variant}\", \"simd\": {simd_on}, \
                     \"gemm_ms\": {g_ms:.3}, \"int8_ms\": {q_ms:.3} }}",
                    layer.name
                ));
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
            let tag = if simd_on { "simd" } else { "scalar" };
            let (out, times) = timed(c, &format!("{}_gemm_kernel_{tag}", layer.name), || {
                let mut cmat = vec![0.0f32; m * n];
                gemm(m, n, k, &a, k, &b, n, &mut cmat, n, &blk);
                cmat
            });
            kernel_ms[slot] = mean(&times) * 1e3;
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
        kernel_rows.push(format!(
            "    {{ \"layer\": \"{}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \
             \"simd_ms\": {:.3}, \"scalar_ms\": {:.3}, \"speedup\": {ratio:.3} }}",
            layer.name, kernel_ms[0], kernel_ms[1]
        ));
    }

    let geomean =
        (gemm_ratios.iter().map(|r| r.ln()).sum::<f64>() / gemm_ratios.len() as f64).exp();
    println!(
        "SIMD-over-scalar GEMM geomean {geomean:.2}x (ISA {})",
        simd::active_isa()
    );
    if smoke {
        // Don't clobber the checked-in full-run artifact with smoke numbers.
        println!("smoke mode: skipping BENCH_conv_gemm.json");
        return;
    }
    let (guard_layer, (guard_gemm_ms, guard_int8_ms)) =
        guard_baselines.expect("measured before the sweep");
    let json = format!(
        "{{\n  \"bench\": \"fig_conv_backend\",\n  \"victim\": \"VGG-S conv layer shapes\",\n  \
         \"smoke\": {smoke},\n  \"isa\": \"{isa}\",\n  \"simd_available\": {avail},\n  \
         \"gemm_simd_speedup_geomean\": {geomean:.3},\n  \
         \"guard_layer\": \"{guard_layer}\",\n  \
         \"guard_gemm_ms\": {guard_gemm_ms:.3},\n  \"guard_int8_ms\": {guard_int8_ms:.3},\n  \
         \"results_bit_identical\": true,\n  \"gemm_kernel\": [\n{}\n  ],\n  \
         \"layers\": [\n{}\n  ]\n}}\n",
        kernel_rows.join(",\n"),
        rows.join(",\n"),
        isa = simd::active_isa(),
        avail = simd::simd_available(),
    );
    std::fs::write(BENCH_JSON, json).expect("write BENCH_conv_gemm.json");
    println!("wrote {BENCH_JSON} (SIMD GEMM geomean {geomean:.2}x)");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(2);
    targets = bench
}
criterion_main!(benches);

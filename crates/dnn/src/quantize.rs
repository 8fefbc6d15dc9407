//! Post-training quantization (PTQ) to INT8 and the quantized forward
//! path.
//!
//! [`ptq`] folds inference-mode batch norm into the convolution weights
//! (`w' = gamma * w`, `b' = gamma * b + beta` — the standard deployment
//! transform, so the INT8 network has no separate BN step), calibrates
//! per-node activation ranges on a set of calibration images, and
//! quantizes weights symmetrically per output channel
//! ([`hd_tensor::QTensor4`]). [`Network::forward_quantized`] then runs the
//! whole graph in the integer domain — i8 activations, i32 accumulators,
//! one deterministic requantize per output element — and reports a
//! [`ForwardTrace`] whose values are the *dequantized* INT8 activations,
//! so every downstream consumer (accelerator timing model, attack code,
//! experiments) sees exactly what an INT8 accelerator would compute.
//!
//! Zero-skipping survives quantization by construction: activation zero
//! points are exact ([`QuantParams::from_range`] widens the calibrated
//! range to include 0.0), so an INT8 ReLU zero dequantizes to bit-exact
//! `0.0` and the trace's nnz accounting matches what the sparse
//! accelerator's datapath would skip. Because BN is folded, the quantized
//! trace has no `pre_bn` / `pre_relu` intermediates — the INT8 datapath
//! never materializes them, and the attack must work from the fused
//! outputs alone.

use crate::graph::{ForwardTrace, Network, NodeTrace, Op, Params, Value};
use hd_tensor::conv::Conv2dCfg;
use hd_tensor::dwconv::dwconv2d;
use hd_tensor::pool::PoolKind;
use hd_tensor::qconv::{qconv2d, requantize, QConvParams};
use hd_tensor::{QTensor3, QTensor4, QuantParams, Shape3, Tensor3};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Quantized parameters of a fully connected layer: symmetric per-output-
/// row weights, i32 bias in accumulator units, and per-row requantization
/// multipliers (same contract as [`QConvParams`]).
#[derive(Clone, Debug)]
pub struct QLinearParams {
    /// Row-major `out_features x in_features` quantized weights.
    pub w_q: Vec<i8>,
    /// Bias in accumulator units: `round(b[o] / (s_in * s_w[o]))`.
    pub bias_q: Vec<i32>,
    /// Per-row requantization multiplier `s_in * s_w[o] / s_out`.
    pub multipliers: Vec<f32>,
    /// Output activation quantization.
    pub out_qp: QuantParams,
    /// Input feature count.
    pub in_features: usize,
    /// Output feature count.
    pub out_features: usize,
}

/// Quantized parameters of one weighted node.
#[derive(Clone, Debug)]
pub enum QLayer {
    /// Standard convolution with BN folded into weights and bias.
    Conv(QConvParams),
    /// Depthwise convolution: kept in f32 (dequantize -> dwconv + BN +
    /// ReLU -> requantize). Depthwise layers are a tiny fraction of the
    /// MACs and real INT8 deployments frequently leave them in higher
    /// precision for accuracy.
    DwConv {
        /// f32 weights (`C x 1 x R x S`).
        w: hd_tensor::Tensor4,
        /// Inference-mode batch norm, if present.
        bn: Option<hd_tensor::norm::Affine>,
    },
    /// Fully connected layer.
    Linear(QLinearParams),
}

/// An INT8-quantized network: per-node activation quantization plus
/// quantized parameters for every weighted node. Produced by [`ptq`];
/// consumed by [`Network::forward_quantized`].
#[derive(Clone, Debug)]
pub struct QuantizedNet {
    /// Effective output quantization of each node. Calibrated for nodes
    /// that compute (conv, dwconv, add, linear, input); propagated from
    /// the producer for shape-only nodes (pool, flatten, global-avg-pool)
    /// so those stay in the integer domain without an extra requantize.
    pub act_qp: Vec<QuantParams>,
    /// `layers[id]` is `Some` iff node `id` carries weights.
    pub layers: Vec<Option<QLayer>>,
}

impl QuantizedNet {
    /// Total non-zero quantized weight count (INT8 sparse footprint).
    pub fn sparse_weight_count(&self) -> usize {
        self.layers
            .iter()
            .flatten()
            .map(|l| match l {
                QLayer::Conv(p) => p.weight.nnz(),
                QLayer::DwConv { w, .. } => w.nnz(),
                QLayer::Linear(p) => p.w_q.iter().filter(|&&q| q != 0).count(),
            })
            .sum()
    }
}

/// Deterministic calibration set: `n` images uniform in `[-1, 1]`.
///
/// Uniform noise exercises the full input range, which is what range
/// calibration needs; PTQ quality on real data is dominated by the
/// activation ranges, and those are driven by the weights, not by input
/// image structure.
pub fn calibration_images(shape: Shape3, n: usize, seed: u64) -> Vec<Tensor3> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut t = Tensor3::zeros(shape.c, shape.h, shape.w);
            t.fill_uniform(&mut rng, -1.0, 1.0);
            t
        })
        .collect()
}

/// Post-training quantization of `(net, params)` calibrated on `calib`.
///
/// # Panics
///
/// Panics if `calib` is empty or if `params` is missing parameters for a
/// weighted node (same condition as [`Network::forward`]).
pub fn ptq(net: &Network, params: &Params, calib: &[Tensor3]) -> QuantizedNet {
    assert!(
        !calib.is_empty(),
        "PTQ needs at least one calibration image"
    );
    // Pass 1: per-node min/max of the f32 activations over the
    // calibration set.
    let mut lo = vec![f32::MAX; net.len()];
    let mut hi = vec![f32::MIN; net.len()];
    for img in calib {
        let trace = net.forward(params, img);
        for (id, t) in trace.traces.iter().enumerate() {
            for &v in t.out.flat() {
                lo[id] = lo[id].min(v);
                hi[id] = hi[id].max(v);
            }
        }
    }
    // Pass 2: effective output quantization per node. Shape-only nodes
    // inherit the producer's parameters so max pooling stays exact and
    // no spurious requantization error is introduced.
    let mut act_qp = vec![QuantParams::from_range(0.0, 0.0); net.len()];
    for (id, node) in net.nodes().iter().enumerate() {
        act_qp[id] = match &node.op {
            Op::Pool { .. } | Op::Flatten | Op::GlobalAvgPool => act_qp[node.inputs[0]],
            _ => QuantParams::from_range(lo[id], hi[id]),
        };
    }
    // Pass 3: quantize weights against the calibrated activation scales.
    let mut layers: Vec<Option<QLayer>> = Vec::with_capacity(net.len());
    for (id, node) in net.nodes().iter().enumerate() {
        let layer = match &node.op {
            Op::Conv(_) => {
                let lp = params.conv(id);
                let s_in = act_qp[node.inputs[0]].scale;
                // Fold BN: w' = gamma * w, b' = gamma * b + beta. A
                // pruned (exactly zero) weight stays exactly zero.
                let k = lp.w.k();
                let per = lp.w.c() * lp.w.r() * lp.w.s();
                let mut folded = lp.w.clone();
                let mut bias = vec![0.0f32; k];
                for ko in 0..k {
                    let (gamma, beta) = match lp.bn {
                        Some(bn) => (bn.scale()[ko], bn.shift()[ko]),
                        None => (1.0, 0.0),
                    };
                    let b = lp.b.as_ref().map_or(0.0, |b| b[ko]);
                    for w in &mut folded.data_mut()[ko * per..(ko + 1) * per] {
                        *w *= gamma;
                    }
                    bias[ko] = gamma * b + beta;
                }
                let weight = QTensor4::quantize(&folded);
                let out_qp = act_qp[id];
                let bias_q: Vec<i32> = bias
                    .iter()
                    .zip(weight.scales())
                    .map(|(&b, &sw)| (b / (s_in * sw)).round() as i32)
                    .collect();
                let multipliers: Vec<f32> = weight
                    .scales()
                    .iter()
                    .map(|&sw| s_in * sw / out_qp.scale)
                    .collect();
                Some(QLayer::Conv(QConvParams {
                    weight,
                    bias_q,
                    multipliers,
                    out_qp,
                }))
            }
            Op::DwConv { .. } => {
                let lp = params.dwconv(id);
                Some(QLayer::DwConv {
                    w: lp.w.clone(),
                    bn: lp.bn.clone(),
                })
            }
            Op::Linear { .. } => {
                let lp = params.linear(id);
                let s_in = act_qp[node.inputs[0]].scale;
                let out_qp = act_qp[id];
                let (nin, nout) = (lp.in_features, lp.out_features);
                let mut w_q = Vec::with_capacity(nout * nin);
                let mut scales = Vec::with_capacity(nout);
                for o in 0..nout {
                    let row = &lp.w[o * nin..(o + 1) * nin];
                    let maxabs = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                    let qp = QuantParams::symmetric(maxabs);
                    scales.push(qp.scale);
                    w_q.extend(row.iter().map(|&v| qp.quantize(v)));
                }
                let bias_q: Vec<i32> =
                    lp.b.iter()
                        .zip(&scales)
                        .map(|(&b, &sw)| (b / (s_in * sw)).round() as i32)
                        .collect();
                let multipliers: Vec<f32> =
                    scales.iter().map(|&sw| s_in * sw / out_qp.scale).collect();
                Some(QLayer::Linear(QLinearParams {
                    w_q,
                    bias_q,
                    multipliers,
                    out_qp,
                    in_features: nin,
                    out_features: nout,
                }))
            }
            _ => None,
        };
        layers.push(layer);
    }
    QuantizedNet { act_qp, layers }
}

/// A quantized value flowing along a graph edge during
/// [`Network::forward_quantized`].
enum QValue {
    Map(QTensor3),
    Vector(Vec<i8>, QuantParams),
}

impl QValue {
    fn map(&self) -> &QTensor3 {
        match self {
            QValue::Map(t) => t,
            #[expect(
                clippy::panic,
                reason = "internal: shape inference guarantees the variant"
            )]
            QValue::Vector(..) => panic!("expected quantized map, found vector"),
        }
    }

    fn vector(&self) -> (&[i8], QuantParams) {
        match self {
            QValue::Vector(v, qp) => (v, *qp),
            #[expect(
                clippy::panic,
                reason = "internal: shape inference guarantees the variant"
            )]
            QValue::Map(_) => panic!("expected quantized vector, found map"),
        }
    }

    fn dequantize(&self) -> Value {
        match self {
            QValue::Map(t) => Value::Map(t.dequantize()),
            QValue::Vector(v, qp) => Value::Vector(v.iter().map(|&q| qp.dequantize(q)).collect()),
        }
    }
}

/// Integer-domain non-overlapping pooling, staying in the input's
/// quantization. Max pooling is exact (max is monotone in `q`); average
/// pooling rounds the zero-point-centered window mean once per output.
fn qpool2d(input: &QTensor3, factor: usize, kind: PoolKind) -> QTensor3 {
    assert!(factor > 0, "pool factor must be positive");
    if factor == 1 {
        return input.clone();
    }
    let (c, h, w) = (input.c(), input.h(), input.w());
    let (out_h, out_w) = (h / factor, w / factor);
    let zp = input.qp.zero_point;
    let mut out = vec![0i8; c * out_h * out_w];
    for ch in 0..c {
        let plane = &input.data()[ch * h * w..(ch + 1) * h * w];
        for p in 0..out_h {
            for q in 0..out_w {
                let mut best = i32::MIN;
                let mut sum = 0i32;
                for dy in 0..factor {
                    for dx in 0..factor {
                        let v = plane[(p * factor + dy) * w + (q * factor + dx)] as i32;
                        best = best.max(v);
                        sum += v - zp;
                    }
                }
                let v = match kind {
                    PoolKind::Max => best,
                    PoolKind::Avg => zp + (sum as f32 / (factor * factor) as f32).round() as i32,
                };
                out[(ch * out_h + p) * out_w + q] = v.clamp(-128, 127) as i8;
            }
        }
    }
    QTensor3::from_raw(c, out_h, out_w, out, input.qp)
}

impl Network {
    /// Runs the INT8-quantized network.
    ///
    /// All convolutions, linear layers, pooling, and residual joins
    /// execute in the integer domain (depthwise convolutions fall back to
    /// f32, see [`QLayer::DwConv`]). The returned [`ForwardTrace`] holds
    /// the *dequantized* activations; `pre_bn` / `pre_relu` are `None`
    /// because BN is folded into the quantized weights.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match, or if `qnet` was built
    /// for a different topology.
    pub fn forward_quantized(&self, qnet: &QuantizedNet, input: &Tensor3) -> ForwardTrace {
        assert_eq!(
            input.shape(),
            self.input_shape(),
            "input shape {} does not match network input {}",
            input.shape(),
            self.input_shape()
        );
        assert_eq!(
            qnet.act_qp.len(),
            self.len(),
            "quantized net topology mismatch"
        );
        let mut values: Vec<QValue> = Vec::with_capacity(self.len());
        let mut traces: Vec<NodeTrace> = Vec::with_capacity(self.len());
        for (id, node) in self.nodes().iter().enumerate() {
            let value = match &node.op {
                Op::Input => QValue::Map(QTensor3::quantize(input, qnet.act_qp[id])),
                Op::Conv(spec) => {
                    let x = values[node.inputs[0]].map();
                    let p = match &qnet.layers[id] {
                        Some(QLayer::Conv(p)) => p,
                        #[expect(
                            clippy::panic,
                            reason = "topology mismatch is a caller bug, documented above"
                        )]
                        other => panic!("node {id} is not a quantized conv: {other:?}"),
                    };
                    let cfg = Conv2dCfg::new(spec.stride, spec.padding);
                    let mut out = qconv2d(x, p, &cfg);
                    if spec.relu {
                        qrelu_inplace(&mut out);
                    }
                    QValue::Map(out)
                }
                Op::DwConv {
                    stride,
                    relu: do_relu,
                    ..
                } => {
                    let x = values[node.inputs[0]].map();
                    let (w, bn) = match &qnet.layers[id] {
                        Some(QLayer::DwConv { w, bn }) => (w, bn),
                        #[expect(
                            clippy::panic,
                            reason = "topology mismatch is a caller bug, documented above"
                        )]
                        other => panic!("node {id} is not a quantized dwconv: {other:?}"),
                    };
                    let cfg = Conv2dCfg::new(*stride, hd_tensor::conv::Padding::Same);
                    let mut out = dwconv2d(&x.dequantize(), w, &cfg);
                    if let Some(bn) = bn {
                        out = bn.apply(&out);
                    }
                    if *do_relu {
                        out.relu_inplace();
                    }
                    QValue::Map(QTensor3::quantize(&out, qnet.act_qp[id]))
                }
                Op::Pool { factor, kind } => {
                    QValue::Map(qpool2d(values[node.inputs[0]].map(), *factor, *kind))
                }
                Op::Add { relu: do_relu } => {
                    let a = values[node.inputs[0]].map();
                    let b = values[node.inputs[1]].map();
                    let out_qp = qnet.act_qp[id];
                    let (zpa, zpb, zpo) = (a.qp.zero_point, b.qp.zero_point, out_qp.zero_point);
                    let ma = a.qp.scale / out_qp.scale;
                    let mb = b.qp.scale / out_qp.scale;
                    let zp_i8 = out_qp.zero_point.clamp(-128, 127) as i8;
                    let data: Vec<i8> = a
                        .data()
                        .iter()
                        .zip(b.data())
                        .map(|(&qa, &qb)| {
                            let real =
                                ma * (qa as i32 - zpa) as f32 + mb * (qb as i32 - zpb) as f32;
                            let q = (zpo as f32 + real.round()).clamp(-128.0, 127.0) as i8;
                            if *do_relu {
                                q.max(zp_i8)
                            } else {
                                q
                            }
                        })
                        .collect();
                    QValue::Map(QTensor3::from_raw(a.c(), a.h(), a.w(), data, out_qp))
                }
                Op::GlobalAvgPool => {
                    let x = values[node.inputs[0]].map();
                    let area = (x.h() * x.w()).max(1) as f32;
                    let zp = x.qp.zero_point;
                    let plane = x.h() * x.w();
                    let v: Vec<i8> = (0..x.c())
                        .map(|c| {
                            let sum: i32 = x.data()[c * plane..(c + 1) * plane]
                                .iter()
                                .map(|&q| q as i32 - zp)
                                .sum();
                            (zp + (sum as f32 / area).round() as i32).clamp(-128, 127) as i8
                        })
                        .collect();
                    QValue::Vector(v, x.qp)
                }
                Op::Flatten => {
                    let x = values[node.inputs[0]].map();
                    QValue::Vector(x.data().to_vec(), x.qp)
                }
                Op::Linear { relu: do_relu, .. } => {
                    let (x, x_qp) = values[node.inputs[0]].vector();
                    let p = match &qnet.layers[id] {
                        Some(QLayer::Linear(p)) => p,
                        #[expect(
                            clippy::panic,
                            reason = "topology mismatch is a caller bug, documented above"
                        )]
                        other => panic!("node {id} is not a quantized linear: {other:?}"),
                    };
                    assert_eq!(p.in_features, x.len(), "linear input size mismatch");
                    let zp_in = x_qp.zero_point;
                    let zp_out = p.out_qp.zero_point;
                    let zp_i8 = zp_out.clamp(-128, 127) as i8;
                    let mut y = vec![0i8; p.out_features];
                    for (o, yo) in y.iter_mut().enumerate() {
                        let row = &p.w_q[o * p.in_features..(o + 1) * p.in_features];
                        let mut acc = p.bias_q[o];
                        for (&wq, &xq) in row.iter().zip(x) {
                            let wv = wq as i32;
                            if wv != 0 {
                                acc += wv * (xq as i32 - zp_in);
                            }
                        }
                        let q = requantize(acc, p.multipliers[o], zp_out);
                        *yo = if *do_relu { q.max(zp_i8) } else { q };
                    }
                    QValue::Vector(y, p.out_qp)
                }
            };
            traces.push(NodeTrace {
                out: value.dequantize(),
                pre_bn: None,
                pre_relu: None,
            });
            values.push(value);
        }
        ForwardTrace { traces }
    }
}

/// Integer-domain ReLU: clamps below the zero point (which dequantizes to
/// exactly 0.0).
fn qrelu_inplace(t: &mut QTensor3) {
    let zp = t.zero_point_i8();
    let qp = t.qp;
    let (c, h, w) = (t.c(), t.h(), t.w());
    let data: Vec<i8> = t.data().iter().map(|&q| q.max(zp)).collect();
    *t = QTensor3::from_raw(c, h, w, data, qp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkBuilder;
    use crate::prune;

    fn small_net() -> (Network, Params) {
        let mut b = NetworkBuilder::new(3, 8, 8);
        let x = b.input();
        let x = b.conv(x, 8, 3, 1);
        let x = b.max_pool(x, 2);
        let x = b.conv(x, 8, 3, 1);
        let x = b.flatten(x);
        let x = b.linear_opts(x, 16, true);
        let _ = b.linear(x, 10);
        let net = b.build();
        let params = Params::init(&net, 7);
        (net, params)
    }

    #[test]
    fn quantized_forward_tracks_f32_forward() {
        let (net, mut params) = small_net();
        prune::magnitude_prune_global(&net, &params, 0.6, 4).apply(&mut params);
        let calib = calibration_images(net.input_shape(), 8, 11);
        let qnet = ptq(&net, &params, &calib);
        let mut agree = 0;
        let eval = calibration_images(net.input_shape(), 16, 99);
        for img in &eval {
            let f = net.forward(&params, img);
            let q = net.forward_quantized(&qnet, img);
            assert_eq!(f.logits().len(), q.logits().len());
            if f.predicted_class() == q.predicted_class() {
                agree += 1;
            }
            // Logits stay within a small multiple of the output step.
            let step = qnet.act_qp[net.len() - 1].scale;
            for (a, b) in f.logits().iter().zip(q.logits()) {
                assert!(
                    (a - b).abs() < step * 16.0 + 0.5,
                    "logit divergence {a} vs {b} (step {step})"
                );
            }
        }
        assert!(agree >= 12, "INT8 top-1 agreement too low: {agree}/16");
    }

    #[test]
    fn relu_zeros_are_exact_in_the_dequantized_trace() {
        let (net, params) = small_net();
        let calib = calibration_images(net.input_shape(), 4, 2);
        let qnet = ptq(&net, &params, &calib);
        let trace = net.forward_quantized(&qnet, &calib[0]);
        // Node 1 is CONV+BN+ReLU: its dequantized output must contain
        // exact zeros (ReLU clamps to the zero point) and no negatives.
        let out = trace.traces[1].out.flat();
        assert!(out.iter().all(|&v| v >= 0.0));
        assert!(
            out.iter().any(|&v| v.to_bits() == 0.0f32.to_bits()),
            "expected exact 0.0 values after integer-domain ReLU"
        );
        // BN is folded: no pre-BN / pre-ReLU intermediates exist.
        assert!(trace.traces[1].pre_bn.is_none());
        assert!(trace.traces[1].pre_relu.is_none());
    }

    #[test]
    fn quantized_forward_is_deterministic_across_simd_modes() {
        let (net, params) = small_net();
        let calib = calibration_images(net.input_shape(), 2, 5);
        let qnet = ptq(&net, &params, &calib);
        hd_tensor::simd::set_enabled(false);
        let a = net.forward_quantized(&qnet, &calib[0]);
        hd_tensor::simd::set_enabled(true);
        let b = net.forward_quantized(&qnet, &calib[0]);
        hd_tensor::simd::set_enabled(true);
        for (ta, tb) in a.traces.iter().zip(&b.traces) {
            let (fa, fb) = (ta.out.flat(), tb.out.flat());
            assert_eq!(fa.len(), fb.len());
            for (x, y) in fa.iter().zip(fb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn residual_add_and_gap_run_in_integer_domain() {
        let mut b = NetworkBuilder::new(3, 8, 8);
        let x = b.input();
        let a = b.conv(x, 4, 3, 1);
        let c = b.conv(a, 4, 3, 1);
        let j = b.add(a, c);
        let g = b.global_avg_pool(j);
        let _ = b.linear(g, 5);
        let net = b.build();
        let params = Params::init(&net, 3);
        let calib = calibration_images(net.input_shape(), 4, 13);
        let qnet = ptq(&net, &params, &calib);
        let f = net.forward(&params, &calib[0]);
        let q = net.forward_quantized(&qnet, &calib[0]);
        assert_eq!(f.logits().len(), q.logits().len());
        let worst = f
            .logits()
            .iter()
            .zip(q.logits())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        let span = f
            .logits()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()))
            .max(1e-3);
        assert!(worst < span, "residual INT8 error {worst} vs span {span}");
    }

    #[test]
    fn pruned_weights_stay_pruned_after_ptq() {
        let (net, mut params) = small_net();
        prune::magnitude_prune_global(&net, &params, 0.8, 4).apply(&mut params);
        let dense_nnz = net.sparse_weight_count(&params);
        let calib = calibration_images(net.input_shape(), 2, 1);
        let qnet = ptq(&net, &params, &calib);
        // Symmetric quantization maps f32 zeros to INT8 zeros; small
        // weights may additionally round to zero, so nnz can only drop.
        assert!(qnet.sparse_weight_count() <= dense_nnz);
        assert!(qnet.sparse_weight_count() > 0);
    }

    #[test]
    fn calibration_images_are_seeded() {
        let s = Shape3::new(3, 4, 4);
        let a = calibration_images(s, 3, 42);
        let b = calibration_images(s, 3, 42);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.data(), y.data());
        }
        assert!(a[0].data().iter().all(|v| (-1.0..=1.0).contains(v)));
    }
}

//! Reverse-mode differentiation, loss functions, and SGD training.
//!
//! The backward pass walks the graph in reverse topological order,
//! accumulating gradients at every node output. It produces both parameter
//! gradients (for training) and the gradient with respect to the network
//! input (for FGSM/BIM adversarial-example generation in `hd-adversarial`).

use crate::graph::{ForwardTrace, LayerParams, Network, Op, Params};
use hd_tensor::conv::{conv2d_bias_grad, conv2d_input_grad, conv2d_weight_grad, Conv2dCfg};
use hd_tensor::dwconv::{dwconv2d_input_grad, dwconv2d_weight_grad};
use hd_tensor::norm::relu_backward;
use hd_tensor::pool::pool2d_backward;
use hd_tensor::{Tensor3, Tensor4};

/// Gradients for one weighted node.
#[derive(Clone, Debug)]
pub enum LayerGrads {
    /// Conv gradients.
    Conv {
        /// dL/dW.
        w: Tensor4,
        /// dL/db, if the layer has a bias.
        b: Option<Vec<f32>>,
        /// dL/d(scale), dL/d(shift) for batch norm, if present.
        bn: Option<(Vec<f32>, Vec<f32>)>,
    },
    /// Depthwise conv gradients.
    DwConv {
        /// dL/dW.
        w: Tensor4,
        /// Batch-norm gradients, if present.
        bn: Option<(Vec<f32>, Vec<f32>)>,
    },
    /// Linear gradients.
    Linear {
        /// dL/dW (row-major).
        w: Vec<f32>,
        /// dL/db.
        b: Vec<f32>,
    },
}

/// All gradients produced by one backward pass.
#[derive(Clone, Debug)]
pub struct Grads {
    /// `layers[id]` is `Some` iff node `id` carries weights.
    pub layers: Vec<Option<LayerGrads>>,
    /// Gradient of the loss with respect to the network input.
    pub input: Tensor3,
}

/// Runs a backward pass from a gradient on the final node's output.
///
/// # Panics
///
/// Panics if `grad_output` length does not match the final node output.
pub fn backward(
    net: &Network,
    params: &Params,
    trace: &ForwardTrace,
    grad_output: &[f32],
) -> Grads {
    let n = net.len();
    let last = n - 1;
    assert_eq!(
        grad_output.len(),
        net.value_shape(last).len(),
        "grad_output length mismatch"
    );

    // Per-node output gradients, accumulated from consumers.
    let mut grads: Vec<Option<Vec<f32>>> = vec![None; n];
    grads[last] = Some(grad_output.to_vec());

    let mut layer_grads: Vec<Option<LayerGrads>> = vec![None; n];
    let mut input_grad: Option<Tensor3> = None;

    let accumulate = |slot: &mut Option<Vec<f32>>, incoming: &[f32]| match slot {
        Some(existing) => {
            for (e, i) in existing.iter_mut().zip(incoming) {
                *e += i;
            }
        }
        None => *slot = Some(incoming.to_vec()),
    };

    for id in (0..n).rev() {
        let Some(g_flat) = grads[id].take() else {
            continue; // node does not influence the loss
        };
        let node = &net.nodes()[id];
        match &node.op {
            Op::Input => {
                let s = net.input_shape();
                input_grad = Some(match input_grad {
                    Some(acc) => acc.add(&Tensor3::from_vec(s.c, s.h, s.w, g_flat)),
                    None => Tensor3::from_vec(s.c, s.h, s.w, g_flat),
                });
            }
            Op::Conv(spec) => {
                let out_shape = net.value_shape(id).as_map().unwrap(); // hd-lint: allow(no-panic) -- this op produces a map by Network construction
                let mut g = Tensor3::from_vec(out_shape.c, out_shape.h, out_shape.w, g_flat);
                let tr = &trace.traces[id];
                if spec.relu {
                    g = relu_backward(&g, tr.pre_relu.as_ref().unwrap().map()); // hd-lint: allow(no-panic) -- forward() records pre_relu for every ReLU-bearing node
                }
                let lp = params.conv(id);
                let mut bn_grads = None;
                if let Some(bn) = lp.bn {
                    let (gi, gs, gb) = bn.backward(&g, tr.pre_bn.as_ref().unwrap()); // hd-lint: allow(no-panic) -- forward() records pre_bn for every BN-bearing node
                    g = gi;
                    bn_grads = Some((gs, gb));
                }
                let x = trace.traces[node.inputs[0]].out.map();
                let cfg = Conv2dCfg::new(spec.stride, spec.padding);
                let gw = conv2d_weight_grad(&g, x, (spec.kernel, spec.kernel), &cfg);
                let gb = spec.bias.then(|| conv2d_bias_grad(&g));
                let gx = conv2d_input_grad(&g, lp.w, (x.c(), x.h(), x.w()), &cfg);
                layer_grads[id] = Some(LayerGrads::Conv {
                    w: gw,
                    b: gb,
                    bn: bn_grads,
                });
                accumulate(&mut grads[node.inputs[0]], gx.data());
            }
            Op::DwConv {
                kernel,
                stride,
                relu,
                ..
            } => {
                let out_shape = net.value_shape(id).as_map().unwrap(); // hd-lint: allow(no-panic) -- this op produces a map by Network construction
                let mut g = Tensor3::from_vec(out_shape.c, out_shape.h, out_shape.w, g_flat);
                let tr = &trace.traces[id];
                if *relu {
                    g = relu_backward(&g, tr.pre_relu.as_ref().unwrap().map()); // hd-lint: allow(no-panic) -- forward() records pre_relu for every ReLU-bearing node
                }
                let lp = params.dwconv(id);
                let mut bn_grads = None;
                if let Some(bn) = lp.bn {
                    let (gi, gs, gb) = bn.backward(&g, tr.pre_bn.as_ref().unwrap()); // hd-lint: allow(no-panic) -- forward() records pre_bn for every BN-bearing node
                    g = gi;
                    bn_grads = Some((gs, gb));
                }
                let x = trace.traces[node.inputs[0]].out.map();
                let cfg = Conv2dCfg::new(*stride, hd_tensor::conv::Padding::Same);
                let gw = dwconv2d_weight_grad(&g, x, (*kernel, *kernel), &cfg);
                let gx = dwconv2d_input_grad(&g, lp.w, (x.c(), x.h(), x.w()), &cfg);
                layer_grads[id] = Some(LayerGrads::DwConv {
                    w: gw,
                    bn: bn_grads,
                });
                accumulate(&mut grads[node.inputs[0]], gx.data());
            }
            Op::Pool { factor, kind } => {
                let out_shape = net.value_shape(id).as_map().unwrap(); // hd-lint: allow(no-panic) -- this op produces a map by Network construction
                let g = Tensor3::from_vec(out_shape.c, out_shape.h, out_shape.w, g_flat);
                let x = trace.traces[node.inputs[0]].out.map();
                let gx = pool2d_backward(&g, x, *factor, *kind);
                accumulate(&mut grads[node.inputs[0]], gx.data());
            }
            Op::Add { relu } => {
                let out_shape = net.value_shape(id).as_map().unwrap(); // hd-lint: allow(no-panic) -- this op produces a map by Network construction
                let mut g = Tensor3::from_vec(out_shape.c, out_shape.h, out_shape.w, g_flat);
                if *relu {
                    let tr = &trace.traces[id];
                    g = relu_backward(&g, tr.pre_relu.as_ref().unwrap().map()); // hd-lint: allow(no-panic) -- forward() records pre_relu for every ReLU-bearing node
                }
                accumulate(&mut grads[node.inputs[0]], g.data());
                accumulate(&mut grads[node.inputs[1]], g.data());
            }
            Op::GlobalAvgPool => {
                let in_shape = net.value_shape(node.inputs[0]).as_map().unwrap(); // hd-lint: allow(no-panic) -- this op produces a map by Network construction
                let area = (in_shape.h * in_shape.w) as f32;
                let mut gx = Tensor3::zeros(in_shape.c, in_shape.h, in_shape.w);
                #[allow(clippy::needless_range_loop)] // index-parallel numeric kernel
                for c in 0..in_shape.c {
                    let share = g_flat[c] / area;
                    for y in 0..in_shape.h {
                        for x in 0..in_shape.w {
                            gx.set(c, y, x, share);
                        }
                    }
                }
                accumulate(&mut grads[node.inputs[0]], gx.data());
            }
            Op::Flatten => {
                accumulate(&mut grads[node.inputs[0]], &g_flat);
            }
            Op::Linear { relu, .. } => {
                let tr = &trace.traces[id];
                let mut g = g_flat;
                if *relu {
                    let pre = tr.pre_relu.as_ref().unwrap().vector(); // hd-lint: allow(no-panic) -- forward() records pre_relu for every ReLU-bearing node
                    for (gv, &p) in g.iter_mut().zip(pre) {
                        if p <= 0.0 {
                            *gv = 0.0;
                        }
                    }
                }
                let lp = params.linear(id);
                let x = trace.traces[node.inputs[0]].out.vector();
                let mut gw = vec![0.0f32; lp.w.len()];
                let mut gx = vec![0.0f32; lp.in_features];
                for o in 0..lp.out_features {
                    let go = g[o];
                    if go == 0.0 {
                        continue;
                    }
                    let row = &lp.w[o * lp.in_features..(o + 1) * lp.in_features];
                    let grow = &mut gw[o * lp.in_features..(o + 1) * lp.in_features];
                    for i in 0..lp.in_features {
                        grow[i] = go * x[i];
                        gx[i] += go * row[i];
                    }
                }
                layer_grads[id] = Some(LayerGrads::Linear { w: gw, b: g });
                accumulate(&mut grads[node.inputs[0]], &gx);
            }
        }
    }

    Grads {
        layers: layer_grads,
        input: input_grad.unwrap_or_else(|| {
            let s = net.input_shape();
            Tensor3::zeros(s.c, s.h, s.w)
        }),
    }
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|l| (l - max).exp()).collect();
    // hd-lint: allow(float-reduction-order) -- slice iteration is left-to-right by the language, so this accumulation order is already fixed
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

/// Softmax cross-entropy loss and its gradient with respect to the logits.
///
/// # Panics
///
/// Panics if `target >= logits.len()`.
pub fn cross_entropy(logits: &[f32], target: usize) -> (f32, Vec<f32>) {
    assert!(target < logits.len(), "target class out of range");
    let probs = softmax(logits);
    let loss = -(probs[target].max(1e-12)).ln();
    let mut grad = probs;
    grad[target] -= 1.0;
    (loss, grad)
}

/// SGD with momentum and optional weight decay and pruning masks.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    velocity: Vec<Option<LayerVelocity>>,
}

#[derive(Clone, Debug)]
enum LayerVelocity {
    Conv {
        w: Vec<f32>,
        b: Vec<f32>,
        bn: (Vec<f32>, Vec<f32>),
    },
    Linear {
        w: Vec<f32>,
        b: Vec<f32>,
    },
}

impl Sgd {
    /// Creates an optimizer for the given network.
    pub fn new(net: &Network, lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: vec![None; net.len()],
        }
    }

    /// Applies one gradient step, respecting an optional pruning mask
    /// (pruned weights stay exactly zero).
    pub fn step(&mut self, params: &mut Params, grads: &Grads, mask: Option<&crate::prune::Mask>) {
        for (id, lg) in grads.layers.iter().enumerate() {
            let Some(lg) = lg else { continue };
            match (&mut params.layers[id], lg) {
                (
                    Some(LayerParams::Conv { w, b, bn }),
                    LayerGrads::Conv {
                        w: gw,
                        b: gb,
                        bn: gbn,
                    },
                ) => {
                    let vel = self.velocity[id].get_or_insert_with(|| LayerVelocity::Conv {
                        w: vec![0.0; w.len()],
                        b: vec![0.0; b.as_ref().map_or(0, |b| b.len())],
                        bn: (
                            vec![0.0; bn.as_ref().map_or(0, |bn| bn.channels())],
                            vec![0.0; bn.as_ref().map_or(0, |bn| bn.channels())],
                        ),
                    });
                    let LayerVelocity::Conv {
                        w: vw,
                        b: vb,
                        bn: (vs, vsh),
                    } = vel
                    else {
                        unreachable!()
                    };
                    sgd_update(
                        w.data_mut(),
                        gw.data(),
                        vw,
                        self.lr,
                        self.momentum,
                        self.weight_decay,
                    );
                    if let (Some(b), Some(gb)) = (b.as_mut(), gb.as_ref()) {
                        sgd_update(b, gb, vb, self.lr, self.momentum, 0.0);
                    }
                    if let (Some(bn), Some((gs, gsh))) = (bn.as_mut(), gbn.as_ref()) {
                        sgd_update(bn.scale_mut(), gs, vs, self.lr, self.momentum, 0.0);
                        sgd_update(bn.shift_mut(), gsh, vsh, self.lr, self.momentum, 0.0);
                    }
                }
                (Some(LayerParams::DwConv { w, bn }), LayerGrads::DwConv { w: gw, bn: gbn }) => {
                    let vel = self.velocity[id].get_or_insert_with(|| LayerVelocity::Conv {
                        w: vec![0.0; w.len()],
                        b: Vec::new(),
                        bn: (
                            vec![0.0; bn.as_ref().map_or(0, |bn| bn.channels())],
                            vec![0.0; bn.as_ref().map_or(0, |bn| bn.channels())],
                        ),
                    });
                    let LayerVelocity::Conv {
                        w: vw,
                        bn: (vs, vsh),
                        ..
                    } = vel
                    else {
                        unreachable!()
                    };
                    sgd_update(
                        w.data_mut(),
                        gw.data(),
                        vw,
                        self.lr,
                        self.momentum,
                        self.weight_decay,
                    );
                    if let (Some(bn), Some((gs, gsh))) = (bn.as_mut(), gbn.as_ref()) {
                        sgd_update(bn.scale_mut(), gs, vs, self.lr, self.momentum, 0.0);
                        sgd_update(bn.shift_mut(), gsh, vsh, self.lr, self.momentum, 0.0);
                    }
                }
                (Some(LayerParams::Linear { w, b, .. }), LayerGrads::Linear { w: gw, b: gb }) => {
                    let vel = self.velocity[id].get_or_insert_with(|| LayerVelocity::Linear {
                        w: vec![0.0; w.len()],
                        b: vec![0.0; b.len()],
                    });
                    let LayerVelocity::Linear { w: vw, b: vb } = vel else {
                        unreachable!()
                    };
                    sgd_update(w, gw, vw, self.lr, self.momentum, self.weight_decay);
                    sgd_update(b, gb, vb, self.lr, self.momentum, 0.0);
                }
                _ => panic!("gradient/parameter kind mismatch at node {id}"), // hd-lint: allow(no-panic) -- gradients are produced from the same Params layout they update
            }
        }
        if let Some(mask) = mask {
            mask.apply(params);
        }
    }
}

fn sgd_update(p: &mut [f32], g: &[f32], v: &mut [f32], lr: f32, momentum: f32, wd: f32) {
    // Per-element gradient clipping keeps unlucky candidate architectures
    // from diverging to NaN during the automated retraining experiments.
    const CLIP: f32 = 5.0;
    for i in 0..p.len() {
        let grad = (g[i] + wd * p[i]).clamp(-CLIP, CLIP);
        v[i] = momentum * v[i] + grad;
        p[i] -= lr * v[i];
    }
}

/// Data-dependent initialization (LSUV-style): sets each batch-norm affine
/// so that post-normalization activations have zero mean and unit variance
/// on a small calibration batch, and rescales linear layers to unit output
/// deviation. Without real batch statistics (our BN is inference-mode
/// affine), deep plain CNNs barely train; this restores healthy signal
/// propagation at initialization.
pub fn normalize_init(net: &Network, params: &mut Params, samples: &[hd_tensor::Tensor3]) {
    if samples.is_empty() {
        return;
    }
    for id in 0..net.len() {
        let has_bn = match &net.nodes()[id].op {
            Op::Conv(spec) => spec.batch_norm,
            Op::DwConv { batch_norm, .. } => *batch_norm,
            _ => false,
        };
        if has_bn {
            // Per-channel stats of the pre-BN activations.
            let mut count = 0usize;
            let mut mean: Vec<f64> = Vec::new();
            let mut m2: Vec<f64> = Vec::new();
            for s in samples {
                let trace = net.forward(params, s);
                let pre = trace.traces[id]
                    .pre_bn
                    .as_ref()
                    .expect("batch_norm layers record pre_bn"); // hd-lint: allow(no-panic) -- forward() records pre_bn for every BN-bearing node
                let c = pre.c();
                if mean.is_empty() {
                    mean = vec![0.0; c];
                    m2 = vec![0.0; c];
                }
                let plane = pre.h() * pre.w();
                for ch in 0..c {
                    for v in &pre.data()[ch * plane..(ch + 1) * plane] {
                        mean[ch] += *v as f64;
                        m2[ch] += (*v as f64) * (*v as f64);
                    }
                }
                count += plane;
            }
            if count == 0 {
                continue;
            }
            let (scale, shift): (Vec<f32>, Vec<f32>) = mean
                .iter()
                .zip(&m2)
                .map(|(&s1, &s2)| {
                    let mu = s1 / count as f64;
                    let var = (s2 / count as f64 - mu * mu).max(1e-8);
                    let inv = 1.0 / var.sqrt();
                    (inv as f32, (-mu * inv) as f32)
                })
                .unzip();
            if let Some(LayerParams::Conv { bn: Some(bn), .. })
            | Some(LayerParams::DwConv { bn: Some(bn), .. }) = &mut params.layers[id]
            {
                bn.scale_mut().copy_from_slice(&scale);
                bn.shift_mut().copy_from_slice(&shift);
            }
        } else if let Some(LayerParams::Linear { .. }) = &params.layers[id] {
            // Rescale the whole layer to unit output deviation.
            let mut sum = 0.0f64;
            let mut sum2 = 0.0f64;
            let mut n = 0usize;
            for s in samples {
                let trace = net.forward(params, s);
                let out = trace.traces[id]
                    .pre_relu
                    .as_ref()
                    .map(|v| v.vector().to_vec())
                    .unwrap_or_else(|| trace.traces[id].out.vector().to_vec());
                for v in out {
                    sum += v as f64;
                    sum2 += (v as f64) * (v as f64);
                    n += 1;
                }
            }
            if n == 0 {
                continue;
            }
            let mu = sum / n as f64;
            let var = (sum2 / n as f64 - mu * mu).max(1e-8);
            let inv = (1.0 / var.sqrt()) as f32;
            if let Some(LayerParams::Linear { w, b, .. }) = &mut params.layers[id] {
                for v in w.iter_mut() {
                    *v *= inv;
                }
                for v in b.iter_mut() {
                    *v *= inv;
                }
            }
        }
    }
}

/// Configuration for [`train`].
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Epoch count.
    pub epochs: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Momentum.
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// Multiplicative learning-rate decay applied after every epoch
    /// (1.0 = constant).
    pub lr_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 3,
            lr: 0.005,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_decay: 1.0,
        }
    }
}

/// Trains `params` on a labelled dataset; returns per-epoch mean losses.
///
/// Pruned weights (per `mask`) remain zero throughout.
pub fn train(
    net: &Network,
    params: &mut Params,
    dataset: &[(Tensor3, usize)],
    cfg: &TrainConfig,
    mask: Option<&crate::prune::Mask>,
) -> Vec<f32> {
    let mut opt = Sgd::new(net, cfg.lr, cfg.momentum, cfg.weight_decay);
    if let Some(m) = mask {
        m.apply(params);
    }
    let mut losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        opt.lr = cfg.lr * cfg.lr_decay.powi(epoch as i32);
        let mut epoch_loss = 0.0;
        for (x, y) in dataset {
            let trace = net.forward(params, x);
            let (loss, grad) = cross_entropy(trace.logits(), *y);
            epoch_loss += loss;
            let grads = backward(net, params, &trace, &grad);
            opt.step(params, &grads, mask);
        }
        losses.push(epoch_loss / dataset.len().max(1) as f32);
    }
    losses
}

/// Classification accuracy on a labelled dataset.
pub fn accuracy(net: &Network, params: &Params, dataset: &[(Tensor3, usize)]) -> f64 {
    if dataset.is_empty() {
        return 0.0;
    }
    let correct = dataset
        .iter()
        .filter(|(x, y)| net.forward(params, x).predicted_class() == *y)
        .count();
    correct as f64 / dataset.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net() -> Network {
        let mut b = NetworkBuilder::new(2, 6, 6);
        let x = b.input();
        let x = b.conv(x, 3, 3, 1);
        // Average pooling keeps the loss surface smooth for the numerical
        // gradient checks below (max pooling has kinks at argmax switches).
        let x = b.avg_pool(x, 2);
        let x = b.flatten(x);
        b.linear(x, 4);
        b.build()
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero() {
        let (_, g) = cross_entropy(&[0.3, -0.2, 1.5], 1);
        assert!(g.iter().sum::<f32>().abs() < 1e-6);
        assert!(g[1] < 0.0);
    }

    #[test]
    fn full_network_gradients_match_numerical() {
        let net = tiny_net();
        let params = Params::init(&net, 17);
        let mut rng = StdRng::seed_from_u64(5);
        let mut x = hd_tensor::Tensor3::zeros(2, 6, 6);
        x.fill_uniform(&mut rng, -1.0, 1.0);
        let target = 2;

        let trace = net.forward(&params, &x);
        let (_, grad_logits) = cross_entropy(trace.logits(), target);
        let grads = backward(&net, &params, &trace, &grad_logits);

        // Check input gradient numerically (relevant to FGSM correctness).
        let eps = 2e-3f32;
        for idx in [0usize, 13, 35, 71] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = cross_entropy(net.forward(&params, &xp).logits(), target).0;
            let lm = cross_entropy(net.forward(&params, &xm).logits(), target).0;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads.input.data()[idx];
            let tol = 2e-2f32.max(0.1 * numeric.abs());
            assert!(
                (numeric - analytic).abs() < tol,
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn conv_weight_gradient_matches_numerical() {
        let net = tiny_net();
        let mut params = Params::init(&net, 23);
        let mut rng = StdRng::seed_from_u64(6);
        let mut x = hd_tensor::Tensor3::zeros(2, 6, 6);
        x.fill_uniform(&mut rng, -1.0, 1.0);
        let target = 0;

        let trace = net.forward(&params, &x);
        let (_, grad_logits) = cross_entropy(trace.logits(), target);
        let grads = backward(&net, &params, &trace, &grad_logits);
        let LayerGrads::Conv { w: gw, .. } = grads.layers[1].as_ref().unwrap() else {
            panic!("expected conv grads");
        };
        let gw = gw.clone();

        let eps = 1e-2f32;
        for idx in [0usize, 10, 26, 53] {
            let orig = params.conv_weights_mut(1).unwrap().data()[idx];
            params.conv_weights_mut(1).unwrap().data_mut()[idx] = orig + eps;
            let lp = cross_entropy(net.forward(&params, &x).logits(), target).0;
            params.conv_weights_mut(1).unwrap().data_mut()[idx] = orig - eps;
            let lm = cross_entropy(net.forward(&params, &x).logits(), target).0;
            params.conv_weights_mut(1).unwrap().data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - gw.data()[idx]).abs() < 2e-2,
                "idx {idx}: numeric {numeric} vs analytic {}",
                gw.data()[idx]
            );
        }
    }

    #[test]
    fn training_reduces_loss() {
        let net = tiny_net();
        let mut params = Params::init(&net, 31);
        let mut rng = StdRng::seed_from_u64(7);
        let dataset: Vec<(hd_tensor::Tensor3, usize)> = (0..16)
            .map(|i| {
                let mut t = hd_tensor::Tensor3::zeros(2, 6, 6);
                t.fill_uniform(&mut rng, 0.0, 1.0);
                // Class-correlated feature so the task is learnable.
                let class = i % 4;
                t.set(0, 0, class, 4.0);
                (t, class)
            })
            .collect();
        let losses = train(
            &net,
            &mut params,
            &dataset,
            &TrainConfig {
                epochs: 20,
                lr: 0.01,
                momentum: 0.9,
                weight_decay: 0.0,
                lr_decay: 1.0,
            },
            None,
        );
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.7),
            "loss did not drop: {losses:?}"
        );
        assert!(accuracy(&net, &params, &dataset) > 0.5);
    }

    #[test]
    fn residual_backward_runs() {
        let mut b = NetworkBuilder::new(2, 4, 4);
        let x = b.input();
        let y = b.conv(x, 2, 3, 1);
        let z = b.add(x, y);
        let g = b.global_avg_pool(z);
        b.linear(g, 3);
        let net = b.build();
        let params = Params::init(&net, 2);
        let input = hd_tensor::Tensor3::full(2, 4, 4, 0.3);
        let trace = net.forward(&params, &input);
        let (_, gl) = cross_entropy(trace.logits(), 1);
        let grads = backward(&net, &params, &trace, &gl);
        // Input gets gradient both through the conv path and the skip path.
        assert!(grads.input.data().iter().any(|&v| v != 0.0));
    }
}

//! Cached sparsity-aware forward execution for probe campaigns.
//!
//! The prober runs `shifts x families` inferences against one fixed victim,
//! and every probe image is a vertical stripe — one nonzero column. Two
//! things are therefore constant across the whole campaign and worth
//! computing once per device instead of once per inference:
//!
//! 1. **The weight compaction.** [`ForwardCache::build`] encodes every conv
//!    layer's pruned weights filter-major into [`SparseFilters`] (the
//!    operand of the output-stationary kernel [`conv2d_csc`]) and every
//!    linear layer's rows into nonzero `(index, value)` lists.
//! 2. **The zero-input baseline.** A stripe differs from the all-zero image
//!    in one column, and every op in the graph is column-local, so each
//!    layer's activation differs from its zero-input baseline only inside
//!    the stripe's receptive field. [`Network::forward_cached`] tracks that
//!    dirty interval with [`ColSpan`] and recomputes *only* the dirty
//!    columns, copying everything else from the baseline trace. For a conv
//!    layer that means one [`conv2d_csc`] call with the input's dirty span
//!    and the baseline's output: the kernel tiles just the input columns
//!    the dirty output columns read, and runs every filter over them.
//!
//! # Bit-identity
//!
//! The recomputed columns run the exact kernels (and accumulation orders) of
//! [`Network::forward_with_policy`]; the copied columns are bit-equal to a
//! full recomputation because their inputs are bit-equal to the baseline's and
//! every op is column-local (batch-norm shifts and biases are absorbed by
//! the baseline rather than widening the interval). The resulting
//! [`ForwardTrace`] is therefore bit-identical to the ordinary forward pass
//! — property-tested in this module and pinned end-to-end by the golden
//! trace fixture.

use hd_tensor::colspan::ColSpan;
use hd_tensor::conv::{same_pad, BackendPolicy, Conv2dCfg, Padding};
use hd_tensor::csc_conv::{conv2d_csc, SparseFilters};
use hd_tensor::dwconv::dwconv2d;
use hd_tensor::pool::{global_avg_pool, pool2d_cols};
use hd_tensor::Tensor3;

use crate::graph::{ForwardTrace, Network, NodeTrace, Op, Params, Value};

/// Nonzero `(input index, weight)` list of one linear-layer row.
type SparseRow = Vec<(u32, f32)>;

/// Per-victim precomputed state reused across probe inferences.
#[derive(Clone, Debug)]
pub struct ForwardCache {
    policy: BackendPolicy,
    /// Filter-major weight compaction per conv node.
    filters: Vec<Option<SparseFilters>>,
    /// Compacted rows per linear node.
    linear_rows: Vec<Option<Vec<SparseRow>>>,
    /// Full forward trace on the all-zero input.
    baseline: ForwardTrace,
}

impl ForwardCache {
    /// Compacts weights and records the zero-input baseline trace for
    /// `net`/`params`.
    pub fn build(net: &Network, params: &Params, policy: BackendPolicy) -> Self {
        let mut filters: Vec<Option<SparseFilters>> = vec![None; net.len()];
        let mut linear_rows: Vec<Option<Vec<SparseRow>>> = vec![None; net.len()];
        for (id, node) in net.nodes().iter().enumerate() {
            match &node.op {
                Op::Conv(_) => {
                    filters[id] = Some(SparseFilters::build(params.conv(id).w));
                }
                Op::Linear { out_features, .. } => {
                    let lp = params.linear(id);
                    let rows = (0..*out_features)
                        .map(|o| {
                            lp.w[o * lp.in_features..(o + 1) * lp.in_features]
                                .iter()
                                .enumerate()
                                .filter(|(_, &w)| w != 0.0)
                                .map(|(i, &w)| (i as u32, w))
                                .collect()
                        })
                        .collect();
                    linear_rows[id] = Some(rows);
                }
                _ => {}
            }
        }
        let shape = net.input_shape();
        let zeros = Tensor3::zeros(shape.c, shape.h, shape.w);
        let baseline = net.forward_with_policy(params, &zeros, Default::default(), policy);
        ForwardCache {
            policy,
            filters,
            linear_rows,
            baseline,
        }
    }

    /// The dispatch policy the cache was built with.
    pub fn policy(&self) -> BackendPolicy {
        self.policy
    }
}

/// The baseline tensor equal to a conv node's raw (pre-BN, pre-ReLU)
/// output: the trace stores it in whichever slot the node's epilogue left
/// it in.
fn conv_baseline(trace: &NodeTrace, has_bn: bool, has_relu: bool) -> &Tensor3 {
    if has_bn {
        trace.pre_bn.as_ref().expect("BN node keeps pre_bn") // hd-lint: allow(no-panic) -- forward() populates pre_bn for every BN-bearing node
    } else if has_relu {
        trace
            .pre_relu
            .as_ref()
            .expect("ReLU node keeps pre_relu") // hd-lint: allow(no-panic) -- forward() populates pre_relu for every ReLU-bearing node
            .map()
    } else {
        trace.out.map()
    }
}

/// The baseline tensor equal to a node's post-BN (pre-ReLU) value.
fn bn_baseline(trace: &NodeTrace, has_relu: bool) -> &Tensor3 {
    if has_relu {
        trace
            .pre_relu
            .as_ref()
            .expect("ReLU node keeps pre_relu") // hd-lint: allow(no-panic) -- forward() populates pre_relu for every ReLU-bearing node
            .map()
    } else {
        trace.out.map()
    }
}

/// Applies `scale/shift` to the `span` columns of `x`, copying the rest from
/// `baseline` — the column-restricted form of `Affine::apply`.
fn affine_cols(
    x: &Tensor3,
    scale: &[f32],
    shift: &[f32],
    span: ColSpan,
    baseline: &Tensor3,
) -> Tensor3 {
    let mut out = baseline.clone();
    let (h, w) = (x.h(), x.w());
    let plane = h * w;
    let src = x.data();
    let dst = out.data_mut();
    for (c, (&s, &b)) in scale.iter().zip(shift).enumerate() {
        for y in 0..h {
            let row = c * plane + y * w;
            for i in row + span.lo()..row + span.hi() {
                dst[i] = s * src[i] + b;
            }
        }
    }
    out
}

/// ReLU over the `span` columns of `x`, copying the rest from `baseline`.
fn relu_cols(x: &Tensor3, span: ColSpan, baseline: &Tensor3) -> Tensor3 {
    let mut out = baseline.clone();
    let (h, w) = (x.h(), x.w());
    let plane = h * w;
    let src = x.data();
    let dst = out.data_mut();
    for c in 0..x.c() {
        for y in 0..h {
            let row = c * plane + y * w;
            for i in row + span.lo()..row + span.hi() {
                let v = src[i];
                dst[i] = if v < 0.0 { 0.0 } else { v };
            }
        }
    }
    out
}

/// Elementwise sum of the `span` columns of `a` and `b`, copying the rest
/// from `baseline`.
fn add_cols(a: &Tensor3, b: &Tensor3, span: ColSpan, baseline: &Tensor3) -> Tensor3 {
    assert_eq!(a.shape(), b.shape(), "shape mismatch in add");
    let mut out = baseline.clone();
    let (h, w) = (a.h(), a.w());
    let plane = h * w;
    let (sa, sb) = (a.data(), b.data());
    let dst = out.data_mut();
    for c in 0..a.c() {
        for y in 0..h {
            let row = c * plane + y * w;
            for i in row + span.lo()..row + span.hi() {
                dst[i] = sa[i] + sb[i];
            }
        }
    }
    out
}

impl Network {
    /// Runs the network through `cache`, recomputing only the columns that
    /// can differ from the cached zero-input baseline.
    ///
    /// Bit-identical to [`Network::forward_with_policy`] under any backend;
    /// the narrower the input's nonzero-column interval, the larger the
    /// saving.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Network::forward`], plus a mismatch between
    /// `cache` and this network/params (caches are per-victim).
    pub fn forward_cached(
        &self,
        params: &Params,
        input: &Tensor3,
        cache: &ForwardCache,
    ) -> ForwardTrace {
        assert_eq!(
            input.shape(),
            self.input_shape(),
            "input shape {} does not match network input {}",
            input.shape(),
            self.input_shape()
        );
        assert_eq!(
            cache.baseline.traces.len(),
            self.len(),
            "forward cache was built for a different network"
        );
        let mut traces: Vec<NodeTrace> = Vec::with_capacity(self.len());
        // Dirty-column interval per map-valued node (None for vectors).
        let mut spans: Vec<Option<ColSpan>> = Vec::with_capacity(self.len());
        for (id, node) in self.nodes().iter().enumerate() {
            let base = &cache.baseline.traces[id];
            let (trace, span) = match &node.op {
                Op::Input => (
                    NodeTrace {
                        out: Value::Map(input.clone()),
                        pre_bn: None,
                        pre_relu: None,
                    },
                    Some(ColSpan::of_tensor(input)),
                ),
                Op::Conv(spec) => {
                    let x = traces[node.inputs[0]].out.map();
                    let in_span = spans[node.inputs[0]].expect("conv input is a map"); // hd-lint: allow(no-panic) -- topology validated by Network construction; map inputs carry spans
                    let lp = params.conv(id);
                    let filters = cache.filters[id].as_ref().expect("conv weights cached"); // hd-lint: allow(no-panic) -- cache is built for every conv node up front
                    let cfg = Conv2dCfg::new(spec.stride, spec.padding);
                    let conv_out = conv2d_csc(
                        x,
                        filters,
                        lp.b.as_deref(),
                        &cfg,
                        in_span,
                        Some(conv_baseline(base, lp.bn.is_some(), spec.relu)),
                    );
                    let pad_x = match spec.padding {
                        Padding::Same => same_pad(x.w(), spec.kernel, spec.stride),
                        Padding::Valid => 0,
                    };
                    let out_span =
                        in_span
                            .clamp(x.w())
                            .conv(spec.kernel, spec.stride, pad_x, conv_out.w());
                    let (pre_bn, bn_out) = if let Some(bn) = &lp.bn {
                        let o = affine_cols(
                            &conv_out,
                            bn.scale(),
                            bn.shift(),
                            out_span,
                            bn_baseline(base, spec.relu),
                        );
                        (Some(conv_out), o)
                    } else {
                        (None, conv_out)
                    };
                    let (pre_relu, out) = if spec.relu {
                        let o = relu_cols(&bn_out, out_span, base.out.map());
                        (Some(bn_out), o)
                    } else {
                        (None, bn_out)
                    };
                    (
                        NodeTrace {
                            out: Value::Map(out),
                            pre_bn,
                            pre_relu: pre_relu.map(Value::Map),
                        },
                        Some(out_span),
                    )
                }
                Op::DwConv {
                    kernel,
                    stride,
                    batch_norm: _,
                    relu,
                } => {
                    // Depthwise layers are cheap (one filter per channel);
                    // recompute them fully with the ordinary kernels and
                    // keep propagating the receptive-field interval.
                    let x = traces[node.inputs[0]].out.map();
                    let in_span = spans[node.inputs[0]].expect("dwconv input is a map"); // hd-lint: allow(no-panic) -- topology validated by Network construction; map inputs carry spans
                    let lp = params.dwconv(id);
                    let cfg = Conv2dCfg::new(*stride, Padding::Same);
                    let conv_out = dwconv2d(x, lp.w, &cfg);
                    let pad_x = same_pad(x.w(), *kernel, *stride);
                    let out_span = in_span
                        .clamp(x.w())
                        .conv(*kernel, *stride, pad_x, conv_out.w());
                    let (pre_bn, bn_out) = if let Some(bn) = &lp.bn {
                        (Some(conv_out.clone()), bn.apply(&conv_out))
                    } else {
                        (None, conv_out)
                    };
                    let (pre_relu, out) = if *relu {
                        let mut o = bn_out.clone();
                        o.relu_inplace();
                        (Some(bn_out), o)
                    } else {
                        (None, bn_out)
                    };
                    (
                        NodeTrace {
                            out: Value::Map(out),
                            pre_bn,
                            pre_relu: pre_relu.map(Value::Map),
                        },
                        Some(out_span),
                    )
                }
                Op::Pool { factor, kind } => {
                    let x = traces[node.inputs[0]].out.map();
                    let in_span = spans[node.inputs[0]].expect("pool input is a map"); // hd-lint: allow(no-panic) -- topology validated by Network construction; map inputs carry spans
                    let out_w = if *factor == 1 { x.w() } else { x.w() / *factor };
                    let out_span = in_span.pool(*factor, out_w);
                    let out = pool2d_cols(x, *factor, *kind, out_span, base.out.map());
                    (
                        NodeTrace {
                            out: Value::Map(out),
                            pre_bn: None,
                            pre_relu: None,
                        },
                        Some(out_span),
                    )
                }
                Op::Add { relu } => {
                    let a = traces[node.inputs[0]].out.map();
                    let b = traces[node.inputs[1]].out.map();
                    let span = spans[node.inputs[0]]
                        .expect("add input is a map") // hd-lint: allow(no-panic) -- topology validated by Network construction; map inputs carry spans
                        .union(spans[node.inputs[1]].expect("add input is a map")); // hd-lint: allow(no-panic) -- topology validated by Network construction; map inputs carry spans
                    let sum = add_cols(a, b, span, bn_baseline(base, *relu));
                    let (pre_relu, out) = if *relu {
                        let o = relu_cols(&sum, span, base.out.map());
                        (Some(sum), o)
                    } else {
                        (None, sum)
                    };
                    (
                        NodeTrace {
                            out: Value::Map(out),
                            pre_bn: None,
                            pre_relu: pre_relu.map(Value::Map),
                        },
                        Some(span),
                    )
                }
                Op::GlobalAvgPool => {
                    let x = traces[node.inputs[0]].out.map();
                    (
                        NodeTrace {
                            out: Value::Vector(global_avg_pool(x)),
                            pre_bn: None,
                            pre_relu: None,
                        },
                        None,
                    )
                }
                Op::Flatten => {
                    let x = traces[node.inputs[0]].out.map();
                    (
                        NodeTrace {
                            out: Value::Vector(x.data().to_vec()),
                            pre_bn: None,
                            pre_relu: None,
                        },
                        None,
                    )
                }
                Op::Linear { out_features, relu } => {
                    let x = traces[node.inputs[0]].out.vector();
                    let lp = params.linear(id);
                    assert_eq!(lp.in_features, x.len(), "linear input size mismatch");
                    let rows = cache.linear_rows[id]
                        .as_ref()
                        .expect("linear weights cached"); // hd-lint: allow(no-panic) -- cache is built for every linear node up front
                    let mut y = vec![0.0f32; *out_features];
                    for (o, yo) in y.iter_mut().enumerate() {
                        // Ascending-index nonzero list: the same surviving
                        // multiplies, in the same order, as the dense loop.
                        let mut acc = lp.b[o];
                        for &(i, w) in &rows[o] {
                            let xi = x[i as usize];
                            if xi != 0.0 {
                                acc += w * xi;
                            }
                        }
                        *yo = acc;
                    }
                    let (pre_relu, out) = if *relu {
                        let pre = y.clone();
                        for v in &mut y {
                            if *v < 0.0 {
                                *v = 0.0;
                            }
                        }
                        (Some(Value::Vector(pre)), y)
                    } else {
                        (None, y)
                    };
                    (
                        NodeTrace {
                            out: Value::Vector(out),
                            pre_bn: None,
                            pre_relu,
                        },
                        None,
                    )
                }
            };
            // Telemetry: how much work the dirty-interval machinery saved on
            // this node. Input nodes are excluded (nothing is recomputed
            // there) and the span is clamped to the node's own width first.
            if hd_obs::enabled() && !matches!(node.op, Op::Input) {
                if let Some(node_span) = span {
                    let w = trace.out.map().w();
                    let recomputed = node_span.clamp(w).width() as u64;
                    hd_obs::counter_add("sparse_fwd.cols_recomputed", "", recomputed);
                    hd_obs::counter_add("sparse_fwd.cols_skipped", "", w as u64 - recomputed);
                    hd_obs::observe("sparse_fwd.colspan_width", "", recomputed as f64);
                }
            }
            traces.push(trace);
            spans.push(span);
        }
        ForwardTrace { traces }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkBuilder;
    use hd_tensor::ConvBackend;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Shape and bit patterns of a map (`==` would equate `-0.0` and
    /// `+0.0`).
    fn map_bits(t: &Tensor3) -> (hd_tensor::Shape3, Vec<u32>) {
        (t.shape(), t.data().iter().map(|x| x.to_bits()).collect())
    }

    fn value_bits(v: &Value) -> (Option<hd_tensor::Shape3>, Vec<u32>) {
        match v {
            Value::Map(t) => {
                let (shape, bits) = map_bits(t);
                (Some(shape), bits)
            }
            Value::Vector(x) => (None, x.iter().map(|x| x.to_bits()).collect()),
        }
    }

    fn assert_traces_bit_identical(a: &ForwardTrace, b: &ForwardTrace) {
        assert_eq!(a.traces.len(), b.traces.len());
        for (id, (ta, tb)) in a.traces.iter().zip(&b.traces).enumerate() {
            assert_eq!(
                value_bits(&ta.out),
                value_bits(&tb.out),
                "out differs at node {id}"
            );
            assert_eq!(
                ta.pre_bn.as_ref().map(map_bits),
                tb.pre_bn.as_ref().map(map_bits),
                "pre_bn differs at node {id}"
            );
            assert_eq!(
                ta.pre_relu.as_ref().map(value_bits),
                tb.pre_relu.as_ref().map(value_bits),
                "pre_relu differs at node {id}"
            );
        }
    }

    fn pruned_params(net: &Network, seed: u64) -> Params {
        let mut params = Params::init(net, seed);
        let profile = crate::prune::SparsityProfile {
            targets: net
                .weighted_nodes()
                .iter()
                .enumerate()
                .map(|(pos, &id)| (id, if pos == 0 { 0.45 } else { 0.8 }))
                .collect(),
        };
        crate::prune::apply_sparsity_profile(net, &mut params, &profile, seed ^ 0xABCD);
        params
    }

    fn probe_images(c: usize, h: usize, w: usize, seed: u64) -> Vec<Tensor3> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut images = Vec::new();
        // Stripe probes at the left edge, interior, and right edge.
        for col in [0, w / 2, w - 1] {
            let mut img = Tensor3::zeros(c, h, w);
            for ch in 0..c {
                for y in 0..h {
                    img.set(ch, y, col, rng.gen_range(-1.0..1.0));
                }
            }
            images.push(img);
        }
        // A dense image (full-width span) and the all-zero image.
        let mut dense = Tensor3::zeros(c, h, w);
        dense.fill_uniform(&mut rng, -1.0, 1.0);
        images.push(dense);
        images.push(Tensor3::zeros(c, h, w));
        images
    }

    #[test]
    fn cached_forward_is_bit_identical_on_conv_pool_chain() {
        let mut b = NetworkBuilder::new(3, 12, 12);
        let x = b.input();
        let x = b.conv(x, 6, 5, 1);
        let x = b.max_pool(x, 2);
        let x = b.conv(x, 8, 3, 2);
        let x = b.global_avg_pool(x);
        b.linear(x, 4);
        let net = b.build();
        let params = pruned_params(&net, 11);
        let cache = ForwardCache::build(&net, &params, BackendPolicy::default());
        for img in probe_images(3, 12, 12, 5) {
            let want = net.forward(&params, &img);
            let sparse = net.forward_with_policy(
                &params,
                &img,
                ConvBackend::SparseCsc,
                BackendPolicy::default(),
            );
            assert_traces_bit_identical(&want, &sparse);
            let got = net.forward_cached(&params, &img, &cache);
            assert_traces_bit_identical(&want, &got);
        }
    }

    #[test]
    fn cached_forward_is_bit_identical_on_residual_dwconv_net() {
        use crate::graph::ConvSpec;
        let mut b = NetworkBuilder::new(3, 16, 16);
        let x = b.input();
        let stem = b.conv(x, 8, 3, 1);
        let branch = b.conv(stem, 8, 3, 1);
        let joined = b.add(stem, branch);
        let dw = b.dwconv(joined, 3, 2, true);
        // A biased conv without BN exercises the bias-first accumulation.
        let mut spec = ConvSpec::standard(5, 3, 1);
        spec.bias = true;
        spec.batch_norm = false;
        let x = b.conv_spec(dw, spec);
        let x = b.avg_pool(x, 2);
        let x = b.flatten(x);
        b.linear(x, 6);
        let net = b.build();
        let params = pruned_params(&net, 23);
        let cache = ForwardCache::build(&net, &params, BackendPolicy::default());
        for img in probe_images(3, 16, 16, 17) {
            let want = net.forward(&params, &img);
            let got = net.forward_cached(&params, &img, &cache);
            assert_traces_bit_identical(&want, &got);
        }
    }

    #[test]
    fn cached_forward_matches_on_paper_zoo_victims() {
        // End-to-end spot check on a real zoo graph with paper sparsities.
        let net = crate::zoo::vgg_s(10);
        let mut params = Params::init(&net, 3);
        let profile = crate::prune::paper_profile(&net);
        crate::prune::apply_sparsity_profile(&net, &mut params, &profile, 3);
        let cache = ForwardCache::build(&net, &params, BackendPolicy::default());
        let shape = net.input_shape();
        let mut img = Tensor3::zeros(shape.c, shape.h, shape.w);
        for ch in 0..shape.c {
            for y in 0..shape.h {
                img.set(ch, y, 7, if (ch + y) % 2 == 0 { 0.75 } else { -0.5 });
            }
        }
        let want = net.forward(&params, &img);
        let got = net.forward_cached(&params, &img, &cache);
        assert_traces_bit_identical(&want, &got);
    }
}

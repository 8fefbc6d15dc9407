//! The f32 forward walk, and the per-victim cache that lets it skip columns.
//!
//! Every f32 inference — [`Network::forward`],
//! [`Network::forward_with_policy`] and [`Network::forward_cached`] — is one
//! call of the same walk over the graph. The walk carries a [`ColSpan`] for
//! each map-valued node: the columns it computes there. Each column-local
//! op (batch-norm affine, ReLU, residual add, max/avg pool) writes just its
//! span into an output that already holds the rest.
//!
//! * **Full width** (no cache): every span is every column, so every output
//!   is computed whole. Convs go through [`conv2d`] with the caller's
//!   backend and dispatch policy; linear layers run the dense zero-skipping
//!   row loop.
//! * **Cached** ([`ForwardCache`]): the prober runs `shifts x families`
//!   inferences against one fixed victim, and every probe image is a
//!   vertical stripe — one nonzero column. Two things are therefore constant
//!   across the whole campaign and computed once per device:
//!
//!   1. **The weight compaction.** [`ForwardCache::build`] encodes every
//!      conv layer's pruned weights filter-major into [`SparseFilters`] (the
//!      operand of the output-stationary kernel [`conv2d_csc`]) and every
//!      linear layer's rows into nonzero `(index, value)` lists.
//!   2. **The zero-input baseline.** A stripe differs from the all-zero
//!      image in one column, and every op in the graph is column-local, so
//!      each layer's activation differs from its zero-input baseline only
//!      inside the stripe's receptive field. The input's span is every
//!      column whose bits differ from `+0.0`; each later span is the
//!      receptive field of the earlier ones, and every output starts from
//!      the baseline trace's value. A conv is one [`conv2d_csc`] call with
//!      the input's span and the baseline's output: the kernel tiles just
//!      the input columns the span's output columns read, and runs every
//!      filter over them. The `sparse_fwd.*` counters fire on this path
//!      only.
//!
//! # Bit-identity
//!
//! The recomputed columns run the same kernels, in the same accumulation
//! order, in both modes; the columns a cached pass copies are bit-equal to
//! a full recomputation because their inputs are bit-equal to the
//! baseline's and every op is column-local (batch-norm shifts and biases
//! are absorbed by the baseline rather than widening the span). A cached
//! pass therefore returns the full-width [`ForwardTrace`] bit for bit —
//! property-tested in `tests/forward_walk.rs` and pinned end-to-end by the
//! golden trace fixtures.

use hd_tensor::colspan::ColSpan;
use hd_tensor::conv::{conv2d, same_pad, BackendPolicy, Conv2dCfg, ConvBackend, Padding};
use hd_tensor::csc_conv::{conv2d_csc, SparseFilters};
use hd_tensor::dwconv::dwconv2d;
use hd_tensor::norm::Affine;
use hd_tensor::pool::{global_avg_pool, pool2d};
use hd_tensor::{Shape3, Tensor3};

use crate::graph::{ForwardTrace, Network, NodeTrace, Op, Params, Value};

/// Nonzero `(input index, weight)` list of one linear-layer row.
type SparseRow = Vec<(u32, f32)>;

/// Per-victim precomputed state reused across probe inferences.
#[derive(Clone, Debug)]
pub struct ForwardCache {
    /// Filter-major weight compaction per conv node.
    filters: Vec<Option<SparseFilters>>,
    /// Compacted rows per linear node.
    linear_rows: Vec<Option<Vec<SparseRow>>>,
    /// Full forward trace on the all-zero input.
    baseline: ForwardTrace,
}

impl ForwardCache {
    /// Compacts weights and records the zero-input baseline trace for
    /// `net`/`params`, dispatching the baseline's convs by `policy`.
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
        let baseline = net.forward_with_policy(params, &zeros, ConvBackend::default(), policy);
        ForwardCache {
            filters,
            linear_rows,
            baseline,
        }
    }
}

/// How [`walk`] computes each node.
#[derive(Clone, Copy)]
pub(crate) enum Walk<'a> {
    /// Every column; convs dispatch through [`conv2d`].
    Full(ConvBackend, BackendPolicy),
    /// Only the columns that can differ from the cache's zero-input
    /// baseline.
    Cached(&'a ForwardCache),
}

/// The baseline trace's value for a stage of a node that a batch norm
/// (`bn`) and/or a ReLU (`relu`) still follow: `pre_bn`, `pre_relu` or
/// `out`.
fn slot(trace: &NodeTrace, bn: bool, relu: bool) -> &Tensor3 {
    if bn {
        trace.pre_bn.as_ref().expect("BN node keeps pre_bn") // hd-lint: allow(no-panic) -- the walk populates pre_bn for every BN-bearing node
    } else if relu {
        trace
            .pre_relu
            .as_ref()
            .expect("ReLU node keeps pre_relu") // hd-lint: allow(no-panic) -- the walk populates pre_relu for every ReLU-bearing node
            .map()
    } else {
        trace.out.map()
    }
}

/// The output a column-local op writes its span into: a copy of the
/// baseline's value (cached walk) or zeros (full width).
fn init(base: Option<&Tensor3>, shape: Shape3) -> Tensor3 {
    base.cloned()
        .unwrap_or_else(|| Tensor3::zeros(shape.c, shape.h, shape.w))
}

/// The conv/dwconv/add epilogue: batch-norm affine, then ReLU, each over
/// `span`.
fn epilogue(
    raw: Tensor3,
    bn: Option<&Affine>,
    relu: bool,
    span: ColSpan,
    base: Option<&NodeTrace>,
) -> NodeTrace {
    let (pre_bn, post_bn) = match bn {
        Some(bn) => {
            let mut o = init(base.map(|t| slot(t, false, relu)), raw.shape());
            bn.apply_cols(&raw, span, &mut o);
            (Some(raw), o)
        }
        None => (None, raw),
    };
    let (pre_relu, out) = if relu {
        let mut o = init(base.map(|t| t.out.map()), post_bn.shape());
        o.relu_cols(&post_bn, span);
        (Some(Value::Map(post_bn)), o)
    } else {
        (None, post_bn)
    };
    NodeTrace {
        out: Value::Map(out),
        pre_bn,
        pre_relu,
    }
}

fn plain(out: Value) -> NodeTrace {
    NodeTrace {
        out,
        pre_bn: None,
        pre_relu: None,
    }
}

/// Runs `net` on `input`: the one f32 inference loop.
///
/// # Panics
///
/// If the input shape does not match the network's, if parameters are
/// missing for a weighted node, or if a cache was built for another
/// network.
pub(crate) fn walk(net: &Network, params: &Params, input: &Tensor3, how: Walk<'_>) -> ForwardTrace {
    assert_eq!(
        input.shape(),
        net.input_shape(),
        "input shape {} does not match network input {}",
        input.shape(),
        net.input_shape()
    );
    let cache = match how {
        Walk::Full(..) => None,
        Walk::Cached(cache) => {
            assert_eq!(
                cache.baseline.traces.len(),
                net.len(),
                "forward cache was built for a different network"
            );
            Some(cache)
        }
    };
    let mut traces: Vec<NodeTrace> = Vec::with_capacity(net.len());
    // Computed-column interval per map-valued node (None for vectors).
    let mut spans: Vec<Option<ColSpan>> = Vec::with_capacity(net.len());
    for (id, node) in net.nodes().iter().enumerate() {
        let base = cache.map(|c| &c.baseline.traces[id]);
        let map_in = |i: usize| {
            let id = node.inputs[i];
            let span = spans[id].expect("map input carries a span"); // hd-lint: allow(no-panic) -- topology validated by Network construction; map inputs carry spans
            (traces[id].out.map(), span)
        };
        let (trace, span) = match &node.op {
            Op::Input => {
                let span = match cache {
                    Some(_) => ColSpan::of_tensor(input),
                    None => ColSpan::full(input.w()),
                };
                (plain(Value::Map(input.clone())), Some(span))
            }
            Op::Conv(spec) => {
                let (x, in_span) = map_in(0);
                let lp = params.conv(id);
                let bias = lp.b.as_deref();
                let cfg = Conv2dCfg::new(spec.stride, spec.padding);
                let raw = match how {
                    Walk::Full(backend, policy) => conv2d(
                        x,
                        lp.w,
                        bias,
                        &cfg.with_backend(backend).with_policy(policy),
                    ),
                    Walk::Cached(cache) => {
                        let filters = cache.filters[id].as_ref().expect("conv weights cached"); // hd-lint: allow(no-panic) -- cache is built for every conv node up front
                        let b = slot(&cache.baseline.traces[id], lp.bn.is_some(), spec.relu);
                        conv2d_csc(x, filters, bias, &cfg, in_span, Some(b))
                    }
                };
                let pad_x = match spec.padding {
                    Padding::Same => same_pad(x.w(), spec.kernel, spec.stride),
                    Padding::Valid => 0,
                };
                let out_span = in_span
                    .clamp(x.w())
                    .conv(spec.kernel, spec.stride, pad_x, raw.w());
                let trace = epilogue(raw, lp.bn.as_ref(), spec.relu, out_span, base);
                (trace, Some(out_span))
            }
            Op::DwConv {
                kernel,
                stride,
                batch_norm: _,
                relu,
            } => {
                // Depthwise layers are cheap (one filter per channel): both
                // modes run the full-map kernel.
                let (x, in_span) = map_in(0);
                let lp = params.dwconv(id);
                let raw = dwconv2d(x, lp.w, &Conv2dCfg::new(*stride, Padding::Same));
                let pad_x = same_pad(x.w(), *kernel, *stride);
                let out_span = in_span.clamp(x.w()).conv(*kernel, *stride, pad_x, raw.w());
                let trace = epilogue(raw, lp.bn.as_ref(), *relu, out_span, base);
                (trace, Some(out_span))
            }
            Op::Pool { factor, kind } => {
                let (x, in_span) = map_in(0);
                let shape = Shape3::new(x.c(), x.h() / factor, x.w() / factor);
                let out_span = in_span.pool(*factor, shape.w);
                let mut out = init(base.map(|t| t.out.map()), shape);
                pool2d(x, *factor, *kind, out_span, &mut out);
                (plain(Value::Map(out)), Some(out_span))
            }
            Op::Add { relu } => {
                let ((a, sa), (b, sb)) = (map_in(0), map_in(1));
                let span = sa.union(sb);
                let mut sum = init(base.map(|t| slot(t, false, *relu)), a.shape());
                sum.add_cols(a, b, span);
                (epilogue(sum, None, *relu, span, base), Some(span))
            }
            Op::GlobalAvgPool => {
                let x = traces[node.inputs[0]].out.map();
                (plain(Value::Vector(global_avg_pool(x))), None)
            }
            Op::Flatten => {
                let x = traces[node.inputs[0]].out.map();
                (plain(Value::Vector(x.data().to_vec())), None)
            }
            Op::Linear { out_features, relu } => {
                let x = traces[node.inputs[0]].out.vector();
                let lp = params.linear(id);
                assert_eq!(lp.in_features, x.len(), "linear input size mismatch");
                let mut y = vec![0.0f32; *out_features];
                match how {
                    Walk::Full(..) => {
                        for (o, yo) in y.iter_mut().enumerate() {
                            let row = &lp.w[o * lp.in_features..(o + 1) * lp.in_features];
                            let mut acc = lp.b[o];
                            for (wi, xi) in row.iter().zip(x) {
                                if *wi != 0.0 && *xi != 0.0 {
                                    acc += wi * xi;
                                }
                            }
                            *yo = acc;
                        }
                    }
                    Walk::Cached(cache) => {
                        let rows = cache.linear_rows[id]
                            .as_ref()
                            .expect("linear weights cached"); // hd-lint: allow(no-panic) -- cache is built for every linear node up front
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
                    }
                }
                let trace = if *relu {
                    let out = y.iter().map(|&v| if v < 0.0 { 0.0 } else { v }).collect();
                    NodeTrace {
                        out: Value::Vector(out),
                        pre_bn: None,
                        pre_relu: Some(Value::Vector(y)),
                    }
                } else {
                    plain(Value::Vector(y))
                };
                (trace, None)
            }
        };
        // Telemetry: how much work the cached walk's spans saved on this
        // node. Input nodes are excluded (nothing is recomputed there) and
        // the span is clamped to the node's own width first.
        if cache.is_some() && hd_obs::enabled() && !matches!(node.op, Op::Input) {
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
        walk(self, params, input, Walk::Cached(cache))
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

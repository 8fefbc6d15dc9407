//! The f32 forward walk, and the per-victim cache that lets it skip columns.
//!
//! Every f32 inference — [`Network::forward`],
//! [`Network::forward_with_policy`], [`Network::forward_cached`] and
//! [`Network::forward_spans`] — is one call of the same walk over the graph.
//! The walk produces each map-valued stage (`out`, `pre_bn`, `pre_relu`) as
//! a *span delta* ([`SpanDelta`]): a [`ColSpan`] plus a `c x h x span`
//! tensor holding only those columns. Each column-local op (conv tile
//! build, batch-norm affine and ReLU fused per element, residual add,
//! max/avg pool) reads its input's span columns from the delta and the rest
//! from the input's baseline value, and computes only its own span. No op
//! copies a whole map.
//!
//! * **Full width** (no cache): every span is every column, so every delta
//!   *is* its map, moved from op to op without a copy. Convs go through
//!   [`conv2d`], which picks its kernel from the operands; linear layers
//!   run the dense zero-skipping row loop.
//! * **Cached** ([`ForwardCache`]): the prober runs `shifts x families`
//!   inferences against one fixed victim, and every probe image is a
//!   vertical stripe — one nonzero column. Two things are therefore constant
//!   across the whole campaign and computed once per device:
//!
//!   1. **The weight compaction.** [`ForwardCache::build`] encodes every
//!      conv layer's pruned weights filter-major into a [`SparseConv`] (the
//!      operand of the column-stationary kernel [`conv2d_csc_cols`], placed
//!      for the layer's input shape) and every linear layer's rows into
//!      nonzero `(index, value)` lists.
//!   2. **The zero-input baseline.** A stripe differs from the all-zero
//!      image in one column, and every op in the graph is column-local, so
//!      each layer's activation differs from its zero-input baseline only
//!      inside the stripe's receptive field (paper §4, the boundary effect).
//!      The input's span is every column whose bits differ from `+0.0`;
//!      each later span is the receptive field of the earlier ones, and the
//!      columns outside it are the baseline trace's. The cache also keeps,
//!      per baseline output map, its nonzero count column by column, so
//!      [`SpanTrace::out_nnz`] counts a whole output in O(span). The
//!      `sparse_fwd.*` counters fire on this path only.
//!   3. **Recent walks.** The prober sends each stripe at many column
//!      shifts. The cache keeps the last few walks handed back by
//!      [`SpanTrace::remember`], and a conv column that translates a
//!      column one of them computed is copied instead of computed (see
//!      the `translate` module).
//!
//! Depthwise convs and the vector head (global average pool, flatten,
//! linear) take their input whole: the walk materialises it, which is
//! cheap at their sizes. [`Network::forward_spans`] returns the deltas as a
//! [`SpanTrace`]; the other three names materialise them into a
//! [`ForwardTrace`] (a move at full width; a copy of the baseline with the
//! span overwritten when cached).
//!
//! # Bit-identity
//!
//! The recomputed columns run the same kernels, in the same accumulation
//! order, in both modes; the columns a cached pass leaves at the baseline
//! are bit-equal to a full recomputation because their inputs are bit-equal
//! to the baseline's and every op is column-local (batch-norm shifts and
//! biases are absorbed by the baseline rather than widening the span). A
//! cached pass therefore materialises to the full-width [`ForwardTrace`]
//! bit for bit — property-tested in `tests/forward_walk.rs` and pinned
//! end-to-end by the golden trace fixtures.

use std::borrow::Cow;

use hd_tensor::colspan::{ColSpan, SpanDelta};
use hd_tensor::conv::{conv2d, same_pad, BackendPolicy, Conv2dCfg, Padding};
use hd_tensor::csc_conv::{conv2d_csc_cols, SparseConv};
use hd_tensor::dwconv::dwconv2d;
use hd_tensor::norm::Affine;
use hd_tensor::pool::{global_avg_pool, pool2d};
use hd_tensor::Tensor3;

use crate::graph::{ForwardTrace, Network, NodeId, NodeTrace, Op, Params, Value};
use crate::translate::{column_classes, Edge, InputKey, MemoNode, Reuse, WalkMemo, Window};

/// Nonzero `(input index, weight)` list of one linear-layer row.
type SparseRow = Vec<(u32, f32)>;

/// Per-victim precomputed state reused across probe inferences.
#[derive(Clone, Debug)]
pub struct ForwardCache {
    /// Filter-major weight compaction per conv node, placed for the
    /// node's input shape.
    convs: Vec<Option<SparseConv>>,
    /// Compacted rows per linear node.
    linear_rows: Vec<Option<Vec<SparseRow>>>,
    /// Full forward trace on the all-zero input.
    baseline: ForwardTrace,
    /// Per node whose baseline output is a map: entry `x` counts its
    /// nonzeros ([`hd_tensor::is_nonzero`]) in columns `0..x`, for every
    /// `x` up to the width. Empty for vectors.
    col_nnz: Vec<Vec<usize>>,
    /// Per node whose baseline output is a map: its column classes (see
    /// the `translate` module). Empty for vectors.
    classes: Vec<Vec<u32>>,
    /// Recent walks handed back by [`SpanTrace::remember`].
    memo: WalkMemo,
}

impl ForwardCache {
    /// Compacts weights and records the zero-input baseline trace for
    /// `net`/`params`. Kernel choice never changes a result, so `_policy`
    /// is unused: only the device reads [`BackendPolicy::auto_sparse`], to
    /// route sparse images to the cached walk.
    pub fn build(net: &Network, params: &Params, _policy: BackendPolicy) -> Self {
        let mut convs: Vec<Option<SparseConv>> = vec![None; net.len()];
        let mut linear_rows: Vec<Option<Vec<SparseRow>>> = vec![None; net.len()];
        for (id, node) in net.nodes().iter().enumerate() {
            match &node.op {
                Op::Conv(spec) => {
                    if let Some(in_shape) = net.value_shape(node.inputs[0]).as_map() {
                        let cfg = Conv2dCfg::new(spec.stride, spec.padding);
                        convs[id] = Some(SparseConv::new(params.conv(id).w, in_shape, &cfg));
                    }
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
        let baseline = net.forward(params, &zeros);
        let col_nnz = per_map(&baseline, col_nnz_prefix);
        let classes = per_map(&baseline, column_classes);
        ForwardCache {
            convs,
            linear_rows,
            baseline,
            col_nnz,
            classes,
            memo: WalkMemo::default(),
        }
    }
}

/// The raw (pre-epilogue) stage of a node's trace: what a conv or add
/// computes before batch norm and ReLU.
fn raw_stage(t: &NodeTrace) -> &Tensor3 {
    t.pre_bn
        .as_ref()
        .or(t.pre_relu.as_ref().map(Value::map))
        .unwrap_or(t.out.map())
}

/// `f` of every map-valued node output of `trace`; empty for vectors.
fn per_map<T>(trace: &ForwardTrace, f: fn(&Tensor3) -> Vec<T>) -> Vec<Vec<T>> {
    trace
        .traces
        .iter()
        .map(|t| match &t.out {
            Value::Map(m) => f(m),
            Value::Vector(_) => Vec::new(),
        })
        .collect()
}

/// Running nonzero counts of `m`'s columns: entry `x` counts columns
/// `0..x`.
fn col_nnz_prefix(m: &Tensor3) -> Vec<usize> {
    let w = m.w();
    let mut prefix = vec![0usize; w + 1];
    for row in m.data().chunks_exact(w.max(1)) {
        for (count, &v) in prefix[1..].iter_mut().zip(row) {
            *count += usize::from(hd_tensor::is_nonzero(v));
        }
    }
    for x in 1..=w {
        prefix[x] += prefix[x - 1];
    }
    prefix
}

/// A node value in span form: a map as a [`SpanDelta`] over the baseline's
/// value of the same stage, or a whole vector.
#[derive(Clone, Debug)]
pub enum SpanValue {
    /// Activation map.
    Map(SpanDelta),
    /// Feature vector.
    Vector(Vec<f32>),
}

impl SpanValue {
    fn map(&self) -> &SpanDelta {
        match self {
            SpanValue::Map(d) => d,
            #[expect(
                clippy::panic,
                reason = "the verified graph feeds maps to map ops; NodeTrace's Value::map panics alike"
            )]
            SpanValue::Vector(_) => panic!("expected activation map, found vector"),
        }
    }

    fn vector(&self) -> &[f32] {
        match self {
            SpanValue::Vector(v) => v,
            #[expect(
                clippy::panic,
                reason = "the verified graph feeds vectors to linear layers; NodeTrace's Value::vector panics alike"
            )]
            SpanValue::Map(_) => panic!("expected vector, found activation map"),
        }
    }

    /// The whole value over `base`, the baseline's value of the same stage.
    fn into_value(self, base: Option<&Value>) -> Value {
        match self {
            SpanValue::Map(d) => Value::Map(d.into_map(base.map(Value::map))),
            SpanValue::Vector(v) => Value::Vector(v),
        }
    }
}

impl From<Value> for SpanValue {
    /// A whole value: a map becomes a full-span delta, without a copy.
    fn from(v: Value) -> Self {
        match v {
            Value::Map(t) => SpanValue::Map(SpanDelta::full(t)),
            Value::Vector(v) => SpanValue::Vector(v),
        }
    }
}

/// One node's stages in span form: the [`NodeTrace`] fields as deltas.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Final node output.
    pub out: SpanValue,
    /// Pre-batch-norm convolution output (when BN is present).
    pub pre_bn: Option<SpanDelta>,
    /// Pre-ReLU value (when ReLU is present).
    pub pre_relu: Option<SpanValue>,
}

/// A forward pass in span form, one [`SpanNode`] per node: what
/// [`Network::forward_spans`] returns, and what the other forward names
/// materialise into a [`ForwardTrace`].
#[derive(Clone, Debug)]
pub struct SpanTrace<'a> {
    /// One entry per node, in topological order.
    pub nodes: Vec<SpanNode>,
    /// The cache whose baseline the deltas are read over (none at full
    /// width, where every delta is its whole map).
    cache: Option<&'a ForwardCache>,
    /// The input's key, when the walk can be remembered in the cache's
    /// memo (a cached walk of a nonzero image).
    key: Option<InputKey>,
}

impl<'a> SpanTrace<'a> {
    /// Hands the trace to its cache's memo, so later cached walks can
    /// copy the conv columns it computed (see the `translate` module). Only
    /// what reuse reads is kept: every map node's span and every conv
    /// node's raw output, moved. A no-op for a full-width trace.
    pub fn remember(self) {
        let (Some(cache), Some(key)) = (self.cache, self.key) else {
            return;
        };
        let nodes = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(id, node)| {
                let SpanValue::Map(out) = node.out else {
                    return MemoNode::default();
                };
                let span = Some(out.span());
                let raw = match (node.pre_bn, node.pre_relu) {
                    _ if cache.convs[id].is_none() => None,
                    (Some(raw), _) | (None, Some(SpanValue::Map(raw))) => Some(raw),
                    _ => Some(out),
                };
                MemoNode { span, raw }
            })
            .collect();
        cache.memo.insert(key, nodes);
    }

    /// The baseline stages node `id`'s deltas are read over: `None` when
    /// the trace was computed at full width.
    pub fn baseline(&self, id: NodeId) -> Option<&'a NodeTrace> {
        self.cache.map(|c| &c.baseline.traces[id])
    }

    /// Nonzeros of node `id`'s output under [`hd_tensor::nnz`]. For a map
    /// over the baseline this is the baseline's count minus its count in
    /// the span, plus the delta's: O(span) instead of O(map).
    pub fn out_nnz(&self, id: NodeId) -> usize {
        match &self.nodes[id].out {
            SpanValue::Vector(v) => hd_tensor::nnz(v),
            SpanValue::Map(d) => {
                let outside = self.cache.map_or(0, |cache| {
                    let (prefix, span) = (&cache.col_nnz[id], d.span());
                    prefix[d.shape().w] - prefix[span.hi()] + prefix[span.lo()]
                });
                outside + hd_tensor::nnz(d.cols().data())
            }
        }
    }

    /// Node `id`'s whole output, flat: borrowed unless a map's columns
    /// outside its span must be copied in from the baseline.
    pub fn out_values(&self, id: NodeId) -> Cow<'_, [f32]> {
        match &self.nodes[id].out {
            SpanValue::Vector(v) => Cow::Borrowed(v),
            SpanValue::Map(d) => match d.to_map(self.baseline(id).map(|b| b.out.map())) {
                Cow::Borrowed(t) => Cow::Borrowed(t.data()),
                Cow::Owned(t) => Cow::Owned(t.into_data()),
            },
        }
    }

    /// Every stage of every node as a whole value: the full-width
    /// [`ForwardTrace`], bit for bit.
    pub fn into_forward_trace(self) -> ForwardTrace {
        let cache = self.cache;
        let traces = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(id, node)| {
                let base = cache.map(|c| &c.baseline.traces[id]);
                NodeTrace {
                    out: node.out.into_value(base.map(|b| &b.out)),
                    pre_bn: node
                        .pre_bn
                        .map(|d| d.into_map(base.and_then(|b| b.pre_bn.as_ref()))),
                    pre_relu: node
                        .pre_relu
                        .map(|v| v.into_value(base.and_then(|b| b.pre_relu.as_ref()))),
                }
            })
            .collect();
        ForwardTrace { traces }
    }
}

impl From<ForwardTrace> for SpanTrace<'static> {
    /// A whole trace in span form: every map a full-span delta, moved in.
    fn from(trace: ForwardTrace) -> Self {
        let nodes = trace
            .traces
            .into_iter()
            .map(|t| SpanNode {
                out: t.out.into(),
                pre_bn: t.pre_bn.map(SpanDelta::full),
                pre_relu: t.pre_relu.map(SpanValue::from),
            })
            .collect();
        SpanTrace {
            nodes,
            cache: None,
            key: None,
        }
    }
}

/// The conv/dwconv/add epilogue over the raw output's span: batch-norm
/// affine, then ReLU, fused per element when both are present.
fn epilogue(raw: SpanDelta, bn: Option<&Affine>, relu: bool) -> SpanNode {
    let (span, w) = (raw.span(), raw.shape().w);
    let delta = |cols: Tensor3| SpanDelta::new(span, w, cols);
    let (out, pre_bn, pre_relu) = match (bn, relu) {
        (None, false) => (raw, None, None),
        (None, true) => (delta(raw.cols().relu()), None, Some(raw)),
        (Some(bn), false) => (delta(bn.apply(raw.cols())), Some(raw), None),
        (Some(bn), true) => {
            let (post_bn, out) = bn.apply_relu(raw.cols());
            (delta(out), Some(raw), Some(delta(post_bn)))
        }
    };
    SpanNode {
        out: SpanValue::Map(out),
        pre_bn,
        pre_relu: pre_relu.map(SpanValue::Map),
    }
}

/// `a + b` over the union of their spans, each read over its baseline.
fn add(
    a: &SpanDelta,
    a_base: Option<&Tensor3>,
    b: &SpanDelta,
    b_base: Option<&Tensor3>,
) -> SpanDelta {
    let shape = a.shape();
    assert_eq!(shape, b.shape(), "shape mismatch in add");
    let span = a.span().union(b.span());
    let sw = span.width();
    let mut sum = Tensor3::zeros(shape.c, shape.h, sw);
    let mut b_row = vec![0.0; sw];
    for (row, dst) in sum.data_mut().chunks_exact_mut(sw.max(1)).enumerate() {
        let (c, y) = (row / shape.h, row % shape.h);
        a.read_row(a_base, c, y, span.range(), dst);
        b.read_row(b_base, c, y, span.range(), &mut b_row);
        for (o, v) in dst.iter_mut().zip(&b_row) {
            *o += v;
        }
    }
    SpanDelta::new(span, shape.w, sum)
}

fn plain(out: SpanValue) -> SpanNode {
    SpanNode {
        out,
        pre_bn: None,
        pre_relu: None,
    }
}

/// Runs `net` on `input`: the one f32 inference loop. With no cache every
/// node is computed at full width (convs dispatch through [`conv2d`]);
/// through `cache`, only the columns that can differ from its zero-input
/// baseline, and of those only the conv columns no translate in the
/// cache's memo holds (see the `translate` module).
///
/// # Panics
///
/// If the input shape does not match the network's, if parameters are
/// missing for a weighted node, or if a cache was built for another
/// network.
pub(crate) fn walk<'a>(
    net: &Network,
    params: &Params,
    input: &Tensor3,
    cache: Option<&'a ForwardCache>,
) -> SpanTrace<'a> {
    assert_eq!(
        input.shape(),
        net.input_shape(),
        "input shape {} does not match network input {}",
        input.shape(),
        net.input_shape()
    );
    if let Some(cache) = cache {
        assert_eq!(
            cache.baseline.traces.len(),
            net.len(),
            "forward cache was built for a different network"
        );
    }
    let mut nodes: Vec<SpanNode> = Vec::with_capacity(net.len());
    // The input's key and its translation reuse against the memo (no
    // sources until the input finds some).
    let mut key = None;
    let mut reuse = Reuse::new(Vec::new());
    for (id, node) in net.nodes().iter().enumerate() {
        // Input `i` as a delta, with the baseline map it is read over.
        let map_in = |i: usize| {
            let src = node.inputs[i];
            let base = cache.map(|c| c.baseline.traces[src].out.map());
            (nodes[src].out.map(), base)
        };
        // Input `i` as an edge of the reuse marks.
        let edge = |i: usize, cache: &'a ForwardCache| {
            let src = node.inputs[i];
            Edge {
                node: src,
                span: nodes[src].out.map().span(),
                classes: &cache.classes[src],
            }
        };
        let trace = match &node.op {
            Op::Input => plain(SpanValue::Map(match cache {
                Some(cache) => {
                    let delta = SpanDelta::of_cols(input, ColSpan::of_tensor(input));
                    key = InputKey::of(&delta);
                    if let Some(key) = &key {
                        reuse = Reuse::new(cache.memo.sources(key));
                        reuse.mark_input(key);
                    }
                    delta
                }
                None => SpanDelta::full(input.clone()),
            })),
            Op::Conv(spec) => {
                let (x, x_base) = map_in(0);
                let lp = params.conv(id);
                let bias = lp.b.as_deref();
                let cfg = Conv2dCfg::new(spec.stride, spec.padding);
                let raw = match cache {
                    None => SpanDelta::full(conv2d(&x.to_map(x_base), lp.w, bias, &cfg)),
                    Some(cache) => {
                        #[expect(
                            clippy::expect_used,
                            reason = "cache is built for every conv node up front"
                        )]
                        let conv = cache.convs[id].as_ref().expect("conv weights cached");
                        let out_span = conv.out_span(x.span());
                        let window = Window {
                            taps: conv.kernel_w(),
                            stride: conv.stride(),
                            pad: conv.pad_x(),
                        };
                        reuse.mark(&[edge(0, cache)], window, Some((out_span, conv.out_w())));
                        reused_conv(&mut reuse, id, cache, out_span, |cols| {
                            conv2d_csc_cols(x, x_base, conv, bias, cols)
                        })
                    }
                };
                epilogue(raw, lp.bn.as_ref(), spec.relu)
            }
            Op::DwConv {
                kernel,
                stride,
                batch_norm: _,
                relu,
            } => {
                // Depthwise layers are cheap (one filter per channel): both
                // modes run the full-map kernel on the whole input.
                let (x, x_base) = map_in(0);
                let lp = params.dwconv(id);
                let raw = dwconv2d(
                    &x.to_map(x_base),
                    lp.w,
                    &Conv2dCfg::new(*stride, Padding::Same),
                );
                let pad_x = same_pad(x.shape().w, *kernel, *stride);
                let out_span = x.span().conv(*kernel, *stride, pad_x, raw.w());
                epilogue(SpanDelta::from_map(raw, out_span), lp.bn.as_ref(), *relu)
            }
            Op::Pool { factor, kind } => {
                let (x, x_base) = map_in(0);
                plain(SpanValue::Map(pool2d(x, x_base, *factor, *kind)))
            }
            Op::Add { relu } => {
                let ((a, a_base), (b, b_base)) = (map_in(0), map_in(1));
                epilogue(add(a, a_base, b, b_base), None, *relu)
            }
            Op::GlobalAvgPool => {
                let (x, x_base) = map_in(0);
                plain(SpanValue::Vector(global_avg_pool(&x.to_map(x_base))))
            }
            Op::Flatten => {
                let (x, x_base) = map_in(0);
                plain(SpanValue::Vector(x.to_map(x_base).into_owned().into_data()))
            }
            Op::Linear { out_features, relu } => {
                let x = nodes[node.inputs[0]].out.vector();
                let lp = params.linear(id);
                assert_eq!(lp.in_features, x.len(), "linear input size mismatch");
                let mut y = vec![0.0f32; *out_features];
                match cache {
                    None => {
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
                    Some(cache) => {
                        #[expect(
                            clippy::expect_used,
                            reason = "cache is built for every linear node up front"
                        )]
                        let rows = cache.linear_rows[id]
                            .as_ref()
                            .expect("linear weights cached");
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
                if *relu {
                    let out = y.iter().map(|&v| if v < 0.0 { 0.0 } else { v }).collect();
                    SpanNode {
                        out: SpanValue::Vector(out),
                        pre_bn: None,
                        pre_relu: Some(SpanValue::Vector(y)),
                    }
                } else {
                    plain(SpanValue::Vector(y))
                }
            }
        };
        if let Some(cache) = cache {
            let out = match &trace.out {
                SpanValue::Map(d) => Some((d.span(), d.shape().w)),
                SpanValue::Vector(_) => None,
            };
            match &node.op {
                // Marked before the input was keyed, or before computing.
                Op::Input | Op::Conv(_) => {}
                Op::DwConv { kernel, stride, .. } => {
                    let in_w = edge(0, cache).classes.len();
                    let window = Window {
                        taps: *kernel,
                        stride: *stride,
                        pad: same_pad(in_w, *kernel, *stride),
                    };
                    reuse.mark(&[edge(0, cache)], window, out);
                }
                Op::Pool { factor, .. } => {
                    let window = Window {
                        taps: *factor,
                        stride: *factor,
                        pad: 0,
                    };
                    reuse.mark(&[edge(0, cache)], window, out);
                }
                Op::Add { .. } => {
                    reuse.mark(&[edge(0, cache), edge(1, cache)], Window::IDENTITY, out);
                }
                Op::GlobalAvgPool | Op::Flatten | Op::Linear { .. } => {
                    reuse.mark(&[], Window::IDENTITY, None);
                }
            }
        }
        // Telemetry: how much work the cached walk's spans saved on this
        // node. Input nodes are excluded (nothing is recomputed there).
        if cache.is_some() && hd_obs::enabled() && !matches!(node.op, Op::Input) {
            if let SpanValue::Map(out) = &trace.out {
                let w = out.shape().w;
                let recomputed = out.span().width() as u64;
                hd_obs::counter_add("sparse_fwd.cols_recomputed", "", recomputed);
                hd_obs::counter_add("sparse_fwd.cols_skipped", "", w as u64 - recomputed);
                hd_obs::observe("sparse_fwd.colspan_width", "", recomputed as f64);
            }
        }
        nodes.push(trace);
    }
    if hd_obs::enabled() && reuse.cols_reused > 0 {
        hd_obs::counter_add("sparse_fwd.cols_reused", "", reuse.cols_reused);
    }
    SpanTrace { nodes, cache, key }
}

/// Conv node `id`'s raw output over `out_span` under translation reuse:
/// the columns a source marked are copied from it, and `compute` runs the
/// kernel over the rest (the whole span when `r` has no source).
fn reused_conv(
    r: &mut Reuse,
    id: NodeId,
    cache: &ForwardCache,
    out_span: ColSpan,
    compute: impl FnOnce(&[usize]) -> SpanDelta,
) -> SpanDelta {
    let plan = r.plan(id, out_span.width());
    let cols: Vec<usize> = out_span
        .range()
        .zip(&plan)
        .filter(|(_, src)| src.is_none())
        .map(|(q, _)| q)
        .collect();
    let mut raw = compute(&cols);
    let base = raw_stage(&cache.baseline.traces[id]);
    r.copy_columns(id, &plan, out_span, base, raw.cols_mut());
    raw
}

impl Network {
    /// Runs the network through `cache`, recomputing only the columns that
    /// can differ from the cached zero-input baseline, and returns every
    /// stage as a span delta over the baseline's. Conv columns that
    /// translate columns of a walk handed back by [`SpanTrace::remember`]
    /// are copied from it (see the `translate` module); the result is the
    /// same whatever the cache's memo holds.
    ///
    /// [`SpanTrace::into_forward_trace`] materialises the result into
    /// exactly [`Network::forward_cached`]'s trace.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Network::forward_cached`].
    pub fn forward_spans<'a>(
        &self,
        params: &Params,
        input: &Tensor3,
        cache: &'a ForwardCache,
    ) -> SpanTrace<'a> {
        walk(self, params, input, Some(cache))
    }

    /// Runs the network through `cache`, recomputing only the columns that
    /// can differ from the cached zero-input baseline.
    ///
    /// Bit-identical to [`Network::forward`], the full-width walk; the
    /// narrower the input's nonzero-column interval, the larger the
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
        self.forward_spans(params, input, cache)
            .into_forward_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkBuilder;
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

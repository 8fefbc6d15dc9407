//! Dataflow-graph CNN representation and forward execution.
//!
//! A [`Network`] is a topologically-ordered list of nodes; each node applies
//! one [`Op`] to the outputs of earlier nodes. The representation keeps the
//! *architectural hyperparameters* the HuffDuff attacker is trying to steal
//! (kernel size, stride, pooling factors, channel counts, dataflow edges)
//! explicit and queryable, so experiments can compare recovered vs. actual
//! geometry directly.

use crate::prune::Mask;
use crate::sparse_forward::{walk, Walk};
use crate::verify::{implied_shape, Severity};
use hd_tensor::conv::{BackendPolicy, ConvBackend, Padding};
use hd_tensor::norm::Affine;
use hd_tensor::pool::PoolKind;
use hd_tensor::tensor::{gaussian, skip_gaussian};
use hd_tensor::{Shape3, Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Index of a node within a [`Network`].
pub type NodeId = usize;

/// Hyperparameters of a convolution layer (CONV -> BatchNorm -> ReLU).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConvSpec {
    /// Output channel count `K`.
    pub out_channels: usize,
    /// Symmetric kernel size `R = S`.
    pub kernel: usize,
    /// Symmetric stride.
    pub stride: usize,
    /// Padding mode ("same" zero padding is the paper's common case).
    pub padding: Padding,
    /// Whether an explicit additive bias is present.
    pub bias: bool,
    /// Whether an inference-mode batch-norm affine follows the convolution.
    pub batch_norm: bool,
    /// Whether a ReLU follows.
    pub relu: bool,
}

impl ConvSpec {
    /// The common CONV+BN+ReLU configuration.
    pub fn standard(out_channels: usize, kernel: usize, stride: usize) -> Self {
        ConvSpec {
            out_channels,
            kernel,
            stride,
            padding: Padding::Same,
            bias: false,
            batch_norm: true,
            relu: true,
        }
    }
}

/// One graph operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// The network input (exactly one per network, always node 0).
    Input,
    /// Standard convolution (optionally + BN + ReLU).
    Conv(ConvSpec),
    /// Depthwise convolution (optionally + BN + ReLU).
    DwConv {
        /// Symmetric kernel size.
        kernel: usize,
        /// Symmetric stride.
        stride: usize,
        /// Batch-norm affine after the convolution.
        batch_norm: bool,
        /// ReLU after (MobileNetV2 uses linear bottlenecks, so this varies).
        relu: bool,
    },
    /// Spatial pooling with symmetric non-overlapping windows.
    Pool {
        /// Window size == stride.
        factor: usize,
        /// Max or average.
        kind: PoolKind,
    },
    /// Elementwise residual addition of two equal-shaped maps.
    Add {
        /// ReLU after the join (ResNet basic blocks do this).
        relu: bool,
    },
    /// Collapse each channel to its spatial mean, producing a vector.
    GlobalAvgPool,
    /// Reshape a map into a vector.
    Flatten,
    /// Fully connected layer on a vector.
    Linear {
        /// Output feature count.
        out_features: usize,
        /// ReLU after.
        relu: bool,
    },
}

/// A node: an op plus the ids of its inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    /// The operation.
    pub op: Op,
    /// Input node ids (earlier in the list).
    pub inputs: Vec<NodeId>,
}

/// Shape of a node's output value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueShape {
    /// A `C x H x W` activation map.
    Map(Shape3),
    /// A flat feature vector.
    Vector(usize),
}

impl ValueShape {
    /// Total element count.
    pub fn len(&self) -> usize {
        match self {
            ValueShape::Map(s) => s.len(),
            ValueShape::Vector(n) => *n,
        }
    }

    /// Returns `true` when the value holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The map shape, if this is a map.
    pub fn as_map(&self) -> Option<Shape3> {
        match self {
            ValueShape::Map(s) => Some(*s),
            ValueShape::Vector(_) => None,
        }
    }
}

/// A runtime value flowing along a graph edge.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Activation map.
    Map(Tensor3),
    /// Feature vector.
    Vector(Vec<f32>),
}

impl Value {
    /// Borrows the map.
    ///
    /// # Panics
    ///
    /// Panics if the value is a vector.
    pub fn map(&self) -> &Tensor3 {
        match self {
            Value::Map(t) => t,
            // hd-lint: allow(no-panic) -- documented panicking accessor; callers use as_map for the fallible form
            Value::Vector(_) => panic!("expected activation map, found vector"),
        }
    }

    /// Borrows the vector.
    ///
    /// # Panics
    ///
    /// Panics if the value is a map.
    pub fn vector(&self) -> &[f32] {
        match self {
            Value::Vector(v) => v,
            // hd-lint: allow(no-panic) -- documented panicking accessor; callers use as_vector for the fallible form
            Value::Map(_) => panic!("expected vector, found activation map"),
        }
    }

    /// Flat element view regardless of variant.
    pub fn flat(&self) -> &[f32] {
        match self {
            Value::Map(t) => t.data(),
            Value::Vector(v) => v,
        }
    }

    /// Number of non-zero elements.
    pub fn nnz(&self) -> usize {
        hd_tensor::nnz(self.flat())
    }
}

/// A CNN as a topologically-ordered dataflow graph.
#[derive(Clone, Debug, PartialEq)]
pub struct Network {
    nodes: Vec<Node>,
    input_shape: Shape3,
    shapes: Vec<ValueShape>,
    names: Vec<String>,
}

impl Network {
    /// Assembles a network from pre-built parts **without validation**.
    ///
    /// [`NetworkBuilder`] takes every shape from the verifier's rule and is
    /// the supported construction path. This escape hatch exists for tests
    /// (and future deserializers) that need graphs the builder would
    /// reject, e.g. to pin what [`crate::verify`] reports on them and that
    /// `hd_accel::Device::try_new` refuses them. `nodes`, `shapes`, and
    /// `names` must be index-aligned.
    ///
    /// # Panics
    ///
    /// Panics if `shapes` or `names` length differs from `nodes`.
    pub fn from_raw_parts(
        nodes: Vec<Node>,
        input_shape: Shape3,
        shapes: Vec<ValueShape>,
        names: Vec<String>,
    ) -> Network {
        assert_eq!(nodes.len(), shapes.len(), "one shape per node");
        assert_eq!(nodes.len(), names.len(), "one name per node");
        Network {
            nodes,
            input_shape,
            shapes,
            names,
        }
    }

    /// Nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes (including the input node).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The network input shape.
    pub fn input_shape(&self) -> Shape3 {
        self.input_shape
    }

    /// Output shape of node `id`.
    pub fn value_shape(&self, id: NodeId) -> ValueShape {
        self.shapes[id]
    }

    /// Output shapes of every node, indexed by id.
    pub(crate) fn shapes(&self) -> &[ValueShape] {
        &self.shapes
    }

    /// Debug name of node `id`.
    pub fn name(&self, id: NodeId) -> &str {
        &self.names[id]
    }

    /// Ids of all convolution nodes (standard + depthwise), in order.
    pub fn conv_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::Conv(_) | Op::DwConv { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Ids of nodes that carry weights (conv, depthwise conv, linear).
    pub fn weighted_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::Conv(_) | Op::DwConv { .. } | Op::Linear { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Weight element count of node `id`, from its geometry alone: what
    /// [`Params::init`] allocates for it. `None` for weightless nodes.
    pub fn weight_len(&self, id: NodeId) -> Option<usize> {
        let node = &self.nodes[id];
        let in_c = || self.value_shape(node.inputs[0]).as_map().map_or(1, |s| s.c);
        match &node.op {
            Op::Conv(spec) => Some(spec.out_channels * in_c() * spec.kernel * spec.kernel),
            Op::DwConv { kernel, .. } => Some(in_c() * kernel * kernel),
            Op::Linear { out_features, .. } => {
                Some(self.value_shape(node.inputs[0]).len() * out_features)
            }
            _ => None,
        }
    }

    /// Total weight element count (dense footprint).
    pub fn dense_weight_count(&self, params: &Params) -> usize {
        self.weighted_nodes()
            .iter()
            .map(|&id| match &params.layers[id] {
                Some(LayerParams::Conv { w, .. }) => w.len(),
                Some(LayerParams::DwConv { w, .. }) => w.len(),
                Some(LayerParams::Linear { w, .. }) => w.len(),
                None => 0,
            })
            .sum()
    }

    /// Total non-zero weight count (sparse footprint).
    pub fn sparse_weight_count(&self, params: &Params) -> usize {
        self.weighted_nodes()
            .iter()
            .map(|&id| match &params.layers[id] {
                Some(LayerParams::Conv { w, .. }) => w.nnz(),
                Some(LayerParams::DwConv { w, .. }) => w.nnz(),
                Some(LayerParams::Linear { w, .. }) => hd_tensor::nnz(w),
                None => 0,
            })
            .sum()
    }

    /// Runs the network with the default convolution backend, keeping every
    /// intermediate needed for backprop.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the network's declared input
    /// shape, or if parameters are missing for a weighted node.
    pub fn forward(&self, params: &Params, input: &Tensor3) -> ForwardTrace {
        walk(self, params, input, Walk::Full(ConvBackend::default())).into_forward_trace()
    }

    /// [`Network::forward`] with an explicit convolution backend.
    ///
    /// The backend moves work between kernels that are bit-identical to
    /// `hd_tensor::conv::conv2d_reference` (sparse kernel vs im2col + GEMM),
    /// so it changes wall-clock time, never the trace contents. `_policy`
    /// is unused: [`conv2d`](hd_tensor::conv::conv2d) picks its kernel from
    /// the operands, and only the device reads
    /// [`BackendPolicy::auto_sparse`], to route sparse images to the cached
    /// walk.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Network::forward`].
    pub fn forward_with_policy(
        &self,
        params: &Params,
        input: &Tensor3,
        backend: ConvBackend,
        _policy: BackendPolicy,
    ) -> ForwardTrace {
        walk(self, params, input, Walk::Full(backend)).into_forward_trace()
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, node) in self.nodes.iter().enumerate() {
            writeln!(
                f,
                "#{id:<3} {:<12} inputs={:?} -> {:?}",
                self.names[id], node.inputs, self.shapes[id]
            )?;
        }
        Ok(())
    }
}

/// Per-node intermediates kept by [`Network::forward`].
#[derive(Clone, Debug)]
pub struct NodeTrace {
    /// Final node output.
    pub out: Value,
    /// Pre-batch-norm convolution output (when BN is present).
    pub pre_bn: Option<Tensor3>,
    /// Pre-ReLU value (when ReLU is present).
    pub pre_relu: Option<Value>,
}

/// Forward execution record: one [`NodeTrace`] per node.
#[derive(Clone, Debug)]
pub struct ForwardTrace {
    /// One entry per node, in topological order.
    pub traces: Vec<NodeTrace>,
}

impl ForwardTrace {
    /// Output of node `id`.
    pub fn value(&self, id: NodeId) -> &Value {
        &self.traces[id].out
    }

    /// The final node's output as a logit vector.
    ///
    /// # Panics
    ///
    /// Panics if the final node does not produce a vector.
    pub fn logits(&self) -> &[f32] {
        // hd-lint: allow(no-panic) -- documented above: networks are non-empty by NetworkBuilder construction
        self.traces.last().expect("empty network").out.vector()
    }

    /// Index of the largest logit.
    pub fn predicted_class(&self) -> usize {
        let logits = self.logits();
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Parameters of a standard convolution node.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvParams {
    /// Weights, `K x C x R x S`.
    pub w: Tensor4,
    /// Optional bias, length `K`.
    pub b: Option<Vec<f32>>,
    /// Optional inference-mode batch norm.
    pub bn: Option<Affine>,
}

/// Parameters of a depthwise convolution node.
#[derive(Clone, Debug, PartialEq)]
pub struct DwConvParams {
    /// Weights, `C x 1 x R x S`.
    pub w: Tensor4,
    /// Optional inference-mode batch norm.
    pub bn: Option<Affine>,
}

/// Parameters of a linear node.
#[derive(Clone, Debug, PartialEq)]
pub struct LinearParams {
    /// Row-major `out_features x in_features` weights.
    pub w: Vec<f32>,
    /// Bias, length `out_features`.
    pub b: Vec<f32>,
    /// Input feature count.
    pub in_features: usize,
    /// Output feature count.
    pub out_features: usize,
}

/// Parameters of one node.
#[derive(Clone, Debug, PartialEq)]
pub enum LayerParams {
    /// Standard convolution.
    Conv {
        /// Weights.
        w: Tensor4,
        /// Optional bias.
        b: Option<Vec<f32>>,
        /// Optional batch norm.
        bn: Option<Affine>,
    },
    /// Depthwise convolution.
    DwConv {
        /// Weights (`C x 1 x R x S`).
        w: Tensor4,
        /// Optional batch norm.
        bn: Option<Affine>,
    },
    /// Fully connected.
    Linear {
        /// Row-major weights.
        w: Vec<f32>,
        /// Bias.
        b: Vec<f32>,
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
}

/// All parameters of a network, indexed by node id.
#[derive(Clone, Debug, PartialEq)]
pub struct Params {
    /// `layers[id]` is `Some` iff node `id` carries weights.
    pub layers: Vec<Option<LayerParams>>,
}

/// Borrowed view of conv parameters.
pub struct ConvView<'a> {
    /// Weights.
    pub w: &'a Tensor4,
    /// Bias.
    pub b: &'a Option<Vec<f32>>,
    /// Batch norm.
    pub bn: &'a Option<Affine>,
}

/// Borrowed view of depthwise conv parameters.
pub struct DwConvView<'a> {
    /// Weights.
    pub w: &'a Tensor4,
    /// Batch norm.
    pub bn: &'a Option<Affine>,
}

/// Borrowed view of linear parameters.
pub struct LinearView<'a> {
    /// Weights.
    pub w: &'a [f32],
    /// Bias.
    pub b: &'a [f32],
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
}

/// He-normal weights over `fan_in` inputs (zero fan-in counts as one, as
/// in [`Tensor4::init_he`]) into a zeroed `w`; positions `keep` marks
/// `false` stay `0.0` and skip their draws.
fn init_he(w: &mut [f32], fan_in: usize, keep: Option<&[bool]>, rng: &mut StdRng) {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    for (i, v) in w.iter_mut().enumerate() {
        if keep.and_then(|k| k.get(i)) == Some(&false) {
            skip_gaussian(rng);
        } else {
            *v = gaussian(rng) * std;
        }
    }
}

impl Params {
    /// Randomly initializes parameters for `net` (He weights, BN scale ~1).
    pub fn init(net: &Network, seed: u64) -> Params {
        Params::init_masked(net, seed, None)
    }

    /// [`Params::init`] with `mask` applied, bit for bit, at the cost of
    /// the surviving weights only: a pruned weight stays `0.0` and skips
    /// its Gaussian draw ([`skip_gaussian`]), so every later parameter sees
    /// the stream the dense initialisation gives it. A position the mask
    /// does not cover is kept, as in [`Mask::apply`].
    pub fn init_masked(net: &Network, seed: u64, mask: Option<&Mask>) -> Params {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(net.len());
        for (id, node) in net.nodes().iter().enumerate() {
            let keep = mask
                .and_then(|m| m.masks.get(id))
                .and_then(Option::as_deref);
            let lp = match &node.op {
                Op::Conv(spec) => {
                    let in_c = net
                        .value_shape(node.inputs[0])
                        .as_map()
                        .expect("conv input must be a map") // hd-lint: allow(no-panic) -- NetworkBuilder only wires conv nodes to map-producing inputs
                        .c;
                    let mut w = Tensor4::zeros(spec.out_channels, in_c, spec.kernel, spec.kernel);
                    init_he(
                        w.data_mut(),
                        in_c * spec.kernel * spec.kernel,
                        keep,
                        &mut rng,
                    );
                    let b = spec.bias.then(|| {
                        (0..spec.out_channels)
                            .map(|_| gaussian(&mut rng) * 0.1)
                            .collect()
                    });
                    let bn = spec.batch_norm.then(|| {
                        let scale = (0..spec.out_channels)
                            .map(|_| 1.0 + gaussian(&mut rng) * 0.1)
                            .collect();
                        let shift = (0..spec.out_channels)
                            .map(|_| gaussian(&mut rng) * 0.1)
                            .collect();
                        Affine::new(scale, shift)
                    });
                    Some(LayerParams::Conv { w, b, bn })
                }
                Op::DwConv {
                    kernel, batch_norm, ..
                } => {
                    let in_c = net
                        .value_shape(node.inputs[0])
                        .as_map()
                        .expect("dwconv input must be a map") // hd-lint: allow(no-panic) -- NetworkBuilder only wires dwconv nodes to map-producing inputs
                        .c;
                    let mut w = Tensor4::zeros(in_c, 1, *kernel, *kernel);
                    init_he(w.data_mut(), kernel * kernel, keep, &mut rng);
                    let bn = batch_norm.then(|| {
                        let scale = (0..in_c).map(|_| 1.0 + gaussian(&mut rng) * 0.1).collect();
                        let shift = (0..in_c).map(|_| gaussian(&mut rng) * 0.1).collect();
                        Affine::new(scale, shift)
                    });
                    Some(LayerParams::DwConv { w, bn })
                }
                Op::Linear { out_features, .. } => {
                    let in_features = net.value_shape(node.inputs[0]).len();
                    let mut w = vec![0.0; out_features * in_features];
                    init_he(&mut w, in_features, keep, &mut rng);
                    let b = vec![0.0; *out_features];
                    Some(LayerParams::Linear {
                        w,
                        b,
                        in_features,
                        out_features: *out_features,
                    })
                }
                _ => None,
            };
            layers.push(lp);
        }
        Params { layers }
    }

    /// Conv parameter view for node `id`.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a conv node.
    pub fn conv(&self, id: NodeId) -> ConvView<'_> {
        match &self.layers[id] {
            Some(LayerParams::Conv { w, b, bn }) => ConvView { w, b, bn },
            // hd-lint: allow(no-panic) -- documented panicking view; geometry was checked by the caller
            other => panic!("node {id} is not a conv layer: {other:?}"),
        }
    }

    /// Depthwise conv parameter view for node `id`.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a depthwise conv node.
    pub fn dwconv(&self, id: NodeId) -> DwConvView<'_> {
        match &self.layers[id] {
            Some(LayerParams::DwConv { w, bn }) => DwConvView { w, bn },
            // hd-lint: allow(no-panic) -- documented panicking view; geometry was checked by the caller
            other => panic!("node {id} is not a depthwise conv layer: {other:?}"),
        }
    }

    /// Linear parameter view for node `id`.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a linear node.
    pub fn linear(&self, id: NodeId) -> LinearView<'_> {
        match &self.layers[id] {
            Some(LayerParams::Linear {
                w,
                b,
                in_features,
                out_features,
            }) => LinearView {
                w,
                b,
                in_features: *in_features,
                out_features: *out_features,
            },
            // hd-lint: allow(no-panic) -- documented panicking view; geometry was checked by the caller
            other => panic!("node {id} is not a linear layer: {other:?}"),
        }
    }

    /// Mutable weight tensor of a conv / depthwise-conv node, if any.
    pub fn conv_weights_mut(&mut self, id: NodeId) -> Option<&mut Tensor4> {
        match &mut self.layers[id] {
            Some(LayerParams::Conv { w, .. }) | Some(LayerParams::DwConv { w, .. }) => Some(w),
            _ => None,
        }
    }
}

/// Incremental builder for [`Network`].
///
/// Nodes are appended in topological order. Each node takes its shape from
/// [`implied_shape`], the rule [`crate::verify`] checks, so geometry errors
/// surface at construction time with the verifier's message.
#[derive(Debug)]
pub struct NetworkBuilder {
    nodes: Vec<Node>,
    shapes: Vec<ValueShape>,
    names: Vec<String>,
    input_shape: Shape3,
}

impl NetworkBuilder {
    /// Starts a network with the given input shape.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        NetworkBuilder {
            nodes: Vec::new(),
            shapes: Vec::new(),
            names: Vec::new(),
            input_shape: Shape3::new(c, h, w),
        }
    }

    /// Adds the input node (must be called first, exactly once).
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn input(&mut self) -> NodeId {
        assert!(self.nodes.is_empty(), "input() may only be called once");
        self.push(Op::Input, vec![], "input")
    }

    fn push(&mut self, op: Op, inputs: Vec<NodeId>, prefix: &str) -> NodeId {
        let name = format!("{prefix}{}", self.nodes.len());
        self.push_named(op, inputs, name)
    }

    /// Appends `op` reading `inputs` under the debug name `name`, with the
    /// output shape [`implied_shape`] gives it.
    ///
    /// # Panics
    ///
    /// Panics with the verifier's message if the shape rule reports an
    /// error, e.g. a zero stride or a residual join of unequal maps.
    pub(crate) fn push_named(&mut self, op: Op, inputs: Vec<NodeId>, name: String) -> NodeId {
        let (shape, findings) = implied_shape(&op, &inputs, &self.shapes, self.input_shape);
        let errors: Vec<String> = findings
            .iter()
            .filter(|f| f.severity() == Severity::Error)
            .map(ToString::to_string)
            .collect();
        assert!(
            shape.is_some() && errors.is_empty(),
            "{name}: {}",
            errors.join("; ")
        );
        let id = self.nodes.len();
        self.nodes.push(Node { op, inputs });
        self.shapes.extend(shape);
        self.names.push(name);
        id
    }

    /// Standard CONV+BN+ReLU layer.
    pub fn conv(&mut self, x: NodeId, out_channels: usize, kernel: usize, stride: usize) -> NodeId {
        self.conv_spec(x, ConvSpec::standard(out_channels, kernel, stride))
    }

    /// Convolution with full control over the spec.
    pub fn conv_spec(&mut self, x: NodeId, spec: ConvSpec) -> NodeId {
        self.push(Op::Conv(spec), vec![x], "conv")
    }

    /// Depthwise CONV+BN+ReLU layer.
    pub fn dwconv(&mut self, x: NodeId, kernel: usize, stride: usize, relu: bool) -> NodeId {
        let op = Op::DwConv {
            kernel,
            stride,
            batch_norm: true,
            relu,
        };
        self.push(op, vec![x], "dwconv")
    }

    /// Max pooling.
    pub fn max_pool(&mut self, x: NodeId, factor: usize) -> NodeId {
        self.pool(x, factor, PoolKind::Max)
    }

    /// Average pooling.
    pub fn avg_pool(&mut self, x: NodeId, factor: usize) -> NodeId {
        self.pool(x, factor, PoolKind::Avg)
    }

    fn pool(&mut self, x: NodeId, factor: usize, kind: PoolKind) -> NodeId {
        self.push(Op::Pool { factor, kind }, vec![x], "pool")
    }

    /// Residual join with ReLU.
    ///
    /// # Panics
    ///
    /// Panics if the two inputs have different map shapes.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add_opts(a, b, true)
    }

    /// Residual join with optional ReLU.
    pub fn add_opts(&mut self, a: NodeId, b: NodeId, relu: bool) -> NodeId {
        self.push(Op::Add { relu }, vec![a, b], "add")
    }

    /// Global average pooling (map -> vector).
    pub fn global_avg_pool(&mut self, x: NodeId) -> NodeId {
        self.push(Op::GlobalAvgPool, vec![x], "gap")
    }

    /// Flatten (map -> vector).
    pub fn flatten(&mut self, x: NodeId) -> NodeId {
        self.push(Op::Flatten, vec![x], "flatten")
    }

    /// Fully connected layer without activation (e.g. final logits).
    pub fn linear(&mut self, x: NodeId, out_features: usize) -> NodeId {
        self.linear_opts(x, out_features, false)
    }

    /// Fully connected layer with optional ReLU; its input must be a
    /// vector (insert flatten/global_avg_pool first).
    pub fn linear_opts(&mut self, x: NodeId, out_features: usize, relu: bool) -> NodeId {
        self.push(Op::Linear { out_features, relu }, vec![x], "fc")
    }

    /// Finalizes the network.
    ///
    /// # Panics
    ///
    /// Panics if no input node was added.
    pub fn build(self) -> Network {
        assert!(!self.nodes.is_empty(), "network has no input node");
        Network {
            nodes: self.nodes,
            input_shape: self.input_shape,
            shapes: self.shapes,
            names: self.names,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net() -> Network {
        let mut b = NetworkBuilder::new(3, 8, 8);
        let x = b.input();
        let x = b.conv(x, 4, 3, 1);
        let x = b.max_pool(x, 2);
        let x = b.global_avg_pool(x);
        b.linear(x, 10);
        b.build()
    }

    #[test]
    fn shape_inference() {
        let net = tiny_net();
        assert_eq!(net.value_shape(1), ValueShape::Map(Shape3::new(4, 8, 8)));
        assert_eq!(net.value_shape(2), ValueShape::Map(Shape3::new(4, 4, 4)));
        assert_eq!(net.value_shape(3), ValueShape::Vector(4));
        assert_eq!(net.value_shape(4), ValueShape::Vector(10));
    }

    #[test]
    fn forward_produces_logits() {
        let net = tiny_net();
        let params = Params::init(&net, 3);
        let mut input = Tensor3::zeros(3, 8, 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        input.fill_uniform(&mut rng, 0.0, 1.0);
        let out = net.forward(&params, &input);
        assert_eq!(out.logits().len(), 10);
        assert!(out.predicted_class() < 10);
    }

    #[test]
    fn forward_is_deterministic() {
        let net = tiny_net();
        let params = Params::init(&net, 3);
        let input = Tensor3::full(3, 8, 8, 0.25);
        let a = net.forward(&params, &input);
        let b = net.forward(&params, &input);
        assert_eq!(a.logits(), b.logits());
    }

    #[test]
    fn relu_outputs_nonnegative() {
        let net = tiny_net();
        let params = Params::init(&net, 5);
        let input = Tensor3::full(3, 8, 8, 1.0);
        let out = net.forward(&params, &input);
        assert!(out.value(1).flat().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn residual_add() {
        let mut b = NetworkBuilder::new(2, 4, 4);
        let x = b.input();
        let y = b.conv(x, 2, 3, 1);
        let z = b.add(x, y);
        b.global_avg_pool(z);
        let net = b.build();
        let params = Params::init(&net, 9);
        let input = Tensor3::full(2, 4, 4, 0.5);
        let out = net.forward(&params, &input);
        assert_eq!(out.value(2).map().shape(), Shape3::new(2, 4, 4));
    }

    #[test]
    fn conv_nodes_and_weighted_nodes() {
        let net = tiny_net();
        assert_eq!(net.conv_nodes(), vec![1]);
        assert_eq!(net.weighted_nodes(), vec![1, 4]);
    }

    #[test]
    fn dense_and_sparse_weight_counts() {
        let net = tiny_net();
        let mut params = Params::init(&net, 3);
        let dense = net.dense_weight_count(&params);
        assert_eq!(dense, 4 * 3 * 3 * 3 + 10 * 4);
        // Zero one conv weight.
        params.conv_weights_mut(1).unwrap().data_mut()[0] = 0.0;
        assert_eq!(net.sparse_weight_count(&params), dense - 1);
    }

    #[test]
    #[should_panic(expected = "input shape")]
    fn wrong_input_shape_panics() {
        let net = tiny_net();
        let params = Params::init(&net, 3);
        let _ = net.forward(&params, &Tensor3::zeros(3, 4, 4));
    }

    #[test]
    #[should_panic(expected = "vector input")]
    fn linear_on_map_panics() {
        let mut b = NetworkBuilder::new(1, 4, 4);
        let x = b.input();
        b.linear(x, 2);
    }

    #[test]
    fn builder_refuses_what_verify_rejects_with_its_message() {
        use crate::verify::DiagKind;
        type Build<'a> = &'a dyn Fn(&mut NetworkBuilder, NodeId) -> NodeId;
        let refusal = |build: Build| -> String {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut b = NetworkBuilder::new(1, 4, 4);
                let x = b.input();
                build(&mut b, x);
            }))
            .expect_err("the builder must refuse this node");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let zero = |attr| DiagKind::ZeroAttr { attr };
        let (map, wide) = (Shape3::new(1, 4, 4), Shape3::new(3, 4, 4));
        let valid5 = ConvSpec {
            padding: Padding::Valid,
            ..ConvSpec::standard(2, 5, 1)
        };
        let too_big = DiagKind::StrideExceedsInput {
            kernel: 5,
            stride: 1,
            input: map,
        };
        let cases: [(Build, String); 5] = [
            (
                &|b, x| b.max_pool(x, 0),
                format!("pool1: {}", zero("factor")),
            ),
            (
                &|b, x| b.conv(x, 2, 3, 0),
                format!("conv1: {}", zero("stride")),
            ),
            (
                &|b, x| b.dwconv(x, 3, 0, true),
                format!("dwconv1: {}", zero("stride")),
            ),
            (&|b, x| b.conv_spec(x, valid5), format!("conv1: {too_big}")),
            (
                &|b, x| {
                    let y = b.conv(x, 3, 3, 1);
                    b.add(x, y)
                },
                format!(
                    "add2: {}",
                    DiagKind::AddMismatch {
                        left: map,
                        right: wide
                    }
                ),
            ),
        ];
        for (build, want) in cases {
            assert_eq!(refusal(build), want);
        }
    }

    #[test]
    fn depthwise_preserves_channels() {
        let mut b = NetworkBuilder::new(6, 8, 8);
        let x = b.input();
        let y = b.dwconv(x, 3, 2, true);
        let net = {
            b.global_avg_pool(y);
            b.build()
        };
        assert_eq!(net.value_shape(1), ValueShape::Map(Shape3::new(6, 4, 4)));
        let params = Params::init(&net, 2);
        let out = net.forward(&params, &Tensor3::full(6, 8, 8, 1.0));
        assert_eq!(out.value(1).map().c(), 6);
    }

    #[test]
    fn forward_backends_are_bit_identical() {
        let net = tiny_net();
        let params = Params::init(&net, 3);
        let mut input = Tensor3::zeros(3, 8, 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        input.fill_uniform(&mut rng, 0.1, 1.0);
        let gemm = net.forward(&params, &input);
        let sparse = net.forward_with_policy(
            &params,
            &input,
            ConvBackend::SparseCsc,
            BackendPolicy::default(),
        );
        for (a, b) in gemm.traces.iter().zip(&sparse.traces) {
            for (x, y) in a.out.flat().iter().zip(b.out.flat()) {
                assert!(x.to_bits() == y.to_bits(), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn from_raw_parts_round_trips_builder_output() {
        let net = tiny_net();
        let rebuilt = Network::from_raw_parts(
            net.nodes().to_vec(),
            net.input_shape(),
            (0..net.len()).map(|id| net.value_shape(id)).collect(),
            (0..net.len()).map(|id| net.name(id).to_string()).collect(),
        );
        assert_eq!(net, rebuilt);
    }

    #[test]
    fn display_lists_nodes() {
        let net = tiny_net();
        let s = net.to_string();
        assert!(s.contains("input"));
        assert!(s.contains("conv"));
        assert!(s.contains("fc"));
    }
}

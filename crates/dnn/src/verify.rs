//! Static verification of a [`Network`] (and optionally its [`Params`])
//! *before* execution.
//!
//! One shape rule, [`implied_shape`], decides what each node's output
//! shape is and which findings the node itself raises.
//! [`NetworkBuilder`](crate::graph::NetworkBuilder) and structured pruning
//! take their shapes from it and refuse its errors eagerly. Graphs
//! assembled through [`Network::from_raw_parts`] (tests, future
//! deserializers, fuzzers) carry whatever shapes their author recorded, so
//! `verify` runs the same rule over every node and compares. It also
//! checks the graph topology, params consistency and buffer-capacity
//! limits, and reports every problem as a typed
//! [`Diagnostic`] with the layer path and the expected/actual shapes.
//!
//! The same diagnostics back two frontends:
//!
//! * `hd_accel::Device::{new, try_new}` verify the sealed graph against
//!   the device's config at construction (fail-early instead of
//!   mid-simulation),
//! * the `hd-lint --models` CLI verifies every zoo topology against the
//!   accelerator presets and prints the diagnostics below verbatim.
//!
//! # Example
//!
//! ```
//! use hd_dnn::graph::{NetworkBuilder, Params};
//! use hd_dnn::verify::{verify, Limits};
//!
//! let mut b = NetworkBuilder::new(3, 8, 8);
//! let x = b.input();
//! let x = b.conv(x, 4, 3, 1);
//! b.global_avg_pool(x);
//! let net = b.build();
//! let params = Params::init(&net, 1);
//! assert!(verify(&net, Some(&params), &Limits::default()).is_empty());
//! ```

use crate::graph::{LayerParams, Network, NodeId, Op, Params, ValueShape};
use hd_tensor::conv::{conv_out_dim, Padding};
use hd_tensor::norm::Affine;
use hd_tensor::{CompressionScheme, Shape3};
use std::fmt;

/// How serious a [`Diagnostic`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but executable (dead layers, pool remainders).
    Warning,
    /// The graph cannot execute correctly; `verify_strict` rejects it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// What went wrong, with the evidence attached.
#[derive(Clone, Debug, PartialEq)]
pub enum DiagKind {
    /// The graph has no nodes at all.
    EmptyGraph,
    /// Node 0 is not an [`Op::Input`] (or its recorded shape is not the
    /// network input shape).
    NoInput,
    /// An [`Op::Input`] node appears after node 0.
    ExtraInput,
    /// A node reads an input at or after its own position; topological
    /// order is violated.
    ForwardReference {
        /// The out-of-order input id.
        input: NodeId,
    },
    /// A node has the wrong number of inputs for its op.
    BadArity {
        /// Inputs the op requires.
        expected: usize,
        /// Inputs the node records.
        got: usize,
    },
    /// An op that consumes an activation map reads a vector-valued input.
    NotAMap {
        /// The offending input id.
        input: NodeId,
    },
    /// An op that consumes a vector reads a map-valued input.
    NotAVector {
        /// The offending input id.
        input: NodeId,
    },
    /// The node's recorded output shape disagrees with the shape inferred
    /// from its op and inputs.
    ShapeMismatch {
        /// Shape implied by the op.
        expected: ValueShape,
        /// Shape the graph records.
        actual: ValueShape,
    },
    /// A residual join of two differently-shaped maps.
    AddMismatch {
        /// First input shape.
        left: Shape3,
        /// Second input shape.
        right: Shape3,
    },
    /// A structurally required attribute (kernel, stride, pool factor,
    /// out_channels, out_features) is zero.
    ZeroAttr {
        /// Which attribute.
        attr: &'static str,
    },
    /// A `Valid`-padded convolution whose kernel or stride exceeds the
    /// input extent, leaving no output positions.
    StrideExceedsInput {
        /// Kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Input map shape.
        input: Shape3,
    },
    /// A node's output holds zero elements.
    ZeroOutput {
        /// The degenerate shape.
        shape: ValueShape,
    },
    /// A non-terminal node whose output nothing consumes.
    DeadLayer,
    /// A pooling window that does not tile the input evenly (rows/columns
    /// are silently dropped).
    PoolRemainder {
        /// Pool factor.
        factor: usize,
        /// Input map shape.
        input: Shape3,
    },
    /// Params were supplied but hold no entry for a weighted node.
    MissingParams,
    /// Params were supplied whose tensor geometry disagrees with the op.
    ParamShapeMismatch {
        /// Geometry the op implies, rendered `KxCxRxS`-style.
        expected: String,
        /// Geometry the params hold.
        actual: String,
    },
    /// A per-channel companion parameter (BN affine or bias) no longer
    /// matches the layer's output-channel count — the classic leftover of
    /// a channel-removal pass that resized weights but not their
    /// companions.
    OrphanedBn {
        /// Channels the op produces.
        expected: usize,
        /// Channels the companion parameter covers.
        got: usize,
    },
    /// `params.layers` is not index-aligned with the node list.
    RaggedParams {
        /// Node count.
        expected: usize,
        /// Param entry count.
        got: usize,
    },
    /// A layer's compressed weights need more on-chip passes than the
    /// configured ceiling allows (see [`Limits::max_weight_passes`]).
    GlbOverflow {
        /// Compressed weight bytes of the layer.
        weight_bytes: u64,
        /// On-chip weight buffer capacity in bytes.
        capacity: u64,
        /// Passes the layer would need.
        passes: u64,
        /// The configured ceiling.
        max_passes: u64,
    },
}

impl DiagKind {
    /// Stable kebab-case rule name (shared with the `hd-lint` JSON schema).
    pub fn rule(&self) -> &'static str {
        match self {
            DiagKind::EmptyGraph => "empty-graph",
            DiagKind::NoInput => "no-input",
            DiagKind::ExtraInput => "extra-input",
            DiagKind::ForwardReference { .. } => "forward-reference",
            DiagKind::BadArity { .. } => "bad-arity",
            DiagKind::NotAMap { .. } => "not-a-map",
            DiagKind::NotAVector { .. } => "not-a-vector",
            DiagKind::ShapeMismatch { .. } => "shape-mismatch",
            DiagKind::AddMismatch { .. } => "add-mismatch",
            DiagKind::ZeroAttr { .. } => "zero-attr",
            DiagKind::StrideExceedsInput { .. } => "stride-exceeds-input",
            DiagKind::ZeroOutput { .. } => "zero-output",
            DiagKind::DeadLayer => "dead-layer",
            DiagKind::PoolRemainder { .. } => "pool-remainder",
            DiagKind::MissingParams => "missing-params",
            DiagKind::ParamShapeMismatch { .. } => "param-shape-mismatch",
            DiagKind::OrphanedBn { .. } => "orphaned-bn",
            DiagKind::RaggedParams { .. } => "ragged-params",
            DiagKind::GlbOverflow { .. } => "glb-overflow",
        }
    }

    /// Default severity of this kind.
    pub fn severity(&self) -> Severity {
        match self {
            DiagKind::DeadLayer | DiagKind::PoolRemainder { .. } => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

fn shape_str(s: &ValueShape) -> String {
    match s {
        ValueShape::Map(m) => format!("{}x{}x{}", m.c, m.h, m.w),
        ValueShape::Vector(n) => format!("vec[{n}]"),
    }
}

impl fmt::Display for DiagKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagKind::EmptyGraph => write!(f, "graph has no nodes"),
            DiagKind::NoInput => write!(f, "node 0 is not the network input"),
            DiagKind::ExtraInput => write!(f, "extra input node (exactly one allowed, at node 0)"),
            DiagKind::ForwardReference { input } => {
                write!(f, "reads input {input}, which is not an earlier node")
            }
            DiagKind::BadArity { expected, got } => {
                write!(f, "expects {expected} input(s), has {got}")
            }
            DiagKind::NotAMap { input } => {
                write!(
                    f,
                    "requires an activation-map input, but node {input} produces a vector"
                )
            }
            DiagKind::NotAVector { input } => {
                write!(
                    f,
                    "requires a vector input, but node {input} produces a map"
                )
            }
            DiagKind::ShapeMismatch { expected, actual } => write!(
                f,
                "recorded output shape {} but the op implies {}",
                shape_str(actual),
                shape_str(expected)
            ),
            DiagKind::AddMismatch { left, right } => {
                write!(f, "residual join of mismatched shapes {left} vs {right}")
            }
            DiagKind::ZeroAttr { attr } => write!(f, "{attr} must be nonzero"),
            DiagKind::StrideExceedsInput {
                kernel,
                stride,
                input,
            } => write!(
                f,
                "kernel {kernel} / stride {stride} leave no valid output positions on input {input}"
            ),
            DiagKind::ZeroOutput { shape } => {
                write!(f, "output shape {} holds no elements", shape_str(shape))
            }
            DiagKind::DeadLayer => write!(f, "output is never consumed (dead layer)"),
            DiagKind::PoolRemainder { factor, input } => write!(
                f,
                "pool factor {factor} does not tile input {input}; edge rows/cols are dropped"
            ),
            DiagKind::MissingParams => write!(f, "weighted node has no parameter entry"),
            DiagKind::ParamShapeMismatch { expected, actual } => {
                write!(f, "params have geometry {actual}, op implies {expected}")
            }
            DiagKind::OrphanedBn { expected, got } => {
                write!(
                    f,
                    "per-channel params cover {got} channels, layer produces {expected}"
                )
            }
            DiagKind::RaggedParams { expected, got } => {
                write!(f, "params hold {got} entries for {expected} nodes")
            }
            DiagKind::GlbOverflow {
                weight_bytes,
                capacity,
                passes,
                max_passes,
            } => write!(
                f,
                "compressed weights ({weight_bytes} B) need {passes} passes through a \
                 {capacity} B weight buffer (limit {max_passes})"
            ),
        }
    }
}

/// One verification finding: where, how bad, and what.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Severity (strict verification rejects on any [`Severity::Error`]).
    pub severity: Severity,
    /// The node the finding anchors to, if any.
    pub node: Option<NodeId>,
    /// Layer path: the node's debug name, or `net` for graph-level findings.
    pub path: String,
    /// The typed finding.
    pub kind: DiagKind,
}

impl Diagnostic {
    fn at(net: &Network, node: NodeId, kind: DiagKind) -> Diagnostic {
        Diagnostic {
            severity: kind.severity(),
            node: Some(node),
            path: net.name(node).to_string(),
            kind,
        }
    }

    fn global(kind: DiagKind) -> Diagnostic {
        Diagnostic {
            severity: kind.severity(),
            node: None,
            path: "net".to_string(),
            kind,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(id) => write!(
                f,
                "{}[{}] #{id} {}: {}",
                self.severity,
                self.kind.rule(),
                self.path,
                self.kind
            ),
            None => write!(
                f,
                "{}[{}] {}: {}",
                self.severity,
                self.kind.rule(),
                self.path,
                self.kind
            ),
        }
    }
}

/// Accelerator-derived capacity limits.
///
/// `hd-dnn` cannot see `hd_accel::AccelConfig` (the dependency points the
/// other way), so the accel crate lowers its config into this struct — see
/// `AccelConfig::verify_limits()` — and anything else (tests, the lint CLI)
/// can construct one directly.
#[derive(Clone, Debug, PartialEq)]
pub struct Limits {
    /// On-chip weight buffer capacity in bytes; `None` disables the
    /// capacity check.
    pub weight_glb_bytes: Option<u64>,
    /// Weight storage width in bits (for compressed-size estimates).
    pub weight_bits: u32,
    /// Weight transfer codec (for compressed-size estimates).
    pub weight_scheme: CompressionScheme,
    /// Most tiled passes a single layer may take through the weight buffer
    /// before the graph is rejected. Tiling re-reads the layer's inputs
    /// once per pass, so a pathological pass count signals a config/model
    /// mismatch rather than a workable schedule.
    pub max_weight_passes: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            weight_glb_bytes: None,
            weight_bits: 8,
            weight_scheme: CompressionScheme::Bitmap,
            max_weight_passes: 64,
        }
    }
}

/// Verification failure: the diagnostics that made the graph unacceptable.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyError {
    /// Every finding, errors and warnings alike, in node order.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyError {
    /// Findings with [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let errors = self.errors().count();
        writeln!(
            f,
            "network verification failed with {errors} error(s), {} warning(s):",
            self.diagnostics.len() - errors
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

/// Verifies `net` (and `params`, when given) against `limits`, returning
/// every finding. An empty vector means the graph is clean.
///
/// The pass is purely static: no forward execution, no allocation beyond
/// the diagnostics themselves. Cost is `O(nodes)` plus one scan over each
/// weight tensor when a capacity limit is set.
pub fn verify(net: &Network, params: Option<&Params>, limits: &Limits) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if net.is_empty() {
        diags.push(Diagnostic::global(DiagKind::EmptyGraph));
        return diags;
    }

    // --- Topology and shapes: one input at node 0, then the shape rule. ---
    let first_ok = matches!(net.nodes()[0].op, Op::Input)
        && net.value_shape(0) == ValueShape::Map(net.input_shape());
    if !first_ok {
        diags.push(Diagnostic::global(DiagKind::NoInput));
    }
    let shapes = net.shapes();
    let mut consumers = vec![0usize; net.len()];
    for (id, node) in net.nodes().iter().enumerate() {
        if id > 0 && matches!(node.op, Op::Input) {
            diags.push(Diagnostic::at(net, id, DiagKind::ExtraInput));
        }
        for &src in node.inputs.iter().filter(|&&src| src < id) {
            consumers[src] += 1;
        }
        let (implied, findings) =
            implied_shape(&node.op, &node.inputs, &shapes[..id], net.input_shape());
        diags.extend(
            findings
                .into_iter()
                .map(|kind| Diagnostic::at(net, id, kind)),
        );
        if let Some(expected) = implied.filter(|&s| s != shapes[id]) {
            diags.push(Diagnostic::at(
                net,
                id,
                DiagKind::ShapeMismatch {
                    expected,
                    actual: shapes[id],
                },
            ));
        }
    }

    // --- Dead layers: every non-terminal node must feed something. ---
    let last = net.len() - 1;
    for (id, &uses) in consumers.iter().enumerate() {
        if uses == 0 && id != last {
            diags.push(Diagnostic::at(net, id, DiagKind::DeadLayer));
        }
    }

    // --- Params consistency. ---
    if let Some(params) = params {
        check_params(net, params, &mut diags);
    }

    // --- Capacity: compressed weights vs the on-chip buffer. ---
    if let Some(cap) = limits.weight_glb_bytes {
        check_glb(net, params, limits, cap, &mut diags);
    }

    diags
}

/// Graph-only verification with default limits (no capacity checks).
pub fn verify_network(net: &Network) -> Vec<Diagnostic> {
    verify(net, None, &Limits::default())
}

/// [`verify`], rejecting the graph if any [`Severity::Error`] finding
/// exists. Warnings alone do not fail, but ride along in the error's
/// diagnostic list when errors are present.
///
/// # Errors
///
/// Returns [`VerifyError`] carrying every diagnostic when at least one is
/// an error.
pub fn verify_strict(
    net: &Network,
    params: Option<&Params>,
    limits: &Limits,
) -> Result<(), VerifyError> {
    let diagnostics = verify(net, params, limits);
    if diagnostics.iter().any(|d| d.severity == Severity::Error) {
        Err(VerifyError { diagnostics })
    } else {
        Ok(())
    }
}

/// The shape rule, shared by [`verify`], `NetworkBuilder` and structured
/// pruning: the output shape `op` implies when it reads `inputs` in a
/// network fed `net_input`, plus every finding about the node itself.
///
/// `earlier` holds the output shapes of the nodes before this one, so an
/// input at or past `earlier.len()` is a forward reference. The shape is
/// `None` only alongside an error finding: a wrong arity, a forward
/// reference, a zero attribute, a vector where a map belongs, a residual
/// join of unequal maps, or an op that leaves no output elements.
pub fn implied_shape(
    op: &Op,
    inputs: &[NodeId],
    earlier: &[ValueShape],
    net_input: Shape3,
) -> (Option<ValueShape>, Vec<DiagKind>) {
    let mut findings = Vec::new();
    let arity = match op {
        Op::Input => 0,
        Op::Add { .. } => 2,
        _ => 1,
    };
    if inputs.len() != arity {
        findings.push(DiagKind::BadArity {
            expected: arity,
            got: inputs.len(),
        });
        return (None, findings);
    }
    for &src in inputs.iter().filter(|&&src| src >= earlier.len()) {
        findings.push(DiagKind::ForwardReference { input: src });
    }
    if !findings.is_empty() {
        return (None, findings);
    }
    // Arity and order are checked, so both indexings below are in bounds.
    let map_input = |idx: usize, findings: &mut Vec<DiagKind>| -> Option<Shape3> {
        let src = inputs[idx];
        let s = earlier[src].as_map();
        if s.is_none() {
            findings.push(DiagKind::NotAMap { input: src });
        }
        s
    };
    let implied = match op {
        Op::Input => Some(ValueShape::Map(net_input)),
        Op::Conv(spec) => {
            let mut ok = true;
            for (attr, v) in [
                ("kernel", spec.kernel),
                ("stride", spec.stride),
                ("out_channels", spec.out_channels),
            ] {
                if v == 0 {
                    findings.push(DiagKind::ZeroAttr { attr });
                    ok = false;
                }
            }
            let s = map_input(0, &mut findings);
            match (ok, s) {
                (true, Some(s)) => {
                    let oh = conv_out_dim(s.h, spec.kernel, spec.stride, spec.padding);
                    let ow = conv_out_dim(s.w, spec.kernel, spec.stride, spec.padding);
                    if oh == 0 || ow == 0 {
                        findings.push(DiagKind::StrideExceedsInput {
                            kernel: spec.kernel,
                            stride: spec.stride,
                            input: s,
                        });
                        None
                    } else {
                        Some(ValueShape::Map(Shape3::new(spec.out_channels, oh, ow)))
                    }
                }
                _ => None,
            }
        }
        Op::DwConv { kernel, stride, .. } => {
            let mut ok = true;
            for (attr, v) in [("kernel", *kernel), ("stride", *stride)] {
                if v == 0 {
                    findings.push(DiagKind::ZeroAttr { attr });
                    ok = false;
                }
            }
            let s = map_input(0, &mut findings);
            match (ok, s) {
                (true, Some(s)) => {
                    let oh = conv_out_dim(s.h, *kernel, *stride, Padding::Same);
                    let ow = conv_out_dim(s.w, *kernel, *stride, Padding::Same);
                    Some(ValueShape::Map(Shape3::new(s.c, oh, ow)))
                }
                _ => None,
            }
        }
        Op::Pool { factor, .. } => {
            if *factor == 0 {
                findings.push(DiagKind::ZeroAttr { attr: "factor" });
                None
            } else {
                map_input(0, &mut findings).map(|s| {
                    if s.h % factor != 0 || s.w % factor != 0 {
                        findings.push(DiagKind::PoolRemainder {
                            factor: *factor,
                            input: s,
                        });
                    }
                    ValueShape::Map(Shape3::new(s.c, s.h / factor, s.w / factor))
                })
            }
        }
        Op::Add { .. } => {
            let a = map_input(0, &mut findings);
            let b = map_input(1, &mut findings);
            match (a, b) {
                (Some(a), Some(b)) if a == b => Some(ValueShape::Map(a)),
                (Some(a), Some(b)) => {
                    findings.push(DiagKind::AddMismatch { left: a, right: b });
                    None
                }
                _ => None,
            }
        }
        Op::GlobalAvgPool => map_input(0, &mut findings).map(|s| ValueShape::Vector(s.c)),
        Op::Flatten => map_input(0, &mut findings).map(|s| ValueShape::Vector(s.len())),
        Op::Linear { out_features, .. } => {
            if *out_features == 0 {
                findings.push(DiagKind::ZeroAttr {
                    attr: "out_features",
                });
            }
            if !matches!(earlier[inputs[0]], ValueShape::Vector(_)) {
                findings.push(DiagKind::NotAVector { input: inputs[0] });
            }
            (*out_features > 0).then_some(ValueShape::Vector(*out_features))
        }
    };
    match implied {
        Some(shape) if shape.is_empty() => {
            findings.push(DiagKind::ZeroOutput { shape });
            (None, findings)
        }
        implied => (implied, findings),
    }
}

/// Checks params/graph index alignment and per-node weight geometry.
fn check_params(net: &Network, params: &Params, diags: &mut Vec<Diagnostic>) {
    if params.layers.len() != net.len() {
        diags.push(Diagnostic::global(DiagKind::RaggedParams {
            expected: net.len(),
            got: params.layers.len(),
        }));
        return;
    }
    for (id, node) in net.nodes().iter().enumerate() {
        let entry = &params.layers[id];
        let in_shape = node
            .inputs
            .first()
            .and_then(|&src| net.value_shape(src).as_map());
        match (&node.op, entry) {
            (Op::Conv(spec), Some(LayerParams::Conv { w, b, bn })) => {
                let in_c = in_shape.map(|s| s.c).unwrap_or(w.c());
                let want = (spec.out_channels, in_c, spec.kernel, spec.kernel);
                let got = (w.k(), w.c(), w.r(), w.s());
                if want != got {
                    diags.push(Diagnostic::at(
                        net,
                        id,
                        DiagKind::ParamShapeMismatch {
                            expected: format!("{}x{}x{}x{}", want.0, want.1, want.2, want.3),
                            actual: format!("{}x{}x{}x{}", got.0, got.1, got.2, got.3),
                        },
                    ));
                }
                // Per-channel companions must track the output width —
                // channel-removal passes that resize `w` but forget the
                // BN affine or bias leave these orphaned.
                for cover in [b.as_ref().map(Vec::len), bn.as_ref().map(Affine::channels)]
                    .into_iter()
                    .flatten()
                {
                    if cover != spec.out_channels {
                        diags.push(Diagnostic::at(
                            net,
                            id,
                            DiagKind::OrphanedBn {
                                expected: spec.out_channels,
                                got: cover,
                            },
                        ));
                    }
                }
            }
            (Op::DwConv { kernel, .. }, Some(LayerParams::DwConv { w, bn })) => {
                let in_c = in_shape.map(|s| s.c).unwrap_or(w.k());
                let want = (in_c, 1, *kernel, *kernel);
                let got = (w.k(), w.c(), w.r(), w.s());
                if want != got {
                    diags.push(Diagnostic::at(
                        net,
                        id,
                        DiagKind::ParamShapeMismatch {
                            expected: format!("{}x{}x{}x{}", want.0, want.1, want.2, want.3),
                            actual: format!("{}x{}x{}x{}", got.0, got.1, got.2, got.3),
                        },
                    ));
                }
                if let Some(bn) = bn {
                    if bn.channels() != in_c {
                        diags.push(Diagnostic::at(
                            net,
                            id,
                            DiagKind::OrphanedBn {
                                expected: in_c,
                                got: bn.channels(),
                            },
                        ));
                    }
                }
            }
            (
                Op::Linear { out_features, .. },
                Some(LayerParams::Linear {
                    w,
                    b,
                    in_features,
                    out_features: got_out,
                }),
            ) => {
                let want_in = node
                    .inputs
                    .first()
                    .map(|&src| net.value_shape(src).len())
                    .unwrap_or(*in_features);
                if *got_out != *out_features
                    || *in_features != want_in
                    || w.len() != in_features * got_out
                    || b.len() != *got_out
                {
                    diags.push(Diagnostic::at(
                        net,
                        id,
                        DiagKind::ParamShapeMismatch {
                            expected: format!("{out_features}x{want_in}"),
                            actual: format!("{got_out}x{in_features}"),
                        },
                    ));
                }
            }
            (Op::Conv(_) | Op::DwConv { .. } | Op::Linear { .. }, _) => {
                diags.push(Diagnostic::at(net, id, DiagKind::MissingParams));
            }
            _ => {}
        }
    }
}

/// Flags layers whose compressed weights would need more passes through
/// the on-chip weight buffer than `limits.max_weight_passes`.
fn check_glb(
    net: &Network,
    params: Option<&Params>,
    limits: &Limits,
    cap: u64,
    diags: &mut Vec<Diagnostic>,
) {
    if cap == 0 {
        return;
    }
    for id in net.weighted_nodes() {
        let weight_bytes = match params.map(|p| p.layers.get(id)) {
            Some(Some(Some(LayerParams::Conv { w, .. })))
            | Some(Some(Some(LayerParams::DwConv { w, .. }))) => {
                limits
                    .weight_scheme
                    .encoded_size(w.data(), limits.weight_bits)
                    .bytes
            }
            Some(Some(Some(LayerParams::Linear { w, .. }))) => {
                limits
                    .weight_scheme
                    .encoded_size(w, limits.weight_bits)
                    .bytes
            }
            // No params: bound below by the dense footprint.
            _ => dense_weight_bytes(net, id, limits.weight_bits),
        };
        let passes = weight_bytes.div_ceil(cap);
        if passes > limits.max_weight_passes {
            diags.push(Diagnostic::at(
                net,
                id,
                DiagKind::GlbOverflow {
                    weight_bytes,
                    capacity: cap,
                    passes,
                    max_passes: limits.max_weight_passes,
                },
            ));
        }
    }
}

/// Dense weight footprint of a node in bytes, from geometry alone.
fn dense_weight_bytes(net: &Network, id: NodeId, weight_bits: u32) -> u64 {
    let node = &net.nodes()[id];
    let in_shape = node
        .inputs
        .first()
        .and_then(|&src| net.value_shape(src).as_map());
    let elems = match &node.op {
        Op::Conv(spec) => {
            let in_c = in_shape.map(|s| s.c).unwrap_or(0);
            spec.out_channels * in_c * spec.kernel * spec.kernel
        }
        Op::DwConv { kernel, .. } => in_shape.map(|s| s.c).unwrap_or(0) * kernel * kernel,
        Op::Linear { out_features, .. } => {
            out_features
                * node
                    .inputs
                    .first()
                    .map(|&s| net.value_shape(s).len())
                    .unwrap_or(0)
        }
        _ => 0,
    };
    (elems as u64 * u64::from(weight_bits)).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ConvSpec, NetworkBuilder, Node};
    use hd_tensor::pool::PoolKind;

    fn clean_net() -> Network {
        let mut b = NetworkBuilder::new(3, 8, 8);
        let x = b.input();
        let x = b.conv(x, 4, 3, 1);
        let x = b.max_pool(x, 2);
        let x = b.global_avg_pool(x);
        b.linear(x, 10);
        b.build()
    }

    #[test]
    fn builder_output_is_clean() {
        let net = clean_net();
        let params = Params::init(&net, 3);
        assert!(verify(&net, Some(&params), &Limits::default()).is_empty());
        assert!(verify_strict(&net, Some(&params), &Limits::default()).is_ok());
    }

    #[test]
    fn zoo_victims_are_clean_under_preset_limits() {
        let limits = Limits {
            weight_glb_bytes: Some(128 * 1024),
            ..Limits::default()
        };
        for net in [
            crate::zoo::vgg_s(10),
            crate::zoo::resnet18(10),
            crate::zoo::alexnet(10),
            crate::zoo::mobilenet_v2(10),
        ] {
            let params = Params::init(&net, 1);
            let errors: Vec<_> = verify(&net, Some(&params), &limits)
                .into_iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(errors.is_empty(), "zoo net rejected: {errors:?}");
        }
    }

    #[test]
    fn restructured_graph_is_clean() {
        // Structured pruning rewrites shapes from scratch; verify must
        // accept the result without complaint.
        let mut b = NetworkBuilder::new(3, 8, 8);
        let x = b.input();
        let stem = b.conv(x, 8, 3, 1);
        let y = b.conv(stem, 8, 3, 1);
        let j = b.add(stem, y);
        let x = b.global_avg_pool(j);
        b.linear(x, 5);
        let net = b.build();
        let params = Params::init(&net, 21);
        let r =
            crate::prune::structured_prune(&net, &params, &crate::prune::StructuredCfg::default());
        assert!(verify_strict(&r.net, Some(&r.params), &Limits::default()).is_ok());
    }

    #[test]
    fn orphaned_bn_after_channel_removal_is_rejected() {
        let net = clean_net();
        let mut params = Params::init(&net, 7);
        // Simulate a broken channel-removal pass: shrink the conv weights
        // and spec but leave the BN affine at the old width.
        let keep = [true, true, false, false];
        let mut nodes = net.nodes().to_vec();
        if let Op::Conv(spec) = &mut nodes[1].op {
            spec.out_channels = 2;
        }
        let mut shapes: Vec<ValueShape> = (0..net.len()).map(|i| net.value_shape(i)).collect();
        shapes[1] = ValueShape::Map(Shape3::new(2, 8, 8));
        shapes[2] = ValueShape::Map(Shape3::new(2, 4, 4));
        shapes[3] = ValueShape::Vector(2);
        let broken = Network::from_raw_parts(
            nodes,
            net.input_shape(),
            shapes,
            (0..net.len()).map(|i| net.name(i).to_string()).collect(),
        );
        if let Some(LayerParams::Conv { w, .. }) = &mut params.layers[1] {
            *w = w.select_k(&keep);
        }
        if let Some(LayerParams::Linear { w, in_features, .. }) = &mut params.layers[4] {
            *in_features = 2;
            w.truncate(10 * 2);
        }
        let diags = verify(&broken, Some(&params), &Limits::default());
        assert!(
            diags.iter().any(|d| matches!(
                &d.kind,
                DiagKind::OrphanedBn {
                    expected: 2,
                    got: 4
                }
            )),
            "orphaned BN not caught: {diags:?}"
        );
        assert_eq!(
            diags
                .iter()
                .find(|d| matches!(d.kind, DiagKind::OrphanedBn { .. }))
                .map(|d| d.kind.rule()),
            Some("orphaned-bn")
        );
    }

    #[test]
    fn residual_add_channel_mismatch_is_rejected() {
        // Shrinking only one operand of a residual add must trip
        // AddMismatch: a restructure pass has to keep the class unified.
        let mut b = NetworkBuilder::new(3, 8, 8);
        let x = b.input();
        let stem = b.conv(x, 8, 3, 1);
        let y = b.conv(stem, 8, 3, 1);
        let j = b.add(stem, y);
        b.global_avg_pool(j);
        let net = b.build();
        let mut nodes = net.nodes().to_vec();
        if let Op::Conv(spec) = &mut nodes[2].op {
            spec.out_channels = 4;
        }
        let mut shapes: Vec<ValueShape> = (0..net.len()).map(|i| net.value_shape(i)).collect();
        shapes[2] = ValueShape::Map(Shape3::new(4, 8, 8));
        let broken = Network::from_raw_parts(
            nodes,
            net.input_shape(),
            shapes,
            (0..net.len()).map(|i| net.name(i).to_string()).collect(),
        );
        let diags = verify_network(&broken);
        assert!(
            diags.iter().any(|d| matches!(
                &d.kind,
                DiagKind::AddMismatch { left, right }
                    if left.c != right.c
            )),
            "add mismatch not caught: {diags:?}"
        );
    }

    #[test]
    fn conv_bias_length_mismatch_is_rejected() {
        let mut b = NetworkBuilder::new(3, 8, 8);
        let x = b.input();
        let x = b.conv_spec(
            x,
            ConvSpec {
                bias: true,
                batch_norm: false,
                ..ConvSpec::standard(4, 3, 1)
            },
        );
        b.global_avg_pool(x);
        let net = b.build();
        let mut params = Params::init(&net, 9);
        if let Some(LayerParams::Conv { b: Some(b), .. }) = &mut params.layers[1] {
            b.pop();
        }
        let diags = verify(&net, Some(&params), &Limits::default());
        assert!(
            diags.iter().any(|d| matches!(
                &d.kind,
                DiagKind::OrphanedBn {
                    expected: 4,
                    got: 3
                }
            )),
            "short bias not caught: {diags:?}"
        );
    }

    #[test]
    fn shape_mismatch_is_reported_with_both_shapes() {
        let net = clean_net();
        let mut shapes: Vec<ValueShape> = (0..net.len()).map(|i| net.value_shape(i)).collect();
        shapes[1] = ValueShape::Map(Shape3::new(4, 6, 6)); // conv really yields 4x8x8
        let broken = Network::from_raw_parts(
            net.nodes().to_vec(),
            net.input_shape(),
            shapes,
            (0..net.len()).map(|i| net.name(i).to_string()).collect(),
        );
        let diags = verify_network(&broken);
        assert!(diags.iter().any(|d| matches!(
            &d.kind,
            DiagKind::ShapeMismatch { expected, actual }
                if *expected == ValueShape::Map(Shape3::new(4, 8, 8))
                    && *actual == ValueShape::Map(Shape3::new(4, 6, 6))
        )));
        // The mismatch cascades into the pool node's shape too; both carry
        // node ids and layer paths.
        for d in &diags {
            assert!(d.node.is_some());
            assert!(!d.path.is_empty());
        }
    }

    #[test]
    fn dead_layer_is_a_warning() {
        let mut b = NetworkBuilder::new(2, 8, 8);
        let x = b.input();
        let _dead = b.conv(x, 4, 3, 1);
        let x2 = b.conv(x, 4, 3, 1);
        b.global_avg_pool(x2);
        let net = b.build();
        let diags = verify_network(&net);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(matches!(diags[0].kind, DiagKind::DeadLayer));
        assert_eq!(diags[0].node, Some(1));
        // Warnings alone do not fail strict verification.
        assert!(verify_strict(&net, None, &Limits::default()).is_ok());
    }

    #[test]
    fn forward_reference_and_extra_input_rejected() {
        let shape = Shape3::new(2, 8, 8);
        let net = Network::from_raw_parts(
            vec![
                Node {
                    op: Op::Input,
                    inputs: vec![],
                },
                Node {
                    op: Op::Input,
                    inputs: vec![],
                },
                Node {
                    op: Op::Conv(ConvSpec::standard(4, 3, 1)),
                    inputs: vec![3],
                },
                Node {
                    op: Op::Pool {
                        factor: 2,
                        kind: PoolKind::Max,
                    },
                    inputs: vec![2],
                },
            ],
            shape,
            vec![
                ValueShape::Map(shape),
                ValueShape::Map(shape),
                ValueShape::Map(Shape3::new(4, 8, 8)),
                ValueShape::Map(Shape3::new(4, 4, 4)),
            ],
            vec![
                "input0".into(),
                "input1".into(),
                "conv2".into(),
                "pool3".into(),
            ],
        );
        let diags = verify_network(&net);
        assert!(diags.iter().any(|d| matches!(d.kind, DiagKind::ExtraInput)));
        assert!(diags
            .iter()
            .any(|d| matches!(d.kind, DiagKind::ForwardReference { input: 3 })));
        assert!(verify_strict(&net, None, &Limits::default()).is_err());
    }

    #[test]
    fn valid_conv_larger_than_input_rejected() {
        let shape = Shape3::new(1, 4, 4);
        let mut spec = ConvSpec::standard(2, 5, 1);
        spec.padding = Padding::Valid;
        let net = Network::from_raw_parts(
            vec![
                Node {
                    op: Op::Input,
                    inputs: vec![],
                },
                Node {
                    op: Op::Conv(spec),
                    inputs: vec![0],
                },
            ],
            shape,
            vec![
                ValueShape::Map(shape),
                ValueShape::Map(Shape3::new(2, 0, 0)),
            ],
            vec!["input0".into(), "conv1".into()],
        );
        let diags = verify_network(&net);
        assert!(diags.iter().any(|d| matches!(
            d.kind,
            DiagKind::StrideExceedsInput {
                kernel: 5,
                stride: 1,
                ..
            }
        )));
    }

    #[test]
    fn glb_overflow_reports_pass_count() {
        let net = clean_net();
        let params = Params::init(&net, 3);
        let limits = Limits {
            weight_glb_bytes: Some(1),
            max_weight_passes: 4,
            ..Limits::default()
        };
        let diags = verify(&net, Some(&params), &limits);
        let overflow = diags
            .iter()
            .find(|d| matches!(d.kind, DiagKind::GlbOverflow { .. }))
            .expect("conv weights cannot fit a 1-byte buffer");
        if let DiagKind::GlbOverflow {
            passes, capacity, ..
        } = overflow.kind
        {
            assert_eq!(capacity, 1);
            assert!(passes > 4);
        }
    }

    #[test]
    fn param_geometry_mismatch_detected() {
        let net = clean_net();
        // Params initialized for a *different* conv width.
        let mut other = NetworkBuilder::new(3, 8, 8);
        let x = other.input();
        let x = other.conv(x, 8, 3, 1);
        let x = other.max_pool(x, 2);
        let x = other.global_avg_pool(x);
        other.linear(x, 10);
        let params = Params::init(&other.build(), 3);
        let diags = verify(&net, Some(&params), &Limits::default());
        assert!(diags
            .iter()
            .any(|d| matches!(d.kind, DiagKind::ParamShapeMismatch { .. })));
    }

    #[test]
    fn missing_and_ragged_params_detected() {
        let net = clean_net();
        let mut params = Params::init(&net, 3);
        params.layers[1] = None;
        let diags = verify(&net, Some(&params), &Limits::default());
        assert!(diags
            .iter()
            .any(|d| matches!(d.kind, DiagKind::MissingParams) && d.node == Some(1)));
        params.layers.pop();
        let diags = verify(&net, Some(&params), &Limits::default());
        assert!(diags
            .iter()
            .any(|d| matches!(d.kind, DiagKind::RaggedParams { .. })));
    }

    #[test]
    fn pool_remainder_is_a_warning() {
        let mut b = NetworkBuilder::new(1, 9, 9);
        let x = b.input();
        let x = b.max_pool(x, 2); // 9 is not divisible by 2
        b.global_avg_pool(x);
        let net = b.build();
        let diags = verify_network(&net);
        assert!(diags.iter().any(
            |d| matches!(d.kind, DiagKind::PoolRemainder { factor: 2, .. })
                && d.severity == Severity::Warning
        ));
    }

    #[test]
    fn display_formats_are_stable() {
        let net = clean_net();
        let d = Diagnostic::at(
            &net,
            1,
            DiagKind::ShapeMismatch {
                expected: ValueShape::Map(Shape3::new(4, 8, 8)),
                actual: ValueShape::Vector(3),
            },
        );
        assert_eq!(
            d.to_string(),
            "error[shape-mismatch] #1 conv1: recorded output shape vec[3] but the op implies 4x8x8"
        );
    }
}

//! The HuffDuff probing attack (paper Algorithm 1).
//!
//! For each layer observed in the DRAM trace, the prober:
//!
//! 1. collects the layer's output transfer volume for every probe shift —
//!    volume equality is nnz equality, because the codec is monotone in nnz,
//! 2. refines the measured [`Pattern`] across independent random probes
//!    (one-sided errors only merge classes, never split them — §5.4),
//! 3. asks the [`crate::symbolic`] engine for the pattern each geometry hypothesis
//!    would produce on the recovered prefix network, and keeps hypotheses
//!    whose pattern the measurement coarsens,
//! 4. extends the symbolic prefix with the selected geometry and moves on.
//!
//! Channel counts are invisible to the boundary effect (§6.4); they come
//! from the timing channel in [`crate::timing`].

use crate::channel::{Observation, ObservationModel, ObserveError};
use crate::pattern::Pattern;
use crate::probe::stripe_probes;
use crate::symbolic::{
    multiset_signature, sym_add, ConvHypothesis, Sym, SymConvLayer, SymPoolLayer, VarSource,
};
use hd_tensor::conv::{conv_out_dim, Padding};
use hd_tensor::{GemmShape, Tensor3};
use hd_trace::{TensorId, TraceAnalysis};
use std::fmt;

/// Recovered geometry class of one observed layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Convolution with recovered kernel size and stride.
    Conv {
        /// Symmetric kernel size `R = S`.
        kernel: usize,
        /// Symmetric stride.
        stride: usize,
    },
    /// Spatial pooling with recovered factor.
    Pool {
        /// Window == stride.
        factor: usize,
    },
    /// Elementwise residual join.
    Add,
    /// Global spatial pooling (weightless, no finite pooling factor fits).
    GlobalPool,
    /// Fully connected head layer (boundary effect absent).
    Dense,
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerKind::Conv { kernel, stride } => write!(f, "conv {kernel}x{kernel}/{stride}"),
            LayerKind::Pool { factor } => write!(f, "pool /{factor}"),
            LayerKind::Add => write!(f, "add"),
            LayerKind::GlobalPool => write!(f, "global-pool"),
            LayerKind::Dense => write!(f, "dense"),
        }
    }
}

/// One recovered layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveredLayer {
    /// Execution index (matches [`hd_trace::LayerObs::index`]).
    pub index: usize,
    /// Observed input tensor ids.
    pub inputs: Vec<TensorId>,
    /// Recovered geometry (point estimate).
    pub kind: LayerKind,
    /// Other geometries equally consistent with every observation. Deep
    /// layers whose feature saturates the (narrow) map can be genuinely
    /// ambiguous — the boundary-effect observable carries no more bits
    /// there — and the point estimate then follows a common-CNN prior.
    pub alternatives: Vec<LayerKind>,
    /// Inferred output spatial size `(P, Q)`, if the layer produces a map.
    pub out_hw: Option<(usize, usize)>,
    /// The refined measured pattern (diagnostics).
    pub pattern: Pattern,
    /// Observed compressed weight bytes (0 when the channel hides sizes).
    pub weight_bytes: u64,
    /// Observed compressed output bytes from the first probe run (0 when
    /// the channel hides volumes).
    pub output_bytes: u64,
    /// Observed encode window in picoseconds from the first probe run
    /// (0 when the channel hides timing).
    pub encode_window_ps: u64,
    /// Observed GEMM call dimensions, when the channel exposes them.
    pub gemm: Option<GemmShape>,
}

/// Prober configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ProberConfig {
    /// Number of stripe positions swept from the left edge.
    pub shifts: usize,
    /// Maximum independent random probe families.
    pub max_probes: usize,
    /// Stop early once the refined patterns have been stable for this many
    /// consecutive families.
    pub stable_probes: usize,
    /// Candidate kernel sizes.
    pub kernels: Vec<usize>,
    /// Candidate strides.
    pub strides: Vec<usize>,
    /// Candidate pooling factors.
    pub pools: Vec<usize>,
    /// RNG seed (probe amplitudes + symbolic variables).
    pub seed: u64,
    /// Worker threads used to fan one probe family's `shifts` inferences
    /// across cores. `None` (the default) uses all available cores;
    /// `Some(1)` is the serial path. Any setting produces bit-identical
    /// [`ProberResult`]s — per-probe seeds are fixed up front and results
    /// are reduced in probe-index order, never in completion order.
    pub parallelism: Option<usize>,
}

impl Default for ProberConfig {
    fn default() -> Self {
        ProberConfig {
            shifts: 24,
            max_probes: 16,
            stable_probes: 3,
            kernels: vec![1, 3, 5, 7],
            strides: vec![1, 2],
            pools: vec![2, 3, 4],
            seed: 0x5EED,
            parallelism: None,
        }
    }
}

/// A rejected attack-side configuration.
///
/// Configs are plain structs; [`probe`] and [`crate::attack::run`] validate
/// theirs first ([`ProberConfig::validate`],
/// [`crate::attack::AttackConfig::validate`]) and reject configurations
/// that would silently degenerate (a campaign with zero probes, a
/// hypothesis grid with no candidates, a zero-thread executor) before any
/// device run happens.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A count that must be positive (shifts, probe families, classes…)
    /// was zero.
    ZeroField {
        /// Which field was zero.
        field: &'static str,
    },
    /// A candidate list (kernels, strides, pools) was empty — no
    /// hypothesis could ever be accepted.
    EmptyCandidates {
        /// Which list was empty.
        field: &'static str,
    },
    /// `parallelism == Some(0)`: an executor with no worker threads.
    /// Use `Some(1)` for the serial path or `None` for all cores.
    ZeroParallelism,
    /// A fraction (first-layer sparsity bound) was outside `(0, 1]`.
    FractionOutOfRange {
        /// Which field was rejected.
        field: &'static str,
        /// The rejected value.
        got: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroField { field } => write!(f, "{field} must be nonzero"),
            ConfigError::EmptyCandidates { field } => {
                write!(f, "{field} must list at least one candidate")
            }
            ConfigError::ZeroParallelism => write!(
                f,
                "parallelism Some(0) is meaningless; use Some(1) for serial or None for all cores"
            ),
            ConfigError::FractionOutOfRange { field, got } => {
                write!(f, "{field} must be in (0, 1], got {got}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ProberConfig {
    /// Checks the configuration for values that would silently degenerate
    /// the campaign: [`probe`] calls this before any device run.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for zero counts, empty candidate lists, or
    /// `parallelism == Some(0)`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [
            ("shifts", self.shifts),
            ("max_probes", self.max_probes),
            ("stable_probes", self.stable_probes),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroField { field });
            }
        }
        for (field, list) in [
            ("kernels", &self.kernels),
            ("strides", &self.strides),
            ("pools", &self.pools),
        ] {
            if list.is_empty() {
                return Err(ConfigError::EmptyCandidates { field });
            }
        }
        if self.parallelism == Some(0) {
            return Err(ConfigError::ZeroParallelism);
        }
        Ok(())
    }

    /// Returns this config with the parallelism knob set.
    pub fn with_parallelism(mut self, parallelism: Option<usize>) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Worker-thread count the executor will actually use for `jobs`
    /// independent inferences: [`hd_pool::participants`] of the configured
    /// [`ProberConfig::parallelism`] (`None` asks for every core).
    pub fn effective_parallelism(&self, jobs: usize) -> usize {
        hd_pool::participants(self.parallelism.unwrap_or(usize::MAX), jobs)
    }
}

/// Prober output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProberResult {
    /// Recovered layers in execution order.
    pub layers: Vec<RecoveredLayer>,
    /// Probe families actually consumed before convergence.
    pub probes_used: usize,
    /// Device inferences performed (`probes_used * shifts`).
    pub runs_used: usize,
    /// Trace analysis of the first probe run, when the observation channel
    /// exposes one (`None` for address-blind channels like timing/GEMM).
    pub structure: Option<TraceAnalysis>,
}

impl ProberResult {
    /// Human-readable summary.
    pub fn report(&self) -> String {
        let mut s = format!(
            "prober: {} layers recovered with {} probes ({} device runs)\n",
            self.layers.len(),
            self.probes_used,
            self.runs_used
        );
        for l in &self.layers {
            s.push_str(&format!(
                "  layer {:>2}: {:<12} out_hw={:?} pattern={}\n",
                l.index,
                l.kind.to_string(),
                l.out_hw,
                l.pattern
            ));
        }
        s
    }
}

/// Errors from the probing attack.
#[derive(Clone, Debug, PartialEq)]
pub enum ProbeError {
    /// The bus trace could not be analyzed.
    Trace(hd_trace::AnalyzeTraceError),
    /// The device refused a probe image (its shape is not the device's
    /// input shape); callers probing many targets can skip this one.
    Device(hd_accel::DeviceError),
    /// The chosen observation channel does not exist on this target.
    ChannelUnavailable(&'static str),
    /// Probe runs disagreed on the number of layers (non-static victim).
    UnstableStructure,
    /// The prober configuration is invalid; no device run happened.
    Config(ConfigError),
}

impl fmt::Display for ProbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeError::Trace(e) => write!(f, "trace analysis failed: {e}"),
            ProbeError::Device(e) => write!(f, "device simulation failed: {e}"),
            ProbeError::ChannelUnavailable(why) => write!(f, "channel unavailable: {why}"),
            ProbeError::UnstableStructure => {
                write!(f, "probe runs produced inconsistent layer structures")
            }
            ProbeError::Config(e) => write!(f, "invalid prober config: {e}"),
        }
    }
}

impl std::error::Error for ProbeError {}

impl From<hd_trace::AnalyzeTraceError> for ProbeError {
    fn from(e: hd_trace::AnalyzeTraceError) -> Self {
        ProbeError::Trace(e)
    }
}

impl From<ObserveError> for ProbeError {
    fn from(e: ObserveError) -> Self {
        match e {
            ObserveError::Trace(e) => ProbeError::Trace(e),
            ObserveError::Device(e) => ProbeError::Device(e),
            ObserveError::ChannelUnavailable(why) => ProbeError::ChannelUnavailable(why),
        }
    }
}

/// Runs the probing attack against a target.
///
/// Fans each family's inferences across up to `cfg.parallelism` scoped
/// threads (see `run_family`); results are bit-identical at any setting.
///
/// # Errors
///
/// Returns [`ProbeError::Config`] if `cfg` fails [`ProberConfig::validate`],
/// and [`ProbeError`] if traces cannot be analyzed or the victim's layer
/// structure varies across runs.
pub fn probe(
    target: &dyn ObservationModel,
    cfg: &ProberConfig,
) -> Result<ProberResult, ProbeError> {
    cfg.validate().map_err(ProbeError::Config)?;
    let _probe_span = hd_obs::span("prober.probe", "");
    let shape = target.input_shape();
    let shifts = cfg.shifts.min(shape.w);
    let families = stripe_probes(shape, shifts, cfg.max_probes, cfg.seed);
    let workers = cfg.effective_parallelism(shifts);

    // --- Collect measured patterns, probing until they stabilize. ---
    //
    // Families stay sequential (the early-stop decision after each family
    // depends on all earlier ones), but the `shifts` inferences inside one
    // family are independent and fan out across `workers` threads.
    let mut first: Option<Observation> = None;
    let mut bytes_per_family: Vec<Vec<Vec<u64>>> = Vec::new(); // [family][shift][layer]
    let mut refined: Vec<Pattern> = Vec::new();
    let mut stable_for = 0usize;
    let mut probes_used = 0usize;

    for (family_idx, family) in families.iter().enumerate() {
        let _family_span = hd_obs::span("prober.family", "");
        hd_obs::counter_add("prober.families", "", 1);
        if hd_obs::enabled() {
            // Per-family run counts; `counter_total("prober.runs")` gives
            // the campaign total. The label format! only runs when enabled.
            hd_obs::counter_add(
                "prober.runs",
                &format!("family{family_idx}"),
                family.images.len() as u64,
            );
        }
        let observations = run_family(target, &family.images, workers)?;
        let mut bytes_this: Vec<Vec<u64>> = Vec::with_capacity(shifts);
        for obs in observations {
            match &first {
                None => {
                    bytes_this.push(obs.signal_per_layer());
                    first = Some(obs);
                }
                Some(f) => {
                    if obs.layers.len() != f.layers.len() {
                        return Err(ProbeError::UnstableStructure);
                    }
                    bytes_this.push(obs.signal_per_layer());
                }
            }
        }
        probes_used += 1;
        bytes_per_family.push(bytes_this);

        // Refine patterns layer by layer.
        #[expect(
            clippy::unwrap_used,
            reason = "cfg.validate()? at the top guarantees shifts >= 1, so the first family sets it"
        )]
        let n_layers = first.as_ref().unwrap().layers.len();
        let mut changed = false;
        for l in 0..n_layers {
            #[expect(clippy::unwrap_used, reason = "pushed to just above, never empty here")]
            let series: Vec<u64> = bytes_per_family
                .last()
                .unwrap()
                .iter()
                .map(|per_layer| per_layer[l])
                .collect();
            let p = Pattern::of(&series);
            if refined.len() <= l {
                refined.push(p);
                changed = true;
            } else {
                let r = refined[l].refine(&p);
                if r != refined[l] {
                    refined[l] = r;
                    changed = true;
                }
            }
        }
        if changed {
            stable_for = 0;
        } else {
            stable_for += 1;
            if stable_for >= cfg.stable_probes {
                break;
            }
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "cfg.validate()? at the top guarantees max_probes, shifts >= 1, so a probe ran"
    )]
    let first = first.expect("at least one probe ran");

    // --- Classify each layer against symbolic hypotheses. ---
    let mut vars = VarSource::new(cfg.seed ^ 0xC0FFEE);
    let mut tensor_rows: Vec<Option<Vec<Vec<Sym>>>> = vec![None; first.tensor_count];
    let mut tensor_hw: Vec<Option<(usize, usize)>> = vec![None; first.tensor_count];
    // Channel counts per tensor, where the channel reveals them (only the
    // GEMM channel does: `m` = live output channels). The boundary-effect
    // channels leave everything past the input `None` — channel counts are
    // invisible to them (§6.4) and come from timing ratios instead.
    let mut tensor_c: Vec<Option<usize>> = vec![None; first.tensor_count];
    tensor_rows[0] = Some(crate::symbolic::impulse_rows(shape.w, shifts, &mut vars));
    tensor_hw[0] = Some((shape.h, shape.w));
    tensor_c[0] = Some(shape.c);

    let n_layers = first.layers.len();
    // A layer is "in the trunk" while any weightless layer (pool/add/GAP)
    // still executes after it; past the last one, weighted layers with no
    // boundary signal are head (dense) layers. Channels that hide weight
    // sizes see no weightless layers, so everything classifies as head —
    // by design: without sizes the trunk/head split is unobservable.
    let mut in_trunk = vec![false; n_layers];
    let mut seen_weightless = false;
    for i in (0..n_layers).rev() {
        in_trunk[i] = seen_weightless;
        if first.layers[i].weight_bytes == Some(0) {
            seen_weightless = true;
        }
    }

    let mut layers: Vec<RecoveredLayer> = Vec::with_capacity(n_layers);
    let mut confidences: Vec<Confidence> = Vec::with_capacity(n_layers);
    for obs in &first.layers {
        let meas = refined[obs.index].clone();

        // GEMM evidence short-circuits the symbolic engine: the call
        // dimensions name the geometry directly (Cache-Telepathy).
        if let Some(g) = obs.gemm {
            let in_hw = obs.inputs.first().and_then(|&src| tensor_hw[src]);
            let in_c = obs.inputs.first().and_then(|&src| tensor_c[src]);
            let classified = classify_gemm(g, in_hw, in_c, cfg);
            tensor_rows[obs.output] = None;
            tensor_hw[obs.output] = classified.hw;
            tensor_c[obs.output] = Some(g.m);
            confidences.push(classified.confidence);
            layers.push(RecoveredLayer {
                index: obs.index,
                inputs: obs.inputs.clone(),
                kind: classified.kind,
                alternatives: classified.alternatives,
                out_hw: classified.hw,
                pattern: meas,
                weight_bytes: obs.weight_bytes.unwrap_or(0),
                output_bytes: obs.output_bytes.unwrap_or(0),
                encode_window_ps: obs.encode_window_ps.unwrap_or(0),
                gemm: Some(g),
            });
            continue;
        }

        // Residual-join consistency: both inputs of an Add must share the
        // same spatial size. When they disagree, the lower-confidence
        // branch's producer (typically a signal-free 1x1/2 projection) has
        // its stride corrected to match the trusted branch, and its
        // symbolic state is rebuilt — stopping misclassification cascades.
        if obs.inputs.len() == 2 && obs.weight_bytes == Some(0) {
            reconcile_join(
                &obs.inputs,
                &mut layers,
                &confidences,
                &mut tensor_rows,
                &mut tensor_hw,
                &mut vars,
            );
        }

        let input_rows: Vec<Option<&Vec<Vec<Sym>>>> = obs
            .inputs
            .iter()
            .map(|&src| tensor_rows[src].as_ref())
            .collect();

        let ctx = LayerContext {
            weight_bytes: obs.weight_bytes,
            input_bytes: obs.input_bytes,
            output_bytes: obs.output_bytes,
            in_trunk: in_trunk[obs.index],
            is_last: obs.index + 1 == n_layers,
        };
        let classified = classify_layer(
            &ctx,
            &input_rows,
            &obs.inputs
                .iter()
                .map(|&src| tensor_hw[src])
                .collect::<Vec<_>>(),
            &meas,
            cfg,
            &mut vars,
        );

        tensor_rows[obs.output] = classified.rows;
        tensor_hw[obs.output] = classified.hw;
        confidences.push(classified.confidence);
        layers.push(RecoveredLayer {
            index: obs.index,
            inputs: obs.inputs.clone(),
            kind: classified.kind,
            alternatives: classified.alternatives,
            out_hw: classified.hw,
            pattern: meas,
            weight_bytes: obs.weight_bytes.unwrap_or(0),
            output_bytes: obs.output_bytes.unwrap_or(0),
            encode_window_ps: obs.encode_window_ps.unwrap_or(0),
            gemm: None,
        });
    }

    Ok(ProberResult {
        layers,
        probes_used,
        runs_used: probes_used * shifts,
        structure: first.structure,
    })
}

/// Runs one probe inference through the observation model.
///
/// Telemetry prep (wall-clock read) only runs when enabled; the disabled
/// path is a single relaxed atomic load, and the enabled path allocates
/// nothing per probe (static names, empty labels).
fn run_one(target: &dyn ObservationModel, img: &Tensor3) -> Result<Observation, ProbeError> {
    let shift_timer = if hd_obs::enabled() {
        Some((hd_obs::span("prober.shift", ""), hd_obs::monotonic_us()))
    } else {
        None
    };
    hd_obs::counter_add("prober.probe_runs", "", 1);
    let obs = target.observe(img)?;
    if let Some((_span, t0)) = shift_timer {
        let elapsed_us = hd_obs::monotonic_us().saturating_sub(t0);
        hd_obs::observe("prober.shift_latency_us", "", elapsed_us as f64);
    }
    Ok(obs)
}

/// Runs every probe image of one family against the target and returns the
/// observations **in image-index order**, regardless of scheduling.
///
/// [`hd_pool::try_map`] fans the images across `workers` participants that
/// claim one image at a time, and returns exactly what the serial loop
/// returns: the observations in index order, or the error of the lowest
/// failing image, with no image above a published failure started.
/// `Device::run` derives any defence noise from the image, not from shared
/// mutable state, so results are bit-identical at any worker count.
fn run_family(
    target: &dyn ObservationModel,
    images: &[Tensor3],
    workers: usize,
) -> Result<Vec<Observation>, ProbeError> {
    hd_pool::try_map(images.len(), workers, |i| run_one(target, &images[i]))
}

/// How strongly the observations pinned down a layer's geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Confidence {
    /// No boundary signal at all; a prior filled the gap.
    Default,
    /// Measurement consistent with, but strictly coarser than, the choice.
    Coarse,
    /// A hypothesis pattern matched the measurement exactly.
    Exact,
}

struct Classified {
    kind: LayerKind,
    alternatives: Vec<LayerKind>,
    rows: Option<Vec<Vec<Sym>>>,
    hw: Option<(usize, usize)>,
    confidence: Confidence,
}

impl Classified {
    fn new(
        kind: LayerKind,
        alternatives: Vec<LayerKind>,
        rows: Option<Vec<Vec<Sym>>>,
        hw: Option<(usize, usize)>,
        confidence: Confidence,
    ) -> Self {
        Classified {
            kind,
            alternatives,
            rows,
            hw,
            confidence,
        }
    }
}

/// Observation context for one layer's classification. Fields are `None`
/// when the channel hides them (restricted channels degrade to priors).
struct LayerContext {
    weight_bytes: Option<u64>,
    input_bytes: Option<u64>,
    output_bytes: Option<u64>,
    /// Whether any weightless layer (pool/add/GAP) executes later — i.e.
    /// this layer still sits inside the convolutional trunk.
    in_trunk: bool,
    /// Whether this is the final observed layer (the classifier position).
    is_last: bool,
}

/// Repairs a residual join whose two input branches disagree on spatial
/// size: the producer of the less-trusted branch gets its stride replaced
/// so its output matches the trusted branch, and its symbolic rows are
/// rebuilt with the corrected geometry.
fn reconcile_join(
    inputs: &[TensorId],
    layers: &mut [RecoveredLayer],
    confidences: &[Confidence],
    tensor_rows: &mut [Option<Vec<Vec<Sym>>>],
    tensor_hw: &mut [Option<(usize, usize)>],
    vars: &mut VarSource,
) {
    let (ta, tb) = (inputs[0], inputs[1]);
    let (Some(hwa), Some(hwb)) = (tensor_hw[ta], tensor_hw[tb]) else {
        return;
    };
    if hwa == hwb {
        return;
    }
    // Producer layer of tensor t is layer t-1 (the network input, tensor 0,
    // has no producer and is never the wrong branch to fix).
    let conf_of = |t: TensorId| -> Confidence {
        if t == 0 {
            Confidence::Exact
        } else {
            confidences
                .get(t - 1)
                .copied()
                .unwrap_or(Confidence::Default)
        }
    };
    let (fix_tensor, target_hw) = if conf_of(ta) >= conf_of(tb) {
        (tb, hwa)
    } else {
        (ta, hwb)
    };
    if fix_tensor == 0 {
        return;
    }
    let producer = fix_tensor - 1;
    let LayerKind::Conv { kernel, .. } = layers[producer].kind else {
        return;
    };
    let src = layers[producer].inputs[0];
    let Some((_, src_w)) = tensor_hw[src] else {
        return;
    };
    if target_hw.1 == 0 || src_w < target_hw.1 {
        return;
    }
    let stride = (src_w as f64 / target_hw.1 as f64).round().max(1.0) as usize;
    let hyp = ConvHypothesis { kernel, stride };
    let layer = SymConvLayer::new(hyp, vars);
    let new_rows = tensor_rows[src]
        .as_ref()
        .map(|rows| rows.iter().map(|r| layer.apply(r)).collect::<Vec<_>>());
    tensor_rows[fix_tensor] = new_rows;
    tensor_hw[fix_tensor] = Some(target_hw);
    layers[producer].kind = LayerKind::Conv {
        kernel: hyp.kernel,
        stride: hyp.stride,
    };
    layers[producer].out_hw = Some(target_hw);
}

fn classify_layer(
    ctx: &LayerContext,
    input_rows: &[Option<&Vec<Vec<Sym>>>],
    input_hw: &[Option<(usize, usize)>],
    meas: &Pattern,
    cfg: &ProberConfig,
    vars: &mut VarSource,
) -> Classified {
    // Residual join: two inputs.
    if input_rows.len() == 2 {
        if let (Some(a), Some(b)) = (input_rows[0], input_rows[1]) {
            // A length mismatch means one branch's stride was misjudged;
            // degrade gracefully (layers downstream of the join are then
            // classified without a symbolic prefix).
            if a.len() == b.len() && a.iter().zip(b).all(|(ra, rb)| ra.len() == rb.len()) {
                let rows: Vec<Vec<Sym>> = a.iter().zip(b).map(|(ra, rb)| sym_add(ra, rb)).collect();
                return Classified::new(
                    LayerKind::Add,
                    Vec::new(),
                    Some(rows),
                    input_hw[0],
                    Confidence::Exact,
                );
            }
        }
        return Classified::new(
            LayerKind::Add,
            Vec::new(),
            None,
            input_hw[0],
            Confidence::Coarse,
        );
    }

    let Some(rows) = input_rows.first().copied().flatten() else {
        // Upstream geometry already lost (past the head).
        return Classified::new(
            LayerKind::Dense,
            Vec::new(),
            None,
            None,
            Confidence::Default,
        );
    };
    let hw = input_hw[0];

    if ctx.weight_bytes == Some(0) {
        // Pooling (or global pooling, which matches no finite factor).
        // A factor-f pool shrinks the transfer volume by at most ~f^2
        // (modulo density changes); global pooling collapses it entirely,
        // so a volume sanity check separates the two even when the tiny
        // pooled output's nnz saturates (pattern all-equal).
        let mut accepted: Vec<(usize, Pattern, SymPoolLayer)> = Vec::new();
        for &factor in &cfg.pools {
            // Max pooling can only shrink the encoded volume by at most
            // f^2: the bitmap shrinks by exactly f^2 and each output cell
            // is non-zero iff its window holds any non-zero, so
            // out * f^2 >= in (up to byte rounding). Global pooling
            // collapses far below that; 1.5x slack absorbs the rounding.
            let volume_ok = match (ctx.output_bytes, ctx.input_bytes) {
                (Some(out), Some(inp)) => {
                    out.saturating_mul((factor * factor * 3) as u64) >= inp.saturating_mul(2)
                }
                // A channel hiding volumes cannot rule the factor out.
                _ => true,
            };
            if !volume_ok {
                continue;
            }
            let layer = SymPoolLayer::new(factor, vars);
            let hyp = hypothesis_pattern(rows, |r| layer.apply(r));
            if meas.is_coarsening_of(&hyp) {
                accepted.push((factor, hyp, layer));
            }
        }
        let alternatives: Vec<LayerKind> = accepted
            .iter()
            .map(|(f, _, _)| LayerKind::Pool { factor: *f })
            .collect();
        if let Some((factor, pat, layer)) = pick_pool(accepted, meas) {
            let out_rows: Vec<Vec<Sym>> = rows.iter().map(|r| layer.apply(r)).collect();
            let out_hw = hw.map(|(h, w)| (h / factor, w / factor));
            let confidence = if &pat == meas {
                Confidence::Exact
            } else {
                Confidence::Coarse
            };
            return Classified::new(
                LayerKind::Pool { factor },
                alternatives,
                Some(out_rows),
                out_hw,
                confidence,
            );
        }
        // No finite pooling factor explains the measurement: global pooling
        // (geometry recovery stops along this path — spatial info is gone).
        return Classified::new(
            LayerKind::GlobalPool,
            Vec::new(),
            None,
            None,
            Confidence::Coarse,
        );
    }

    // Head fully-connected layers destroy all spatial structure: their
    // patterns either saturate flat (tiny logit nnz) or never converge at
    // all. A never-converging pattern is also what a *saturated-depth*
    // conv produces, so position disambiguates: past the last weightless
    // layer (pool/add/GAP) a structureless pattern means a dense layer.
    if !ctx.in_trunk
        && !ctx.is_last
        && !meas.is_empty()
        && meas.class_count() == meas.len()
        && meas.len() >= 4
    {
        return Classified::new(LayerKind::Dense, Vec::new(), None, None, Confidence::Coarse);
    }

    // Weighted layer: convolution hypotheses.
    let mut accepted: Vec<(ConvHypothesis, Pattern, SymConvLayer)> = Vec::new();
    for &kernel in &cfg.kernels {
        for &stride in &cfg.strides {
            let hyp = ConvHypothesis { kernel, stride };
            let layer = SymConvLayer::new(hyp, vars);
            let pat = hypothesis_pattern(rows, |r| layer.apply(r));
            if meas.is_coarsening_of(&pat) {
                accepted.push((hyp, pat, layer));
            }
        }
    }

    // Hypotheses whose predicted pattern equals the measurement exactly
    // (the §5.4 "longest non-convergent pattern" rule).
    let mut exact: Vec<(ConvHypothesis, SymConvLayer)> = Vec::new();
    let mut rest: Vec<(ConvHypothesis, Pattern, SymConvLayer)> = Vec::new();
    for (h, p, l) in accepted {
        if &p == meas {
            exact.push((h, l));
        } else {
            rest.push((h, p, l));
        }
    }

    let make_conv = |hyp: ConvHypothesis,
                     layer: &SymConvLayer,
                     alternatives: Vec<LayerKind>,
                     confidence: Confidence|
     -> Classified {
        let out_rows: Vec<Vec<Sym>> = rows.iter().map(|r| layer.apply(r)).collect();
        let out_hw = hw.map(|(h, w)| {
            (
                conv_out_dim(h, hyp.kernel, hyp.stride, Padding::Same),
                conv_out_dim(w, hyp.kernel, hyp.stride, Padding::Same),
            )
        });
        Classified::new(
            LayerKind::Conv {
                kernel: hyp.kernel,
                stride: hyp.stride,
            },
            alternatives,
            Some(out_rows),
            out_hw,
            confidence,
        )
    };

    if !exact.is_empty() {
        // Several geometries can predict the same (saturated) pattern at
        // narrow deep maps; the observable carries no more bits, so break
        // ties with a common-CNN prior (3x3/1 first).
        let alternatives: Vec<LayerKind> = exact
            .iter()
            .map(|(h, _)| LayerKind::Conv {
                kernel: h.kernel,
                stride: h.stride,
            })
            .collect();
        exact.sort_by_key(|(h, _)| prior_rank(*h));
        let multiple = exact.len() > 1;
        let (hyp, layer) = exact.remove(0);
        let confidence = if multiple {
            Confidence::Coarse
        } else {
            Confidence::Exact
        };
        return make_conv(hyp, &layer, alternatives, confidence);
    }

    if meas.class_count() <= 1 {
        // The layer's nnz never reacted to any probe: no boundary signal at
        // all. Inside the conv trunk (weightless layers still downstream)
        // the prior says "3x3 conv"; in the head it is a dense layer.
        if ctx.in_trunk {
            let kernel = if cfg.kernels.contains(&3) {
                3
            } else {
                cfg.kernels.first().copied().unwrap_or(3)
            };
            let hyp = ConvHypothesis { kernel, stride: 1 };
            let layer = SymConvLayer::new(hyp, vars);
            let alternatives = cfg
                .kernels
                .iter()
                .flat_map(|&k| {
                    cfg.strides.iter().map(move |&s| LayerKind::Conv {
                        kernel: k,
                        stride: s,
                    })
                })
                .collect();
            return make_conv(hyp, &layer, alternatives, Confidence::Default);
        }
        return Classified::new(
            LayerKind::Dense,
            Vec::new(),
            None,
            None,
            Confidence::Default,
        );
    }

    if !rest.is_empty() {
        // The measurement carries signal but is strictly coarser than every
        // surviving hypothesis: keep the most conservative one.
        let alternatives: Vec<LayerKind> = rest
            .iter()
            .map(|(h, _, _)| LayerKind::Conv {
                kernel: h.kernel,
                stride: h.stride,
            })
            .collect();
        rest.sort_by_key(|(h, p, _)| (p.class_count(), prior_rank(*h)));
        let (hyp, _, layer) = rest.remove(0);
        return make_conv(hyp, &layer, alternatives, Confidence::Coarse);
    }

    // No convolution geometry survives: fully connected head layer.
    Classified::new(LayerKind::Dense, Vec::new(), None, None, Confidence::Coarse)
}

/// Classifies one layer from its GEMM call dimensions alone (the
/// Cache-Telepathy readout, Yan et al.).
///
/// * Kernel: the live tap count `k` satisfies `k <= C·R·S`, and with the
///   mild density the paper assumes, `k > C·r²` for every `r < R` — so the
///   smallest candidate `r` with `C·r² >= k` is the kernel. NNReArch pads
///   `k` up to a tile multiple, pushing the inference *past* the true
///   kernel (27 live taps padded to 32 reads as 5x5 when `C = 3`).
/// * Stride: under `Same` padding the output size `ceil(d/s)` is
///   kernel-independent, so `n = P·Q` names the smallest stride with
///   `ceil(h/s)·ceil(w/s) == n`. An un-observed pooling layer folds into
///   the stride estimate (pool/2 + conv/1 reads as conv/2 — the classic
///   GEMM-channel ambiguity); a padded `n` matches no candidate at all.
///
/// When either inference fails the layer falls back to the common-CNN
/// prior with an unknown output size, and — since the next layer's input
/// geometry is then unknown too — the degradation cascades. That cascade
/// is exactly what the channel × defence matrix measures for NNReArch.
fn classify_gemm(
    g: GemmShape,
    in_hw: Option<(usize, usize)>,
    in_c: Option<usize>,
    cfg: &ProberConfig,
) -> Classified {
    let mut kernels = cfg.kernels.clone();
    kernels.sort_unstable();
    let kernel = in_c.and_then(|c| kernels.iter().copied().find(|&r| c * r * r >= g.k));
    let stride = in_hw.and_then(|(h, w)| {
        let mut strides = cfg.strides.clone();
        strides.sort_unstable();
        strides.into_iter().find(|&s| {
            conv_out_dim(h, 1, s, Padding::Same) * conv_out_dim(w, 1, s, Padding::Same) == g.n
        })
    });
    if let (Some(kernel), Some(stride), Some((h, w))) = (kernel, stride, in_hw) {
        let hw = (
            conv_out_dim(h, kernel, stride, Padding::Same),
            conv_out_dim(w, kernel, stride, Padding::Same),
        );
        return Classified::new(
            LayerKind::Conv { kernel, stride },
            vec![LayerKind::Conv { kernel, stride }],
            None,
            Some(hw),
            Confidence::Exact,
        );
    }
    let kernel = kernel.unwrap_or_else(|| {
        if cfg.kernels.contains(&3) {
            3
        } else {
            cfg.kernels.first().copied().unwrap_or(3)
        }
    });
    let alternatives = cfg
        .kernels
        .iter()
        .flat_map(|&k| {
            cfg.strides.iter().map(move |&s| LayerKind::Conv {
                kernel: k,
                stride: s,
            })
        })
        .collect();
    Classified::new(
        LayerKind::Conv { kernel, stride: 1 },
        alternatives,
        None,
        None,
        Confidence::Default,
    )
}

/// Common-CNN prior ordering over conv hypotheses: 3x3/1 first, then the
/// remaining stride-1 kernels small-to-large, then stride-2 variants.
fn prior_rank(h: ConvHypothesis) -> (usize, usize, usize) {
    let preferred = usize::from(!(h.kernel == 3 && h.stride == 1));
    (preferred, h.stride, h.kernel)
}

fn hypothesis_pattern<F: Fn(&[Sym]) -> Vec<Sym>>(rows: &[Vec<Sym>], f: F) -> Pattern {
    let sigs: Vec<Vec<Sym>> = rows.iter().map(|r| multiset_signature(&f(r))).collect();
    Pattern::of(&sigs)
}

fn pick_pool(
    mut accepted: Vec<(usize, Pattern, SymPoolLayer)>,
    meas: &Pattern,
) -> Option<(usize, Pattern, SymPoolLayer)> {
    if accepted.is_empty() {
        return None;
    }
    accepted.sort_by_key(|(f, _, _)| *f);
    if let Some(pos) = accepted.iter().position(|(_, p, _)| p == meas) {
        return Some(accepted.swap_remove(pos));
    }
    accepted.sort_by_key(|(f, p, _)| (p.class_count(), *f));
    Some(accepted.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_accel::{AccelConfig, Device, Trace, TraceSink};
    use hd_dnn::graph::{NetworkBuilder, Params};
    use hd_tensor::Shape3;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn device_for(net: hd_dnn::graph::Network, seed: u64) -> Device {
        let mut params = Params::init(&net, seed);
        let profile = hd_dnn::prune::paper_profile(&net);
        hd_dnn::prune::apply_sparsity_profile(&net, &mut params, &profile, seed ^ 1);
        Device::new(net, params, AccelConfig::eyeriss_v2())
    }

    fn small_cfg() -> ProberConfig {
        ProberConfig {
            shifts: 12,
            max_probes: 8,
            stable_probes: 2,
            kernels: vec![1, 3, 5, 7],
            strides: vec![1, 2],
            pools: vec![2, 3],
            seed: 99,
            parallelism: None,
        }
    }

    #[test]
    fn recovers_single_conv_kernel() {
        for kernel in [3usize, 5] {
            let mut b = NetworkBuilder::new(3, 16, 16);
            let x = b.input();
            b.conv(x, 8, kernel, 1);
            let dev = device_for(b.build(), 5);
            let res = probe(&dev, &small_cfg()).unwrap();
            assert_eq!(res.layers.len(), 1);
            assert_eq!(
                res.layers[0].kind,
                LayerKind::Conv { kernel, stride: 1 },
                "kernel {kernel}: pattern {}",
                res.layers[0].pattern
            );
        }
    }

    #[test]
    fn recovers_pointwise_conv_when_not_last() {
        // A lone pointwise conv as the final layer is indistinguishable
        // from a classifier head (both show no boundary effect), so test
        // the 1x1 case with a conv after it.
        let mut b = NetworkBuilder::new(3, 16, 16);
        let x = b.input();
        let x = b.conv(x, 8, 1, 1);
        b.conv(x, 8, 3, 1);
        let dev = device_for(b.build(), 5);
        let res = probe(&dev, &small_cfg()).unwrap();
        assert_eq!(
            res.layers[0].kind,
            LayerKind::Conv {
                kernel: 1,
                stride: 1
            }
        );
        assert_eq!(
            res.layers[1].kind,
            LayerKind::Conv {
                kernel: 3,
                stride: 1
            }
        );
    }

    #[test]
    fn recovers_stride_two() {
        let mut b = NetworkBuilder::new(3, 16, 16);
        let x = b.input();
        b.conv(x, 8, 3, 2);
        let dev = device_for(b.build(), 6);
        let res = probe(&dev, &small_cfg()).unwrap();
        assert_eq!(
            res.layers[0].kind,
            LayerKind::Conv {
                kernel: 3,
                stride: 2
            }
        );
        assert_eq!(res.layers[0].out_hw, Some((8, 8)));
    }

    #[test]
    fn recovers_conv_pool_conv_chain() {
        let mut b = NetworkBuilder::new(3, 16, 16);
        let x = b.input();
        let x = b.conv(x, 8, 3, 1);
        let x = b.max_pool(x, 2);
        b.conv(x, 8, 5, 1);
        let dev = device_for(b.build(), 7);
        let res = probe(&dev, &small_cfg()).unwrap();
        assert_eq!(res.layers.len(), 3);
        assert_eq!(
            res.layers[0].kind,
            LayerKind::Conv {
                kernel: 3,
                stride: 1
            }
        );
        assert_eq!(res.layers[1].kind, LayerKind::Pool { factor: 2 });
        assert_eq!(
            res.layers[2].kind,
            LayerKind::Conv {
                kernel: 5,
                stride: 1
            }
        );
        assert_eq!(res.layers[2].out_hw, Some((8, 8)));
    }

    #[test]
    fn classifies_head_as_dense() {
        let mut b = NetworkBuilder::new(3, 12, 12);
        let x = b.input();
        let x = b.conv(x, 6, 3, 1);
        let x = b.flatten(x);
        b.linear(x, 5);
        let dev = device_for(b.build(), 8);
        let res = probe(&dev, &small_cfg()).unwrap();
        assert_eq!(res.layers.len(), 2);
        assert_eq!(
            res.layers[0].kind,
            LayerKind::Conv {
                kernel: 3,
                stride: 1
            }
        );
        assert_eq!(res.layers[1].kind, LayerKind::Dense);
    }

    #[test]
    fn recovers_residual_block() {
        let mut b = NetworkBuilder::new(3, 16, 16);
        let x = b.input();
        let stem = b.conv(x, 6, 3, 1);
        let y = b.conv(stem, 6, 3, 1);
        b.add(stem, y);
        let dev = device_for(b.build(), 9);
        let res = probe(&dev, &small_cfg()).unwrap();
        assert_eq!(res.layers.len(), 3);
        assert_eq!(res.layers[2].kind, LayerKind::Add);
        assert_eq!(res.layers[2].inputs.len(), 2);
    }

    #[test]
    fn probes_converge_before_max() {
        let mut b = NetworkBuilder::new(3, 16, 16);
        let x = b.input();
        b.conv(x, 8, 3, 1);
        let dev = device_for(b.build(), 10);
        let res = probe(&dev, &small_cfg()).unwrap();
        assert!(res.probes_used <= 8);
        assert_eq!(res.runs_used, res.probes_used * 12);
    }

    #[test]
    fn parallel_matches_serial_bit_identically() {
        let mut b = NetworkBuilder::new(3, 16, 16);
        let x = b.input();
        let x = b.conv(x, 8, 3, 1);
        let x = b.max_pool(x, 2);
        b.conv(x, 8, 5, 1);
        let dev = device_for(b.build(), 21);
        let serial = probe(&dev, &small_cfg().with_parallelism(Some(1))).unwrap();
        for workers in [Some(2), Some(4), Some(64), None] {
            let par = probe(&dev, &small_cfg().with_parallelism(workers)).unwrap();
            assert_eq!(serial, par, "parallelism {workers:?} diverged from serial");
        }
    }

    #[test]
    fn effective_parallelism_clamps_to_jobs() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cfg = ProberConfig::default().with_parallelism(Some(8));
        assert_eq!(cfg.effective_parallelism(3), 3.min(cores));
        assert_eq!(cfg.effective_parallelism(100), 8.min(cores));
        assert_eq!(cfg.effective_parallelism(0), 1);
        let serial = ProberConfig::default().with_parallelism(Some(1));
        assert_eq!(serial.effective_parallelism(100), 1);
        // None = all cores, never more than jobs.
        let auto = ProberConfig::default();
        assert_eq!(auto.effective_parallelism(100), 100.min(cores));
        assert_eq!(auto.effective_parallelism(4), 4.min(cores));
    }

    #[test]
    fn run_family_orders_results_by_image_index() {
        let mut b = NetworkBuilder::new(3, 16, 16);
        let x = b.input();
        b.conv(x, 8, 3, 1);
        let dev = device_for(b.build(), 22);
        let fams = stripe_probes(dev.input_shape(), 12, 1, 99);
        let serial = run_family(&dev, &fams[0].images, 1).unwrap();
        // Worker counts below, at and above the image count all reduce
        // into the same index order.
        for workers in [2, 3, 5, 12, 30] {
            let par = run_family(&dev, &fams[0].images, workers).unwrap();
            assert_eq!(serial, par, "workers = {workers}");
        }
    }

    /// Fails (empty trace → `NoWrites`) for every image whose index — read
    /// back out of the stripe the probe generator painted — is at least
    /// `fail_from`, and counts how many probes actually execute.
    struct FailingTarget {
        shape: Shape3,
        fail_from: usize,
        runs: AtomicUsize,
    }

    impl FailingTarget {
        fn image_index(&self, image: &Tensor3) -> usize {
            // Stripe probes paint column `idx` of channel 0; recover it.
            (0..self.shape.w)
                .find(|&x| image.at(0, 0, x) != 0.0)
                .unwrap_or(0)
        }
    }

    impl ObservationModel for FailingTarget {
        fn input_shape(&self) -> Shape3 {
            self.shape
        }

        fn observe(&self, image: &Tensor3) -> Result<Observation, ObserveError> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            let mut trace = Trace::default();
            if self.image_index(image) < self.fail_from {
                trace.events.push(hd_accel::TraceEvent {
                    time_ps: 0,
                    addr: 0x1000,
                    kind: hd_accel::AccessKind::Write,
                    bytes: 64,
                });
            }
            // Stream the trace exactly like the real channel: the empty
            // trace surfaces as the analyzer's `NoWrites` error.
            let mut sink = hd_trace::StreamingAnalyzer::new();
            for e in trace.events {
                sink.event(e);
            }
            Ok(Observation::from_trace(sink.finish()?))
        }
    }

    #[test]
    fn parallel_error_matches_serial_lowest_failing_index() {
        let shape = Shape3 { c: 1, h: 8, w: 8 };
        let fams = stripe_probes(shape, 8, 1, 7);
        let serial_target = FailingTarget {
            shape,
            fail_from: 3,
            runs: AtomicUsize::new(0),
        };
        let serial_err = run_family(&serial_target, &fams[0].images, 1).unwrap_err();
        // Serial short-circuits: exactly fail_from + 1 probes execute.
        assert_eq!(serial_target.runs.load(Ordering::SeqCst), 4);

        for workers in [2, 4] {
            let target = FailingTarget {
                shape,
                fail_from: 3,
                runs: AtomicUsize::new(0),
            };
            let err = run_family(&target, &fams[0].images, workers).unwrap_err();
            assert_eq!(err, serial_err, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_error_path_cancels_probes_past_the_failure() {
        let shape = Shape3 { c: 1, h: 8, w: 8 };
        let fams = stripe_probes(shape, 8, 1, 7);
        // One worker claims images in index order on the caller, so
        // cancellation is deterministic: images past the first failure are
        // skipped without running the probe.
        let target = FailingTarget {
            shape,
            fail_from: 3,
            runs: AtomicUsize::new(0),
        };
        let err = run_family(&target, &fams[0].images, 1).unwrap_err();
        assert!(matches!(err, ProbeError::Trace(_)));
        assert_eq!(
            target.runs.load(Ordering::SeqCst),
            4,
            "probes past the lowest failing index must not execute"
        );
    }

    /// `probe` validates its config before any device run, so each
    /// degenerate config is a typed error. Without the check, zero shifts
    /// or probe families panic once the probe loop comes up empty.
    #[test]
    fn probe_rejects_degenerate_configs() {
        let mut b = NetworkBuilder::new(3, 16, 16);
        let x = b.input();
        b.conv(x, 8, 3, 1);
        let dev = device_for(b.build(), 24);
        let cases = [
            (
                ProberConfig {
                    shifts: 0,
                    ..small_cfg()
                },
                ConfigError::ZeroField { field: "shifts" },
            ),
            (
                ProberConfig {
                    max_probes: 0,
                    ..small_cfg()
                },
                ConfigError::ZeroField {
                    field: "max_probes",
                },
            ),
            (
                ProberConfig {
                    kernels: vec![],
                    ..small_cfg()
                },
                ConfigError::EmptyCandidates { field: "kernels" },
            ),
            (
                ProberConfig {
                    pools: vec![],
                    ..small_cfg()
                },
                ConfigError::EmptyCandidates { field: "pools" },
            ),
            (
                small_cfg().with_parallelism(Some(0)),
                ConfigError::ZeroParallelism,
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(probe(&dev, &cfg), Err(ProbeError::Config(want)));
        }
        let err = probe(&dev, &small_cfg().with_parallelism(Some(0))).unwrap_err();
        assert!(err.to_string().contains("Some(1)"), "{err}");
    }

    /// A failing device run surfaces as [`ProbeError::Device`] instead of
    /// aborting the campaign: here the target advertises an input shape
    /// its device does not accept, so every probe image is refused.
    #[test]
    fn failing_device_surfaces_probe_error_instead_of_aborting() {
        struct Misadvertised(Device);
        impl ObservationModel for Misadvertised {
            fn input_shape(&self) -> Shape3 {
                Shape3::new(2, 6, 6)
            }
            fn observe(&self, image: &Tensor3) -> Result<Observation, ObserveError> {
                self.0.observe(image)
            }
        }
        let mut b = NetworkBuilder::new(2, 8, 8);
        let x = b.input();
        b.conv(x, 4, 3, 1);
        let net = b.build();
        let params = Params::init(&net, 1);
        let target = Misadvertised(Device::new(net, params, AccelConfig::eyeriss_v2()));
        for parallelism in [Some(1), Some(4)] {
            let err = probe(&target, &small_cfg().with_parallelism(parallelism)).unwrap_err();
            assert_eq!(
                err,
                ProbeError::Device(hd_accel::DeviceError::InputShape {
                    expected: Shape3::new(2, 8, 8),
                    got: Shape3::new(2, 6, 6),
                }),
                "parallelism {parallelism:?}"
            );
        }
    }

    /// The GEMM-dimension channel names conv geometry directly: `m` bounds
    /// live filters, `k` the taps (kernel), `n` the output pixels (stride).
    #[test]
    fn gemm_channel_recovers_conv_geometry_exactly() {
        let mut b = NetworkBuilder::new(3, 16, 16);
        let x = b.input();
        let x = b.conv(x, 8, 3, 1);
        b.conv(x, 12, 5, 2);
        let net = b.build();
        // Dense init: the tap counts are exact, so the kernel bound is tight.
        let params = Params::init(&net, 5);
        let dev = Device::new(net, params, AccelConfig::eyeriss_v2());
        let gemm = crate::channel::ChannelKind::Gemm.model(&dev);
        let res = probe(gemm.as_ref(), &small_cfg()).unwrap();
        assert_eq!(res.layers.len(), 2);
        assert_eq!(
            res.layers[0].kind,
            LayerKind::Conv {
                kernel: 3,
                stride: 1
            }
        );
        assert_eq!(res.layers[0].out_hw, Some((16, 16)));
        assert_eq!(res.layers[0].gemm.map(|g| g.m), Some(8));
        assert_eq!(
            res.layers[1].kind,
            LayerKind::Conv {
                kernel: 5,
                stride: 2
            }
        );
        assert_eq!(res.layers[1].out_hw, Some((8, 8)));
        assert_eq!(res.layers[1].gemm.map(|g| g.m), Some(12));
        // Address-blind channel: no trace analysis to reference.
        assert!(res.structure.is_none());
    }

    /// The classic GEMM-channel ambiguity: an un-observed pooling layer
    /// folds into the next conv's stride estimate.
    #[test]
    fn gemm_channel_reads_pool_conv_as_strided_conv() {
        let mut b = NetworkBuilder::new(3, 16, 16);
        let x = b.input();
        let x = b.conv(x, 8, 3, 1);
        let x = b.max_pool(x, 2);
        b.conv(x, 8, 3, 1);
        let net = b.build();
        let params = Params::init(&net, 5);
        let dev = Device::new(net, params, AccelConfig::eyeriss_v2());
        let gemm = crate::channel::ChannelKind::Gemm.model(&dev);
        let res = probe(gemm.as_ref(), &small_cfg()).unwrap();
        assert_eq!(res.layers.len(), 2, "the pool issues no GEMM");
        assert_eq!(
            res.layers[1].kind,
            LayerKind::Conv {
                kernel: 3,
                stride: 2
            },
            "pool/2 + conv/1 is indistinguishable from conv/2"
        );
    }

    #[test]
    fn report_mentions_each_layer() {
        let mut b = NetworkBuilder::new(3, 16, 16);
        let x = b.input();
        let x = b.conv(x, 8, 3, 1);
        b.max_pool(x, 2);
        let dev = device_for(b.build(), 11);
        let res = probe(&dev, &small_cfg()).unwrap();
        let r = res.report();
        assert!(r.contains("conv 3x3/1"));
        assert!(r.contains("pool /2"));
    }
}

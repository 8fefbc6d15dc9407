//! Pluggable observation channels: the attacker-facing boundary.
//!
//! HuffDuff's original threat model hands the attacker one fixed pair of
//! observables — the DRAM write trace plus the psum-encode timing window.
//! This module generalizes that boundary into an [`ObservationModel`]: an
//! object-safe trait mediating *everything* the attacker may learn from one
//! inference. The prober and the end-to-end attack consume observations,
//! never raw traces, so restricted or entirely different side channels plug
//! in without touching the recovery logic.
//!
//! [`ChannelKind::model`] boxes one of the four shipped channels over a
//! device:
//!
//! * [`ChannelKind::Full`] — trace + timing, the paper's channel. It
//!   observes exactly as probing the [`Device`] directly does: every field
//!   the prober used to read off [`TraceAnalysis`], and every
//!   projection-only field ([`LayerEvidence::gemm`]) stays `None`.
//! * [`ChannelKind::Trace`] — transfer volumes and dataflow without
//!   timestamps (an attacker on a bus probe with no cycle-accurate clock).
//! * [`ChannelKind::Timing`] — per-layer encode windows without addresses
//!   or sizes (an attacker co-located enough to time, not to read, the
//!   bus).
//! * [`ChannelKind::Gemm`] — the Cache-Telepathy channel (Yan et al.): the
//!   `(m, k, n)` dimensions of each im2col GEMM invocation, as leaked by
//!   cache-set conflicts on a shared CPU/accelerator. `m` counts live
//!   filter rows (the layer's output channels, exactly), `k` the live
//!   taps (≤ `C·R·S`), and `n = P·Q` the output pixels.
//!
//! [`Observation`]s are *data*, so restricted channels are exact
//! projections of the full one (see [`Observation::project`]) — the
//! property the channel-invariance suite asserts.

use hd_accel::{Device, DeviceError};
use hd_tensor::{GemmShape, Shape3, Tensor3};
use hd_trace::{LayerObs, StreamingAnalyzer, TensorId, TensorObs, TraceAnalysis};
use std::fmt;

/// Per-layer evidence one inference yields under some channel.
///
/// Every field the attacker might *not* get is an `Option`: a restricted
/// channel simply leaves the fields it cannot see as `None`, and the
/// prober degrades gracefully (priors instead of measurements).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerEvidence {
    /// Execution index (position in the observed layer sequence).
    pub index: usize,
    /// Input tensor ids (dataflow), as far as the channel reveals them.
    /// Channels blind to addresses report a linear chain (`[index]`).
    pub inputs: Vec<TensorId>,
    /// Output tensor id (`index + 1` by the hd-trace convention).
    pub output: TensorId,
    /// Compressed weight bytes read (`None` when sizes are invisible).
    pub weight_bytes: Option<u64>,
    /// Activation bytes read from earlier tensors.
    pub input_bytes: Option<u64>,
    /// Compressed output bytes written (the boundary-effect observable).
    pub output_bytes: Option<u64>,
    /// Psum-encode window in picoseconds (the timing observable).
    pub encode_window_ps: Option<u64>,
    /// Observed GEMM call dimensions (the Cache-Telepathy observable);
    /// `None` on every trace/timing channel.
    pub gemm: Option<GemmShape>,
}

/// Everything one inference revealed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observation {
    /// Per-layer evidence in execution order.
    pub layers: Vec<LayerEvidence>,
    /// Number of distinct tensors the channel distinguishes (tensor 0 is
    /// the network input).
    pub tensor_count: usize,
    /// The raw trace analysis, when the channel exposes one (kept as the
    /// structure reference in [`crate::prober::ProberResult`]).
    pub structure: Option<TraceAnalysis>,
}

impl Observation {
    /// Builds the full-channel observation from a trace analysis. Every
    /// evidence field is populated; [`LayerEvidence::gemm`] stays `None`
    /// (the bus trace does not reveal GEMM blocking).
    pub fn from_trace(analysis: TraceAnalysis) -> Observation {
        let layers = analysis
            .layers
            .iter()
            .map(|l| LayerEvidence {
                index: l.index,
                inputs: l.inputs.clone(),
                output: l.output,
                weight_bytes: Some(l.weight_bytes),
                input_bytes: Some(l.input_bytes),
                output_bytes: Some(l.output_bytes),
                encode_window_ps: Some(l.encode_window_ps),
                gemm: None,
            })
            .collect();
        Observation {
            layers,
            tensor_count: analysis.tensors.len(),
            structure: Some(analysis),
        }
    }

    /// The per-layer scalar series the prober forms probe [`crate::pattern::Pattern`]s
    /// over: output volume when the channel has it (the boundary-effect
    /// signal), else the encode window, else the GEMM `n` dimension.
    /// Channels whose best signal is input-independent produce flat
    /// patterns, and classification falls back to priors — exactly the
    /// degradation the channel × defence matrix measures.
    pub fn signal_per_layer(&self) -> Vec<u64> {
        self.layers
            .iter()
            .map(|l| {
                l.output_bytes
                    .or(l.encode_window_ps)
                    .or_else(|| l.gemm.map(|g| g.n as u64))
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Restricts this observation to what `kind` would have revealed.
    ///
    /// The trace and timing channels observe through exactly this
    /// function, so "restricted channels are projections of the full one"
    /// holds by construction (and is property-tested anyway).
    pub fn project(&self, kind: ChannelKind) -> Observation {
        match kind {
            ChannelKind::Full => self.clone(),
            ChannelKind::Trace => Observation {
                layers: self
                    .layers
                    .iter()
                    .map(|l| LayerEvidence {
                        encode_window_ps: None,
                        gemm: None,
                        ..l.clone()
                    })
                    .collect(),
                tensor_count: self.tensor_count,
                // The analysis itself is trace-derived, but its timestamps
                // are not: scrub them so nothing downstream can cheat.
                structure: self.structure.as_ref().map(|s| TraceAnalysis {
                    tensors: s
                        .tensors
                        .iter()
                        .map(|t| TensorObs {
                            first_write_ps: 0,
                            last_write_ps: 0,
                            ..*t
                        })
                        .collect(),
                    layers: s
                        .layers
                        .iter()
                        .map(|l| LayerObs {
                            encode_window_ps: 0,
                            ..l.clone()
                        })
                        .collect(),
                }),
            },
            ChannelKind::Timing => Observation {
                // Timing reveals execution order and windows, not
                // addresses: dataflow collapses to a linear chain.
                layers: self
                    .layers
                    .iter()
                    .map(|l| LayerEvidence {
                        index: l.index,
                        inputs: vec![l.index],
                        output: l.index + 1,
                        weight_bytes: None,
                        input_bytes: None,
                        output_bytes: None,
                        encode_window_ps: l.encode_window_ps,
                        gemm: None,
                    })
                    .collect(),
                tensor_count: self.layers.len() + 1,
                structure: None,
            },
            ChannelKind::Gemm => gemm_observation(self.layers.iter().filter_map(|l| l.gemm)),
        }
    }
}

/// The GEMM channel's observation: one address-blind chain link per call,
/// in execution order.
fn gemm_observation(calls: impl Iterator<Item = GemmShape>) -> Observation {
    let layers: Vec<LayerEvidence> = calls
        .enumerate()
        .map(|(i, g)| LayerEvidence {
            index: i,
            inputs: vec![i],
            output: i + 1,
            weight_bytes: None,
            input_bytes: None,
            output_bytes: None,
            encode_window_ps: None,
            gemm: Some(g),
        })
        .collect();
    let tensor_count = layers.len() + 1;
    Observation {
        layers,
        tensor_count,
        structure: None,
    }
}

/// The four shipped channels, for CLI flags and experiment grids.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// Trace + timing (the paper's channel).
    #[default]
    Full,
    /// Transfer volumes and dataflow, no timestamps.
    Trace,
    /// Encode windows only.
    Timing,
    /// GEMM call dimensions from the im2col backend.
    ///
    /// The dimensions are a pure function of the (pruned) weights and the
    /// layer geometry — input images never change them — so the model
    /// reads the device's cached call list instead of re-simulating an
    /// inference per probe. A real attacker would watch one inference
    /// through a cache monitor; repeating it adds nothing, which is
    /// precisely this channel's weakness (no probe-dependent signal) and
    /// its strength (`m` is the live output-channel count, read off
    /// exactly).
    Gemm,
}

impl ChannelKind {
    /// Every shipped channel, in matrix/report order.
    pub const ALL: [ChannelKind; 4] = [
        ChannelKind::Full,
        ChannelKind::Trace,
        ChannelKind::Timing,
        ChannelKind::Gemm,
    ];

    /// Parses a CLI channel name.
    pub fn parse(s: &str) -> Option<ChannelKind> {
        match s {
            "full" => Some(ChannelKind::Full),
            "trace" => Some(ChannelKind::Trace),
            "timing" => Some(ChannelKind::Timing),
            "gemm" => Some(ChannelKind::Gemm),
            _ => None,
        }
    }

    /// The CLI/JSON name.
    pub fn label(self) -> &'static str {
        match self {
            ChannelKind::Full => "full",
            ChannelKind::Trace => "trace",
            ChannelKind::Timing => "timing",
            ChannelKind::Gemm => "gemm",
        }
    }

    /// Boxes the matching observation model over a device (the trait is
    /// object-safe precisely so channel choice can be a runtime value).
    pub fn model<'d>(self, device: &'d Device) -> Box<dyn ObservationModel + 'd> {
        Box::new(Channel { device, kind: self })
    }
}

impl fmt::Display for ChannelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Errors producing one observation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObserveError {
    /// The bus trace could not be analyzed into tensors and layers.
    Trace(hd_trace::AnalyzeTraceError),
    /// The device refused the image (its shape is not the device's input
    /// shape).
    Device(DeviceError),
    /// The channel does not exist on this target (e.g. the GEMM channel on
    /// a device whose conv backend never issues GEMM calls).
    ChannelUnavailable(&'static str),
}

impl fmt::Display for ObserveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObserveError::Trace(e) => write!(f, "trace analysis failed: {e}"),
            ObserveError::Device(e) => write!(f, "device simulation failed: {e}"),
            ObserveError::ChannelUnavailable(why) => write!(f, "channel unavailable: {why}"),
        }
    }
}

impl std::error::Error for ObserveError {}

impl From<hd_trace::AnalyzeTraceError> for ObserveError {
    fn from(e: hd_trace::AnalyzeTraceError) -> Self {
        ObserveError::Trace(e)
    }
}

/// Anything the attacker can feed images to while watching *some* side
/// channel. One call = one inference = one [`Observation`].
///
/// `Sync` is a supertrait so the prober can fan the independent inferences
/// of one probe family across worker threads (`&dyn ObservationModel` is
/// `Send` exactly when the trait object is `Sync`). Implementations needing
/// interior mutability should use thread-safe cells (`Mutex`, atomics).
///
/// The trait is object-safe: experiment grids hold `Box<dyn
/// ObservationModel>` keyed by [`ChannelKind`].
pub trait ObservationModel: Sync {
    /// The (publicly known) input shape.
    fn input_shape(&self) -> Shape3;

    /// Runs one inference and returns what this channel revealed.
    ///
    /// # Errors
    ///
    /// Returns [`ObserveError`] when the inference fails or its output
    /// cannot be turned into evidence.
    fn observe(&self, image: &Tensor3) -> Result<Observation, ObserveError>;
}

/// The full-channel observation of one device run: stream the bus events
/// through the incremental analyzer (bounded memory), surface a refused
/// image as a typed error instead of panicking.
fn observe_device(device: &Device, image: &Tensor3) -> Result<Observation, ObserveError> {
    let mut sink = StreamingAnalyzer::new();
    device
        .try_run_with(image, &mut sink)
        .map_err(ObserveError::Device)?;
    Ok(Observation::from_trace(sink.finish()?))
}

/// The simulated device *is* the paper's observation model: probing it
/// directly is the [`ChannelKind::Full`] channel.
impl ObservationModel for Device {
    fn input_shape(&self) -> Shape3 {
        Device::input_shape(self)
    }

    fn observe(&self, image: &Tensor3) -> Result<Observation, ObserveError> {
        observe_device(self, image)
    }
}

/// One shipped channel over a device — what [`ChannelKind::model`] boxes.
struct Channel<'d> {
    device: &'d Device,
    kind: ChannelKind,
}

impl ObservationModel for Channel<'_> {
    fn input_shape(&self) -> Shape3 {
        self.device.input_shape()
    }

    fn observe(&self, image: &Tensor3) -> Result<Observation, ObserveError> {
        match self.kind {
            ChannelKind::Full => observe_device(self.device, image),
            ChannelKind::Trace | ChannelKind::Timing => {
                Ok(observe_device(self.device, image)?.project(self.kind))
            }
            ChannelKind::Gemm => {
                let calls = self.device.gemm_calls();
                if calls.is_empty() {
                    return Err(ObserveError::ChannelUnavailable(
                        "device issues no GEMM calls (conv backend is not im2col+GEMM)",
                    ));
                }
                Ok(gemm_observation(calls.iter().map(|&(_node, g)| g)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_accel::{AccelConfig, TraceSink};
    use hd_dnn::graph::{NetworkBuilder, Params};
    use hd_tensor::ConvBackend;

    fn device() -> Device {
        let mut b = NetworkBuilder::new(3, 12, 12);
        let x = b.input();
        let x = b.conv(x, 6, 3, 1);
        let x = b.max_pool(x, 2);
        b.conv(x, 8, 3, 1);
        let net = b.build();
        let params = Params::init(&net, 3);
        Device::new(net, params, AccelConfig::eyeriss_v2())
    }

    fn image(dev: &Device) -> Tensor3 {
        let s = ObservationModel::input_shape(dev);
        Tensor3::full(s.c, s.h, s.w, 0.25)
    }

    #[test]
    fn device_observation_mirrors_the_trace_analysis() {
        let dev = device();
        let img = image(&dev);
        let obs = dev.observe(&img).unwrap();
        let analysis = hd_trace::analyze(&dev.run(&img)).unwrap();
        assert_eq!(obs.structure.as_ref(), Some(&analysis));
        assert_eq!(obs.tensor_count, analysis.tensors.len());
        assert_eq!(obs.signal_per_layer(), analysis.output_bytes_per_layer());
        for (e, l) in obs.layers.iter().zip(&analysis.layers) {
            assert_eq!(e.weight_bytes, Some(l.weight_bytes));
            assert_eq!(e.output_bytes, Some(l.output_bytes));
            assert_eq!(e.encode_window_ps, Some(l.encode_window_ps));
            assert_eq!(e.inputs, l.inputs);
            assert_eq!(e.gemm, None);
        }
    }

    #[test]
    fn full_channel_is_the_device_observation() {
        let dev = device();
        let img = image(&dev);
        let direct = dev.observe(&img).unwrap();
        let full = ChannelKind::Full.model(&dev).observe(&img).unwrap();
        assert_eq!(direct, full);
    }

    #[test]
    fn trace_and_timing_channels_observe_exact_projections() {
        let dev = device();
        let img = image(&dev);
        let full = dev.observe(&img).unwrap();
        let trace = ChannelKind::Trace.model(&dev).observe(&img).unwrap();
        let timing = ChannelKind::Timing.model(&dev).observe(&img).unwrap();
        assert_eq!(trace, full.project(ChannelKind::Trace));
        assert_eq!(timing, full.project(ChannelKind::Timing));
        // Trace: volumes survive, every timestamp is gone.
        assert!(trace.layers.iter().all(|l| l.encode_window_ps.is_none()));
        assert_eq!(full.signal_per_layer(), trace.signal_per_layer());
        let s = trace.structure.as_ref().unwrap();
        assert!(s.layers.iter().all(|l| l.encode_window_ps == 0));
        assert!(s.tensors.iter().all(|t| t.last_write_ps == 0));
        // Timing: windows survive, volumes and dataflow are gone.
        assert!(timing.layers.iter().all(|l| l.output_bytes.is_none()));
        assert_eq!(
            timing
                .layers
                .iter()
                .map(|l| l.encode_window_ps)
                .collect::<Vec<_>>(),
            full.layers
                .iter()
                .map(|l| l.encode_window_ps)
                .collect::<Vec<_>>()
        );
        assert!(timing.structure.is_none());
    }

    #[test]
    fn gemm_channel_reports_one_call_per_conv() {
        let dev = device();
        let obs = ChannelKind::Gemm.model(&dev).observe(&image(&dev)).unwrap();
        assert_eq!(obs.layers.len(), 2, "two convs, pool issues no GEMM");
        for (i, l) in obs.layers.iter().enumerate() {
            assert_eq!(l.index, i);
            assert_eq!(l.output, i + 1);
            assert!(l.gemm.is_some());
            assert_eq!(l.output_bytes, None);
        }
        // First conv: m = 6 live filters, n = 12*12 output pixels.
        let g = obs.layers[0].gemm.unwrap();
        assert_eq!(g.m, 6);
        assert_eq!(g.n, 144);
    }

    #[test]
    fn gemm_channel_unavailable_without_the_im2col_backend() {
        let mut b = NetworkBuilder::new(3, 8, 8);
        let x = b.input();
        b.conv(x, 4, 3, 1);
        let net = b.build();
        let params = Params::init(&net, 1);
        let cfg = AccelConfig::eyeriss_v2().with_conv_backend(ConvBackend::SparseCsc);
        let dev = Device::new(net, params, cfg);
        let err = ChannelKind::Gemm
            .model(&dev)
            .observe(&image(&dev))
            .unwrap_err();
        assert!(matches!(err, ObserveError::ChannelUnavailable(_)), "{err}");
    }

    #[test]
    fn channel_kinds_parse_and_label_round_trip() {
        for kind in ChannelKind::ALL {
            assert_eq!(ChannelKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(ChannelKind::parse("cache"), None);
    }

    /// A target implementing [`ObservationModel`] directly over a buffered
    /// trace must observe identically to the device's own channel.
    struct BufferedTarget {
        dev: Device,
    }

    impl ObservationModel for BufferedTarget {
        fn input_shape(&self) -> Shape3 {
            self.dev.input_shape()
        }

        fn observe(&self, image: &Tensor3) -> Result<Observation, ObserveError> {
            let mut sink = StreamingAnalyzer::new();
            for e in self.dev.run(image).events {
                sink.event(e);
            }
            Ok(Observation::from_trace(sink.finish()?))
        }
    }

    #[test]
    fn buffered_targets_observe_like_the_direct_channel() {
        let target = BufferedTarget { dev: device() };
        let img = image(&target.dev);
        let buffered = target.observe(&img).unwrap();
        let direct = target.dev.observe(&img).unwrap();
        assert_eq!(buffered, direct, "replay must be the full channel");
    }
}

//! Attacker-side DRAM trace analysis.
//!
//! Consumes only the bus events a physical probe yields ([`hd_accel::Trace`])
//! and reconstructs, per the read-after-write reasoning of the paper (§3.2):
//!
//! * the set of **tensors** resident in DRAM (clusters of written addresses),
//! * the **layer sequence** and its **dataflow graph** (which tensors each
//!   layer reads, which it writes),
//! * per-layer **footprints**: weight bytes (read-only addresses), input
//!   bytes, output bytes — lower bounds on the corresponding tensor sizes
//!   when compression is in play (Eqs. 8–10),
//! * per-layer **encode windows** (last output write minus first output
//!   write) — the timing side channel of §7.2.
//!
//! Nothing here touches the victim network or its weights; the analyzer is
//! string-and-sealing-wax the attacker could really build.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod streaming;

pub use streaming::StreamingAnalyzer;

use hd_accel::{Trace, TraceSink};
use std::fmt;

/// Index into [`TraceAnalysis::tensors`].
pub type TensorId = usize;

/// A tensor inferred from clustered write bursts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TensorObs {
    /// Lowest byte address.
    pub addr_lo: u64,
    /// One past the highest byte address.
    pub addr_hi: u64,
    /// Distinct bytes written (the tensor's transfer footprint).
    pub bytes: u64,
    /// Time of the first write burst.
    pub first_write_ps: u64,
    /// Time of the last write burst.
    pub last_write_ps: u64,
}

impl TensorObs {
    /// The §7.2 observable: last write minus first write.
    pub fn encode_window_ps(&self) -> u64 {
        self.last_write_ps - self.first_write_ps
    }

    fn contains(&self, addr: u64) -> bool {
        addr >= self.addr_lo && addr < self.addr_hi
    }

    fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.addr_lo < hi && lo < self.addr_hi
    }
}

/// One inferred layer execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerObs {
    /// Execution order (0 = first layer after host input DMA).
    pub index: usize,
    /// Activation tensors read by this layer (RAW dependencies).
    pub inputs: Vec<TensorId>,
    /// The tensor this layer wrote.
    pub output: TensorId,
    /// Bytes read from read-only (never-written) addresses: the compressed
    /// weight footprint, `size(W)`.
    pub weight_bytes: u64,
    /// Bytes read from previously written tensors: `size(I)` (summed over
    /// all input tensors).
    pub input_bytes: u64,
    /// Bytes written: `size(O)`.
    pub output_bytes: u64,
    /// Output encode window in picoseconds (timing side channel).
    pub encode_window_ps: u64,
}

/// Result of analyzing one inference trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceAnalysis {
    /// All tensors, in order of first write. Index 0 is the host-written
    /// network input.
    pub tensors: Vec<TensorObs>,
    /// Layers in execution order. `layers[i].output == i + 1` by
    /// construction (tensor 0 is the input).
    pub layers: Vec<LayerObs>,
}

/// Error analyzing a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnalyzeTraceError {
    /// The trace contains no write events, so no tensors can be identified.
    NoWrites,
    /// The trace events are not in chronological order.
    UnsortedEvents,
    /// A transfer spans more than [`MAX_TRANSFER_BURSTS`] bursts: no
    /// device tensor does, and expanding it would take as long as its
    /// burst count (a 1 TiB range in 1-byte bursts never finishes).
    OversizedTransfer,
}

/// The most bursts one [`hd_accel::Transfer`] may span before the
/// analyzer refuses it: 2^24, over three thousand times the 4,746 bursts
/// of the largest transfer a full-size VGG-S or ResNet-18 victim issues.
pub const MAX_TRANSFER_BURSTS: u64 = 1 << 24;

impl fmt::Display for AnalyzeTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeTraceError::NoWrites => write!(f, "trace contains no write events"),
            AnalyzeTraceError::UnsortedEvents => write!(f, "trace events are not sorted by time"),
            AnalyzeTraceError::OversizedTransfer => {
                write!(f, "a transfer spans more than {MAX_TRANSFER_BURSTS} bursts")
            }
        }
    }
}

impl std::error::Error for AnalyzeTraceError {}

/// Analyzes a buffered bus trace into tensors, layers, and dataflow by
/// replaying its events through a [`StreamingAnalyzer`].
///
/// # Errors
///
/// Returns [`AnalyzeTraceError`] for empty or malformed traces.
///
/// # Examples
///
/// ```
/// use hd_accel::{AccelConfig, Device};
/// use hd_dnn::graph::{NetworkBuilder, Params};
/// use hd_tensor::Tensor3;
///
/// let mut b = NetworkBuilder::new(1, 8, 8);
/// let x = b.input();
/// b.conv(x, 4, 3, 1);
/// let net = b.build();
/// let device = Device::new(net.clone(), Params::init(&net, 0), AccelConfig::eyeriss_v2());
/// let trace = device.run(&Tensor3::full(1, 8, 8, 0.5));
///
/// let analysis = hd_trace::analyze(&trace)?;
/// assert_eq!(analysis.layers.len(), 1);
/// assert!(analysis.layers[0].weight_bytes > 0);
/// # Ok::<(), hd_trace::AnalyzeTraceError>(())
/// ```
pub fn analyze(trace: &Trace) -> Result<TraceAnalysis, AnalyzeTraceError> {
    let mut sink = StreamingAnalyzer::new();
    for &e in &trace.events {
        sink.event(e);
    }
    sink.finish()
}

/// Total length of a set of byte intervals after merging overlaps.
pub(crate) fn merged_len(ranges: &mut [(u64, u64)]) -> u64 {
    if ranges.is_empty() {
        return 0;
    }
    ranges.sort_unstable();
    let mut total = 0u64;
    let (mut lo, mut hi) = ranges[0];
    for &(a, b) in ranges[1..].iter() {
        if a <= hi {
            hi = hi.max(b);
        } else {
            total += hi - lo;
            (lo, hi) = (a, b);
        }
    }
    total + (hi - lo)
}

impl TraceAnalysis {
    /// The network-input tensor (host DMA, first written).
    pub fn input_tensor(&self) -> &TensorObs {
        &self.tensors[0]
    }

    /// Output transfer bytes per layer, in execution order. This is the
    /// quantity whose *equality across probes* reveals nnz equality (the
    /// codec is monotone in nnz), which drives the boundary-effect prober.
    pub fn output_bytes_per_layer(&self) -> Vec<u64> {
        self.layers.iter().map(|l| l.output_bytes).collect()
    }

    /// Renders a compact report of the recovered dataflow.
    pub fn report(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "input tensor: {} bytes\n",
            self.input_tensor().bytes
        ));
        for l in &self.layers {
            s.push_str(&format!(
                "layer {:>2}: in={:?} W={:>8}B I={:>8}B O={:>8}B window={}ps\n",
                l.index,
                l.inputs,
                l.weight_bytes,
                l.input_bytes,
                l.output_bytes,
                l.encode_window_ps
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_accel::{AccelConfig, AccessKind, Device, TraceEvent};
    use hd_dnn::graph::{NetworkBuilder, Params};
    use hd_tensor::Tensor3;

    fn chain_device() -> Device {
        let mut b = NetworkBuilder::new(2, 8, 8);
        let x = b.input();
        let x = b.conv(x, 4, 3, 1);
        let x = b.max_pool(x, 2);
        let x = b.conv(x, 6, 3, 1);
        let x = b.global_avg_pool(x);
        b.linear(x, 3);
        let net = b.build();
        Device::new(
            net.clone(),
            Params::init(&net, 42),
            AccelConfig::eyeriss_v2(),
        )
    }

    #[test]
    fn empty_trace_is_error() {
        assert_eq!(analyze(&Trace::default()), Err(AnalyzeTraceError::NoWrites));
    }

    #[test]
    fn unsorted_trace_is_error() {
        let t = Trace {
            events: vec![
                TraceEvent {
                    time_ps: 10,
                    addr: 0,
                    kind: AccessKind::Write,
                    bytes: 64,
                },
                TraceEvent {
                    time_ps: 5,
                    addr: 64,
                    kind: AccessKind::Write,
                    bytes: 64,
                },
            ],
        };
        assert_eq!(analyze(&t), Err(AnalyzeTraceError::UnsortedEvents));
    }

    #[test]
    fn recovers_layer_count_of_chain() {
        let dev = chain_device();
        let trace = dev.run(&Tensor3::full(2, 8, 8, 0.5));
        let a = analyze(&trace).unwrap();
        // conv, pool, conv, gap, linear = 5 layers (flatten is aliased away).
        assert_eq!(a.layers.len(), 5);
    }

    #[test]
    fn chain_dataflow_is_linear() {
        let dev = chain_device();
        let trace = dev.run(&Tensor3::full(2, 8, 8, 0.5));
        let a = analyze(&trace).unwrap();
        for l in &a.layers {
            assert_eq!(
                l.inputs,
                vec![l.output - 1],
                "layer {} not a chain",
                l.index
            );
        }
    }

    #[test]
    fn residual_dataflow_recovered() {
        let mut b = NetworkBuilder::new(2, 6, 6);
        let x = b.input();
        let y = b.conv(x, 2, 3, 1);
        let z = b.add(x, y);
        b.global_avg_pool(z);
        let net = b.build();
        let dev = Device::new(
            net.clone(),
            Params::init(&net, 3),
            AccelConfig::eyeriss_v2(),
        );
        let trace = dev.run(&Tensor3::full(2, 6, 6, 0.4));
        let a = analyze(&trace).unwrap();
        // The add layer reads both the input tensor (0) and the conv output (1).
        let add_layer = &a.layers[1];
        assert_eq!(add_layer.inputs.len(), 2);
        assert!(add_layer.inputs.contains(&0));
        assert!(add_layer.inputs.contains(&1));
    }

    #[test]
    fn weight_footprint_tracks_pruning() {
        let mut b = NetworkBuilder::new(2, 8, 8);
        let x = b.input();
        b.conv(x, 8, 3, 1);
        let net = b.build();
        let dense_params = Params::init(&net, 1);
        let mut sparse_params = dense_params.clone();
        let profile = hd_dnn::prune::SparsityProfile {
            targets: vec![(1, 0.9)],
        };
        hd_dnn::prune::apply_sparsity_profile(&net, &mut sparse_params, &profile, 5);

        let img = Tensor3::full(2, 8, 8, 0.5);
        let dense_trace =
            Device::new(net.clone(), dense_params, AccelConfig::eyeriss_v2()).run(&img);
        let sparse_trace =
            Device::new(net.clone(), sparse_params, AccelConfig::eyeriss_v2()).run(&img);
        let dense_w = analyze(&dense_trace).unwrap().layers[0].weight_bytes;
        let sparse_w = analyze(&sparse_trace).unwrap().layers[0].weight_bytes;
        assert!(
            (sparse_w as f64) < dense_w as f64 * 0.5,
            "sparse weights should transfer far less: {sparse_w} vs {dense_w}"
        );
    }

    #[test]
    fn output_bytes_lower_bound_tensor_size() {
        // Eq. 9: p*q*k / pool >= size(O). Check against the oracle.
        let dev = chain_device();
        let img = Tensor3::full(2, 8, 8, 0.5);
        let trace = dev.run(&img);
        let a = analyze(&trace).unwrap();
        let oracle = dev.oracle();
        let fwd = oracle.net.forward(oracle.params, &img);
        // Layer 0 output: conv node 1, 4x8x8 elements at 1 byte each.
        let dense_elems = fwd.value(1).flat().len() as u64;
        assert!(a.layers[0].output_bytes <= dense_elems + dense_elems / 8 + 8);
    }

    #[test]
    fn encode_windows_positive_for_multi_burst_layers() {
        let dev = chain_device();
        let trace = dev.run(&Tensor3::full(2, 8, 8, 0.5));
        let a = analyze(&trace).unwrap();
        for l in &a.layers {
            // Tensors spanning more than one burst have a measurable window;
            // single-burst tensors legitimately collapse to zero.
            if l.output_bytes > dev.config().burst_bytes {
                assert!(l.encode_window_ps > 0, "layer {} window", l.index);
            }
        }
        // The first conv output (4x8x8) definitely spans several bursts.
        assert!(a.layers[0].output_bytes > dev.config().burst_bytes);
    }

    #[test]
    fn report_is_nonempty() {
        let dev = chain_device();
        let trace = dev.run(&Tensor3::full(2, 8, 8, 0.5));
        let a = analyze(&trace).unwrap();
        let r = a.report();
        assert!(r.contains("layer"));
        assert!(r.contains("input tensor"));
    }
}

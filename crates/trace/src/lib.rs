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

mod streaming;

pub use streaming::StreamingAnalyzer;

use hd_accel::{AccessKind, Trace, TraceSink};
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
}

impl fmt::Display for AnalyzeTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeTraceError::NoWrites => write!(f, "trace contains no write events"),
            AnalyzeTraceError::UnsortedEvents => write!(f, "trace events are not sorted by time"),
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

/// Analyzes a trace from a device that *reuses* DRAM buffers: each write
/// creates a new version of its addresses (paper footnote 4, the SSA
/// analogy), so tensors are identified by **write streams in time** —
/// maximal runs of chronologically consecutive, address-contiguous write
/// bursts — and each read is attributed to the most recent version
/// covering its address.
///
/// On traces from non-reusing devices this agrees with [`analyze`].
///
/// # Errors
///
/// Returns [`AnalyzeTraceError`] for empty or malformed traces.
pub fn analyze_versioned(trace: &Trace) -> Result<TraceAnalysis, AnalyzeTraceError> {
    if trace.events.windows(2).any(|w| w[0].time_ps > w[1].time_ps) {
        return Err(AnalyzeTraceError::UnsortedEvents);
    }

    // --- Step 1: tensors = chronological write streams. ---
    let mut tensors: Vec<TensorObs> = Vec::new();
    let mut open: Option<TensorObs> = None;
    for e in &trace.events {
        if e.kind != AccessKind::Write {
            // Any interleaved read ends the current stream (layer phases
            // never interleave reads inside a tensor's writeback).
            if let Some(t) = open.take() {
                tensors.push(t);
            }
            continue;
        }
        match &mut open {
            Some(t) if e.addr == t.addr_hi => {
                t.addr_hi += e.bytes;
                t.bytes = t.addr_hi - t.addr_lo;
                t.last_write_ps = e.time_ps;
            }
            Some(t) => {
                let next = TensorObs {
                    addr_lo: e.addr,
                    addr_hi: e.addr + e.bytes,
                    bytes: e.bytes,
                    first_write_ps: e.time_ps,
                    last_write_ps: e.time_ps,
                };
                tensors.push(std::mem::replace(t, next));
            }
            None => {
                open = Some(TensorObs {
                    addr_lo: e.addr,
                    addr_hi: e.addr + e.bytes,
                    bytes: e.bytes,
                    first_write_ps: e.time_ps,
                    last_write_ps: e.time_ps,
                });
            }
        }
    }
    if let Some(t) = open.take() {
        tensors.push(t);
    }
    if tensors.is_empty() {
        return Err(AnalyzeTraceError::NoWrites);
    }

    // --- Step 2: attribute reads to the latest covering version. ---
    let mut layers: Vec<LayerObs> = Vec::new();
    for out_id in 1..tensors.len() {
        let window_lo = tensors[out_id - 1].last_write_ps;
        let window_hi = tensors[out_id].first_write_ps;
        let mut inputs: Vec<TensorId> = Vec::new();
        let mut weight_ranges: Vec<(u64, u64)> = Vec::new();
        let mut input_ranges: Vec<(u64, u64)> = Vec::new();
        for e in &trace.events {
            if e.kind != AccessKind::Read || e.time_ps < window_lo || e.time_ps >= window_hi {
                continue;
            }
            // Latest version written before this read that covers the addr.
            let src = tensors
                .iter()
                .enumerate()
                .filter(|(_, t)| t.contains(e.addr) && t.last_write_ps <= e.time_ps)
                .max_by_key(|(_, t)| t.last_write_ps)
                .map(|(i, _)| i);
            match src {
                Some(src) => {
                    input_ranges.push((e.addr, e.addr + e.bytes));
                    if !inputs.contains(&src) {
                        inputs.push(src);
                    }
                }
                None => weight_ranges.push((e.addr, e.addr + e.bytes)),
            }
        }
        layers.push(LayerObs {
            index: out_id - 1,
            inputs,
            output: out_id,
            weight_bytes: merged_len(&mut weight_ranges),
            input_bytes: merged_len(&mut input_ranges),
            output_bytes: tensors[out_id].bytes,
            encode_window_ps: tensors[out_id].encode_window_ps(),
        });
    }

    Ok(TraceAnalysis { tensors, layers })
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

    /// Layers that read weights (conv/linear as opposed to pool/add/GAP).
    pub fn weighted_layers(&self) -> Vec<usize> {
        self.layers
            .iter()
            .filter(|l| l.weight_bytes > 0)
            .map(|l| l.index)
            .collect()
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
    use hd_accel::{AccelConfig, Device, TraceEvent};
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
    fn weighted_layers_identified() {
        let dev = chain_device();
        let trace = dev.run(&Tensor3::full(2, 8, 8, 0.5));
        let a = analyze(&trace).unwrap();
        // conv(0), conv(2), linear(4) carry weights; pool(1), gap(3) do not.
        assert_eq!(a.weighted_layers(), vec![0, 2, 4]);
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

#[cfg(test)]
mod versioned_tests {
    use super::*;
    use hd_accel::{AccelConfig, Device};
    use hd_dnn::graph::{NetworkBuilder, Params};
    use hd_tensor::Tensor3;

    fn chain_net() -> (hd_dnn::graph::Network, Params) {
        let mut b = NetworkBuilder::new(2, 8, 8);
        let x = b.input();
        let x = b.conv(x, 4, 3, 1);
        let x = b.conv(x, 4, 3, 1);
        let x = b.conv(x, 4, 3, 1);
        b.conv(x, 4, 3, 1);
        let net = b.build();
        let params = Params::init(&net, 42);
        (net, params)
    }

    #[test]
    fn versioned_matches_plain_on_fresh_alloc_traces() {
        let (net, params) = chain_net();
        let dev = Device::new(net, params, AccelConfig::eyeriss_v2());
        let trace = dev.run(&Tensor3::full(2, 8, 8, 0.5));
        let plain = analyze(&trace).unwrap();
        let versioned = analyze_versioned(&trace).unwrap();
        assert_eq!(plain.layers.len(), versioned.layers.len());
        for (a, b) in plain.layers.iter().zip(&versioned.layers) {
            assert_eq!(a.weight_bytes, b.weight_bytes);
            assert_eq!(a.output_bytes, b.output_bytes);
            assert_eq!(a.inputs, b.inputs);
        }
    }

    #[test]
    fn versioned_handles_buffer_reuse() {
        let (net, params) = chain_net();
        let mut cfg = AccelConfig::eyeriss_v2();
        cfg.reuse_activations = true;
        let reuse_dev = Device::new(net.clone(), params.clone(), cfg);
        let fresh_dev = Device::new(net, params, AccelConfig::eyeriss_v2());
        let img = Tensor3::full(2, 8, 8, 0.5);

        let reuse_trace = reuse_dev.run(&img);
        let fresh_trace = fresh_dev.run(&img);

        // The reuse device really recycles addresses: fewer distinct
        // address ranges are touched.
        let distinct = |t: &hd_accel::Trace| {
            t.events
                .iter()
                .filter(|e| e.kind == AccessKind::Write)
                .map(|e| e.addr)
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        assert!(distinct(&reuse_trace) < distinct(&fresh_trace));

        // Versioned analysis on the reuse trace reconstructs the same
        // per-layer footprints and chain dataflow as the fresh device.
        let a = analyze_versioned(&reuse_trace).unwrap();
        let b = analyze(&fresh_trace).unwrap();
        assert_eq!(a.layers.len(), b.layers.len());
        for (x, y) in a.layers.iter().zip(&b.layers) {
            assert_eq!(x.weight_bytes, y.weight_bytes, "layer {}", x.index);
            assert_eq!(x.output_bytes, y.output_bytes, "layer {}", x.index);
            assert_eq!(x.inputs.len(), y.inputs.len());
        }
    }
}

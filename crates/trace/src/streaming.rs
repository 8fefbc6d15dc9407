//! Incremental trace analysis over a live event stream.
//!
//! [`StreamingAnalyzer`] is a [`TraceSink`]: it folds each bus event into
//! running tensor/footprint/encode-window state as `Device::try_run_with`
//! emits it, instead of materializing the full `Vec<TraceEvent>` of the
//! run. It is the crate's only trace clusterer: [`crate::analyze`] replays
//! a buffered trace through it. `tests/streaming_equiv.rs` keeps it equal
//! to the address-sorting batch clustering of the paper's §3.2, which
//! survives there as the test oracle — on buffer-reusing devices, to the
//! oracle's analysis of the fresh-allocation trace.
//!
//! # Memory
//!
//! A buffered trace holds every event of the run (~`O(bursts)`); the
//! analyzer retains the tensor/layer summaries (`O(layers)`) plus the
//! reads of the **currently open** layer window only — the reads are
//! dropped as soon as the next tensor's first write closes the window.
//! [`StreamingAnalyzer::peak_pending_reads`] reports the high-water mark
//! for comparison.
//!
//! # Contract
//!
//! The analyzer clusters writes in arrival order. On a causal device trace
//! that is footnote 4's versioned reading of the paper's §3.2, because
//! such traces have two properties:
//!
//! * tensors' write phases do not interleave — each tensor is written by
//!   one chronological run of address-adjacent bursts,
//! * no read targets an address range before it has been written, except
//!   read-only (weight) regions that are never written at all.
//!
//! A later write may re-version an address: a device that recycles DRAM
//! buffers (`AccelConfig::reuse_activations`) writes a new tensor over a
//! dead one. A read belongs to the newest version of its address, i.e. the
//! latest tensor covering it; every such tensor was fully written before
//! the read's window opened. On fresh-allocation traces tensors occupy
//! disjoint regions, and this agrees with clustering writes by address.
//!
//! Out-of-order timestamps are detected and reported by
//! [`StreamingAnalyzer::finish`], ahead of an empty trace.

use crate::{merged_len, AnalyzeTraceError, LayerObs, TensorId, TensorObs, TraceAnalysis};
use hd_accel::{AccessKind, TraceEvent, TraceSink};

/// Per-layer read summary accumulated when the layer's window closes.
struct PartialLayer {
    inputs: Vec<TensorId>,
    weight_bytes: u64,
    input_bytes: u64,
}

/// Incremental analyzer: feed it every event of one device run (it is a
/// [`TraceSink`]), then call [`StreamingAnalyzer::finish`].
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
///
/// let mut sink = hd_trace::StreamingAnalyzer::new();
/// device.try_run_with(&Tensor3::full(1, 8, 8, 0.5), &mut sink).unwrap();
/// let analysis = sink.finish()?;
/// assert_eq!(analysis.layers.len(), 1);
/// # Ok::<(), hd_trace::AnalyzeTraceError>(())
/// ```
#[derive(Default)]
pub struct StreamingAnalyzer {
    /// Tensors in first-write (= arrival) order; the last one is the
    /// currently open write stream.
    tensors: Vec<TensorObs>,
    /// Reads of the open layer window, `(time_ps, addr_lo, addr_hi)`.
    pending_reads: Vec<(u64, u64, u64)>,
    /// Read summaries of closed windows, one per produced tensor after
    /// the first.
    layers: Vec<PartialLayer>,
    last_time_ps: u64,
    saw_event: bool,
    unsorted: bool,
    peak_pending: usize,
}

impl StreamingAnalyzer {
    /// A fresh analyzer for one device run.
    pub fn new() -> Self {
        StreamingAnalyzer::default()
    }

    /// High-water mark of reads retained at any point so far — the
    /// analyzer's event-retention peak (a buffered trace retains every
    /// event).
    pub fn peak_pending_reads(&self) -> usize {
        self.peak_pending
    }

    /// Closes the layer window ending at `window_hi` (the first write of
    /// a newly opened tensor): attributes the buffered reads that fall in
    /// `[previous tensor's last write, window_hi)` and drops the rest.
    fn close_window(&mut self, window_hi: u64) {
        // Reads at exactly `window_hi` belong to the *next* window (windows
        // are half-open on the right).
        let mut drained = Vec::new();
        self.pending_reads.retain(|&r| {
            if r.0 < window_hi {
                drained.push(r);
                false
            } else {
                true
            }
        });
        let Some(prev) = self.tensors.last() else {
            // Reads before the first write fall in no window.
            return;
        };
        let window_lo = prev.last_write_ps;
        let mut inputs: Vec<TensorId> = Vec::new();
        let mut weight_ranges: Vec<(u64, u64)> = Vec::new();
        let mut input_ranges: Vec<(u64, u64)> = Vec::new();
        for (time, lo, hi) in drained {
            if time < window_lo {
                continue; // mid-writeback read: outside every window
            }
            // The newest version of the address (see the module contract).
            match self.tensors.iter().rposition(|t| t.contains(lo)) {
                Some(src) => {
                    input_ranges.push((lo, hi));
                    if !inputs.contains(&src) {
                        inputs.push(src);
                    }
                }
                None => weight_ranges.push((lo, hi)),
            }
        }
        self.layers.push(PartialLayer {
            inputs,
            weight_bytes: merged_len(&mut weight_ranges),
            input_bytes: merged_len(&mut input_ranges),
        });
    }

    /// Consumes the stream, returning the run's analysis.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeTraceError::UnsortedEvents`] for an out-of-order
    /// stream, else [`AnalyzeTraceError::NoWrites`] for a stream without
    /// writes.
    pub fn finish(self) -> Result<TraceAnalysis, AnalyzeTraceError> {
        if self.unsorted {
            return Err(AnalyzeTraceError::UnsortedEvents);
        }
        if self.tensors.is_empty() {
            return Err(AnalyzeTraceError::NoWrites);
        }
        let tensors = self.tensors;
        let layers = self
            .layers
            .into_iter()
            .enumerate()
            .map(|(index, p)| LayerObs {
                index,
                inputs: p.inputs,
                output: index + 1,
                weight_bytes: p.weight_bytes,
                input_bytes: p.input_bytes,
                output_bytes: tensors[index + 1].bytes,
                encode_window_ps: tensors[index + 1].encode_window_ps(),
            })
            .collect();
        Ok(TraceAnalysis { tensors, layers })
    }
}

/// Whether a write burst extends the open tensor (address-adjacent or
/// overlapping — the merge condition of the batch clustering).
fn extends(t: &TensorObs, addr: u64, bytes: u64) -> bool {
    addr <= t.addr_hi && addr + bytes >= t.addr_lo
}

impl TraceSink for StreamingAnalyzer {
    fn event(&mut self, e: TraceEvent) {
        if self.saw_event && e.time_ps < self.last_time_ps {
            self.unsorted = true;
        }
        self.saw_event = true;
        self.last_time_ps = self.last_time_ps.max(e.time_ps);
        match e.kind {
            AccessKind::Read => {
                self.pending_reads
                    .push((e.time_ps, e.addr, e.addr + e.bytes));
                self.peak_pending = self.peak_pending.max(self.pending_reads.len());
            }
            AccessKind::Write => {
                match self.tensors.last_mut() {
                    Some(open) if extends(open, e.addr, e.bytes) => {
                        open.addr_lo = open.addr_lo.min(e.addr);
                        open.addr_hi = open.addr_hi.max(e.addr + e.bytes);
                        open.bytes = open.addr_hi - open.addr_lo;
                        open.first_write_ps = open.first_write_ps.min(e.time_ps);
                        open.last_write_ps = open.last_write_ps.max(e.time_ps);
                    }
                    _ => {
                        // A write outside the open tensor starts the next
                        // one; its first write closes the previous layer's
                        // read window.
                        self.close_window(e.time_ps);
                        self.tensors.push(TensorObs {
                            addr_lo: e.addr,
                            addr_hi: e.addr + e.bytes,
                            bytes: e.bytes,
                            first_write_ps: e.time_ps,
                            last_write_ps: e.time_ps,
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stream_is_no_writes() {
        assert_eq!(
            StreamingAnalyzer::new().finish(),
            Err(AnalyzeTraceError::NoWrites)
        );
    }

    #[test]
    fn unsorted_stream_is_detected() {
        let mut s = StreamingAnalyzer::new();
        s.event(TraceEvent {
            time_ps: 10,
            addr: 0,
            kind: AccessKind::Write,
            bytes: 64,
        });
        s.event(TraceEvent {
            time_ps: 5,
            addr: 0x10_000,
            kind: AccessKind::Write,
            bytes: 64,
        });
        assert_eq!(s.finish(), Err(AnalyzeTraceError::UnsortedEvents));
    }
}

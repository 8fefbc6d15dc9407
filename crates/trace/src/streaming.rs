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
//! Reads the device hands over whole ([`TraceSink::transfer`]) are kept as
//! one entry per transfer, so retention is `O(transfers per window)`
//! rather than `O(bursts per window)`: a few entries per layer, where the
//! burst stream of a full-size VGG-S run peaks at thousands.
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
//! [`StreamingAnalyzer::finish`], ahead of an empty trace. So is a
//! transfer of more than [`MAX_TRANSFER_BURSTS`] bursts, which the
//! analyzer drops on arrival instead of expanding.

use crate::{
    merged_len, AnalyzeTraceError, LayerObs, TensorId, TensorObs, TraceAnalysis,
    MAX_TRANSFER_BURSTS,
};
use hd_accel::{AccessKind, TraceEvent, TraceSink, Transfer};

/// Per-layer read summary accumulated when the layer's window closes.
struct PartialLayer {
    inputs: Vec<TensorId>,
    weight_bytes: u64,
    input_bytes: u64,
}

/// Reads attributed to the layer window being closed.
#[derive(Default)]
struct WindowReads {
    inputs: Vec<TensorId>,
    weight_ranges: Vec<(u64, u64)>,
    input_ranges: Vec<(u64, u64)>,
}

impl WindowReads {
    /// Attributes the read of `[lo, hi)` to tensor `src`, or to the
    /// weights when no tensor holds it.
    fn add(&mut self, src: Option<TensorId>, lo: u64, hi: u64) {
        match src {
            Some(src) => {
                self.input_ranges.push((lo, hi));
                if !self.inputs.contains(&src) {
                    self.inputs.push(src);
                }
            }
            None => self.weight_ranges.push((lo, hi)),
        }
    }
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
    /// Single reads of the open layer window, `(time_ps, addr_lo, addr_hi)`.
    pending_reads: Vec<(u64, u64, u64)>,
    /// Whole read transfers of the open layer window. Each arrived after
    /// every entry of `pending_reads`, so windows attribute reads in
    /// arrival order.
    pending_transfers: Vec<Transfer>,
    /// Read summaries of closed windows, one per produced tensor after
    /// the first.
    layers: Vec<PartialLayer>,
    last_time_ps: u64,
    saw_event: bool,
    unsorted: bool,
    oversized: bool,
    peak_pending: usize,
}

impl StreamingAnalyzer {
    /// A fresh analyzer for one device run.
    pub fn new() -> Self {
        StreamingAnalyzer::default()
    }

    /// High-water mark of reads retained at any point so far — the
    /// analyzer's event-retention peak (a buffered trace retains every
    /// event). A whole read transfer counts once.
    pub fn peak_pending_reads(&self) -> usize {
        self.peak_pending
    }

    fn note_peak(&mut self) {
        let pending = self.pending_reads.len() + self.pending_transfers.len();
        self.peak_pending = self.peak_pending.max(pending);
    }

    /// Advances the stream clock over events timed `first_ps ..= last_ps`,
    /// flagging a step back in time.
    fn clock(&mut self, first_ps: u64, last_ps: u64) {
        if self.saw_event && first_ps < self.last_time_ps {
            self.unsorted = true;
        }
        self.saw_event = true;
        self.last_time_ps = self.last_time_ps.max(last_ps);
    }

    /// Queues a single read of `[lo, hi)`.
    fn read(&mut self, time_ps: u64, lo: u64, hi: u64) {
        // A read queued behind whole transfers must stay behind their
        // bursts: expand them first.
        for t in self.pending_transfers.drain(..) {
            self.pending_reads.extend((0..t.bursts()).map(|i| {
                let b = t.burst(i);
                (b.time_ps, b.addr, b.addr.saturating_add(b.bytes))
            }));
        }
        self.pending_reads.push((time_ps, lo, hi));
        self.note_peak();
    }

    /// Folds a write of `[lo, hi)` into the open tensor, or opens the
    /// next tensor when the write is not adjacent to it.
    fn write(&mut self, time_ps: u64, lo: u64, hi: u64) {
        match self.tensors.last_mut() {
            Some(open) if extends(open, lo, hi) => {
                open.addr_lo = open.addr_lo.min(lo);
                open.addr_hi = open.addr_hi.max(hi);
                open.bytes = open.addr_hi - open.addr_lo;
                open.first_write_ps = open.first_write_ps.min(time_ps);
                open.last_write_ps = open.last_write_ps.max(time_ps);
            }
            _ => {
                // A write outside the open tensor starts the next one; its
                // first write closes the previous layer's read window.
                self.close_window(time_ps);
                self.tensors.push(TensorObs {
                    addr_lo: lo,
                    addr_hi: hi,
                    bytes: hi - lo,
                    first_write_ps: time_ps,
                    last_write_ps: time_ps,
                });
            }
        }
    }

    /// Closes the layer window ending at `window_hi` (the first write of
    /// a newly opened tensor): attributes the buffered reads that fall in
    /// `[previous tensor's last write, window_hi)` and drops the rest.
    fn close_window(&mut self, window_hi: u64) {
        // Reads at exactly `window_hi` belong to the *next* window (windows
        // are half-open on the right). Reads before the previous tensor's
        // last write (mid-writeback), or before the first write, fall in
        // no window.
        let window_lo = self.tensors.last().map(|t| t.last_write_ps);
        let in_window = |time: u64| window_lo.is_some_and(|lo| time >= lo);
        let tensors = &self.tensors;
        let mut reads = WindowReads::default();
        self.pending_reads.retain(|&(time, lo, hi)| {
            if time >= window_hi {
                return true;
            }
            if in_window(time) {
                reads.add(newest_covering(tensors, lo), lo, hi);
            }
            false
        });
        let pending_reads = &mut self.pending_reads;
        self.pending_transfers.retain(|t| {
            let (first, last) = (t.burst(0).time_ps, t.last_burst().time_ps);
            if first >= window_hi {
                return true;
            }
            if last < window_hi && in_window(first) {
                if let Some(src) = range_source(tensors, t) {
                    reads.add(src, t.addr, t.end());
                    return false;
                }
            }
            // The transfer straddles a window edge or tensor versions:
            // attribute it burst by burst, and keep the bursts that belong
            // to the next window.
            for i in 0..t.bursts() {
                let b = t.burst(i);
                let hi = b.addr.saturating_add(b.bytes);
                if b.time_ps >= window_hi {
                    pending_reads.push((b.time_ps, b.addr, hi));
                } else if in_window(b.time_ps) {
                    reads.add(newest_covering(tensors, b.addr), b.addr, hi);
                }
            }
            false
        });
        self.note_peak();
        if window_lo.is_some() {
            self.layers.push(PartialLayer {
                inputs: reads.inputs,
                weight_bytes: merged_len(&mut reads.weight_ranges),
                input_bytes: merged_len(&mut reads.input_ranges),
            });
        }
    }

    /// Consumes the stream, returning the run's analysis.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeTraceError::OversizedTransfer`] for a stream
    /// holding a transfer of more than [`MAX_TRANSFER_BURSTS`] bursts,
    /// else [`AnalyzeTraceError::UnsortedEvents`] for an out-of-order
    /// stream, else [`AnalyzeTraceError::NoWrites`] for a stream without
    /// writes.
    pub fn finish(self) -> Result<TraceAnalysis, AnalyzeTraceError> {
        if self.oversized {
            return Err(AnalyzeTraceError::OversizedTransfer);
        }
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

/// Whether a write of `[lo, hi)` extends the open tensor (address-adjacent
/// or overlapping — the merge condition of the batch clustering).
fn extends(t: &TensorObs, lo: u64, hi: u64) -> bool {
    lo <= t.addr_hi && hi >= t.addr_lo
}

/// The newest version of `addr`: the latest tensor covering it (see the
/// module contract), or `None` for never-written memory.
fn newest_covering(tensors: &[TensorObs], addr: u64) -> Option<TensorId> {
    tensors.iter().rposition(|t| t.contains(addr))
}

/// The one source every burst of the read `t` resolves to, when that is
/// sure without expanding it: the newest tensor covering the first burst
/// must cover the last burst too, and no newer tensor may touch the range.
/// `Some(None)` is never-written (weight) memory; `None` means the bursts
/// may resolve differently.
fn range_source(tensors: &[TensorObs], t: &Transfer) -> Option<Option<TensorId>> {
    let src = newest_covering(tensors, t.addr);
    let newer = src.map_or(0, |s| s + 1);
    let covers_last = src.is_none_or(|s| tensors[s].contains(t.last_burst().addr));
    let shadowed = tensors[newer..].iter().any(|n| n.overlaps(t.addr, t.end()));
    (covers_last && !shadowed).then_some(src)
}

impl TraceSink for StreamingAnalyzer {
    fn event(&mut self, e: TraceEvent) {
        self.clock(e.time_ps, e.time_ps);
        let hi = e.addr.saturating_add(e.bytes);
        match e.kind {
            AccessKind::Read => self.read(e.time_ps, e.addr, hi),
            AccessKind::Write => self.write(e.time_ps, e.addr, hi),
        }
    }

    /// Takes the transfer as one address range. A write folds its first
    /// burst as [`TraceSink::event`] would; every later burst starts where
    /// the one before ended, so it only extends the tensor that burst
    /// joined or opened. A read stays one pending entry until its window
    /// closes. A transfer of more than [`MAX_TRANSFER_BURSTS`] bursts is
    /// dropped and fails [`StreamingAnalyzer::finish`].
    fn transfer(&mut self, t: Transfer) {
        if t.bytes == 0 {
            return;
        }
        if t.bursts() > MAX_TRANSFER_BURSTS {
            self.oversized = true;
            return;
        }
        let (first, last) = (t.burst(0), t.last_burst());
        self.clock(first.time_ps, last.time_ps);
        match t.kind {
            AccessKind::Read => {
                self.pending_transfers.push(t);
                self.note_peak();
            }
            AccessKind::Write => {
                self.write(
                    first.time_ps,
                    t.addr,
                    first.addr.saturating_add(first.bytes),
                );
                self.write(last.time_ps, t.addr, t.end());
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

    #[test]
    fn hostile_addresses_saturate_instead_of_overflowing() {
        let top = u64::MAX;
        let mut s = StreamingAnalyzer::new();
        s.event(TraceEvent {
            time_ps: 0,
            addr: top,
            kind: AccessKind::Write,
            bytes: 64,
        });
        s.event(TraceEvent {
            time_ps: 5,
            addr: top - 8,
            kind: AccessKind::Read,
            bytes: 64,
        });
        s.transfer(Transfer {
            start_ps: 10,
            offset_ps: 0,
            window_ps: 100,
            addr: top - 100,
            bytes: 1000,
            burst_bytes: 64,
            kind: AccessKind::Read,
        });
        s.transfer(Transfer {
            start_ps: 200,
            offset_ps: 0,
            window_ps: 100,
            addr: top - 100,
            bytes: 1000,
            burst_bytes: 64,
            kind: AccessKind::Write,
        });
        let a = s.finish().unwrap();
        assert_eq!(a.tensors.len(), 2);
        assert_eq!(a.tensors[1].addr_hi, top, "the range is clamped");
        assert_eq!(a.layers[0].input_bytes, 0, "nothing lies inside [top, top)");
        assert_eq!(a.layers[0].weight_bytes, 100, "[top - 100, top)");
    }

    #[test]
    fn an_oversized_transfer_is_refused_without_expanding_it() {
        // 2^40 bytes in 1-byte bursts, read between two writes: expanding
        // it at the window close would never finish.
        let write = |time_ps, addr| TraceEvent {
            time_ps,
            addr,
            kind: AccessKind::Write,
            bytes: 64,
        };
        let huge = |kind| Transfer {
            start_ps: 10,
            offset_ps: 0,
            window_ps: 100,
            addr: 0x1000,
            bytes: 1 << 40,
            burst_bytes: 1,
            kind,
        };
        for kind in [AccessKind::Read, AccessKind::Write] {
            let mut s = StreamingAnalyzer::new();
            s.event(write(0, 0));
            s.transfer(huge(kind));
            s.event(TraceEvent {
                time_ps: 5,
                addr: 0x10,
                kind: AccessKind::Read,
                bytes: 64,
            });
            s.event(write(200, 0x10_0000));
            assert_eq!(s.finish(), Err(AnalyzeTraceError::OversizedTransfer));
        }
        let mut at_cap = huge(AccessKind::Read);
        at_cap.bytes = MAX_TRANSFER_BURSTS;
        assert_eq!(at_cap.bursts(), MAX_TRANSFER_BURSTS);
        let mut s = StreamingAnalyzer::new();
        s.event(write(0, 0));
        s.transfer(at_cap);
        assert!(!s.oversized, "a transfer at the cap is taken");
    }
}

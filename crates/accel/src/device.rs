//! The simulated victim device: an accelerator SoC plus external DRAM.
//!
//! [`Device`] seals a network and its weights behind the same information
//! boundary the paper's threat model gives the attacker: the only public
//! output of [`Device::run`] is the DRAM bus [`Trace`] (times, addresses,
//! directions, burst sizes — never data values). Ground-truth accessors are
//! segregated under [`Device::oracle`] and must only be used by evaluation
//! harnesses, never by attack code.

use crate::config::{AccelConfig, ConfigError, Precision};
use crate::defence::{defence_padding_bytes, Defence, NoiseState};
use crate::encoder::{encode_timing, EncodeTiming};
use crate::trace_event::{AccessKind, Trace, TraceSink, Transfer};
use hd_dnn::graph::{Network, NodeId, Op, Params, ValueShape};
use hd_dnn::{ForwardCache, SpanTrace};
use hd_tensor::cast;
use hd_tensor::{ConvBackend, Shape3, Tensor3};
use std::fmt;
use std::sync::OnceLock;

/// Typed failure of one device run.
///
/// Every [`Device`] has passed [`hd_dnn::verify::verify_strict`] at
/// [`Device::try_new`], so the sealed graph cannot fail mid-run. The one
/// input a run takes from outside, the image, can still be wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeviceError {
    /// The image does not have the device's [`Device::input_shape`]. The
    /// run is refused before any transfer is emitted.
    InputShape {
        /// The shape the device accepts.
        expected: Shape3,
        /// The shape of the image it was given.
        got: Shape3,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::InputShape { expected, got } => write!(
                f,
                "image shape {got} does not match the device input shape {expected}"
            ),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Gap between allocated DRAM regions so tensors never abut.
const REGION_GAP: u64 = 0x1_0000;
/// Base address of the (static) weight arena.
const WEIGHT_BASE: u64 = 0x1000_0000;
/// Base address of the (per-run) activation arena.
const ACT_BASE: u64 = 0x8000_0000;
/// Idle gap inserted between layer phases, in picoseconds.
const PHASE_GAP_PS: u64 = 100_000; // 100 ns
/// Seed of the PTQ calibration image set (fixed: quantization must be a
/// pure function of the sealed network, never of run history).
const PTQ_CALIB_SEED: u64 = 0x9E37_79B9;

/// The victim device.
#[derive(Clone, Debug)]
pub struct Device {
    net: Network,
    params: Params,
    cfg: AccelConfig,
    weight_regions: Vec<Option<(u64, u64)>>, // (addr, bytes) per node
    // Base seed for RandomZeros noise. The generator itself is built per
    // run (seeded with this plus an image hash) so `run(&self)` is Sync
    // and noise is independent of how concurrent runs interleave.
    noise_seed: u64,
    // Per-node effective MAC counts, precomputed at construction (weights
    // are sealed, so these never change between runs).
    node_macs: Vec<f64>,
    // Lazily-built sparse forward state (compacted weights + zero-input baseline),
    // shared by every run that takes the sparse path. Built at most once per
    // device; cloning a device before first use clones an empty cell.
    fwd_cache: OnceLock<ForwardCache>,
    // Lazily-built INT8 network (Precision::Int8 only). PTQ calibration
    // is seeded, so every device over the same (net, params) quantizes
    // identically regardless of run order.
    qnet: OnceLock<hd_dnn::quantize::QuantizedNet>,
    // Lazily-computed GEMM call dimensions per conv node (Im2colGemm
    // victims only). A pure function of the sealed weights and config, so
    // computed at most once per device.
    gemm_shapes: OnceLock<Vec<(NodeId, hd_tensor::GemmShape)>>,
}

/// Ground-truth view handed out by [`Device::oracle`] for evaluation only.
#[derive(Clone, Copy, Debug)]
pub struct Oracle<'a> {
    /// The victim network (architecture the attacker tries to steal).
    pub net: &'a Network,
    /// The victim parameters.
    pub params: &'a Params,
}

impl Device {
    /// Seals `net`/`params` inside a device with the given configuration,
    /// validating the config and statically verifying the graph first (see
    /// [`Device::try_new`]).
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid or verification rejects the graph
    /// (with the full diagnostic list). `#[track_caller]` pins the panic to
    /// the call site. Use [`Device::try_new`] for the non-panicking
    /// variant; there is no unchecked one, so every device runs a verified
    /// graph.
    #[track_caller]
    pub fn new(net: Network, params: Params, cfg: AccelConfig) -> Self {
        match Device::try_new(net, params, cfg) {
            Ok(dev) => dev,
            #[expect(
                clippy::panic,
                reason = "documented #[track_caller] wrapper; try_new is the fallible form"
            )]
            Err(e) => panic!("rejected device: {e}"),
        }
    }

    /// Validating constructor: runs [`AccelConfig::validate`], then
    /// [`hd_dnn::verify::verify_strict`] over the graph, params, and
    /// config-derived [`Limits`](hd_dnn::verify::Limits), before sealing the
    /// device.
    ///
    /// # Errors
    ///
    /// Returns the config's own [`ConfigError`]s first (DRAM channel count,
    /// zero structural counts, non-positive rates); then
    /// [`ConfigError::Model`] with the verifier's full diagnostic list when
    /// the graph cannot execute correctly on this configuration: shape
    /// inconsistencies, topology violations, param/geometry disagreements,
    /// or weight buffer pass-count overflows.
    pub fn try_new(net: Network, params: Params, cfg: AccelConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        hd_dnn::verify::verify_strict(&net, Some(&params), &cfg.verify_limits()).map_err(|e| {
            ConfigError::Model {
                diagnostics: e.diagnostics,
            }
        })?;
        // Statically place weights: one region per weighted node.
        let mut weight_regions = vec![None; net.len()];
        let mut cursor = WEIGHT_BASE;
        for id in net.weighted_nodes() {
            let bytes = weight_transfer_bytes(&net, &params, &cfg, id);
            weight_regions[id] = Some((cursor, bytes));
            cursor += bytes + REGION_GAP;
            cursor = align(cursor);
        }
        let noise_seed = match cfg.defence {
            Defence::RandomZeros { seed, .. } => seed,
            _ => 0,
        };
        // Effective MAC counts are a function of the sealed weights only;
        // computing them per run would rescan every weight tensor (~10 ms
        // on VGG-S) in the prober hot loop.
        let node_macs = (0..net.len())
            .map(|id| effective_macs(&net, &params, id))
            .collect();
        Ok(Device {
            net,
            params,
            cfg,
            weight_regions,
            noise_seed,
            node_macs,
            fwd_cache: OnceLock::new(),
            qnet: OnceLock::new(),
            gemm_shapes: OnceLock::new(),
        })
    }

    /// Runs the forward pass in the configured numerics, choosing the walk
    /// from the image.
    ///
    /// The cached walk (compacted weights + dirty-column recompute) is
    /// taken exactly when the policy's `auto_sparse` is set and the image
    /// is below the input density threshold — the stripe-probe regime of
    /// the prober hot loop; every other image takes the full-width walk.
    /// The walks are bit-identical, so this only changes speed, never the
    /// trace or the encode timings. The cached walk's outputs stay span
    /// deltas over the cached baseline: the device sizes them without
    /// materialising whole maps. The cached walk also copies every conv
    /// column that translates a column of a recent walk in the cache's
    /// constant-capacity memo, so the callers hand the trace back with
    /// [`SpanTrace::remember`] once done with it.
    fn forward_for(&self, image: &Tensor3) -> SpanTrace<'_> {
        if self.cfg.compute == Precision::Int8 {
            return self
                .net
                .forward_quantized(self.quantized_net(), image)
                .into();
        }
        let policy = self.cfg.backend_policy;
        if policy.auto_sparse && policy.input_is_sparse(image.nnz(), image.shape().len()) {
            let mut built = false;
            let cache = self.fwd_cache.get_or_init(|| {
                built = true;
                ForwardCache::build(&self.net, &self.params, policy)
            });
            hd_obs::counter_add("device.fwd_cache", if built { "miss" } else { "hit" }, 1);
            self.net.forward_spans(&self.params, image, cache)
        } else {
            self.net.forward(&self.params, image).into()
        }
    }

    /// The lazily-built INT8 network ([`Precision::Int8`] devices only).
    ///
    /// Calibration uses a fixed-seed uniform image set, so quantization is
    /// a pure function of the sealed `(net, params)` — every clone and
    /// every run order produces the same [`hd_dnn::quantize::QuantizedNet`].
    pub fn quantized_net(&self) -> &hd_dnn::quantize::QuantizedNet {
        self.qnet.get_or_init(|| {
            let _span = hd_obs::span("device.ptq", "");
            let calib =
                hd_dnn::quantize::calibration_images(self.net.input_shape(), 8, PTQ_CALIB_SEED);
            hd_dnn::quantize::ptq(&self.net, &self.params, &calib)
        })
    }

    /// Per-run noise generator: a pure function of the defence seed and
    /// the input image, so repeated or concurrent runs are reproducible.
    fn noise_for(&self, image: &Tensor3) -> NoiseState {
        NoiseState::for_run(self.noise_seed, fnv1a_f32(image.data()))
    }

    /// The accelerator configuration (public on a real device's datasheet).
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// The input shape the device accepts (the attacker knows this — they
    /// control the camera).
    pub fn input_shape(&self) -> hd_tensor::Shape3 {
        self.net.input_shape()
    }

    /// Ground truth for evaluation harnesses.
    ///
    /// Attack code must never call this; see the crate-level docs.
    pub fn oracle(&self) -> Oracle<'_> {
        Oracle {
            net: &self.net,
            params: &self.params,
        }
    }

    /// Executes one inference and returns the DRAM bus trace.
    ///
    /// # Panics
    ///
    /// Panics if the image shape does not match [`Device::input_shape`]
    /// (see [`Device::try_run`] for the non-panicking variant).
    /// `#[track_caller]` pins the panic location to the call site, not this
    /// wrapper.
    #[track_caller]
    pub fn run(&self, image: &Tensor3) -> Trace {
        match self.try_run(image) {
            Ok(trace) => trace,
            #[expect(
                clippy::panic,
                reason = "documented #[track_caller] wrapper; the try_ variant is the fallible form"
            )]
            Err(e) => panic!("device simulation failed: {e}"),
        }
    }

    /// Executes one inference, buffering its bus events into a [`Trace`].
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InputShape`] if the image shape does not
    /// match [`Device::input_shape`].
    pub fn try_run(&self, image: &Tensor3) -> Result<Trace, DeviceError> {
        let mut out = Trace::default();
        self.try_run_with(image, &mut out)?;
        Ok(out)
    }

    /// Executes one inference, streaming each DRAM transfer into `sink`
    /// ([`TraceSink::transfer`]) as it is issued instead of materializing
    /// a [`Trace`].
    ///
    /// This is the memory-bounded observation path: an incremental
    /// analyzer consuming the stream retains only its running state, while
    /// [`Device::try_run`] (a thin wrapper buffering into a [`Trace`] sink,
    /// which expands each transfer into its bursts) keeps the whole event
    /// vector alive for fixtures and CSV export. Bursts reach the sink in
    /// nondecreasing `time_ps` order.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InputShape`] if the image shape does not
    /// match [`Device::input_shape`]; nothing reaches the sink then.
    pub fn try_run_with(
        &self,
        image: &Tensor3,
        sink: &mut dyn TraceSink,
    ) -> Result<(), DeviceError> {
        if image.shape() != self.input_shape() {
            return Err(DeviceError::InputShape {
                expected: self.input_shape(),
                got: image.shape(),
            });
        }
        let _run_span = hd_obs::span("device.run", "");
        let noise = self.noise_for(image);
        let trace = self.forward_for(image);
        let mut t: u64 = 0;

        // Activation regions are (re)allocated per run. With
        // `reuse_activations`, freed buffers are recycled once their last
        // consumer has run — each write then re-versions its addresses
        // (paper footnote 4). A verified graph reads only earlier nodes,
        // so every region is assigned before it is read.
        let mut act_regions: Vec<(u64, u64)> = vec![(0, 0); self.net.len()];
        let mut allocator = ActAllocator::new(self.cfg.reuse_activations);
        // Remaining-consumer counts per node output (for buffer recycling).
        let mut remaining_uses: Vec<usize> = vec![0; self.net.len()];
        for node in self.net.nodes() {
            for &src in &node.inputs {
                remaining_uses[src] += 1;
            }
        }

        // Host DMA: the (compressed) input image lands in DRAM first.
        let input_bytes = self
            .cfg
            .act_scheme
            .encoded_size(image.data(), self.cfg.act_bits)
            .bytes;
        let input_region = allocator.alloc(input_bytes);
        act_regions[0] = input_region;
        t = self.emit_stream(sink, t, input_region, AccessKind::Write, None);
        hd_obs::counter_add("dram.write.bytes", "input_dma", input_bytes);
        t += PHASE_GAP_PS;

        for (id, node) in self.net.nodes().iter().enumerate() {
            if matches!(node.op, Op::Input) {
                continue;
            }
            // Flatten is a pure aliasing reshape: no traffic, no new tensor.
            if matches!(node.op, Op::Flatten) {
                act_regions[id] = act_regions[node.inputs[0]];
                // The alias keeps the buffer alive for its own consumers.
                remaining_uses[node.inputs[0]] += remaining_uses[id];
                continue;
            }
            let _layer_span = hd_obs::span("device.layer", self.net.name(id));

            // 1) Weight fetch.
            if let Some((addr, bytes)) = self.weight_regions[id] {
                t = self.emit_stream(sink, t, (addr, bytes), AccessKind::Read, None);
                hd_obs::counter_add("dram.read.bytes", "weights", bytes);
            }
            // 2) Input activation fetch. Layers whose weights exceed the
            //    on-chip buffer run in multiple passes and re-read their
            //    inputs once per pass (tiled execution; the attacker's
            //    footprint analysis merges the repeated address ranges).
            let passes = self.weight_regions[id]
                .map(|(_, wb)| wb.div_ceil(self.cfg.weight_glb_bytes.max(1)).max(1))
                .unwrap_or(1);
            for _ in 0..passes {
                for &src in &node.inputs {
                    let region = act_regions[src];
                    t = self.emit_stream(sink, t, region, AccessKind::Read, None);
                    hd_obs::counter_add("dram.read.bytes", "activations", region.1);
                }
            }

            // 3) Compute phase (no bus traffic; psums accumulate on-chip).
            t += self.compute_duration_ps(id);

            // 3b) Separate batch-norm execution: write the dense pre-BN
            //     psums to DRAM, then read them back for the BN pass. The
            //     attacker sees an uncompressed tensor whose size equals
            //     P*Q*K exactly (paper §2, "Broader application").
            if self.cfg.separate_batch_norm && trace.nodes[id].pre_bn.is_some() {
                let dense_bytes = (cast::usize_to_u64(self.net.value_shape(id).len())
                    * u64::from(self.cfg.act_bits))
                .div_ceil(8);
                let psum_region = allocator.alloc(dense_bytes);
                t = self.emit_stream(sink, t, psum_region, AccessKind::Write, None);
                hd_obs::counter_add("dram.write.bytes", "psum", dense_bytes);
                t += PHASE_GAP_PS;
                t = self.emit_stream(sink, t, psum_region, AccessKind::Read, None);
                hd_obs::counter_add("dram.read.bytes", "psum", dense_bytes);
            }

            // 4) Encode + writeback phase: the timing side channel.
            let (out_bytes, timing) = self.encode_output(&trace, id, &noise);
            hd_obs::observe(
                "device.encode.duration_ps",
                self.net.name(id),
                timing.duration_ps as f64,
            );
            let region = allocator.alloc(out_bytes);
            act_regions[id] = region;
            t = self.emit_stream(sink, t, region, AccessKind::Write, Some(&timing));
            hd_obs::counter_add("dram.write.bytes", "activations", out_bytes);
            t += PHASE_GAP_PS;

            // Release input buffers whose last consumer just ran.
            for &src in &node.inputs {
                remaining_uses[src] = remaining_uses[src].saturating_sub(1);
                if remaining_uses[src] == 0 {
                    allocator.release(act_regions[src]);
                }
            }
        }
        trace.remember();
        Ok(())
    }

    /// Per-layer encode timings for an input, keyed by node id. This is a
    /// modelling convenience for experiments; the attacker derives the same
    /// information from the trace write timestamps.
    pub fn encode_timings(&self, image: &Tensor3) -> Vec<(NodeId, EncodeTiming)> {
        let noise = self.noise_for(image);
        let trace = self.forward_for(image);
        let mut v = Vec::new();
        for (id, node) in self.net.nodes().iter().enumerate() {
            if matches!(node.op, Op::Input | Op::Flatten) {
                continue;
            }
            v.push((id, self.encode_output(&trace, id, &noise).1));
        }
        trace.remember();
        v
    }

    /// Node `id`'s encode step: its output's transfer bytes, and the
    /// timing of the psum drain that writes them back.
    fn encode_output(
        &self,
        trace: &SpanTrace<'_>,
        id: NodeId,
        noise: &NoiseState,
    ) -> (u64, EncodeTiming) {
        let out_bytes = self.value_transfer_bytes(trace, id, noise);
        let timing = encode_timing(&self.cfg, self.scheduled_psum_elems(id), out_bytes);
        (out_bytes, timing)
    }

    /// Psum count the encode pipeline actually drains for one output.
    ///
    /// Without a scheduling defence this is the output element count. An
    /// NNReArch-style defence pads the tile loop, so the drain covers the
    /// channel dimension rounded up to the schedule tile — the padded
    /// lanes are architectural zeros that cost cycles but, being elided by
    /// the sparse encoder, never move a byte (transfer volumes and traces
    /// are untouched).
    fn scheduled_psum_elems(&self, id: NodeId) -> u64 {
        let shape = self.net.value_shape(id);
        if self.cfg.defence.schedule_tile() == 1 {
            return cast::usize_to_u64(shape.len());
        }
        match shape {
            ValueShape::Map(s) => cast::usize_to_u64(self.cfg.defence.pad_dim(s.c) * s.h * s.w),
            ValueShape::Vector(n) => cast::usize_to_u64(self.cfg.defence.pad_dim(n)),
        }
    }

    /// Dimensions of every GEMM call one inference issues, keyed by conv
    /// node id, in execution order — the Cache-Telepathy observable (Yan
    /// et al.): on a real system these leak through shared-cache probes of
    /// the BLAS library's block loops, no DRAM access needed.
    ///
    /// Empty unless the victim's software stack lowers convolutions through
    /// im2col+GEMM ([`ConvBackend::Im2colGemm`]); a sparse CSC engine
    /// issues no GEMM, so there is nothing to observe. This is the only
    /// thing [`AccelConfig::conv_backend`] decides. Under
    /// [`Defence::NnRearch`] every dimension is rounded up to the schedule
    /// tile, which is exactly what the padded block loops expose.
    ///
    /// The dims are a pure function of the sealed weights and config
    /// (input-independent), so they are computed once and cached.
    pub fn gemm_calls(&self) -> &[(NodeId, hd_tensor::GemmShape)] {
        self.gemm_shapes.get_or_init(|| {
            if self.cfg.conv_backend != ConvBackend::Im2colGemm {
                return Vec::new();
            }
            let mut calls = Vec::new();
            for (id, node) in self.net.nodes().iter().enumerate() {
                let Op::Conv(spec) = &node.op else { continue };
                let Some(in_shape) = self.net.value_shape(node.inputs[0]).as_map() else {
                    continue;
                };
                let cfg = hd_tensor::conv::Conv2dCfg::new(spec.stride, spec.padding);
                let w = self.params.conv(id).w;
                if let Some(g) = hd_tensor::gemm_call_dims(in_shape.h, in_shape.w, w, &cfg) {
                    let d = &self.cfg.defence;
                    calls.push((
                        id,
                        hd_tensor::GemmShape {
                            m: d.pad_dim(g.m),
                            k: d.pad_dim(g.k),
                            n: d.pad_dim(g.n),
                        },
                    ));
                }
            }
            calls
        })
    }

    /// First-order energy estimate for one inference (see [`crate::energy`]).
    ///
    /// # Panics
    ///
    /// Panics if the image shape does not match [`Device::input_shape`];
    /// see [`Device::try_energy_estimate`].
    #[track_caller]
    pub fn energy_estimate(
        &self,
        image: &Tensor3,
        model: &crate::energy::EnergyModel,
    ) -> crate::energy::EnergyReport {
        match self.try_energy_estimate(image, model) {
            Ok(report) => report,
            #[expect(
                clippy::panic,
                reason = "documented #[track_caller] wrapper; the try_ variant is the fallible form"
            )]
            Err(e) => panic!("device simulation failed: {e}"),
        }
    }

    /// Non-panicking variant of [`Device::energy_estimate`].
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InputShape`] for a wrong-shape image.
    pub fn try_energy_estimate(
        &self,
        image: &Tensor3,
        model: &crate::energy::EnergyModel,
    ) -> Result<crate::energy::EnergyReport, DeviceError> {
        let trace = self.try_run(image)?;
        let mut macs = 0.0;
        let mut psums = 0.0;
        for (id, node) in self.net.nodes().iter().enumerate() {
            if matches!(node.op, Op::Input | Op::Flatten) {
                continue;
            }
            macs += self.node_macs[id];
            psums += self.net.value_shape(id).len() as f64;
        }
        Ok(crate::energy::estimate_energy(
            model, &self.cfg, &trace, macs, psums,
        ))
    }

    /// Transfer bytes of node `id`'s output. Dense, Bitmap and Csc sizes
    /// follow from the nonzero count alone, which the span trace gives in
    /// O(span); run-length, Huffman and the PadEdges band read the whole
    /// output. The output is one Csc channel, as in
    /// [`CompressionScheme::encoded_size`](hd_tensor::CompressionScheme::encoded_size).
    fn value_transfer_bytes(&self, trace: &SpanTrace<'_>, id: NodeId, noise: &NoiseState) -> u64 {
        let (scheme, bits) = (self.cfg.act_scheme, self.cfg.act_bits);
        let shape = self.net.value_shape(id);
        let total = shape.len();
        let base = match scheme.size_from_nnz(total, total.max(1), trace.out_nnz(id), bits) {
            Some(size) => size.bytes,
            None => scheme.encoded_size(&trace.out_values(id), bits).bytes,
        };
        let edge_zero_cells = match (&self.cfg.defence, shape) {
            (Defence::PadEdges { band }, ValueShape::Map(s)) => {
                edge_zero_cells(s, &trace.out_values(id), *band)
            }
            _ => 0,
        };
        base + defence_padding_bytes(&self.cfg.defence, noise, edge_zero_cells, bits)
    }

    fn compute_duration_ps(&self, id: NodeId) -> u64 {
        let macs = self.node_macs[id];
        // INT8 PE arrays pack two 8-bit MACs into each f32-equivalent
        // multiplier slot, doubling compute throughput; the encode phase
        // (the side channel) is unaffected.
        let throughput = match self.cfg.compute {
            Precision::F32 => self.cfg.macs_per_cycle,
            Precision::Int8 => self.cfg.macs_per_cycle * 2.0,
        };
        let cycles = macs / throughput.max(1.0);
        hd_obs::counter_add(
            "device.compute.cycles",
            self.net.name(id),
            cast::f64_round_to_u64(cycles),
        );
        cast::f64_round_to_u64(cycles / (self.cfg.freq_mhz * 1e6) * 1e12)
    }

    /// Streams the transfer of `region = (addr, bytes)` into `sink` as one
    /// [`Transfer`] and returns the time its phase ends. A plain transfer
    /// (`encode: None`) moves at DRAM bandwidth; an encode writeback takes
    /// the encoder's duration, its first burst `first_write_offset_ps` in.
    fn emit_stream(
        &self,
        sink: &mut dyn TraceSink,
        start_ps: u64,
        (addr, bytes): (u64, u64),
        kind: AccessKind,
        encode: Option<&EncodeTiming>,
    ) -> u64 {
        if bytes == 0 {
            return start_ps;
        }
        let (duration_ps, offset_ps) = match encode {
            Some(timing) => (timing.duration_ps, timing.first_write_offset_ps),
            None => (
                bytes_duration_ps(bytes, self.cfg.dram.bandwidth_bytes_per_sec()),
                0,
            ),
        };
        sink.transfer(Transfer {
            start_ps,
            offset_ps,
            window_ps: duration_ps.saturating_sub(offset_ps).max(1),
            addr,
            bytes,
            burst_bytes: self.cfg.burst_bytes,
            kind,
        });
        start_ps + duration_ps.max(1)
    }
}

/// Per-run DRAM activation allocator: bump allocation by default,
/// optional slot recycling when the device reuses buffers.
struct ActAllocator {
    cursor: u64,
    reuse: bool,
    free: Vec<(u64, u64)>, // (addr, capacity)
    capacity_of: std::collections::HashMap<u64, u64>,
}

impl ActAllocator {
    fn new(reuse: bool) -> Self {
        ActAllocator {
            cursor: ACT_BASE,
            reuse,
            free: Vec::new(),
            capacity_of: std::collections::HashMap::new(),
        }
    }

    fn alloc(&mut self, bytes: u64) -> (u64, u64) {
        if self.reuse {
            if let Some(pos) = self.free.iter().position(|&(_, cap)| cap >= bytes) {
                let (addr, cap) = self.free.swap_remove(pos);
                self.capacity_of.insert(addr, cap);
                return (addr, bytes);
            }
        }
        let addr = self.cursor;
        let cap = bytes.max(4096) * 2;
        self.cursor = align(self.cursor + cap + REGION_GAP);
        self.capacity_of.insert(addr, cap);
        (addr, bytes)
    }

    fn release(&mut self, region: (u64, u64)) {
        if !self.reuse {
            return;
        }
        if let Some(cap) = self.capacity_of.get(&region.0).copied() {
            self.free.push((region.0, cap));
        }
    }
}

/// Cells within `band` cells of an edge of each channel of the `shape`
/// map `data` that the codec elides, judged by its own predicate
/// ([`hd_tensor::nnz`]). Only the band is visited: every cell of the top
/// and bottom `band` rows, and the first and last `band` cells of each row
/// between them.
fn edge_zero_cells(shape: Shape3, data: &[f32], band: usize) -> usize {
    let (h, w) = (shape.h, shape.w);
    let left = band.min(w);
    let right = w.saturating_sub(band).max(left);
    let zeros = |cells: &[f32]| cells.len() - hd_tensor::nnz(cells);
    data.chunks_exact(w.max(1))
        .enumerate()
        .map(|(row, cells)| {
            let y = row % h;
            if y < band || y + band >= h {
                zeros(cells)
            } else {
                zeros(&cells[..left]) + zeros(&cells[right..])
            }
        })
        .sum()
}

fn align(addr: u64) -> u64 {
    (addr + 0xFFF) & !0xFFF
}

/// FNV-1a over the raw bit patterns of an f32 slice; used as the per-run
/// discriminator for defence noise (bit-exact, platform-independent).
fn fnv1a_f32(data: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn bytes_duration_ps(bytes: u64, bw_bytes_per_sec: f64) -> u64 {
    cast::f64_round_to_u64(bytes as f64 / bw_bytes_per_sec * 1e12)
}

/// Compressed transfer size of a node's weights (plus its small dense
/// bias/batch-norm sideband parameters).
fn weight_transfer_bytes(net: &Network, params: &Params, cfg: &AccelConfig, id: NodeId) -> u64 {
    match &net.nodes()[id].op {
        Op::Conv(_) => {
            let p = params.conv(id);
            let mut bytes = cfg
                .weight_scheme
                .encoded_size(p.w.data(), cfg.weight_bits)
                .bytes;
            if let Some(b) = p.b {
                bytes += cast::usize_to_u64(b.len()) * 4;
            }
            if let Some(bn) = p.bn {
                bytes += cast::usize_to_u64(bn.channels()) * 8;
            }
            bytes
        }
        Op::DwConv { .. } => {
            let p = params.dwconv(id);
            let mut bytes = cfg
                .weight_scheme
                .encoded_size(p.w.data(), cfg.weight_bits)
                .bytes;
            if let Some(bn) = p.bn {
                bytes += cast::usize_to_u64(bn.channels()) * 8;
            }
            bytes
        }
        Op::Linear { .. } => {
            let p = params.linear(id);
            cfg.weight_scheme.encoded_size(p.w, cfg.weight_bits).bytes
                + cast::usize_to_u64(p.b.len()) * 4
        }
        _ => 0,
    }
}

/// Effective (zero-skipped) MAC estimate for the compute-phase duration.
fn effective_macs(net: &Network, params: &Params, id: NodeId) -> f64 {
    // Conv outputs of a verified graph are maps; `plane` is their P*Q.
    let plane = net.value_shape(id).as_map().map_or(0, |s| s.h * s.w) as f64;
    match &net.nodes()[id].op {
        Op::Conv(spec) => {
            let p = params.conv(id);
            let density = p.w.nnz() as f64 / p.w.len().max(1) as f64;
            plane * p.w.len() as f64 / (spec.stride * spec.stride) as f64 * density
        }
        Op::DwConv { .. } => {
            let p = params.dwconv(id);
            let density = p.w.nnz() as f64 / p.w.len().max(1) as f64;
            plane * p.w.len() as f64 * density
        }
        Op::Linear { .. } => {
            let p = params.linear(id);
            hd_tensor::nnz(p.w) as f64
        }
        Op::Pool { .. } | Op::Add { .. } | Op::GlobalAvgPool => net.value_shape(id).len() as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_dnn::graph::{ForwardTrace, NetworkBuilder, NodeTrace, Value};
    use hd_tensor::CompressionScheme;
    use rand::{Rng, SeedableRng};

    #[test]
    fn edge_zero_cells_visits_the_band_like_a_full_scan() {
        let full_scan = |t: &Tensor3, band: usize| {
            let (h, w) = (t.h(), t.w());
            let mut zeros = 0;
            for c in 0..t.c() {
                for y in 0..h {
                    for x in 0..w {
                        let on_edge = y < band || x < band || y + band >= h || x + band >= w;
                        let elided = hd_tensor::nnz(&[t.at(c, y, x)]) == 0;
                        zeros += usize::from(on_edge && elided);
                    }
                }
            }
            zeros
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xED6E);
        for _ in 0..64 {
            let (c, h, w) = (
                rng.gen_range(1..4usize),
                rng.gen_range(1..12usize),
                rng.gen_range(1..12usize),
            );
            let mut t = Tensor3::zeros(c, h, w);
            let density = rng.gen_range(0.0..1.0f64);
            // Values below the codec's zero tolerance count as zeros.
            let tiny = [0.0, -0.0, 1e-30, -1e-13];
            for v in t.data_mut() {
                if rng.gen_bool(density) {
                    *v = rng.gen_range(-1.0..1.0f32);
                } else {
                    *v = tiny[rng.gen_range(0..tiny.len())];
                }
            }
            for band in [0, 1, h / 2, h.div_ceil(2), h.max(w), h + w + 3] {
                assert_eq!(
                    edge_zero_cells(t.shape(), t.data(), band),
                    full_scan(&t, band),
                    "{c}x{h}x{w} map, band {band}"
                );
            }
        }
    }

    fn tiny_device() -> Device {
        let mut b = NetworkBuilder::new(2, 8, 8);
        let x = b.input();
        let x = b.conv(x, 4, 3, 1);
        let x = b.max_pool(x, 2);
        let x = b.conv(x, 6, 3, 1);
        let x = b.global_avg_pool(x);
        b.linear(x, 3);
        let net = b.build();
        let params = Params::init(&net, 42);
        Device::new(net, params, AccelConfig::eyeriss_v2())
    }

    #[test]
    fn run_produces_ordered_trace() {
        let dev = tiny_device();
        let img = Tensor3::full(2, 8, 8, 0.5);
        let trace = dev.run(&img);
        assert!(!trace.is_empty());
        for w in trace.events.windows(2) {
            assert!(w[0].time_ps <= w[1].time_ps, "events out of order");
        }
    }

    #[test]
    fn trace_has_reads_and_writes() {
        let dev = tiny_device();
        let img = Tensor3::full(2, 8, 8, 0.5);
        let trace = dev.run(&img);
        assert!(trace.total_bytes(AccessKind::Read) > 0);
        assert!(trace.total_bytes(AccessKind::Write) > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let dev = tiny_device();
        let img = Tensor3::full(2, 8, 8, 0.5);
        assert_eq!(dev.run(&img), dev.run(&img));
    }

    #[test]
    fn device_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Device>();
    }

    #[test]
    fn random_zeros_noise_is_per_image_not_per_call_order() {
        let mut b = NetworkBuilder::new(2, 8, 8);
        let x = b.input();
        b.conv(x, 4, 3, 1);
        let net = b.build();
        let params = Params::init(&net, 42);
        let mut cfg = AccelConfig::eyeriss_v2();
        cfg.defence = Defence::RandomZeros {
            max_bytes: 64,
            seed: 9,
        };
        let dev = Device::new(net, params, cfg);
        let a = Tensor3::full(2, 8, 8, 0.5);
        let b = Tensor3::full(2, 8, 8, 0.25);
        // Interleaving runs of different images must not change any trace:
        // noise depends on (seed, image), not on device call history.
        let ta1 = dev.run(&a);
        let tb1 = dev.run(&b);
        let tb2 = dev.run(&b);
        let ta2 = dev.run(&a);
        assert_eq!(ta1, ta2);
        assert_eq!(tb1, tb2);
        // ...while distinct images still draw distinct noise streams.
        assert_ne!(ta1, tb1);
    }

    #[test]
    fn weight_reads_are_input_independent() {
        let dev = tiny_device();
        let a = dev.run(&Tensor3::full(2, 8, 8, 0.5));
        let b = dev.run(&Tensor3::zeros(2, 8, 8));
        // Weight-region reads (static arena below ACT_BASE) are identical
        // regardless of input; activation traffic may differ.
        let weight_reads = |t: &Trace| -> Vec<(u64, u64)> {
            t.events
                .iter()
                .filter(|e| e.kind == AccessKind::Read && e.addr < ACT_BASE)
                .map(|e| (e.addr, e.bytes))
                .collect()
        };
        assert_eq!(weight_reads(&a), weight_reads(&b));
        // The input image compresses differently: its host-DMA write volume
        // is smaller for the all-zero image.
        let first_write_bytes = |t: &Trace| -> u64 {
            t.events
                .iter()
                .take_while(|e| e.kind == AccessKind::Write)
                .map(|e| e.bytes)
                .sum()
        };
        assert!(first_write_bytes(&b) < first_write_bytes(&a));
    }

    #[test]
    fn weight_regions_disjoint_from_activation_regions() {
        let dev = tiny_device();
        let img = Tensor3::full(2, 8, 8, 0.5);
        let trace = dev.run(&img);
        for e in &trace.events {
            if e.kind == AccessKind::Write {
                assert!(e.addr >= ACT_BASE, "writes must target activations");
            }
        }
    }

    #[test]
    fn encode_timings_cover_all_compute_nodes() {
        let dev = tiny_device();
        let img = Tensor3::full(2, 8, 8, 0.5);
        let timings = dev.encode_timings(&img);
        // conv, pool, conv, gap, linear = 5 (input skipped, no flatten).
        assert_eq!(timings.len(), 5);
        for (_, t) in &timings {
            assert!(t.duration_ps > 0);
        }
    }

    #[test]
    fn nnrearch_equalizes_windows_but_not_traces() {
        let build = |defence: Defence| {
            let mut b = NetworkBuilder::new(2, 8, 8);
            let x = b.input();
            let x = b.conv(x, 4, 3, 1);
            b.conv(x, 6, 3, 1);
            let net = b.build();
            let params = Params::init(&net, 42);
            let mut cfg = AccelConfig::eyeriss_v2();
            cfg.defence = defence;
            Device::new(net, params, cfg)
        };
        let plain = build(Defence::None);
        let padded = build(Defence::NnRearch { tile: 16 });
        let img = Tensor3::full(2, 8, 8, 0.5);

        // Schedule padding rounds both conv drains up to 16 channels, so
        // the 4-channel and 6-channel layers become indistinguishable in
        // the GLB-bound window; undefended they differ.
        let w = |d: &Device| -> Vec<u64> {
            d.encode_timings(&img)
                .iter()
                .map(|(_, t)| t.duration_ps)
                .collect()
        };
        let (wp, wn) = (w(&padded), w(&plain));
        assert_ne!(wn[0], wn[1], "undefended windows must differ");
        assert_eq!(wp[0], wp[1], "NNReArch must equalize the windows");
        assert!(wp[0] > wn[1], "padding can only lengthen the drain");

        // The volume channel is untouched: every write's byte count (and
        // address) matches the undefended device event for event.
        let writes = |t: &Trace| -> Vec<(u64, u64)> {
            t.events
                .iter()
                .filter(|e| e.kind == AccessKind::Write)
                .map(|e| (e.addr, e.bytes))
                .collect()
        };
        assert_eq!(writes(&plain.run(&img)), writes(&padded.run(&img)));
    }

    #[test]
    fn gemm_calls_report_real_dims_and_respect_the_backend() {
        let mk = |cfg: AccelConfig| {
            let mut b = NetworkBuilder::new(3, 8, 8);
            let x = b.input();
            let x = b.conv(x, 4, 3, 1);
            let x = b.conv(x, 6, 3, 2);
            let x = b.global_avg_pool(x);
            b.linear(x, 3);
            let net = b.build();
            let params = Params::init(&net, 7);
            Device::new(net, params, cfg)
        };
        let gemm = mk(AccelConfig::eyeriss_v2().with_conv_backend(ConvBackend::Im2colGemm));
        let calls = gemm.gemm_calls();
        assert_eq!(calls.len(), 2, "one GEMM per conv node");
        // Dense init: m = K, k = C·3·3, n = P·Q (Same padding).
        assert_eq!(calls[0].1, hd_tensor::GemmShape { m: 4, k: 27, n: 64 });
        assert_eq!(calls[1].1, hd_tensor::GemmShape { m: 6, k: 36, n: 16 });
        // Cached: the second call returns the same slice.
        assert_eq!(gemm.gemm_calls(), calls);

        // The CSC backend issues no GEMM — nothing for the channel to see.
        let sparse = mk(AccelConfig::eyeriss_v2().with_conv_backend(ConvBackend::SparseCsc));
        assert!(sparse.gemm_calls().is_empty());

        // NNReArch rounds every dimension up to the schedule tile.
        let mut cfg = AccelConfig::eyeriss_v2().with_conv_backend(ConvBackend::Im2colGemm);
        cfg.defence = Defence::NnRearch { tile: 16 };
        let defended = mk(cfg);
        assert_eq!(
            defended.gemm_calls()[0].1,
            hd_tensor::GemmShape {
                m: 16,
                k: 32,
                n: 64
            }
        );
    }

    #[test]
    fn psum_window_tracks_dense_output_size() {
        // Two convs with different K on the same spatial size: the encode
        // windows must scale with K when GLB-bound.
        let mk = |k: usize| {
            let mut b = NetworkBuilder::new(1, 8, 8);
            let x = b.input();
            b.conv(x, k, 3, 1);
            let net = b.build();
            let params = Params::init(&net, 7);
            Device::new(net, params, AccelConfig::eyeriss_v2())
        };
        let img = Tensor3::full(1, 8, 8, 0.3);
        let t4 = mk(4).encode_timings(&img)[0].1;
        let t8 = mk(8).encode_timings(&img)[0].1;
        let ratio = t8.duration_ps as f64 / t4.duration_ps as f64;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn pad_edges_pads_every_band_cell_the_codec_elides() {
        let mut cfg = AccelConfig::eyeriss_v2();
        cfg.defence = Defence::PadEdges { band: 1 };
        let mut b = NetworkBuilder::new(2, 8, 8);
        let x = b.input();
        b.conv(x, 4, 3, 1);
        let net = b.build();
        let params = Params::init(&net, 42);
        let dev = Device::new(net, params, cfg);
        let noise = NoiseState::for_run(0, 0);
        let map_with_band = |edge: f32| {
            let mut t = Tensor3::full(2, 8, 8, 0.5);
            for c in 0..2 {
                for i in 0..8 {
                    t.set(c, 0, i, edge);
                    t.set(c, i, 7, edge);
                }
            }
            // The conv's output in a trace of the device's two nodes.
            let node = |out| NodeTrace {
                out,
                pre_bn: None,
                pre_relu: None,
            };
            let input = node(Value::Map(Tensor3::zeros(2, 8, 8)));
            SpanTrace::from(ForwardTrace {
                traces: vec![input, node(Value::Map(t))],
            })
        };
        // The codec elides 1e-30 like 0.0, so the defence must pad it too:
        // otherwise the band's volume still moves with the input.
        assert_eq!(
            dev.value_transfer_bytes(&map_with_band(1e-30), 1, &noise),
            dev.value_transfer_bytes(&map_with_band(0.0), 1, &noise)
        );
    }

    #[test]
    fn transfer_bytes_are_the_codec_size_of_the_whole_output() {
        // Dense, Bitmap and Csc are sized from the nonzero count, the
        // others from the values: every codec must give its size of the
        // whole output as one channel.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut t = Tensor3::zeros(4, 8, 8);
        for v in t.data_mut() {
            if rng.gen_bool(0.4) {
                *v = rng.gen_range(-1.0..1.0f32);
            }
        }
        let node = |out| NodeTrace {
            out,
            pre_bn: None,
            pre_relu: None,
        };
        let trace = SpanTrace::from(ForwardTrace {
            traces: vec![
                node(Value::Map(Tensor3::zeros(2, 8, 8))),
                node(Value::Map(t.clone())),
            ],
        });
        let schemes = [
            CompressionScheme::Dense,
            CompressionScheme::Bitmap,
            CompressionScheme::Csc { offset_bits: 6 },
            CompressionScheme::RunLength { run_bits: 3 },
            CompressionScheme::Huffman { quant_bits: 4 },
        ];
        for scheme in schemes {
            let mut cfg = AccelConfig::eyeriss_v2();
            cfg.act_scheme = scheme;
            let mut b = NetworkBuilder::new(2, 8, 8);
            let x = b.input();
            b.conv(x, 4, 3, 1);
            let net = b.build();
            let params = Params::init(&net, 1);
            let dev = Device::new(net, params, cfg);
            assert_eq!(
                dev.value_transfer_bytes(&trace, 1, &NoiseState::for_run(0, 0)),
                scheme.encoded_size(t.data(), dev.cfg.act_bits).bytes,
                "{scheme}"
            );
        }
    }

    #[test]
    fn wrong_image_shape_is_refused_before_any_transfer() {
        struct Count(usize);
        impl TraceSink for Count {
            fn event(&mut self, _: crate::trace_event::TraceEvent) {
                self.0 += 1;
            }
        }
        let dev = tiny_device();
        let image = Tensor3::zeros(2, 4, 4);
        let want = DeviceError::InputShape {
            expected: Shape3::new(2, 8, 8),
            got: Shape3::new(2, 4, 4),
        };
        let mut sink = Count(0);
        assert_eq!(dev.try_run_with(&image, &mut sink), Err(want));
        assert_eq!(sink.0, 0, "a refused run emits nothing");
        assert_eq!(dev.try_run(&image), Err(want));
    }

    #[test]
    #[should_panic(expected = "input shape")]
    fn wrong_image_shape_panics() {
        let dev = tiny_device();
        let _ = dev.run(&Tensor3::zeros(2, 4, 4));
    }

    #[test]
    fn conv_backend_does_not_change_traces_or_timings() {
        let mut b = NetworkBuilder::new(2, 8, 8);
        let x = b.input();
        let x = b.conv(x, 4, 3, 1);
        let x = b.conv(x, 6, 3, 2);
        b.global_avg_pool(x);
        let net = b.build();
        let params = Params::init(&net, 42);
        let mk = |backend| {
            Device::new(
                net.clone(),
                params.clone(),
                AccelConfig::eyeriss_v2().with_conv_backend(backend),
            )
        };
        let gemm = mk(hd_tensor::ConvBackend::Im2colGemm);
        let sparse = mk(hd_tensor::ConvBackend::SparseCsc);
        let dense_img = Tensor3::full(2, 8, 8, 0.5); // exercises the GEMM path
        let mut stripe = Tensor3::zeros(2, 8, 8); // stripe probe: the sparse regime
        for y in 0..8 {
            stripe.set(0, y, 3, 1.0);
            stripe.set(1, y, 3, -1.0);
        }
        for img in [&dense_img, &stripe] {
            assert_eq!(gemm.run(img), sparse.run(img));
            assert_eq!(gemm.encode_timings(img), sparse.encode_timings(img));
        }
    }

    #[test]
    fn auto_sparse_path_matches_explicit_backends() {
        // With the default policy a sparse image routes the *default* device
        // through the cached-CSC path; a device with auto_sparse disabled
        // must produce the identical trace and timings.
        let mut b = NetworkBuilder::new(2, 8, 8);
        let x = b.input();
        let x = b.conv(x, 4, 3, 1);
        let x = b.max_pool(x, 2);
        let x = b.conv(x, 6, 3, 1);
        let x = b.global_avg_pool(x);
        b.linear(x, 5);
        let net = b.build();
        let params = Params::init(&net, 9);
        let auto = Device::new(net.clone(), params.clone(), AccelConfig::eyeriss_v2());
        let dense_only = Device::new(
            net,
            params,
            AccelConfig::eyeriss_v2()
                .with_backend_policy(hd_tensor::BackendPolicy { auto_sparse: false }),
        );
        let mut stripe = Tensor3::zeros(2, 8, 8);
        for y in 0..8 {
            stripe.set(0, y, 5, 1.0);
        }
        assert_eq!(auto.run(&stripe), dense_only.run(&stripe));
        assert_eq!(
            auto.encode_timings(&stripe),
            dense_only.encode_timings(&stripe)
        );
    }

    #[test]
    fn int8_device_runs_and_is_deterministic() {
        let mut b = NetworkBuilder::new(2, 8, 8);
        let x = b.input();
        let x = b.conv(x, 4, 3, 1);
        let x = b.max_pool(x, 2);
        let x = b.conv(x, 6, 3, 1);
        let x = b.global_avg_pool(x);
        b.linear(x, 3);
        let net = b.build();
        let params = Params::init(&net, 42);
        let dev = Device::new(
            net,
            params,
            AccelConfig::eyeriss_v2().with_precision(Precision::Int8),
        );
        let img = Tensor3::full(2, 8, 8, 0.5);
        let a = dev.run(&img);
        let b = dev.run(&img);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // A fresh device over the same sealed state quantizes identically.
        let dev2 = dev.clone();
        assert_eq!(dev2.run(&img), a);
    }

    #[test]
    fn int8_compute_phase_is_shorter_but_encode_channel_persists() {
        let mut b = NetworkBuilder::new(2, 8, 8);
        let x = b.input();
        b.conv(x, 4, 3, 1);
        let net = b.build();
        let params = Params::init(&net, 42);
        let f32_dev = Device::new(net.clone(), params.clone(), AccelConfig::eyeriss_v2());
        let i8_dev = Device::new(
            net,
            params,
            AccelConfig::eyeriss_v2().with_precision(Precision::Int8),
        );
        // Compute phase: INT8 retires MACs at twice the rate.
        let f = f32_dev.compute_duration_ps(1);
        let i = i8_dev.compute_duration_ps(1);
        assert!(
            (i as f64 * 2.0 - f as f64).abs() <= 2.0,
            "int8 {i} ps should be half of f32 {f} ps"
        );
        // Encode timings still track output volume (the channel survives).
        let img = Tensor3::full(2, 8, 8, 0.5);
        for (_, t) in i8_dev.encode_timings(&img) {
            assert!(t.duration_ps > 0);
        }
    }
}

//! Accelerator and DRAM configuration.

use crate::defence::Defence;
use hd_tensor::cast;
use hd_tensor::{BackendPolicy, CompressionScheme, ConvBackend};
use std::fmt;

/// DRAM generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DramKind {
    /// LPDDR3 (JESD209-3).
    Lpddr3,
    /// LPDDR4 (JESD209-4).
    Lpddr4,
    /// LPDDR4X (JESD209-4-1).
    Lpddr4x,
}

impl DramKind {
    /// All generations the paper evaluates.
    pub const ALL: [DramKind; 3] = [DramKind::Lpddr3, DramKind::Lpddr4, DramKind::Lpddr4x];
}

impl fmt::Display for DramKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramKind::Lpddr3 => write!(f, "LPDDR3"),
            DramKind::Lpddr4 => write!(f, "LPDDR4"),
            DramKind::Lpddr4x => write!(f, "LPDDR4X"),
        }
    }
}

/// A DRAM part: generation + channel count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Generation.
    pub kind: DramKind,
    /// 1 (single) or 2 (dual) channels.
    pub channels: u8,
}

impl DramConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics unless `channels` is 1 or 2.
    pub fn new(kind: DramKind, channels: u8) -> Self {
        assert!(channels == 1 || channels == 2, "1 or 2 channels supported");
        DramConfig { kind, channels }
    }

    /// Peak bandwidth in bytes per second (mobile x32-per-channel parts at
    /// typical data rates: LPDDR3-1600, LPDDR4-2133(x2 effective), LPDDR4X-2666).
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        let per_channel = match self.kind {
            DramKind::Lpddr3 => 6.4e9,
            DramKind::Lpddr4 => 8.5e9,
            DramKind::Lpddr4x => 10.7e9,
        };
        per_channel * self.channels as f64
    }

    /// The six configurations of the paper's §8.2 bandwidth table.
    pub fn paper_sweep() -> Vec<DramConfig> {
        let mut v = Vec::new();
        for kind in DramKind::ALL {
            for ch in [1u8, 2] {
                v.push(DramConfig::new(kind, ch));
            }
        }
        v
    }
}

impl fmt::Display for DramConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-{}",
            self.kind,
            if self.channels == 1 { "s" } else { "d" }
        )
    }
}

/// Numeric precision of the PE-array datapath.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full-precision f32 execution (the repo's bit-identity baseline).
    #[default]
    F32,
    /// INT8 post-training-quantized execution: the device builds a
    /// [`hd_dnn::quantize::QuantizedNet`] on first use (BN folded, i32
    /// accumulators) and runs every inference through it. INT8 MAC units
    /// retire two MACs per f32-equivalent cycle slot, halving the compute
    /// phase; the encoding channel sees the dequantized activations.
    Int8,
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Precision::F32 => write!(f, "f32"),
            Precision::Int8 => write!(f, "int8"),
        }
    }
}

/// Full accelerator configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct AccelConfig {
    /// Number of psum GLB banks readable in parallel.
    pub glb_banks: usize,
    /// Words per GLB bank row.
    pub bank_words: usize,
    /// Accumulator (psum) width in bits.
    pub acc_bits: u32,
    /// Activation width in bits (post-quantization).
    pub act_bits: u32,
    /// Weight width in bits.
    pub weight_bits: u32,
    /// Core clock in MHz.
    pub freq_mhz: f64,
    /// Activation transfer codec.
    pub act_scheme: CompressionScheme,
    /// Weight transfer codec.
    pub weight_scheme: CompressionScheme,
    /// External memory.
    pub dram: DramConfig,
    /// DRAM burst size in bytes (one trace event per burst).
    pub burst_bytes: u64,
    /// Effective MACs retired per cycle (PE-array throughput for the compute
    /// phase; only affects inter-layer spacing, not the encoding channel).
    pub macs_per_cycle: f64,
    /// Multiplier applied to the GLB drain bandwidth (1.0 = stock Eyeriss
    /// v2); the §8.2 experiment sweeps this to find the DRAM-bound flip.
    pub glb_bandwidth_scale: f64,
    /// Volume-channel countermeasure applied by the post-processing unit.
    pub defence: Defence,
    /// On-chip weight buffer capacity in bytes. Layers whose compressed
    /// weights exceed it execute in multiple passes, re-reading their
    /// input activations once per pass (tiled execution).
    pub weight_glb_bytes: u64,
    /// Reuse freed activation buffers in DRAM instead of bump-allocating a
    /// fresh region per tensor. Exercises the paper's footnote 4: each
    /// write then creates a new "version" of the address, which the
    /// attacker disambiguates by time (`hd_trace::StreamingAnalyzer`
    /// attributes each read to the newest version).
    pub reuse_activations: bool,
    /// Execute batch normalization as a separate pass: the convolution
    /// writes its *dense* pre-BN partial sums to DRAM, and a second pass
    /// reads them back, normalizes, applies ReLU, and writes the
    /// compressed result. The paper (§2, "Broader application") notes this
    /// relaxation hands the attacker exact tensor volumes — see
    /// `huffduff_core::reversecnn::exact_channels_from_dense_psums`.
    pub separate_batch_norm: bool,
    /// The victim's convolution software stack. It decides only whether
    /// the device exposes GEMM calls to the Cache Telepathy channel
    /// ([`crate::Device::gemm_calls`]); traces, timings and the compute
    /// path never depend on it.
    pub conv_backend: ConvBackend,
    /// Whether sparse images take the cached walk (compacted weights,
    /// span recompute) instead of the full-width one. Both walks are
    /// bit-identical, so this never changes traces or timings, only
    /// simulation speed.
    pub backend_policy: BackendPolicy,
    /// PE-array numeric precision. Unlike the two settings above this *does*
    /// change the functional output (INT8 is a lossy deployment transform),
    /// which is exactly what the quantization experiments measure.
    pub compute: Precision,
}

/// A rejected accelerator configuration.
///
/// Configs are plain structs (literals, presets, `with_*` setters); the
/// check runs where one is consumed: [`crate::Device::try_new`] (and the
/// panicking [`crate::Device::new`]) return this instead of failing deep
/// inside a simulation.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// DRAM channel count outside the supported 1..=2 range (0 would be a
    /// device with no external memory at all).
    DramChannels {
        /// The rejected channel count.
        got: u8,
    },
    /// A structurally required count (GLB banks, bank words, burst bytes,
    /// bit widths) was zero.
    ZeroField {
        /// Which field was zero.
        field: &'static str,
    },
    /// A rate (clock frequency, MACs per cycle, bandwidth scale) was not a
    /// positive finite number.
    NonPositiveRate {
        /// Which field was rejected.
        field: &'static str,
        /// The rejected value.
        got: f64,
    },
    /// The configuration is self-consistent but rejects the model it was
    /// asked to run (see [`crate::Device::try_new`]).
    Model {
        /// The verifier's findings, in node order.
        diagnostics: Vec<hd_dnn::verify::Diagnostic>,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::DramChannels { got } => {
                write!(f, "DRAM channels must be 1 or 2, got {got}")
            }
            ConfigError::ZeroField { field } => write!(f, "{field} must be nonzero"),
            ConfigError::NonPositiveRate { field, got } => {
                write!(f, "{field} must be positive and finite, got {got}")
            }
            ConfigError::Model { diagnostics } => {
                write!(f, "configuration rejects the model:")?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl AccelConfig {
    /// Checks the configuration for values the simulator cannot run:
    /// [`crate::Device::try_new`] calls this before sealing a device.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for unsupported DRAM channel counts, zero
    /// structural counts, or non-positive rates.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(1..=2).contains(&self.dram.channels) {
            return Err(ConfigError::DramChannels {
                got: self.dram.channels,
            });
        }
        for (field, value) in [
            ("glb_banks", cast::usize_to_u64(self.glb_banks)),
            ("bank_words", cast::usize_to_u64(self.bank_words)),
            ("acc_bits", u64::from(self.acc_bits)),
            ("act_bits", u64::from(self.act_bits)),
            ("weight_bits", u64::from(self.weight_bits)),
            ("burst_bytes", self.burst_bytes),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroField { field });
            }
        }
        for (field, value) in [
            ("freq_mhz", self.freq_mhz),
            ("macs_per_cycle", self.macs_per_cycle),
            ("glb_bandwidth_scale", self.glb_bandwidth_scale),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(ConfigError::NonPositiveRate { field, got: value });
            }
        }
        Ok(())
    }

    /// Eyeriss-v2-like defaults (paper §8.2): 8 psum GLB banks x 3 words,
    /// 20-bit accumulators, 8-bit activations, 200 MHz, bitmap codec,
    /// single-channel LPDDR4.
    pub fn eyeriss_v2() -> Self {
        AccelConfig {
            glb_banks: 8,
            bank_words: 3,
            acc_bits: 20,
            act_bits: 8,
            weight_bits: 8,
            freq_mhz: 200.0,
            act_scheme: CompressionScheme::Bitmap,
            weight_scheme: CompressionScheme::Bitmap,
            dram: DramConfig::new(DramKind::Lpddr4, 1),
            burst_bytes: 64,
            macs_per_cycle: 192.0,
            glb_bandwidth_scale: 1.0,
            defence: Defence::None,
            // Eyeriss v2 carries ~192 KB of GLB; weights get the bulk.
            weight_glb_bytes: 128 * 1024,
            reuse_activations: false,
            separate_batch_norm: false,
            conv_backend: ConvBackend::default(),
            backend_policy: BackendPolicy::default(),
            compute: Precision::F32,
        }
    }

    /// SCNN-like preset (Parashar et al. 2017): wider 24-bit accumulators,
    /// a larger psum buffer organization, and CSC-style transfer encoding.
    /// Useful for checking that the attack does not depend on Eyeriss-v2
    /// specifics (the paper claims generality across sparse accelerators).
    pub fn scnn_like() -> Self {
        AccelConfig {
            glb_banks: 32,
            bank_words: 1,
            acc_bits: 24,
            act_bits: 8,
            weight_bits: 8,
            freq_mhz: 800.0,
            act_scheme: CompressionScheme::Csc { offset_bits: 12 },
            weight_scheme: CompressionScheme::Csc { offset_bits: 12 },
            dram: DramConfig::new(DramKind::Lpddr4, 2),
            burst_bytes: 64,
            macs_per_cycle: 1024.0,
            glb_bandwidth_scale: 1.0,
            defence: Defence::None,
            weight_glb_bytes: 512 * 1024,
            reuse_activations: false,
            separate_batch_norm: false,
            conv_backend: ConvBackend::default(),
            backend_policy: BackendPolicy::default(),
            compute: Precision::F32,
        }
    }

    /// Same accelerator with a different DRAM part.
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.dram = dram;
        self
    }

    /// Same accelerator with a scaled GLB drain bandwidth.
    pub fn with_glb_scale(mut self, scale: f64) -> Self {
        self.glb_bandwidth_scale = scale;
        self
    }

    /// Same accelerator with different transfer codecs.
    pub fn with_schemes(mut self, act: CompressionScheme, weight: CompressionScheme) -> Self {
        self.act_scheme = act;
        self.weight_scheme = weight;
        self
    }

    /// Same accelerator with a volume-channel defence enabled.
    pub fn with_defence(mut self, defence: Defence) -> Self {
        self.defence = defence;
        self
    }

    /// Same accelerator over an explicit victim software stack.
    pub fn with_conv_backend(mut self, backend: ConvBackend) -> Self {
        self.conv_backend = backend;
        self
    }

    /// Same accelerator with an explicit sparse-image routing policy.
    pub fn with_backend_policy(mut self, policy: BackendPolicy) -> Self {
        self.backend_policy = policy;
        self
    }

    /// Same accelerator with an explicit PE-array precision.
    pub fn with_precision(mut self, compute: Precision) -> Self {
        self.compute = compute;
        self
    }

    /// GLB psum drain bandwidth in bytes per second:
    /// `banks x words x acc_bits` per cycle.
    pub fn glb_bandwidth_bytes_per_sec(&self) -> f64 {
        let bits_per_cycle = (self.glb_banks * self.bank_words) as f64 * self.acc_bits as f64;
        bits_per_cycle / 8.0 * self.freq_mhz * 1e6 * self.glb_bandwidth_scale
    }

    /// Bytes occupied by one dense psum element.
    pub fn acc_bytes(&self) -> f64 {
        self.acc_bits as f64 / 8.0
    }

    /// Lowers this configuration into the capacity limits
    /// [`hd_dnn::verify`] checks a network against.
    ///
    /// The pass ceiling of 64 tolerates every tiled schedule the simulator
    /// models (the zoo's largest layer needs ~21 passes through the
    /// Eyeriss-v2 weight buffer) while rejecting config/model pairings
    /// whose re-read traffic would dwarf the computation.
    pub fn verify_limits(&self) -> hd_dnn::verify::Limits {
        hd_dnn::verify::Limits {
            weight_glb_bytes: Some(self.weight_glb_bytes),
            weight_bits: self.weight_bits,
            weight_scheme: self.weight_scheme,
            max_weight_passes: 64,
        }
    }
}

impl Default for AccelConfig {
    fn default() -> Self {
        AccelConfig::eyeriss_v2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eyeriss_glb_bandwidth() {
        let cfg = AccelConfig::eyeriss_v2();
        // 8 banks x 3 words x 20 bits = 480 bits/cycle @ 200 MHz = 12 GB/s.
        assert!((cfg.glb_bandwidth_bytes_per_sec() - 12.0e9).abs() < 1e6);
    }

    #[test]
    fn dual_channel_doubles_bandwidth() {
        let s = DramConfig::new(DramKind::Lpddr4, 1);
        let d = DramConfig::new(DramKind::Lpddr4, 2);
        assert!((d.bandwidth_bytes_per_sec() - 2.0 * s.bandwidth_bytes_per_sec()).abs() < 1.0);
    }

    #[test]
    fn bandwidth_ordering_matches_generations() {
        let b = |k| DramConfig::new(k, 1).bandwidth_bytes_per_sec();
        assert!(b(DramKind::Lpddr3) < b(DramKind::Lpddr4));
        assert!(b(DramKind::Lpddr4) < b(DramKind::Lpddr4x));
    }

    #[test]
    fn paper_sweep_has_six_configs() {
        assert_eq!(DramConfig::paper_sweep().len(), 6);
    }

    #[test]
    fn display_names() {
        assert_eq!(DramConfig::new(DramKind::Lpddr3, 1).to_string(), "LPDDR3-s");
        assert_eq!(
            DramConfig::new(DramKind::Lpddr4x, 2).to_string(),
            "LPDDR4X-d"
        );
    }

    #[test]
    #[should_panic(expected = "channels")]
    fn invalid_channels_panic() {
        let _ = DramConfig::new(DramKind::Lpddr3, 3);
    }

    #[test]
    fn scnn_preset_is_self_consistent() {
        let cfg = AccelConfig::scnn_like();
        // 32 banks x 1 word x 24 bits @ 800 MHz = 76.8 GB/s.
        assert!((cfg.glb_bandwidth_bytes_per_sec() - 76.8e9).abs() < 1e6);
        assert_eq!(cfg.acc_bits, 24);
        assert!(matches!(cfg.act_scheme, CompressionScheme::Csc { .. }));
    }

    #[test]
    fn presets_default_to_auto_sparse_policy() {
        for cfg in [AccelConfig::eyeriss_v2(), AccelConfig::scnn_like()] {
            assert_eq!(cfg.backend_policy, BackendPolicy::default());
            assert!(cfg.backend_policy.auto_sparse);
        }
        let off =
            AccelConfig::eyeriss_v2().with_backend_policy(BackendPolicy { auto_sparse: false });
        assert!(!off.backend_policy.auto_sparse);
    }

    /// Every invalid config is refused by the device constructor. A config
    /// that slipped past it would reach `run` and panic there (DRAM
    /// bandwidth of zero channels, zero-byte bursts, a zero clock).
    #[test]
    fn try_new_rejects_invalid_configs() {
        use crate::Device;
        use hd_dnn::graph::{NetworkBuilder, Params};
        use hd_tensor::Tensor3;

        let mut b = NetworkBuilder::new(1, 8, 8);
        let x = b.input();
        b.conv(x, 4, 3, 1);
        let net = b.build();
        let params = Params::init(&net, 0);
        let base = AccelConfig::eyeriss_v2();
        let lpddr3 = |channels| DramConfig {
            kind: DramKind::Lpddr3,
            channels,
        };
        let cases = [
            (
                base.clone().with_dram(lpddr3(0)),
                ConfigError::DramChannels { got: 0 },
            ),
            (
                base.clone().with_dram(lpddr3(3)),
                ConfigError::DramChannels { got: 3 },
            ),
            (
                AccelConfig {
                    glb_banks: 0,
                    ..base.clone()
                },
                ConfigError::ZeroField { field: "glb_banks" },
            ),
            (
                AccelConfig {
                    burst_bytes: 0,
                    ..base.clone()
                },
                ConfigError::ZeroField {
                    field: "burst_bytes",
                },
            ),
            (
                AccelConfig {
                    freq_mhz: 0.0,
                    ..base.clone()
                },
                ConfigError::NonPositiveRate {
                    field: "freq_mhz",
                    got: 0.0,
                },
            ),
        ];
        for (cfg, want) in cases {
            let got = Device::try_new(net.clone(), params.clone(), cfg)
                .map(|dev| dev.run(&Tensor3::full(1, 8, 8, 0.5)).len());
            assert_eq!(got, Err(want));
        }
        // NaN never compares equal, so check the message instead.
        let nan = base.clone().with_glb_scale(f64::NAN);
        let err = Device::try_new(net.clone(), params.clone(), nan)
            .map(|_| ())
            .expect_err("NaN GLB scale must be rejected");
        assert!(err.to_string().contains("glb_bandwidth_scale"), "{err}");
        assert!(Device::try_new(net, params, base).is_ok());
    }

    #[test]
    fn glb_scale_multiplies() {
        let base = AccelConfig::eyeriss_v2();
        let scaled = base.clone().with_glb_scale(2.0);
        assert!(
            (scaled.glb_bandwidth_bytes_per_sec() - 2.0 * base.glb_bandwidth_bytes_per_sec()).abs()
                < 1.0
        );
    }
}

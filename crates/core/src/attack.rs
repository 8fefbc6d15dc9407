//! End-to-end HuffDuff attack orchestration.
//!
//! Glues the pieces together exactly as the paper does: probe the boundary
//! effect for geometry (§5–6), read the encoding timing channel for channel
//! ratios (§7), and finalize a small candidate space via the first-layer
//! sparsity bound (§8.2).

use crate::channel::ObservationModel;
use crate::prober::{probe, ConfigError, ProbeError, ProberConfig, ProberResult};
use crate::solution::{finalize, CodecModel, SolutionSpace};
use crate::timing::{channel_ratios, ChannelRatios};
use std::fmt;

/// Full attack configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct AttackConfig {
    /// Prober settings.
    pub prober: ProberConfig,
    /// Attacker's model of the device's transfer codec (datasheet).
    pub codec: CodecModel,
    /// Empirical bound on first-layer weight sparsity (paper: 60%).
    pub first_layer_max_sparsity: f64,
    /// Number of output classes (observable from the device API).
    pub classes: usize,
    /// Upper bound on any channel count considered.
    pub max_k: usize,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            prober: ProberConfig::default(),
            codec: CodecModel::default(),
            first_layer_max_sparsity: 0.6,
            classes: 10,
            max_k: 1024,
        }
    }
}

impl AttackConfig {
    /// Checks the configuration, including the nested [`ProberConfig`]:
    /// [`run`] calls this before any device run.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for zero counts, an out-of-range sparsity
    /// bound, or an invalid nested [`ProberConfig`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.prober.validate()?;
        for (field, value) in [("classes", self.classes), ("max_k", self.max_k)] {
            if value == 0 {
                return Err(ConfigError::ZeroField { field });
            }
        }
        let bound = self.first_layer_max_sparsity;
        if !(bound.is_finite() && 0.0 < bound && bound <= 1.0) {
            return Err(ConfigError::FractionOutOfRange {
                field: "first_layer_max_sparsity",
                got: bound,
            });
        }
        Ok(())
    }
}

/// Everything the attack recovered. `PartialEq` exists so the telemetry
/// invariance test can assert bit-identical outcomes with `hd_obs` on/off.
#[derive(Clone, Debug, PartialEq)]
pub struct AttackOutcome {
    /// Geometry recovery (per-layer kinds, kernels, strides, pools).
    pub prober: ProberResult,
    /// Timing-channel channel ratios, when the observation channel carries
    /// enough signal to extract them (`None` under volume-only channels).
    pub ratios: Option<ChannelRatios>,
    /// Finalized candidate space, when the recovered geometry supports one
    /// (`None` when no conv layer or footprint survived the channel).
    pub space: Option<SolutionSpace>,
}

impl AttackOutcome {
    /// Human-readable end-to-end report.
    pub fn report(&self) -> String {
        let mut s = self.prober.report();
        match &self.ratios {
            Some(ratios) => s.push_str(&format!(
                "timing channel: {} conv layers, ratios {:?}\n",
                ratios.ratios.len(),
                ratios
                    .ratios
                    .iter()
                    .map(|(_, r)| (r * 100.0).round() / 100.0)
                    .collect::<Vec<_>>()
            )),
            None => s.push_str("timing channel: no signal on this observation channel\n"),
        }
        match &self.space {
            Some(space) => s.push_str(&space.report()),
            None => s.push_str("solution space: not recoverable from this channel"),
        }
        s.push('\n');
        s
    }
}

/// Attack failure modes.
///
/// Only probing is fatal: a channel too weak for the timing or
/// finalization stages yields an [`AttackOutcome`] with those fields
/// `None` (partial recovery is the interesting datum in a channel ×
/// defence comparison, not an error).
#[derive(Clone, Debug, PartialEq)]
pub enum AttackError {
    /// The attack configuration is invalid; no device run happened.
    Config(ConfigError),
    /// Probing failed.
    Probe(ProbeError),
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::Config(e) => write!(f, "invalid attack config: {e}"),
            AttackError::Probe(e) => write!(f, "probing failed: {e}"),
        }
    }
}

impl std::error::Error for AttackError {}

impl From<ProbeError> for AttackError {
    fn from(e: ProbeError) -> Self {
        AttackError::Probe(e)
    }
}

/// Runs the full HuffDuff attack against an observation model.
///
/// # Errors
///
/// Returns [`AttackError::Config`] if `cfg` fails
/// [`AttackConfig::validate`], and [`AttackError::Probe`] if probing cannot
/// complete; downstream stages degrade to `None` fields instead of failing
/// the attack.
pub fn run(
    target: &dyn ObservationModel,
    cfg: &AttackConfig,
) -> Result<AttackOutcome, AttackError> {
    cfg.validate().map_err(AttackError::Config)?;
    let _run_span = hd_obs::span("attack.run", "");
    let prober = {
        let _stage = hd_obs::span("attack.stage", "probe");
        probe(target, &cfg.prober)?
    };
    let ratios = {
        let _stage = hd_obs::span("attack.stage", "timing");
        channel_ratios(&prober).ok()
    };
    let space = {
        let _stage = hd_obs::span("attack.stage", "finalize");
        // Without timing ratios the space still gets a first-layer range;
        // deeper channel counts then scale by nothing (empty ratio list).
        let ratios_for_space = ratios.clone().unwrap_or(ChannelRatios {
            baseline: 0,
            ratios: Vec::new(),
        });
        finalize(
            &prober,
            &ratios_for_space,
            target.input_shape(),
            cfg.classes,
            &cfg.codec,
            cfg.first_layer_max_sparsity,
            cfg.max_k,
        )
        .ok()
    };
    Ok(AttackOutcome {
        prober,
        ratios,
        space,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_accel::{AccelConfig, Device};
    use hd_dnn::graph::{NetworkBuilder, Params};

    fn victim() -> Device {
        let mut b = NetworkBuilder::new(3, 16, 16);
        let x = b.input();
        let x = b.conv(x, 8, 3, 1);
        let x = b.max_pool(x, 2);
        let x = b.conv(x, 16, 3, 1);
        let x = b.global_avg_pool(x);
        b.linear(x, 4);
        let net = b.build();
        let mut params = Params::init(&net, 5);
        // Moderate pruning: the paper-scale profile (99.8% on the largest
        // layer) is calibrated for 512-channel layers; at 8–16 channels it
        // would leave almost no weights and no observable boundary effect.
        let profile = hd_dnn::prune::SparsityProfile {
            targets: net
                .weighted_nodes()
                .iter()
                .enumerate()
                .map(|(pos, &id)| (id, if pos == 0 { 0.45 } else { 0.7 }))
                .collect(),
        };
        hd_dnn::prune::apply_sparsity_profile(&net, &mut params, &profile, 6);
        Device::new(net, params, AccelConfig::eyeriss_v2())
    }

    fn cfg() -> AttackConfig {
        AttackConfig {
            prober: ProberConfig {
                shifts: 12,
                max_probes: 8,
                stable_probes: 2,
                kernels: vec![1, 3, 5],
                strides: vec![1, 2],
                pools: vec![2, 3],
                seed: 77,
                parallelism: None,
            },
            classes: 4,
            max_k: 256,
            ..Default::default()
        }
    }

    #[test]
    fn end_to_end_attack_recovers_victim() {
        let dev = victim();
        let out = run(&dev, &cfg()).unwrap();

        // Geometry.
        use crate::prober::LayerKind;
        assert_eq!(
            out.prober.layers[0].kind,
            LayerKind::Conv {
                kernel: 3,
                stride: 1
            }
        );
        assert_eq!(out.prober.layers[1].kind, LayerKind::Pool { factor: 2 });
        assert_eq!(
            out.prober.layers[2].kind,
            LayerKind::Conv {
                kernel: 3,
                stride: 1
            }
        );
        assert_eq!(out.prober.layers[3].kind, LayerKind::GlobalPool);
        assert_eq!(out.prober.layers[4].kind, LayerKind::Dense);

        // Channel ratio conv2/conv1 = 16/8 = 2.
        let ratios = out.ratios.as_ref().unwrap();
        let r = ratios.ratios[1].1;
        assert!((r - 2.0).abs() < 0.25, "ratio {r}");

        // The true k1 = 8 is inside the finalized range.
        let space = out.space.as_ref().unwrap();
        assert!(
            space.k1_candidates.contains(&8),
            "range {:?}",
            space.k1_candidates
        );
        // The space is small (tens, not thousands).
        assert!(space.count() < 50, "count {}", space.count());

        // Candidates rebuild into runnable networks.
        let arch = space.candidate(8);
        let net = space.build_network(&arch);
        let params = hd_dnn::graph::Params::init(&net, 1);
        let fwd = net.forward(&params, &hd_tensor::Tensor3::full(3, 16, 16, 0.5));
        assert_eq!(fwd.logits().len(), 4);

        // Report covers all stages.
        let rep = out.report();
        assert!(rep.contains("prober"));
        assert!(rep.contains("timing channel"));
        assert!(rep.contains("solution space"));
    }

    /// `run` validates its config, nested prober settings included,
    /// before any device run. Without the check, zero shifts panic inside
    /// the prober.
    #[test]
    fn run_rejects_invalid_configs() {
        use crate::prober::ConfigError;
        let dev = victim();
        let cases = [
            (
                AttackConfig {
                    classes: 0,
                    ..cfg()
                },
                ConfigError::ZeroField { field: "classes" },
            ),
            (
                AttackConfig { max_k: 0, ..cfg() },
                ConfigError::ZeroField { field: "max_k" },
            ),
            (
                AttackConfig {
                    first_layer_max_sparsity: 1.5,
                    ..cfg()
                },
                ConfigError::FractionOutOfRange {
                    field: "first_layer_max_sparsity",
                    got: 1.5,
                },
            ),
            (
                AttackConfig {
                    prober: ProberConfig {
                        shifts: 0,
                        ..cfg().prober
                    },
                    ..cfg()
                },
                ConfigError::ZeroField { field: "shifts" },
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(run(&dev, &cfg), Err(AttackError::Config(want)));
        }
    }

    #[test]
    fn sampled_candidates_are_distinct_and_buildable() {
        let dev = victim();
        let out = run(&dev, &cfg()).unwrap();
        let space = out.space.as_ref().unwrap();
        let samples = space.sample(4, 9);
        assert!(samples.len() <= 4 && !samples.is_empty());
        let mut k1s: Vec<usize> = samples.iter().map(|a| a.k1).collect();
        k1s.dedup();
        assert_eq!(k1s.len(), samples.len(), "duplicate k1 sampled");
        for arch in &samples {
            let net = space.build_network(arch);
            assert!(net.len() > 3);
        }
    }

    /// The restricted channels degrade the attack, they don't error it:
    /// trace-only loses the ratios, timing-only loses nearly everything,
    /// GEMM dims recover the channel counts exactly.
    #[test]
    fn restricted_channels_degrade_gracefully() {
        use crate::channel::ChannelKind;
        let dev = victim();

        let trace = run(ChannelKind::Trace.model(&dev).as_ref(), &cfg()).unwrap();
        assert!(trace.ratios.is_none(), "no timing, no ratios");
        // Geometry still comes through the volume channel alone.
        use crate::prober::LayerKind;
        assert_eq!(
            trace.prober.layers[0].kind,
            LayerKind::Conv {
                kernel: 3,
                stride: 1
            }
        );
        assert_eq!(trace.prober.layers[1].kind, LayerKind::Pool { factor: 2 });
        let space = trace.space.as_ref().unwrap();
        assert!(space.k1_candidates.contains(&8));

        let timing = run(ChannelKind::Timing.model(&dev).as_ref(), &cfg()).unwrap();
        // Without sizes the trunk/head split is unobservable; the report
        // still renders (no panics on missing stages).
        assert!(timing.report().contains("prober"));

        let gemm = run(ChannelKind::Gemm.model(&dev).as_ref(), &cfg()).unwrap();
        assert!(gemm
            .prober
            .layers
            .iter()
            .all(|l| matches!(l.kind, LayerKind::Conv { .. })));
        assert!(gemm.ratios.is_some(), "GEMM m-dims give exact ratios");
    }
}

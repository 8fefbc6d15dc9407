//! Victim construction shared by the experiments.

use hd_accel::{AccelConfig, Device, Precision};
use hd_dnn::graph::{Network, Params};
use hd_dnn::prune::{
    apply_sparsity_profile, magnitude_prune_profile, nm_prune, paper_profile, structured_prune,
    Mask, SparsityProfile, StructuredCfg,
};

/// Which paper victim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// VGG-S (7 conv layers, 96-channel 7x7 stem).
    VggS,
    /// CIFAR ResNet-18.
    ResNet18,
}

impl Model {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Model::VggS => "VGG-S",
            Model::ResNet18 => "ResNet18",
        }
    }

    /// Full-size network.
    pub fn network(&self, classes: usize) -> Network {
        match self {
            Model::VggS => hd_dnn::zoo::vgg_s(classes),
            Model::ResNet18 => hd_dnn::zoo::resnet18(classes),
        }
    }

    /// Width-scaled network for matrix experiments that cannot afford
    /// the full-size probe budget per cell.
    pub fn network_scaled(&self, classes: usize, width: f64) -> Network {
        match self {
            Model::VggS => hd_dnn::zoo::vgg_s_scaled(classes, width),
            Model::ResNet18 => hd_dnn::zoo::resnet18_scaled(classes, width),
        }
    }

    /// Both paper victims.
    pub const BOTH: [Model; 2] = [Model::VggS, Model::ResNet18];
}

/// How the victim was pruned before deployment. Unstructured is the
/// paper's regime; the other two are the structured/N:M deployments the
/// robustness matrix probes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PruneMode {
    /// Per-layer magnitude pruning to a sparsity profile (paper default).
    Unstructured,
    /// N:M fine-grained sparsity along the input-channel axis.
    Nm {
        /// Kept weights per group.
        n: usize,
        /// Group size.
        m: usize,
    },
    /// Channel removal by L1 norm: shapes physically shrink.
    Structured {
        /// Fraction of each prunable class's channels kept.
        keep_frac: f64,
    },
}

impl PruneMode {
    /// Stable display name used in tables and JSON artifacts.
    pub fn name(&self) -> String {
        match self {
            PruneMode::Unstructured => "unstructured".to_string(),
            PruneMode::Nm { n, m } => format!("{n}:{m}"),
            PruneMode::Structured { keep_frac } => format!("structured-{keep_frac:.2}"),
        }
    }

    /// The matrix's default presets: paper-style magnitude pruning,
    /// 2:4 fine-grained sparsity, and half-width structured removal.
    pub const DEFAULTS: [PruneMode; 3] = [
        PruneMode::Unstructured,
        PruneMode::Nm { n: 2, m: 4 },
        PruneMode::Structured { keep_frac: 0.5 },
    ];
}

/// A width-scaled victim pruned with `mode` and sealed inside `cfg`.
///
/// Structured victims are channel-removed first and then magnitude-pruned
/// with the mini profile *within* the surviving channels, so the timing
/// channel still sees realistic nnz statistics; N:M victims rely on the
/// group constraint alone.
pub fn pruned_victim(
    model: Model,
    mode: PruneMode,
    width: f64,
    seed: u64,
    cfg: AccelConfig,
) -> (Device, Network) {
    let net = model.network_scaled(10, width);
    let mut params = Params::init(&net, seed);
    let (net, params) = match mode {
        PruneMode::Unstructured => {
            let profile = mini_profile(&net);
            apply_sparsity_profile(&net, &mut params, &profile, seed ^ 0xBEEF);
            (net, params)
        }
        PruneMode::Nm { n, m } => {
            nm_prune(&net, &mut params, n, m);
            (net, params)
        }
        PruneMode::Structured { keep_frac } => {
            let r = structured_prune(
                &net,
                &params,
                &StructuredCfg {
                    keep_frac,
                    min_keep: 2,
                },
            );
            let (net, mut params) = (r.net, r.params);
            let profile = mini_profile(&net);
            magnitude_prune_profile(&net, &mut params, &profile);
            (net, params)
        }
    };
    let device = Device::new(net.clone(), params, cfg);
    (device, net)
}

/// A full-size victim pruned with the paper-shaped sparsity profile and
/// sealed inside an Eyeriss-v2-like device.
pub fn paper_victim(model: Model, seed: u64) -> (Device, Network) {
    let net = model.network(10);
    let mut params = Params::init(&net, seed);
    let profile = paper_profile(&net);
    apply_sparsity_profile(&net, &mut params, &profile, seed ^ 0xBEEF);
    let device = Device::new(net.clone(), params, AccelConfig::eyeriss_v2());
    (device, net)
}

/// A width-scaled victim deployed INT8-quantized (PTQ, BN folded) on an
/// otherwise stock Eyeriss-v2 device. The f32 counterpart with the same
/// `(model, mode, width, seed)` is [`pruned_victim`] with the default
/// config, so f32-vs-INT8 attack comparisons hold everything else fixed.
pub fn quantized_victim(model: Model, mode: PruneMode, width: f64, seed: u64) -> (Device, Network) {
    pruned_victim(
        model,
        mode,
        width,
        seed,
        AccelConfig::eyeriss_v2().with_precision(Precision::Int8),
    )
}

/// Same victim on a custom accelerator configuration.
pub fn paper_victim_with(model: Model, seed: u64, cfg: AccelConfig) -> (Device, Network) {
    let net = model.network(10);
    let mut params = Params::init(&net, seed);
    let profile = paper_profile(&net);
    apply_sparsity_profile(&net, &mut params, &profile, seed ^ 0xBEEF);
    let device = Device::new(net.clone(), params, cfg);
    (device, net)
}

/// Uniform-moderate profile for width-scaled "mini" victims: the full
/// paper profile is calibrated to 512-channel layers and would leave a
/// 2-digit-channel layer with almost no weights.
pub fn mini_profile(net: &Network) -> SparsityProfile {
    SparsityProfile {
        targets: net
            .weighted_nodes()
            .iter()
            .enumerate()
            .map(|(pos, &id)| (id, if pos == 0 { 0.45 } else { 0.75 }))
            .collect(),
    }
}

/// Prunes `params` globally so the surviving weight count is close to
/// `footprint` (the iso-footprint constraint of Fig. 4). Returns the mask.
pub fn prune_to_footprint(
    net: &Network,
    params: &mut Params,
    footprint: usize,
    min_layer_keep: usize,
) -> Mask {
    let dense = net.dense_weight_count(params);
    let sparsity = (1.0 - footprint as f64 / dense as f64).clamp(0.0, 0.995);
    let mask = hd_dnn::prune::magnitude_prune_global(net, params, sparsity, min_layer_keep);
    mask.apply(params);
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_have_paper_first_layers() {
        let (dev, net) = paper_victim(Model::VggS, 1);
        let oracle = dev.oracle();
        let first_conv = net.conv_nodes()[0];
        let w = oracle.params.conv(first_conv).w;
        assert_eq!((w.k(), w.r()), (96, 7));
        // First layer sparsity stays under the paper's 60% bound.
        assert!(w.sparsity() <= 0.6);

        let (dev, net) = paper_victim(Model::ResNet18, 1);
        let w = dev.oracle().params.conv(net.conv_nodes()[0]).w;
        assert_eq!((w.k(), w.r()), (64, 3));
    }

    #[test]
    fn paper_victims_are_10x_compressed() {
        for model in Model::BOTH {
            let (dev, net) = paper_victim(model, 2);
            let oracle = dev.oracle();
            let dense = net.dense_weight_count(oracle.params);
            let sparse = net.sparse_weight_count(oracle.params);
            let compression = dense as f64 / sparse as f64;
            // Paper reports 10x on ImageNet-scale models whose giant FC
            // layers dominate the parameter count; our CIFAR-scale heads
            // are small, so the same per-layer profile compresses more.
            assert!(
                compression > 5.0 && compression < 300.0,
                "{}: compression {compression}",
                model.name()
            );
        }
    }

    #[test]
    fn pruned_victims_honor_their_mode() {
        let width = 0.25;
        // N:M: every 4-group along C in every conv holds at most 2 nonzeros.
        let (dev, net) = pruned_victim(
            Model::VggS,
            PruneMode::Nm { n: 2, m: 4 },
            width,
            5,
            AccelConfig::eyeriss_v2(),
        );
        let oracle = dev.oracle();
        for &id in &net.conv_nodes() {
            let w = oracle.params.conv(id).w;
            for k in 0..w.k() {
                for r in 0..w.r() {
                    for s in 0..w.s() {
                        for c0 in (0..w.c()).step_by(4) {
                            let nnz = (c0..(c0 + 4).min(w.c()))
                                .filter(|&c| w.data()[w.index(k, c, r, s)] != 0.0)
                                .count();
                            assert!(nnz <= 2, "node {id}: group nnz {nnz}");
                        }
                    }
                }
            }
        }

        // Structured: the first conv physically shrank below the scaled
        // width, and the graph still verifies.
        let (dev, net) = pruned_victim(
            Model::VggS,
            PruneMode::Structured { keep_frac: 0.5 },
            width,
            5,
            AccelConfig::eyeriss_v2(),
        );
        let dense = Model::VggS.network_scaled(10, width);
        let first = net.conv_nodes()[0];
        let got = dev.oracle().params.conv(first).w.k();
        let full = Params::init(&dense, 5).conv(dense.conv_nodes()[0]).w.k();
        assert!(got < full, "structured victim kept all {full} channels");
        assert!(hd_dnn::verify::verify_strict(
            &net,
            Some(dev.oracle().params),
            &hd_dnn::verify::Limits::default()
        )
        .is_ok());
    }

    #[test]
    fn quantized_victims_deploy_int8_and_run() {
        let (dev, net) = quantized_victim(Model::VggS, PruneMode::Unstructured, 0.125, 7);
        assert_eq!(dev.config().compute, Precision::Int8);
        // The INT8 device still produces a bus trace the attacker can read.
        let shape = net.input_shape();
        let trace = dev.run(&hd_tensor::Tensor3::full(shape.c, shape.h, shape.w, 0.25));
        assert!(!trace.is_empty());
        // Pruned weights survive quantization exactly: zeros stay zero, so
        // the nonzero count never grows (it may shrink slightly — weights
        // under half a quantization step round to 0).
        let qnet = dev.quantized_net();
        let oracle = dev.oracle();
        let f32_nnz = net.sparse_weight_count(oracle.params);
        let q_nnz = qnet.sparse_weight_count();
        assert!(
            q_nnz <= f32_nnz,
            "quantization created weights: {q_nnz} > {f32_nnz}"
        );
        assert!(
            q_nnz * 100 >= f32_nnz * 95,
            "quantization erased too much: {q_nnz} of {f32_nnz}"
        );
    }

    #[test]
    fn footprint_pruning_hits_target() {
        let net = hd_dnn::zoo::vgg_s_scaled(10, 0.0625);
        let mut params = Params::init(&net, 3);
        let dense = net.dense_weight_count(&params);
        let target = dense / 10;
        prune_to_footprint(&net, &mut params, target, 4);
        let got = net.sparse_weight_count(&params);
        assert!(
            (got as f64 - target as f64).abs() / (target as f64) < 0.25,
            "target {target}, got {got}"
        );
    }
}

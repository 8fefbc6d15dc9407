//! End-to-end backend invariance: the full HuffDuff attack must recover
//! exactly the same geometry, channel ratios, and candidate space whether
//! the victim simulator convolves via the im2col+GEMM backend or the
//! cached-CSC sparse forward path, and whether probes run serially or in
//! parallel. The attack
//! reads only DRAM traces and encode timings, both of which are functions
//! of the (bit-identical) layer outputs.

use hd_tensor::ConvBackend;
use huffduff::prelude::*;
use huffduff_core::{AttackConfig, AttackOutcome};

fn victim() -> (hd_dnn::graph::Network, hd_dnn::graph::Params) {
    let mut b = hd_dnn::graph::NetworkBuilder::new(3, 16, 16);
    let x = b.input();
    let x = b.conv(x, 8, 5, 1);
    let x = b.max_pool(x, 2);
    let x = b.conv(x, 16, 3, 1);
    let x = b.global_avg_pool(x);
    b.linear(x, 10);
    let net = b.build();
    let mut params = hd_dnn::graph::Params::init(&net, 7);
    let profile = hd_dnn::prune::SparsityProfile {
        targets: net
            .weighted_nodes()
            .iter()
            .enumerate()
            .map(|(pos, &id)| (id, if pos == 0 { 0.45 } else { 0.7 }))
            .collect(),
    };
    hd_dnn::prune::apply_sparsity_profile(&net, &mut params, &profile, 7 ^ 0xF00D);
    (net, params)
}

/// A channel-removed victim: the same topology run through the structured
/// pruning pass (5 of 8 stem channels and 11 of 16 second-layer channels
/// survive), then magnitude pruned inside the kept channels. The attack
/// must recover the *pruned* widths, identically on every backend.
fn structured_victim() -> (hd_dnn::graph::Network, hd_dnn::graph::Params) {
    let mut b = hd_dnn::graph::NetworkBuilder::new(3, 16, 16);
    let x = b.input();
    let x = b.conv(x, 8, 5, 1);
    let x = b.max_pool(x, 2);
    let x = b.conv(x, 16, 3, 1);
    let x = b.global_avg_pool(x);
    b.linear(x, 10);
    let net = b.build();
    let params = hd_dnn::graph::Params::init(&net, 7);
    let r = hd_dnn::prune::structured_prune(
        &net,
        &params,
        &hd_dnn::prune::StructuredCfg {
            keep_frac: 0.65,
            min_keep: 2,
        },
    );
    let (net, mut params) = (r.net, r.params);
    let profile = hd_dnn::prune::SparsityProfile {
        targets: net
            .weighted_nodes()
            .iter()
            .enumerate()
            .map(|(pos, &id)| (id, if pos == 0 { 0.4 } else { 0.6 }))
            .collect(),
    };
    hd_dnn::prune::magnitude_prune_profile(&net, &mut params, &profile);
    (net, params)
}

fn attack(backend: ConvBackend, parallelism: Option<usize>) -> AttackOutcome {
    let (net, params) = victim();
    let device = Device::new(
        net,
        params,
        AccelConfig::eyeriss_v2().with_conv_backend(backend),
    );
    let cfg = AttackConfig {
        prober: huffduff_core::prober::ProberConfig {
            shifts: 12,
            max_probes: 8,
            stable_probes: 2,
            ..Default::default()
        }
        .with_parallelism(parallelism),
        classes: 10,
        max_k: 256,
        ..Default::default()
    };
    huffduff_core::run(&device, &cfg).expect("attack succeeds")
}

#[test]
fn attack_outcome_is_backend_and_parallelism_invariant() {
    let baseline = attack(ConvBackend::Im2colGemm, Some(1));
    for (backend, par) in [
        (ConvBackend::Im2colGemm, Some(4)),
        (ConvBackend::Im2colGemm, None),
        (ConvBackend::SparseCsc, Some(1)),
        (ConvBackend::SparseCsc, Some(4)),
    ] {
        let got = attack(backend, par);
        assert_eq!(
            baseline.prober, got.prober,
            "prober result diverged for {backend} with parallelism {par:?}"
        );
        assert_eq!(
            baseline.ratios, got.ratios,
            "channel ratios diverged for {backend} with parallelism {par:?}"
        );
        assert_eq!(
            baseline.space.as_ref().map(|s| &s.k1_candidates),
            got.space.as_ref().map(|s| &s.k1_candidates),
            "candidate space diverged for {backend} with parallelism {par:?}"
        );
        assert_eq!(
            baseline.report(),
            got.report(),
            "full report diverged for {backend} with parallelism {par:?}"
        );
    }
    // The recovered space must still contain the true first-layer width.
    assert!(baseline.space.as_ref().unwrap().k1_candidates.contains(&8));
}

fn structured_attack(backend: ConvBackend, parallelism: Option<usize>) -> AttackOutcome {
    let (net, params) = structured_victim();
    let device = Device::new(
        net,
        params,
        AccelConfig::eyeriss_v2().with_conv_backend(backend),
    );
    let cfg = AttackConfig {
        prober: huffduff_core::prober::ProberConfig {
            shifts: 12,
            max_probes: 8,
            stable_probes: 2,
            ..Default::default()
        }
        .with_parallelism(parallelism),
        classes: 10,
        max_k: 256,
        ..Default::default()
    };
    huffduff_core::run(&device, &cfg).expect("attack succeeds")
}

#[test]
fn structured_victim_attack_is_backend_and_parallelism_invariant() {
    let (net, params) = structured_victim();
    let stem_channels = params.conv(net.conv_nodes()[0]).w.k();
    assert!(stem_channels < 8, "structured victim did not shrink");

    let baseline = structured_attack(ConvBackend::Im2colGemm, Some(1));
    for (backend, par) in [
        (ConvBackend::SparseCsc, Some(1)),
        (ConvBackend::Im2colGemm, Some(4)),
        (ConvBackend::SparseCsc, Some(4)),
    ] {
        let got = structured_attack(backend, par);
        assert_eq!(
            baseline.prober, got.prober,
            "prober result diverged for {backend} with parallelism {par:?}"
        );
        assert_eq!(
            baseline.ratios, got.ratios,
            "channel ratios diverged for {backend} with parallelism {par:?}"
        );
        assert_eq!(
            baseline.space.as_ref().map(|s| &s.k1_candidates),
            got.space.as_ref().map(|s| &s.k1_candidates),
            "candidate space diverged for {backend} with parallelism {par:?}"
        );
        assert_eq!(
            baseline.report(),
            got.report(),
            "full report diverged for {backend} with parallelism {par:?}"
        );
    }
    // The attack tracks the *pruned* channel count, not the textbook 8.
    assert!(
        baseline
            .space
            .as_ref()
            .unwrap()
            .k1_candidates
            .contains(&stem_channels),
        "candidates {:?} miss the pruned stem width {stem_channels}",
        baseline.space.as_ref().unwrap().k1_candidates
    );
}

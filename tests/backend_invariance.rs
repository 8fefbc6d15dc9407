//! End-to-end walk and backend invariance: the full HuffDuff attack must
//! recover exactly the same geometry, channel ratios, and candidate space
//! whether the device sends its stripe probes through the cached sparse
//! walk or (with `auto_sparse` off) the full-width walk, whichever
//! software stack the victim runs, and whether probes run serially or in
//! parallel. The attack reads only DRAM traces and encode timings, both of
//! which are functions of the (bit-identical) layer outputs.

use hd_tensor::{BackendPolicy, ConvBackend};
use huffduff::prelude::*;
use huffduff_core::{AttackConfig, AttackOutcome};

type Victim = (hd_dnn::graph::Network, hd_dnn::graph::Params);

fn victim() -> Victim {
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
/// must recover the *pruned* widths, identically on every arm.
fn structured_victim() -> Victim {
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

/// `auto_sparse` off: every probe takes the full-width walk, where the
/// default device sends stripe probes through the cached one.
fn full_width() -> AccelConfig {
    AccelConfig::eyeriss_v2().with_backend_policy(BackendPolicy { auto_sparse: false })
}

/// A sparse CSC victim stack: it hides GEMM calls and changes nothing else.
fn csc_stack() -> AccelConfig {
    AccelConfig::eyeriss_v2().with_conv_backend(ConvBackend::SparseCsc)
}

fn attack(victim: fn() -> Victim, accel: AccelConfig, parallelism: Option<usize>) -> AttackOutcome {
    let (net, params) = victim();
    let device = Device::new(net, params, accel);
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

/// Runs every `(label, config, parallelism)` arm and requires the outcome
/// of the serial default-device run; returns that baseline.
fn assert_invariant(
    victim: fn() -> Victim,
    arms: Vec<(&str, AccelConfig, Option<usize>)>,
) -> AttackOutcome {
    let baseline = attack(victim, AccelConfig::eyeriss_v2(), Some(1));
    for (arm, accel, par) in arms {
        let got = attack(victim, accel, par);
        assert_eq!(
            baseline.prober, got.prober,
            "prober result diverged for {arm} with parallelism {par:?}"
        );
        assert_eq!(
            baseline.ratios, got.ratios,
            "channel ratios diverged for {arm} with parallelism {par:?}"
        );
        assert_eq!(
            baseline.space.as_ref().map(|s| &s.k1_candidates),
            got.space.as_ref().map(|s| &s.k1_candidates),
            "candidate space diverged for {arm} with parallelism {par:?}"
        );
        assert_eq!(
            baseline.report(),
            got.report(),
            "full report diverged for {arm} with parallelism {par:?}"
        );
    }
    baseline
}

#[test]
fn attack_outcome_is_backend_and_parallelism_invariant() {
    let baseline = assert_invariant(
        victim,
        vec![
            ("cached", AccelConfig::eyeriss_v2(), Some(4)),
            ("cached", AccelConfig::eyeriss_v2(), None),
            ("full-width", full_width(), Some(1)),
            ("full-width", full_width(), Some(4)),
            ("sparse-csc", csc_stack(), Some(4)),
        ],
    );
    // The recovered space must still contain the true first-layer width.
    assert!(baseline.space.as_ref().unwrap().k1_candidates.contains(&8));
}

#[test]
fn structured_victim_attack_is_backend_and_parallelism_invariant() {
    let (net, params) = structured_victim();
    let stem_channels = params.conv(net.conv_nodes()[0]).w.k();
    assert!(stem_channels < 8, "structured victim did not shrink");

    let baseline = assert_invariant(
        structured_victim,
        vec![
            ("full-width", full_width(), Some(1)),
            ("cached", AccelConfig::eyeriss_v2(), Some(4)),
            ("sparse-csc", csc_stack(), Some(4)),
        ],
    );
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

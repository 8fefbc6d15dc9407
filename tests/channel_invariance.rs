//! Channel invariance: the boxed [`ChannelKind::Full`] channel is
//! bit-identical to probing the raw `Device` — same `AttackOutcome`, byte
//! for byte — across forward walks, victim software stacks and prober
//! parallelism; the restricted
//! channels observe *exact projections* of the full channel's evidence
//! (never independently-measured, possibly-diverging views); a device
//! that recycles its DRAM buffers yields the same attack as one that
//! allocates fresh; and the full channel, which analyzes whole DRAM
//! transfers, observes exactly what the buffered burst trace shows.
//!
//! The first property is what makes the ObservationModel boundary safe to
//! introduce: every pre-existing result (golden fixtures included) is
//! reproduced through the new API without regeneration. The second is what
//! makes the channel × defence matrix meaningful: a restricted channel's
//! degradation measures lost *information*, not a different simulator.

use hd_tensor::{BackendPolicy, ConvBackend};
use huffduff::prelude::*;
use huffduff_core::{AttackConfig, AttackOutcome, ChannelKind, Observation, ObservationModel};
use proptest::prelude::*;

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

fn attack_cfg(parallelism: Option<usize>) -> AttackConfig {
    AttackConfig {
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
    }
}

fn device(cfg: AccelConfig) -> Device {
    let (net, params) = victim();
    Device::new(net, params, cfg)
}

/// A sparse CSC victim stack: it hides GEMM calls and changes nothing else.
fn csc_stack() -> AccelConfig {
    AccelConfig::eyeriss_v2().with_conv_backend(ConvBackend::SparseCsc)
}

fn attack(target: &dyn ObservationModel, parallelism: Option<usize>) -> AttackOutcome {
    huffduff_core::run(target, &attack_cfg(parallelism)).expect("attack succeeds")
}

#[test]
fn full_channel_is_bit_identical_to_the_raw_device() {
    for (arm, cfg, par) in [
        ("gemm", AccelConfig::eyeriss_v2(), Some(1)),
        ("gemm", AccelConfig::eyeriss_v2(), Some(4)),
        ("gemm", AccelConfig::eyeriss_v2(), None),
        ("sparse-csc", csc_stack(), Some(2)),
    ] {
        let dev = device(cfg);
        let raw = attack(&dev, par);
        let full = ChannelKind::Full.model(&dev);
        assert_eq!(
            raw,
            attack(full.as_ref(), par),
            "the full channel diverged from the raw device on {arm} with parallelism {par:?}"
        );
    }
}

#[test]
fn full_channel_attack_is_backend_invariant() {
    // The attack outcome through the boxed channel keeps the invariance
    // the raw device already guarantees (tests/backend_invariance.rs): the
    // full-width walk (`auto_sparse` off) and a CSC stack change nothing.
    let full = |cfg| attack(ChannelKind::Full.model(&device(cfg)).as_ref(), Some(1));
    let baseline = full(AccelConfig::eyeriss_v2());
    for (arm, cfg) in [
        (
            "full-width",
            AccelConfig::eyeriss_v2().with_backend_policy(BackendPolicy { auto_sparse: false }),
        ),
        ("sparse-csc", csc_stack()),
    ] {
        assert_eq!(
            baseline,
            full(cfg),
            "the full channel's outcome diverged on the {arm} arm"
        );
    }
    let space = baseline.space.as_ref().expect("full channel finalizes");
    assert!(space.k1_candidates.contains(&8));
}

/// A pruned residual victim: the stem output stays live across the
/// branch conv and is read again by the `add`.
fn residual_victim() -> (hd_dnn::graph::Network, hd_dnn::graph::Params) {
    let mut b = hd_dnn::graph::NetworkBuilder::new(3, 16, 16);
    let x = b.input();
    let stem = b.conv(x, 8, 3, 1);
    let y = b.conv(stem, 8, 3, 1);
    let j = b.add(stem, y);
    let x = b.global_avg_pool(j);
    b.linear(x, 10);
    let net = b.build();
    let mut params = hd_dnn::graph::Params::init(&net, 9);
    let profile = hd_dnn::prune::paper_profile(&net);
    hd_dnn::prune::apply_sparsity_profile(&net, &mut params, &profile, 9 ^ 0xF00D);
    (net, params)
}

#[test]
fn buffer_reuse_leaves_the_attack_unchanged() {
    // Recycled DRAM buffers re-version addresses (paper footnote 4); the
    // attacker must recover the same geometry, ratios and candidates. The
    // whole outcome cannot match: its `structure` holds addresses.
    for (name, (net, params)) in [("chain", victim()), ("residual", residual_victim())] {
        let fresh = Device::new(net.clone(), params.clone(), AccelConfig::eyeriss_v2());
        let mut cfg = AccelConfig::eyeriss_v2();
        cfg.reuse_activations = true;
        let reuse = Device::new(net, params, cfg);
        let want = attack(&fresh, Some(1));
        let got = attack(&reuse, Some(1));
        assert_eq!(got.prober.layers, want.prober.layers, "{name}: geometry");
        assert_eq!(got.ratios, want.ratios, "{name}: ratios");
        assert_eq!(got.space, want.space, "{name}: solution space");
    }
}

#[test]
fn full_channel_observes_what_the_burst_trace_shows() {
    // The device hands the analyzer whole transfers; the buffered trace of
    // bursts, replayed through `analyze`, is the oracle.
    let defences = [
        hd_accel::Defence::None,
        hd_accel::Defence::PadEdges { band: 1 },
        hd_accel::Defence::RandomZeros {
            max_bytes: 128,
            seed: 5,
        },
        hd_accel::Defence::NnRearch { tile: 4 },
    ];
    let mut stripe = Tensor3::zeros(3, 16, 16);
    for y in 0..16 {
        stripe.set(0, y, 7, 1.0);
    }
    let images = [Tensor3::full(3, 16, 16, 0.5), stripe];
    for (name, (net, params)) in [("chain", victim()), ("residual", residual_victim())] {
        for defence in &defences {
            for reuse_activations in [false, true] {
                let mut cfg = AccelConfig::eyeriss_v2();
                cfg.defence = defence.clone();
                cfg.reuse_activations = reuse_activations;
                let dev = Device::new(net.clone(), params.clone(), cfg);
                let full = ChannelKind::Full.model(&dev);
                for image in &images {
                    let bursts = hd_trace::analyze(&dev.try_run(image).unwrap()).unwrap();
                    assert_eq!(
                        full.observe(image).unwrap(),
                        Observation::from_trace(bursts),
                        "{name}, {defence:?}, reuse_activations = {reuse_activations}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The restricted channels are *projections*: every field they report
    /// equals the corresponding field of the full channel's observation of
    /// the same image, and every field they hide is uniformly absent —
    /// across randomly drawn victims and probe images.
    #[test]
    fn restricted_channels_observe_exact_projections(
        seed in 0u64..1_000,
        k1 in 2usize..6,
        kernel in prop_oneof![Just(1usize), Just(3usize)],
        fill in 0.1f32..0.9,
    ) {
        let mut b = hd_dnn::graph::NetworkBuilder::new(3, 10, 10);
        let x = b.input();
        let x = b.conv(x, k1, kernel, 1);
        b.conv(x, k1 + 2, 3, 1);
        let net = b.build();
        let params = hd_dnn::graph::Params::init(&net, seed);
        let dev = Device::new(net, params, AccelConfig::eyeriss_v2());
        let image = Tensor3::full(3, 10, 10, fill);

        let observe = |kind: ChannelKind| kind.model(&dev).observe(&image).unwrap();
        let full = observe(ChannelKind::Full);
        let trace = observe(ChannelKind::Trace);
        let timing = observe(ChannelKind::Timing);

        // Channel output is literally the projection of the full evidence.
        prop_assert_eq!(&trace, &full.project(ChannelKind::Trace));
        prop_assert_eq!(&timing, &full.project(ChannelKind::Timing));

        prop_assert_eq!(trace.layers.len(), full.layers.len());
        prop_assert_eq!(timing.layers.len(), full.layers.len());
        for (i, fl) in full.layers.iter().enumerate() {
            let tr = &trace.layers[i];
            let ti = &timing.layers[i];
            // Trace-only keeps volumes and dataflow, hides time.
            prop_assert_eq!(tr.output_bytes, fl.output_bytes);
            prop_assert_eq!(tr.weight_bytes, fl.weight_bytes);
            prop_assert_eq!(tr.input_bytes, fl.input_bytes);
            prop_assert_eq!(&tr.inputs, &fl.inputs);
            prop_assert_eq!(tr.encode_window_ps, None);
            // Timing-only keeps time, hides volumes.
            prop_assert_eq!(ti.encode_window_ps, fl.encode_window_ps);
            prop_assert_eq!(ti.output_bytes, None);
            prop_assert_eq!(ti.weight_bytes, None);
            prop_assert_eq!(ti.input_bytes, None);
        }
        // Neither restricted channel leaks raw timestamps via structure.
        prop_assert!(timing.structure.is_none());
        if let Some(s) = &trace.structure {
            prop_assert!(s
                .tensors
                .iter()
                .all(|t| t.first_write_ps == 0 && t.last_write_ps == 0));
        }
    }

    /// Projection is idempotent: projecting an already-projected
    /// observation changes nothing.
    #[test]
    fn projection_is_idempotent(seed in 0u64..1_000) {
        let mut b = hd_dnn::graph::NetworkBuilder::new(3, 8, 8);
        let x = b.input();
        b.conv(x, 4, 3, 1);
        let net = b.build();
        let params = hd_dnn::graph::Params::init(&net, seed);
        let dev = Device::new(net, params, AccelConfig::eyeriss_v2());
        let image = Tensor3::full(3, 8, 8, 0.5);
        let full = ChannelKind::Full.model(&dev).observe(&image).unwrap();
        for kind in [ChannelKind::Trace, ChannelKind::Timing] {
            let once = full.project(kind);
            prop_assert_eq!(&once.project(kind), &once);
        }
    }
}

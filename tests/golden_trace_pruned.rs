//! Golden-trace fixtures for the two new victim classes of the pruning
//! matrix: an N:M (2:4) fine-grained victim and a structured
//! channel-removed victim (residual topology, so the fixture also pins
//! the restructure pass's channel unification). Same harness contract as
//! `tests/golden_trace.rs`: the full DRAM trace CSV and encode-timing
//! table are byte-identical across both forward walks and both victim
//! software stacks, and pinned to checked-in fixtures.
//!
//! Regenerate deliberately with `GOLDEN_REGEN=1 cargo test --test
//! golden_trace_pruned` and review the fixture diff like source.

use hd_tensor::{BackendPolicy, ConvBackend};
use huffduff::prelude::*;
use std::fmt::Write as _;
use std::sync::Mutex;

const NM_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_trace_nm.txt"
);

const STRUCTURED_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_trace_structured.txt"
);

/// Serializes device-running tests (shared contract with the telemetry
/// tests, which flip the global `hd_obs` flag).
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Seed-pinned 2:4 victim: same chain as the unstructured golden victim,
/// pruned with the N:M pass instead of a sparsity profile.
fn nm_victim() -> (hd_dnn::graph::Network, hd_dnn::graph::Params) {
    let mut b = hd_dnn::graph::NetworkBuilder::new(3, 12, 12);
    let x = b.input();
    let x = b.conv(x, 6, 5, 1);
    let x = b.max_pool(x, 2);
    let x = b.conv(x, 9, 3, 2);
    let x = b.global_avg_pool(x);
    b.linear(x, 4);
    let net = b.build();
    let mut params = hd_dnn::graph::Params::init(&net, 20230813);
    hd_dnn::prune::nm_prune(&net, &mut params, 2, 4);
    (net, params)
}

/// Seed-pinned structured victim: a residual block (so the channel plan
/// must unify the add's operands) channel-halved and then magnitude
/// pruned inside the surviving channels.
fn structured_victim() -> (hd_dnn::graph::Network, hd_dnn::graph::Params) {
    let mut b = hd_dnn::graph::NetworkBuilder::new(3, 12, 12);
    let x = b.input();
    let stem = b.conv(x, 8, 3, 1);
    let y = b.conv(stem, 8, 3, 1);
    let j = b.add(stem, y);
    let x = b.max_pool(j, 2);
    let x = b.global_avg_pool(x);
    b.linear(x, 4);
    let net = b.build();
    let params = hd_dnn::graph::Params::init(&net, 20230814);
    let r = hd_dnn::prune::structured_prune(
        &net,
        &params,
        &hd_dnn::prune::StructuredCfg {
            keep_frac: 0.5,
            min_keep: 2,
        },
    );
    let (net, mut params) = (r.net, r.params);
    let profile = hd_dnn::prune::SparsityProfile {
        targets: net.weighted_nodes().iter().map(|&id| (id, 0.5)).collect(),
    };
    hd_dnn::prune::magnitude_prune_profile(&net, &mut params, &profile);
    (net, params)
}

/// Probe images covering both compute regimes (dense + sparse impulse).
fn golden_images() -> Vec<(&'static str, Tensor3)> {
    let mut dense = Tensor3::zeros(3, 12, 12);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(99);
    dense.fill_uniform(&mut rng, 0.05, 1.0);
    let mut impulse = Tensor3::zeros(3, 12, 12);
    impulse.set(0, 0, 3, -1.0);
    impulse.set(1, 6, 6, 1.0);
    vec![("dense", dense), ("impulse", impulse)]
}

/// Full observable behavior of `(net, params)` on one device config:
/// per-image DRAM trace CSV plus the encode-timing table.
fn snapshot(victim: &(hd_dnn::graph::Network, hd_dnn::graph::Params), cfg: AccelConfig) -> String {
    let device = Device::new(victim.0.clone(), victim.1.clone(), cfg);
    let mut s = String::new();
    for (name, img) in golden_images() {
        writeln!(s, "== trace {name} ==").unwrap();
        let mut csv = Vec::new();
        device.run(&img).to_csv(&mut csv).unwrap();
        s.push_str(&String::from_utf8(csv).unwrap());
        writeln!(s, "== encode timings {name} ==").unwrap();
        writeln!(
            s,
            "node,duration_ps,first_write_offset_ps,bound,glb_ps,dram_ps"
        )
        .unwrap();
        for (id, t) in device.encode_timings(&img) {
            writeln!(
                s,
                "{id},{},{},{:?},{},{}",
                t.duration_ps, t.first_write_offset_ps, t.bound, t.glb_time_ps, t.dram_time_ps
            )
            .unwrap();
        }
    }
    s
}

fn check_fixture(victim: (hd_dnn::graph::Network, hd_dnn::graph::Params), fixture: &str) {
    // The impulse takes the cached walk by default and the full-width walk
    // with `auto_sparse` off; a CSC stack only hides GEMM calls.
    let gemm = snapshot(&victim, AccelConfig::eyeriss_v2());
    for (arm, cfg) in [
        (
            "full-width walk",
            AccelConfig::eyeriss_v2().with_backend_policy(BackendPolicy { auto_sparse: false }),
        ),
        (
            "CSC stack",
            AccelConfig::eyeriss_v2().with_conv_backend(ConvBackend::SparseCsc),
        ),
    ] {
        assert_eq!(
            gemm,
            snapshot(&victim, cfg),
            "the {arm} must produce byte-identical traces and timings"
        );
    }
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(fixture, &gemm).expect("write fixture");
        eprintln!("regenerated {fixture}");
        return;
    }
    let want = std::fs::read_to_string(fixture)
        .expect("golden fixture missing; run with GOLDEN_REGEN=1 to create it");
    assert_eq!(
        gemm, want,
        "simulator behavior drifted from the golden fixture; if intentional, \
         regenerate with GOLDEN_REGEN=1 and review the diff"
    );
}

#[test]
fn nm_victim_trace_pinned_across_backends() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    check_fixture(nm_victim(), NM_FIXTURE);
}

#[test]
fn structured_victim_trace_pinned_across_backends() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    check_fixture(structured_victim(), STRUCTURED_FIXTURE);
}

#[test]
fn structured_victim_really_shrank() {
    // The structured fixture must be exercising *smaller* shapes, not a
    // no-op plan: both residual convs drop to 4 output channels and the
    // head's input follows.
    let (net, params) = structured_victim();
    assert_eq!(params.conv(1).w.k(), 4);
    assert_eq!(params.conv(2).w.k(), 4);
    assert_eq!(params.linear(6).in_features, 4);
    assert!(
        hd_dnn::verify::verify_strict(&net, Some(&params), &hd_dnn::verify::Limits::default())
            .is_ok()
    );
}

#[test]
fn pruned_fixtures_are_nontrivial() {
    if std::env::var("GOLDEN_REGEN").is_ok() {
        return;
    }
    for fixture in [NM_FIXTURE, STRUCTURED_FIXTURE] {
        let want = std::fs::read_to_string(fixture)
            .expect("golden fixture missing; run with GOLDEN_REGEN=1 to create it");
        assert!(want.lines().count() > 50, "fixture suspiciously small");
        assert!(want.contains("== trace dense =="));
        assert!(want.contains("== trace impulse =="));
        assert!(want.contains("== encode timings dense =="));
    }
}

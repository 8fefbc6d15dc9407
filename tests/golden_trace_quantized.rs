//! Golden-trace fixture for the INT8 deployment path: the same seed-pinned
//! pruned victim as `tests/golden_trace.rs`, deployed at
//! [`Precision::Int8`]. Pins the PTQ calibration, the integer conv
//! arithmetic, the deterministic requantize, and the INT8 trace/timing
//! model — any drift in the quantized datapath fails tier-1. The fixture
//! must also be byte-identical across both SIMD dispatch modes (the INT8
//! kernels share the no-FMA lane discipline). An INT8 device has one
//! forward path, which neither the victim software stack nor the
//! `auto_sparse` policy touches, so there is no backend arm.
//!
//! Regenerate deliberately with `GOLDEN_REGEN=1 cargo test --test
//! golden_trace_quantized` and review the fixture diff like source.

use hd_accel::Precision;
use huffduff::prelude::*;
use std::fmt::Write as _;
use std::sync::Mutex;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_trace_quantized.txt"
);

/// Serializes device-running tests (shared contract with the telemetry
/// tests, which flip the global `hd_obs` flag).
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// The `tests/golden_trace.rs` victim, verbatim: two convs (stride 1 and
/// 2), pool, head, with a seed-pinned sparsity profile.
fn golden_victim() -> (hd_dnn::graph::Network, hd_dnn::graph::Params) {
    let mut b = hd_dnn::graph::NetworkBuilder::new(3, 12, 12);
    let x = b.input();
    let x = b.conv(x, 6, 5, 1);
    let x = b.max_pool(x, 2);
    let x = b.conv(x, 9, 3, 2);
    let x = b.global_avg_pool(x);
    b.linear(x, 4);
    let net = b.build();
    let mut params = hd_dnn::graph::Params::init(&net, 20230813);
    let profile = hd_dnn::prune::SparsityProfile {
        targets: net
            .weighted_nodes()
            .iter()
            .enumerate()
            .map(|(pos, &id)| (id, if pos == 0 { 0.45 } else { 0.7 }))
            .collect(),
    };
    hd_dnn::prune::apply_sparsity_profile(&net, &mut params, &profile, 0x60_1D);
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

/// Full observable behavior of the INT8 device: per-image DRAM trace CSV
/// plus the encode-timing table.
fn snapshot() -> String {
    let (net, params) = golden_victim();
    let device = Device::new(
        net,
        params,
        AccelConfig::eyeriss_v2().with_precision(Precision::Int8),
    );
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

#[test]
fn quantized_trace_pinned_across_backends_and_simd_modes() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let vector = snapshot();
    hd_tensor::simd::set_enabled(false);
    let scalar = snapshot();
    hd_tensor::simd::set_enabled(true);
    assert_eq!(
        vector, scalar,
        "INT8 SIMD dispatch modes must produce byte-identical traces"
    );
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(FIXTURE, &vector).expect("write fixture");
        eprintln!("regenerated {FIXTURE}");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("golden fixture missing; run with GOLDEN_REGEN=1 to create it");
    assert_eq!(
        vector, want,
        "INT8 simulator behavior drifted from the golden fixture; if \
         intentional, regenerate with GOLDEN_REGEN=1 and review the diff"
    );
}

#[test]
fn quantized_fixture_is_nontrivial_and_differs_from_f32() {
    if std::env::var("GOLDEN_REGEN").is_ok() {
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("golden fixture missing; run with GOLDEN_REGEN=1 to create it");
    assert!(want.lines().count() > 50, "fixture suspiciously small");
    assert!(want.contains("== trace dense =="));
    assert!(want.contains("== trace impulse =="));
    let f32_fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_trace.txt"
    );
    let f32_want = std::fs::read_to_string(f32_fixture).expect("f32 fixture present");
    assert_ne!(
        want, f32_want,
        "the INT8 deployment must actually change the observable trace"
    );
}

//! Golden-trace fixture tests: the full DRAM `TraceEvent` stream and the
//! per-layer encode-timing summary of a tiny seed-pinned victim are pinned
//! to a checked-in fixture. Any simulator behavior drift — compression
//! sizing, phase timing, address allocation, or a forward walk or kernel
//! that perturbs a single output bit — fails tier-1.
//!
//! Regenerate deliberately with `GOLDEN_REGEN=1 cargo test --test
//! golden_trace` and review the fixture diff like source.

use hd_tensor::{BackendPolicy, ConvBackend};
use huffduff::prelude::*;
use std::fmt::Write as _;
use std::sync::Mutex;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_trace.txt"
);

const OBS_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_obs.txt");

/// Serializes tests that run the device: the telemetry test flips the global
/// `hd_obs` enable flag, and a concurrent `device.run` from another test
/// would pollute its counters.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Seed-pinned pruned victim: two convs (stride 1 and 2), pool, head.
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

/// Probe images covering both compute regimes: a dense image (the
/// full-width walk runs) and a sparse impulse (the cached walk runs unless
/// `auto_sparse` is off).
fn golden_images() -> Vec<(&'static str, Tensor3)> {
    let mut dense = Tensor3::zeros(3, 12, 12);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(99);
    dense.fill_uniform(&mut rng, 0.05, 1.0);
    let mut impulse = Tensor3::zeros(3, 12, 12);
    impulse.set(0, 0, 3, -1.0);
    impulse.set(1, 6, 6, 1.0);
    vec![("dense", dense), ("impulse", impulse)]
}

/// Renders the full observable behavior of the device on the golden victim:
/// per-image DRAM trace CSV plus the encode-timing table.
fn snapshot(cfg: AccelConfig) -> String {
    let (net, params) = golden_victim();
    let device = Device::new(net, params, cfg);
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

/// Renders the deterministic slice of a telemetry snapshot: counter values,
/// histogram counts (plus min/max for the deterministic picosecond-domain
/// encode histogram), and span counts per `(name, label)`. Wall-clock
/// durations and f64 sums are deliberately excluded.
fn telemetry_snapshot_text(snap: &hd_obs::Snapshot) -> String {
    let mut s = String::from("== counters ==\nname,label,value\n");
    for c in &snap.counters {
        writeln!(s, "{},{},{}", c.name, c.label, c.value).unwrap();
    }
    s.push_str("== histograms ==\nname,label,count,min,max\n");
    for h in &snap.hists {
        // Only `device.encode.duration_ps` samples simulated time
        // (deterministic); anything else samples wall-clock.
        if h.name == "device.encode.duration_ps" {
            writeln!(s, "{},{},{},{},{}", h.name, h.label, h.count, h.min, h.max).unwrap();
        } else {
            writeln!(s, "{},{},{},-,-", h.name, h.label, h.count).unwrap();
        }
    }
    s.push_str("== spans ==\nname,label,count\n");
    let mut span_counts = std::collections::BTreeMap::new();
    for sp in &snap.spans {
        *span_counts
            .entry((sp.name.clone(), sp.label.clone()))
            .or_insert(0u64) += 1;
    }
    for ((name, label), count) in span_counts {
        writeln!(s, "{name},{label},{count}").unwrap();
    }
    s
}

/// Telemetry of one device over the golden images, recorded from a reset.
fn device_telemetry(backend: ConvBackend) -> hd_obs::Snapshot {
    hd_obs::reset();
    hd_obs::set_enabled(true);
    let (net, params) = golden_victim();
    let device = Device::new(
        net,
        params,
        AccelConfig::eyeriss_v2().with_conv_backend(backend),
    );
    for (_, img) in golden_images() {
        device.run(&img);
    }
    hd_obs::set_enabled(false);
    let snap = hd_obs::snapshot();
    hd_obs::reset();
    snap
}

#[test]
fn golden_telemetry_counters_pinned() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let snap = device_telemetry(ConvBackend::Im2colGemm);
    let got = telemetry_snapshot_text(&snap);

    // The image alone picks the walk: a SparseCsc device sends the dense
    // image through the full-width walk and the impulse through the cached
    // one, exactly as the Im2colGemm device does, so the `device.fwd_cache`
    // and `sparse_fwd.*` counters agree.
    assert_eq!(
        telemetry_snapshot_text(&device_telemetry(ConvBackend::SparseCsc)),
        got,
        "the conv backend changed which walk a device took"
    );

    // Structural floor, independent of the fixture: every telemetry family
    // the device emits must be present.
    assert!(snap.counter_total("dram.read.bytes") > 0);
    assert!(snap.counter_total("dram.write.bytes") > 0);
    assert!(snap.counter_total("device.compute.cycles") > 0);
    assert_eq!(snap.span_count("device.run"), 2);
    assert!(snap.span_count("device.layer") > 0);

    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(OBS_FIXTURE, &got).expect("write telemetry fixture");
        eprintln!("regenerated {OBS_FIXTURE}");
        return;
    }
    let want = std::fs::read_to_string(OBS_FIXTURE)
        .expect("telemetry fixture missing; run with GOLDEN_REGEN=1 to create it");
    assert_eq!(
        got, want,
        "device telemetry drifted from the golden fixture; if intentional, \
         regenerate with GOLDEN_REGEN=1 and review the diff"
    );
}

#[test]
fn golden_fixture_reproduced_by_all_backends() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let gemm = snapshot(AccelConfig::eyeriss_v2());
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
            snapshot(cfg),
            "the {arm} must produce byte-identical traces and timings"
        );
    }
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(FIXTURE, &gemm).expect("write fixture");
        eprintln!("regenerated {FIXTURE}");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("golden fixture missing; run with GOLDEN_REGEN=1 to create it");
    assert_eq!(
        gemm, want,
        "simulator behavior drifted from the golden fixture; if intentional, \
         regenerate with GOLDEN_REGEN=1 and review the diff"
    );
}

#[test]
fn golden_fixture_is_nontrivial() {
    // Guard against an accidentally-truncated fixture passing vacuously.
    // Under GOLDEN_REGEN the fixture may not exist yet (tests run in
    // parallel with the regenerating test), so skip the check.
    if std::env::var("GOLDEN_REGEN").is_ok() {
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("golden fixture missing; run with GOLDEN_REGEN=1 to create it");
    assert!(want.lines().count() > 50, "fixture suspiciously small");
    assert!(want.contains("== trace dense =="));
    assert!(want.contains("== trace impulse =="));
    assert!(want.contains("== encode timings dense =="));
}

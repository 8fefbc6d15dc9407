//! Telemetry invariance and export integrity.
//!
//! The `hd-obs` contract is that switching telemetry on or off never changes
//! what the attack computes — only whether it is observed. These tests run
//! the full HuffDuff attack with telemetry disabled and enabled and require
//! bit-identical [`AttackOutcome`]s (on a steal whose probes hit the
//! device's walk memo), then exercise the export surface: the
//! stable-schema JSON must round-trip through `hd_obs::json`, and the Chrome
//! trace must carry at least one `device.layer` span per executed layer.

use huffduff::prelude::*;
use huffduff_core::{AttackConfig, AttackOutcome, ProberConfig};
use std::sync::Mutex;

/// All tests here mutate the process-global `hd_obs` registry and enable
/// flag, so they must not interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

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

fn device() -> Device {
    let (net, params) = victim();
    Device::new(net, params, AccelConfig::eyeriss_v2())
}

fn attack_config() -> AttackConfig {
    AttackConfig {
        prober: ProberConfig {
            shifts: 12,
            max_probes: 8,
            stable_probes: 2,
            parallelism: Some(2),
            ..ProberConfig::default()
        },
        classes: 10,
        max_k: 256,
        ..AttackConfig::default()
    }
}

fn run_attack() -> AttackOutcome {
    huffduff_core::run(&device(), &attack_config()).expect("attack succeeds")
}

#[test]
fn attack_outcome_is_bit_identical_with_telemetry_on_and_off() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    hd_obs::set_enabled(false);
    hd_obs::reset();
    let off = run_attack();

    hd_obs::reset();
    hd_obs::set_enabled(true);
    let on = run_attack();
    hd_obs::set_enabled(false);
    let snap = hd_obs::snapshot();
    hd_obs::reset();

    assert_eq!(off.prober, on.prober, "telemetry changed the prober result");
    assert_eq!(
        off.ratios, on.ratios,
        "telemetry changed the channel ratios"
    );
    assert_eq!(off.space, on.space, "telemetry changed the candidate space");
    assert_eq!(off, on, "telemetry changed the attack outcome");

    // The enabled run must actually have recorded the attack. One attack
    // stage span per pipeline phase, and probes landed on every family.
    assert_eq!(snap.span_count("attack.run"), 1);
    assert_eq!(snap.span_count("attack.stage"), 3);
    assert!(snap.counter("prober.families", "").unwrap_or(0) > 0);
    assert!(snap.counter_total("prober.runs") > 0);
    // Every booked probe run executed exactly once: the sharded counter
    // each pool worker bumps must merge to the prober's own accounting.
    assert_eq!(
        snap.counter("prober.probe_runs", "").unwrap_or(0),
        on.prober.runs_used as u64,
        "executed probe count diverged from runs_used"
    );
    assert!(snap.counter_total("dram.read.bytes") > 0);
    // The steal's later shifts copied columns from earlier ones (the
    // device's walk memo), so the invariance above covers that path too.
    assert!(
        snap.counter("sparse_fwd.cols_reused", "").unwrap_or(0) > 0,
        "the steal never hit the walk memo"
    );
}

#[test]
fn attack_outcome_is_invariant_under_telemetry_and_wide_parallelism() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    hd_obs::set_enabled(false);
    hd_obs::reset();
    let baseline = run_attack();

    // -j4 exceeds this host's core count on CI's smallest runners, so the
    // pool oversubscribes; with telemetry on, every worker also bumps its
    // own counter shard. Neither may change the outcome.
    let base = attack_config();
    let wide_config = AttackConfig {
        prober: base.prober.clone().with_parallelism(Some(4)),
        ..base
    };
    hd_obs::reset();
    hd_obs::set_enabled(true);
    let wide = huffduff_core::run(&device(), &wide_config).expect("attack succeeds");
    hd_obs::set_enabled(false);
    let snap = hd_obs::snapshot();
    hd_obs::reset();

    assert_eq!(baseline, wide, "-j4 with telemetry changed the outcome");
    assert_eq!(
        snap.counter("prober.probe_runs", "").unwrap_or(0),
        wide.prober.runs_used as u64
    );
}

#[test]
fn disabled_runs_record_nothing() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    hd_obs::set_enabled(false);
    hd_obs::reset();
    device().run(&Tensor3::zeros(3, 16, 16));
    let snap = hd_obs::snapshot();
    assert!(snap.counters.is_empty(), "disabled run recorded counters");
    assert!(snap.hists.is_empty(), "disabled run recorded histograms");
    assert!(snap.spans.is_empty(), "disabled run recorded spans");
}

/// Runs the golden device once with telemetry on and returns the snapshot.
fn recorded_snapshot() -> hd_obs::Snapshot {
    hd_obs::reset();
    hd_obs::set_enabled(true);
    let dev = device();
    let mut img = Tensor3::zeros(3, 16, 16);
    img.set(0, 3, 3, 1.0);
    img.set(1, 8, 8, -0.5);
    dev.run(&img);
    hd_obs::set_enabled(false);
    let snap = hd_obs::snapshot();
    hd_obs::reset();
    snap
}

#[test]
fn json_export_round_trips_through_the_vendored_parser() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let snap = recorded_snapshot();
    let json = hd_obs::json::Json::parse(&snap.to_json()).expect("export is valid JSON");

    assert_eq!(
        json.get("schema").and_then(|s| s.as_str()),
        Some("hd-obs/v1")
    );
    let counters = json
        .get("counters")
        .and_then(|c| c.as_array())
        .expect("counters array");
    assert_eq!(counters.len(), snap.counters.len());
    for (parsed, orig) in counters.iter().zip(&snap.counters) {
        assert_eq!(
            parsed.get("name").and_then(|v| v.as_str()),
            Some(orig.name.as_str())
        );
        assert_eq!(
            parsed.get("label").and_then(|v| v.as_str()),
            Some(orig.label.as_str())
        );
        assert_eq!(
            parsed.get("value").and_then(|v| v.as_f64()),
            Some(orig.value as f64),
            "counter {}.{} did not round-trip",
            orig.name,
            orig.label
        );
    }
    let hists = json
        .get("histograms")
        .and_then(|h| h.as_array())
        .expect("histograms array");
    assert_eq!(hists.len(), snap.hists.len());
    let spans = json
        .get("spans")
        .and_then(|s| s.as_array())
        .expect("spans array");
    assert!(
        !spans.is_empty(),
        "export must aggregate the recorded spans"
    );
    assert_eq!(
        json.get("spans_dropped").and_then(|v| v.as_f64()),
        Some(0.0)
    );
}

#[test]
fn chrome_trace_has_a_span_per_executed_layer() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let snap = recorded_snapshot();
    let trace = hd_obs::json::Json::parse(&snap.to_chrome_trace()).expect("trace is valid JSON");

    let events = trace
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let layer_labels: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("device.layer"))
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("label"))
                .and_then(|l| l.as_str())
                .expect("layer span carries its label")
        })
        .collect();

    // Every layer the device executes (everything except Input and the
    // zero-cost Flatten reshape) must appear as a trace span.
    let (net, _) = victim();
    let executed: Vec<&str> = net
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| !matches!(n.op, hd_dnn::graph::Op::Input | hd_dnn::graph::Op::Flatten))
        .map(|(id, _)| net.name(id))
        .collect();
    assert!(!executed.is_empty());
    for name in executed {
        assert!(
            layer_labels.contains(&name),
            "no device.layer trace event for layer {name:?}"
        );
    }
    for e in events {
        assert_eq!(e.get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(e.get("cat").and_then(|c| c.as_str()), Some("hd-obs"));
    }
}

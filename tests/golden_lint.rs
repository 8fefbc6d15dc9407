//! Golden diagnostics for the static model/config verifier
//! (`hd_dnn::verify`): a set of deliberately malformed graphs — assembled
//! through the unvalidated `Network::from_raw_parts` escape hatch or by
//! tampering with builder output — each produce a pinned set of typed
//! diagnostics. Any drift in what the verifier catches, or in how it
//! phrases a diagnostic, fails tier-1.
//!
//! Regenerate deliberately with `GOLDEN_REGEN=1 cargo test --test
//! golden_lint` and review the fixture diff like source.

use hd_dnn::graph::{ConvSpec, Network, NetworkBuilder, Node, Op, Params, ValueShape};
use hd_dnn::verify::{verify, verify_network, verify_strict, DiagKind, Limits, Severity};
use hd_tensor::conv::Padding;
use hd_tensor::pool::PoolKind;
use hd_tensor::Shape3;
use huffduff::prelude::*;
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_lint.txt"
);

/// A well-formed reference net (the same scenarios are built by breaking it).
fn clean_net() -> Network {
    let mut b = NetworkBuilder::new(3, 8, 8);
    let x = b.input();
    let x = b.conv(x, 4, 3, 1);
    let x = b.max_pool(x, 2);
    let x = b.global_avg_pool(x);
    b.linear(x, 10);
    b.build()
}

/// Scenario 1: a recorded shape that disagrees with what the conv implies.
fn shape_mismatch_net() -> Network {
    let net = clean_net();
    let mut shapes: Vec<ValueShape> = (0..net.len()).map(|i| net.value_shape(i)).collect();
    shapes[1] = ValueShape::Map(Shape3::new(4, 6, 6)); // conv really yields 4x8x8
    Network::from_raw_parts(
        net.nodes().to_vec(),
        net.input_shape(),
        shapes,
        (0..net.len()).map(|i| net.name(i).to_string()).collect(),
    )
}

/// Scenario 2: a conv whose output feeds nothing (dead layer, a warning).
fn dead_layer_net() -> Network {
    let mut b = NetworkBuilder::new(2, 8, 8);
    let x = b.input();
    let _dead = b.conv(x, 4, 3, 1);
    let x2 = b.conv(x, 4, 3, 1);
    b.global_avg_pool(x2);
    b.build()
}

/// Scenario 3: a Valid-padding kernel larger than its input plane.
fn stride_exceeds_input_net() -> Network {
    let shape = Shape3::new(1, 4, 4);
    let mut spec = ConvSpec::standard(2, 5, 1);
    spec.padding = Padding::Valid;
    Network::from_raw_parts(
        vec![
            Node {
                op: Op::Input,
                inputs: vec![],
            },
            Node {
                op: Op::Conv(spec),
                inputs: vec![0],
            },
        ],
        shape,
        vec![
            ValueShape::Map(shape),
            ValueShape::Map(Shape3::new(2, 0, 0)),
        ],
        vec!["input0".into(), "conv1".into()],
    )
}

/// Scenario 4: a second input node plus a forward reference.
fn forward_reference_net() -> Network {
    let shape = Shape3::new(2, 8, 8);
    Network::from_raw_parts(
        vec![
            Node {
                op: Op::Input,
                inputs: vec![],
            },
            Node {
                op: Op::Input,
                inputs: vec![],
            },
            Node {
                op: Op::Conv(ConvSpec::standard(4, 3, 1)),
                inputs: vec![3],
            },
            Node {
                op: Op::Pool {
                    factor: 2,
                    kind: PoolKind::Max,
                },
                inputs: vec![2],
            },
        ],
        shape,
        vec![
            ValueShape::Map(shape),
            ValueShape::Map(shape),
            ValueShape::Map(Shape3::new(4, 8, 8)),
            ValueShape::Map(Shape3::new(4, 4, 4)),
        ],
        vec![
            "input0".into(),
            "input1".into(),
            "conv2".into(),
            "pool3".into(),
        ],
    )
}

/// Renders one scenario's diagnostics as stable text.
fn render(title: &str, diags: &[hd_dnn::verify::Diagnostic]) -> String {
    let mut s = format!("== {title} ==\n");
    if diags.is_empty() {
        s.push_str("(clean)\n");
    }
    for d in diags {
        let _ = writeln!(s, "{d}");
    }
    s
}

/// The full golden text: every scenario, in order.
fn golden_text() -> String {
    let mut s = String::new();
    s.push_str(&render("clean", &verify_network(&clean_net())));
    s.push_str(&render(
        "shape-mismatch",
        &verify_network(&shape_mismatch_net()),
    ));
    s.push_str(&render("dead-layer", &verify_network(&dead_layer_net())));
    s.push_str(&render(
        "stride-exceeds-input",
        &verify_network(&stride_exceeds_input_net()),
    ));
    s.push_str(&render(
        "forward-reference",
        &verify_network(&forward_reference_net()),
    ));
    let net = clean_net();
    let params = Params::init(&net, 3);
    let tiny = Limits {
        weight_glb_bytes: Some(1),
        max_weight_passes: 4,
        ..Limits::default()
    };
    s.push_str(&render("glb-overflow", &verify(&net, Some(&params), &tiny)));
    s
}

#[test]
fn golden_diagnostics_pinned() {
    let got = golden_text();
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(FIXTURE, &got).expect("write lint fixture");
        eprintln!("regenerated {FIXTURE}");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("golden lint fixture missing; run with GOLDEN_REGEN=1 to create it");
    assert_eq!(
        got, want,
        "verifier diagnostics drifted from the golden fixture; if intentional, \
         regenerate with GOLDEN_REGEN=1 and review the diff"
    );
}

#[test]
fn golden_lint_fixture_is_nontrivial() {
    if std::env::var("GOLDEN_REGEN").is_ok() {
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("golden lint fixture missing; run with GOLDEN_REGEN=1 to create it");
    for needle in [
        "== clean ==\n(clean)",
        "shape-mismatch",
        "dead-layer",
        "stride-exceeds-input",
        "forward-reference",
        "glb-overflow",
        "error[",
        "warning[",
    ] {
        assert!(want.contains(needle), "fixture missing {needle:?}");
    }
}

/// Every malformed scenario is rejected by strict verification with typed
/// (matchable) diagnostics — independent of the fixture text.
#[test]
fn malformed_graphs_rejected_with_typed_diagnostics() {
    let err = verify_strict(&shape_mismatch_net(), None, &Limits::default())
        .expect_err("shape mismatch must fail strict verification");
    assert!(err
        .errors()
        .any(|d| matches!(d.kind, DiagKind::ShapeMismatch { .. })));

    let err = verify_strict(&stride_exceeds_input_net(), None, &Limits::default())
        .expect_err("oversized Valid kernel must fail strict verification");
    assert!(err
        .errors()
        .any(|d| matches!(d.kind, DiagKind::StrideExceedsInput { .. })));

    let err = verify_strict(&forward_reference_net(), None, &Limits::default())
        .expect_err("forward reference must fail strict verification");
    assert!(err
        .errors()
        .any(|d| matches!(d.kind, DiagKind::ForwardReference { input: 3 })));
    assert!(err.errors().any(|d| matches!(d.kind, DiagKind::ExtraInput)));

    // Dead layers are warnings: strict verification still passes.
    let diags = verify_network(&dead_layer_net());
    assert!(diags
        .iter()
        .any(|d| d.severity == Severity::Warning && matches!(d.kind, DiagKind::DeadLayer)));
    assert!(verify_strict(&dead_layer_net(), None, &Limits::default()).is_ok());
}

/// The device constructor surfaces the verifier's typed diagnostics in
/// its error, so a malformed graph can never reach simulation. There is
/// no unchecked constructor: these graphs cannot be sealed at all.
#[test]
fn device_rejects_malformed_graphs() {
    let rejection = |net: Network| {
        let params = Params::init(&net, 3);
        let err = Device::try_new(net, params, AccelConfig::eyeriss_v2())
            .map(|_| ())
            .expect_err("try_new must reject a malformed graph");
        let hd_accel::ConfigError::Model { diagnostics } = &err else {
            panic!("expected a model rejection, got {err}");
        };
        (diagnostics.clone(), err.to_string())
    };
    let is_error = |d: &hd_dnn::verify::Diagnostic, kind: fn(&DiagKind) -> bool| {
        d.severity == Severity::Error && kind(&d.kind)
    };

    let (diagnostics, msg) = rejection(shape_mismatch_net());
    assert!(diagnostics
        .iter()
        .any(|d| is_error(d, |k| matches!(k, DiagKind::ShapeMismatch { .. }))));
    assert!(msg.contains("shape-mismatch"), "unhelpful error: {msg}");

    // A stray second input with a conv reading past itself: the graph
    // behind the device's old late `MissingProducer` error.
    let (diagnostics, msg) = rejection(forward_reference_net());
    assert!(diagnostics
        .iter()
        .any(|d| is_error(d, |k| matches!(k, DiagKind::ExtraInput))));
    assert!(diagnostics
        .iter()
        .any(|d| is_error(d, |k| matches!(k, DiagKind::ForwardReference { input: 3 }))));
    assert!(msg.contains("forward-reference"), "unhelpful error: {msg}");
}

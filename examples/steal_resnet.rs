//! Steal the full-size CIFAR ResNet-18 victim, including its residual
//! dataflow graph, and show the ambiguity the channel genuinely leaves.
//!
//! ResNet-18 exercises the parts VGG-S does not: residual joins (the
//! attacker recovers the two-input dataflow from RAW dependencies),
//! stride-2 stage transitions, 1x1 projection shortcuts, and global
//! average pooling. At saturated deep layers some geometries are
//! *iso-footprint equivalent* — indistinguishable from any volume/timing
//! observable — and the prober reports them in `alternatives`.
//!
//! ```text
//! cargo run --release --example steal_resnet                 # all cores, GEMM
//! cargo run --release --example steal_resnet -- -j 1         # serial baseline
//! cargo run --release --example steal_resnet -- -b sparse    # CSC victim stack
//! cargo run --release --example steal_resnet -- -o obs.json  # telemetry export
//! cargo run --release --example steal_resnet -- -p 2:4       # N:M sparse victim
//! cargo run --release --example steal_resnet -- -c trace     # volumes, no timing
//! cargo run --release --example steal_resnet -- --help       # all options
//! ```
//!
//! `-c` restricts the observation channel (`full`, `trace`, `timing`, or
//! `gemm`); the report shows which attack stages the restriction costs.
//!
//! `-p structured[:FRAC]` runs the channel-removal pass first (residual
//! adds keep both operands on one channel set), so the attack reads the
//! physically shrunken widths off the device.
//!
//! `-j N` caps the prober's worker threads; any worker count produces a
//! bit-identical result (the executor is deterministic), only wall-clock
//! changes. `-b` names the victim's convolution software stack: `gemm`
//! (im2col + BLAS, whose GEMM calls the `gemm` channel observes) or
//! `sparse` (a CSC engine, which issues none). It selects no compute path
//! and is no faster either way; the simulator picks each kernel from its
//! operands and each forward walk from the image. `-o obs.json` records hd-obs telemetry into JSON plus a Chrome
//! trace without affecting the outcome.

#[path = "common/cli.rs"]
mod cli;

use huffduff::prelude::*;
use huffduff_core::eval::{expected_kinds, score_geometry};

fn main() {
    let args = cli::CliArgs::parse("steal_resnet");

    let net = hd_dnn::zoo::resnet18(10);
    let params = hd_dnn::graph::Params::init(&net, 4);
    let (net, params) = cli::prune_victim(net, params, args.prune, 5);
    println!(
        "victim: CIFAR ResNet-18 ({}), {} conv layers, {} weights after pruning",
        args.prune.label(),
        net.conv_nodes().len(),
        net.sparse_weight_count(&params)
    );

    let backend = args.backend_or_default();
    let accel = AccelConfig::eyeriss_v2()
        .with_conv_backend(backend)
        .with_precision(args.precision());
    if args.quantized {
        println!("precision: INT8 (post-training quantized, BN folded)");
    }
    let device = Device::new(net.clone(), params, accel);

    let cfg = huffduff_core::AttackConfig {
        prober: huffduff_core::ProberConfig::default().with_parallelism(args.parallelism),
        ..Default::default()
    };
    println!(
        "prober workers: {} ({} probe inferences fan out per family), conv backend: {}, \
         observation channel: {}",
        cfg.prober.effective_parallelism(cfg.prober.shifts),
        cfg.prober.shifts,
        backend,
        args.channel
    );

    cli::obs_begin(&args);
    #[expect(clippy::disallowed_methods, reason = "prints wall time only")]
    let t0 = std::time::Instant::now();
    let model = args.channel.model(&device);
    let outcome = huffduff_core::run(model.as_ref(), &cfg).expect("attack runs");
    println!("attack completed in {:.1}s", t0.elapsed().as_secs_f64());
    cli::obs_finish(&args);
    println!("{}", outcome.prober.report());

    // Point-estimate accuracy and candidate-set coverage.
    let score = score_geometry(&net, &outcome.prober);
    let expected = expected_kinds(&net);
    let covered = expected
        .iter()
        .zip(&outcome.prober.layers)
        .filter(|(e, l)| l.kind == **e || l.alternatives.contains(e))
        .count();
    println!(
        "geometry: {}/{} exact point estimates, {}/{} covered by candidate sets",
        score.correct,
        score.total,
        covered,
        expected.len()
    );
    for (idx, want, got) in &score.mismatches {
        let alts = outcome
            .prober
            .layers
            .get(*idx)
            .map(|l| {
                l.alternatives
                    .iter()
                    .map(|k| k.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .unwrap_or_default();
        println!("  layer {idx}: true {want}, point estimate {got} (candidates: {alts})");
    }

    match &outcome.space {
        Some(space) => println!(
            "\nsolution space: {} candidates, k1 range [{}, {}] (paper: 44, [30, 73])",
            space.count(),
            space.k1_candidates.first().unwrap_or(&0),
            space.k1_candidates.last().unwrap_or(&0),
        ),
        None => println!(
            "\nsolution space: not recoverable on the {} channel",
            args.channel
        ),
    }
}

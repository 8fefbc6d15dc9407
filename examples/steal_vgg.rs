//! Steal the full-size VGG-S victim's architecture (paper §8.2 pipeline).
//!
//! Builds the 7-conv VGG-S (96-channel 7x7 stem, conv5_3 at 512x512x3x3),
//! prunes it with the paper-shaped sparsity profile, seals it inside an
//! Eyeriss-v2-like device, and runs the complete HuffDuff attack. Takes
//! roughly half a minute in release mode.
//!
//! ```text
//! cargo run --release --example steal_vgg                   # all cores, GEMM
//! cargo run --release --example steal_vgg -- -j 1           # serial baseline
//! cargo run --release --example steal_vgg -- -b sparse      # CSC victim stack
//! cargo run --release --example steal_vgg -- -o obs.json    # telemetry export
//! cargo run --release --example steal_vgg -- -p 2:4         # N:M sparse victim
//! cargo run --release --example steal_vgg -- -p structured  # channel-removed victim
//! cargo run --release --example steal_vgg -- -c gemm        # Cache-Telepathy channel
//! cargo run --release --example steal_vgg -- --help         # all options
//! ```
//!
//! `-c` restricts what the attacker observes: `full` (the paper's trace +
//! timing channel), `trace` (volumes only, no timestamps), `timing`
//! (encode windows only), or `gemm` (GEMM call dimensions, the
//! Cache-Telepathy threat model — requires `-b gemm`). Restricted channels
//! recover less: the report says which stages degraded.
//!
//! `-p` selects how the victim was pruned: `unstructured` (the paper's
//! magnitude profile), `N:M` fine-grained sparsity, or `structured[:FRAC]`
//! channel removal — the latter physically shrinks layer shapes, so the
//! attack recovers the pruned widths, not the textbook VGG-S ones.
//!
//! `-j N` caps the prober's worker threads; any worker count produces a
//! bit-identical result (the executor is deterministic), only wall-clock
//! changes. `-b` names the victim's convolution software stack: `gemm`
//! (im2col + BLAS, whose GEMM calls the `gemm` channel observes) or
//! `sparse` (a CSC engine, which issues none). It selects no compute path
//! and is no faster either way; the simulator picks each kernel from its
//! operands and each forward walk from the image. `-o obs.json` additionally records hd-obs telemetry — DRAM
//! bytes by transfer type, probe counts, cache hits, per-layer spans — and
//! writes it as JSON plus a Chrome trace (`obs.trace.json`, loadable in
//! `chrome://tracing`); telemetry never changes the attack outcome either.

#[path = "common/cli.rs"]
mod cli;

use huffduff::prelude::*;
use huffduff_core::eval::{expected_conv_channels, score_geometry};

fn main() {
    let args = cli::CliArgs::parse("steal_vgg");

    let net = hd_dnn::zoo::vgg_s(10);
    let params = hd_dnn::graph::Params::init(&net, 3);
    let (net, params) = cli::prune_victim(net, params, args.prune, 4);
    println!(
        "victim: VGG-S ({}), {} dense weights, {} after pruning",
        args.prune.label(),
        net.dense_weight_count(&params),
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
    println!("{}", outcome.report());

    // Evaluation only: compare against the ground truth the attacker never had.
    let score = score_geometry(&net, &outcome.prober);
    println!(
        "geometry: {}/{} layers exact ({} mismatches)",
        score.correct,
        score.total,
        score.mismatches.len()
    );
    for (idx, expected, got) in &score.mismatches {
        println!("  layer {idx}: expected {expected}, recovered {got}");
    }

    let true_k1 = expected_conv_channels(&net)[0];
    match &outcome.space {
        Some(space) => {
            println!(
                "true K1 = {true_k1}; recovered range covers it: {}",
                space.k1_candidates.contains(&true_k1)
            );
            println!(
                "solution space: {} candidates (paper: 66 for VGG-S)",
                space.count()
            );
        }
        None => println!(
            "solution space: not recoverable on the {} channel",
            args.channel
        ),
    }
}

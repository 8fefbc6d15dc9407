//! `huffduff` — command-line front end for the reproduction.
//!
//! ```text
//! huffduff steal  --model vgg-s|resnet18|vgg16 [--seed N]   run the full attack
//! huffduff trace  --model <m> [--seed N] --out trace.csv    dump one inference's bus trace
//! huffduff analyze --input trace.csv                        attacker-side trace analysis
//! huffduff demo                                             tiny end-to-end walkthrough
//! ```

use hd_accel::{AccelConfig, Device};
use hd_dnn::graph::Params;
use hd_tensor::Tensor3;
use std::io::BufReader;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let get_opt = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    // A present `--seed` must parse: a typo must not attack the default victim.
    let seed: u64 = match args.iter().position(|a| a == "--seed") {
        None => 3,
        Some(i) => match args.get(i + 1).and_then(|s| s.parse().ok()) {
            Some(seed) => seed,
            None => {
                eprintln!("--seed needs an unsigned decimal integer");
                return usage();
            }
        },
    };

    match cmd {
        "steal" => {
            let Some((device, name)) = build_victim(&get_opt("--model"), seed) else {
                return usage();
            };
            eprintln!("attacking a pruned {name} sealed in an Eyeriss-v2-like device…");
            #[expect(clippy::disallowed_methods, reason = "prints wall time only")]
            let t0 = std::time::Instant::now();
            match huffduff_core::run(&device, &huffduff_core::AttackConfig::default()) {
                Ok(outcome) => {
                    println!("{}", outcome.report());
                    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("attack failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "trace" => {
            let Some((device, name)) = build_victim(&get_opt("--model"), seed) else {
                return usage();
            };
            let Some(out) = get_opt("--out") else {
                eprintln!("trace requires --out <file.csv>");
                return ExitCode::FAILURE;
            };
            let shape = device.input_shape();
            let image = Tensor3::full(shape.c, shape.h, shape.w, 0.5);
            let trace = device.run(&image);
            match std::fs::File::create(&out).and_then(|f| trace.to_csv(f)) {
                Ok(()) => {
                    eprintln!("{name}: {} bus events written to {out}", trace.len());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("could not write {out}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "analyze" => {
            let Some(input) = get_opt("--input") else {
                eprintln!("analyze requires --input <file.csv>");
                return ExitCode::FAILURE;
            };
            let trace = match std::fs::File::open(&input)
                .map_err(hd_accel::trace_event::ParseTraceError::from)
                .and_then(|f| hd_accel::Trace::from_csv(BufReader::new(f)))
            {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("could not read {input}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match hd_trace::analyze(&trace) {
                Ok(analysis) => {
                    println!("{}", analysis.report());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("analysis failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "demo" => {
            let mut b = hd_dnn::graph::NetworkBuilder::new(3, 16, 16);
            let x = b.input();
            let x = b.conv(x, 8, 5, 1);
            let x = b.max_pool(x, 2);
            let x = b.conv(x, 16, 3, 1);
            let x = b.global_avg_pool(x);
            b.linear(x, 10);
            let net = b.build();
            let mut params = Params::init(&net, seed);
            let profile = hd_dnn::prune::SparsityProfile {
                targets: net
                    .weighted_nodes()
                    .iter()
                    .enumerate()
                    .map(|(pos, &id)| (id, if pos == 0 { 0.45 } else { 0.75 }))
                    .collect(),
            };
            hd_dnn::prune::apply_sparsity_profile(&net, &mut params, &profile, seed ^ 1);
            let device = Device::new(net, params, AccelConfig::eyeriss_v2());
            let cfg = huffduff_core::AttackConfig {
                prober: huffduff_core::ProberConfig {
                    shifts: 12,
                    max_probes: 8,
                    stable_probes: 2,
                    ..Default::default()
                },
                classes: 10,
                max_k: 256,
                ..Default::default()
            };
            match huffduff_core::run(&device, &cfg) {
                Ok(outcome) => {
                    println!("{}", outcome.report());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("demo attack failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

fn build_victim(model: &Option<String>, seed: u64) -> Option<(Device, &'static str)> {
    let (net, name) = match model.as_deref() {
        Some("vgg-s") | Some("vgg_s") => (hd_dnn::zoo::vgg_s(10), "VGG-S"),
        Some("resnet18") | Some("resnet-18") => (hd_dnn::zoo::resnet18(10), "ResNet-18"),
        Some("vgg16") | Some("vgg-16") => (hd_dnn::zoo::vgg16(10), "VGG-16"),
        _ => return None,
    };
    let profile = hd_dnn::prune::paper_profile(&net);
    let mask = hd_dnn::prune::random_mask(&net, &profile, seed ^ 0xBEEF);
    let params = Params::init_masked(&net, seed, Some(&mask));
    Some((Device::new(net, params, AccelConfig::eyeriss_v2()), name))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: huffduff <steal|trace|analyze|demo> [--model vgg-s|resnet18|vgg16] [--seed N] [--out f] [--input f]"
    );
    ExitCode::FAILURE
}

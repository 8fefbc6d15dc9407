//! Bench for E7 (Figure 5, eps = 32): prints the fast-scale transfer
//! figure and times a single BIM crafting step.

use hd_adversarial::{bim, BimConfig, Epsilon};
use hd_bench::experiments::{fig5_fig6_transfer, prepare_models};
use hd_bench::harness;
use hd_bench::Scale;

fn main() {
    let prepared = prepare_models(Scale::Smoke, 42);
    println!("{}", fig5_fig6_transfer(&prepared, Epsilon::fig5()));

    let (net, params) = (&prepared.victim.0, &prepared.victim.1);
    let img = &prepared.transfer_images[0];
    let cfg = BimConfig {
        steps: 2,
        ..BimConfig::for_epsilon(Epsilon::fig5())
    };
    harness::report("bim_2_steps_mini_vgg", 10, || {
        bim(net, params, std::hint::black_box(img), 3, &cfg)
    });
}

//! Bench for E8 (Figure 6, eps = 16): prints the fast-scale transfer
//! figure at the imperceptible budget and times targeted FGSM.

use hd_adversarial::{fgsm, Epsilon};
use hd_bench::experiments::{fig5_fig6_transfer, prepare_models};
use hd_bench::harness;
use hd_bench::Scale;

fn main() {
    let prepared = prepare_models(Scale::Smoke, 42);
    println!("{}", fig5_fig6_transfer(&prepared, Epsilon::fig6()));

    let (net, params) = (&prepared.victim.0, &prepared.victim.1);
    let img = &prepared.transfer_images[0];
    harness::report("fgsm_mini_vgg", 10, || {
        fgsm(net, params, std::hint::black_box(img), 3, Epsilon::fig6())
    });
}

//! Bench for E6 (Figure 4): prints the fast-scale accuracy figure and
//! times one candidate training epoch.

use hd_bench::experiments::{fig4_accuracy, prepare_models};
use hd_bench::harness;
use hd_bench::Scale;
use hd_dnn::data::SyntheticImages;
use hd_dnn::graph::Params;
use hd_dnn::train::{train, TrainConfig};

fn main() {
    let prepared = prepare_models(Scale::Smoke, 42);
    println!("{}", fig4_accuracy(&prepared));

    let gen = SyntheticImages::cifar_like(1);
    let data = gen.dataset(16, 0);
    let net = hd_dnn::zoo::vgg_s_scaled(10, 0.0625);
    harness::report("mini_vgg_train_epoch_16imgs", 10, || {
        let mut params = Params::init(&net, 2);
        train(
            &net,
            &mut params,
            std::hint::black_box(&data),
            &TrainConfig {
                epochs: 1,
                lr: 0.01,
                momentum: 0.9,
                weight_decay: 0.0,
                lr_decay: 1.0,
            },
            None,
        )
    });
}

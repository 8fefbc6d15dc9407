use hd_accel::{AccelConfig, Device};
use hd_dnn::graph::Params;
use huffduff_core::eval::score_geometry;
use huffduff_core::prober::{probe, ProberConfig};

fn victim(net: hd_dnn::graph::Network, seed: u64) -> Device {
    let mut params = Params::init(&net, seed);
    let profile = hd_dnn::prune::paper_profile(&net);
    hd_dnn::prune::apply_sparsity_profile(&net, &mut params, &profile, seed ^ 7);
    Device::new(net, params, AccelConfig::eyeriss_v2())
}

#[test]
#[ignore]
fn vgg_s_geometry() {
    let net = hd_dnn::zoo::vgg_s(10);
    let dev = victim(net.clone(), 3);
    #[expect(clippy::disallowed_methods, reason = "prints wall time only")]
    let t0 = std::time::Instant::now();
    let res = probe(&dev, &ProberConfig::default()).unwrap();
    println!("vgg probe took {:?} ({} runs)", t0.elapsed(), res.runs_used);
    println!("{}", res.report());
    let score = score_geometry(&net, &res);
    println!(
        "score: {}/{} mismatches {:?}",
        score.correct, score.total, score.mismatches
    );
}

#[test]
#[ignore]
fn resnet18_geometry() {
    let net = hd_dnn::zoo::resnet18(10);
    let dev = victim(net.clone(), 4);
    #[expect(clippy::disallowed_methods, reason = "prints wall time only")]
    let t0 = std::time::Instant::now();
    let res = probe(&dev, &ProberConfig::default()).unwrap();
    println!(
        "resnet probe took {:?} ({} runs)",
        t0.elapsed(),
        res.runs_used
    );
    println!("{}", res.report());
    let score = score_geometry(&net, &res);
    println!(
        "score: {}/{} mismatches {:?}",
        score.correct, score.total, score.mismatches
    );
}

//! Bench for E1 (Table 1): prints the fast-scale table and times the
//! dense ReverseCNN constraint solver on a recorded trace analysis.

use hd_bench::harness;
use hd_bench::{experiments::table1, Scale};
use hd_dnn::graph::Params;
use hd_tensor::{CompressionScheme, Tensor3};
use huffduff_core::reversecnn::{reverse_cnn_dense, DenseCodec, SearchSpace};

fn main() {
    println!("{}", table1(Scale::Fast));

    let net = hd_dnn::zoo::resnet18(10);
    let params = Params::init(&net, 1);
    let cfg = hd_accel::AccelConfig::eyeriss_v2()
        .with_schemes(CompressionScheme::Dense, CompressionScheme::Dense);
    let device = hd_accel::Device::new(net, params, cfg);
    let analysis = hd_trace::analyze(&device.run(&Tensor3::full(3, 32, 32, 0.5))).unwrap();

    harness::report("reversecnn_dense_resnet18", 10, || {
        reverse_cnn_dense(
            std::hint::black_box(&analysis),
            (32, 32, 3),
            &SearchSpace::default(),
            &DenseCodec::default(),
        )
    });
}

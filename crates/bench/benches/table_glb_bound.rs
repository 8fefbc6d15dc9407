//! Bench for E4 (§8.2 encoder table): prints the bandwidth-multiplier
//! table and times the encode-timing model sweep.

use hd_bench::harness;
use hd_bench::victims::{paper_victim, Model};
use hd_bench::{experiments::glb_bound_table, Scale};
use hd_tensor::Tensor3;

fn main() {
    println!("{}", glb_bound_table(Scale::Fast));
    let (device, _) = paper_victim(Model::ResNet18, 5);
    let image = Tensor3::full(3, 32, 32, 0.4);
    harness::report("resnet18_encode_timings", 10, || {
        device.encode_timings(std::hint::black_box(&image))
    });
}

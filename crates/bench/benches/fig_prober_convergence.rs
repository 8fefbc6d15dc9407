//! Bench for E3 (§8.2 prober): prints the fast-scale recovery table and
//! times one probe inference + trace analysis on the VGG-S victim.

use hd_bench::harness;
use hd_bench::victims::{paper_victim, Model};
use hd_bench::{experiments::prober_table, Scale};
use huffduff_core::probe::stripe_probes;

fn main() {
    println!("{}", prober_table(Scale::Fast));

    let (device, _) = paper_victim(Model::VggS, 3);
    let fam = &stripe_probes(device.input_shape(), 4, 1, 9)[0];
    harness::report("vgg_probe_run_and_analyze", 10, || {
        let trace = device.run(std::hint::black_box(&fam.images[2]));
        hd_trace::analyze(&trace).unwrap()
    });
}

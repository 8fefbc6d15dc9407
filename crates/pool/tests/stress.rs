//! Repeated-schedule stress tests for [`hd_pool::try_map`].
//!
//! `try_map` promises the serial loop's result for *every* interleaving.
//! One run explores only the schedule the host happens to produce, so
//! these tests repeat a skewed task set 32 times at 1 to 8 workers and pin
//! three contracts against the serial reference:
//!
//! 1. the results are bit-identical to the serial loop,
//! 2. the error that surfaces is the *lowest* failing index, whichever
//!    task failed first in time,
//! 3. a full [`huffduff_core::prober::probe`] campaign at
//!    `parallelism: Some(8)` equals the one at `Some(1)`.

use hd_accel::{AccelConfig, Device};
use hd_dnn::graph::{NetworkBuilder, Params};
use hd_pool::try_map;
use huffduff_core::prober::{probe, ProberConfig};

const REPS: usize = 32;

/// Skewed floating-point work: enough iterations that tasks genuinely
/// overlap, skewed by index so the claim order differs from the finish
/// order (the case index-at-a-time claiming exists for).
fn skewed_task(i: usize) -> f64 {
    let mut acc = i as f64;
    let rounds = 200 + (i % 7) * 400;
    for k in 0..rounds {
        acc = (acc * 1.000_000_1 + k as f64).sin();
    }
    acc
}

#[test]
fn results_are_bit_identical_to_serial_32_times_at_1_to_8_workers() {
    let n = 64;
    let serial: Vec<u64> = (0..n).map(|i| skewed_task(i).to_bits()).collect();
    for rep in 0..REPS {
        for workers in 1..=8 {
            let par = try_map(n, workers, |i| Ok::<_, ()>(skewed_task(i).to_bits()));
            assert_eq!(par, Ok(serial.clone()), "rep {rep}, workers {workers}");
        }
    }
}

#[test]
fn the_lowest_failing_index_surfaces_32_times_at_1_to_8_workers() {
    let n = 48;
    let fail_from = 17;
    for rep in 0..REPS {
        for workers in 1..=8 {
            // Failing tasks skip the work, so in time a higher index often
            // fails while a lower one is still running.
            let got = try_map(n, workers, |i| {
                if i >= fail_from {
                    Err(i)
                } else {
                    Ok(skewed_task(i).to_bits())
                }
            });
            assert_eq!(got, Err(fail_from), "rep {rep}, workers {workers}");
        }
    }
}

#[test]
fn prober_result_at_8_workers_equals_serial() {
    let mut b = NetworkBuilder::new(3, 16, 16);
    let x = b.input();
    b.conv(x, 8, 3, 1);
    let net = b.build();
    let mut params = Params::init(&net, 5);
    let profile = hd_dnn::prune::paper_profile(&net);
    hd_dnn::prune::apply_sparsity_profile(&net, &mut params, &profile, 4);
    let dev = Device::new(net, params, AccelConfig::eyeriss_v2());
    let cfg = ProberConfig {
        shifts: 12,
        max_probes: 6,
        stable_probes: 2,
        kernels: vec![1, 3, 5],
        strides: vec![1, 2],
        pools: vec![2],
        seed: 99,
        parallelism: Some(1),
    };
    let reference = probe(&dev, &cfg).expect("serial probe");
    let parallel = cfg.clone().with_parallelism(Some(8));
    for rep in 0..REPS {
        assert_eq!(
            probe(&dev, &parallel).expect("parallel probe"),
            reference,
            "rep {rep}"
        );
    }
}

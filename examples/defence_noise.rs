//! Defence sketch from paper §9.2: the victim randomly leaves zeros
//! uncompressed so output transfer volumes carry per-run noise, and the
//! boundary-effect patterns blur.
//!
//! This example wraps the device in a noisy probe target and shows how the
//! prober's geometry recovery degrades as the noise amplitude grows — and
//! what the defence costs in extra transfer volume.
//!
//! ```text
//! cargo run --release --example defence_noise                 # the sweep
//! cargo run --release --example defence_noise -- -o obs.json  # + telemetry
//! cargo run --release --example defence_noise -- --help       # all options
//! ```
//!
//! The sweep itself always probes serially (the injected noise stream is
//! consumed in probe order), so `-j` is accepted but ignored here.

#[path = "common/cli.rs"]
#[expect(
    dead_code,
    reason = "the sweep skips the pruning and precision helpers"
)]
mod cli;

use huffduff::prelude::*;
use huffduff_core::eval::score_geometry;
use huffduff_core::prober::{probe, ProberConfig};
use huffduff_core::{Observation, ObservationModel, ObserveError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// A device whose output tensors are padded with a random number of
/// uncompressed zeros per run (volume-channel noise injection).
///
/// `ObservationModel: Sync` (the prober may fan probes across threads), so
/// the noise RNG sits behind a `Mutex` rather than a `RefCell`. This model
/// is intentionally schedule-dependent — the example probes it serially.
struct NoisyDevice {
    inner: Device,
    noise_bytes: u64,
    rng: Mutex<StdRng>,
}

impl ObservationModel for NoisyDevice {
    fn input_shape(&self) -> hd_tensor::Shape3 {
        self.inner.input_shape()
    }

    fn observe(&self, image: &Tensor3) -> Result<Observation, ObserveError> {
        let mut trace = self.inner.run(image);
        if self.noise_bytes > 0 {
            let mut rng = self.rng.lock().expect("noise RNG lock");
            for i in 0..trace.events.len() {
                let e = trace.events[i];
                if e.kind != hd_accel::AccessKind::Write {
                    continue;
                }
                let stream_ends = trace.events.get(i + 1).is_none_or(|n| {
                    n.kind != hd_accel::AccessKind::Write || n.addr != e.addr + e.bytes
                });
                if stream_ends {
                    trace.events[i].bytes += rng.gen_range(0..=self.noise_bytes);
                }
            }
        }
        Ok(Observation::from_trace(hd_trace::analyze(&trace)?))
    }
}

fn main() {
    let args = cli::CliArgs::parse("defence_noise");

    // A small victim so the sweep stays quick.
    let mut b = hd_dnn::graph::NetworkBuilder::new(3, 16, 16);
    let x = b.input();
    let x = b.conv(x, 8, 5, 1);
    let x = b.max_pool(x, 2);
    let x = b.conv(x, 16, 3, 1);
    b.conv(x, 16, 3, 1);
    let net = b.build();
    let mut params = hd_dnn::graph::Params::init(&net, 4);
    let profile = hd_dnn::prune::SparsityProfile {
        targets: net
            .weighted_nodes()
            .iter()
            .enumerate()
            .map(|(pos, &id)| (id, if pos == 0 { 0.45 } else { 0.75 }))
            .collect(),
    };
    hd_dnn::prune::apply_sparsity_profile(&net, &mut params, &profile, 5);

    let accel = AccelConfig::eyeriss_v2().with_conv_backend(args.backend_or_default());

    cli::obs_begin(&args);
    println!("noise(B)  probes  geometry-exact");
    for noise in [0u64, 2, 8, 32, 128] {
        let target = NoisyDevice {
            inner: Device::new(net.clone(), params.clone(), accel.clone()),
            noise_bytes: noise,
            rng: Mutex::new(StdRng::seed_from_u64(noise ^ 0xD1CE)),
        };
        let cfg = ProberConfig {
            shifts: 12,
            max_probes: 12,
            stable_probes: 3,
            kernels: vec![1, 3, 5],
            strides: vec![1, 2],
            pools: vec![2, 3],
            seed: 31,
            // The injected noise stream is consumed in probe order, so
            // keep this target on the serial path for reproducibility.
            parallelism: Some(1),
        };
        let res = probe(&target, &cfg).expect("probe runs");
        let score = score_geometry(&net, &res);
        println!(
            "{noise:>8}  {:>6}  {}/{}",
            res.probes_used, score.correct, score.total
        );
    }
    cli::obs_finish(&args);
    println!();
    println!("volume noise violates the one-sided-error assumption: patterns");
    println!("that should merge get split, so more probes make things worse,");
    println!("not better. The paper (§9.2) notes a real defence would need to");
    println!("randomize consistently against repeated trials — and pays DRAM");
    println!("bandwidth for every padded zero.");
}

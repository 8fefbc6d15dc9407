//! # HuffDuff core — the attack itself
//!
//! Reproduction of the HuffDuff attack (ASPLOS 2023): reverse-engineering a
//! pruned CNN's architecture from a sparse accelerator's DRAM-bus side
//! channels.
//!
//! Pipeline (mirroring the paper):
//!
//! 1. [`probe`] (module [`probe`]) crafts stripe images that slide a
//!    feature across the input;
//! 2. [`prober`] measures per-layer output transfer volumes, forms
//!    [`pattern::Pattern`]s over probe shifts, and matches them against the
//!    [`symbolic`] engine's predictions to recover kernel sizes, strides,
//!    pooling factors, and the dataflow graph;
//! 3. [`timing`] reads the psum-encoding window of each layer (GLB-bound on
//!    Eyeriss-v2-class devices) to recover channel-count ratios;
//! 4. [`solution`] bounds the first layer's channel count from its
//!    compressed weight footprint and the empirical ≤60% first-layer
//!    sparsity, producing fewer than ~100 concrete candidates that
//!    [`solution::SolutionSpace::build_network`] turns into trainable
//!    networks;
//! 5. [`reversecnn`] implements the dense-case baseline and the naive
//!    sparse bound of Table 1, and [`boundary_obs`] the §5.2 Monte-Carlo.
//!
//! [`attack::run`] chains stages 1–4 end to end. [`eval`] scores results
//! against ground truth (evaluation harnesses only).
//!
//! # Examples
//!
//! ```no_run
//! use hd_accel::{AccelConfig, Device};
//! use hd_dnn::{graph::Params, zoo};
//! use huffduff_core::attack::{run, AttackConfig};
//!
//! let net = zoo::resnet18(10);
//! let mut params = Params::init(&net, 1);
//! let profile = hd_dnn::prune::paper_profile(&net);
//! hd_dnn::prune::apply_sparsity_profile(&net, &mut params, &profile, 2);
//! let device = Device::new(net, params, AccelConfig::eyeriss_v2());
//!
//! let outcome = run(&device, &AttackConfig::default()).unwrap();
//! println!("{}", outcome.report());
//! let space = outcome.space.as_ref().unwrap();
//! for candidate in space.sample(8, 42) {
//!     let _net = space.build_network(&candidate);
//!     // retrain, evaluate, mount follow-up attacks…
//! }
//! ```
//!
//! Everything the attack learns flows through an observation channel
//! ([`channel::ObservationModel`]): the full trace+timing channel of the
//! paper, or restricted ones (trace-only, timing-only, GEMM dimensions)
//! for comparing attacker capability against defences.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod attack;
pub mod boundary_obs;
pub mod channel;
pub mod eval;
pub mod pattern;
pub mod probe;
pub mod prober;
pub mod reversecnn;
pub mod solution;
pub mod symbolic;
pub mod timing;

pub use attack::{run, AttackConfig, AttackError, AttackOutcome};
pub use channel::{ChannelKind, LayerEvidence, Observation, ObservationModel, ObserveError};
pub use pattern::Pattern;
pub use prober::{probe as run_prober, ConfigError, LayerKind, ProberConfig, ProberResult};
pub use solution::{CandidateArch, CodecModel, SolutionSpace};
pub use timing::ChannelRatios;

//! # HuffDuff — stealing pruned DNNs from sparse accelerators
//!
//! Umbrella crate for the HuffDuff reproduction (ASPLOS 2023). It re-exports
//! the workspace crates so examples and downstream users can depend on a
//! single crate:
//!
//! * [`num`] — big integers and solution-space counting,
//! * [`tensor`] — dense tensors, conv/pool/norm kernels, transfer codecs,
//! * [`dnn`] — the victim CNN framework (graph, training, pruning, zoo),
//! * [`accel`] — the sparse-accelerator + DRAM simulator (the victim device),
//! * [`trace`] — attacker-side DRAM-trace analysis,
//! * [`attack_crate`] (re-export of `huffduff_core`) — the attack itself
//!   plus the ReverseCNN baseline,
//! * [`adversarial`] — FGSM/BIM and black-box transfer evaluation.
//!
//! # Quickstart
//!
//! ```no_run
//! use huffduff::prelude::*;
//!
//! // Build a pruned victim and seal it inside the simulated device.
//! let victim = hd_dnn::zoo::vgg_s(10);
//! let mut params = hd_dnn::graph::Params::init(&victim, 42);
//! hd_dnn::prune::apply_sparsity_profile(&victim, &mut params, &hd_dnn::prune::paper_profile(&victim), 7);
//! let device = hd_accel::Device::new(victim, params, hd_accel::AccelConfig::eyeriss_v2());
//!
//! // Run the attack end to end.
//! let recovered = huffduff_core::attack::run(&device, &huffduff_core::attack::AttackConfig::default())
//!     .expect("attack completes");
//! println!("{}", recovered.report());
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use hd_accel as accel;
pub use hd_adversarial as adversarial;
pub use hd_dnn as dnn;
pub use hd_num as num;
pub use hd_obs as obs;
pub use hd_tensor as tensor;
pub use hd_trace as trace;
pub use huffduff_core as attack_crate;

/// Convenient glob-import surface for examples.
pub mod prelude {
    pub use hd_accel::{self, AccelConfig, Device};
    pub use hd_adversarial::{self};
    pub use hd_dnn::{self};
    pub use hd_num::{BigUint, LogCount};
    pub use hd_obs::{self};
    pub use hd_tensor::{self, Tensor3, Tensor4};
    pub use hd_trace::{self};
    pub use huffduff_core::{self};
}

//! Sparse-accelerator + DRAM simulator (the paper's victim device).
//!
//! Models an Eyeriss-v2-class edge accelerator executing a pruned CNN
//! layerwise with two-sided sparsity:
//!
//! * weights and activations cross the DRAM bus *compressed*
//!   ([`hd_tensor::CompressionScheme`]),
//! * dense partial sums are drained through an on-the-fly encoder whose
//!   timing is bounded by the GLB or the DRAM side ([`encoder`]),
//! * every bus burst is visible to a physical probe as a [`TraceEvent`] —
//!   the attacker's entire view of the system.
//!
//! # Examples
//!
//! ```
//! use hd_accel::{AccelConfig, Device};
//! use hd_dnn::graph::{NetworkBuilder, Params};
//! use hd_tensor::Tensor3;
//!
//! let mut b = NetworkBuilder::new(1, 8, 8);
//! let x = b.input();
//! b.conv(x, 4, 3, 1);
//! let net = b.build();
//! let params = Params::init(&net, 0);
//! let device = Device::new(net, params, AccelConfig::eyeriss_v2());
//! let trace = device.run(&Tensor3::full(1, 8, 8, 0.5));
//! assert!(!trace.is_empty());
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod config;
pub mod defence;
pub mod device;
pub mod encoder;
pub mod energy;
pub mod pipeline;
pub mod trace_event;

pub use config::{AccelConfig, ConfigError, DramConfig, DramKind, Precision};
pub use defence::Defence;
pub use device::{Device, DeviceError, Oracle};
pub use encoder::{encode_timing, EncodeBound, EncodeTiming};
pub use energy::{EnergyModel, EnergyReport};
pub use pipeline::{simulate_drain, PipelineResult};
pub use trace_event::{AccessKind, Trace, TraceEvent, TraceSink, Transfer};

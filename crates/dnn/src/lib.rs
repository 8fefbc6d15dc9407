//! CNN framework for the HuffDuff reproduction.
//!
//! This crate replaces the PyTorch + TorchVision stack the paper used:
//!
//! * [`graph`] — a small dataflow-graph CNN representation with explicit
//!   layer geometry (the quantities the attacker tries to recover), plus
//!   forward execution,
//! * [`train`] — reverse-mode differentiation over the graph, softmax
//!   cross-entropy, and SGD with momentum,
//! * [`prune`] — magnitude pruning, lottery-ticket-style iterative pruning,
//!   and synthetic per-layer sparsity profiles matching the paper's victims,
//! * [`zoo`] — VGG-S, ResNet-18, AlexNet, and MobileNetV2 CIFAR-scale
//!   topologies (full-size and width-scaled "mini" variants),
//! * [`data`] — a deterministic synthetic image-classification dataset
//!   standing in for CIFAR-10 (see DESIGN.md "Substitutions").
//!
//! # Examples
//!
//! ```
//! use hd_dnn::graph::{NetworkBuilder, Params};
//! use hd_tensor::Tensor3;
//!
//! let mut b = NetworkBuilder::new(3, 8, 8);
//! let x = b.input();
//! let x = b.conv(x, 4, 3, 1);
//! let x = b.max_pool(x, 2);
//! let x = b.global_avg_pool(x);
//! let _logits = b.linear(x, 10);
//! let net = b.build();
//!
//! let params = Params::init(&net, 1);
//! let out = net.forward(&params, &Tensor3::zeros(3, 8, 8));
//! assert_eq!(out.logits().len(), 10);
//! ```

pub mod data;
pub mod graph;
pub mod prune;
pub mod quantize;
pub mod sparse_forward;
pub mod train;
pub mod verify;
pub mod zoo;

pub use graph::{ConvSpec, Network, NetworkBuilder, NodeId, Op, Params};
pub use sparse_forward::{ForwardCache, SpanTrace};

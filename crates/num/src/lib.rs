//! Numeric substrate for the HuffDuff reproduction.
//!
//! Candidate-architecture counts in the paper reach magnitudes like
//! `4 x 10^96` (Table 1), far beyond `u128`. This crate provides:
//!
//! * [`BigUint`] — a small arbitrary-precision unsigned integer, sufficient
//!   for exact solution-space products,
//! * [`LogCount`] — a log10-domain counter that stays exact for small counts
//!   and degrades gracefully to floating point for astronomical ones,
//! * [`stats`] — running mean/variance and histogram helpers used by the
//!   experiment harness.
//!
//! # Examples
//!
//! ```
//! use hd_num::BigUint;
//!
//! let mut n = BigUint::from(1u64);
//! for _ in 0..96 {
//!     n = &n * &BigUint::from(10u64);
//! }
//! assert_eq!(n.approx_log10().round() as i64, 96);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod biguint;
pub mod logcount;
pub mod stats;

pub use biguint::BigUint;
pub use logcount::LogCount;
pub use stats::{Histogram, RunningStats};

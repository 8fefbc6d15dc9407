//! Tensor substrate for the HuffDuff reproduction.
//!
//! Provides the dense tensor types and numeric kernels used by the victim
//! CNN (`hd-dnn`) and the sparse transfer encodings used by the
//! accelerator simulator (`hd-accel`):
//!
//! * [`Tensor3`] — a single-sample activation map in `C x H x W` layout,
//! * [`Tensor4`] — a convolution weight tensor in `K x C x R x S` layout,
//! * [`conv`], [`pool`], [`norm`] — forward kernels; dense convolutions run
//!   on the [`im2col`] + blocked-[`gemm`] backend, sparse ones on the
//!   output-stationary [`csc_conv`] kernel (chosen from the operands, both
//!   bit-identical to [`conv::conv2d_reference`] by construction),
//! * [`sparse`] — bitmap / run-length / CSC transfer codecs that determine
//!   exactly how many bytes cross the DRAM bus for a given tensor.
//!
//! All kernels are deterministic; the GEMM backend keeps CIFAR-scale probe
//! campaigns fast without perturbing a single output bit.
//!
//! # Examples
//!
//! ```
//! use hd_tensor::{Tensor3, Tensor4, conv::{conv2d, Conv2dCfg, Padding}};
//!
//! let input = Tensor3::zeros(3, 8, 8);
//! let weight = Tensor4::zeros(16, 3, 3, 3);
//! let out = conv2d(&input, &weight, None, &Conv2dCfg::new(1, Padding::Same));
//! assert_eq!((out.c(), out.h(), out.w()), (16, 8, 8));
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cast;
pub mod colspan;
pub mod conv;
pub mod csc_conv;
pub mod dwconv;
pub mod gemm;
pub mod huffman;
pub mod im2col;
pub mod norm;
pub mod pool;
pub mod qconv;
pub mod qtensor;
pub mod shape;
// Only the x86-64 and aarch64 bodies hold `unsafe`; on any other target
// the module is safe Rust and an unconditional expectation would go
// unfulfilled. Only x86_64 is built and linted here: no other target is
// installed on the recording hosts.
#[cfg_attr(
    any(target_arch = "x86_64", target_arch = "aarch64"),
    expect(
        unsafe_code,
        reason = "the SIMD kernels' raw-pointer loads and stores cannot be written in safe Rust; every block carries a SAFETY: comment"
    )
)]
pub mod simd;
pub mod sparse;
pub mod tensor;

pub use colspan::ColSpan;
pub use conv::{BackendPolicy, ConvBackend};
pub use csc_conv::SparseFilters;
pub use im2col::{gemm_call_dims, GemmShape};
pub use qtensor::{QTensor3, QTensor4, QuantParams};
pub use shape::Shape3;
pub use sparse::{CompressionScheme, EncodedSize};
pub use tensor::{Tensor3, Tensor4};

/// Tolerance below which an activation value counts as zero for nnz purposes.
///
/// The accelerator's post-processing unit quantizes activations before
/// compressing them, so exact floating-point zero testing is appropriate for
/// post-ReLU values; a small epsilon guards against `-0.0` and denormals.
pub const ZERO_EPS: f32 = 1e-12;

/// Whether `v` counts as non-zero under [`ZERO_EPS`].
///
/// Compares the bits of `|v|`, so every NaN (either sign, any payload)
/// and both infinities count as nonzero. Transfer sizes therefore never
/// depend on which NaN a kernel produced (see the exception to the
/// bit-identity contract in [`simd`]).
#[inline]
pub fn is_nonzero(v: f32) -> bool {
    v.to_bits() & 0x7FFF_FFFF > ZERO_EPS.to_bits()
}

/// Counts the non-zero entries of a slice ([`is_nonzero`]).
pub fn nnz(values: &[f32]) -> usize {
    values.iter().filter(|&&v| is_nonzero(v)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nnz_ignores_negative_zero_and_denormals() {
        assert_eq!(nnz(&[0.0, -0.0, 1e-30, 1.0, -2.0]), 2);
    }

    #[test]
    fn every_nan_and_infinity_counts_as_nonzero() {
        // AVX2 and scalar `sparse_conv_layer` may disagree on a NaN's sign
        // or payload bits; counted as one class, their maps have the same
        // nnz and so the same transfer sizes.
        let nans = [
            0x7FC0_0000u32,
            0xFFC0_0000,
            0x7F80_0001,
            0xFF80_0001,
            0x7FFF_FFFF,
            0xFFFF_FFFF,
        ]
        .map(f32::from_bits);
        for v in nans {
            assert!(v.is_nan() && is_nonzero(v), "{:#010x}", v.to_bits());
        }
        assert_eq!(nnz(&nans), nans.len());
        assert!(is_nonzero(f32::INFINITY) && is_nonzero(f32::NEG_INFINITY));
        assert_eq!(
            nnz(&[0.0, f32::NAN, -0.0, -f32::NAN, 1e-30, f32::MIN_POSITIVE]),
            2
        );
    }

    #[test]
    fn nnz_empty() {
        assert_eq!(nnz(&[]), 0);
    }
}

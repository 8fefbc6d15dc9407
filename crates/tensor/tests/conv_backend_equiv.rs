//! Differential tests of the `Im2colGemm` and `SparseCsc` convolution
//! backends against the `conv2d_reference` oracle: random shapes, strides,
//! paddings, bias on/off, and pruned weights, plus the edge cases that
//! historically break im2col implementations (1x1 kernels, stride >
//! kernel, inputs smaller than the kernel, zero-dimensional `Valid`
//! outputs).
//!
//! `SparseCsc` replays the reference's tap order exactly, so it is held to
//! the stronger standard: bit-identical to the oracle on *every* case here,
//! not just the integer-valued ones.

use hd_tensor::conv::{
    conv2d, conv2d_reference, conv2d_weight_grad, conv2d_weight_grad_reference, conv_out_dim,
    Conv2dCfg, ConvBackend, Padding,
};
use hd_tensor::im2col::conv2d_im2col_gemm;
use hd_tensor::{Tensor3, Tensor4};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dense strictly-positive tensor: keeps `conv2d` off the sparse kernel
/// (for dense weights) so the GEMM backend actually runs.
fn dense_tensor(seed: u64, c: usize, h: usize, w: usize) -> Tensor3 {
    let mut t = Tensor3::zeros(c, h, w);
    let mut rng = StdRng::seed_from_u64(seed);
    t.fill_uniform(&mut rng, 0.05, 1.0);
    t
}

fn random_weights(seed: u64, k: usize, c: usize, kernel: usize) -> Tensor4 {
    let mut w = Tensor4::zeros(k, c, kernel, kernel);
    w.init_he(&mut StdRng::seed_from_u64(seed));
    w
}

/// Runs the same convolution on the oracle and both backends. The sparse
/// kernel's result must be bit-identical to the oracle (same tap order by
/// construction); the pair returned is left for the caller's
/// oracle-vs-GEMM tolerance check.
fn run_both(
    x: &Tensor3,
    w: &Tensor4,
    bias: Option<&[f32]>,
    stride: usize,
    padding: Padding,
) -> (Tensor3, Tensor3) {
    let cfg = Conv2dCfg::new(stride, padding);
    let reference = conv2d_reference(x, w, bias, &cfg);
    let gemm = conv2d(x, w, bias, &cfg.with_backend(ConvBackend::Im2colGemm));
    let sparse = conv2d(x, w, bias, &cfg.with_backend(ConvBackend::SparseCsc));
    assert_eq!(reference.shape(), gemm.shape(), "backend shapes diverge");
    assert_eq!(reference.shape(), sparse.shape(), "backend shapes diverge");
    for (a, b) in reference.data().iter().zip(sparse.data()) {
        assert!(
            a.to_bits() == b.to_bits(),
            "SparseCsc not bit-identical to the reference: {a} vs {b}"
        );
    }
    (reference, gemm)
}

fn assert_close(reference: &[f32], gemm: &[f32]) {
    for (a, b) in reference.iter().zip(gemm) {
        assert!((a - b).abs() <= 1e-4 * (1.0 + a.abs()), "{a} vs {b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random shape/stride/padding/bias sweep: outputs agree within 1e-4.
    #[test]
    fn backends_agree_on_random_convs(
        seed in 0u64..10_000,
        in_c in 1usize..4,
        out_c in 1usize..6,
        h in 3usize..10,
        w in 3usize..10,
        kernel in 1usize..5,
        stride in 1usize..4,
        padding in prop_oneof![Just(Padding::Same), Just(Padding::Valid)],
        with_bias in 0u32..2,
    ) {
        let x = dense_tensor(seed, in_c, h, w);
        let wt = random_weights(seed ^ 0xBEEF, out_c, in_c, kernel);
        let bias: Option<Vec<f32>> = (with_bias == 1).then(|| {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB1A5);
            (0..out_c).map(|_| rng.gen_range(-1.0..1.0)).collect()
        });
        let (reference, gemm) = run_both(&x, &wt, bias.as_deref(), stride, padding);
        assert_close(reference.data(), gemm.data());
    }

    /// Pruned weights (random per-element and whole-filter pruning):
    /// the GEMM path's tap/row skipping must not change any output.
    #[test]
    fn backends_agree_on_pruned_weights(
        seed in 0u64..10_000,
        kernel in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
        stride in 1usize..3,
        keep_percent in 5u32..60,
    ) {
        let x = dense_tensor(seed, 3, 9, 9);
        let mut wt = random_weights(seed ^ 0xF00D, 6, 3, kernel);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E);
        for v in wt.data_mut().iter_mut() {
            if rng.gen_range(0u32..100) >= keep_percent {
                *v = 0.0;
            }
        }
        // Zero an entire output filter so the row-skip path triggers too.
        let per_filter = wt.len() / 6;
        for i in 0..per_filter {
            wt.data_mut()[2 * per_filter + i] = 0.0;
        }
        let (reference, gemm) = run_both(&x, &wt, Some(&[0.5, -0.5, 0.25, 0.0, 1.0, -1.0]), stride, Padding::Same);
        assert_close(reference.data(), gemm.data());
    }

    /// Integer-valued inputs and weights: every product and sum is exactly
    /// representable, so the backends must agree bit-for-bit.
    #[test]
    fn backends_exact_on_integer_inputs(
        seed in 0u64..10_000,
        kernel in 1usize..4,
        stride in 1usize..3,
        padding in prop_oneof![Just(Padding::Same), Just(Padding::Valid)],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor3::zeros(2, 7, 7);
        for v in x.data_mut().iter_mut() {
            *v = rng.gen_range(1u32..5) as f32; // dense, integral
        }
        let mut wt = Tensor4::zeros(4, 2, kernel, kernel);
        for v in wt.data_mut().iter_mut() {
            *v = rng.gen_range(0u32..5) as f32 - 2.0; // integral, with zeros
        }
        let bias = [1.0f32, -2.0, 0.0, 3.0];
        let (reference, gemm) = run_both(&x, &wt, Some(&bias), stride, padding);
        for (a, b) in reference.data().iter().zip(gemm.data()) {
            prop_assert!(a.to_bits() == b.to_bits(), "{a} vs {b} not exact");
        }
    }

    /// Stripe inputs (one nonzero column, the prober's probe shape) with
    /// pruned weights: the regime the sparse kernel exists for. The auto-routed
    /// sparse result must match the dense reference loop bit-for-bit, and agree
    /// with the GEMM kernel called past the dispatch.
    #[test]
    fn backends_agree_on_stripe_inputs_and_pruned_weights(
        seed in 0u64..10_000,
        col in 0usize..9,
        kernel in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
        stride in 1usize..3,
        keep_percent in 5u32..40,
        with_bias in 0u32..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor3::zeros(3, 9, 9);
        for c in 0..3 {
            for y in 0..9 {
                x.set(c, y, col, rng.gen_range(-1.0f32..1.0));
            }
        }
        let mut wt = random_weights(seed ^ 0x57A1, 6, 3, kernel);
        for v in wt.data_mut().iter_mut() {
            if rng.gen_range(0u32..100) >= keep_percent {
                *v = 0.0;
            }
        }
        let bias: Option<Vec<f32>> = (with_bias == 1).then(|| {
            (0..6).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
        });
        // Sparse stripe ⇒ the default cfg auto-routes onto the sparse kernel.
        let fast = conv2d(&x, &wt, bias.as_deref(), &Conv2dCfg::new(stride, Padding::Same));
        let reference = conv2d_reference(
            &x, &wt, bias.as_deref(), &Conv2dCfg::new(stride, Padding::Same));
        for (a, b) in fast.data().iter().zip(reference.data()) {
            prop_assert!(a.to_bits() == b.to_bits(), "sparse kernel {a} vs reference {b}");
        }
        // The GEMM kernel itself, called past the dispatch, on the sparse input.
        let gemm = conv2d_im2col_gemm(&x, &wt, bias.as_deref(),
            &Conv2dCfg::new(stride, Padding::Same).with_backend(ConvBackend::Im2colGemm));
        assert_close(reference.data(), gemm.data());
    }

    /// N:M-patterned weights (per-M-group along the input-channel axis at
    /// every fixed (k, r, s), keep the top-N magnitudes): the structured
    /// zero pattern the sparse-victim matrix deploys. Both backends must
    /// agree with the oracle, and SparseCsc stays bit-identical to it.
    #[test]
    fn backends_agree_on_nm_patterned_weights(
        seed in 0u64..10_000,
        n in 1usize..3,
        kernel in prop_oneof![Just(1usize), Just(3usize)],
        stride in 1usize..3,
        with_bias in 0u32..2,
    ) {
        let m = 4usize;
        let in_c = 8usize;
        let out_c = 5usize;
        let x = dense_tensor(seed, in_c, 9, 9);
        let mut wt = random_weights(seed ^ 0x24AA, out_c, in_c, kernel);
        // Impose the N:M pattern: zero everything but the top-N of each
        // M-group along C.
        for k in 0..out_c {
            for r in 0..kernel {
                for s in 0..kernel {
                    for c0 in (0..in_c).step_by(m) {
                        let mut group: Vec<usize> = (c0..(c0 + m).min(in_c))
                            .map(|c| wt.index(k, c, r, s))
                            .collect();
                        group.sort_by(|&a, &b| {
                            wt.data()[b].abs().total_cmp(&wt.data()[a].abs())
                        });
                        for &i in group.iter().skip(n) {
                            wt.data_mut()[i] = 0.0;
                        }
                    }
                }
            }
        }
        let bias: Option<Vec<f32>> = (with_bias == 1).then(|| {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB1A5);
            (0..out_c).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
        });
        let (reference, gemm) = run_both(&x, &wt, bias.as_deref(), stride, Padding::Same);
        assert_close(reference.data(), gemm.data());
    }

    /// Channel-removed weights (the structured-pruning shapes): slicing
    /// output filters with `select_k` and input channels with `select_c`
    /// yields odd K/C combinations the backends rarely see; they must
    /// agree on all of them, with the sliced input channels removed from
    /// the image too.
    #[test]
    fn backends_agree_on_channel_removed_weights(
        seed in 0u64..10_000,
        kernel in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
        stride in 1usize..3,
        keep_k in 1usize..6,
        keep_c in 1usize..5,
    ) {
        let (out_c, in_c) = (6usize, 5usize);
        let wt = random_weights(seed ^ 0x5E1E, out_c, in_c, kernel);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0C0);
        let mut k_mask = vec![false; out_c];
        let mut c_mask = vec![false; in_c];
        for _ in 0..keep_k {
            k_mask[rng.gen_range(0..out_c)] = true;
        }
        for _ in 0..keep_c {
            c_mask[rng.gen_range(0..in_c)] = true;
        }
        // Always keep at least one of each axis.
        k_mask[0] = true;
        c_mask[0] = true;
        let wt = wt.select_k(&k_mask).select_c(&c_mask);
        let full = dense_tensor(seed, in_c, 8, 8);
        let mut x = Tensor3::zeros(wt.c(), 8, 8);
        let mut dst = 0;
        for (c, &keep) in c_mask.iter().enumerate() {
            if keep {
                for y in 0..8 {
                    for xx in 0..8 {
                        x.set(dst, y, xx, full.at(c, y, xx));
                    }
                }
                dst += 1;
            }
        }
        let (reference, gemm) = run_both(&x, &wt, None, stride, Padding::Same);
        assert_close(reference.data(), gemm.data());
    }

    /// The weight-gradient GEMM agrees with the reference loop; `SparseCsc`
    /// dispatches weight gradients to the GEMM path bit-for-bit.
    #[test]
    fn weight_grad_backends_agree(
        seed in 0u64..10_000,
        kernel in 1usize..4,
        stride in 1usize..3,
        padding in prop_oneof![Just(Padding::Same), Just(Padding::Valid)],
    ) {
        let x = dense_tensor(seed, 2, 8, 8);
        let oh = conv_out_dim(8, kernel, stride, padding);
        if oh > 0 {
            let g = dense_tensor(seed ^ 0x6AD, 3, oh, oh);
            let reference = conv2d_weight_grad_reference(&g, &x, (kernel, kernel),
                &Conv2dCfg::new(stride, padding));
            let gemm = conv2d_weight_grad(&g, &x, (kernel, kernel),
                &Conv2dCfg::new(stride, padding).with_backend(ConvBackend::Im2colGemm));
            let sparse = conv2d_weight_grad(&g, &x, (kernel, kernel),
                &Conv2dCfg::new(stride, padding).with_backend(ConvBackend::SparseCsc));
            assert_close(reference.data(), gemm.data());
            prop_assert_eq!(gemm.data(), sparse.data(), "SparseCsc grad must reuse the GEMM path");
        }
    }
}

// ---- Edge cases the property sweep surfaced, pinned as unit tests ----

#[test]
fn one_by_one_kernel_all_strides() {
    let x = dense_tensor(1, 3, 6, 6);
    let w = random_weights(2, 5, 3, 1);
    for stride in 1..=3 {
        for padding in [Padding::Same, Padding::Valid] {
            let (reference, gemm) = run_both(&x, &w, None, stride, padding);
            assert_close(reference.data(), gemm.data());
        }
    }
}

#[test]
fn stride_larger_than_kernel() {
    let x = dense_tensor(3, 2, 9, 9);
    let w = random_weights(4, 3, 2, 2);
    for padding in [Padding::Same, Padding::Valid] {
        let (reference, gemm) = run_both(&x, &w, Some(&[0.5, -0.5, 0.0]), 3, padding);
        assert_close(reference.data(), gemm.data());
    }
}

#[test]
fn input_smaller_than_kernel_same_padding() {
    // 2x2 input under a 5x5 kernel: every patch is mostly padding.
    let x = dense_tensor(5, 1, 2, 2);
    let w = random_weights(6, 2, 1, 5);
    let (reference, gemm) = run_both(&x, &w, Some(&[1.0, 2.0]), 1, Padding::Same);
    assert_eq!((gemm.h(), gemm.w()), (2, 2));
    assert_close(reference.data(), gemm.data());
}

#[test]
fn input_smaller_than_kernel_valid_is_empty() {
    // Valid padding cannot place the kernel at all: 0-dim output.
    let x = dense_tensor(7, 2, 3, 3);
    let w = random_weights(8, 3, 2, 4);
    let (reference, gemm) = run_both(&x, &w, None, 1, Padding::Valid);
    assert_eq!((reference.h(), reference.w()), (0, 0));
    assert_eq!((gemm.h(), gemm.w()), (0, 0));
}

#[test]
fn single_pixel_output_valid() {
    // Kernel exactly covers the input: one output pixel.
    let x = dense_tensor(9, 2, 3, 3);
    let w = random_weights(10, 4, 2, 3);
    let (reference, gemm) = run_both(&x, &w, Some(&[0.1, 0.2, 0.3, 0.4]), 1, Padding::Valid);
    assert_eq!((gemm.h(), gemm.w()), (1, 1));
    assert_close(reference.data(), gemm.data());
}

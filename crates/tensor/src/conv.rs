//! 2-D convolution kernels.
//!
//! The victim accelerators in the paper execute standard CNN convolutions
//! with symmetric square kernels, "same" zero padding being the common case
//! (paper §9.1). We implement both `Same` and `Valid` so the defence and
//! ablation studies can vary the padding mode.

use crate::{Tensor3, Tensor4};

/// Padding mode for [`conv2d`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Padding {
    /// Zero padding chosen so the output spatial size is `ceil(in/stride)`.
    Same,
    /// No padding; the kernel never leaves the input.
    Valid,
}

/// Compute backend used by [`conv2d`].
///
/// Both backends are bit-identical to [`conv2d_reference`] (see the
/// accumulation-order contracts in [`crate::gemm`] and
/// [`crate::csc_conv`]), so traces and timings derived from the outputs do
/// not depend on this choice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ConvBackend {
    /// im2col lowering + cache-blocked GEMM ([`crate::im2col`]) for dense
    /// inputs and weights; sparse inputs and sparse weights still take the
    /// output-stationary sparse kernel.
    #[default]
    Im2colGemm,
    /// Output-stationary sparse × sparse kernel over filter-major compacted
    /// weights ([`crate::csc_conv`]); devices additionally cache the weight
    /// compaction and track nonzero-column intervals across layers.
    SparseCsc,
}

impl ConvBackend {
    /// Parses a CLI-style backend name (`gemm` / `sparse`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "gemm" | "im2col" | "im2col-gemm" => Some(ConvBackend::Im2colGemm),
            "sparse" | "csc" | "sparse-csc" => Some(ConvBackend::SparseCsc),
            _ => None,
        }
    }
}

impl std::fmt::Display for ConvBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ConvBackend::Im2colGemm => "gemm",
            ConvBackend::SparseCsc => "sparse",
        })
    }
}

/// A map or weight tensor is sparse enough for the sparse kernel when
/// fewer than one in `SPARSE_DENSITY_DIVISOR` of its elements is nonzero
/// (`nnz * 8 < len`).
const SPARSE_DENSITY_DIVISOR: u64 = 8;

/// Whether a device routes sparse images to the cached sparse walk.
///
/// [`conv2d`] picks its kernel from the operands alone (see
/// `SPARSE_DENSITY_DIVISOR`); this policy is read only by the device,
/// which uses [`BackendPolicy::input_is_sparse`] on each image.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BackendPolicy {
    /// Whether a device may auto-upgrade sparse-input inferences to
    /// [`ConvBackend::SparseCsc`] (cached weight compaction + colspan
    /// interval tracking across layers).
    pub auto_sparse: bool,
}

impl Default for BackendPolicy {
    fn default() -> Self {
        BackendPolicy { auto_sparse: true }
    }
}

impl BackendPolicy {
    /// Whether an input map with `nnz` nonzeros out of `len` is sparse
    /// enough for the sparse kernel (probe images, deep post-ReLU maps).
    pub fn input_is_sparse(&self, nnz: usize, len: usize) -> bool {
        is_sparse(nnz, len)
    }
}

fn is_sparse(nnz: usize, len: usize) -> bool {
    (nnz as u64) * SPARSE_DENSITY_DIVISOR < len as u64
}

/// Convolution hyperparameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Conv2dCfg {
    /// Symmetric stride in both spatial dimensions.
    pub stride: usize,
    /// Padding mode.
    pub padding: Padding,
    /// Compute backend (does not affect results, only speed).
    pub backend: ConvBackend,
}

impl Conv2dCfg {
    /// Config with the default backend.
    pub fn new(stride: usize, padding: Padding) -> Self {
        Conv2dCfg {
            stride,
            padding,
            backend: ConvBackend::default(),
        }
    }

    /// Returns the config with `backend` selected.
    pub fn with_backend(mut self, backend: ConvBackend) -> Self {
        self.backend = backend;
        self
    }
}

impl Default for Conv2dCfg {
    fn default() -> Self {
        Conv2dCfg::new(1, Padding::Same)
    }
}

/// Output spatial size of a convolution along one dimension.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, padding: Padding) -> usize {
    match padding {
        Padding::Same => input.div_ceil(stride),
        Padding::Valid => {
            if input < kernel {
                0
            } else {
                (input - kernel) / stride + 1
            }
        }
    }
}

/// Left/top zero-padding amount for `Same` padding.
pub fn same_pad(input: usize, kernel: usize, stride: usize) -> usize {
    let out = input.div_ceil(stride);
    let total = ((out - 1) * stride + kernel).saturating_sub(input);
    total / 2
}

/// 2-D convolution: `out[k, p, q] = sum_{c,r,s} in[c, p*stride+r-pad, q*stride+s-pad] * w[k,c,r,s] (+ bias[k])`.
///
/// Zero-valued weights and activations are skipped, mirroring the
/// zero-skipping datapath of a two-sided sparse accelerator; the numeric
/// result is identical to the dense computation.
///
/// The kernel is chosen from the operands: a sparse input, sparse weights
/// or [`ConvBackend::SparseCsc`] take the output-stationary sparse kernel
/// ([`crate::csc_conv`]), and everything else im2col + GEMM. Both
/// accumulate in the order of [`conv2d_reference`], the test oracle.
///
/// # Panics
///
/// Panics if the weight input-channel count does not match the input tensor,
/// or if `stride == 0`.
///
/// # Examples
///
/// ```
/// use hd_tensor::{Tensor3, Tensor4};
/// use hd_tensor::conv::{conv2d, Conv2dCfg, Padding};
///
/// // 1x1 identity kernel leaves the input unchanged.
/// let x = Tensor3::from_vec(1, 1, 3, vec![1.0, 2.0, 3.0]);
/// let w = Tensor4::from_vec(1, 1, 1, 1, vec![1.0]);
/// let y = conv2d(&x, &w, None, &Conv2dCfg::new(1, Padding::Same));
/// assert_eq!(y.data(), x.data());
/// ```
pub fn conv2d(input: &Tensor3, weight: &Tensor4, bias: Option<&[f32]>, cfg: &Conv2dCfg) -> Tensor3 {
    assert!(cfg.stride > 0, "stride must be positive");
    assert_eq!(
        input.c(),
        weight.c(),
        "input channels {} do not match weight channels {}",
        input.c(),
        weight.c()
    );
    if let Some(b) = bias {
        assert_eq!(
            b.len(),
            weight.k(),
            "bias length must equal output channels"
        );
    }

    // Probe images and post-ReLU activations of pruned networks are mostly
    // zero, and paper victims sit near 99% weight sparsity. Either way the
    // output-stationary sparse kernel, whose cost is `out_pixels x nnz(W)`
    // over the nonzero-input columns, beats the blocked GEMM (whose cost
    // stays near-dense once most tap positions are live in *some* filter).
    // The SparseCsc backend takes this kernel unconditionally — that is
    // what it is.
    if cfg.backend == ConvBackend::SparseCsc
        || is_sparse(input.nnz(), input.shape().len())
        || is_sparse(weight.nnz(), weight.len())
    {
        return crate::csc_conv::conv2d_sparse_csc(input, weight, bias, cfg);
    }

    crate::im2col::conv2d_im2col_gemm(input, weight, bias, cfg)
}

/// The reference dense loop nest, with no dispatch: always computes
/// `out[k, p, q] = bias[k] + sum taps in ascending (c, r, s) order`. It is
/// the single forward oracle: every other kernel in the crate is tested
/// against this one.
pub fn conv2d_reference(
    input: &Tensor3,
    weight: &Tensor4,
    bias: Option<&[f32]>,
    cfg: &Conv2dCfg,
) -> Tensor3 {
    let out_h = conv_out_dim(input.h(), weight.r(), cfg.stride, cfg.padding);
    let out_w = conv_out_dim(input.w(), weight.s(), cfg.stride, cfg.padding);
    let (pad_y, pad_x) = match cfg.padding {
        Padding::Same => (
            same_pad(input.h(), weight.r(), cfg.stride),
            same_pad(input.w(), weight.s(), cfg.stride),
        ),
        Padding::Valid => (0, 0),
    };

    let mut out = Tensor3::zeros(weight.k(), out_h, out_w);
    for k in 0..weight.k() {
        let b = bias.map_or(0.0, |b| b[k]);
        for p in 0..out_h {
            for q in 0..out_w {
                let mut acc = b;
                for c in 0..input.c() {
                    for r in 0..weight.r() {
                        let iy = (p * cfg.stride + r) as isize - pad_y as isize;
                        if iy < 0 || iy >= input.h() as isize {
                            continue;
                        }
                        for s in 0..weight.s() {
                            let ix = (q * cfg.stride + s) as isize - pad_x as isize;
                            if ix < 0 || ix >= input.w() as isize {
                                continue;
                            }
                            let wv = weight.at(k, c, r, s);
                            if wv == 0.0 {
                                continue; // weight zero-skipping
                            }
                            let xv = input.at(c, iy as usize, ix as usize);
                            if xv == 0.0 {
                                continue; // activation zero-skipping
                            }
                            acc += wv * xv;
                        }
                    }
                }
                out.set(k, p, q, acc);
            }
        }
    }
    out
}

/// Gradient of a convolution with respect to its input (a.k.a. transposed
/// convolution of the upstream gradient with the flipped kernel). Used by the
/// training engine and by FGSM/BIM input-gradient computation.
pub fn conv2d_input_grad(
    grad_out: &Tensor3,
    weight: &Tensor4,
    input_shape: (usize, usize, usize),
    cfg: &Conv2dCfg,
) -> Tensor3 {
    let (in_c, in_h, in_w) = input_shape;
    assert_eq!(grad_out.c(), weight.k(), "grad channels must equal K");
    let (pad_y, pad_x) = match cfg.padding {
        Padding::Same => (
            same_pad(in_h, weight.r(), cfg.stride),
            same_pad(in_w, weight.s(), cfg.stride),
        ),
        Padding::Valid => (0, 0),
    };

    let mut grad_in = Tensor3::zeros(in_c, in_h, in_w);
    for k in 0..weight.k() {
        for p in 0..grad_out.h() {
            for q in 0..grad_out.w() {
                let g = grad_out.at(k, p, q);
                if g == 0.0 {
                    continue;
                }
                for c in 0..in_c {
                    for r in 0..weight.r() {
                        let iy = (p * cfg.stride + r) as isize - pad_y as isize;
                        if iy < 0 || iy >= in_h as isize {
                            continue;
                        }
                        for s in 0..weight.s() {
                            let ix = (q * cfg.stride + s) as isize - pad_x as isize;
                            if ix < 0 || ix >= in_w as isize {
                                continue;
                            }
                            let wv = weight.at(k, c, r, s);
                            if wv == 0.0 {
                                continue;
                            }
                            let idx = grad_in.shape().index(c, iy as usize, ix as usize);
                            grad_in.data_mut()[idx] += g * wv;
                        }
                    }
                }
            }
        }
    }
    grad_in
}

/// Gradient of a convolution with respect to its weights, via
/// [`crate::im2col::conv2d_weight_grad_gemm`].
pub fn conv2d_weight_grad(
    grad_out: &Tensor3,
    input: &Tensor3,
    kernel: (usize, usize),
    cfg: &Conv2dCfg,
) -> Tensor4 {
    crate::im2col::conv2d_weight_grad_gemm(grad_out, input, kernel, cfg)
}

/// The reference weight-gradient loop nest: accumulates over output pixels
/// in ascending `(p, q)` order. The oracle for
/// [`crate::im2col::conv2d_weight_grad_gemm`].
pub fn conv2d_weight_grad_reference(
    grad_out: &Tensor3,
    input: &Tensor3,
    kernel: (usize, usize),
    cfg: &Conv2dCfg,
) -> Tensor4 {
    let (kr, ks) = kernel;
    let (pad_y, pad_x) = match cfg.padding {
        Padding::Same => (
            same_pad(input.h(), kr, cfg.stride),
            same_pad(input.w(), ks, cfg.stride),
        ),
        Padding::Valid => (0, 0),
    };
    let mut grad_w = Tensor4::zeros(grad_out.c(), input.c(), kr, ks);
    for k in 0..grad_out.c() {
        for p in 0..grad_out.h() {
            for q in 0..grad_out.w() {
                let g = grad_out.at(k, p, q);
                if g == 0.0 {
                    continue;
                }
                for c in 0..input.c() {
                    for r in 0..kr {
                        let iy = (p * cfg.stride + r) as isize - pad_y as isize;
                        if iy < 0 || iy >= input.h() as isize {
                            continue;
                        }
                        for s in 0..ks {
                            let ix = (q * cfg.stride + s) as isize - pad_x as isize;
                            if ix < 0 || ix >= input.w() as isize {
                                continue;
                            }
                            let xv = input.at(c, iy as usize, ix as usize);
                            if xv == 0.0 {
                                continue;
                            }
                            let idx = grad_w.index(k, c, r, s);
                            grad_w.data_mut()[idx] += g * xv;
                        }
                    }
                }
            }
        }
    }
    grad_w
}

/// Gradient of a convolution with respect to its bias.
pub fn conv2d_bias_grad(grad_out: &Tensor3) -> Vec<f32> {
    let mut grad_b = vec![0.0; grad_out.c()];
    #[allow(clippy::needless_range_loop)] // index-parallel numeric kernel
    for k in 0..grad_out.c() {
        for p in 0..grad_out.h() {
            for q in 0..grad_out.w() {
                grad_b[k] += grad_out.at(k, p, q);
            }
        }
    }
    grad_b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(stride: usize, padding: Padding) -> Conv2dCfg {
        Conv2dCfg::new(stride, padding)
    }

    #[test]
    fn out_dims() {
        assert_eq!(conv_out_dim(32, 3, 1, Padding::Same), 32);
        assert_eq!(conv_out_dim(32, 3, 2, Padding::Same), 16);
        assert_eq!(conv_out_dim(32, 3, 1, Padding::Valid), 30);
        assert_eq!(conv_out_dim(2, 3, 1, Padding::Valid), 0);
        assert_eq!(conv_out_dim(33, 3, 2, Padding::Same), 17);
    }

    #[test]
    fn paper_fig2_boundary_effect() {
        // Fig. 2: filter [3,4,5] over 5-element inputs with same padding.
        // Impulse at position 0 -> only 2 non-zeros; positions 1 and 2 -> 3.
        let w = Tensor4::from_vec(1, 1, 1, 3, vec![3.0, 4.0, 5.0]);
        let mk = |pos: usize| {
            let mut x = Tensor3::zeros(1, 1, 5);
            x.set(0, 0, pos, 1.0);
            conv2d(&x, &w, None, &cfg(1, Padding::Same))
        };
        assert_eq!(mk(0).data(), &[4.0, 3.0, 0.0, 0.0, 0.0]);
        assert_eq!(mk(1).data(), &[5.0, 4.0, 3.0, 0.0, 0.0]);
        assert_eq!(mk(2).data(), &[0.0, 5.0, 4.0, 3.0, 0.0]);
        assert_eq!(mk(0).nnz(), 2);
        assert_eq!(mk(1).nnz(), 3);
        assert_eq!(mk(2).nnz(), 3);
    }

    #[test]
    fn bias_shifts_everything() {
        let w = Tensor4::from_vec(1, 1, 1, 3, vec![3.0, 4.0, 5.0]);
        let mut x = Tensor3::zeros(1, 1, 5);
        x.set(0, 0, 1, 1.0);
        let y = conv2d(&x, &w, Some(&[2.0]), &cfg(1, Padding::Same));
        assert_eq!(y.data(), &[7.0, 6.0, 5.0, 2.0, 2.0]);
        assert_eq!(y.nnz(), 5); // bias obscures the boundary effect (paper 5.2)
    }

    #[test]
    fn negative_probe_restores_observability() {
        // Paper 5.2: with probe -1 and bias +2, ReLU re-creates distinct nnz.
        let w = Tensor4::from_vec(1, 1, 1, 3, vec![3.0, 4.0, 5.0]);
        let mk = |pos: usize| {
            let mut x = Tensor3::zeros(1, 1, 5);
            x.set(0, 0, pos, -1.0);
            let mut y = conv2d(&x, &w, Some(&[2.0]), &cfg(1, Padding::Same));
            y.relu_inplace();
            y.nnz()
        };
        assert_eq!(mk(0), 3);
        assert_eq!(mk(1), 2);
        assert_eq!(mk(2), 2);
    }

    #[test]
    fn stride_two_downsamples() {
        let w = Tensor4::from_vec(1, 1, 1, 1, vec![1.0]);
        let x = Tensor3::from_vec(1, 1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv2d(&x, &w, None, &cfg(2, Padding::Same));
        assert_eq!(y.data(), &[1.0, 3.0]);
    }

    #[test]
    fn multi_channel_accumulates() {
        let x = Tensor3::from_vec(2, 1, 1, vec![2.0, 3.0]);
        let w = Tensor4::from_vec(1, 2, 1, 1, vec![10.0, 100.0]);
        let y = conv2d(&x, &w, None, &cfg(1, Padding::Same));
        assert_eq!(y.data(), &[320.0]);
    }

    #[test]
    fn valid_padding_shrinks() {
        let x = Tensor3::full(1, 4, 4, 1.0);
        let w = Tensor4::from_vec(1, 1, 3, 3, vec![1.0; 9]);
        let y = conv2d(&x, &w, None, &cfg(1, Padding::Valid));
        assert_eq!((y.h(), y.w()), (2, 2));
        assert!(y.data().iter().all(|&v| v == 9.0));
    }

    #[test]
    fn input_grad_matches_numerical() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let mut x = Tensor3::zeros(2, 5, 5);
        x.fill_uniform(&mut rng, -1.0, 1.0);
        let mut w = Tensor4::zeros(3, 2, 3, 3);
        w.init_he(&mut rng);
        let c = cfg(1, Padding::Same);

        // Loss = sum of outputs; grad_out = ones.
        let out = conv2d(&x, &w, None, &c);
        let grad_out = Tensor3::full(out.c(), out.h(), out.w(), 1.0);
        let analytic = conv2d_input_grad(&grad_out, &w, (2, 5, 5), &c);

        let eps = 1e-3f32;
        for idx in [0usize, 7, 24, 30, 49] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fp: f32 = conv2d(&xp, &w, None, &c).data().iter().sum();
            let fm: f32 = conv2d(&xm, &w, None, &c).data().iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[idx]).abs() < 1e-2,
                "idx {idx}: numeric {numeric} analytic {}",
                analytic.data()[idx]
            );
        }
    }

    #[test]
    fn weight_grad_matches_numerical() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(4);
        let mut x = Tensor3::zeros(1, 4, 4);
        x.fill_uniform(&mut rng, -1.0, 1.0);
        let mut w = Tensor4::zeros(2, 1, 3, 3);
        w.init_he(&mut rng);
        let c = cfg(1, Padding::Same);

        let out = conv2d(&x, &w, None, &c);
        let grad_out = Tensor3::full(out.c(), out.h(), out.w(), 1.0);
        let analytic = conv2d_weight_grad(&grad_out, &x, (3, 3), &c);

        let eps = 1e-3f32;
        for idx in [0usize, 4, 9, 17] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let fp: f32 = conv2d(&x, &wp, None, &c).data().iter().sum();
            let fm: f32 = conv2d(&x, &wm, None, &c).data().iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[idx]).abs() < 1e-2,
                "idx {idx}: numeric {numeric} analytic {}",
                analytic.data()[idx]
            );
        }
    }

    #[test]
    fn bias_grad_is_output_sum_per_channel() {
        let g = Tensor3::from_vec(2, 1, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(conv2d_bias_grad(&g), vec![3.0, 7.0]);
    }

    fn assert_bits_eq(a: &Tensor3, b: &Tensor3) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn sparse_weight_path_matches_reference() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(91);
        let mut x = Tensor3::zeros(3, 7, 7);
        x.fill_uniform(&mut rng, -1.0, 1.0);
        let mut w = Tensor4::zeros(4, 3, 3, 3);
        w.init_he(&mut rng);
        // Prune 95%: below the weight-density threshold, so the dense input
        // routes onto the sparse kernel.
        for (i, v) in w.data_mut().iter_mut().enumerate() {
            if i % 20 != 0 {
                *v = 0.0;
            }
        }
        assert!(is_sparse(w.nnz(), w.len()));
        let bias = [0.5, -0.5, 0.0, 1.0];
        for (stride, padding) in [(1, Padding::Same), (2, Padding::Same), (1, Padding::Valid)] {
            let c = cfg(stride, padding);
            let taps = conv2d(&x, &w, Some(&bias), &c);
            let reference = conv2d_reference(&x, &w, Some(&bias), &c);
            assert_bits_eq(&taps, &reference);
        }
    }

    #[test]
    fn csc_path_matches_reference_on_sparse_input() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(77);
        let mut w = Tensor4::zeros(4, 3, 3, 3);
        w.init_he(&mut rng);
        for (stride, padding) in [
            (1, Padding::Same),
            (2, Padding::Same),
            (1, Padding::Valid),
            (2, Padding::Valid),
        ] {
            // Sparse input triggers the sparse kernel inside conv2d...
            let mut sparse = Tensor3::zeros(3, 9, 9);
            sparse.set(0, 4, 0, 1.5);
            sparse.set(1, 0, 8, -2.0);
            sparse.set(2, 8, 4, 0.5);
            let c = cfg(stride, padding);
            let fast = conv2d(&sparse, &w, Some(&[0.1, 0.2, 0.3, 0.4]), &c);
            let reference = conv2d_reference(&sparse, &w, Some(&[0.1, 0.2, 0.3, 0.4]), &c);
            // ...and must agree with the reference loop bit-for-bit.
            assert_bits_eq(&fast, &reference);
            // A dense input through the explicit sparse entry point must too.
            let mut dense = sparse.clone();
            for (i, v) in dense.data_mut().iter_mut().enumerate() {
                *v += (i % 7) as f32 * 0.25; // make it dense
            }
            let sparse_kernel = crate::csc_conv::conv2d_sparse_csc(&dense, &w, None, &c);
            assert_bits_eq(&conv2d_reference(&dense, &w, None, &c), &sparse_kernel);
        }
    }

    #[test]
    fn backend_policy_defaults_reproduce_historical_dispatch() {
        // Exactly the historical `nnz * 8 < len` routing tests.
        let p = BackendPolicy::default();
        assert!(p.auto_sparse);
        for len in [1usize, 7, 8, 64, 1000, 12 * 12 * 3] {
            for nnz in 0..=len {
                assert_eq!(p.input_is_sparse(nnz, len), nnz * 8 < len, "{nnz}/{len}");
            }
        }
    }

    #[test]
    fn backend_parse_and_display_roundtrip() {
        for (name, backend) in [
            ("gemm", ConvBackend::Im2colGemm),
            ("sparse", ConvBackend::SparseCsc),
        ] {
            assert_eq!(ConvBackend::parse(name), Some(backend));
            assert_eq!(backend.to_string(), name);
        }
        assert_eq!(ConvBackend::parse("csc"), Some(ConvBackend::SparseCsc));
        assert_eq!(ConvBackend::parse("direct"), None);
        assert_eq!(ConvBackend::parse("nope"), None);
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn channel_mismatch_panics() {
        let x = Tensor3::zeros(3, 4, 4);
        let w = Tensor4::zeros(1, 2, 3, 3);
        let _ = conv2d(&x, &w, None, &Conv2dCfg::default());
    }
}

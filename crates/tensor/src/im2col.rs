//! im2col lowering: convolution as a cache-blocked GEMM.
//!
//! The convolution `out[k, p, q] = Σ_{c,r,s} w[k,c,r,s] · x[c, p·σ+r−pad,
//! q·σ+s−pad]` is a matrix product once the input is unrolled into a patch
//! matrix: `A` is the filter bank flattened to `K x (C·R·S)`, `B` gathers
//! one input patch per output pixel into `(C·R·S) x (P·Q)`, and `C = A·B`
//! lands directly in the `K x P x Q` output layout. [`crate::gemm`] then
//! supplies the cache blocking and the register-tiled micro-kernel.
//!
//! Two sparse-weight reductions shrink the GEMM before it runs:
//!
//! * **tap skipping** — a *tap* `(c, r, s)` whose weight column is zero in
//!   every filter contributes nothing; its patch-matrix row is never
//!   gathered (structured pruning often zeroes whole kernel positions),
//! * **filter-row skipping** — an output channel whose filter is entirely
//!   pruned is excluded from `A`, and its output plane is just the bias.
//!
//! Both reductions drop exactly the terms the reference loop nest skips, so
//! the result stays bit-identical to [`crate::conv::conv2d_reference`] (see
//! the determinism contract in [`crate::gemm`]).

use crate::conv::{conv_out_dim, same_pad, Conv2dCfg, Padding};
use crate::gemm::{gemm, GemmBlocking};
use crate::{Tensor3, Tensor4};

/// Resolved spatial geometry of one convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeom {
    /// Output height `P`.
    pub out_h: usize,
    /// Output width `Q`.
    pub out_w: usize,
    /// Top zero-padding.
    pub pad_y: usize,
    /// Left zero-padding.
    pub pad_x: usize,
    /// Symmetric stride.
    pub stride: usize,
}

impl ConvGeom {
    /// Geometry for an `in_h x in_w` input under `kernel = (kr, ks)`.
    pub fn of(in_h: usize, in_w: usize, kr: usize, ks: usize, cfg: &Conv2dCfg) -> Self {
        let (pad_y, pad_x) = match cfg.padding {
            Padding::Same => (
                same_pad(in_h, kr, cfg.stride),
                same_pad(in_w, ks, cfg.stride),
            ),
            Padding::Valid => (0, 0),
        };
        ConvGeom {
            out_h: conv_out_dim(in_h, kr, cfg.stride, cfg.padding),
            out_w: conv_out_dim(in_w, ks, cfg.stride, cfg.padding),
            pad_y,
            pad_x,
            stride: cfg.stride,
        }
    }

    /// Output pixel count `P·Q`.
    pub fn out_len(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// Dimensions of the single GEMM call one im2col convolution issues:
/// `C (m x n) = A (m x k) · B (k x n)`.
///
/// These are exactly the values a Cache-Telepathy-style attacker recovers
/// by watching the BLAS library's block iteration counts (Yan et al.):
/// `m` counts live filter rows (`= K` unless whole filters are pruned),
/// `k` counts live taps (`<= C·R·S`), and `n` is the output pixel count
/// `P·Q` — a pure function of input size, kernel, stride, and padding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Live filter rows (output channels with at least one nonzero weight).
    pub m: usize,
    /// Live taps (shared dimension, `<= C·R·S`).
    pub k: usize,
    /// Output pixels `P·Q`.
    pub n: usize,
}

/// The GEMM dimensions [`conv2d_im2col_gemm`] would use for this layer, or
/// `None` when it issues no GEMM at all (empty output, fully pruned
/// weights). Must mirror that function's early-outs exactly — the
/// differential test below holds the two in lockstep.
pub fn gemm_call_dims(
    in_h: usize,
    in_w: usize,
    weight: &Tensor4,
    cfg: &Conv2dCfg,
) -> Option<GemmShape> {
    let geom = ConvGeom::of(in_h, in_w, weight.r(), weight.s(), cfg);
    let n = geom.out_len();
    if n == 0 {
        return None;
    }
    let taps = nonzero_taps(weight);
    if taps.is_empty() {
        return None;
    }
    let m = (0..weight.k())
        .filter(|&k| taps.iter().any(|&(c, r, s)| weight.at(k, c, r, s) != 0.0))
        .count();
    if m == 0 {
        return None;
    }
    Some(GemmShape {
        m,
        k: taps.len(),
        n,
    })
}

/// Taps `(c, r, s)` in ascending lexicographic order whose weight column is
/// non-zero in at least one filter — the patch-matrix rows worth gathering.
pub fn nonzero_taps(weight: &Tensor4) -> Vec<(usize, usize, usize)> {
    let mut taps = Vec::with_capacity(weight.c() * weight.r() * weight.s());
    for c in 0..weight.c() {
        for r in 0..weight.r() {
            for s in 0..weight.s() {
                if (0..weight.k()).any(|k| weight.at(k, c, r, s) != 0.0) {
                    taps.push((c, r, s));
                }
            }
        }
    }
    taps
}

/// Every tap `(c, r, s)` of a `C x R x S` filter in lexicographic order.
pub fn all_taps(c: usize, r: usize, s: usize) -> Vec<(usize, usize, usize)> {
    let mut taps = Vec::with_capacity(c * r * s);
    for ci in 0..c {
        for ri in 0..r {
            for si in 0..s {
                taps.push((ci, ri, si));
            }
        }
    }
    taps
}

/// Gathers the patch matrix: row `j` holds, for tap `taps[j] = (c, r, s)`,
/// the (zero-padded) input value under that tap for every output pixel in
/// row-major `(p, q)` order. Shape: `taps.len() x geom.out_len()`.
pub fn im2col(input: &Tensor3, geom: &ConvGeom, taps: &[(usize, usize, usize)]) -> Vec<f32> {
    let n = geom.out_len();
    let mut mat = vec![0.0f32; taps.len() * n];
    for (j, &(c, r, s)) in taps.iter().enumerate() {
        let row = &mut mat[j * n..(j + 1) * n];
        gather_tap(input, geom, c, r, s, |off, v| row[off] = v);
    }
    mat
}

/// Transposed gather for the weight-gradient GEMM: element `[n][j]` of the
/// `geom.out_len() x taps.len()` result is the input value under tap `j` at
/// output pixel `n`.
pub fn im2col_transposed(
    input: &Tensor3,
    geom: &ConvGeom,
    taps: &[(usize, usize, usize)],
) -> Vec<f32> {
    let j_total = taps.len();
    let mut mat = vec![0.0f32; geom.out_len() * j_total];
    for (j, &(c, r, s)) in taps.iter().enumerate() {
        gather_tap(input, geom, c, r, s, |off, v| mat[off * j_total + j] = v);
    }
    mat
}

/// Visits every in-bounds output pixel of one tap, calling `sink(p*Q + q,
/// value)`. Out-of-bounds (padding) pixels are left to the caller's
/// zero-initialized buffer.
fn gather_tap(
    input: &Tensor3,
    geom: &ConvGeom,
    c: usize,
    r: usize,
    s: usize,
    mut sink: impl FnMut(usize, f32),
) {
    let (h, w) = (input.h() as isize, input.w() as isize);
    let stride = geom.stride as isize;
    // Valid q range: 0 <= q*stride + s - pad_x < w.
    let dx = s as isize - geom.pad_x as isize;
    let q_lo = if dx < 0 {
        (-dx + stride - 1) / stride
    } else {
        0
    } as usize;
    let q_hi = if w <= dx {
        0
    } else {
        (geom.out_w as isize).min((w - dx - 1) / stride + 1) as usize
    };
    if q_lo >= q_hi {
        return;
    }
    let dy = r as isize - geom.pad_y as isize;
    for p in 0..geom.out_h {
        let iy = p as isize * stride + dy;
        if iy < 0 || iy >= h {
            continue;
        }
        let base = p * geom.out_w;
        for q in q_lo..q_hi {
            let ix = (q as isize * stride + dx) as usize;
            sink(base + q, input.at(c, iy as usize, ix));
        }
    }
}

/// im2col + blocked-GEMM convolution. Semantics (and, by the accumulation
/// order contract, bit patterns) match [`crate::conv::conv2d_reference`].
pub fn conv2d_im2col_gemm(
    input: &Tensor3,
    weight: &Tensor4,
    bias: Option<&[f32]>,
    cfg: &Conv2dCfg,
) -> Tensor3 {
    let geom = ConvGeom::of(input.h(), input.w(), weight.r(), weight.s(), cfg);
    let (kk, n) = (weight.k(), geom.out_len());
    let mut out = Tensor3::zeros(kk, geom.out_h, geom.out_w);
    if n == 0 {
        return out;
    }
    if let Some(b) = bias {
        for (k, &bk) in b.iter().enumerate() {
            if bk != 0.0 {
                out.data_mut()[k * n..(k + 1) * n].fill(bk);
            }
        }
    }

    // Sparse-weight reductions: gather only live taps, compute only live
    // filter rows.
    let taps = nonzero_taps(weight);
    if taps.is_empty() {
        return out; // fully pruned: output is the bias broadcast
    }
    let rows: Vec<usize> = (0..kk)
        .filter(|&k| taps.iter().any(|&(c, r, s)| weight.at(k, c, r, s) != 0.0))
        .collect();
    if rows.is_empty() {
        return out;
    }

    let j_total = taps.len();
    let bmat = im2col(input, &geom, &taps);
    let mut amat = vec![0.0f32; rows.len() * j_total];
    for (i, &k) in rows.iter().enumerate() {
        for (j, &(c, r, s)) in taps.iter().enumerate() {
            amat[i * j_total + j] = weight.at(k, c, r, s);
        }
    }

    let blk = GemmBlocking::default();
    if rows.len() == kk {
        gemm(
            kk,
            n,
            j_total,
            &amat,
            j_total,
            &bmat,
            n,
            out.data_mut(),
            n,
            &blk,
        );
    } else {
        // Row-compacted GEMM into a scratch C, scattered back per filter.
        let mut cmat = vec![0.0f32; rows.len() * n];
        for (i, &k) in rows.iter().enumerate() {
            cmat[i * n..(i + 1) * n].copy_from_slice(&out.data()[k * n..(k + 1) * n]);
        }
        gemm(
            rows.len(),
            n,
            j_total,
            &amat,
            j_total,
            &bmat,
            n,
            &mut cmat,
            n,
            &blk,
        );
        for (i, &k) in rows.iter().enumerate() {
            out.data_mut()[k * n..(k + 1) * n].copy_from_slice(&cmat[i * n..(i + 1) * n]);
        }
    }
    out
}

/// Weight gradient via GEMM: `dW (K x CRS) = dOut (K x PQ) · Patchesᵀ (PQ x
/// CRS)`. Bit-identical to the loop nest of
/// [`crate::conv::conv2d_weight_grad_reference`] (the shared dimension is
/// walked in ascending `(p, q)` order on both paths).
pub fn conv2d_weight_grad_gemm(
    grad_out: &Tensor3,
    input: &Tensor3,
    kernel: (usize, usize),
    cfg: &Conv2dCfg,
) -> Tensor4 {
    let (kr, ks) = kernel;
    let kk = grad_out.c();
    let mut grad_w = Tensor4::zeros(kk, input.c(), kr, ks);
    let geom = ConvGeom {
        out_h: grad_out.h(),
        out_w: grad_out.w(),
        pad_y: match cfg.padding {
            Padding::Same => same_pad(input.h(), kr, cfg.stride),
            Padding::Valid => 0,
        },
        pad_x: match cfg.padding {
            Padding::Same => same_pad(input.w(), ks, cfg.stride),
            Padding::Valid => 0,
        },
        stride: cfg.stride,
    };
    let pq = geom.out_len();
    let j_total = input.c() * kr * ks;
    if pq == 0 || j_total == 0 || kk == 0 {
        return grad_w;
    }
    // Gradients flow to every weight slot (pruned ones included — masking
    // is the trainer's job), so the gather uses all taps.
    let taps = all_taps(input.c(), kr, ks);
    let bt = im2col_transposed(input, &geom, &taps);
    gemm(
        kk,
        j_total,
        pq,
        grad_out.data(),
        pq,
        &bt,
        j_total,
        grad_w.data_mut(),
        j_total,
        &GemmBlocking::default(),
    );
    grad_w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_reference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(stride: usize, padding: Padding) -> Conv2dCfg {
        Conv2dCfg::new(stride, padding)
    }

    fn dense_input(seed: u64, c: usize, h: usize, w: usize) -> Tensor3 {
        let mut x = Tensor3::zeros(c, h, w);
        let mut rng = StdRng::seed_from_u64(seed);
        x.fill_uniform(&mut rng, 0.1, 1.0); // fully dense: no scatter path
        x
    }

    #[test]
    fn matches_reference_bitwise_dense() {
        let x = dense_input(5, 3, 9, 9);
        let mut w = Tensor4::zeros(5, 3, 3, 3);
        w.init_he(&mut StdRng::seed_from_u64(6));
        let bias = [0.5f32, -0.25, 0.0, 1.5, -1.0];
        for (stride, padding) in [
            (1, Padding::Same),
            (2, Padding::Same),
            (3, Padding::Same),
            (1, Padding::Valid),
            (2, Padding::Valid),
        ] {
            let c = cfg(stride, padding);
            let reference = conv2d_reference(&x, &w, Some(&bias), &c);
            let gemm = conv2d_im2col_gemm(&x, &w, Some(&bias), &c);
            assert_eq!(reference.shape(), gemm.shape());
            for (a, b) in reference.data().iter().zip(gemm.data()) {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "{a} vs {b} ({stride}, {padding:?})"
                );
            }
        }
    }

    #[test]
    fn tap_and_row_skipping_match_reference() {
        let x = dense_input(11, 4, 7, 7);
        let mut w = Tensor4::zeros(6, 4, 3, 3);
        w.init_he(&mut StdRng::seed_from_u64(12));
        // Zero a whole tap column (c=1, r=0, s=2) and a whole filter (k=3).
        for k in 0..6 {
            w.set(k, 1, 0, 2, 0.0);
        }
        for i in 0..w.len() / 6 {
            let idx = 3 * (w.len() / 6) + i;
            w.data_mut()[idx] = 0.0;
        }
        assert_eq!(nonzero_taps(&w).len(), 4 * 9 - 1);
        let bias = [0.1f32; 6];
        let c = cfg(1, Padding::Same);
        let reference = conv2d_reference(&x, &w, Some(&bias), &c);
        let gemm = conv2d_im2col_gemm(&x, &w, Some(&bias), &c);
        for (a, b) in reference.data().iter().zip(gemm.data()) {
            assert!(a.to_bits() == b.to_bits(), "{a} vs {b}");
        }
        // The pruned filter's plane is exactly the bias.
        let n = reference.h() * reference.w();
        assert!(gemm.data()[3 * n..4 * n].iter().all(|&v| v == 0.1));
    }

    #[test]
    fn fully_pruned_weights_yield_bias_broadcast() {
        let x = dense_input(2, 2, 5, 5);
        let w = Tensor4::zeros(3, 2, 3, 3);
        let c = cfg(1, Padding::Same);
        let y = conv2d_im2col_gemm(&x, &w, Some(&[1.0, 0.0, -2.0]), &c);
        assert!(y.data()[0..25].iter().all(|&v| v == 1.0));
        assert!(y.data()[25..50].iter().all(|&v| v == 0.0));
        assert!(y.data()[50..75].iter().all(|&v| v == -2.0));
    }

    #[test]
    fn zero_output_dims() {
        // Valid padding with input smaller than the kernel: 0-dim output.
        let x = dense_input(3, 1, 2, 2);
        let mut w = Tensor4::zeros(2, 1, 3, 3);
        w.init_he(&mut StdRng::seed_from_u64(1));
        let y = conv2d_im2col_gemm(&x, &w, None, &cfg(1, Padding::Valid));
        assert_eq!((y.c(), y.h(), y.w()), (2, 0, 0));
    }

    #[test]
    fn weight_grad_matches_reference_bitwise() {
        use crate::conv::conv2d_weight_grad_reference;
        let x = dense_input(21, 3, 8, 8);
        for (stride, padding) in [(1, Padding::Same), (2, Padding::Same), (1, Padding::Valid)] {
            let c = cfg(stride, padding);
            let g_h = conv_out_dim(8, 3, stride, padding);
            let g = dense_input(22, 4, g_h, g_h);
            let reference = conv2d_weight_grad_reference(&g, &x, (3, 3), &c);
            let viagemm = conv2d_weight_grad_gemm(&g, &x, (3, 3), &c);
            for (a, b) in reference.data().iter().zip(viagemm.data()) {
                assert!(a.to_bits() == b.to_bits(), "{a} vs {b}");
            }
        }
    }

    /// Differential test: `gemm_call_dims` must agree with the shapes
    /// `conv2d_im2col_gemm` actually hands to [`crate::gemm::gemm`] for
    /// dense, tap-pruned, row-pruned, fully-pruned, and zero-output cases.
    #[test]
    fn gemm_call_dims_mirror_the_real_gemm() {
        let c1 = cfg(1, Padding::Same);

        // Dense: m = K, k = C·R·S, n = H·W under Same/stride-1.
        let mut w = Tensor4::zeros(5, 3, 3, 3);
        w.init_he(&mut StdRng::seed_from_u64(2));
        let g = gemm_call_dims(9, 7, &w, &c1).expect("dense conv issues a GEMM");
        assert_eq!(g, GemmShape { m: 5, k: 27, n: 63 });

        // Tap + row pruning shrink m and k exactly like the kernel does.
        for k in 0..5 {
            w.set(k, 1, 0, 2, 0.0); // kill tap (1, 0, 2)
        }
        let plane = w.len() / 5;
        for i in 0..plane {
            w.data_mut()[3 * plane + i] = 0.0; // kill filter k=3
        }
        let g = gemm_call_dims(9, 7, &w, &c1).expect("pruned conv still issues a GEMM");
        assert_eq!(g, GemmShape { m: 4, k: 26, n: 63 });

        // Stride shrinks n only: ceil(9/2)·ceil(7/2) = 5·4.
        let c2 = cfg(2, Padding::Same);
        let g2 = gemm_call_dims(9, 7, &w, &c2).expect("strided conv issues a GEMM");
        assert_eq!((g2.m, g2.k, g2.n), (g.m, g.k, 20));

        // Fully pruned: conv2d_im2col_gemm returns before the GEMM.
        let dead = Tensor4::zeros(3, 2, 3, 3);
        assert_eq!(gemm_call_dims(5, 5, &dead, &c1), None);

        // Zero-dim output (Valid padding, input smaller than kernel).
        let mut w2 = Tensor4::zeros(2, 1, 3, 3);
        w2.init_he(&mut StdRng::seed_from_u64(3));
        let valid = cfg(1, Padding::Valid);
        assert_eq!(gemm_call_dims(2, 2, &w2, &valid), None);
    }

    #[test]
    fn geom_matches_conv_out_dim() {
        let c = cfg(2, Padding::Same);
        let g = ConvGeom::of(9, 7, 3, 3, &c);
        assert_eq!(g.out_h, conv_out_dim(9, 3, 2, Padding::Same));
        assert_eq!(g.out_w, conv_out_dim(7, 3, 2, Padding::Same));
    }
}

//! Output-stationary sparse convolution over filter-major compacted weights.
//!
//! The paper's victim accelerators (Eyeriss v2, SCNN) keep both operands in
//! compressed-sparse form and multiply only nonzero pairs; this module is the
//! corresponding compute model and the performance backbone of the prober hot
//! loop. Weights are compacted once into [`SparseFilters`] — for every filter
//! `k` the list of `(tap, value)` entries that survive pruning, in ascending
//! `(c, r, s)` order — and the kernel keeps a register block of output
//! elements in place while it walks one filter's nonzeros, streaming the
//! activations past the accumulators (an output-stationary dataflow).
//!
//! Each call of [`conv2d_csc`]:
//!
//! 1. copies the input columns the recomputed output span reads into a
//!    zero-padded tile, laid out by column phase (`x mod stride`) so every
//!    stride reads each tap's lanes from one contiguous run;
//! 2. maps each nonzero's tap index to its tile offset through a per-call
//!    `C·R·S` table;
//! 3. for each filter, each block of [`CONV_ROWS`] output rows and each
//!    [`LANES`]-wide chunk of the span, runs [`simd::sparse_conv_block`]
//!    from the bias and stores the lanes inside the span.
//!
//! # Bit-identity contract
//!
//! [`conv2d_csc`] reproduces [`crate::conv::conv2d_reference`]
//! bit-for-bit. Every output element starts from the bias and receives one
//! masked `acc += w * x` per nonzero weight of its filter, in ascending
//! `(c, r, s)` order — the reference's order. Taps whose activation is zero
//! (including the zeros that stand for padding) are skipped lanewise by the
//! mask, exactly as the reference skips them, so both perform the same f32
//! additions in the same order.

use crate::colspan::ColSpan;
use crate::conv::{conv_out_dim, same_pad, Conv2dCfg, Padding};
use crate::simd::{self, CONV_ROWS, LANES};
use crate::{Tensor3, Tensor4};

/// Filter-major compaction of a pruned weight tensor.
///
/// Per filter `k`, the surviving weights in ascending flat tap index
/// `(c * R + r) * S + s` — which is ascending `(c, r, s)` — with one `u32`
/// tap index and one `f32` value per nonzero. Zero weights are elided with
/// the same exact `!= 0.0` test the reference uses for zero-skipping.
#[derive(Clone, Debug)]
pub struct SparseFilters {
    k: usize,
    c: usize,
    r: usize,
    s: usize,
    /// Filter boundaries into `taps`/`values`, length `k + 1`.
    offsets: Vec<u32>,
    /// Flat `(c, r, s)` tap index per surviving weight.
    taps: Vec<u32>,
    /// Weight value per surviving weight.
    values: Vec<f32>,
}

impl SparseFilters {
    /// Compacts `weight` (layout `K x C x R x S`) filter by filter.
    pub fn build(weight: &Tensor4) -> Self {
        let (k, c, r, s) = (weight.k(), weight.c(), weight.r(), weight.s());
        let per_filter = c * r * s;
        let data = weight.data();
        // Count first, so the two lists are allocated at their exact size.
        let nnz = data.iter().filter(|&&v| v != 0.0).count();
        let mut taps = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        let mut offsets = Vec::with_capacity(k + 1);
        offsets.push(0u32);
        for f in 0..k {
            let filter = &data[f * per_filter..(f + 1) * per_filter];
            for (tap, &v) in filter.iter().enumerate() {
                if v != 0.0 {
                    taps.push(tap as u32);
                    values.push(v);
                }
            }
            offsets.push(taps.len() as u32);
        }
        SparseFilters {
            k,
            c,
            r,
            s,
            offsets,
            taps,
            values,
        }
    }

    /// Output channels.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Input channels.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Kernel rows.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Kernel columns.
    pub fn s(&self) -> usize {
        self.s
    }

    /// Surviving (nonzero) weights.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Index range of filter `k`'s nonzeros in `taps`/`values`.
    #[inline]
    fn filter(&self, k: usize) -> std::ops::Range<usize> {
        self.offsets[k] as usize..self.offsets[k + 1] as usize
    }
}

/// Output-stationary sparse × sparse convolution restricted to the output
/// columns reachable from `in_span`.
///
/// The caller guarantees one of two contracts:
///
/// * `baseline == None`: every input column outside `in_span` is zero. The
///   untouched output columns are then exactly `bias[k]`, which is what this
///   kernel writes there.
/// * `baseline == Some(base)`: `base` is this convolution's output for a
///   reference input that agrees with `input` on every column outside
///   `in_span` (the incremental-forward case, where `base` comes from the
///   zero-input baseline trace). Untouched output columns are copied from
///   `base`; columns reachable from `in_span` are recomputed from scratch.
///
/// Under either contract the result is bit-identical to running the
/// reference loop nest over the full map.
///
/// # Panics
///
/// Panics if the input channel count does not match `weights`, if a provided
/// `baseline` has the wrong shape, or if `cfg.stride == 0`.
pub fn conv2d_csc(
    input: &Tensor3,
    weights: &SparseFilters,
    bias: Option<&[f32]>,
    cfg: &Conv2dCfg,
    in_span: ColSpan,
    baseline: Option<&Tensor3>,
) -> Tensor3 {
    assert!(cfg.stride > 0, "stride must be positive");
    assert_eq!(
        input.c(),
        weights.c(),
        "input channels {} do not match weight channels {}",
        input.c(),
        weights.c()
    );
    if let Some(b) = bias {
        assert_eq!(
            b.len(),
            weights.k(),
            "bias length must equal output channels"
        );
    }

    let (kr, ks, st) = (weights.r(), weights.s(), cfg.stride);
    let (in_h, in_w) = (input.h(), input.w());
    let out_h = conv_out_dim(in_h, kr, st, cfg.padding);
    let out_w = conv_out_dim(in_w, ks, st, cfg.padding);
    let (pad_y, pad_x) = match cfg.padding {
        Padding::Same => (same_pad(in_h, kr, st), same_pad(in_w, ks, st)),
        Padding::Valid => (0, 0),
    };

    let plane = out_h * out_w;
    let mut out = match baseline {
        Some(base) => {
            assert_eq!(
                (base.c(), base.h(), base.w()),
                (weights.k(), out_h, out_w),
                "baseline shape must match the convolution output"
            );
            base.clone()
        }
        None => {
            let mut t = Tensor3::zeros(weights.k(), out_h, out_w);
            if let Some(b) = bias {
                for (k, chunk) in t.data_mut().chunks_exact_mut(plane.max(1)).enumerate() {
                    chunk.fill(b[k]);
                }
            }
            t
        }
    };
    let out_span = in_span.clamp(in_w).conv(ks, st, pad_x, out_w);
    if out_h == 0 || out_span.is_empty() {
        return out;
    }

    // Tile geometry. Output row p, lane j (column q_lo + j) and tap
    // (c, r, s) read input row p*st + r - pad_y and column
    // x0 + (j + s/st)*st + s%st, where x0 = q_lo*st - pad_x. The tile holds,
    // per channel, `t_len` input rows (row t is input row t - pad_y); each
    // row holds `st` phases of `u_len` columns (phase f, column u is input
    // column x0 + u*st + f). Rows and lanes are padded up to whole register
    // blocks; everything outside the input stays zero.
    let (q_lo, span_w) = (out_span.lo(), out_span.width());
    let rows = out_h.div_ceil(CONV_ROWS) * CONV_ROWS;
    let u_len = span_w.div_ceil(LANES) * LANES + (ks - 1) / st;
    let row_len = st * u_len;
    let t_len = (rows - 1) * st + kr;
    let chan_len = t_len * row_len;
    let mut tile = vec![0.0f32; input.c() * chan_len];
    assert!(
        tile.len() <= u32::MAX as usize,
        "input tile exceeds u32 offsets"
    );
    let x0 = (q_lo * st) as isize - pad_x as isize;
    let in_data = input.data();
    for (c, chan) in tile.chunks_exact_mut(chan_len).enumerate() {
        for (t, row) in chan.chunks_exact_mut(row_len).enumerate() {
            let Some(iy) = t.checked_sub(pad_y).filter(|&iy| iy < in_h) else {
                continue;
            };
            let src = &in_data[(c * in_h + iy) * in_w..(c * in_h + iy + 1) * in_w];
            for (phase, dst) in row.chunks_exact_mut(u_len).enumerate() {
                for (u, d) in dst.iter_mut().enumerate() {
                    let x = x0 + (u * st + phase) as isize;
                    if (0..in_w as isize).contains(&x) {
                        *d = src[x as usize];
                    }
                }
            }
        }
    }

    // Tap index -> tile offset, then every nonzero's offset in one pass.
    let mut tap_offset = Vec::with_capacity(input.c() * kr * ks);
    for c in 0..input.c() {
        for r in 0..kr {
            for s in 0..ks {
                tap_offset.push((c * chan_len + r * row_len + (s % st) * u_len + s / st) as u32);
            }
        }
    }
    let offs: Vec<u32> = weights
        .taps
        .iter()
        .map(|&t| tap_offset[t as usize])
        .collect();

    let row_step = st * row_len;
    let out_data = out.data_mut();
    for k in 0..weights.k() {
        let nz = weights.filter(k);
        let (f_offs, f_vals) = (&offs[nz.clone()], &weights.values[nz]);
        let b = bias.map_or(0.0, |b| b[k]);
        for p0 in (0..out_h).step_by(CONV_ROWS) {
            for j0 in (0..span_w).step_by(LANES) {
                let block =
                    simd::sparse_conv_block(&tile, p0 * row_step + j0, row_step, f_offs, f_vals, b);
                let n = LANES.min(span_w - j0);
                for (p, lanes) in (p0..out_h).zip(&block) {
                    let at = k * plane + p * out_w + q_lo + j0;
                    out_data[at..at + n].copy_from_slice(&lanes[..n]);
                }
            }
        }
    }
    out
}

/// [`conv2d_csc`] with the weight compaction and span scan done on the fly —
/// the dispatch target of [`crate::conv::conv2d`] for sparse inputs and
/// sparse weights (callers with reusable [`SparseFilters`] should invoke the
/// kernel directly).
pub fn conv2d_sparse_csc(
    input: &Tensor3,
    weight: &Tensor4,
    bias: Option<&[f32]>,
    cfg: &Conv2dCfg,
) -> Tensor3 {
    let filters = SparseFilters::build(weight);
    conv2d_csc(input, &filters, bias, cfg, ColSpan::of_tensor(input), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pruned_weights(k: usize, c: usize, r: usize, s: usize, keep: f64, seed: u64) -> Tensor4 {
        let mut w = Tensor4::zeros(k, c, r, s);
        w.init_he(&mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFF);
        for v in w.data_mut().iter_mut() {
            if rng.gen_range(0.0..1.0) >= keep as f32 {
                *v = 0.0;
            }
        }
        w
    }

    fn bits(t: &Tensor3) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn filters_roundtrip_every_tap_in_ascending_order() {
        let w = pruned_weights(5, 3, 3, 3, 0.4, 9);
        let filters = SparseFilters::build(&w);
        assert_eq!(filters.nnz(), w.nnz());
        assert_eq!(filters.taps.capacity(), filters.nnz());
        let mut rebuilt = Tensor4::zeros(5, 3, 3, 3);
        for k in 0..5 {
            let nz = filters.filter(k);
            let (taps, vals) = (&filters.taps[nz.clone()], &filters.values[nz]);
            assert!(taps.windows(2).all(|p| p[0] < p[1]), "taps not ascending");
            for (&t, &v) in taps.iter().zip(vals) {
                let t = t as usize;
                rebuilt.set(k, t / 9, t / 3 % 3, t % 3, v);
            }
        }
        assert_eq!(rebuilt.data(), w.data());
    }

    #[test]
    fn matches_reference_bitwise_on_random_shapes() {
        let mut rng = StdRng::seed_from_u64(0xC5C);
        for case in 0..60u64 {
            let (c, h, w) = (
                rng.gen_range(1..4usize),
                rng.gen_range(1..12usize),
                rng.gen_range(1..12usize),
            );
            let k = rng.gen_range(1..5usize);
            let kr = rng.gen_range(1..4usize);
            let stride = rng.gen_range(1..4usize);
            let padding = if rng.gen_bool(0.5) {
                Padding::Same
            } else {
                Padding::Valid
            };
            let mut x = Tensor3::zeros(c, h, w);
            // Mix of sparse and dense inputs.
            let density = if case % 2 == 0 { 0.1 } else { 1.0 };
            for v in x.data_mut().iter_mut() {
                if rng.gen_range(0.0..1.0) < density {
                    *v = rng.gen_range(-2.0..2.0);
                }
            }
            let weight = pruned_weights(k, c, kr, kr, 0.5, 0xBEEF + case);
            let bias: Vec<f32> = (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let cfg = Conv2dCfg::new(stride, padding);
            let want = crate::conv::conv2d_reference(&x, &weight, Some(&bias), &cfg);
            let got = conv2d_sparse_csc(&x, &weight, Some(&bias), &cfg);
            assert_eq!(want.shape(), got.shape(), "case {case}");
            assert_eq!(bits(&want), bits(&got), "bitwise divergence in case {case}");
        }
    }

    #[test]
    fn incremental_recompute_matches_full_run() {
        // A baseline computed on one input, patched with a single dirty
        // column, must equal the from-scratch result bit-for-bit.
        let mut rng = StdRng::seed_from_u64(0x1D1);
        let weight = pruned_weights(6, 2, 3, 3, 0.5, 0x51);
        let filters = SparseFilters::build(&weight);
        for stride in [1, 2] {
            let cfg = Conv2dCfg::new(stride, Padding::Same);
            let mut base_in = Tensor3::zeros(2, 8, 8);
            for v in base_in.data_mut().iter_mut() {
                *v = rng.gen_range(-1.0..1.0);
            }
            let base_out = conv2d_csc(&base_in, &filters, None, &cfg, ColSpan::full(8), None);
            let mut patched = base_in.clone();
            for ch in 0..2 {
                for y in 0..8 {
                    patched.set(ch, y, 5, rng.gen_range(-1.0..1.0));
                }
            }
            let incremental = conv2d_csc(
                &patched,
                &filters,
                None,
                &cfg,
                ColSpan::new(5, 6),
                Some(&base_out),
            );
            let full = conv2d_csc(&patched, &filters, None, &cfg, ColSpan::full(8), None);
            assert_eq!(bits(&incremental), bits(&full), "stride {stride}");
        }
    }

    #[test]
    fn empty_span_returns_bias_planes() {
        let weight = pruned_weights(3, 1, 3, 3, 0.5, 4);
        let x = Tensor3::zeros(1, 5, 5);
        let filters = SparseFilters::build(&weight);
        let bias = [1.0, -2.0, -0.0];
        let out = conv2d_csc(
            &x,
            &filters,
            Some(&bias),
            &Conv2dCfg::default(),
            ColSpan::empty(),
            None,
        );
        for (k, b) in bias.iter().enumerate() {
            assert!(out.data()[k * 25..(k + 1) * 25]
                .iter()
                .all(|v| v.to_bits() == b.to_bits()));
        }
    }
}

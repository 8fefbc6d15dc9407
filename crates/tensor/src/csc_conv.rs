//! Column-stationary sparse convolution over filter-major compacted weights.
//!
//! The paper's victim accelerators (Eyeriss v2, SCNN) keep both operands in
//! compressed-sparse form and multiply only nonzero pairs; this module is the
//! corresponding compute model and the performance backbone of the prober hot
//! loop. Weights are compacted once into [`SparseFilters`] — for every filter
//! `k` the list of `(tap, value)` entries that survive pruning, in ascending
//! `(c, r, s)` order — and the kernel keeps a register block of output
//! elements in place while it walks one filter's nonzeros, streaming the
//! activations past the accumulators (an output-stationary dataflow). The
//! block is a few whole output columns, so a call that computes only some
//! of a span's columns costs only those columns.
//!
//! Each call of [`conv2d_csc`] takes its input as a [`SpanDelta`] over a
//! baseline map and returns only the output span's columns;
//! [`conv2d_csc_cols`] computes only chosen ones of them. It
//!
//! 1. copies the input columns the chosen columns' windows read (the
//!    delta's inside its span, the baseline's outside it), and only those,
//!    into a zero-padded column-major tile: per channel, tile column `u`
//!    holds input column `x0 + u`, its padded rows dealt out by row phase
//!    (`y mod stride`) so every stride reads each tap's rows from one
//!    contiguous run. The tile row of every input row comes from a table,
//!    so the copy divides nothing;
//! 2. takes each nonzero's tile offset, that row table and the largest
//!    offset from the [`SparseConv`] the layer was placed into once for its
//!    input shape (the tile layout within a column does not depend on the
//!    span);
//! 3. runs [`simd::sparse_conv_layer`] once for the whole layer: one reach
//!    check and one dispatch, then, per register block of chosen output
//!    columns, every filter in turn, every output row of a column in
//!    [`LANES`]-row vectors, from the bias; the rows inside the map are
//!    stored.
//!
//! # Bit-identity contract
//!
//! [`conv2d_csc`] reproduces [`crate::conv::conv2d_reference`]
//! bit-for-bit. Every output element starts from the bias and receives one
//! masked `acc += w * x` per nonzero weight of its filter, in ascending
//! `(c, r, s)` order — the reference's order. Taps whose activation is zero
//! (including the zeros that stand for padding) are skipped lanewise by the
//! mask, exactly as the reference skips them, so both perform the same f32
//! additions in the same order. (Where dropping the mask provably changes
//! no bit, the register blocks drop it: see [`simd::sparse_conv_layer`].)

use crate::colspan::{ColSpan, SpanDelta};
use crate::conv::{conv_out_dim, same_pad, Conv2dCfg, Padding};
use crate::simd::{self, LANES};
use crate::{Shape3, Tensor3, Tensor4};

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
    /// Flat `(c, r, s)` tap index per surviving weight; once a
    /// [`SparseConv`] places the filters, its offset in the input tile.
    taps: Vec<u32>,
    /// Weight value per surviving weight.
    values: Vec<f32>,
    /// The largest entry of `taps` (0 when there is none): the bound of
    /// the kernel's reach check, which the AVX2 body's raw loads rely on,
    /// so it is recomputed whenever `taps` change.
    max_tap: u32,
    /// Whether every surviving weight is finite.
    finite: bool,
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
            max_tap: taps.iter().copied().max().unwrap_or(0),
            taps,
            finite: values.iter().all(|v| v.is_finite()),
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

    /// Filter `k`'s taps and values.
    #[inline]
    pub(crate) fn filter(&self, k: usize) -> (&[u32], &[f32]) {
        let nz = self.offsets[k] as usize..self.offsets[k + 1] as usize;
        (&self.taps[nz.clone()], &self.values[nz])
    }

    /// The largest tap (0 when there is none).
    pub(crate) fn max_tap(&self) -> u32 {
        self.max_tap
    }

    /// Whether every surviving weight is finite.
    pub(crate) fn finite(&self) -> bool {
        self.finite
    }
}

/// A sparse conv layer placed for one input shape: its filter-major
/// compaction with every nonzero keyed by its offset in the column-major
/// input tile [`conv2d_csc`] builds at that shape, instead of by its tap
/// index.
///
/// Every call at the shape uses one tile column layout, whatever its span:
/// a tile column holds every output row's reach, and a call lays out only
/// the columns its output columns read. So the tap-to-offset map, the
/// tile row of every input row and the largest offset (the kernel's reach
/// check) are found once, here, and never per call.
#[derive(Clone, Debug)]
pub struct SparseConv {
    /// The compaction, keyed by tile offset.
    filters: SparseFilters,
    in_shape: Shape3,
    stride: usize,
    out_h: usize,
    out_w: usize,
    pad_x: usize,
    /// Row vectors per output column: `out_h` rounded up to whole lanes.
    row_vecs: usize,
    /// Rows of one row phase of one tile column (the row vectors plus the
    /// kernel's reach past the last one).
    v_len: usize,
    /// Tile columns per channel: the widest span's reach.
    tile_w: usize,
    /// Per input row a tile column holds, in order, its row in the tile
    /// column. Rows past the last output row's reach are not held.
    row_at: Vec<u32>,
}

impl SparseConv {
    /// Compacts `weight` (layout `K x C x R x S`) and places it for
    /// `in_shape` inputs under `cfg`'s stride and padding.
    ///
    /// # Panics
    ///
    /// Panics if `weight` does not take `in_shape.c` input channels, if
    /// `cfg.stride == 0`, or if a tile's offsets would exceed `u32`.
    pub fn new(weight: &Tensor4, in_shape: Shape3, cfg: &Conv2dCfg) -> Self {
        let mut filters = SparseFilters::build(weight);
        assert!(cfg.stride > 0, "stride must be positive");
        assert_eq!(
            in_shape.c, filters.c,
            "input channels {} do not match weight channels {}",
            in_shape.c, filters.c
        );
        let (kr, ks, st) = (filters.r, filters.s, cfg.stride);
        let out_h = conv_out_dim(in_shape.h, kr, st, cfg.padding);
        let out_w = conv_out_dim(in_shape.w, ks, st, cfg.padding);
        let (pad_y, pad_x) = match cfg.padding {
            Padding::Same => (same_pad(in_shape.h, kr, st), same_pad(in_shape.w, ks, st)),
            Padding::Valid => (0, 0),
        };
        // Tile geometry. Output row p, column q_lo + j and tap (c, r, s)
        // read input row p*st + r - pad_y and column x0 + j*st + s, where
        // x0 = q_lo*st - pad_x. Per channel, tile column u holds input
        // column x0 + u as `st` row phases of `v_len` rows (phase g, row v
        // is input row v*st + g - pad_y), so that read is phase r % st,
        // row p + r / st. Rows are padded up to whole row vectors, and a
        // channel holds the columns of the widest (full-width) span.
        let row_vecs = out_h.div_ceil(LANES);
        let v_len = row_vecs * LANES + (kr - 1) / st;
        let col_len = st * v_len;
        let tile_w = (out_w.max(1) - 1) * st + ks;
        let chan_len = tile_w * col_len;
        assert!(
            chan_len
                .checked_mul(in_shape.c)
                .is_some_and(|len| len <= u32::MAX as usize),
            "input tile exceeds u32 offsets"
        );
        // The tile row of padded row t (input row t - pad_y) is phase
        // t % st, row t / st; every such index is below `col_len`.
        let at = |t: usize| ((t % st) * v_len + t / st) as u32;
        let mut tap_offset = Vec::with_capacity(in_shape.c * kr * ks);
        for c in 0..in_shape.c {
            for r in 0..kr {
                for s in 0..ks {
                    tap_offset.push((c * chan_len + s * col_len) as u32 + at(r));
                }
            }
        }
        for t in filters.taps.iter_mut() {
            *t = tap_offset[*t as usize];
        }
        filters.max_tap = filters.taps.iter().copied().max().unwrap_or(0);
        // Input rows a tile column holds: row y sits at padded row
        // y + pad_y, and rows past the last output row's reach are never
        // read.
        let rows = in_shape.h.min(col_len.saturating_sub(pad_y));
        SparseConv {
            filters,
            in_shape,
            stride: st,
            out_h,
            out_w,
            pad_x,
            row_vecs,
            v_len,
            tile_w,
            row_at: (pad_y..pad_y + rows).map(at).collect(),
        }
    }

    /// Floats in one tile column of one channel: its row phases.
    fn col_len(&self) -> usize {
        self.stride * self.v_len
    }

    /// Floats in one channel of the tile.
    fn chan_len(&self) -> usize {
        self.tile_w * self.col_len()
    }

    /// Kernel columns.
    pub fn kernel_w(&self) -> usize {
        self.filters.s
    }

    /// Horizontal (and vertical) stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero columns padded on the left of the input.
    pub fn pad_x(&self) -> usize {
        self.pad_x
    }

    /// Output map width.
    pub fn out_w(&self) -> usize {
        self.out_w
    }

    /// The output columns whose windows touch `in_span`: the span
    /// [`conv2d_csc`] returns for an input over it.
    pub fn out_span(&self, in_span: ColSpan) -> ColSpan {
        in_span.conv(self.filters.s, self.stride, self.pad_x, self.out_w)
    }
}

/// Output-stationary sparse × sparse convolution of a span delta: the
/// output columns reachable from `input`'s span, as a delta over the
/// output's own baseline.
///
/// `input` is read as a [`SpanDelta`] over `base`: the input columns the
/// output span's windows reach outside the delta's span come from `base`
/// (zeros when `None`). If `base` is the input of a reference run, the
/// returned columns are bit-identical to the same columns of
/// [`crate::conv::conv2d_reference`] on the whole map, and every other
/// output column equals the reference run's output (with `base == None`,
/// that is the bias).
///
/// # Panics
///
/// Panics if `input` or `base` does not have the shape `conv` is placed
/// for, or if `bias` does not hold one value per output channel.
pub fn conv2d_csc(
    input: &SpanDelta,
    base: Option<&Tensor3>,
    conv: &SparseConv,
    bias: Option<&[f32]>,
) -> SpanDelta {
    let cols: Vec<usize> = conv.out_span(input.span()).range().collect();
    conv2d_csc_cols(input, base, conv, bias, &cols)
}

/// [`conv2d_csc`], computing only the output columns `cols`: the returned
/// delta has [`conv2d_csc`]'s span, and its columns not in `cols` are
/// zero, for the caller to fill. Only the input columns their windows
/// read are laid out, and the register blocks take the columns as
/// listed, adjacent or not.
///
/// # Panics
///
/// As [`conv2d_csc`]; also if a column lies outside the output span.
pub fn conv2d_csc_cols(
    input: &SpanDelta,
    base: Option<&Tensor3>,
    conv: &SparseConv,
    bias: Option<&[f32]>,
    cols: &[usize],
) -> SpanDelta {
    let in_shape = input.shape();
    assert_eq!(
        in_shape, conv.in_shape,
        "input shape must be the one the conv is placed for"
    );
    if let Some(b) = base {
        assert_eq!(b.shape(), in_shape, "baseline shape must match the input");
    }
    let weights = &conv.filters;
    if let Some(b) = bias {
        assert_eq!(
            b.len(),
            weights.k(),
            "bias length must equal output channels"
        );
    }
    let out_span = conv.out_span(input.span());
    let (q_lo, span_w) = (out_span.lo(), out_span.width());
    assert!(
        cols.iter().all(|&q| out_span.contains(q)),
        "a column leaves the output span {out_span:?}"
    );
    let out_h = conv.out_h;
    let mut out = Tensor3::zeros(weights.k(), out_h, span_w);
    if out_h == 0 || cols.is_empty() {
        return SpanDelta::new(out_span, conv.out_w, out);
    }

    // The tile's columns start at input column x0 = q_lo*st - pad_x, and
    // output column q reads tile columns (q - q_lo)*st + s. Only those
    // columns are filled, each from the map column it holds (the delta's
    // inside its span, the baseline's outside it), at the tile rows of its
    // input rows. Columns outside the map are padding and stay zero, as do
    // all columns outside the span without a baseline.
    let (ks, st, col_len) = (weights.s(), conv.stride, conv.col_len());
    let (in_h, in_w) = (in_shape.h, in_shape.w);
    let x0 = (q_lo * st) as isize - conv.pad_x as isize;
    let mut read = vec![false; conv.tile_w];
    for &q in cols {
        let u = (q - q_lo) * st;
        read[u..u + ks].fill(true);
    }
    let (span_lo, delta_w) = (input.span().lo(), input.span().width());
    // Per filled tile column: its index, source data, source width and the
    // column it reads there.
    let fills: Vec<(usize, &[f32], usize, usize)> = (0..conv.tile_w)
        .filter(|&u| read[u])
        .filter_map(|u| {
            let x = usize::try_from(x0 + u as isize)
                .ok()
                .filter(|&x| x < in_w)?;
            if input.span().contains(x) {
                Some((u, input.cols().data(), delta_w, x - span_lo))
            } else {
                base.map(|b| (u, b.data(), in_w, x))
            }
        })
        .collect();
    let mut tile = vec![0.0f32; in_shape.c * conv.chan_len()];
    for &(u, src, src_w, x) in &fills {
        // Tile column `u` of each channel in turn, against that channel's
        // source plane, whose first rows are the ones the column holds.
        let columns = tile[u * col_len..].chunks_mut(conv.chan_len());
        for (column, plane) in columns.zip(src.chunks_exact(in_h * src_w)) {
            for (&t, row) in conv.row_at.iter().zip(plane.chunks_exact(src_w)) {
                column[t as usize] = row[x];
            }
        }
    }

    let plane = out_h * span_w;
    let js: Vec<usize> = cols.iter().map(|&q| q - q_lo).collect();
    let data = out.data_mut();
    simd::sparse_conv_layer(
        &tile,
        &js,
        st * col_len,
        conv.row_vecs,
        weights,
        bias,
        |k, j, v0, vecs| {
            let out_k = &mut data[k * plane..(k + 1) * plane];
            for (p, &v) in (v0 * LANES..out_h).zip(vecs.iter().flatten()) {
                out_k[p * span_w + j] = v;
            }
        },
    );
    SpanDelta::new(out_span, conv.out_w, out)
}

/// [`conv2d_csc`] over a whole map, with the weight compaction, placement
/// and span scan done on the fly — the dispatch target of
/// [`crate::conv::conv2d`] for sparse inputs and sparse weights (callers
/// with a reusable [`SparseConv`] should invoke the kernel directly).
/// Output columns the input's nonzero span cannot reach are the bias.
pub fn conv2d_sparse_csc(
    input: &Tensor3,
    weight: &Tensor4,
    bias: Option<&[f32]>,
    cfg: &Conv2dCfg,
) -> Tensor3 {
    let conv = SparseConv::new(weight, input.shape(), cfg);
    let delta = SpanDelta::of_cols(input, ColSpan::of_tensor(input));
    let span_out = conv2d_csc(&delta, None, &conv, bias);
    let shape = span_out.shape();
    let mut out = Tensor3::zeros(shape.c, shape.h, shape.w);
    if let Some(b) = bias {
        let plane = (shape.h * shape.w).max(1);
        for (k, chunk) in out.data_mut().chunks_exact_mut(plane).enumerate() {
            chunk.fill(b[k]);
        }
    }
    span_out.write_into(&mut out);
    out
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
            let (taps, vals) = filters.filter(k);
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
        for stride in [1, 2] {
            let cfg = Conv2dCfg::new(stride, Padding::Same);
            let mut base_in = Tensor3::zeros(2, 8, 8);
            for v in base_in.data_mut().iter_mut() {
                *v = rng.gen_range(-1.0..1.0);
            }
            let conv = SparseConv::new(&weight, Shape3::new(2, 8, 8), &cfg);
            let whole = |x: &Tensor3| {
                conv2d_csc(&SpanDelta::full(x.clone()), None, &conv, None).into_map(None)
            };
            let base_out = whole(&base_in);
            let mut patched = base_in.clone();
            for ch in 0..2 {
                for y in 0..8 {
                    patched.set(ch, y, 5, rng.gen_range(-1.0..1.0));
                }
            }
            let delta = SpanDelta::of_cols(&patched, ColSpan::new(5, 6));
            let incremental = conv2d_csc(&delta, Some(&base_in), &conv, None);
            assert!(
                incremental.span().width() < 8,
                "stride {stride}: span not narrowed"
            );
            let incremental = incremental.into_map(Some(&base_out));
            assert_eq!(
                bits(&incremental),
                bits(&whole(&patched)),
                "stride {stride}"
            );
        }
    }

    #[test]
    fn empty_span_returns_bias_planes() {
        let weight = pruned_weights(3, 1, 3, 3, 0.5, 4);
        let x = Tensor3::zeros(1, 5, 5);
        let bias = [1.0, -2.0, -0.0];
        let out = conv2d_sparse_csc(&x, &weight, Some(&bias), &Conv2dCfg::default());
        for (k, b) in bias.iter().enumerate() {
            assert!(out.data()[k * 25..(k + 1) * 25]
                .iter()
                .all(|v| v.to_bits() == b.to_bits()));
        }
    }
}

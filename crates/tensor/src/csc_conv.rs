//! Sparse-activation × sparse-weight convolution over CSC-compacted weights.
//!
//! The paper's victim accelerators (Eyeriss v2, SCNN) keep both operands in
//! compressed-sparse form and multiply only nonzero pairs; this module is the
//! corresponding compute model and the performance backbone of the prober hot
//! loop. Weights are compacted once into [`CscWeights`] — for every filter
//! tap position `(c, r, s)` the list of `(k, value)` entries that survive
//! pruning — and the kernel walks the nonzero input pixels, scattering each
//! into the output positions its taps reach.
//!
//! # Bit-identity contract
//!
//! [`conv2d_csc`] reproduces [`crate::conv::conv2d_reference`]
//! bit-for-bit: for every output element the surviving contributions are
//! accumulated in ascending `(c, r, s)` tap order starting from the bias.
//! Walking input pixels in ascending `(c, y, x)` guarantees that order,
//! because for a fixed output position ascending `y` is ascending `r` and
//! ascending `x` is ascending `s`. The scatter therefore performs the exact
//! same f32 additions in the exact same order as the reference loop nest.

use crate::colspan::ColSpan;
use crate::conv::{conv_out_dim, same_pad, Conv2dCfg, Padding};
use crate::{Tensor3, Tensor4};

/// Per-tap compressed-sparse-column encoding of a pruned weight tensor.
///
/// Entries are grouped by tap position `(c, r, s)` and sorted by output
/// channel `k` within each group; zero weights are elided with the same
/// exact `!= 0.0` test the dense kernels use for zero-skipping.
#[derive(Clone, Debug)]
pub struct CscWeights {
    k: usize,
    c: usize,
    r: usize,
    s: usize,
    /// Bucket boundaries per `(c, r, s)` tap, length `c*r*s + 1`.
    offsets: Vec<u32>,
    /// Output-channel index per surviving weight.
    filters: Vec<u32>,
    /// Weight value per surviving weight.
    values: Vec<f32>,
}

impl CscWeights {
    /// Compacts `weight` (layout `K x C x R x S`) into per-tap CSC lists.
    pub fn build(weight: &Tensor4) -> Self {
        let (k, c, r, s) = (weight.k(), weight.c(), weight.r(), weight.s());
        let taps = c * r * s;
        let mut counts = vec![0u32; taps + 1];
        let data = weight.data();
        for (idx, &v) in data.iter().enumerate() {
            if v != 0.0 {
                counts[idx % taps.max(1) + 1] += 1;
            }
        }
        for t in 1..counts.len() {
            counts[t] += counts[t - 1];
        }
        let offsets = counts;
        let nnz = *offsets.last().unwrap_or(&0) as usize;
        let mut filters = vec![0u32; nnz];
        let mut values = vec![0.0f32; nnz];
        let mut cursor = offsets.clone();
        // Ascending flat index is ascending k within each tap bucket (k is
        // the outermost weight dimension), keeping the lists k-sorted.
        for (idx, &v) in data.iter().enumerate() {
            if v != 0.0 {
                let bucket = idx % taps.max(1);
                let slot = cursor[bucket] as usize;
                filters[slot] = (idx / taps.max(1)) as u32;
                values[slot] = v;
                cursor[bucket] += 1;
            }
        }
        CscWeights {
            k,
            c,
            r,
            s,
            offsets,
            filters,
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

    /// Fraction of weights that survived pruning.
    pub fn density(&self) -> f64 {
        let total = self.k * self.c * self.r * self.s;
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// The `(k, value)` entries at tap `(c, r, s)`, k-ascending.
    #[inline]
    fn taps(&self, bucket: usize) -> (&[u32], &[f32]) {
        let lo = self.offsets[bucket] as usize;
        let hi = self.offsets[bucket + 1] as usize;
        (&self.filters[lo..hi], &self.values[lo..hi])
    }
}

/// Input-stationary sparse × sparse convolution restricted to the output
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
    weights: &CscWeights,
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

    let (kr, ks) = (weights.r(), weights.s());
    let out_h = conv_out_dim(input.h(), kr, cfg.stride, cfg.padding);
    let out_w = conv_out_dim(input.w(), ks, cfg.stride, cfg.padding);
    let (pad_y, pad_x) = match cfg.padding {
        Padding::Same => (
            same_pad(input.h(), kr, cfg.stride),
            same_pad(input.w(), ks, cfg.stride),
        ),
        Padding::Valid => (0, 0),
    };

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
                let plane = out_h * out_w;
                for (k, chunk) in t.data_mut().chunks_exact_mut(plane.max(1)).enumerate() {
                    chunk.fill(b[k]);
                }
            }
            t
        }
    };
    let out_span = in_span.clamp(input.w()).conv(ks, cfg.stride, pad_x, out_w);
    if out_h == 0 || out_w == 0 || out_span.is_empty() {
        return out;
    }

    // Reset the recomputed columns to the bias so accumulation starts from
    // the same value as the reference loop's `acc = bias[k]`.
    let plane = out_h * out_w;
    {
        let data = out.data_mut();
        for k in 0..weights.k() {
            let b = bias.map_or(0.0, |b| b[k]);
            for p in 0..out_h {
                let row = k * plane + p * out_w;
                data[row + out_span.lo()..row + out_span.hi()].fill(b);
            }
        }
    }

    // Per-row tap maps: which (r -> p) pairs exist for each input row y, and
    // which (s -> q) pairs land inside `out_span` for each input column x.
    // Both are built in ascending r / s order (the bit-identity contract).
    let rp: Vec<Vec<(usize, usize)>> = (0..input.h())
        .map(|y| {
            (0..kr)
                .filter_map(|r| {
                    let py = y as isize + pad_y as isize - r as isize;
                    if py < 0 || py % cfg.stride as isize != 0 {
                        return None;
                    }
                    let p = (py / cfg.stride as isize) as usize;
                    (p < out_h).then_some((r, p))
                })
                .collect()
        })
        .collect();
    // Input columns whose window can reach `out_span`.
    let x_lo = (out_span.lo() * cfg.stride).saturating_sub(pad_x);
    let x_hi = ((out_span.hi() - 1) * cfg.stride + ks - 1)
        .saturating_sub(pad_x)
        .min(input.w().saturating_sub(1));
    let sq: Vec<Vec<(usize, usize)>> = (x_lo..=x_hi)
        .map(|x| {
            (0..ks)
                .filter_map(|s| {
                    let qx = x as isize + pad_x as isize - s as isize;
                    if qx < 0 || qx % cfg.stride as isize != 0 {
                        return None;
                    }
                    let q = (qx / cfg.stride as isize) as usize;
                    out_span.contains(q).then_some((s, q))
                })
                .collect()
        })
        .collect();

    let in_w = input.w();
    let in_plane = input.h() * in_w;
    let in_data = input.data();
    let out_data = out.data_mut();
    let span_len = x_hi + 1 - x_lo;
    for c in 0..weights.c() {
        let tap_base_c = c * kr * ks;
        for (y, rps) in rp.iter().enumerate() {
            if rps.is_empty() {
                continue;
            }
            let row = &in_data[c * in_plane + y * in_w..c * in_plane + y * in_w + in_w];
            // Dense rows at stride 1 take a vectorized path: one masked
            // axpy per (tap, surviving weight) over the contiguous
            // output-x run. Per output element the contribution order is
            // (c asc, y asc == r asc, s asc) — exactly the scatter's
            // order — so both paths are bit-identical and the cutover
            // density is purely a speed heuristic. Sparse rows (the
            // probe-image regime) keep the pixel scatter, which skips
            // all taps of a zero pixel at the cost of one compare.
            if cfg.stride == 1 && span_len >= 8 {
                let nnz_in_span = crate::nnz(&row[x_lo..=x_hi]);
                if nnz_in_span * 4 >= span_len {
                    for &(r, p) in rps {
                        let out_row = p * out_w;
                        let tap_base = tap_base_c + r * ks;
                        for s in 0..ks {
                            // Output-x range reaching tap s from columns
                            // in [x_lo, x_hi] (q = x + pad_x - s) inside
                            // the recomputed span.
                            let q_lo = out_span.lo().max((x_lo + pad_x).saturating_sub(s));
                            let q_hi = out_span.hi().min((x_hi + pad_x + 1).saturating_sub(s));
                            if q_lo >= q_hi {
                                continue;
                            }
                            let x_first = q_lo + s - pad_x;
                            let (ks_list, wv_list) = weights.taps(tap_base + s);
                            for (&k, &wv) in ks_list.iter().zip(wv_list) {
                                let dst = k as usize * plane + out_row;
                                crate::simd::axpy_nonzero(
                                    &mut out_data[dst + q_lo..dst + q_hi],
                                    &row[x_first..x_first + (q_hi - q_lo)],
                                    wv,
                                );
                            }
                        }
                    }
                    continue;
                }
            }
            for x in x_lo..=x_hi {
                let xv = row[x];
                if xv == 0.0 {
                    continue; // activation zero-skipping
                }
                let sqs = &sq[x - x_lo];
                if sqs.is_empty() {
                    continue;
                }
                for &(r, p) in rps {
                    let out_row = p * out_w;
                    let tap_base = tap_base_c + r * ks;
                    for &(s, q) in sqs {
                        let (ks_list, wv_list) = weights.taps(tap_base + s);
                        let dst = out_row + q;
                        for (&k, &wv) in ks_list.iter().zip(wv_list) {
                            out_data[k as usize * plane + dst] += wv * xv;
                        }
                    }
                }
            }
        }
    }
    out
}

/// [`conv2d_csc`] with the weight compaction and span scan done on the fly —
/// the dispatch target for one-shot sparse-input convolutions (callers with
/// a reusable [`CscWeights`] should invoke the kernel directly).
pub fn conv2d_sparse_csc(
    input: &Tensor3,
    weight: &Tensor4,
    bias: Option<&[f32]>,
    cfg: &Conv2dCfg,
) -> Tensor3 {
    let csc = CscWeights::build(weight);
    conv2d_csc(input, &csc, bias, cfg, ColSpan::of_tensor(input), None)
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

    #[test]
    fn csc_roundtrips_every_tap() {
        let w = pruned_weights(5, 3, 3, 3, 0.4, 9);
        let csc = CscWeights::build(&w);
        assert_eq!(csc.nnz(), w.nnz());
        let mut rebuilt = Tensor4::zeros(5, 3, 3, 3);
        for c in 0..3 {
            for r in 0..3 {
                for s in 0..3 {
                    let (ks_list, vs) = csc.taps((c * 3 + r) * 3 + s);
                    let mut prev = None;
                    for (&k, &v) in ks_list.iter().zip(vs) {
                        assert!(prev.is_none_or(|p| p < k), "k order not ascending");
                        prev = Some(k);
                        rebuilt.set(k as usize, c, r, s, v);
                    }
                }
            }
        }
        assert_eq!(rebuilt.data(), w.data());
    }

    #[test]
    fn matches_reference_bitwise_on_random_shapes() {
        let mut rng = StdRng::seed_from_u64(0xC5C);
        for case in 0..40u64 {
            let (c, h, w) = (
                rng.gen_range(1..4usize),
                rng.gen_range(1..9usize),
                rng.gen_range(1..9usize),
            );
            let k = rng.gen_range(1..5usize);
            let kr = rng.gen_range(1..4usize);
            let stride = rng.gen_range(1..3usize);
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
            assert_eq!(want.data(), got.data(), "bitwise divergence in case {case}");
        }
    }

    #[test]
    fn incremental_recompute_matches_full_run() {
        // A baseline computed on one input, patched with a single dirty
        // column, must equal the from-scratch result bit-for-bit.
        let mut rng = StdRng::seed_from_u64(0x1D1);
        let weight = pruned_weights(6, 2, 3, 3, 0.5, 0x51);
        let csc = CscWeights::build(&weight);
        let cfg = Conv2dCfg::new(1, Padding::Same);
        let mut base_in = Tensor3::zeros(2, 8, 8);
        for v in base_in.data_mut().iter_mut() {
            *v = rng.gen_range(-1.0..1.0);
        }
        let base_out = conv2d_csc(&base_in, &csc, None, &cfg, ColSpan::full(8), None);
        let mut patched = base_in.clone();
        for ch in 0..2 {
            for y in 0..8 {
                patched.set(ch, y, 5, rng.gen_range(-1.0..1.0));
            }
        }
        let incremental = conv2d_csc(
            &patched,
            &csc,
            None,
            &cfg,
            ColSpan::new(5, 6),
            Some(&base_out),
        );
        let full = conv2d_csc(&patched, &csc, None, &cfg, ColSpan::full(8), None);
        assert_eq!(incremental.data(), full.data());
    }

    #[test]
    fn empty_span_returns_bias_planes() {
        let weight = pruned_weights(3, 1, 3, 3, 0.5, 4);
        let x = Tensor3::zeros(1, 5, 5);
        let csc = CscWeights::build(&weight);
        let out = conv2d_csc(
            &x,
            &csc,
            Some(&[1.0, -2.0, 0.5]),
            &Conv2dCfg::default(),
            ColSpan::empty(),
            None,
        );
        for k in 0..3 {
            let b = [1.0, -2.0, 0.5][k];
            assert!(out.data()[k * 25..(k + 1) * 25].iter().all(|&v| v == b));
        }
    }
}

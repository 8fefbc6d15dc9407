//! Pooling kernels (max / average) and their gradients.

use crate::colspan::SpanDelta;
use crate::simd::{self, PoolRows, PoolTap};
use crate::Tensor3;

/// Pooling flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Arithmetic mean over the window.
    Avg,
}

/// Non-overlapping symmetric pooling: window `factor x factor`, stride
/// `factor` (the paper's `POOL_X = POOL_Y` model, Eq. 2), of the map
/// `input` holds over `base`. Returns the output columns whose windows
/// touch `input`'s span, as a delta over the output's own baseline: a full
/// span pools the whole map; a narrower one over the input of a reference
/// run gives the bits the whole map's pool has there, and the reference
/// run's pool everywhere else.
///
/// Each window is folded row by row, left to right: the max from `-inf`
/// by [`simd::max_rule`], the average as a sum from `+0.0` divided by the
/// area. Trailing rows/columns that do not fill a complete window are
/// dropped, matching PyTorch's default (`ceil_mode = False`).
///
/// # Panics
///
/// Panics if `factor == 0`, `base` does not have the input's shape, or
/// the input has more than `u32::MAX` rows (channels times height).
///
/// # Examples
///
/// ```
/// use hd_tensor::{colspan::SpanDelta, Tensor3, pool::{pool2d, PoolKind}};
///
/// let x = SpanDelta::full(Tensor3::from_vec(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]));
/// assert_eq!(pool2d(&x, None, 2, PoolKind::Max).cols().data(), &[4.0]);
/// assert_eq!(pool2d(&x, None, 2, PoolKind::Avg).cols().data(), &[2.5]);
/// ```
pub fn pool2d(
    input: &SpanDelta,
    base: Option<&Tensor3>,
    factor: usize,
    kind: PoolKind,
) -> SpanDelta {
    assert!(factor > 0, "pool factor must be positive");
    let shape = input.shape();
    if let Some(b) = base {
        assert_eq!(b.shape(), shape, "baseline shape must match the input");
    }
    if factor == 1 {
        return input.clone();
    }
    let (out_h, out_w) = (shape.h / factor, shape.w / factor);
    let span = input.span().pool(factor, out_w);
    let sw = span.width();
    let mut out = Tensor3::zeros(shape.c, out_h, sw);
    if sw == 0 {
        return SpanDelta::new(span, out_w, out);
    }
    // The sources of every output column's window, `(dy, dx)` in row-major
    // order: a delta column inside the input's span, else a baseline
    // column, else zero. They depend only on the span, so each is resolved
    // once here and then read down every output row.
    let (in_span, dw) = (input.span(), input.span().width());
    let mut taps = Vec::with_capacity(sw * factor * factor);
    for q in span.range() {
        for dy in 0..factor {
            for x in q * factor..(q + 1) * factor {
                taps.push(if in_span.contains(x) {
                    PoolTap::new(input.cols().data(), dw, dy * dw + x - in_span.lo())
                } else if let Some(b) = base {
                    PoolTap::new(b.data(), shape.w, dy * shape.w + x)
                } else {
                    PoolTap::zero()
                });
            }
        }
    }
    let rows = PoolRows::new(shape.c, shape.h, factor);
    let area = (factor * factor) as f32;
    let mut col = vec![0.0f32; rows.len()];
    for (j, window) in taps.chunks_exact(factor * factor).enumerate() {
        let dst = out.data_mut().chunks_exact_mut(sw).map(|row| &mut row[j]);
        match kind {
            PoolKind::Max => {
                simd::pool_max_fold(&rows, window, &mut col);
                dst.zip(&col).for_each(|(d, &v)| *d = v);
            }
            PoolKind::Avg => {
                simd::pool_sum_fold(&rows, window, &mut col);
                dst.zip(&col).for_each(|(d, &v)| *d = v / area);
            }
        }
    }
    SpanDelta::new(span, out_w, out)
}

/// Global average pooling: collapses each channel to a single value.
pub fn global_avg_pool(input: &Tensor3) -> Vec<f32> {
    let area = (input.h() * input.w()).max(1) as f32;
    (0..input.c())
        .map(|c| {
            let mut sum = 0.0;
            for y in 0..input.h() {
                for x in 0..input.w() {
                    sum += input.at(c, y, x);
                }
            }
            sum / area
        })
        .collect()
}

/// Backward pass of [`pool2d`] over the full map: routes the upstream gradient to the argmax
/// (for max pooling) or spreads it evenly (for average pooling).
pub fn pool2d_backward(
    grad_out: &Tensor3,
    input: &Tensor3,
    factor: usize,
    kind: PoolKind,
) -> Tensor3 {
    assert!(factor > 0, "pool factor must be positive");
    if factor == 1 {
        return grad_out.clone();
    }
    let mut grad_in = Tensor3::zeros(input.c(), input.h(), input.w());
    for c in 0..grad_out.c() {
        for p in 0..grad_out.h() {
            for q in 0..grad_out.w() {
                let g = grad_out.at(c, p, q);
                if g == 0.0 {
                    continue;
                }
                match kind {
                    PoolKind::Max => {
                        let mut best = f32::NEG_INFINITY;
                        let mut by = 0;
                        let mut bx = 0;
                        for dy in 0..factor {
                            for dx in 0..factor {
                                let v = input.at(c, p * factor + dy, q * factor + dx);
                                if v > best {
                                    best = v;
                                    by = p * factor + dy;
                                    bx = q * factor + dx;
                                }
                            }
                        }
                        let idx = grad_in.shape().index(c, by, bx);
                        grad_in.data_mut()[idx] += g;
                    }
                    PoolKind::Avg => {
                        let share = g / (factor * factor) as f32;
                        for dy in 0..factor {
                            for dx in 0..factor {
                                let idx =
                                    grad_in.shape().index(c, p * factor + dy, q * factor + dx);
                                grad_in.data_mut()[idx] += share;
                            }
                        }
                    }
                }
            }
        }
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(x: &Tensor3, factor: usize, kind: PoolKind) -> Tensor3 {
        pool2d(&SpanDelta::full(x.clone()), None, factor, kind).into_map(None)
    }

    #[test]
    fn max_pool_2x2() {
        let x = Tensor3::from_vec(1, 4, 4, (1..=16).map(|v| v as f32).collect());
        let y = pool(&x, 2, PoolKind::Max);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn avg_pool_2x2() {
        let x = Tensor3::from_vec(1, 2, 4, vec![1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0]);
        let y = pool(&x, 2, PoolKind::Avg);
        assert_eq!(y.data(), &[6.0, 10.0]);
    }

    #[test]
    fn factor_one_is_identity() {
        let x = Tensor3::from_vec(1, 2, 2, vec![1.0, -2.0, -0.0, -4.0]);
        assert_eq!(pool(&x, 1, PoolKind::Max).data(), x.data());
        assert_eq!(
            pool(&x, 1, PoolKind::Avg).data()[2].to_bits(),
            (-0.0f32).to_bits()
        );
    }

    #[test]
    fn odd_trailing_edge_dropped() {
        let x = Tensor3::full(1, 5, 5, 1.0);
        let y = pool(&x, 2, PoolKind::Max);
        assert_eq!((y.h(), y.w()), (2, 2));
    }

    #[test]
    fn global_avg() {
        let x = Tensor3::from_vec(2, 1, 2, vec![1.0, 3.0, 10.0, 30.0]);
        assert_eq!(global_avg_pool(&x), vec![2.0, 20.0]);
    }

    #[test]
    fn span_reads_its_windows_through_the_baseline() {
        use crate::ColSpan;
        let x = Tensor3::from_vec(1, 2, 6, (1..=12).map(|v| v as f32).collect());
        let base = Tensor3::full(1, 2, 6, 100.0);
        for kind in [PoolKind::Max, PoolKind::Avg] {
            let full = pool(&x, 2, kind);
            // Column 3's window also reads column 2, from the baseline.
            let delta = SpanDelta::of_cols(&x, ColSpan::new(3, 4));
            let got = pool2d(&delta, Some(&base), 2, kind);
            assert_eq!(got.span(), ColSpan::new(1, 2));
            let mut mixed = base.clone();
            delta.write_into(&mut mixed);
            let got = got.into_map(Some(&pool(&base, 2, kind)));
            assert_eq!(got, pool(&mixed, 2, kind));
            assert_ne!(got.at(0, 0, 1), full.at(0, 0, 1));
        }
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor3::from_vec(1, 2, 2, vec![1.0, 9.0, 3.0, 4.0]);
        let g = Tensor3::from_vec(1, 1, 1, vec![5.0]);
        let gi = pool2d_backward(&g, &x, 2, PoolKind::Max);
        assert_eq!(gi.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_pool_backward_spreads() {
        let x = Tensor3::zeros(1, 2, 2);
        let g = Tensor3::from_vec(1, 1, 1, vec![4.0]);
        let gi = pool2d_backward(&g, &x, 2, PoolKind::Avg);
        assert_eq!(gi.data(), &[1.0, 1.0, 1.0, 1.0]);
    }
}

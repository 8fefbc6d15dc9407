//! Pooling kernels (max / average) and their gradients.

use crate::colspan::ColSpan;
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
/// `factor` (the paper's `POOL_X = POOL_Y` model, Eq. 2), written into the
/// `span` columns of `out`; the other columns of `out` are left as they
/// are. A full span over a zeroed `out` pools the whole map; a narrower
/// span over the pool of a reference input that agrees with `input`
/// outside `span`'s pre-image gives the same bits as pooling the full map.
///
/// Trailing rows/columns that do not fill a complete window are dropped,
/// matching PyTorch's default (`ceil_mode = False`).
///
/// # Panics
///
/// Panics if `factor == 0` or `out` does not have the pooled shape.
///
/// # Examples
///
/// ```
/// use hd_tensor::{ColSpan, Tensor3, pool::{pool2d, PoolKind}};
///
/// let x = Tensor3::from_vec(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let mut out = Tensor3::zeros(1, 1, 1);
/// pool2d(&x, 2, PoolKind::Max, ColSpan::full(1), &mut out);
/// assert_eq!(out.data(), &[4.0]);
/// pool2d(&x, 2, PoolKind::Avg, ColSpan::full(1), &mut out);
/// assert_eq!(out.data(), &[2.5]);
/// ```
pub fn pool2d(input: &Tensor3, factor: usize, kind: PoolKind, span: ColSpan, out: &mut Tensor3) {
    assert!(factor > 0, "pool factor must be positive");
    let (out_h, out_w) = (input.h() / factor, input.w() / factor);
    assert_eq!(
        (out.c(), out.h(), out.w()),
        (input.c(), out_h, out_w),
        "output shape must match the pooled input"
    );
    if factor == 1 {
        out.copy_cols(input, span);
        return;
    }
    let span = span.clamp(out_w);
    for c in 0..input.c() {
        for p in 0..out_h {
            for q in span.lo()..span.hi() {
                let mut best = f32::NEG_INFINITY;
                let mut sum = 0.0;
                for dy in 0..factor {
                    for dx in 0..factor {
                        let v = input.at(c, p * factor + dy, q * factor + dx);
                        best = best.max(v);
                        sum += v;
                    }
                }
                let v = match kind {
                    PoolKind::Max => best,
                    PoolKind::Avg => sum / (factor * factor) as f32,
                };
                out.set(c, p, q, v);
            }
        }
    }
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
        let mut out = Tensor3::zeros(x.c(), x.h() / factor, x.w() / factor);
        pool2d(x, factor, kind, ColSpan::full(out.w()), &mut out);
        out
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
    fn span_patches_only_its_columns() {
        let x = Tensor3::from_vec(1, 2, 6, (1..=12).map(|v| v as f32).collect());
        for kind in [PoolKind::Max, PoolKind::Avg] {
            let full = pool(&x, 2, kind);
            let baseline = Tensor3::full(1, 1, 3, -7.0);
            let mut partial = baseline.clone();
            pool2d(&x, 2, kind, ColSpan::new(1, 2), &mut partial);
            assert_eq!(partial.at(0, 0, 1), full.at(0, 0, 1));
            assert_eq!(partial.at(0, 0, 0), baseline.at(0, 0, 0));
            assert_eq!(partial.at(0, 0, 2), baseline.at(0, 0, 2));
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

//! Nonzero-column interval tracking for stripe-probe inference.
//!
//! Every HuffDuff probe image is a vertical stripe: exactly one nonzero
//! column. After `L` conv/pool layers the stripe's receptive field is still a
//! narrow contiguous band of columns, so a forward pass that knows the band
//! can skip the (unchanged) rest of each activation map. [`ColSpan`] is the
//! half-open column interval `[lo, hi)` that carries that knowledge through
//! the network:
//!
//! * [`ColSpan::conv`] widens the interval by the kernel footprint (the exact
//!   set of output columns whose input window intersects the interval),
//! * [`ColSpan::pool`] divides it by the pooling factor,
//! * [`ColSpan::union`] merges the intervals of residual-add operands,
//! * element-wise ops (ReLU, batch-norm, bias) keep the interval unchanged —
//!   the interval tracks where the activation may *differ from the
//!   zero-input baseline*, and column-local element-wise ops map equal
//!   inputs to equal outputs.
//!
//! The interval is conservative (a superset of the truly-dirty columns), so
//! consumers may recompute more than strictly necessary but never less.

use crate::{Shape3, Tensor3};
use std::ops::Range;

/// Half-open interval `[lo, hi)` of activation-map columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ColSpan {
    lo: usize,
    hi: usize,
}

impl ColSpan {
    /// The empty interval.
    pub fn empty() -> Self {
        ColSpan { lo: 0, hi: 0 }
    }

    /// Interval `[lo, hi)`; collapses to [`ColSpan::empty`] when `lo >= hi`.
    pub fn new(lo: usize, hi: usize) -> Self {
        if lo >= hi {
            ColSpan::empty()
        } else {
            ColSpan { lo, hi }
        }
    }

    /// The full width of a `w`-column map.
    pub fn full(w: usize) -> Self {
        ColSpan::new(0, w)
    }

    /// Tight interval covering every column of `t` holding a value whose
    /// bits differ from `+0.0`.
    ///
    /// The test is on bits, not `!= 0.0`: a column of `-0.0` is not the
    /// zero-input baseline's column, because max pooling, ReLU and adds
    /// keep its sign. Denormals count for the same reason — anything that
    /// can reach an output bit must stay inside the span.
    pub fn of_tensor(t: &Tensor3) -> Self {
        let w = t.w();
        let mut lo = w;
        let mut hi = 0;
        for row in t.data().chunks_exact(w.max(1)) {
            if let Some(first) = row.iter().position(|v| v.to_bits() != 0) {
                let last = row.iter().rposition(|v| v.to_bits() != 0).unwrap_or(first);
                lo = lo.min(first);
                hi = hi.max(last + 1);
            }
        }
        ColSpan::new(lo, hi)
    }

    /// Whether no column is covered.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// First covered column (meaningless when empty).
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// One past the last covered column.
    pub fn hi(&self) -> usize {
        self.hi
    }

    /// Number of covered columns.
    pub fn width(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether `col` lies inside the interval.
    pub fn contains(&self, col: usize) -> bool {
        self.lo <= col && col < self.hi
    }

    /// Smallest interval covering both operands (for residual adds).
    pub fn union(self, other: ColSpan) -> ColSpan {
        match (self.is_empty(), other.is_empty()) {
            (true, _) => other,
            (_, true) => self,
            _ => ColSpan::new(self.lo.min(other.lo), self.hi.max(other.hi)),
        }
    }

    /// Clamps the interval to a `w`-column map.
    pub fn clamp(self, w: usize) -> ColSpan {
        ColSpan::new(self.lo.min(w), self.hi.min(w))
    }

    /// The flat index runs of the span's columns in a `shape` map, each
    /// with its channel, in storage order: one run per row, or one per
    /// channel plane when the span covers every column.
    pub fn runs(self, shape: Shape3) -> impl Iterator<Item = (usize, Range<usize>)> {
        let span = self.clamp(shape.w);
        let (per_c, len, lo, hi) = if span.width() == shape.w {
            (1, shape.h * shape.w, 0, shape.h * shape.w)
        } else {
            (shape.h, shape.w, span.lo, span.hi)
        };
        (0..shape.c * per_c).map(move |run| (run / per_c, run * len + lo..run * len + hi))
    }

    /// Output columns of a convolution whose input window touches `self`.
    ///
    /// A kernel with `s_taps` horizontal taps, stride `stride` and left
    /// padding `pad_x` reads input columns `q*stride - pad_x ..=
    /// q*stride - pad_x + s_taps - 1` for output column `q`; the result is
    /// exactly the `q` range (clamped to `out_w`) for which that window
    /// intersects `[lo, hi)`.
    pub fn conv(self, s_taps: usize, stride: usize, pad_x: usize, out_w: usize) -> ColSpan {
        assert!(stride > 0, "stride must be positive");
        assert!(s_taps > 0, "kernel must have at least one tap");
        if self.is_empty() || out_w == 0 {
            return ColSpan::empty();
        }
        // q*stride - pad_x <= hi-1  and  q*stride - pad_x + s_taps - 1 >= lo.
        let q_lo = {
            let num = self.lo as isize + pad_x as isize - (s_taps as isize - 1);
            if num <= 0 {
                0
            } else {
                (num as usize).div_ceil(stride)
            }
        };
        let q_hi = (self.hi - 1 + pad_x) / stride + 1;
        ColSpan::new(q_lo, q_hi).clamp(out_w)
    }

    /// Output columns of a non-overlapping `factor`-pool touching `self`.
    pub fn pool(self, factor: usize, out_w: usize) -> ColSpan {
        assert!(factor > 0, "pool factor must be positive");
        if self.is_empty() {
            return ColSpan::empty();
        }
        ColSpan::new(self.lo / factor, (self.hi - 1) / factor + 1).clamp(out_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_tensor_finds_tight_bounds() {
        let mut t = Tensor3::zeros(2, 4, 9);
        t.set(0, 1, 3, 1.0);
        t.set(1, 3, 6, -2.0);
        let s = ColSpan::of_tensor(&t);
        assert_eq!((s.lo(), s.hi()), (3, 7));
        assert_eq!(s.width(), 4);
    }

    #[test]
    fn of_tensor_counts_negative_zero_columns() {
        let mut t = Tensor3::zeros(1, 2, 6);
        t.set(0, 0, 1, -0.0);
        t.set(0, 1, 4, 1e-40);
        let s = ColSpan::of_tensor(&t);
        assert_eq!((s.lo(), s.hi()), (1, 5));
    }

    #[test]
    fn runs_cover_the_span_columns_of_every_row() {
        let runs: Vec<_> = ColSpan::new(1, 3).runs(Shape3::new(2, 2, 4)).collect();
        assert_eq!(runs, vec![(0, 1..3), (0, 5..7), (1, 9..11), (1, 13..15)]);
        let right: Vec<_> = ColSpan::new(2, 9).runs(Shape3::new(1, 2, 4)).collect();
        assert_eq!(right, vec![(0, 2..4), (0, 6..8)]);
        let full: Vec<_> = ColSpan::new(0, 9).runs(Shape3::new(2, 2, 4)).collect();
        assert_eq!(full, vec![(0, 0..8), (1, 8..16)]);
    }

    #[test]
    fn of_tensor_zero_map_is_empty() {
        assert!(ColSpan::of_tensor(&Tensor3::zeros(3, 5, 5)).is_empty());
        assert!(ColSpan::of_tensor(&Tensor3::zeros(1, 2, 0)).is_empty());
    }

    #[test]
    fn conv_same_padding_widens_by_kernel_radius() {
        // 3-tap kernel, stride 1, pad 1: column 5 reaches outputs 4..=6.
        let s = ColSpan::new(5, 6).conv(3, 1, 1, 12);
        assert_eq!((s.lo(), s.hi()), (4, 7));
    }

    #[test]
    fn conv_valid_padding_shifts_left() {
        // 3-tap kernel, no padding: column 5 reaches outputs 3..=5.
        let s = ColSpan::new(5, 6).conv(3, 1, 0, 10);
        assert_eq!((s.lo(), s.hi()), (3, 6));
    }

    #[test]
    fn conv_stride_two_downsamples() {
        // W=12, S=3, stride 2, same pad 0: x=5 is read only by q=2.
        let s = ColSpan::new(5, 6).conv(3, 2, 0, 6);
        assert_eq!((s.lo(), s.hi()), (2, 3));
    }

    #[test]
    fn conv_clamps_to_output_width() {
        let s = ColSpan::new(0, 12).conv(5, 1, 2, 12);
        assert_eq!((s.lo(), s.hi()), (0, 12));
        let left_edge = ColSpan::new(0, 1).conv(5, 1, 2, 12);
        assert_eq!((left_edge.lo(), left_edge.hi()), (0, 3));
    }

    #[test]
    fn conv_matches_bruteforce_enumeration() {
        // Exhaustively check the interval against the kernels' own window
        // arithmetic over small shapes, strides, and paddings.
        for w in 1..10usize {
            for s_taps in 1..5usize {
                for stride in 1..4usize {
                    for pad in 0..s_taps {
                        let out_w = (w + pad).div_ceil(stride).max(1);
                        for lo in 0..w {
                            for hi in lo + 1..=w {
                                let span = ColSpan::new(lo, hi).conv(s_taps, stride, pad, out_w);
                                for q in 0..out_w {
                                    let touches = (0..s_taps).any(|t| {
                                        let x = q as isize * stride as isize + t as isize
                                            - pad as isize;
                                        x >= 0 && (x as usize) >= lo && (x as usize) < hi
                                    });
                                    assert_eq!(
                                        span.contains(q),
                                        touches,
                                        "w={w} S={s_taps} stride={stride} pad={pad} \
                                         [{lo},{hi}) q={q}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pool_divides_and_drops_partial_tail() {
        let s = ColSpan::new(4, 7).pool(2, 3);
        assert_eq!((s.lo(), s.hi()), (2, 3)); // column 6 is in the dropped tail for out_w=3
        let s = ColSpan::new(5, 6).pool(2, 8);
        assert_eq!((s.lo(), s.hi()), (2, 3));
    }

    #[test]
    fn union_and_empty_identities() {
        let a = ColSpan::new(2, 4);
        let b = ColSpan::new(7, 9);
        assert_eq!(a.union(b), ColSpan::new(2, 9));
        assert_eq!(a.union(ColSpan::empty()), a);
        assert_eq!(ColSpan::empty().union(b), b);
        assert!(ColSpan::new(3, 3).is_empty());
    }
}

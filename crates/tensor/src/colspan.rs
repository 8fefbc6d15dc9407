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
//!
//! A [`SpanDelta`] is an activation map held as just its span's columns:
//! every other column is a baseline map's. The span kernels
//! ([`crate::csc_conv::conv2d_csc`], [`crate::pool::pool2d`]) read their
//! input through it and write only their output span.

use crate::{Shape3, Tensor3};
use std::borrow::Cow;
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

    /// The covered columns as a range.
    pub fn range(self) -> Range<usize> {
        self.lo..self.hi
    }
}

/// A `c x h x w` map held as the columns of one [`ColSpan`]: a
/// `c x h x span.width()` tensor. Every column outside the span is a
/// baseline map's, or zero where no baseline is given.
///
/// A full span holds the map itself, so a full-width walk moves its maps
/// through deltas without copying them.
#[derive(Clone, Debug)]
pub struct SpanDelta {
    span: ColSpan,
    w: usize,
    cols: Tensor3,
}

impl SpanDelta {
    /// The delta holding `cols` as the `span` columns of a `w`-column map.
    ///
    /// # Panics
    ///
    /// Panics if `span` reaches past `w` or `cols` is not `span.width()`
    /// columns wide.
    pub fn new(span: ColSpan, w: usize, cols: Tensor3) -> Self {
        assert!(span.hi() <= w, "span {span:?} exceeds a {w}-column map");
        assert_eq!(cols.w(), span.width(), "delta width must match its span");
        SpanDelta { span, w, cols }
    }

    /// The whole of `map`, moved in without a copy.
    pub fn full(map: Tensor3) -> Self {
        SpanDelta {
            span: ColSpan::full(map.w()),
            w: map.w(),
            cols: map,
        }
    }

    /// The `span` columns of `map` (clamped to its width), copied.
    pub fn of_cols(map: &Tensor3, span: ColSpan) -> Self {
        let span = span.clamp(map.w());
        let (lo, sw) = (span.lo(), span.width());
        let mut cols = Tensor3::zeros(map.c(), map.h(), sw);
        if sw > 0 {
            let rows = map.data().chunks_exact(map.w());
            for (dst, src) in cols.data_mut().chunks_exact_mut(sw).zip(rows) {
                dst.copy_from_slice(&src[lo..lo + sw]);
            }
        }
        SpanDelta::new(span, map.w(), cols)
    }

    /// The `span` columns of `map`: moved in when the span covers it.
    pub fn from_map(map: Tensor3, span: ColSpan) -> Self {
        if span.clamp(map.w()).width() == map.w() {
            SpanDelta::full(map)
        } else {
            SpanDelta::of_cols(&map, span)
        }
    }

    /// The held columns.
    pub fn span(&self) -> ColSpan {
        self.span
    }

    /// Shape of the whole map.
    pub fn shape(&self) -> Shape3 {
        Shape3::new(self.cols.c(), self.cols.h(), self.w)
    }

    /// Whether the span covers the whole map.
    pub fn is_full(&self) -> bool {
        self.span.width() == self.w
    }

    /// The span's columns, `c x h x span.width()`.
    pub fn cols(&self) -> &Tensor3 {
        &self.cols
    }

    /// The span's columns, mutably.
    pub fn cols_mut(&mut self) -> &mut Tensor3 {
        &mut self.cols
    }

    /// Value at `(c, y, x)` of the map over `base`.
    pub fn at(&self, base: Option<&Tensor3>, c: usize, y: usize, x: usize) -> f32 {
        if self.span.contains(x) {
            self.cols.at(c, y, x - self.span.lo())
        } else {
            base.map_or(0.0, |b| b.at(c, y, x))
        }
    }

    /// Copies columns `xs` of row `(c, y)` of the map over `base` into
    /// `dst`: the span's part from the delta, the rest from `base`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not `xs.len()` long, `xs` reaches past the map,
    /// or `base` does not have the map's shape.
    pub fn read_row(
        &self,
        base: Option<&Tensor3>,
        c: usize,
        y: usize,
        xs: Range<usize>,
        dst: &mut [f32],
    ) {
        assert_eq!(dst.len(), xs.len(), "row destination length");
        assert!(xs.end <= self.w, "row columns exceed the map");
        let (span_lo, sw) = (self.span.lo(), self.span.width());
        let row = c * self.cols.h() + y;
        // The span's part of `xs`, as `lo..hi` (empty when they miss).
        let lo = span_lo.clamp(xs.start, xs.end);
        let hi = self.span.hi().clamp(lo, xs.end);
        if hi > lo {
            let at = row * sw + lo - span_lo;
            dst[lo - xs.start..hi - xs.start]
                .copy_from_slice(&self.cols.data()[at..at + (hi - lo)]);
        }
        if lo == xs.start && hi == xs.end {
            return;
        }
        let (left, right) = (xs.start..lo, hi..xs.end);
        match base {
            Some(b) => {
                assert_eq!(b.shape(), self.shape(), "baseline shape must match the map");
                let b_row = &b.data()[row * self.w..(row + 1) * self.w];
                dst[..left.len()].copy_from_slice(&b_row[left.clone()]);
                dst[hi - xs.start..].copy_from_slice(&b_row[right]);
            }
            None => {
                dst[..left.len()].fill(0.0);
                dst[hi - xs.start..].fill(0.0);
            }
        }
    }

    /// Overwrites the span's columns of `map` with the delta's.
    ///
    /// # Panics
    ///
    /// Panics if `map` does not have the delta's shape.
    pub fn write_into(&self, map: &mut Tensor3) {
        assert_eq!(map.shape(), self.shape(), "map shape must match the delta");
        let (lo, sw) = (self.span.lo(), self.span.width());
        if sw == 0 {
            return;
        }
        let rows = map.data_mut().chunks_exact_mut(self.w);
        for (dst, src) in rows.zip(self.cols.data().chunks_exact(sw)) {
            dst[lo..lo + sw].copy_from_slice(src);
        }
    }

    /// The whole map over `base`: borrowed when the span covers it, else
    /// a copy of `base` (zeros without one) with the span overwritten.
    pub fn to_map(&self, base: Option<&Tensor3>) -> Cow<'_, Tensor3> {
        if self.is_full() {
            return Cow::Borrowed(&self.cols);
        }
        let shape = self.shape();
        let mut map = base
            .cloned()
            .unwrap_or_else(|| Tensor3::zeros(shape.c, shape.h, shape.w));
        self.write_into(&mut map);
        Cow::Owned(map)
    }

    /// [`SpanDelta::to_map`] by value: a full span is moved out.
    pub fn into_map(self, base: Option<&Tensor3>) -> Tensor3 {
        if self.is_full() {
            return self.cols;
        }
        self.to_map(base).into_owned()
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

    /// A 2x2x6 map whose value encodes its coordinates.
    fn coords(offset: f32) -> Tensor3 {
        let data = (0..24).map(|i| i as f32 + offset).collect();
        Tensor3::from_vec(2, 2, 6, data)
    }

    #[test]
    fn delta_reads_its_span_and_the_baseline_elsewhere() {
        let (map, base) = (coords(100.0), coords(0.0));
        let delta = SpanDelta::of_cols(&map, ColSpan::new(2, 4));
        assert_eq!(delta.cols().shape(), Shape3::new(2, 2, 2));
        assert_eq!(delta.shape(), map.shape());
        for xs in [0..6, 0..2, 1..3, 2..4, 3..6, 4..6, 3..3] {
            let mut row = vec![f32::NAN; xs.len()];
            delta.read_row(Some(&base), 1, 1, xs.clone(), &mut row);
            let want: Vec<f32> = xs
                .clone()
                .map(|x| {
                    if (2..4).contains(&x) {
                        map.at(1, 1, x)
                    } else {
                        base.at(1, 1, x)
                    }
                })
                .collect();
            assert_eq!(row, want, "columns {xs:?}");
            delta.read_row(None, 1, 1, xs.clone(), &mut row);
            let zeros: Vec<f32> = xs
                .map(|x| {
                    if (2..4).contains(&x) {
                        map.at(1, 1, x)
                    } else {
                        0.0
                    }
                })
                .collect();
            assert_eq!(row, zeros);
        }
        assert_eq!(delta.at(Some(&base), 0, 1, 3), map.at(0, 1, 3));
        assert_eq!(delta.at(Some(&base), 0, 1, 4), base.at(0, 1, 4));
        let mut spliced = base.clone();
        for c in 0..2 {
            for y in 0..2 {
                for x in 2..4 {
                    spliced.set(c, y, x, map.at(c, y, x));
                }
            }
        }
        assert_eq!(*delta.to_map(Some(&base)), spliced);
        assert_eq!(delta.into_map(Some(&base)), spliced);
    }

    #[test]
    fn full_and_empty_deltas() {
        let map = coords(1.0);
        let full = SpanDelta::from_map(map.clone(), ColSpan::full(6));
        assert!(full.is_full());
        assert!(matches!(full.to_map(None), Cow::Borrowed(_)));
        assert_eq!(full.into_map(None), map);
        let empty = SpanDelta::of_cols(&map, ColSpan::empty());
        assert_eq!(empty.cols().data().len(), 0);
        assert_eq!(empty.to_map(Some(&map)).into_owned(), map);
        assert_eq!(empty.into_map(None), Tensor3::zeros(2, 2, 6));
    }

    #[test]
    #[should_panic(expected = "delta width must match its span")]
    fn delta_rejects_a_mismatched_width() {
        let _ = SpanDelta::new(ColSpan::new(1, 3), 6, Tensor3::zeros(1, 1, 3));
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

//! Dense tensor types.

use crate::colspan::ColSpan;
use crate::shape::Shape3;
use rand::Rng;
use std::fmt;

/// A single-sample activation tensor in `C x H x W` (channel-major) layout.
///
/// # Examples
///
/// ```
/// use hd_tensor::Tensor3;
///
/// let mut t = Tensor3::zeros(1, 2, 2);
/// t.set(0, 1, 1, 3.0);
/// assert_eq!(t.at(0, 1, 1), 3.0);
/// assert_eq!(t.nnz(), 1);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor3 {
    shape: Shape3,
    data: Vec<f32>,
}

impl Tensor3 {
    /// All-zero tensor of the given shape.
    pub fn zeros(c: usize, h: usize, w: usize) -> Self {
        let shape = Shape3::new(c, h, w);
        Tensor3 {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Constant-filled tensor.
    pub fn full(c: usize, h: usize, w: usize, value: f32) -> Self {
        let shape = Shape3::new(c, h, w);
        Tensor3 {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Builds a tensor from a flat `C x H x W` buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != c * h * w`.
    pub fn from_vec(c: usize, h: usize, w: usize, data: Vec<f32>) -> Self {
        let shape = Shape3::new(c, h, w);
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer does not match shape {shape}"
        );
        Tensor3 { shape, data }
    }

    /// Fills every element from the provided RNG using `U(lo, hi)`.
    pub fn fill_uniform<R: Rng>(&mut self, rng: &mut R, lo: f32, hi: f32) {
        for v in &mut self.data {
            *v = rng.gen_range(lo..hi);
        }
    }

    /// Shape accessor.
    pub fn shape(&self) -> Shape3 {
        self.shape
    }

    /// Channel count.
    pub fn c(&self) -> usize {
        self.shape.c
    }

    /// Height.
    pub fn h(&self) -> usize {
        self.shape.h
    }

    /// Width.
    pub fn w(&self) -> usize {
        self.shape.w
    }

    /// Flat read-only view.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element read.
    #[inline]
    pub fn at(&self, c: usize, y: usize, x: usize) -> f32 {
        self.data[self.shape.index(c, y, x)]
    }

    /// Element write.
    #[inline]
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: f32) {
        let idx = self.shape.index(c, y, x);
        self.data[idx] = v;
    }

    /// Number of non-zero elements.
    pub fn nnz(&self) -> usize {
        crate::nnz(&self.data)
    }

    /// Fraction of elements that are zero.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / self.data.len() as f64
    }

    /// Elementwise sum with another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor3) -> Tensor3 {
        let mut out = Tensor3::zeros(self.c(), self.h(), self.w());
        out.add_cols(self, other, ColSpan::full(self.w()));
        out
    }

    /// Overwrites the `span` columns with `a + b`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_cols(&mut self, a: &Tensor3, b: &Tensor3, span: ColSpan) {
        assert_eq!(a.shape, b.shape, "shape mismatch in add");
        assert_eq!(self.shape, a.shape, "shape mismatch in add");
        for (_, run) in span.runs(self.shape) {
            let (a, b) = (&a.data[run.clone()], &b.data[run.clone()]);
            for ((o, x), y) in self.data[run].iter_mut().zip(a).zip(b) {
                *o = x + y;
            }
        }
    }

    /// Applies ReLU in place.
    pub fn relu_inplace(&mut self) {
        let mut out = Tensor3::zeros(self.c(), self.h(), self.w());
        out.relu_cols(self, ColSpan::full(self.w()));
        *self = out;
    }

    /// Overwrites the `span` columns with `relu(src)`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn relu_cols(&mut self, src: &Tensor3, span: ColSpan) {
        assert_eq!(self.shape, src.shape, "shape mismatch in relu_cols");
        for (_, run) in span.runs(self.shape) {
            for (o, &x) in self.data[run.clone()].iter_mut().zip(&src.data[run]) {
                *o = if x < 0.0 { 0.0 } else { x };
            }
        }
    }

    /// Overwrites the `span` columns with `src`'s.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn copy_cols(&mut self, src: &Tensor3, span: ColSpan) {
        assert_eq!(self.shape, src.shape, "shape mismatch in copy_cols");
        for (_, run) in span.runs(self.shape) {
            self.data[run.clone()].copy_from_slice(&src.data[run]);
        }
    }
}

impl fmt::Debug for Tensor3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor3({}, nnz={})", self.shape, self.nnz())
    }
}

/// A convolution weight tensor in `K x C x R x S` layout
/// (output channels x input channels x kernel height x kernel width).
///
/// # Examples
///
/// ```
/// use hd_tensor::Tensor4;
///
/// let w = Tensor4::zeros(8, 3, 3, 3);
/// assert_eq!(w.len(), 8 * 3 * 3 * 3);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor4 {
    k: usize,
    c: usize,
    r: usize,
    s: usize,
    data: Vec<f32>,
}

impl Tensor4 {
    /// All-zero weight tensor.
    pub fn zeros(k: usize, c: usize, r: usize, s: usize) -> Self {
        Tensor4 {
            k,
            c,
            r,
            s,
            data: vec![0.0; k * c * r * s],
        }
    }

    /// Builds a weight tensor from a flat `K x C x R x S` buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer size does not match the dimensions.
    pub fn from_vec(k: usize, c: usize, r: usize, s: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            k * c * r * s,
            "buffer does not match weight shape"
        );
        Tensor4 { k, c, r, s, data }
    }

    /// He-normal initialization (appropriate for ReLU networks).
    pub fn init_he<R: Rng>(&mut self, rng: &mut R) {
        let fan_in = (self.c * self.r * self.s).max(1);
        let std = (2.0 / fan_in as f32).sqrt();
        for v in &mut self.data {
            *v = gaussian(rng) * std;
        }
    }

    /// Output channel count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Input channel count.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Kernel height.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Kernel width.
    pub fn s(&self) -> usize {
        self.s
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat read-only view.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Flat index of `(k, c, r, s)`.
    #[inline]
    pub fn index(&self, k: usize, c: usize, r: usize, s: usize) -> usize {
        debug_assert!(k < self.k && c < self.c && r < self.r && s < self.s);
        ((k * self.c + c) * self.r + r) * self.s + s
    }

    /// Element read.
    #[inline]
    pub fn at(&self, k: usize, c: usize, r: usize, s: usize) -> f32 {
        self.data[self.index(k, c, r, s)]
    }

    /// Element write.
    #[inline]
    pub fn set(&mut self, k: usize, c: usize, r: usize, s: usize, v: f32) {
        let idx = self.index(k, c, r, s);
        self.data[idx] = v;
    }

    /// Copies the output channels (`K` axis) selected by `keep` into a new
    /// tensor, preserving their original order. Used by structured channel
    /// pruning to physically remove whole filters.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != self.k()`.
    pub fn select_k(&self, keep: &[bool]) -> Tensor4 {
        assert_eq!(keep.len(), self.k, "keep mask length must equal K");
        let new_k = keep.iter().filter(|&&b| b).count();
        let filter = self.c * self.r * self.s;
        let mut data = Vec::with_capacity(new_k * filter);
        for (k, &kept) in keep.iter().enumerate() {
            if kept {
                data.extend_from_slice(&self.data[k * filter..(k + 1) * filter]);
            }
        }
        Tensor4 {
            k: new_k,
            c: self.c,
            r: self.r,
            s: self.s,
            data,
        }
    }

    /// Copies the input channels (`C` axis) selected by `keep` into a new
    /// tensor, preserving their original order. Used by structured channel
    /// pruning to shrink consumers of a channel-removed producer.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != self.c()`.
    pub fn select_c(&self, keep: &[bool]) -> Tensor4 {
        assert_eq!(keep.len(), self.c, "keep mask length must equal C");
        let new_c = keep.iter().filter(|&&b| b).count();
        let plane = self.r * self.s;
        let mut data = Vec::with_capacity(self.k * new_c * plane);
        for k in 0..self.k {
            for (c, &kept) in keep.iter().enumerate() {
                if kept {
                    let start = (k * self.c + c) * plane;
                    data.extend_from_slice(&self.data[start..start + plane]);
                }
            }
        }
        Tensor4 {
            k: self.k,
            c: new_c,
            r: self.r,
            s: self.s,
            data,
        }
    }

    /// Number of non-zero weights.
    pub fn nnz(&self) -> usize {
        crate::nnz(&self.data)
    }

    /// Fraction of weights that are zero (the paper's "sparsity" / pruned
    /// fraction, `beta`).
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / self.data.len() as f64
    }
}

impl fmt::Debug for Tensor4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor4({}x{}x{}x{}, nnz={})",
            self.k,
            self.c,
            self.r,
            self.s,
            self.nnz()
        )
    }
}

/// Samples a standard normal via Box-Muller from any [`Rng`].
pub fn gaussian<R: Rng>(rng: &mut R) -> f32 {
    loop {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        if g.is_finite() {
            return g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_set() {
        let mut t = Tensor3::zeros(2, 3, 4);
        assert_eq!(t.nnz(), 0);
        t.set(1, 2, 3, -1.5);
        assert_eq!(t.at(1, 2, 3), -1.5);
        assert_eq!(t.nnz(), 1);
        assert!((t.sparsity() - 23.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn relu_inplace() {
        let mut t = Tensor3::from_vec(1, 1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        t.relu_inplace();
        assert_eq!(t.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn add_matches_elementwise() {
        let a = Tensor3::from_vec(1, 1, 3, vec![1.0, 2.0, 3.0]);
        let b = Tensor3::from_vec(1, 1, 3, vec![10.0, 20.0, 30.0]);
        assert_eq!(a.add(&b).data(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let a = Tensor3::zeros(1, 1, 3);
        let b = Tensor3::zeros(1, 3, 1);
        let _ = a.add(&b);
    }

    #[test]
    fn tensor4_indexing() {
        let mut w = Tensor4::zeros(2, 3, 3, 3);
        w.set(1, 2, 2, 2, 9.0);
        assert_eq!(w.at(1, 2, 2, 2), 9.0);
        assert_eq!(w.index(1, 2, 2, 2), w.len() - 1);
    }

    #[test]
    fn he_init_statistics() {
        let mut w = Tensor4::zeros(64, 16, 3, 3);
        let mut rng = StdRng::seed_from_u64(7);
        w.init_he(&mut rng);
        let mean: f32 = w.data().iter().sum::<f32>() / w.len() as f32;
        let var: f32 = w
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / w.len() as f32;
        let expected = 2.0 / (16.0 * 9.0);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!(
            (var - expected).abs() / expected < 0.2,
            "var {var} vs {expected}"
        );
    }

    #[test]
    fn gaussian_is_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    #[should_panic(expected = "buffer does not match")]
    fn from_vec_wrong_len_panics() {
        let _ = Tensor3::from_vec(1, 2, 2, vec![0.0; 5]);
    }

    #[test]
    fn select_k_keeps_filters_in_order() {
        let mut w = Tensor4::zeros(3, 2, 2, 2);
        for (i, v) in w.data_mut().iter_mut().enumerate() {
            *v = i as f32;
        }
        let kept = w.select_k(&[true, false, true]);
        assert_eq!((kept.k(), kept.c(), kept.r(), kept.s()), (2, 2, 2, 2));
        // Filter 0 unchanged, filter 1 is the old filter 2.
        assert_eq!(kept.at(0, 0, 0, 0), w.at(0, 0, 0, 0));
        assert_eq!(kept.at(1, 1, 1, 1), w.at(2, 1, 1, 1));
    }

    #[test]
    fn select_c_keeps_input_channels_in_order() {
        let mut w = Tensor4::zeros(2, 3, 2, 2);
        for (i, v) in w.data_mut().iter_mut().enumerate() {
            *v = i as f32;
        }
        let kept = w.select_c(&[false, true, true]);
        assert_eq!((kept.k(), kept.c(), kept.r(), kept.s()), (2, 2, 2, 2));
        for k in 0..2 {
            for (new_c, old_c) in [(0usize, 1usize), (1, 2)] {
                for r in 0..2 {
                    for s in 0..2 {
                        assert_eq!(kept.at(k, new_c, r, s), w.at(k, old_c, r, s));
                    }
                }
            }
        }
    }

    #[test]
    fn select_all_is_identity_select_none_is_empty() {
        let mut w = Tensor4::zeros(2, 2, 3, 3);
        w.init_he(&mut StdRng::seed_from_u64(3));
        assert_eq!(w.select_k(&[true, true]).data(), w.data());
        assert_eq!(w.select_c(&[true, true]).data(), w.data());
        assert_eq!(w.select_k(&[false, false]).k(), 0);
        assert_eq!(w.select_c(&[false, false]).len(), 0);
    }

    #[test]
    #[should_panic(expected = "keep mask length")]
    fn select_k_wrong_len_panics() {
        let _ = Tensor4::zeros(2, 2, 1, 1).select_k(&[true]);
    }
}

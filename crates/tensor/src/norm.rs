//! Per-channel affine normalization (inference-mode batch norm) and the
//! ReLU backward pass.
//!
//! The paper models a "conv layer" as the composition CONV -> BatchNorm ->
//! ReLU (§5.2); at inference time batch norm is a per-channel affine
//! transform `y = gamma' * x + beta'`, which is what we implement here.

use crate::Tensor3;

/// Per-channel affine parameters: `y[c] = scale[c] * x[c] + shift[c]`.
///
/// # Examples
///
/// ```
/// use hd_tensor::{Tensor3, norm::Affine};
///
/// let bn = Affine::new(vec![2.0], vec![1.0]);
/// let x = Tensor3::from_vec(1, 1, 3, vec![3.0, -1.0, 5.0]);
/// assert_eq!(bn.apply(&x).data(), &[7.0, -1.0, 11.0]);
/// let (post_bn, out) = bn.apply_relu(&x);
/// assert_eq!((post_bn.data(), out.data()), (&[7.0, -1.0, 11.0][..], &[7.0, 0.0, 11.0][..]));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Affine {
    scale: Vec<f32>,
    shift: Vec<f32>,
}

impl Affine {
    /// Creates the transform.
    ///
    /// # Panics
    ///
    /// Panics if the two parameter vectors have different lengths.
    pub fn new(scale: Vec<f32>, shift: Vec<f32>) -> Self {
        assert_eq!(scale.len(), shift.len(), "scale/shift length mismatch");
        Affine { scale, shift }
    }

    /// Identity transform over `channels` channels.
    pub fn identity(channels: usize) -> Self {
        Affine {
            scale: vec![1.0; channels],
            shift: vec![0.0; channels],
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.scale.len()
    }

    /// Per-channel scale.
    pub fn scale(&self) -> &[f32] {
        &self.scale
    }

    /// Per-channel shift.
    pub fn shift(&self) -> &[f32] {
        &self.shift
    }

    /// Mutable per-channel scale.
    pub fn scale_mut(&mut self) -> &mut [f32] {
        &mut self.scale
    }

    /// Mutable per-channel shift.
    pub fn shift_mut(&mut self) -> &mut [f32] {
        &mut self.shift
    }

    /// The transform of every element of `src`.
    ///
    /// # Panics
    ///
    /// Panics if the channel counts do not match.
    pub fn apply(&self, src: &Tensor3) -> Tensor3 {
        assert_eq!(src.c(), self.scale.len(), "channel mismatch in affine");
        let mut out = src.clone();
        let plane = (src.h() * src.w()).max(1);
        for (c, chan) in out.data_mut().chunks_exact_mut(plane).enumerate() {
            let (s, b) = (self.scale[c], self.shift[c]);
            for v in chan {
                *v = s * *v + b;
            }
        }
        out
    }

    /// [`Affine::apply`] and a ReLU after it, fused in one pass: returns
    /// `(s*x + b, relu(s*x + b))`, where the ReLU maps exactly the values
    /// `< 0.0` to `0.0`, as [`Tensor3::relu`] does.
    ///
    /// # Panics
    ///
    /// Panics if the channel counts do not match.
    pub fn apply_relu(&self, src: &Tensor3) -> (Tensor3, Tensor3) {
        assert_eq!(src.c(), self.scale.len(), "channel mismatch in affine");
        let mut post_bn = src.clone();
        let mut out = Tensor3::zeros(src.c(), src.h(), src.w());
        let plane = (src.h() * src.w()).max(1);
        let chans = post_bn
            .data_mut()
            .chunks_exact_mut(plane)
            .zip(out.data_mut().chunks_exact_mut(plane));
        for (c, (pre, relu)) in chans.enumerate() {
            let (s, b) = (self.scale[c], self.shift[c]);
            for (p, r) in pre.iter_mut().zip(relu) {
                let y = s * *p + b;
                *p = y;
                *r = if y < 0.0 { 0.0 } else { y };
            }
        }
        (post_bn, out)
    }

    /// Backward pass: returns (grad wrt input, grad wrt scale, grad wrt shift).
    pub fn backward(&self, grad_out: &Tensor3, input: &Tensor3) -> (Tensor3, Vec<f32>, Vec<f32>) {
        let plane = input.h() * input.w();
        let mut grad_in = grad_out.clone();
        let mut grad_scale = vec![0.0; self.scale.len()];
        let mut grad_shift = vec![0.0; self.shift.len()];
        for c in 0..self.scale.len() {
            let s = self.scale[c];
            for i in 0..plane {
                let idx = c * plane + i;
                let g = grad_out.data()[idx];
                grad_scale[c] += g * input.data()[idx];
                grad_shift[c] += g;
                grad_in.data_mut()[idx] = g * s;
            }
        }
        (grad_in, grad_scale, grad_shift)
    }
}

/// ReLU backward: passes gradient only where the *pre-activation* input was
/// positive.
pub fn relu_backward(grad_out: &Tensor3, pre_activation: &Tensor3) -> Tensor3 {
    let mut grad_in = grad_out.clone();
    for (g, &x) in grad_in.data_mut().iter_mut().zip(pre_activation.data()) {
        if x <= 0.0 {
            *g = 0.0;
        }
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_noop() {
        let x = Tensor3::from_vec(2, 1, 2, vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(Affine::identity(2).apply(&x), x);
    }

    #[test]
    fn per_channel_parameters() {
        let x = Tensor3::from_vec(2, 1, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let bn = Affine::new(vec![10.0, -1.0], vec![0.5, 0.0]);
        assert_eq!(bn.apply(&x).data(), &[10.5, 20.5, -3.0, -4.0]);
    }

    #[test]
    fn fused_relu_matches_apply_then_relu_bitwise() {
        let x = Tensor3::from_vec(2, 1, 3, vec![1.0, -0.0, 3.0, -4.0, 0.5, f32::NAN]);
        let bn = Affine::new(vec![2.0, -3.0], vec![-2.0, 0.0]);
        let (post_bn, out) = bn.apply_relu(&x);
        let bits = |t: &Tensor3| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&post_bn), bits(&bn.apply(&x)));
        assert_eq!(bits(&out), bits(&bn.apply(&x).relu()));
    }

    #[test]
    fn relu_and_backward() {
        let pre = Tensor3::from_vec(1, 1, 4, vec![-1.0, 0.0, 2.0, 3.0]);
        let g = Tensor3::from_vec(1, 1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        let gi = relu_backward(&g, &pre);
        assert_eq!(gi.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn affine_backward_matches_numerical() {
        let x = Tensor3::from_vec(1, 1, 3, vec![0.5, -1.5, 2.0]);
        let bn = Affine::new(vec![3.0], vec![-0.5]);
        let g = Tensor3::from_vec(1, 1, 3, vec![1.0, 1.0, 1.0]);
        let (gi, gs, gb) = bn.backward(&g, &x);
        assert_eq!(gi.data(), &[3.0, 3.0, 3.0]);
        assert_eq!(gs, vec![0.5 - 1.5 + 2.0]);
        assert_eq!(gb, vec![3.0]);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn channel_mismatch_panics() {
        let x = Tensor3::zeros(3, 1, 1);
        let _ = Affine::identity(2).apply(&x);
    }
}

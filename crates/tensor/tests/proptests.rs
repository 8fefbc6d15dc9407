//! Property-based tests for tensor kernels and transfer codecs.

use hd_tensor::colspan::SpanDelta;
use hd_tensor::conv::{conv2d, conv_out_dim, Conv2dCfg, Padding};
use hd_tensor::pool::{pool2d, PoolKind};
use hd_tensor::{CompressionScheme, Tensor3, Tensor4};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_tensor(seed: u64, c: usize, h: usize, w: usize) -> Tensor3 {
    let mut t = Tensor3::zeros(c, h, w);
    let mut rng = StdRng::seed_from_u64(seed);
    t.fill_uniform(&mut rng, -1.0, 1.0);
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Convolution is linear in the input: conv(a+b) == conv(a) + conv(b)
    /// for bias-free kernels (up to fp tolerance).
    #[test]
    fn conv_is_linear(seed in 0u64..500, kernel in prop_oneof![Just(1usize), Just(3usize)]) {
        let a = random_tensor(seed, 2, 6, 6);
        let b = random_tensor(seed ^ 0xABCD, 2, 6, 6);
        let mut w = Tensor4::zeros(3, 2, kernel, kernel);
        let mut rng = StdRng::seed_from_u64(seed ^ 7);
        w.init_he(&mut rng);
        let cfg = Conv2dCfg::new(1, Padding::Same);
        let lhs = conv2d(&a.add(&b), &w, None, &cfg);
        let rhs = conv2d(&a, &w, None, &cfg).add(&conv2d(&b, &w, None, &cfg));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    /// Output dims honor the Same/Valid formulas for every input size.
    #[test]
    fn conv_out_dims_formulas(input in 1usize..64, kernel in 1usize..8, stride in 1usize..4) {
        let same = conv_out_dim(input, kernel, stride, Padding::Same);
        prop_assert_eq!(same, input.div_ceil(stride));
        let valid = conv_out_dim(input, kernel, stride, Padding::Valid);
        if input >= kernel {
            prop_assert_eq!(valid, (input - kernel) / stride + 1);
        } else {
            prop_assert_eq!(valid, 0);
        }
    }

    /// Max pooling never decreases any surviving value and never creates
    /// non-zeros out of zeros.
    #[test]
    fn max_pool_bounds(seed in 0u64..500, factor in 2usize..4) {
        let x = random_tensor(seed, 2, 9, 9);
        let pooled = |x: &Tensor3| {
            pool2d(&SpanDelta::full(x.clone()), None, factor, PoolKind::Max).into_map(None)
        };
        let y = pooled(&x);
        let max_in = x.data().iter().cloned().fold(f32::MIN, f32::max);
        for &v in y.data() {
            prop_assert!(v <= max_in);
        }
        let zeros = Tensor3::zeros(2, 9, 9);
        prop_assert_eq!(pooled(&zeros).nnz(), 0);
    }

    /// Every codec's encoded size is at least the information floor
    /// (can't beat storing the nnz payload) and the bitmap codec never
    /// exceeds dense + bitmap overhead.
    #[test]
    fn codec_size_bounds(seed in 0u64..500, len in 8usize..256, density in 0.0f64..1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = Tensor3::zeros(1, 1, len);
        v.fill_uniform(&mut rng, -1.0, 1.0);
        let keep = (len as f64 * density) as usize;
        for x in v.data_mut().iter_mut().skip(keep) {
            *x = 0.0;
        }
        let values = v.data();
        let nnz = hd_tensor::nnz(values) as u64;
        for scheme in [
            CompressionScheme::Bitmap,
            CompressionScheme::RunLength { run_bits: 5 },
            CompressionScheme::Csc { offset_bits: 12 },
        ] {
            let e = scheme.encoded_size(values, 8);
            prop_assert!(e.bytes >= nnz, "{scheme}: {} < nnz {}", e.bytes, nnz);
        }
        let bitmap = CompressionScheme::Bitmap.encoded_size(values, 8);
        prop_assert!(bitmap.bytes <= (len as u64) + len.div_ceil(8) as u64 + 1);
    }

    /// Stride-s convolution of a stride-1 output subsamples consistently:
    /// out_s[p][q] == out_1[p*s][q*s] for Same padding when the padding
    /// alignment matches (kernel 1 guarantees it).
    #[test]
    fn pointwise_stride_subsamples(seed in 0u64..300, stride in 2usize..4) {
        let x = random_tensor(seed, 2, 8, 8);
        let mut w = Tensor4::zeros(2, 2, 1, 1);
        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        w.init_he(&mut rng);
        let full = conv2d(&x, &w, None, &Conv2dCfg::new(1, Padding::Same));
        let sub = conv2d(&x, &w, None, &Conv2dCfg::new(stride, Padding::Same));
        for c in 0..sub.c() {
            for p in 0..sub.h() {
                for q in 0..sub.w() {
                    let a = sub.at(c, p, q);
                    let b = full.at(c, p * stride, q * stride);
                    prop_assert!((a - b).abs() < 1e-5, "{a} vs {b}");
                }
            }
        }
    }
}

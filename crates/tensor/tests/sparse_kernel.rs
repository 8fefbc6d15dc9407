//! Property tests of the output-stationary sparse kernel
//! (`hd_tensor::csc_conv::conv2d_csc`) against the `conv2d_reference`
//! oracle, compared bit for bit (`to_bits`, so `-0.0` and `+0.0` differ).
//!
//! Covers strides 1-3, `Same` and `Valid` padding, 1x1 to 7x7 kernels
//! (square or not), maps narrower than one 8-lane register, sparse and
//! dense inputs, an all-pruned filter, bias none / random / `-0.0`, and
//! both ways of reading a span delta's input: with no baseline the input
//! is zero outside the span; with a baseline, the input outside the span
//! is that baseline's, and the columns the kernel does not return are the
//! baseline input's output.
//!
//! A second property computes only a span's two edge columns
//! (`conv2d_csc_cols`), the columns whose windows reach the padding and the
//! baseline: the tile is filled only for them, so every tile column they
//! read must hold its padding zeros or its map column at the right rows.

use hd_tensor::colspan::{ColSpan, SpanDelta};
use hd_tensor::conv::{conv2d_reference, Conv2dCfg, Padding};
use hd_tensor::csc_conv::{conv2d_csc, conv2d_csc_cols, conv2d_sparse_csc, SparseConv};
use hd_tensor::{Shape3, Tensor3, Tensor4};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(t: &Tensor3) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Uniform values in `[-2, 2)` at `density_pct` percent of the entries.
fn random_input(rng: &mut StdRng, c: usize, h: usize, w: usize, density_pct: u32) -> Tensor3 {
    let mut x = Tensor3::zeros(c, h, w);
    for v in x.data_mut().iter_mut() {
        if rng.gen_range(0u32..100) < density_pct {
            *v = rng.gen_range(-2.0f32..2.0);
        }
    }
    x
}

/// `x` with every column outside `span` taken from `outside`.
fn splice(x: &Tensor3, outside: &Tensor3, span: ColSpan) -> Tensor3 {
    let mut out = outside.clone();
    let w = x.w();
    for (dst, src) in out
        .data_mut()
        .chunks_exact_mut(w)
        .zip(x.data().chunks_exact(w))
    {
        dst[span.lo()..span.hi()].copy_from_slice(&src[span.lo()..span.hi()]);
    }
    out
}

/// The whole map of a kernel output: its span over bias planes (what the
/// output is outside the span when the input is zero there).
fn onto_bias(delta: SpanDelta, bias: Option<&[f32]>) -> Tensor3 {
    let shape = delta.shape();
    let mut out = Tensor3::zeros(shape.c, shape.h, shape.w);
    for c in 0..shape.c {
        for y in 0..shape.h {
            for x in 0..shape.w {
                out.set(c, y, x, bias.map_or(0.0, |b| b[c]));
            }
        }
    }
    delta.write_into(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sparse_kernel_matches_reference_bitwise(
        seed in 0u64..100_000,
        c in 1usize..4,
        k in 1usize..5,
        h in 1usize..12,
        w in 1usize..20,
        kr in 1usize..8,
        ks in 1usize..8,
        stride in 1usize..4,
        valid in 0u32..2,
        density_pct in prop_oneof![Just(5u32), Just(30u32), Just(100u32)],
        bias_kind in 0u32..3,
        span_kind in 0u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let padding = if valid == 1 { Padding::Valid } else { Padding::Same };
        let cfg = Conv2dCfg::new(stride, padding);

        let mut weight = Tensor4::zeros(k, c, kr, ks);
        weight.init_he(&mut rng);
        for v in weight.data_mut().iter_mut() {
            if rng.gen_range(0u32..100) >= 40 {
                *v = 0.0;
            }
        }
        // Filter 0 is pruned away entirely: its outputs are the bias.
        let per_filter = c * kr * ks;
        weight.data_mut()[..per_filter].fill(0.0);
        let conv = SparseConv::new(&weight, Shape3::new(c, h, w), &cfg);
        let bias: Option<Vec<f32>> = match bias_kind {
            0 => None,
            1 => Some((0..k).map(|_| rng.gen_range(-1.0f32..1.0)).collect()),
            _ => Some(vec![-0.0; k]),
        };
        let bias = bias.as_deref();

        // Full span, no baseline: the plain convolution, and the whole-map
        // entry point `conv2d_sparse_csc`.
        let x = random_input(&mut rng, c, h, w, density_pct);
        let want = conv2d_reference(&x, &weight, bias, &cfg);
        let got = conv2d_csc(&SpanDelta::full(x.clone()), None, &conv, bias);
        prop_assert_eq!(got.shape(), want.shape());
        let got = onto_bias(got, bias);
        prop_assert_eq!(bits(&got), bits(&want));
        let whole = conv2d_sparse_csc(&x, &weight, bias, &cfg);
        prop_assert_eq!(bits(&whole), bits(&want));

        // A partial span: empty, right-edge, interior, or full.
        let lo = rng.gen_range(0..w);
        let span = match span_kind {
            0 => ColSpan::empty(),
            1 => ColSpan::new(lo, w),
            2 => ColSpan::new(lo, rng.gen_range(lo..w) + 1),
            _ => ColSpan::full(w),
        };

        // No baseline: the input is zero outside the span.
        let zeros = Tensor3::zeros(c, h, w);
        let x_in_span = splice(&x, &zeros, span);
        let want = conv2d_reference(&x_in_span, &weight, bias, &cfg);
        let delta = SpanDelta::of_cols(&x, span);
        let got = onto_bias(conv2d_csc(&delta, None, &conv, bias), bias);
        prop_assert_eq!(bits(&got), bits(&want));

        // Baseline: the output of another input that agrees outside the
        // span.
        let other = random_input(&mut rng, c, h, w, density_pct);
        let patched = splice(&x, &other, span);
        let base = conv2d_reference(&other, &weight, bias, &cfg);
        let want = conv2d_reference(&patched, &weight, bias, &cfg);
        let got = conv2d_csc(&delta, Some(&other), &conv, bias).into_map(Some(&base));
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn edge_columns_match_reference_bitwise(
        seed in 0u64..100_000,
        c in 1usize..4,
        k in 1usize..4,
        half_h in 0usize..6,
        w in 2usize..20,
        kr in 1usize..6,
        ks in 1usize..6,
        stride in 1usize..4,
        valid in 0u32..2,
        with_base in 0u32..2,
        reversed in 0u32..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Odd heights: the last row vector is never full.
        let h = 2 * half_h + 1;
        let padding = if valid == 1 { Padding::Valid } else { Padding::Same };
        let cfg = Conv2dCfg::new(stride, padding);
        let mut weight = Tensor4::zeros(k, c, kr, ks);
        weight.init_he(&mut rng);
        for v in weight.data_mut().iter_mut() {
            if rng.gen_range(0u32..100) >= 50 {
                *v = 0.0;
            }
        }
        let conv = SparseConv::new(&weight, Shape3::new(c, h, w), &cfg);
        let bias: Vec<f32> = (0..k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let x = random_input(&mut rng, c, h, w, 60);
        let lo = rng.gen_range(0..w);
        let span = ColSpan::new(lo, rng.gen_range(lo..w) + 1);
        let out_span = conv.out_span(span);
        if out_span.is_empty() {
            return Some(());
        }
        let mut cols = vec![out_span.lo(), out_span.hi() - 1];
        cols.dedup();
        if reversed == 1 {
            cols.reverse();
        }
        let other = if with_base == 1 {
            random_input(&mut rng, c, h, w, 60)
        } else {
            Tensor3::zeros(c, h, w)
        };
        let base = (with_base == 1).then_some(&other);
        let want = conv2d_reference(&splice(&x, &other, span), &weight, Some(&bias), &cfg);
        let got = conv2d_csc_cols(&SpanDelta::of_cols(&x, span), base, &conv, Some(&bias), &cols);
        prop_assert_eq!(got.span(), out_span);
        let got = got.cols();
        for kk in 0..k {
            for p in 0..want.h() {
                for (j, q) in out_span.range().enumerate() {
                    let v = got.at(kk, p, j).to_bits();
                    if cols.contains(&q) {
                        prop_assert_eq!(v, want.at(kk, p, q).to_bits(), "k {} row {} column {}", kk, p, q);
                    } else {
                        prop_assert_eq!(v, 0, "column {} was not asked for", q);
                    }
                }
            }
        }
    }
}

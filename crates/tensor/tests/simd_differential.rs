//! Differential tests between the vector (`AVX2`/`NEON`) and scalar SIMD
//! paths (conv kernels and the max-pool fold), and between the INT8
//! convolution and its reference loop.
//!
//! The SIMD contract is *bit-identity*: per output element, both dispatch
//! modes perform the same f32 additions in the same order (no FMA, lane
//! width only changes how many independent elements advance together).
//! These tests force each mode with [`simd::set_enabled`] and compare
//! outputs bit-for-bit — on hosts without AVX2/NEON both runs take the
//! scalar path and the tests degrade to self-consistency checks.

use hd_tensor::conv::{conv2d, Conv2dCfg, Padding};
use hd_tensor::csc_conv::conv2d_sparse_csc;
use hd_tensor::gemm::{gemm, GemmBlocking};
use hd_tensor::im2col::conv2d_im2col_gemm;
use hd_tensor::qconv::{qconv2d, qconv2d_reference, QConvParams};
use hd_tensor::simd;
use hd_tensor::{QTensor3, QTensor4, QuantParams, SparseFilters, Tensor3, Tensor4};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// [`simd::set_enabled`] flips a process-wide mode; tests in this binary
/// run concurrently, so every mode-flipping section serializes here.
static SIMD_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once on the vector path and once on the scalar path,
/// restoring vector dispatch afterwards.
fn both_paths<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    simd::set_enabled(true);
    let vector = f();
    simd::set_enabled(false);
    let scalar = f();
    simd::set_enabled(true);
    (vector, scalar)
}

fn random_tensor3(seed: u64, c: usize, h: usize, w: usize) -> Tensor3 {
    let mut t = Tensor3::zeros(c, h, w);
    t.fill_uniform(&mut StdRng::seed_from_u64(seed), -1.0, 1.0);
    t
}

fn pruned_weights(seed: u64, k: usize, c: usize, kernel: usize, keep_percent: u32) -> Tensor4 {
    let mut w = Tensor4::zeros(k, c, kernel, kernel);
    let mut rng = StdRng::seed_from_u64(seed);
    w.init_he(&mut rng);
    for v in w.data_mut().iter_mut() {
        if rng.gen_range(0u32..100) >= keep_percent {
            *v = 0.0;
        }
    }
    w
}

/// INT8 workload: affine input quantization (exact zero point), symmetric
/// per-output-channel weights, output range calibrated from the f32 conv.
fn quantized_workload(x: &Tensor3, w: &Tensor4, cfg: &Conv2dCfg) -> (QTensor3, QConvParams) {
    let (lo, hi) = x
        .data()
        .iter()
        .fold((0.0f32, 0.0f32), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let in_qp = QuantParams::from_range(lo, hi);
    let qx = QTensor3::quantize(x, in_qp);
    let qw = QTensor4::quantize(w);
    let f32_out = conv2d(x, w, None, cfg);
    let (olo, ohi) = f32_out
        .data()
        .iter()
        .fold((0.0f32, 0.0f32), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let out_qp = QuantParams::from_range(olo, ohi);
    let multipliers = qw
        .scales()
        .iter()
        .map(|sw| in_qp.scale * sw / out_qp.scale)
        .collect();
    let params = QConvParams {
        weight: qw,
        bias_q: vec![0; w.k()],
        multipliers,
        out_qp,
    };
    (qx, params)
}

/// Bit patterns the max-pool fold must order the same way on both paths:
/// signed zeros, infinities, quiet and signalling NaNs of both signs and
/// several payloads, denormals and ordinary values.
const POOL_SPECIALS: [u32; 22] = [
    0x0000_0000, // +0
    0x8000_0000, // -0
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x7fc0_0000, // quiet NaN
    0xffc0_0000, // -quiet NaN
    0x7fc0_0001, // quiet NaN, payload 1
    0xffd2_3456, // -quiet NaN, payload
    0x7fff_ffff, // quiet NaN, all payload bits
    0x7f80_0001, // signalling NaN, payload 1
    0xff80_0001, // -signalling NaN, payload 1
    0x7fa0_0000, // signalling NaN, high payload
    0xffb0_0000, // -signalling NaN, high payload
    0x0000_0001, // smallest denormal
    0x8000_0001, // -smallest denormal
    0x007f_ffff, // largest denormal
    0x8040_0000, // -denormal
    0x3fc0_0000, // 1.5
    0xbfc0_0000, // -1.5
    0x7f7f_ffff, // f32::MAX
    0xff7f_ffff, // f32::MIN
    0x0080_0000, // smallest normal
];

/// On x86-64 the max rule is what `f32::max(acc, v)` returns, for every
/// ordered pair of [`POOL_SPECIALS`]: the rule pins the result the max
/// pool has always had on this target. (Other targets may lower
/// `f32::max` differently; the rule is what holds there.)
#[cfg(target_arch = "x86_64")]
#[test]
fn max_rule_is_f32_max_on_x86_64() {
    use std::hint::black_box;
    for &a in &POOL_SPECIALS {
        for &v in &POOL_SPECIALS {
            let (acc, v) = (black_box(f32::from_bits(a)), black_box(f32::from_bits(v)));
            assert_eq!(
                simd::max_rule(acc, v).to_bits(),
                f32::max(acc, v).to_bits(),
                "max({acc:?} = {a:#010x}, {v:?})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The max-pool fold on windows drawn from [`POOL_SPECIALS`] (with a
    /// zero tap now and then): the AVX2 and scalar bodies return the same
    /// bits, for every row count (so the AVX2 body's scalar tail is
    /// covered too) and every tap order.
    #[test]
    fn pool_max_fold_bit_identical_across_simd_modes(
        seed in 0u64..10_000,
        channels in 1usize..5,
        h in 1usize..13,
        w in 1usize..7,
        factor in 1usize..4,
        window in 1usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src: Vec<f32> = (0..channels * h * w)
            .map(|_| f32::from_bits(POOL_SPECIALS[rng.gen_range(0..POOL_SPECIALS.len())]))
            .collect();
        let rows = simd::PoolRows::new(channels, h, factor);
        // `None`: a zero tap; `Some(o)`: reads `src[top * w + o]`.
        let offs: Vec<Option<usize>> = (0..window)
            .map(|_| {
                (rng.gen_range(0u32..8) != 0)
                    .then(|| rng.gen_range(0..factor) * w + rng.gen_range(0..w))
            })
            .collect();
        let taps: Vec<simd::PoolTap> = offs
            .iter()
            .map(|o| o.map_or(simd::PoolTap::zero(), |o| simd::PoolTap::new(&src, w, o)))
            .collect();
        let (vector, scalar) = both_paths(|| {
            let mut out = vec![0.0f32; rows.len()];
            simd::pool_max_fold(&rows, &taps, &mut out);
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        });
        prop_assert_eq!(&vector, &scalar);
        // Both are the rule's fold, row by row.
        let out_h = h / factor;
        for (i, got) in vector.iter().enumerate() {
            let (c, p) = (i / out_h, i % out_h);
            let top = c * h + p * factor;
            let want = offs.iter().fold(f32::NEG_INFINITY, |acc, o| {
                simd::max_rule(acc, o.map_or(0.0, |o| src[top * w + o]))
            });
            prop_assert_eq!(*got, want.to_bits(), "row {}", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The GEMM kernel produces the same bytes on both dispatch modes for
    /// random dimensions, including edge tiles (`m % MR`, `n % NR`) and
    /// non-default cache blockings.
    #[test]
    fn gemm_simd_matches_scalar_bitwise(
        seed in 0u64..10_000,
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..30,
        custom_blocking in 0u32..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        // A tiny blocking forces many partial panels; the default mostly
        // runs one block. Both must agree with each other bit-for-bit.
        let blk = if custom_blocking == 1 {
            GemmBlocking::new(simd::MR, 8, simd::NR).expect("valid blocking")
        } else {
            GemmBlocking::default()
        };
        let (vector, scalar) = both_paths(|| {
            let mut c = vec![0.0f32; m * n];
            gemm(m, n, k, &a, k, &b, n, &mut c, n, &blk);
            c
        });
        for (x, y) in vector.iter().zip(&scalar) {
            prop_assert!(x.to_bits() == y.to_bits(), "{x} vs {y} diverge");
        }
    }

    /// Leading dimensions larger than the row length (strided views) pack
    /// through `pack_a`'s edge paths; both modes must still agree exactly.
    #[test]
    fn gemm_strided_views_match_bitwise(
        seed in 0u64..10_000,
        m in 1usize..20,
        n in 1usize..20,
        k in 1usize..16,
        lda_pad in 0usize..5,
        ldb_pad in 0usize..5,
        ldc_pad in 0usize..5,
    ) {
        let (lda, ldb, ldc) = (k + lda_pad, n + ldb_pad, n + ldc_pad);
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * lda).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..k * ldb).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let (vector, scalar) = both_paths(|| {
            let mut c = vec![0.0f32; m * ldc];
            gemm(m, n, k, &a, lda, &b, ldb, &mut c, ldc, &GemmBlocking::default());
            c
        });
        for (x, y) in vector.iter().zip(&scalar) {
            prop_assert!(x.to_bits() == y.to_bits(), "{x} vs {y} diverge");
        }
    }

    /// Both convolution kernels, called directly whatever the weights'
    /// density, are bit-identical across dispatch modes on random shapes,
    /// strides, and pruned weights. This covers the GEMM micro-kernel and
    /// the column-stationary sparse kernel's `sparse_conv_layer` in one
    /// sweep.
    #[test]
    fn conv_backends_bit_identical_across_simd_modes(
        seed in 0u64..10_000,
        in_c in 1usize..4,
        out_c in 1usize..6,
        hw in 4usize..10,
        kernel in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
        stride in 1usize..3,
        keep_percent in 10u32..80,
        sparse in 0u32..2,
    ) {
        let x = random_tensor3(seed, in_c, hw, hw);
        let w = pruned_weights(seed ^ 0x51D, out_c, in_c, kernel, keep_percent);
        let cfg = Conv2dCfg::new(stride, Padding::Same);
        let kernel_fn = if sparse == 1 { conv2d_sparse_csc } else { conv2d_im2col_gemm };
        let (vector, scalar) = both_paths(|| kernel_fn(&x, &w, None, &cfg));
        prop_assert_eq!(vector.shape(), scalar.shape());
        for (a, b) in vector.data().iter().zip(scalar.data()) {
            prop_assert!(a.to_bits() == b.to_bits(), "{a} vs {b} diverge (sparse kernel: {sparse})");
        }
    }

    /// Stripe inputs (the prober's probe shape) route onto the sparse
    /// kernel; its masked lane blend must not flip a single bit.
    #[test]
    fn sparse_scatter_bit_identical_across_simd_modes(
        seed in 0u64..10_000,
        col in 0usize..9,
        kernel in prop_oneof![Just(3usize), Just(5usize)],
        keep_percent in 5u32..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor3::zeros(3, 9, 9);
        for c in 0..3 {
            for y in 0..9 {
                x.set(c, y, col, rng.gen_range(-1.0f32..1.0));
            }
        }
        let w = pruned_weights(seed ^ 0xCA7, 6, 3, kernel, keep_percent);
        let cfg = Conv2dCfg::new(1, Padding::Same);
        let (vector, scalar) = both_paths(|| conv2d(&x, &w, None, &cfg));
        for (a, b) in vector.data().iter().zip(scalar.data()) {
            prop_assert!(a.to_bits() == b.to_bits(), "{a} vs {b} diverge on stripe");
        }
    }

    /// The column-stationary sparse conv's per-layer entry
    /// (`sparse_conv_layer`) on random tiles, column lists (gapped and
    /// unordered), row-vector counts and layers gives, filter for filter
    /// and column for column, the bits of the per-lane definition in both
    /// dispatch modes. A layer mixes empty filters with others, may hold a
    /// non-finite weight, and its bias may be absent, random, or random
    /// with `-0.0` for some filters (which must keep the mask while the
    /// others drop it). Activations mix `+0.0`, `-0.0`, NaN and infinities
    /// with ordinary values. Every NaN compares as one value: the compiler
    /// may reorder the operands of a scalar add, which changes which NaN
    /// payload survives, never whether one does.
    #[test]
    fn sparse_conv_layer_matches_the_lane_definition_in_both_modes(
        seed in 0u64..10_000,
        filters in 1usize..6,
        max_nnz in 0usize..24,
        n_cols in 1usize..10,
        row_vecs in 1usize..7,
        bias_kind in 0u32..3,
        finite in 0u32..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let col_step = row_vecs * simd::LANES + rng.gen_range(0usize..9);
        let reach = 24usize;
        // Distinct columns below 12, in random order and with gaps.
        let mut cols: Vec<usize> = (0..12).collect();
        for i in (1..cols.len()).rev() {
            cols.swap(i, rng.gen_range(0..=i));
        }
        cols.truncate(n_cols);
        let len = 12 * col_step + reach + simd::LANES;
        let specials = [0.0f32, -0.0, f32::NAN, f32::INFINITY, -f32::INFINITY];
        let tile: Vec<f32> = (0..len)
            .map(|_| match rng.gen_range(0u32..8) {
                0 | 1 => 0.0,
                2 => -0.0,
                3 => specials[rng.gen_range(0..specials.len())],
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect();
        // Filter by filter, over `reach + 1` flat taps, which the kernel
        // reads as tile offsets: empty about one time in three.
        let mut weight = Tensor4::zeros(filters, reach + 1, 1, 1);
        let mut nonzeros = Vec::new();
        for k in 0..filters {
            let nnz = if rng.gen_range(0u32..3) == 0 { 0 } else { rng.gen_range(0..=max_nnz) };
            for _ in 0..nnz {
                let tap = rng.gen_range(0..=reach);
                weight.set(k, tap, 0, 0, rng.gen_range(-1.0f32..1.0));
                nonzeros.push((k, tap));
            }
        }
        if finite == 0 && !nonzeros.is_empty() {
            let (k, tap) = nonzeros[rng.gen_range(0..nonzeros.len())];
            weight.set(k, tap, 0, 0, f32::INFINITY);
        }
        let layer = SparseFilters::build(&weight);
        let bias: Option<Vec<f32>> = match bias_kind {
            0 => None,
            1 => Some((0..filters).map(|_| rng.gen_range(-1.0f32..1.0)).collect()),
            _ => Some(
                (0..filters)
                    .map(|_| if rng.gen_bool(0.5) { -0.0 } else { rng.gen_range(-1.0f32..1.0) })
                    .collect(),
            ),
        };
        let bias = bias.as_deref();
        let bit = |v: f32| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() };
        let (vector, scalar) = both_paths(|| {
            let mut got = vec![vec![Vec::new(); 12]; filters];
            simd::sparse_conv_layer(&tile, &cols, col_step, row_vecs, &layer, bias, |k, j, v0, vecs| {
                got[k][j].push((v0, vecs.iter().flatten().map(|&v| bit(v)).collect::<Vec<_>>()));
            });
            got
        });
        prop_assert_eq!(&vector, &scalar);
        for (k, per_col) in vector.iter().enumerate() {
            // The filter's nonzeros in ascending tap order.
            let taps: Vec<(usize, f32)> = (0..=reach)
                .map(|tap| (tap, weight.at(k, tap, 0, 0)))
                .filter(|&(_, w)| w != 0.0)
                .collect();
            for (j, stores) in per_col.iter().enumerate() {
                if !cols.contains(&j) {
                    prop_assert!(stores.is_empty(), "column {} was not asked for", j);
                    continue;
                }
                let mut rows = Vec::new();
                for (v0, lanes) in stores {
                    prop_assert_eq!(*v0 * simd::LANES, rows.len(), "column {} stored out of order", j);
                    rows.extend_from_slice(lanes);
                }
                let want: Vec<u32> = (0..row_vecs * simd::LANES)
                    .map(|row| {
                        let mut acc = bias.map_or(0.0, |b| b[k]);
                        for &(o, w) in &taps {
                            let x = tile[o + j * col_step + row];
                            if x != 0.0 {
                                acc += w * x;
                            }
                        }
                        bit(acc)
                    })
                    .collect();
                prop_assert_eq!(rows, want, "filter {} column {}", k, j);
            }
        }
    }

    /// The INT8 fast path (`qconv2d`) agrees with the reference loop
    /// exactly — integer accumulation leaves no tolerance to hide behind —
    /// and both dispatch modes produce the same bytes.
    #[test]
    fn qconv_matches_reference_exactly(
        seed in 0u64..10_000,
        in_c in 1usize..4,
        out_c in 1usize..5,
        hw in 4usize..9,
        kernel in prop_oneof![Just(1usize), Just(3usize)],
        stride in 1usize..3,
        keep_percent in 10u32..90,
    ) {
        let x = random_tensor3(seed, in_c, hw, hw);
        let w = pruned_weights(seed ^ 0x1A7E, out_c, in_c, kernel, keep_percent);
        let cfg = Conv2dCfg::new(stride, Padding::Same);
        let (qx, params) = quantized_workload(&x, &w, &cfg);
        let reference = qconv2d_reference(&qx, &params, &cfg);
        let (vector, scalar) = both_paths(|| qconv2d(&qx, &params, &cfg));
        prop_assert_eq!(vector.data(), scalar.data(), "INT8 SIMD modes diverge");
        prop_assert_eq!(vector.shape(), reference.shape());
        prop_assert_eq!(vector.data(), reference.data(), "qconv2d diverges from reference");
    }
}

//! Property test for the device's span path: a device whose stripe probes
//! run the cached walk (outputs kept as span deltas over the zero-input
//! baseline and sized in O(span)) must emit exactly the bus [`Trace`] and
//! the encode timings of the same configuration on the full-width path
//! (`auto_sparse` off, every output a whole map).
//!
//! Graphs are drawn at random from convs (stride 1-2, Same/Valid, kernel
//! 1-5, bias/BN/ReLU each on or off), depthwise convs, max/avg pools,
//! residual adds and a GAP or flatten head with one or two linear layers;
//! every weighted node is pruned to a random sparsity. Each graph runs
//! under one activation codec (Dense, Bitmap, RunLength, Csc, Huffman),
//! one defence (none, PadEdges, RandomZeros, NnRearch), and
//! `separate_batch_norm` and `reuse_activations` each on or off. The span
//! device reaches the cached walk by the default `auto_sparse` policy,
//! which sends it every image below the input-density threshold; dense
//! images take the full-width walk on both devices. Images: one-column stripes at the left edge, inside and at the
//! right edge, a two-column stripe, a dense image, the all-zero image and
//! a stripe beside a column of `-0.0`.
//!
//! A second property pins translation reuse (`hd_dnn::translate`): a
//! device that has walked earlier shifts of a stripe family, so that its
//! walk memo serves later shifts, emits exactly the traces of a device
//! with an empty memo, on the same random graphs and configurations, for
//! families swept left to right, right to left (negative offsets) or in
//! random order with repeats. Run the binary under `HD_SIMD=0` as well
//! to cover both SIMD dispatch modes. Two telemetry tests check that a
//! family does hit the memo and that a repeated image (offset 0) is
//! recomputed, not served from it.

use hd_accel::{AccelConfig, Defence, Device};
use hd_dnn::graph::{ConvSpec, Network, NetworkBuilder, NodeId, Params};
use hd_dnn::prune::{apply_sparsity_profile, SparsityProfile};
use hd_tensor::conv::Padding;
use hd_tensor::{BackendPolicy, CompressionScheme, Shape3, Tensor3};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Mutex;

/// Serializes the tests that run translation reuse: the telemetry tests
/// read process-wide counters the others would add to.
static MEMO_LOCK: Mutex<()> = Mutex::new(());

/// A random small graph; the input is wide enough that a two-column
/// stripe is below the default input-density threshold.
fn random_net(rng: &mut StdRng) -> Network {
    let (c, h, w) = (
        rng.gen_range(1..4),
        rng.gen_range(4..9),
        rng.gen_range(17..24),
    );
    let mut b = NetworkBuilder::new(c, h, w);
    let mut x = b.input();
    let mut shape = Shape3::new(c, h, w);
    for _ in 0..rng.gen_range(1..5) {
        x = match rng.gen_range(0..5) {
            0 | 1 => conv(&mut b, rng, x, &mut shape),
            2 => {
                let (kernel, stride) = (rng.gen_range(1..4), rng.gen_range(1..3));
                shape = Shape3::new(shape.c, shape.h.div_ceil(stride), shape.w.div_ceil(stride));
                b.dwconv(x, kernel, stride, rng.gen_bool(0.5))
            }
            3 if shape.h >= 2 && shape.w >= 2 => {
                shape = Shape3::new(shape.c, shape.h / 2, shape.w / 2);
                if rng.gen_bool(0.5) {
                    b.max_pool(x, 2)
                } else {
                    b.avg_pool(x, 2)
                }
            }
            _ => {
                let mut spec = ConvSpec::standard(shape.c, 2 * rng.gen_range(0..2) + 1, 1);
                spec.bias = rng.gen_bool(0.5);
                spec.batch_norm = rng.gen_bool(0.5);
                let branch = b.conv_spec(x, spec);
                b.add_opts(x, branch, rng.gen_bool(0.5))
            }
        };
    }
    let x = if rng.gen_bool(0.5) {
        b.global_avg_pool(x)
    } else {
        b.flatten(x)
    };
    let x = if rng.gen_bool(0.5) {
        b.linear_opts(x, rng.gen_range(2..6), true)
    } else {
        x
    };
    b.linear(x, rng.gen_range(2..5));
    b.build()
}

fn conv(b: &mut NetworkBuilder, rng: &mut StdRng, x: NodeId, shape: &mut Shape3) -> NodeId {
    let kernel = rng.gen_range(1..6);
    let stride = rng.gen_range(1..3);
    let valid = rng.gen_bool(0.3) && kernel <= shape.h.min(shape.w);
    let spec = ConvSpec {
        out_channels: rng.gen_range(1..6),
        kernel,
        stride,
        padding: if valid { Padding::Valid } else { Padding::Same },
        bias: rng.gen_bool(0.5),
        batch_norm: rng.gen_bool(0.5),
        relu: rng.gen_bool(0.7),
    };
    let dim = |n: usize| match spec.padding {
        Padding::Same => n.div_ceil(stride),
        Padding::Valid => (n - kernel) / stride + 1,
    };
    *shape = Shape3::new(spec.out_channels, dim(shape.h), dim(shape.w));
    b.conv_spec(x, spec)
}

fn pruned_params(net: &Network, rng: &mut StdRng) -> Params {
    let mut params = Params::init(net, rng.next_u64());
    let profile = SparsityProfile {
        targets: net
            .weighted_nodes()
            .into_iter()
            .map(|id| (id, rng.gen_range(0.0..0.95)))
            .collect(),
    };
    apply_sparsity_profile(net, &mut params, &profile, rng.next_u64());
    params
}

/// An image whose columns `cols` hold random values in every channel and row.
fn stripes(shape: Shape3, cols: &[usize], rng: &mut StdRng) -> Tensor3 {
    let mut img = Tensor3::zeros(shape.c, shape.h, shape.w);
    for &col in cols {
        for ch in 0..shape.c {
            for y in 0..shape.h {
                img.set(ch, y, col, rng.gen_range(-1.0..1.0));
            }
        }
    }
    img
}

fn images(shape: Shape3, rng: &mut StdRng) -> Vec<Tensor3> {
    let w = shape.w;
    let interior = rng.gen_range(1..w - 2);
    let mut images: Vec<Tensor3> = [
        vec![0],
        vec![interior],
        vec![w - 1],
        vec![interior, interior + 1],
    ]
    .iter()
    .map(|cols| stripes(shape, cols, rng))
    .collect();
    let mut dense = Tensor3::zeros(shape.c, shape.h, shape.w);
    dense.fill_uniform(rng, -1.0, 1.0);
    images.push(dense);
    images.push(Tensor3::zeros(shape.c, shape.h, shape.w));
    let mut signed = stripes(shape, &[interior + 2], rng);
    for ch in 0..shape.c {
        for y in 0..shape.h {
            signed.set(ch, y, interior, -0.0);
        }
    }
    images.push(signed);
    images
}

/// One random activation codec, defence and pair of execution flags.
fn random_config(rng: &mut StdRng) -> AccelConfig {
    let mut cfg = AccelConfig::eyeriss_v2();
    cfg.act_scheme = match rng.gen_range(0..5) {
        0 => CompressionScheme::Dense,
        1 => CompressionScheme::Bitmap,
        2 => CompressionScheme::RunLength {
            run_bits: rng.gen_range(2..6),
        },
        3 => CompressionScheme::Csc {
            offset_bits: rng.gen_range(4..9),
        },
        _ => CompressionScheme::Huffman {
            quant_bits: rng.gen_range(3..7),
        },
    };
    cfg.defence = match rng.gen_range(0..4) {
        0 => Defence::None,
        1 => Defence::PadEdges {
            band: rng.gen_range(1..3),
        },
        2 => Defence::RandomZeros {
            max_bytes: rng.gen_range(1..64),
            seed: rng.next_u64(),
        },
        _ => Defence::NnRearch {
            tile: rng.gen_range(2..9),
        },
    };
    cfg.separate_batch_norm = rng.gen_bool(0.5);
    cfg.reuse_activations = rng.gen_bool(0.5);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn span_path_device_matches_full_width_device(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_net(&mut rng);
        let params = pruned_params(&net, &mut rng);
        let cfg = random_config(&mut rng);
        let span_dev = Device::try_new(net.clone(), params.clone(), cfg.clone())
            .expect("random graph verifies");
        let full_dev = Device::try_new(
            net.clone(),
            params,
            cfg.with_backend_policy(BackendPolicy { auto_sparse: false }),
        )
        .expect("random graph verifies");
        for (i, img) in images(net.input_shape(), &mut rng).iter().enumerate() {
            prop_assert!(
                span_dev.run(img) == full_dev.run(img),
                "image {i}: traces differ"
            );
            prop_assert_eq!(
                span_dev.encode_timings(img),
                full_dev.encode_timings(img),
                "image {}: encode timings differ", i
            );
        }
    }
}

/// A stripe family: `width` adjacent columns of fixed nonzero amplitudes,
/// moved to each first column of `cols` in turn.
fn family(shape: Shape3, width: usize, cols: &[usize], rng: &mut StdRng) -> Vec<Tensor3> {
    let amplitudes: Vec<f32> = (0..shape.c * shape.h * width)
        .map(|_| rng.gen_range(0.25..1.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
        .collect();
    cols.iter()
        .map(|&col| {
            let mut img = Tensor3::zeros(shape.c, shape.h, shape.w);
            for (i, &a) in amplitudes.iter().enumerate() {
                let (ch, y, dx) = (i / (shape.h * width), i / width % shape.h, i % width);
                img.set(ch, y, col + dx, a);
            }
            img
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memo_device_matches_fresh_device(seed in 0u64..u64::MAX) {
        let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_net(&mut rng);
        let params = pruned_params(&net, &mut rng);
        let cfg = random_config(&mut rng);
        let shape = net.input_shape();
        let dev = Device::try_new(net, params, cfg).expect("random graph verifies");
        let width = rng.gen_range(1..3);
        let mut cols: Vec<usize> = (0..=shape.w - width).collect();
        match rng.gen_range(0..3) {
            0 => {}
            1 => cols.reverse(),
            _ => {
                for i in (1..cols.len()).rev() {
                    cols.swap(i, rng.gen_range(0..=i));
                }
                let repeats: Vec<usize> = cols.iter().step_by(3).copied().collect();
                cols.extend(repeats);
            }
        }
        for (img, col) in family(shape, width, &cols, &mut rng).iter().zip(&cols) {
            // A clone holds an empty memo.
            let fresh = dev.clone();
            prop_assert!(
                dev.run(img) == fresh.run(img),
                "stripe at column {}: traces differ", col
            );
        }
    }
}

/// A fixed victim with a stride-2 conv after a pool, wide enough for
/// interior shifts, and the `sparse_fwd.cols_reused` count of running
/// its device on `cols` in order.
fn reused_columns(cols: &[usize]) -> u64 {
    let mut b = NetworkBuilder::new(3, 10, 24);
    let x = b.input();
    let x = b.conv(x, 6, 5, 1);
    let x = b.max_pool(x, 2);
    let x = b.conv(x, 8, 3, 2);
    let x = b.global_avg_pool(x);
    b.linear(x, 4);
    let net = b.build();
    let mut rng = StdRng::seed_from_u64(7);
    let params = pruned_params(&net, &mut rng);
    let dev = Device::new(net, params, AccelConfig::eyeriss_v2());
    let images = family(Shape3::new(3, 10, 24), 1, cols, &mut rng);
    hd_obs::reset();
    hd_obs::set_enabled(true);
    for img in &images {
        dev.run(img);
    }
    hd_obs::set_enabled(false);
    let reused = hd_obs::snapshot()
        .counter("sparse_fwd.cols_reused", "")
        .unwrap_or(0);
    hd_obs::reset();
    reused
}

#[test]
fn a_stripe_family_hits_the_memo() {
    let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(reused_columns(&[8, 9, 10, 11, 12]) > 0);
}

#[test]
fn a_repeated_image_is_recomputed() {
    let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(reused_columns(&[10, 10, 10]), 0);
}

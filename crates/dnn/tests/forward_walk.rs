//! Property test for the f32 forward walk: the cached column-span pass
//! (`Network::forward_cached`) must reproduce the full-width pass
//! (`Network::forward_with_policy`) bit for bit — every node's `out`,
//! `pre_bn` and `pre_relu`, compared by `to_bits` so `-0.0` and `+0.0`
//! stay distinct. The span deltas themselves (`Network::forward_spans`),
//! read element by element through the cache's baseline, must give the
//! same bits, and each output's O(span) nonzero count must equal a full
//! count.
//!
//! Graphs are drawn at random from convs (stride 1-3, Same/Valid, kernel
//! 1-5, bias/BN/ReLU each on or off), depthwise convs, max/avg pools
//! (including a pool straight off the input), residual adds with and
//! without ReLU, and a GAP or flatten head feeding one or two linear
//! layers; every weighted node is pruned to a random sparsity. Each graph
//! sees stripe probes at the left edge, an interior column and the right
//! edge, a two-column stripe, a dense image, the all-zero image and a
//! stripe beside columns of `-0.0`.

use hd_dnn::graph::{ConvSpec, ForwardTrace, Network, NetworkBuilder, NodeId, Params, Value};
use hd_dnn::prune::{apply_sparsity_profile, SparsityProfile};
use hd_dnn::sparse_forward::{SpanTrace, SpanValue};
use hd_dnn::ForwardCache;
use hd_tensor::conv::{BackendPolicy, Padding};
use hd_tensor::{ConvBackend, Shape3, Tensor3};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Shape and bit pattern of a value.
fn bits(v: &Value) -> (Option<Shape3>, Vec<u32>) {
    match v {
        Value::Map(t) => (
            Some(t.shape()),
            t.data().iter().map(|x| x.to_bits()).collect(),
        ),
        Value::Vector(x) => (None, x.iter().map(|x| x.to_bits()).collect()),
    }
}

fn assert_bit_identical(want: &ForwardTrace, got: &ForwardTrace, what: &str) {
    assert_eq!(want.traces.len(), got.traces.len());
    for (id, (a, b)) in want.traces.iter().zip(&got.traces).enumerate() {
        assert_eq!(
            bits(&a.out),
            bits(&b.out),
            "{what}: out differs at node {id}"
        );
        let pre_bn = |t: &Option<Tensor3>| t.clone().map(|m| bits(&Value::Map(m)));
        assert_eq!(
            pre_bn(&a.pre_bn),
            pre_bn(&b.pre_bn),
            "{what}: pre_bn differs at node {id}"
        );
        assert_eq!(
            a.pre_relu.as_ref().map(bits),
            b.pre_relu.as_ref().map(bits),
            "{what}: pre_relu differs at node {id}"
        );
    }
}

/// Shape and bit pattern of a span value, read element by element over
/// `base`, the baseline's value of the same stage.
fn read_back(v: &SpanValue, base: Option<&Value>) -> (Option<Shape3>, Vec<u32>) {
    match v {
        SpanValue::Map(delta) => {
            let base = base.map(Value::map);
            let s = delta.shape();
            let mut out = Vec::with_capacity(s.len());
            for c in 0..s.c {
                for y in 0..s.h {
                    for x in 0..s.w {
                        out.push(delta.at(base, c, y, x).to_bits());
                    }
                }
            }
            (Some(s), out)
        }
        SpanValue::Vector(x) => (None, x.iter().map(|x| x.to_bits()).collect()),
    }
}

/// Every stage of `spans` read back through the cache's baseline equals
/// `want` by bits, and every output's nonzero count and flat values are
/// the whole output's.
fn assert_spans_read_back(want: &ForwardTrace, spans: &SpanTrace<'_>, what: &str) {
    assert_eq!(want.traces.len(), spans.nodes.len());
    for (id, (a, node)) in want.traces.iter().zip(&spans.nodes).enumerate() {
        let base = spans
            .baseline(id)
            .expect("a cached walk reads over its baseline");
        assert_eq!(
            bits(&a.out),
            read_back(&node.out, Some(&base.out)),
            "{what}: out differs at node {id}"
        );
        let pre_bn = node.pre_bn.clone().map(SpanValue::Map);
        let base_pre_bn = base.pre_bn.clone().map(Value::Map);
        assert_eq!(
            a.pre_bn.clone().map(|m| bits(&Value::Map(m))),
            pre_bn.map(|d| read_back(&d, base_pre_bn.as_ref())),
            "{what}: pre_bn differs at node {id}"
        );
        assert_eq!(
            a.pre_relu.as_ref().map(bits),
            node.pre_relu
                .as_ref()
                .map(|d| read_back(d, base.pre_relu.as_ref())),
            "{what}: pre_relu differs at node {id}"
        );
        assert_eq!(
            spans.out_nnz(id),
            hd_tensor::nnz(a.out.flat()),
            "{what}: nonzero count differs at node {id}"
        );
        let flat: Vec<u32> = spans.out_values(id).iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            bits(&a.out).1,
            flat,
            "{what}: flat output differs at node {id}"
        );
    }
}

/// Runs every probe image through the cached walk and both full-width
/// configurations, asserting bit identity.
fn check(net: &Network, params: &Params, images: &[Tensor3]) {
    let cache = ForwardCache::build(net, params, BackendPolicy::default());
    for (i, img) in images.iter().enumerate() {
        let got = net.forward_cached(params, img, &cache);
        // The uncached full-width walk; its sparse operands still take the
        // sparse kernel.
        let full_width = net.forward_with_policy(
            params,
            img,
            ConvBackend::Im2colGemm,
            BackendPolicy::default(),
        );
        assert_bit_identical(&full_width, &got, &format!("image {i} vs full width"));
        let csc = net.forward_with_policy(
            params,
            img,
            ConvBackend::SparseCsc,
            BackendPolicy::default(),
        );
        assert_bit_identical(&csc, &got, &format!("image {i} vs SparseCsc"));
        let spans = net.forward_spans(params, img, &cache);
        assert_spans_read_back(&full_width, &spans, &format!("image {i} span deltas"));
    }
}

/// A random small graph over `c x h x w` inputs.
fn random_net(rng: &mut StdRng) -> Network {
    let (c, h, w) = (
        rng.gen_range(1..4),
        rng.gen_range(4..11),
        rng.gen_range(6..15),
    );
    let mut b = NetworkBuilder::new(c, h, w);
    let mut x = b.input();
    let mut shape = Shape3::new(c, h, w);
    // One graph in three pools straight off the input, where a `-0.0`
    // column reaches an op that keeps its sign.
    if rng.gen_range(0..3) == 0 {
        x = pool(&mut b, rng, x, &mut shape);
    }
    for _ in 0..rng.gen_range(1..5) {
        x = match rng.gen_range(0..5) {
            0 | 1 => conv(&mut b, rng, x, &mut shape),
            2 => {
                let (kernel, stride) = (rng.gen_range(1..4), rng.gen_range(1..3));
                shape = Shape3::new(shape.c, shape.h.div_ceil(stride), shape.w.div_ceil(stride));
                b.dwconv(x, kernel, stride, rng.gen_bool(0.5))
            }
            3 if shape.h >= 2 && shape.w >= 2 => pool(&mut b, rng, x, &mut shape),
            _ => {
                let mut spec = ConvSpec::standard(shape.c, 2 * rng.gen_range(0..2) + 1, 1);
                spec.bias = rng.gen_bool(0.5);
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
        b.linear_opts(x, rng.gen_range(2..6), rng.gen_bool(0.5))
    } else {
        x
    };
    b.linear_opts(x, rng.gen_range(2..5), rng.gen_bool(0.5));
    b.build()
}

fn conv(b: &mut NetworkBuilder, rng: &mut StdRng, x: NodeId, shape: &mut Shape3) -> NodeId {
    let kernel = rng.gen_range(1..6);
    let stride = rng.gen_range(1..4);
    let valid = rng.gen_bool(0.5) && kernel <= shape.h.min(shape.w);
    let spec = ConvSpec {
        out_channels: rng.gen_range(1..6),
        kernel,
        stride,
        padding: if valid { Padding::Valid } else { Padding::Same },
        bias: rng.gen_bool(0.5),
        batch_norm: rng.gen_bool(0.5),
        relu: rng.gen_bool(0.5),
    };
    let dim = |n: usize| match spec.padding {
        Padding::Same => n.div_ceil(stride),
        Padding::Valid => (n - kernel) / stride + 1,
    };
    *shape = Shape3::new(spec.out_channels, dim(shape.h), dim(shape.w));
    b.conv_spec(x, spec)
}

fn pool(b: &mut NetworkBuilder, rng: &mut StdRng, x: NodeId, shape: &mut Shape3) -> NodeId {
    let factor = rng.gen_range(1..3);
    *shape = Shape3::new(shape.c, shape.h / factor, shape.w / factor);
    if rng.gen_bool(0.5) {
        b.max_pool(x, factor)
    } else {
        b.avg_pool(x, factor)
    }
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

fn probe_images(shape: Shape3, rng: &mut StdRng) -> Vec<Tensor3> {
    let w = shape.w;
    let interior = rng.gen_range(1..w - 1);
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
    // Two columns of `-0.0` beside a one-column stripe.
    let neg = rng.gen_range(0..w - 2);
    let stripe = rng.gen_range(neg + 2..w);
    let mut signed = stripes(shape, &[stripe], rng);
    for ch in 0..shape.c {
        for y in 0..shape.h {
            signed.set(ch, y, neg, -0.0);
            signed.set(ch, y, neg + 1, -0.0);
        }
    }
    images.push(signed);
    images
}

/// The smallest graph that showed the `-0.0` break: a max pool straight
/// off the input keeps the sign of a `-0.0` column outside the stripe.
#[test]
fn negative_zero_columns_stay_bit_identical() {
    let mut b = NetworkBuilder::new(2, 8, 8);
    let x = b.input();
    let x = b.max_pool(x, 2);
    let x = b.conv(x, 4, 3, 1);
    let x = b.global_avg_pool(x);
    b.linear(x, 3);
    let net = b.build();
    let params = Params::init(&net, 7);
    let mut img = Tensor3::zeros(2, 8, 8);
    for y in 0..8 {
        img.set(0, y, 2, -0.0);
        img.set(0, y, 3, -0.0);
        img.set(0, y, 6, 0.5);
    }
    check(&net, &params, &[img]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cached_walk_is_bit_identical_to_full_width_walk(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_net(&mut rng);
        let params = pruned_params(&net, &mut rng);
        let images = probe_images(net.input_shape(), &mut rng);
        check(&net, &params, &images);
    }
}

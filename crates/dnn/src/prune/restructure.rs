//! Structured channel pruning: rank whole output channels by L1 norm and
//! *physically remove* them, rewriting the graph and its parameters.
//!
//! Unstructured and N:M pruning zero weights but leave every shape intact;
//! structured pruning shrinks them. That is exactly the regime where the
//! boundary-effect prober's job changes: the channel counts it recovers are
//! no longer the zoo's textbook values, so the attack must read them off
//! the device rather than pattern-match a known family.
//!
//! # Channel classes
//!
//! Removing output channel `k` of a convolution forces every consumer of
//! that activation map to drop its input channel `k` too — and a residual
//! `Add` forces *both* of its operands to keep the same channel set. The
//! pass therefore first partitions map-producing nodes into **channel
//! classes** with a union-find:
//!
//! * a `Conv` output starts its own class,
//! * `DwConv` and `Pool` outputs join their input's class (channel
//!   preserving),
//! * `Add` unifies the classes of both operands (and joins them),
//! * a class containing the network `Input` is unprunable — the attacker
//!   feeds images, not channel-sliced tensors.
//!
//! Each prunable class scores channel `k` as the summed L1 norm of filter
//! `k` over every producer conv in the class (plus the per-channel
//! depthwise weights riding on the class), keeps the top `keep_frac`
//! fraction, and [`restructure`] rewrites the network: producer `K` axes,
//! consumer `C` axes, biases, BN affines, depthwise filters, and the
//! flatten/GAP-fed linear head's input columns all shrink together. The
//! result is validated with [`crate::verify`] — a half-rewritten graph
//! (orphaned BN length, mismatched residual operands) is a bug, not a
//! victim.

use crate::graph::{ConvSpec, LayerParams, Network, NetworkBuilder, NodeId, Op, Params};
use hd_tensor::norm::Affine;

/// Configuration for [`structured_prune`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StructuredCfg {
    /// Fraction of each prunable class's channels to keep (ceil-rounded).
    pub keep_frac: f64,
    /// Floor of surviving channels per class.
    pub min_keep: usize,
}

impl Default for StructuredCfg {
    fn default() -> Self {
        StructuredCfg {
            keep_frac: 0.5,
            min_keep: 2,
        }
    }
}

/// Per-node output-channel keep masks produced by [`plan_channels`].
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelPlan {
    /// `keep[id]` is `Some(mask)` for map-producing nodes; nodes in the
    /// same channel class share identical masks.
    pub keep: Vec<Option<Vec<bool>>>,
}

impl ChannelPlan {
    /// Total channels removed across all distinct classes.
    pub fn channels_removed(&self, net: &Network) -> usize {
        // Count each class once, via its conv producers' output masks.
        let mut removed = 0;
        for (id, node) in net.nodes().iter().enumerate() {
            if matches!(node.op, Op::Conv(_)) {
                if let Some(mask) = &self.keep[id] {
                    removed += mask.iter().filter(|&&k| !k).count();
                }
            }
        }
        removed
    }
}

/// Minimal union-find over node ids.
struct Uf(Vec<usize>);

impl Uf {
    fn new(n: usize) -> Uf {
        Uf((0..n).collect())
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.0[i] != i {
            self.0[i] = self.0[self.0[i]];
            i = self.0[i];
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: the smaller root wins.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.0[hi] = lo;
        }
    }
}

/// Computes the channel classes and per-class keep masks for `net` under
/// `cfg`, scoring channels by summed producer L1 norm.
///
/// # Panics
///
/// Panics if `cfg.keep_frac` is not in `(0, 1]`, or if the graph's channel
/// bookkeeping is inconsistent (run [`crate::verify`] first).
pub fn plan_channels(net: &Network, params: &Params, cfg: &StructuredCfg) -> ChannelPlan {
    assert!(
        cfg.keep_frac > 0.0 && cfg.keep_frac <= 1.0,
        "keep_frac must be in (0, 1]"
    );
    let n = net.len();
    let mut uf = Uf::new(n);
    let mut is_map = vec![false; n];
    for (id, node) in net.nodes().iter().enumerate() {
        match &node.op {
            Op::Input | Op::Conv(_) => is_map[id] = true,
            Op::DwConv { .. } | Op::Pool { .. } => {
                is_map[id] = true;
                uf.union(id, node.inputs[0]);
            }
            Op::Add { .. } => {
                is_map[id] = true;
                uf.union(node.inputs[0], node.inputs[1]);
                uf.union(id, node.inputs[0]);
            }
            Op::GlobalAvgPool | Op::Flatten | Op::Linear { .. } => {}
        }
    }

    // Per class root: channel count, prunability, and channel scores.
    let mut channels = vec![0usize; n];
    let mut prunable = vec![true; n];
    let mut scores: Vec<Vec<f64>> = vec![Vec::new(); n];
    for (id, &mapped) in is_map.iter().enumerate() {
        if !mapped {
            continue;
        }
        let root = uf.find(id);
        let c = net.map_shape(id).c;
        if channels[root] == 0 {
            channels[root] = c;
            scores[root] = vec![0.0; c];
        } else {
            assert_eq!(
                channels[root], c,
                "channel class of node {id} mixes widths {} and {c}; graph is not verify-clean",
                channels[root]
            );
        }
        match &net.nodes()[id].op {
            Op::Input => prunable[root] = false,
            Op::Conv(_) => {
                if let Some(LayerParams::Conv { w, .. }) = &params.layers[id] {
                    let filter = w.c() * w.r() * w.s();
                    for (score, taps) in scores[root].iter_mut().zip(w.data().chunks_exact(filter))
                    {
                        // hd-lint: allow(float-reduction-order) -- summed in slice order (left-to-right), and widened to f64 so the tap order cannot flip a ranking
                        let l1: f64 = taps.iter().map(|v| f64::from(v.abs())).sum();
                        *score += l1;
                    }
                }
            }
            Op::DwConv { .. } => {
                // Per-channel depthwise weights vote for their channel.
                if let Some(LayerParams::DwConv { w, .. }) = &params.layers[id] {
                    let filter = w.c() * w.r() * w.s();
                    for (score, taps) in scores[root].iter_mut().zip(w.data().chunks_exact(filter))
                    {
                        // hd-lint: allow(float-reduction-order) -- summed in slice order (left-to-right), and widened to f64 so the tap order cannot flip a ranking
                        let l1: f64 = taps.iter().map(|v| f64::from(v.abs())).sum();
                        *score += l1;
                    }
                }
            }
            _ => {}
        }
    }

    // A class with no conv producer has nothing to rank (it is fed by the
    // input); such classes stay intact even without an Input member.
    let mut has_producer = vec![false; n];
    for (id, node) in net.nodes().iter().enumerate() {
        if matches!(node.op, Op::Conv(_)) {
            let root = uf.find(id);
            has_producer[root] = true;
        }
    }

    let mut class_keep: Vec<Option<Vec<bool>>> = vec![None; n];
    for root in 0..n {
        if channels[root] == 0 {
            continue; // not a class root (or vector node)
        }
        let c = channels[root];
        let keep = if !prunable[root] || !has_producer[root] {
            vec![true; c]
        } else {
            let want = ((c as f64) * cfg.keep_frac).ceil() as usize;
            let keep_count = want.max(cfg.min_keep).clamp(1, c);
            let mut order: Vec<usize> = (0..c).collect();
            order.sort_by(|&a, &b| scores[root][b].total_cmp(&scores[root][a]).then(a.cmp(&b)));
            let mut keep = vec![false; c];
            for &k in order.iter().take(keep_count) {
                keep[k] = true;
            }
            keep
        };
        class_keep[root] = Some(keep);
    }

    let mut keep = vec![None; n];
    for id in 0..n {
        if is_map[id] {
            let root = uf.find(id);
            keep[id] = class_keep[root].clone();
        }
    }
    ChannelPlan { keep }
}

fn count(keep: &[bool]) -> usize {
    keep.iter().filter(|&&k| k).count()
}

fn slice_vec(v: &[f32], keep: &[bool]) -> Vec<f32> {
    v.iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .map(|(&x, _)| x)
        .collect()
}

fn slice_affine(bn: &Affine, keep: &[bool]) -> Affine {
    Affine::new(slice_vec(bn.scale(), keep), slice_vec(bn.shift(), keep))
}

/// Physically rewrites `net`/`params` according to `plan`: producer `K`
/// axes, consumer `C` axes, biases, BN affines, and the flatten/GAP-fed
/// linear head all shrink to the surviving channels. Returns the new
/// network and parameters; every shape comes from
/// [`implied_shape`](crate::verify::implied_shape).
///
/// # Panics
///
/// Panics if `plan` was built for a different graph, or if the rewritten
/// graph breaks the shape rule (an internal invariant: dangling channels
/// are a bug, not a result).
pub fn restructure(net: &Network, params: &Params, plan: &ChannelPlan) -> (Network, Params) {
    assert_eq!(
        plan.keep.len(),
        net.len(),
        "plan built for a different graph"
    );
    let n = net.len();
    let input = net.input_shape();
    let mut builder = NetworkBuilder::new(input.c, input.h, input.w);
    let mut layers: Vec<Option<LayerParams>> = Vec::with_capacity(n);
    // Element-level keep mask per node output: channel mask for maps,
    // expanded per-element mask for vectors (drives linear-column slicing).
    let mut out_keep: Vec<Vec<bool>> = Vec::with_capacity(n);

    let keep_of = |plan: &ChannelPlan, id: NodeId| -> Vec<bool> {
        match &plan.keep[id] {
            Some(k) => k.clone(),
            #[expect(clippy::panic, reason = "plan_channels fills every map-producing node")]
            None => panic!("plan has no keep mask for map node {id}"),
        }
    };

    for (id, node) in net.nodes().iter().enumerate() {
        let mut op = node.op.clone();
        match &node.op {
            Op::Input => {
                layers.push(None);
                out_keep.push(vec![true; input.c]);
            }
            Op::Conv(spec) => {
                let in_keep = &out_keep[node.inputs[0]];
                let ch_keep = keep_of(plan, id);
                op = Op::Conv(ConvSpec {
                    out_channels: count(&ch_keep),
                    ..*spec
                });
                let lp = match &params.layers[id] {
                    Some(LayerParams::Conv { w, b, bn }) => LayerParams::Conv {
                        w: w.select_k(&ch_keep).select_c(in_keep),
                        b: b.as_ref().map(|b| slice_vec(b, &ch_keep)),
                        bn: bn.as_ref().map(|bn| slice_affine(bn, &ch_keep)),
                    },
                    #[expect(
                        clippy::panic,
                        reason = "verify-clean graphs carry conv params on conv nodes"
                    )]
                    other => panic!("conv node {id} has no conv params: {other:?}"),
                };
                layers.push(Some(lp));
                out_keep.push(ch_keep);
            }
            Op::DwConv { .. } => {
                let ch_keep = out_keep[node.inputs[0]].clone();
                let lp = match &params.layers[id] {
                    Some(LayerParams::DwConv { w, bn }) => LayerParams::DwConv {
                        w: w.select_k(&ch_keep),
                        bn: bn.as_ref().map(|bn| slice_affine(bn, &ch_keep)),
                    },
                    #[expect(
                        clippy::panic,
                        reason = "verify-clean graphs carry dwconv params on dwconv nodes"
                    )]
                    other => panic!("dwconv node {id} has no dwconv params: {other:?}"),
                };
                layers.push(Some(lp));
                out_keep.push(ch_keep);
            }
            Op::Pool { .. } | Op::Add { .. } | Op::GlobalAvgPool => {
                layers.push(None);
                out_keep.push(out_keep[node.inputs[0]].clone());
            }
            Op::Flatten => {
                // Expand the channel mask over the *original* map layout:
                // flatten is channel-major, so channel k owns h*w columns.
                let src = node.inputs[0];
                let plane = net.value_shape(src).len() / out_keep[src].len().max(1);
                let elems = out_keep[src]
                    .iter()
                    .flat_map(|&keep_ch| std::iter::repeat_n(keep_ch, plane))
                    .collect();
                layers.push(None);
                out_keep.push(elems);
            }
            Op::Linear { out_features, .. } => {
                let in_keep = &out_keep[node.inputs[0]];
                let new_in = count(in_keep);
                let lp = match &params.layers[id] {
                    Some(LayerParams::Linear {
                        w, b, in_features, ..
                    }) => {
                        assert_eq!(
                            *in_features,
                            in_keep.len(),
                            "linear node {id} input features disagree with the keep mask"
                        );
                        let mut new_w = Vec::with_capacity(out_features * new_in);
                        for row in w.chunks(*in_features) {
                            new_w.extend(
                                row.iter().zip(in_keep).filter(|(_, &k)| k).map(|(&x, _)| x),
                            );
                        }
                        LayerParams::Linear {
                            w: new_w,
                            b: b.clone(),
                            in_features: new_in,
                            out_features: *out_features,
                        }
                    }
                    #[expect(
                        clippy::panic,
                        reason = "verify-clean graphs carry linear params on linear nodes"
                    )]
                    other => panic!("linear node {id} has no linear params: {other:?}"),
                };
                layers.push(Some(lp));
                out_keep.push(vec![true; *out_features]);
            }
        }
        builder.push_named(op, node.inputs.clone(), net.name(id).to_string());
    }
    (builder.build(), Params { layers })
}

/// A structured-pruning result: the rewritten network and parameters plus
/// the channel plan that produced them.
#[derive(Clone, Debug)]
pub struct Restructured {
    /// The channel-removed network.
    pub net: Network,
    /// Parameters matching [`Restructured::net`].
    pub params: Params,
    /// The per-node keep masks that were applied.
    pub plan: ChannelPlan,
}

/// Structured channel pruning end to end: plan channel classes, rewrite
/// the graph, and validate the result with [`crate::verify`].
///
/// # Panics
///
/// Panics if the *input* graph is not verify-clean, or if the rewrite
/// fails verification (an internal invariant).
pub fn structured_prune(net: &Network, params: &Params, cfg: &StructuredCfg) -> Restructured {
    let plan = plan_channels(net, params, cfg);
    let (new_net, new_params) = restructure(net, params, &plan);
    let errors: Vec<_> = crate::verify::verify(
        &new_net,
        Some(&new_params),
        &crate::verify::Limits::default(),
    )
    .into_iter()
    .filter(|d| d.severity == crate::verify::Severity::Error)
    .collect();
    assert!(
        errors.is_empty(),
        "restructured graph failed verification (dangling channels?): {errors:?}"
    );
    Restructured {
        net: new_net,
        params: new_params,
        plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkBuilder;
    use hd_tensor::Tensor3;

    fn chain_net() -> (Network, Params) {
        let mut b = NetworkBuilder::new(3, 12, 12);
        let x = b.input();
        let x = b.conv(x, 8, 3, 1);
        let x = b.max_pool(x, 2);
        let x = b.conv(x, 6, 3, 1);
        let x = b.global_avg_pool(x);
        b.linear(x, 4);
        let net = b.build();
        let params = Params::init(&net, 11);
        (net, params)
    }

    fn residual_net() -> (Network, Params) {
        let mut b = NetworkBuilder::new(3, 8, 8);
        let x = b.input();
        let stem = b.conv(x, 8, 3, 1);
        let y = b.conv(stem, 8, 3, 1);
        let j = b.add(stem, y);
        let x = b.global_avg_pool(j);
        b.linear(x, 3);
        let net = b.build();
        let params = Params::init(&net, 13);
        (net, params)
    }

    #[test]
    fn chain_halves_channels_and_verifies() {
        let (net, params) = chain_net();
        let r = structured_prune(&net, &params, &StructuredCfg::default());
        // conv1: 8 -> 4, conv3: 6 -> 3.
        let w1 = r.params.conv(1).w;
        assert_eq!((w1.k(), w1.c()), (4, 3));
        let w3 = r.params.conv(3).w;
        assert_eq!((w3.k(), w3.c()), (3, 4));
        // Head input shrank with the GAP channels.
        let head = r.params.linear(5);
        assert_eq!(head.in_features, 3);
        assert_eq!(head.out_features, 4);
        assert!(crate::verify::verify_strict(
            &r.net,
            Some(&r.params),
            &crate::verify::Limits::default()
        )
        .is_ok());
    }

    #[test]
    fn residual_add_operands_share_a_keep_set() {
        let (net, params) = residual_net();
        let r = structured_prune(&net, &params, &StructuredCfg::default());
        // Both convs feed the add (one directly, one through it): the class
        // is shared, so both keep masks are identical.
        assert_eq!(r.plan.keep[1], r.plan.keep[2]);
        assert_eq!(r.params.conv(1).w.k(), r.params.conv(2).w.k());
        // conv2's input channels track conv1's surviving outputs.
        assert_eq!(r.params.conv(2).w.c(), r.params.conv(1).w.k());
        let out = r.net.forward(&r.params, &Tensor3::full(3, 8, 8, 0.5));
        assert!(out.logits().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn l1_ranking_keeps_the_heavy_channels() {
        let mut b = NetworkBuilder::new(1, 6, 6);
        let x = b.input();
        let x = b.conv(x, 4, 3, 1);
        b.global_avg_pool(x);
        let net = b.build();
        let mut params = Params::init(&net, 1);
        // Make channels 1 and 3 heavy, 0 and 2 tiny.
        if let Some(w) = params.conv_weights_mut(1) {
            for k in 0..4 {
                let scale = if k % 2 == 1 { 10.0 } else { 0.01 };
                for c in 0..1 {
                    for r in 0..3 {
                        for s in 0..3 {
                            w.set(k, c, r, s, scale);
                        }
                    }
                }
            }
        }
        let plan = plan_channels(&net, &params, &StructuredCfg::default());
        assert_eq!(plan.keep[1], Some(vec![false, true, false, true]));
        assert_eq!(plan.channels_removed(&net), 2);
    }

    #[test]
    fn forward_matches_manual_channel_slice() {
        // Keeping all channels must reproduce the original network exactly.
        let (net, params) = chain_net();
        let cfg = StructuredCfg {
            keep_frac: 1.0,
            min_keep: 1,
        };
        let r = structured_prune(&net, &params, &cfg);
        assert_eq!(r.net, net);
        assert_eq!(r.params, params);
    }

    #[test]
    fn min_keep_floor_holds() {
        let (net, params) = chain_net();
        let cfg = StructuredCfg {
            keep_frac: 0.01,
            min_keep: 2,
        };
        let r = structured_prune(&net, &params, &cfg);
        assert_eq!(r.params.conv(1).w.k(), 2);
        assert_eq!(r.params.conv(3).w.k(), 2);
    }

    #[test]
    fn input_class_is_never_pruned() {
        let (net, params) = chain_net();
        let plan = plan_channels(&net, &params, &StructuredCfg::default());
        assert_eq!(plan.keep[0], Some(vec![true; 3]));
    }
}

//! Pruning: unstructured magnitude, lottery-ticket schedules, N:M
//! fine-grained sparsity, and structured channel removal.
//!
//! The paper's victims are pruned 10x with the Lottery Ticket Hypothesis.
//! Several paths are provided:
//!
//! * [`lottery_ticket`] — the real thing at mini scale: train, prune the
//!   smallest-magnitude weights, rewind surviving weights to their initial
//!   values, retrain; repeated over rounds,
//! * [`apply_sparsity_profile`] — synthesizes a per-layer sparsity *pattern*
//!   directly (random mask at the requested density), used for the full-size
//!   probing victims where only the sparsity structure matters (see
//!   DESIGN.md "Substitutions"),
//! * [`nm_prune`] — N:M fine-grained pruning (default 2:4): within every
//!   group of `M` consecutive weights along the input-channel axis, keep the
//!   `N` largest magnitudes. This is the hardware-friendly pattern sparse
//!   tensor cores accelerate, and it changes the nnz *statistics* the
//!   attack's symbolic engine consumes without changing any layer shape,
//! * [`restructure`] — structured channel pruning: whole output channels are
//!   ranked by L1 norm and *physically removed*, shrinking the producer's
//!   `K` axis, every consumer's `C` axis, BN/bias vectors, and the head's
//!   input features. Residual adds force their operands to share one keep
//!   set. Unlike every mode above, this changes the layer shapes the
//!   boundary-effect prober recovers.

use crate::graph::{LayerParams, Network, NodeId, Params};
use crate::train::{train, TrainConfig};
use hd_tensor::Tensor3;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

pub mod restructure;

pub use restructure::{structured_prune, ChannelPlan, Restructured, StructuredCfg};

/// Binary keep-masks for every weighted node.
#[derive(Clone, Debug, PartialEq)]
pub struct Mask {
    /// `masks[id]` is `Some(keep)` iff node `id` carries maskable weights.
    pub masks: Vec<Option<Vec<bool>>>,
}

impl Mask {
    /// All-keep mask for a network.
    pub fn ones(net: &Network, params: &Params) -> Mask {
        let masks = (0..net.len())
            .map(|id| weight_slice(params, id).map(|w| vec![true; w.len()]))
            .collect();
        Mask { masks }
    }

    /// Zeroes out pruned weights in `params`.
    pub fn apply(&self, params: &mut Params) {
        for (id, m) in self.masks.iter().enumerate() {
            let Some(m) = m else { continue };
            if let Some(w) = weight_slice_mut(params, id) {
                for (v, keep) in w.iter_mut().zip(m) {
                    if !keep {
                        *v = 0.0;
                    }
                }
            }
        }
    }

    /// Fraction of weights pruned across all layers.
    pub fn overall_sparsity(&self) -> f64 {
        let (mut kept, mut total) = (0usize, 0usize);
        for m in self.masks.iter().flatten() {
            kept += m.iter().filter(|&&k| k).count();
            total += m.len();
        }
        if total == 0 {
            0.0
        } else {
            1.0 - kept as f64 / total as f64
        }
    }

    /// Per-node sparsity (pruned fraction), `None` for weightless nodes.
    pub fn layer_sparsity(&self, id: NodeId) -> Option<f64> {
        self.masks[id].as_ref().map(|m| {
            let kept = m.iter().filter(|&&k| k).count();
            1.0 - kept as f64 / m.len().max(1) as f64
        })
    }
}

fn weight_slice(params: &Params, id: NodeId) -> Option<&[f32]> {
    match &params.layers[id] {
        Some(LayerParams::Conv { w, .. }) => Some(w.data()),
        Some(LayerParams::DwConv { w, .. }) => Some(w.data()),
        Some(LayerParams::Linear { w, .. }) => Some(w),
        None => None,
    }
}

fn weight_slice_mut(params: &mut Params, id: NodeId) -> Option<&mut [f32]> {
    match &mut params.layers[id] {
        Some(LayerParams::Conv { w, .. }) => Some(w.data_mut()),
        Some(LayerParams::DwConv { w, .. }) => Some(w.data_mut()),
        Some(LayerParams::Linear { w, .. }) => Some(w),
        None => None,
    }
}

/// Global magnitude pruning: keeps the largest-magnitude weights so the
/// overall density is `1 - sparsity`, never pruning a layer below
/// `min_layer_keep` surviving weights.
///
/// # Panics
///
/// Panics if `sparsity` is not in `[0, 1)`.
pub fn magnitude_prune_global(
    net: &Network,
    params: &Params,
    sparsity: f64,
    min_layer_keep: usize,
) -> Mask {
    assert!((0.0..1.0).contains(&sparsity), "sparsity must be in [0,1)");
    // Collect |w| across all layers to find the global threshold.
    let mut all: Vec<f32> = Vec::new();
    for id in net.weighted_nodes() {
        if let Some(w) = weight_slice(params, id) {
            all.extend(w.iter().map(|v| v.abs()));
        }
    }
    if all.is_empty() {
        return Mask::ones(net, params);
    }
    all.sort_by(|a, b| a.total_cmp(b));
    let cut_idx = ((all.len() as f64) * sparsity) as usize;
    let threshold = all[cut_idx.min(all.len() - 1)];

    let mut masks = vec![None; net.len()];
    #[expect(clippy::needless_range_loop, reason = "index-parallel numeric kernel")]
    for id in 0..net.len() {
        let Some(w) = weight_slice(params, id) else {
            continue;
        };
        let mut keep: Vec<bool> = w.iter().map(|v| v.abs() > threshold).collect();
        let kept = keep.iter().filter(|&&k| k).count();
        if kept < min_layer_keep.min(w.len()) {
            // Re-rank within the layer to preserve the floor.
            let mut idx: Vec<usize> = (0..w.len()).collect();
            idx.sort_by(|&a, &b| w[b].abs().total_cmp(&w[a].abs()));
            keep = vec![false; w.len()];
            for &i in idx.iter().take(min_layer_keep.min(w.len())) {
                keep[i] = true;
            }
        }
        masks[id] = Some(keep);
    }
    Mask { masks }
}

/// Per-layer magnitude pruning to an exact per-layer sparsity.
pub fn magnitude_prune_layer(params: &Params, id: NodeId, sparsity: f64) -> Option<Vec<bool>> {
    let w = weight_slice(params, id)?;
    let mut idx: Vec<usize> = (0..w.len()).collect();
    idx.sort_by(|&a, &b| w[a].abs().total_cmp(&w[b].abs()));
    let prune_n = ((w.len() as f64) * sparsity).round() as usize;
    let mut keep = vec![true; w.len()];
    for &i in idx.iter().take(prune_n.min(w.len())) {
        keep[i] = false;
    }
    Some(keep)
}

/// A per-layer target-sparsity profile.
#[derive(Clone, Debug, PartialEq)]
pub struct SparsityProfile {
    /// `(node id, pruned fraction)` for each weighted node.
    pub targets: Vec<(NodeId, f64)>,
}

impl SparsityProfile {
    /// Overall sparsity implied by the profile for the given network.
    pub fn overall(&self, net: &Network, params: &Params) -> f64 {
        let mut dense = 0.0;
        let mut kept = 0.0;
        for &(id, s) in &self.targets {
            if let Some(w) = weight_slice(params, id) {
                dense += w.len() as f64;
                kept += w.len() as f64 * (1.0 - s);
            }
        }
        let _ = net;
        if dense == 0.0 {
            0.0
        } else {
            1.0 - kept / dense
        }
    }
}

/// A sparsity profile shaped like the paper's 10x-pruned victims:
/// the first conv layer keeps ~55% of its weights (paper §8.2: first-layer
/// sparsity "rarely beyond 60%"), the final classifier stays moderately
/// dense, and interior layers absorb the rest of the 90% global pruning
/// budget in proportion to their size (large layers pruned hardest,
/// mirroring the paper's observation about e.g. conv5_3 at 99.85%).
pub fn paper_profile(net: &Network) -> SparsityProfile {
    let weighted = net.weighted_nodes();
    let n = weighted.len();
    let mut targets = Vec::with_capacity(n);
    let sizes: Vec<usize> = weighted
        .iter()
        .map(|&id| net.weight_len(id).unwrap_or(0))
        .collect();
    let max_size = sizes.iter().copied().max().unwrap_or(1) as f64;
    for (pos, (&id, &size)) in weighted.iter().zip(&sizes).enumerate() {
        let s = if pos == 0 {
            0.45 // first layer: hard to prune
        } else if pos + 1 == n {
            0.70 // classifier head
        } else {
            // Interior: between 85% and 99.8%, larger layers pruned harder.
            let t = (size as f64 / max_size).sqrt();
            0.85 + t * 0.148
        };
        targets.push((id, s));
    }
    SparsityProfile { targets }
}

/// Applies a sparsity profile with *random* masks (structure-only pruning
/// for full-size probing victims). Deterministic in `seed`: the mask is
/// [`random_mask`]`(net, profile, seed)`.
pub fn apply_sparsity_profile(
    net: &Network,
    params: &mut Params,
    profile: &SparsityProfile,
    seed: u64,
) -> Mask {
    let mask = random_mask(net, profile, seed);
    mask.apply(params);
    mask
}

/// The random mask of [`apply_sparsity_profile`], drawn from the
/// network's geometry alone, so a victim can be initialised mask-first
/// with [`Params::init_masked`] and never draw its pruned weights.
///
/// Per target, in profile order, it is the mask of a Fisher–Yates shuffle
/// of the layer's indices whose first `prune_n` entries are pruned.
pub fn random_mask(net: &Network, profile: &SparsityProfile, seed: u64) -> Mask {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut masks = vec![None; net.len()];
    for &(id, sparsity) in &profile.targets {
        if let Some(len) = net.weight_len(id) {
            masks[id] = Some(shuffled_keep(len, sparsity, &mut rng));
        }
    }
    Mask { masks }
}

/// Keep-mask of `len` weights with `round(len * sparsity)` pruned: the
/// complement of the first `prune_n` entries of `(0..len).shuffle(rng)`,
/// with `rng` left where that shuffle leaves it.
///
/// The shuffle runs from the end and step `i` fixes position `i` for good,
/// so the kept entries `idx[prune_n..]` are final after steps
/// `len - 1 ..= prune_n`. The steps below only reorder the pruned prefix;
/// their draws are consumed without swapping. With nothing pruned no swap
/// matters at all.
fn shuffled_keep(len: usize, sparsity: f64, rng: &mut StdRng) -> Vec<bool> {
    let prune_n = (((len as f64) * sparsity).round() as usize).min(len);
    let first = if prune_n == 0 { len } else { prune_n };
    #[expect(
        clippy::expect_used,
        reason = "2^32 f32 weights would be 16 GiB in one layer, beyond any network this crate builds"
    )]
    let n = u32::try_from(len).expect("a layer holds fewer than 2^32 weights");
    let mut idx: Vec<u32> = (0..n).collect();
    for i in (first..len).rev() {
        idx.swap(i, rng.gen_range(0..=i));
    }
    for _ in 1..first {
        rng.next_u64();
    }
    let mut keep = vec![false; len];
    for &i in &idx[prune_n..] {
        keep[i as usize] = true;
    }
    keep
}

/// Applies a sparsity profile by *magnitude* (keeps each layer's largest
/// trained weights at the profile's per-layer density). Use this for
/// trained victims; [`apply_sparsity_profile`] (random masks) is for
/// structure-only victims.
pub fn magnitude_prune_profile(
    net: &Network,
    params: &mut Params,
    profile: &SparsityProfile,
) -> Mask {
    let mut masks = vec![None; net.len()];
    for &(id, sparsity) in &profile.targets {
        masks[id] = magnitude_prune_layer(params, id, sparsity);
    }
    let mask = Mask { masks };
    mask.apply(params);
    mask
}

/// Marks the top-`n` magnitudes of one `M`-group as kept. `group` holds
/// flat indices into `w`; ties break toward the lower index so the mask is
/// a pure function of the weights.
fn nm_keep_group(w: &[f32], group: &[usize], n: usize, keep: &mut [bool]) {
    let mut order: Vec<usize> = group.to_vec();
    order.sort_by(|&a, &b| w[b].abs().total_cmp(&w[a].abs()).then(a.cmp(&b)));
    for &i in order.iter().take(n.min(group.len())) {
        keep[i] = true;
    }
}

/// N:M fine-grained pruning mask: within every group of `m` consecutive
/// positions along the input-channel axis, the `n` largest-magnitude
/// weights survive (per output channel and kernel tap for convolutions,
/// per output feature for linear layers). The default hardware pattern is
/// 2:4; arbitrary `n <= m` is supported. Groups shorter than `m` (channel
/// count not divisible by `m`) keep `min(n, len)` weights.
///
/// Depthwise convolutions have a unit input-channel axis, so the pattern
/// is vacuous there and every depthwise weight is kept.
///
/// # Panics
///
/// Panics unless `1 <= n <= m`.
pub fn nm_mask(net: &Network, params: &Params, n: usize, m: usize) -> Mask {
    assert!(n >= 1, "N:M pruning requires n >= 1");
    assert!(n <= m, "N:M pruning requires n <= m");
    let mut masks = vec![None; net.len()];
    for (id, node) in net.nodes().iter().enumerate() {
        match (&node.op, &params.layers[id]) {
            (crate::graph::Op::Conv(_), Some(LayerParams::Conv { w, .. })) => {
                let mut keep = vec![false; w.len()];
                let mut group = Vec::with_capacity(m);
                for k in 0..w.k() {
                    for r in 0..w.r() {
                        for s in 0..w.s() {
                            for c0 in (0..w.c()).step_by(m) {
                                group.clear();
                                for c in c0..(c0 + m).min(w.c()) {
                                    group.push(w.index(k, c, r, s));
                                }
                                nm_keep_group(w.data(), &group, n, &mut keep);
                            }
                        }
                    }
                }
                masks[id] = Some(keep);
            }
            (crate::graph::Op::DwConv { .. }, Some(LayerParams::DwConv { w, .. })) => {
                // Unit input-channel axis: the N:M pattern is vacuous.
                masks[id] = Some(vec![true; w.len()]);
            }
            (crate::graph::Op::Linear { .. }, Some(LayerParams::Linear { w, in_features, .. })) => {
                let in_f = (*in_features).max(1);
                let mut keep = vec![false; w.len()];
                let mut group = Vec::with_capacity(m);
                for row in 0..w.len() / in_f {
                    for i0 in (0..in_f).step_by(m) {
                        group.clear();
                        for i in i0..(i0 + m).min(in_f) {
                            group.push(row * in_f + i);
                        }
                        nm_keep_group(w, &group, n, &mut keep);
                    }
                }
                masks[id] = Some(keep);
            }
            _ => {}
        }
    }
    Mask { masks }
}

/// Computes the N:M mask ([`nm_mask`]) and zeroes the pruned weights.
pub fn nm_prune(net: &Network, params: &mut Params, n: usize, m: usize) -> Mask {
    let mask = nm_mask(net, params, n, m);
    mask.apply(params);
    mask
}

/// Configuration for [`lottery_ticket`].
#[derive(Clone, Debug)]
pub struct LotteryConfig {
    /// Pruning rounds.
    pub rounds: usize,
    /// Fraction of *remaining* weights pruned each round.
    pub prune_per_round: f64,
    /// Training schedule per round.
    pub train: TrainConfig,
    /// Floor of surviving weights per layer.
    pub min_layer_keep: usize,
}

impl Default for LotteryConfig {
    fn default() -> Self {
        LotteryConfig {
            rounds: 3,
            prune_per_round: 0.5,
            train: TrainConfig::default(),
            min_layer_keep: 8,
        }
    }
}

/// Iterative magnitude pruning with weight rewinding (Lottery Ticket
/// Hypothesis, Frankle & Carbin 2019): train -> prune globally -> rewind
/// surviving weights to initialization -> repeat; finally retrain the ticket.
///
/// Returns the final mask; `params` holds the trained sparse weights.
pub fn lottery_ticket(
    net: &Network,
    params: &mut Params,
    dataset: &[(Tensor3, usize)],
    cfg: &LotteryConfig,
) -> Mask {
    let init = params.clone();
    let mut mask = Mask::ones(net, params);
    let mut cumulative_sparsity = 0.0;
    for _round in 0..cfg.rounds {
        train(net, params, dataset, &cfg.train, Some(&mask));
        cumulative_sparsity = 1.0 - (1.0 - cumulative_sparsity) * (1.0 - cfg.prune_per_round);
        mask = magnitude_prune_global(net, params, cumulative_sparsity, cfg.min_layer_keep);
        // Rewind to initialization (keeping only the surviving weights).
        *params = init.clone();
        mask.apply(params);
    }
    train(net, params, dataset, &cfg.train, Some(&mask));
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkBuilder;

    fn tiny_net() -> Network {
        let mut b = NetworkBuilder::new(2, 6, 6);
        let x = b.input();
        let x = b.conv(x, 4, 3, 1);
        let x = b.conv(x, 4, 3, 1);
        let x = b.global_avg_pool(x);
        b.linear(x, 3);
        b.build()
    }

    #[test]
    fn nm_mask_groups_hold_n_of_m() {
        let net = tiny_net();
        let mut params = Params::init(&net, 5);
        let mask = nm_prune(&net, &mut params, 2, 4);
        for id in [1usize, 2] {
            let w = params.conv(id).w;
            let m = mask.masks[id].as_ref().unwrap();
            for k in 0..w.k() {
                for r in 0..w.r() {
                    for s in 0..w.s() {
                        for c0 in (0..w.c()).step_by(4) {
                            let group: Vec<usize> = (c0..(c0 + 4).min(w.c()))
                                .map(|c| ((k * w.c() + c) * w.r() + r) * w.s() + s)
                                .collect();
                            let nnz = group.iter().filter(|&&i| m[i]).count();
                            assert!(nnz <= 2, "group carries {nnz} > 2 nonzeros");
                            // Pruned weights are physically zeroed.
                            for &i in &group {
                                if !m[i] {
                                    assert_eq!(w.data()[i], 0.0);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nm_mask_keeps_top_magnitudes() {
        let mut b = NetworkBuilder::new(4, 6, 6);
        let x = b.input();
        let x = b.conv(x, 1, 1, 1);
        b.global_avg_pool(x);
        let net = b.build();
        let mut params = Params::init(&net, 1);
        if let Some(w) = params.conv_weights_mut(1) {
            for (c, v) in [0.1, -0.9, 0.5, 0.2].into_iter().enumerate() {
                w.set(0, c, 0, 0, v);
            }
        }
        let mask = nm_mask(&net, &params, 2, 4);
        assert_eq!(
            mask.masks[1],
            Some(vec![false, true, true, false]),
            "keeps |-0.9| and |0.5|"
        );
    }

    #[test]
    fn nm_linear_groups_along_in_features() {
        let net = tiny_net();
        let mut params = Params::init(&net, 9);
        nm_prune(&net, &mut params, 1, 2);
        let lin = params.linear(4);
        for row in lin.w.chunks(lin.in_features) {
            for pair in row.chunks(2) {
                let nnz = pair.iter().filter(|v| **v != 0.0).count();
                assert!(nnz <= 1, "1:2 row group has {nnz} nonzeros");
            }
        }
    }

    #[test]
    #[should_panic(expected = "n <= m")]
    fn nm_rejects_n_above_m() {
        let net = tiny_net();
        let params = Params::init(&net, 3);
        nm_mask(&net, &params, 5, 4);
    }

    #[test]
    fn ones_mask_is_noop() {
        let net = tiny_net();
        let mut params = Params::init(&net, 1);
        let before = params.clone();
        Mask::ones(&net, &params).apply(&mut params);
        assert_eq!(params, before);
    }

    #[test]
    fn global_prune_hits_target() {
        let net = tiny_net();
        let params = Params::init(&net, 2);
        let mask = magnitude_prune_global(&net, &params, 0.9, 1);
        let s = mask.overall_sparsity();
        assert!((s - 0.9).abs() < 0.05, "sparsity {s}");
    }

    #[test]
    fn global_prune_respects_layer_floor() {
        let net = tiny_net();
        let params = Params::init(&net, 2);
        let mask = magnitude_prune_global(&net, &params, 0.99, 10);
        for id in net.weighted_nodes() {
            let m = mask.masks[id].as_ref().unwrap();
            assert!(m.iter().filter(|&&k| k).count() >= 10.min(m.len()));
        }
    }

    #[test]
    fn apply_zeroes_pruned_weights() {
        let net = tiny_net();
        let mut params = Params::init(&net, 3);
        let mask = magnitude_prune_global(&net, &params, 0.5, 1);
        mask.apply(&mut params);
        let total_nnz = net.sparse_weight_count(&params);
        let dense = net.dense_weight_count(&params);
        assert!((total_nnz as f64) < dense as f64 * 0.6);
    }

    #[test]
    fn profile_application_matches_targets() {
        let net = tiny_net();
        let mut params = Params::init(&net, 4);
        let profile = paper_profile(&net);
        let mask = apply_sparsity_profile(&net, &mut params, &profile, 11);
        for &(id, s) in &profile.targets {
            let got = mask.layer_sparsity(id).unwrap();
            // Small layers only hit the target up to rounding (one weight).
            let len = mask.masks[id].as_ref().unwrap().len() as f64;
            let tol = (1.0 / len).max(0.01);
            assert!((got - s).abs() <= tol, "layer {id}: got {got}, want {s}");
        }
    }

    #[test]
    fn profile_is_deterministic_in_seed() {
        let net = tiny_net();
        let profile = paper_profile(&net);
        let mut p1 = Params::init(&net, 4);
        let mut p2 = Params::init(&net, 4);
        let m1 = apply_sparsity_profile(&net, &mut p1, &profile, 11);
        let m2 = apply_sparsity_profile(&net, &mut p2, &profile, 11);
        assert_eq!(m1, m2);
        let m3 = apply_sparsity_profile(&net, &mut p1, &profile, 12);
        assert_ne!(m1, m3);
    }

    /// The full shuffle [`apply_sparsity_profile`] ran before masks were
    /// drawn mask-first: the oracle [`random_mask`] must reproduce, mask
    /// and generator position alike.
    fn full_shuffle_profile(
        net: &Network,
        params: &mut Params,
        profile: &SparsityProfile,
        rng: &mut StdRng,
    ) -> Mask {
        use rand::seq::SliceRandom;
        let mut masks = vec![None; net.len()];
        for &(id, sparsity) in &profile.targets {
            let Some(w) = weight_slice(params, id) else {
                continue;
            };
            let len = w.len();
            let prune_n = ((len as f64) * sparsity).round() as usize;
            let mut keep = vec![true; len];
            let mut idx: Vec<usize> = (0..len).collect();
            idx.shuffle(rng);
            for &i in idx.iter().take(prune_n.min(len)) {
                keep[i] = false;
            }
            masks[id] = Some(keep);
        }
        let mask = Mask { masks };
        mask.apply(params);
        mask
    }

    /// Every parameter of `p`, bias and batch norm included, as bits.
    fn param_bits(p: &Params) -> Vec<u32> {
        let mut bits = Vec::new();
        let mut push = |v: &[f32]| bits.extend(v.iter().map(|x| x.to_bits()));
        for lp in p.layers.iter().flatten() {
            match lp {
                LayerParams::Conv { w, b, bn } => {
                    push(w.data());
                    push(b.as_deref().unwrap_or(&[]));
                    if let Some(a) = bn {
                        push(a.scale());
                        push(a.shift());
                    }
                }
                LayerParams::DwConv { w, bn } => {
                    push(w.data());
                    if let Some(a) = bn {
                        push(a.scale());
                        push(a.shift());
                    }
                }
                LayerParams::Linear { w, b, .. } => {
                    push(w);
                    push(b);
                }
            }
        }
        bits
    }

    #[test]
    fn shuffled_keep_matches_the_full_shuffle() {
        for len in [0usize, 1, 2, 7, 1000] {
            for sparsity in [0.0, 0.5, 0.998, 1.0] {
                for seed in 0..6 {
                    let mut fast = StdRng::seed_from_u64(seed);
                    let mut full = fast.clone();
                    let mut want = vec![true; len];
                    let mut idx: Vec<usize> = (0..len).collect();
                    rand::seq::SliceRandom::shuffle(idx.as_mut_slice(), &mut full);
                    let prune_n = ((len as f64) * sparsity).round() as usize;
                    for &i in &idx[..prune_n] {
                        want[i] = false;
                    }
                    let case = format!("len {len}, sparsity {sparsity}, seed {seed}");
                    let keep = shuffled_keep(len, sparsity, &mut fast);
                    assert_eq!(keep, want, "{case}");
                    assert_eq!(fast.next_u64(), full.next_u64(), "{case}: rng position");
                }
            }
        }
    }

    #[test]
    fn random_mask_and_masked_init_match_the_full_shuffle() {
        let mut b = NetworkBuilder::new(2, 6, 6);
        let x = b.input();
        let x = b.conv(x, 4, 3, 1);
        let x = b.dwconv(x, 3, 1, true);
        let x = b.conv(x, 3, 1, 1);
        let x = b.global_avg_pool(x);
        b.linear(x, 7);
        let net = b.build();
        // Node 0 (input) and 4 (pool) carry no weights; targets run out of
        // node order and hit every sparsity edge.
        let profile = SparsityProfile {
            targets: vec![(3, 0.998), (0, 0.5), (1, 0.5), (4, 0.9), (5, 1.0), (2, 0.0)],
        };
        for seed in [1u64, 2, 3, 0xBEEF] {
            let mut want_params = Params::init(&net, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 5);
            let want = full_shuffle_profile(&net, &mut want_params, &profile, &mut rng);
            let mask = random_mask(&net, &profile, seed ^ 5);
            assert_eq!(mask, want, "seed {seed}");
            let mut params = Params::init(&net, seed);
            apply_sparsity_profile(&net, &mut params, &profile, seed ^ 5);
            assert_eq!(param_bits(&params), param_bits(&want_params), "seed {seed}");
            let masked = Params::init_masked(&net, seed, Some(&mask));
            assert_eq!(param_bits(&masked), param_bits(&want_params), "seed {seed}");
        }
    }

    #[test]
    fn first_layer_stays_dense_in_paper_profile() {
        let net = tiny_net();
        let profile = paper_profile(&net);
        assert!(profile.targets[0].1 <= 0.6);
        // Interior layers should be much sparser.
        assert!(profile.targets[1].1 > 0.8);
    }

    #[test]
    fn lottery_ticket_produces_sparse_trainable_net() {
        let net = tiny_net();
        let mut params = Params::init(&net, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let dataset: Vec<(Tensor3, usize)> = (0..12)
            .map(|i| {
                let mut t = Tensor3::zeros(2, 6, 6);
                t.fill_uniform(&mut rng, 0.0, 1.0);
                let class = i % 3;
                t.set(0, class, class, 4.0);
                (t, class)
            })
            .collect();
        let cfg = LotteryConfig {
            rounds: 2,
            prune_per_round: 0.5,
            train: TrainConfig {
                epochs: 4,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 0.0,
                lr_decay: 1.0,
            },
            min_layer_keep: 4,
        };
        let mask = lottery_ticket(&net, &mut params, &dataset, &cfg);
        let s = mask.overall_sparsity();
        assert!(s > 0.5 && s < 0.9, "sparsity {s}");
        // Pruned weights are actually zero.
        for id in net.weighted_nodes() {
            let m = mask.masks[id].as_ref().unwrap();
            let w = super::weight_slice(&params, id).unwrap();
            for (v, keep) in w.iter().zip(m) {
                if !keep {
                    assert_eq!(*v, 0.0);
                }
            }
        }
    }
}

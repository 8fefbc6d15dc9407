//! Solution-space finalization and candidate reconstruction (paper §8.2).
//!
//! The prober pins down every spatial hyperparameter; the timing channel
//! pins down channel-count *ratios*. The remaining freedom is the absolute
//! scale — the first layer's `K_1`. The paper bounds it through the
//! empirical observation that first layers are hard to prune (sparsity
//! rarely beyond 60%), which combined with the observed compressed weight
//! footprint yields a finite `K_1` range; each value in the range is one
//! candidate architecture.

use crate::prober::{LayerKind, ProberResult, RecoveredLayer};
use crate::timing::ChannelRatios;
use hd_dnn::graph::{Network, NetworkBuilder, NodeId};
use hd_tensor::Shape3;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;

/// Attacker-side assumptions about the victim device's transfer format
/// (available from the accelerator's public datasheet).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CodecModel {
    /// Weight payload bits per element.
    pub weight_bits: u32,
    /// Occupancy-bitmap bits per element (1 for the bitmap codec).
    pub bitmap_bits_per_elem: f64,
    /// Dense sideband bytes per output channel (bias + batch-norm params).
    pub sideband_bytes_per_channel: u64,
}

impl Default for CodecModel {
    fn default() -> Self {
        CodecModel {
            weight_bits: 8,
            bitmap_bits_per_elem: 1.0,
            sideband_bytes_per_channel: 8,
        }
    }
}

/// Derives the feasible first-layer output-channel range from the observed
/// compressed weight footprint.
///
/// For a candidate `K`, the dense first-layer weight count is
/// `r^2 * C * K`; the observed bytes decompose into bitmap + payload +
/// sideband, so the implied non-zero count is checked against the
/// `[1 - max_sparsity, 1]` density window.
pub fn first_layer_k_range(
    weight_bytes: u64,
    kernel: usize,
    in_channels: usize,
    codec: &CodecModel,
    max_sparsity: f64,
    max_k: usize,
) -> Vec<usize> {
    let mut feasible = Vec::new();
    let per_k_dense = (kernel * kernel * in_channels) as f64;
    for k in 1..=max_k {
        let total = per_k_dense * k as f64;
        let sideband = codec.sideband_bytes_per_channel * k as u64;
        if weight_bytes <= sideband {
            continue;
        }
        let body_bits = (weight_bytes - sideband) as f64 * 8.0;
        let payload_bits = body_bits - total * codec.bitmap_bits_per_elem;
        if payload_bits < 0.0 {
            continue;
        }
        let nnz = payload_bits / codec.weight_bits as f64;
        let density = nnz / total;
        // Allow one byte of rounding slack at the density boundaries.
        let slack = 8.0 / (codec.weight_bits as f64 * total);
        if density >= (1.0 - max_sparsity) - slack && density <= 1.0 + slack {
            feasible.push(k);
        }
    }
    feasible
}

/// A sampled candidate architecture: the scale `k1` plus the channel count
/// assigned to each recovered layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateArch {
    /// First conv layer output channels.
    pub k1: usize,
    /// `(layer index, channels)` for conv layers; `(layer index,
    /// out_features)` for interior dense layers.
    pub channels: Vec<(usize, usize)>,
}

/// The finalized solution space.
///
/// `PartialEq` compares every recovered field bit-for-bit; the telemetry
/// invariance test relies on it to assert attack outcomes are unaffected by
/// observation.
#[derive(Clone, Debug, PartialEq)]
pub struct SolutionSpace {
    /// Feasible first-layer channel counts.
    pub k1_candidates: Vec<usize>,
    /// Timing-channel ratios.
    pub ratios: ChannelRatios,
    /// Recovered layers (geometry).
    pub layers: Vec<RecoveredLayer>,
    /// Victim input shape.
    pub input_shape: Shape3,
    /// Number of classes (observable from the device's output API).
    pub classes: usize,
}

/// Errors finalizing the space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolutionError {
    /// No conv layer was recovered.
    NoConvLayers,
    /// The observed first-layer footprint admits no feasible channel count.
    EmptyRange,
}

impl fmt::Display for SolutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolutionError::NoConvLayers => write!(f, "no conv layers recovered"),
            SolutionError::EmptyRange => write!(f, "no feasible first-layer channel count"),
        }
    }
}

impl std::error::Error for SolutionError {}

/// Builds the solution space from prober + timing outputs.
///
/// # Errors
///
/// Returns [`SolutionError`] when the range cannot be established.
pub fn finalize(
    prober: &ProberResult,
    ratios: &ChannelRatios,
    input_shape: Shape3,
    classes: usize,
    codec: &CodecModel,
    first_layer_max_sparsity: f64,
    max_k: usize,
) -> Result<SolutionSpace, SolutionError> {
    let first_conv = prober
        .layers
        .iter()
        .find(|l| matches!(l.kind, LayerKind::Conv { .. }))
        .ok_or(SolutionError::NoConvLayers)?;
    let LayerKind::Conv { kernel, .. } = first_conv.kind else {
        unreachable!()
    };
    // The GEMM channel reads the live first-layer channel count directly
    // off the call's `m` dimension — no footprint bound needed. (Under a
    // schedule-padding defence `m` is rounded up, so the single candidate
    // is confidently wrong; the channel × defence matrix records that.)
    if let Some(g) = first_conv.gemm {
        if g.m == 0 || g.m > max_k {
            return Err(SolutionError::EmptyRange);
        }
        return Ok(SolutionSpace {
            k1_candidates: vec![g.m],
            ratios: ratios.clone(),
            layers: prober.layers.to_vec(),
            input_shape,
            classes,
        });
    }
    let k1_candidates = first_layer_k_range(
        first_conv.weight_bytes,
        kernel,
        input_shape.c,
        codec,
        first_layer_max_sparsity,
        max_k,
    );
    if k1_candidates.is_empty() {
        return Err(SolutionError::EmptyRange);
    }
    Ok(SolutionSpace {
        k1_candidates,
        ratios: ratios.clone(),
        layers: prober.layers.to_vec(),
        input_shape,
        classes,
    })
}

impl SolutionSpace {
    /// Number of candidate architectures.
    pub fn count(&self) -> usize {
        self.k1_candidates.len()
    }

    /// The candidate for a specific first-layer channel count.
    ///
    /// Timing ratios scale from [`ChannelRatios::baseline`]. When the
    /// first conv's window is usable the baseline *is* the first conv, so
    /// the baseline count equals `k1` exactly. A sub-burst first conv
    /// (baseline on a later layer) leaves no measured link between `k1`
    /// and the baseline count; the space then assumes the victim keeps
    /// its early width (`k_base = k1`) — explicit now, where the old API
    /// made the same substitution silently.
    pub fn candidate(&self, k1: usize) -> CandidateArch {
        let k_base = k1;
        let mut channels = self.ratios.channels_for(k_base);
        // Interior dense layers: out_features from the same timing unit.
        {
            let base = &self.layers[self.ratios.baseline];
            if let (Some((p, q)), w1) = (base.out_hw, base.encode_window_ps) {
                if w1 > 0 {
                    let unit = w1 as f64 / (p * q * k_base.max(1)) as f64;
                    let n = self.layers.len();
                    for (i, l) in self.layers.iter().enumerate() {
                        if matches!(l.kind, LayerKind::Dense) && i + 1 < n {
                            // Sub-burst outputs have no measurable window;
                            // fall back to a head-sized default so the
                            // candidate keeps a trainable bottleneck.
                            let feats = if l.encode_window_ps > 0 {
                                (l.encode_window_ps as f64 / unit).round().max(1.0) as usize
                            } else {
                                4 * self.classes
                            };
                            channels.push((i, feats.max(self.classes)));
                        }
                    }
                }
            }
        }
        CandidateArch { k1, channels }
    }

    /// Channel count of a tensor under a candidate assignment (input
    /// channels for tensor 0; producer's k for conv/dense tensors;
    /// passthrough for pool/add/global-pool).
    fn tensor_channels(&self, t: usize, k_of: &[Option<usize>]) -> usize {
        if t == 0 {
            return self.input_shape.c;
        }
        let l = &self.layers[t - 1];
        match l.kind {
            LayerKind::Conv { .. } | LayerKind::Dense => k_of[t - 1].unwrap_or(self.input_shape.c),
            LayerKind::Pool { .. } | LayerKind::GlobalPool | LayerKind::Add => {
                self.tensor_channels(l.inputs[0], k_of)
            }
        }
    }

    /// Drops `k1` candidates whose implied per-layer weight densities are
    /// impossible: every conv layer's observed compressed weight bytes
    /// must fit between the bitmap floor (`r^2*c*k/8` plus sideband — no
    /// tensor compresses below its occupancy metadata) and the fully
    /// dense ceiling. A consistency filter the attacker gets for free,
    /// tightening the finalized space beyond the first-layer bound.
    pub fn filter_by_weight_footprints(&self, codec: &CodecModel) -> Vec<usize> {
        self.k1_candidates
            .iter()
            .copied()
            .filter(|&k1| self.candidate_footprints_feasible(k1, codec))
            .collect()
    }

    fn candidate_footprints_feasible(&self, k1: usize, codec: &CodecModel) -> bool {
        let arch = self.candidate(k1);
        let mut k_of: Vec<Option<usize>> = vec![None; self.layers.len()];
        for &(idx, k) in &arch.channels {
            k_of[idx] = Some(k);
        }
        for (i, l) in self.layers.iter().enumerate() {
            let LayerKind::Conv { kernel, .. } = l.kind else {
                continue;
            };
            // Only unambiguously-recovered layers constrain the space: a
            // prior-decided geometry (saturated deep layer) may carry the
            // wrong stride, which skews every downstream channel estimate
            // and would falsely reject the true candidate.
            if l.alternatives.len() != 1 || l.alternatives[0] != l.kind {
                continue;
            }
            let Some(k) = k_of[i] else { continue };
            // Channels that hide sizes record a zero footprint — no
            // constraint to check.
            if l.weight_bytes == 0 {
                continue;
            }
            let c = self.tensor_channels(l.inputs[0], &k_of);
            let total = (kernel * kernel * c * k) as f64;
            let sideband = (codec.sideband_bytes_per_channel * k as u64) as f64;
            let floor = total * codec.bitmap_bits_per_elem / 8.0 + sideband;
            let ceiling =
                total * (codec.bitmap_bits_per_elem + codec.weight_bits as f64) / 8.0 + sideband;
            let obs = l.weight_bytes as f64;
            // One burst of slack absorbs byte rounding and ratio noise.
            if obs + 64.0 < floor || obs - 64.0 > ceiling {
                return false;
            }
        }
        true
    }

    /// Uniformly samples `n` distinct candidates (paper §8.3 samples 8).
    pub fn sample(&self, n: usize, seed: u64) -> Vec<CandidateArch> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ks = self.k1_candidates.clone();
        ks.shuffle(&mut rng);
        ks.truncate(n);
        ks.sort_unstable();
        ks.into_iter().map(|k| self.candidate(k)).collect()
    }

    /// Reconstructs a trainable [`Network`] from a candidate.
    ///
    /// Residual joins require equal channel counts on both inputs; timing
    /// noise can round them apart, so producers feeding the same join are
    /// harmonized to the main path's count first.
    pub fn build_network(&self, arch: &CandidateArch) -> Network {
        // channels per layer index (conv + interior dense).
        let mut k_of: Vec<Option<usize>> = vec![None; self.layers.len()];
        for &(idx, k) in &arch.channels {
            k_of[idx] = Some(k);
        }

        // Channel count of a tensor = producer conv's k, else passthrough.
        // Tensor t (> 0) is produced by layer t-1.
        fn tensor_channels(
            t: usize,
            layers: &[RecoveredLayer],
            k_of: &[Option<usize>],
            input_c: usize,
        ) -> usize {
            if t == 0 {
                return input_c;
            }
            let l = &layers[t - 1];
            match l.kind {
                LayerKind::Conv { .. } | LayerKind::Dense => k_of[t - 1].unwrap_or(input_c),
                LayerKind::Pool { .. } | LayerKind::GlobalPool | LayerKind::Add => {
                    tensor_channels(l.inputs[0], layers, k_of, input_c)
                }
            }
        }

        // Harmonize residual joins (main path wins).
        for l in &self.layers {
            if !matches!(l.kind, LayerKind::Add) || l.inputs.len() != 2 {
                continue;
            }
            let main = tensor_channels(l.inputs[0], &self.layers, &k_of, self.input_shape.c);
            // Find the nearest conv producer of the second input and pin it.
            let mut t = l.inputs[1];
            while t > 0 {
                let p = t - 1;
                if matches!(self.layers[p].kind, LayerKind::Conv { .. }) {
                    k_of[p] = Some(main);
                    break;
                }
                t = self.layers[p].inputs[0];
            }
        }

        // Build the graph.
        let mut b = NetworkBuilder::new(self.input_shape.c, self.input_shape.h, self.input_shape.w);
        let input = b.input();
        let mut node_of_tensor: Vec<Option<NodeId>> = vec![None; self.layers.len() + 1];
        node_of_tensor[0] = Some(input);
        let mut is_vector: Vec<bool> = vec![false; self.layers.len() + 1];
        let n = self.layers.len();
        for (i, l) in self.layers.iter().enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "layers are topologically ordered by construction, so inputs are already built"
            )]
            let x = node_of_tensor[l.inputs[0]].expect("producer built");
            let out = match l.kind {
                LayerKind::Conv { kernel, stride } => {
                    let k = k_of[i].unwrap_or(self.input_shape.c);
                    b.conv(x, k, kernel, stride)
                }
                LayerKind::Pool { factor } => b.max_pool(x, factor),
                LayerKind::Add => {
                    #[expect(
                        clippy::expect_used,
                        reason = "same topological-order invariant as the first input"
                    )]
                    let y = node_of_tensor[l.inputs[1]].expect("producer built");
                    b.add(x, y)
                }
                LayerKind::GlobalPool => {
                    is_vector[l.output_tensor()] = true;
                    b.global_avg_pool(x)
                }
                LayerKind::Dense => {
                    let x = if is_vector[l.inputs[0]] {
                        x
                    } else {
                        b.flatten(x)
                    };
                    is_vector[l.output_tensor()] = true;
                    if i + 1 == n {
                        b.linear(x, self.classes)
                    } else {
                        b.linear_opts(x, k_of[i].unwrap_or(self.classes), true)
                    }
                }
            };
            node_of_tensor[l.output_tensor()] = Some(out);
        }
        // Ensure the network ends in a classifier over `classes`.
        b.build()
    }

    /// Compact report.
    pub fn report(&self) -> String {
        let lo = self.k1_candidates.first().copied().unwrap_or(0);
        let hi = self.k1_candidates.last().copied().unwrap_or(0);
        format!(
            "solution space: {} candidates, k1 in [{lo}, {hi}], {} recovered layers",
            self.count(),
            self.layers.len()
        )
    }
}

impl RecoveredLayer {
    /// Tensor id this layer produces (hd-trace convention).
    pub fn output_tensor(&self) -> usize {
        self.index + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_range_brackets_truth() {
        // Simulate a first layer with K=64, r=3, C=3, 45% sparsity.
        let (k_true, r, c) = (64usize, 3usize, 3usize);
        let total = r * r * c * k_true;
        let nnz = (total as f64 * 0.55).round() as u64;
        let codec = CodecModel::default();
        let bytes = ((total as f64 + nnz as f64 * 8.0) / 8.0).ceil() as u64
            + codec.sideband_bytes_per_channel * k_true as u64;
        let range = first_layer_k_range(bytes, r, c, &codec, 0.6, 512);
        assert!(range.contains(&k_true), "range {range:?}");
        // Range endpoints: density window [0.4, 1.0] means
        // k in roughly [0.55*K, 0.55*K/0.4].
        let lo = *range.first().unwrap();
        let hi = *range.last().unwrap();
        assert!(
            lo >= (0.5 * k_true as f64) as usize && lo <= k_true,
            "lo {lo}"
        );
        assert!(hi >= k_true && hi <= 2 * k_true, "hi {hi}");
    }

    #[test]
    fn tighter_sparsity_bound_shrinks_range() {
        let (k_true, r, c) = (32usize, 3usize, 3usize);
        let total = r * r * c * k_true;
        let nnz = (total as f64 * 0.55).round() as u64;
        let codec = CodecModel::default();
        let bytes = ((total as f64 + nnz as f64 * 8.0) / 8.0).ceil() as u64
            + codec.sideband_bytes_per_channel * k_true as u64;
        let loose = first_layer_k_range(bytes, r, c, &codec, 0.6, 512).len();
        let tight = first_layer_k_range(bytes, r, c, &codec, 0.5, 512).len();
        assert!(tight < loose, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn empty_range_for_nonsense_footprint() {
        let range = first_layer_k_range(3, 7, 3, &CodecModel::default(), 0.6, 256);
        assert!(range.is_empty());
    }
}

#[cfg(test)]
mod footprint_tests {
    use super::*;
    use crate::attack::{run, AttackConfig};
    use crate::prober::ProberConfig;
    use hd_accel::{AccelConfig, Device};
    use hd_dnn::graph::{NetworkBuilder, Params};

    #[test]
    fn footprint_filter_keeps_truth_and_never_grows_the_space() {
        let mut b = NetworkBuilder::new(3, 16, 16);
        let x = b.input();
        let x = b.conv(x, 8, 3, 1);
        let x = b.max_pool(x, 2);
        let x = b.conv(x, 16, 3, 1);
        let x = b.global_avg_pool(x);
        b.linear(x, 10);
        let net = b.build();
        let mut params = Params::init(&net, 5);
        let profile = hd_dnn::prune::SparsityProfile {
            targets: net
                .weighted_nodes()
                .iter()
                .enumerate()
                .map(|(pos, &id)| (id, if pos == 0 { 0.45 } else { 0.7 }))
                .collect(),
        };
        hd_dnn::prune::apply_sparsity_profile(&net, &mut params, &profile, 6);
        let device = Device::new(net, params, AccelConfig::eyeriss_v2());
        let cfg = AttackConfig {
            prober: ProberConfig {
                shifts: 12,
                max_probes: 8,
                stable_probes: 2,
                ..Default::default()
            },
            classes: 10,
            max_k: 256,
            ..Default::default()
        };
        let outcome = run(&device, &cfg).unwrap();
        let space = outcome.space.as_ref().unwrap();
        let filtered = space.filter_by_weight_footprints(&CodecModel::default());
        assert!(filtered.len() <= space.count());
        assert!(filtered.contains(&8), "true k1 must survive: {filtered:?}");
    }
}

//! The channel × defence matrix: zoo × observation channel × defence,
//! scoring every attack stage in every cell.
//!
//! This is the experiment the [`huffduff_core::ObservationModel`] boundary
//! exists for. Each cell mounts the *same* attack through a different
//! channel — the paper's full trace+timing channel, the trace-only and
//! timing-only restrictions, and the Cache-Telepathy-style GEMM-dimension
//! channel — against a device deploying one defence. A defence is only as
//! good as its weakest surviving channel, and a channel is only as strong
//! as the stages it can still complete: the matrix records geometry
//! recovery, conv-only recovery (the fair score for the GEMM channel,
//! which cannot see weightless layers), channel-ratio availability, and
//! whether the finalized k1 candidates cover the live first-layer width.
//!
//! The headline asymmetry: NNReArch-style schedule padding rounds every
//! dimension the *scheduler* leaks (GEMM block counts, encode windows) up
//! to a tile multiple, degrading the GEMM channel's geometry and exact-k1
//! recovery — while the volume channels sail through untouched.

use crate::table::Table;
use crate::victims::{pruned_victim, Model, PruneMode};
use crate::Scale;
use hd_accel::{AccelConfig, Defence, Device};
use hd_tensor::ConvBackend;
use huffduff_core::eval::{score_conv_geometry, score_geometry};
use huffduff_core::{AttackConfig, ChannelKind};

/// Width used for the matrix victims (matches the pruning matrix).
pub const CHANNEL_MATRIX_WIDTH: f64 = 0.25;

/// One fully-identified cell of the channel × defence matrix.
#[derive(Clone, Debug)]
pub struct ChannelCell {
    /// Victim family.
    pub model: Model,
    /// Observation channel the attacker read.
    pub channel: ChannelKind,
    /// Deployed defence label.
    pub defence: String,
    /// Probes the prober spent.
    pub probes_used: usize,
    /// Layers recovered exactly (all layer kinds).
    pub geometry_correct: usize,
    /// Layers scored.
    pub geometry_total: usize,
    /// Conv layers recovered exactly (conv subsequence only).
    pub conv_correct: usize,
    /// Conv layers scored.
    pub conv_total: usize,
    /// Whether the timing/GEMM stage yielded channel ratios.
    pub ratios_recovered: bool,
    /// Finalized candidate count (0 when no space survived the channel).
    pub solution_count: usize,
    /// Whether the k1 candidate set covers the live first-layer width.
    pub k1_hit: bool,
}

impl ChannelCell {
    /// `correct/total` over all layers.
    pub fn geometry(&self) -> String {
        format!("{}/{}", self.geometry_correct, self.geometry_total)
    }

    /// `correct/total` over conv layers only.
    pub fn conv_geometry(&self) -> String {
        format!("{}/{}", self.conv_correct, self.conv_total)
    }
}

/// The matrix's defence column: nothing, the two volume-channel defences,
/// and NNReArch-style schedule padding.
pub fn matrix_defences(scale: Scale) -> Vec<(String, Defence)> {
    let mut d = vec![("none".to_string(), Defence::None)];
    if scale != Scale::Smoke {
        d.push((
            "pad-edges band=1".to_string(),
            Defence::PadEdges { band: 1 },
        ));
        d.push((
            "random-zeros <= 32B".to_string(),
            Defence::RandomZeros {
                max_bytes: 32,
                seed: 0xD1CE,
            },
        ));
    }
    d.push((
        "nn-rearch tile=16".to_string(),
        Defence::NnRearch { tile: 16 },
    ));
    d
}

/// Number of live (≥1 nonzero weight) rows in the victim's first conv —
/// the quantity the attack's k1 candidates must cover. Pruned dead rows
/// never touch the bus, so the textbook width is the wrong oracle.
fn live_k1(device: &Device, net: &hd_dnn::graph::Network) -> usize {
    let first = net.conv_nodes()[0];
    let w = device.oracle().params.conv(first).w;
    (0..w.k())
        .filter(|&k| {
            (0..w.c()).any(|c| {
                (0..w.r()).any(|r| (0..w.s()).any(|s| w.data()[w.index(k, c, r, s)] != 0.0))
            })
        })
        .count()
}

/// Runs the matrix and returns every cell. Deterministic in `scale`.
///
/// Every victim runs an im2col+GEMM software stack so the GEMM channel
/// has calls to observe; the stack changes nothing else a device does.
pub fn channel_matrix_cells(scale: Scale) -> Vec<ChannelCell> {
    let models: &[Model] = match scale {
        Scale::Smoke | Scale::Fast => &[Model::VggS],
        Scale::Full => &Model::BOTH,
    };
    let defences = matrix_defences(scale);
    let mut cells = Vec::new();
    for &model in models {
        for (label, defence) in &defences {
            let cfg = AccelConfig::eyeriss_v2()
                .with_defence(defence.clone())
                .with_conv_backend(ConvBackend::Im2colGemm);
            let (device, net) = pruned_victim(
                model,
                PruneMode::Unstructured,
                CHANNEL_MATRIX_WIDTH,
                23,
                cfg,
            );
            let true_k1 = live_k1(&device, &net);
            for channel in ChannelKind::ALL {
                let acfg = AttackConfig {
                    prober: huffduff_core::ProberConfig {
                        shifts: 12,
                        max_probes: 8,
                        stable_probes: 2,
                        seed: 41,
                        ..Default::default()
                    },
                    classes: 10,
                    max_k: 256,
                    ..Default::default()
                };
                let target = channel.model(&device);
                let outcome = huffduff_core::run(target.as_ref(), &acfg).expect("attack completes");
                let score = score_geometry(&net, &outcome.prober);
                let conv_score = score_conv_geometry(&net, &outcome.prober);
                cells.push(ChannelCell {
                    model,
                    channel,
                    defence: label.clone(),
                    probes_used: outcome.prober.probes_used,
                    geometry_correct: score.correct,
                    geometry_total: score.total,
                    conv_correct: conv_score.correct,
                    conv_total: conv_score.total,
                    ratios_recovered: outcome.ratios.is_some(),
                    solution_count: outcome.space.as_ref().map_or(0, |s| s.count()),
                    k1_hit: outcome
                        .space
                        .as_ref()
                        .is_some_and(|s| s.k1_candidates.contains(&true_k1)),
                });
            }
        }
    }
    cells
}

/// Runs the matrix and renders it as a table.
pub fn channel_matrix(scale: Scale) -> Table {
    render_channel_matrix(&channel_matrix_cells(scale))
}

/// Renders precomputed cells (see [`channel_matrix_cells`]).
pub fn render_channel_matrix(cells: &[ChannelCell]) -> Table {
    let mut t = Table::new(
        "Channel x defence matrix — attack stages surviving per cell",
        &[
            "victim",
            "channel",
            "defence",
            "probes",
            "geometry",
            "conv-only",
            "ratios",
            "solutions",
            "k1 hit",
        ],
    );
    for c in cells {
        t.push_row(vec![
            c.model.name().to_string(),
            c.channel.label().to_string(),
            c.defence.clone(),
            c.probes_used.to_string(),
            c.geometry(),
            c.conv_geometry(),
            if c.ratios_recovered { "yes" } else { "no" }.to_string(),
            c.solution_count.to_string(),
            if c.k1_hit { "yes" } else { "no" }.to_string(),
        ]);
    }
    t.push_note("full = trace + timing (the paper); trace drops timestamps; timing drops volumes; gemm = Cache-Telepathy-style GEMM call dimensions");
    t.push_note("conv-only is the fair geometry score for the gemm channel, which cannot observe weightless layers (pools fold into the next conv's stride)");
    t.push_note("nn-rearch pads scheduler-visible dimensions to the tile, degrading gemm geometry/k1 while volume channels pass through untouched");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_exposes_the_channel_hierarchy() {
        let cells = channel_matrix_cells(Scale::Smoke);
        // 1 model x 4 channels x 2 defences (none + nn-rearch).
        assert_eq!(cells.len(), 8);

        let cell = |ch: ChannelKind, def: &str| {
            cells
                .iter()
                .find(|c| c.channel == ch && c.defence.starts_with(def))
                .unwrap()
        };

        // Undefended full channel: every stage completes.
        let full = cell(ChannelKind::Full, "none");
        assert!(full.ratios_recovered);
        assert!(full.k1_hit, "full channel k1 candidates miss the live k1");
        assert!(full.geometry_correct + 1 >= full.geometry_total);

        // Trace-only loses the ratios but keeps the geometry.
        let trace = cell(ChannelKind::Trace, "none");
        assert!(!trace.ratios_recovered);
        assert_eq!(trace.geometry_correct, full.geometry_correct);

        // Timing-only keeps the ratios but loses the volume geometry.
        let timing = cell(ChannelKind::Timing, "none");
        assert!(timing.geometry_correct < full.geometry_correct);

        // GEMM channel: sees every conv (and nothing else), recovers the
        // exact k1 from `m`. Convs directly after a pool read as stride-2
        // convs (the pool folds into the invisible stride — VGG-S has
        // three pools, so three stride mismatches are the documented
        // ambiguity, not a failure), every other conv is exact.
        let gemm = cell(ChannelKind::Gemm, "none");
        // One observed GEMM call per conv: exactly VGG-S's 7 convs, with
        // no spurious extras (the full channel's deepest decayed layer
        // can add a phantom conv point-estimate; the GEMM channel cannot).
        assert_eq!(gemm.conv_total, 7);
        assert!(
            gemm.conv_correct + 3 >= gemm.conv_total && gemm.conv_correct >= gemm.conv_total / 2,
            "gemm conv recovery collapsed beyond the pool folds: {}/{}",
            gemm.conv_correct,
            gemm.conv_total
        );
        assert!(gemm.k1_hit);
        assert!(
            gemm.solution_count >= 1 && gemm.solution_count <= full.solution_count,
            "gemm k1 is exact, so its space ({}) cannot exceed the full channel's ({})",
            gemm.solution_count,
            full.solution_count
        );

        // THE degraded cell: nn-rearch breaks the gemm channel's exact
        // recovery while leaving the full channel's geometry alone.
        let gemm_def = cell(ChannelKind::Gemm, "nn-rearch");
        assert!(
            gemm_def.conv_correct < gemm.conv_correct || !gemm_def.k1_hit,
            "nn-rearch failed to degrade the gemm channel: {}/{} conv, k1_hit={}",
            gemm_def.conv_correct,
            gemm_def.conv_total,
            gemm_def.k1_hit
        );
        let full_def = cell(ChannelKind::Full, "nn-rearch");
        assert_eq!(
            full_def.geometry_correct, full.geometry_correct,
            "nn-rearch must not touch the volume channel's geometry"
        );
    }

    #[test]
    fn table_renders_one_row_per_cell() {
        let cells: Vec<ChannelCell> = [ChannelKind::Full, ChannelKind::Gemm]
            .into_iter()
            .map(|channel| ChannelCell {
                model: Model::VggS,
                channel,
                defence: "none".to_string(),
                probes_used: 9,
                geometry_correct: 12,
                geometry_total: 13,
                conv_correct: 7,
                conv_total: 7,
                ratios_recovered: true,
                solution_count: 66,
                k1_hit: true,
            })
            .collect();
        let t = render_channel_matrix(&cells);
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows.iter().all(|r| r.len() == 9));
        assert_eq!(t.rows[0][4], "12/13");
        assert_eq!(t.rows[1][5], "7/7");
    }
}

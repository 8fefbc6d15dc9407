//! The pruning-mode robustness matrix: zoo × {unstructured, N:M,
//! structured} × defence × conv backend, scoring the boundary prober's
//! geometry recovery and probe budget in every cell.
//!
//! Structured victims physically change layer shapes — exactly what the
//! boundary prober is supposed to read off the device — while N:M victims
//! change the nnz statistics the timing channel leans on. Cells where
//! recovery degrades are findings, not failures: this matrix is the first
//! experiment that can falsify parts of the attack instead of speeding it
//! up.

use crate::table::Table;
use crate::victims::{pruned_victim, Model, PruneMode};
use crate::Scale;
use hd_accel::{AccelConfig, Defence};
use hd_tensor::ConvBackend;
use huffduff_core::eval::score_geometry;
use huffduff_core::prober::{probe, ProberConfig};

/// Width used for the matrix victims: full-size probes cost seconds per
/// cell, and the matrix has dozens of cells.
pub const MATRIX_WIDTH: f64 = 0.25;

/// One fully-identified cell of the robustness matrix.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    /// Victim family.
    pub model: Model,
    /// How the victim was pruned.
    pub mode: PruneMode,
    /// Deployed defence label.
    pub defence: String,
    /// Conv backend the device ran.
    pub backend: ConvBackend,
    /// Probes the prober spent.
    pub probes_used: usize,
    /// Layers recovered exactly.
    pub geometry_correct: usize,
    /// Layers scored.
    pub geometry_total: usize,
}

impl MatrixCell {
    /// Stable key identifying the victim-side coordinates (everything but
    /// the backend) — cells sharing a key must agree bit-for-bit.
    pub fn victim_key(&self) -> String {
        format!(
            "{}|{}|{}",
            self.model.name(),
            self.mode.name(),
            self.defence
        )
    }
}

/// The matrix's label for a conv backend (table column and JSON field).
pub fn backend_label(b: ConvBackend) -> &'static str {
    match b {
        ConvBackend::Im2colGemm => "im2col-gemm",
        ConvBackend::SparseCsc => "sparse-csc",
    }
}

fn defences(scale: Scale) -> Vec<(String, Defence)> {
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
    d
}

/// Runs the matrix and returns every cell. Deterministic in `scale`.
pub fn prune_matrix_cells(scale: Scale) -> Vec<MatrixCell> {
    let models: &[Model] = match scale {
        Scale::Smoke | Scale::Fast => &[Model::VggS],
        Scale::Full => &Model::BOTH,
    };
    let backends = [ConvBackend::Im2colGemm, ConvBackend::SparseCsc];
    let defences = defences(scale);
    let mut cells = Vec::new();
    for &model in models {
        for mode in PruneMode::DEFAULTS {
            for (label, defence) in &defences {
                for backend in backends {
                    let cfg = AccelConfig::eyeriss_v2()
                        .with_defence(defence.clone())
                        .with_conv_backend(backend);
                    let (device, net) = pruned_victim(model, mode, MATRIX_WIDTH, 23, cfg);
                    let pcfg = ProberConfig {
                        shifts: 12,
                        max_probes: 8,
                        stable_probes: 2,
                        seed: 41,
                        ..ProberConfig::default()
                    };
                    let res = probe(&device, &pcfg).expect("probe runs");
                    let score = score_geometry(&net, &res);
                    cells.push(MatrixCell {
                        model,
                        mode,
                        defence: label.clone(),
                        backend,
                        probes_used: res.probes_used,
                        geometry_correct: score.correct,
                        geometry_total: score.total,
                    });
                }
            }
        }
    }
    cells
}

/// Renders the matrix as a table, asserting the cross-backend agreement
/// contract along the way: cells that differ only in backend must report
/// identical recovery and probe budget (the backends are bit-identical,
/// so the prober cannot tell them apart).
pub fn prune_matrix(scale: Scale) -> Table {
    render_matrix(&prune_matrix_cells(scale))
}

/// Renders precomputed cells (see [`prune_matrix_cells`]).
pub fn render_matrix(cells: &[MatrixCell]) -> Table {
    let mut t = Table::new(
        "Pruning-mode robustness matrix — geometry recovery per cell",
        &[
            "victim",
            "pruning",
            "defence",
            "backend",
            "probes",
            "geometry exact",
        ],
    );
    for c in cells {
        t.push_row(vec![
            c.model.name().to_string(),
            c.mode.name(),
            c.defence.clone(),
            backend_label(c.backend).to_string(),
            c.probes_used.to_string(),
            format!("{}/{}", c.geometry_correct, c.geometry_total),
        ]);
    }
    let groups = cross_backend_agreement(cells);
    t.push_note(format!(
        "cross-backend agreement: {groups} victim cells identical across all conv backends"
    ));
    t.push_note("structured cells shrink real layer shapes; recovered geometry tracks the *pruned* channel counts, not the zoo's textbook values");
    t.push_note("pad-edges blanks the boundary signal; random zeros attacks probe stability, so budgets rise before accuracy falls");
    t
}

/// Counts victim-side groups whose cells agree across every backend.
///
/// # Panics
///
/// Panics if any group disagrees — that is a broken bit-identity contract,
/// not a measurement.
pub fn cross_backend_agreement(cells: &[MatrixCell]) -> usize {
    let mut groups: Vec<(String, (usize, usize, usize))> = Vec::new();
    for c in cells {
        let key = c.victim_key();
        let sig = (c.probes_used, c.geometry_correct, c.geometry_total);
        match groups.iter().find(|(k, _)| *k == key) {
            Some((_, existing)) => {
                assert_eq!(
                    *existing, sig,
                    "backends disagree on cell {key}: {existing:?} vs {sig:?}"
                );
            }
            None => groups.push((key, sig)),
        }
    }
    groups.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_covers_every_mode_and_agrees() {
        let cells = prune_matrix_cells(Scale::Smoke);
        // 1 model x 3 modes x 1 defence x 2 backends.
        assert_eq!(cells.len(), 6);
        for mode in PruneMode::DEFAULTS {
            assert!(cells.iter().any(|c| c.mode == mode));
        }
        assert_eq!(cross_backend_agreement(&cells), 3);
        // The undefended unstructured cell recovers (nearly) every layer:
        // at matrix width the deepest layer's boundary signal has decayed,
        // so allow one miss but no more.
        let baseline = cells
            .iter()
            .find(|c| c.mode == PruneMode::Unstructured)
            .unwrap();
        assert!(
            baseline.geometry_correct + 1 >= baseline.geometry_total,
            "baseline recovery collapsed: {}/{}",
            baseline.geometry_correct,
            baseline.geometry_total
        );
    }

    #[test]
    fn table_renders_one_row_per_cell() {
        let cells: Vec<MatrixCell> = [ConvBackend::Im2colGemm, ConvBackend::SparseCsc]
            .into_iter()
            .map(|backend| MatrixCell {
                model: Model::VggS,
                mode: PruneMode::Nm { n: 2, m: 4 },
                defence: "none".to_string(),
                backend,
                probes_used: 9,
                geometry_correct: 12,
                geometry_total: 13,
            })
            .collect();
        let t = render_matrix(&cells);
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows.iter().all(|r| r.len() == 6));
        assert_eq!(t.rows[0][5], "12/13");
    }

    #[test]
    #[should_panic(expected = "backends disagree")]
    fn backend_disagreement_is_fatal() {
        let mk = |backend, probes| MatrixCell {
            model: Model::VggS,
            mode: PruneMode::Unstructured,
            defence: "none".to_string(),
            backend,
            probes_used: probes,
            geometry_correct: 13,
            geometry_total: 13,
        };
        cross_backend_agreement(&[
            mk(ConvBackend::Im2colGemm, 9),
            mk(ConvBackend::SparseCsc, 10),
        ]);
    }
}

//! E3 — §8.2 "Prober": geometry recovery on the full-size victims, probes
//! to convergence, and point-estimate vs candidate-set coverage.

use crate::table::Table;
use crate::victims::{paper_victim, Model};
use crate::Scale;
use huffduff_core::eval::{expected_kinds, score_geometry};
use huffduff_core::prober::{probe, ProberConfig};

/// Regenerates the prober effectiveness table: per victim, the number of
/// probes/runs used, the fraction of layers whose geometry point estimate
/// is exact, and the fraction covered by the consistent candidate set.
pub fn prober_table(scale: Scale) -> Table {
    let mut t = Table::new(
        "§8.2 — prober: geometry recovery on full-size victims",
        &[
            "model",
            "layers",
            "probes",
            "device runs",
            "exact",
            "covered",
            "wall time",
        ],
    );
    let models: &[Model] = match scale {
        Scale::Smoke | Scale::Fast => &[Model::VggS],
        Scale::Full => &Model::BOTH,
    };
    for &model in models {
        let (device, net) = paper_victim(model, 3);
        let cfg = match scale {
            Scale::Smoke | Scale::Fast => ProberConfig {
                shifts: 16,
                max_probes: 6,
                stable_probes: 2,
                ..Default::default()
            },
            Scale::Full => ProberConfig::default(),
        };
        #[expect(clippy::disallowed_methods, reason = "prints wall time only")]
        let t0 = std::time::Instant::now();
        let res = probe(&device, &cfg).expect("probe succeeds");
        let elapsed = t0.elapsed();
        let score = score_geometry(&net, &res);

        // Coverage: the true kind is either the point estimate or listed
        // among the alternatives the observations could not separate.
        let expected = expected_kinds(&net);
        let covered = expected
            .iter()
            .zip(&res.layers)
            .filter(|(e, l)| l.kind == **e || l.alternatives.contains(e))
            .count();

        t.push_row(vec![
            model.name().to_string(),
            score.total.to_string(),
            res.probes_used.to_string(),
            res.runs_used.to_string(),
            format!("{}/{}", score.correct, score.total),
            format!("{}/{}", covered, expected.len()),
            format!("{:.1}s", elapsed.as_secs_f64()),
        ]);
    }
    t.push_note("paper: all geometry recovered within 2048 probes, <10 min on a 2080Ti");
    t.push_note("residual point-estimate misses are iso-footprint families (see EXPERIMENTS.md)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "fast-scale VGG-S probe: seconds in a debug build, under 1 s in release; CI runs it in release with --ignored"]
    fn vgg_prober_is_exact() {
        let t = prober_table(Scale::Fast);
        let exact = &t.rows[0][4];
        let (num, den) = exact.split_once('/').unwrap();
        let (num, den): (usize, usize) = (num.parse().unwrap(), den.parse().unwrap());
        assert!(num * 10 >= den * 9, "exact {exact}");
    }
}

//! The four victim workloads: how each victim is built, what one operation
//! is, and the correctness gate every operation passes.

use hd_accel::{AccelConfig, Defence, Device};
use hd_bench::experiments::{matrix_defences, CHANNEL_MATRIX_WIDTH};
use hd_bench::victims::{paper_victim, pruned_victim, quantized_victim, Model, PruneMode};
use hd_bench::Scale;
use hd_dnn::graph::Network;
use hd_tensor::{ConvBackend, Tensor3};
use huffduff_core::eval::{score_conv_geometry, score_geometry};
use huffduff_core::probe::stripe_probes;
use huffduff_core::{AttackConfig, AttackOutcome, ChannelKind, ObservationModel, ProberConfig};
use std::time::Instant;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full-size VGG-S, paper sparsity profile, full channel.
    VggPaper,
    /// Full-size VGG-S pruned 2:4.
    Vgg2of4,
    /// The 32-cell channel x defence campaign; victims are built cold per
    /// operation.
    DefenceMatrix,
    /// Quarter-width VGG-S deployed INT8 (PTQ).
    VggInt8Mini,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::VggPaper,
        Workload::Vgg2of4,
        Workload::DefenceMatrix,
        Workload::VggInt8Mini,
    ];

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VggPaper => "vgg_paper",
            Workload::Vgg2of4 => "vgg_2of4",
            Workload::DefenceMatrix => "defence_matrix",
            Workload::VggInt8Mini => "vgg_int8_mini",
        }
    }

    /// The victim seed the experiments use; outcomes are pinned here.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::VggPaper | Workload::Vgg2of4 => 3,
            Workload::DefenceMatrix | Workload::VggInt8Mini => 23,
        }
    }

    /// Whether an operation builds its victims cold (the campaign) rather
    /// than stealing from the warm victims built in set-up.
    pub fn builds_per_op(self) -> bool {
        self == Workload::DefenceMatrix
    }

    /// The attack every target of this workload runs.
    ///
    /// Every target runs a fixed family budget (`stable_probes ==
    /// max_probes`): early stopping makes the device-run count depend on
    /// the victim seed (144 to 384 runs on VGG-S, 1656 to 1944 per
    /// campaign), which would swamp host-speed changes. For the steals the
    /// budget is the family count the default config converges in at the
    /// default seed, so the default-seed outcome is the default config's
    /// outcome. The campaign keeps the `channel_matrix_cells` settings
    /// except that early stop; only its probe counts change.
    pub fn attack_config(self, workers: usize) -> AttackConfig {
        let families = match self {
            Workload::VggPaper => 7,
            Workload::Vgg2of4 => 6,
            Workload::VggInt8Mini => 9,
            Workload::DefenceMatrix => {
                return AttackConfig {
                    prober: ProberConfig {
                        shifts: 12,
                        max_probes: 8,
                        stable_probes: 8,
                        seed: 41,
                        parallelism: Some(workers),
                        ..Default::default()
                    },
                    classes: 10,
                    max_k: 256,
                    ..Default::default()
                }
            }
        };
        AttackConfig {
            prober: ProberConfig {
                max_probes: families,
                stable_probes: families,
                parallelism: Some(workers),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// The victims this workload attacks at `seed`.
    pub fn victims(self, seed: u64) -> Vec<VictimSpec> {
        let one = |build| vec![VictimSpec { build, seed }];
        match self {
            Workload::VggPaper => one(Build::Paper),
            Workload::Vgg2of4 => one(Build::Nm24),
            Workload::VggInt8Mini => one(Build::Int8Mini),
            Workload::DefenceMatrix => Model::BOTH
                .into_iter()
                .flat_map(|model| {
                    matrix_defences(Scale::Full)
                        .into_iter()
                        .map(move |(label, defence)| VictimSpec {
                            build: Build::Matrix {
                                model,
                                label,
                                defence,
                            },
                            seed,
                        })
                })
                .collect(),
        }
    }

    /// The channels each victim is attacked through.
    pub fn channels(self) -> &'static [ChannelKind] {
        match self {
            Workload::DefenceMatrix => &ChannelKind::ALL,
            _ => &[ChannelKind::Full],
        }
    }
}

/// Which `hd_bench::victims` preset builds a victim.
#[derive(Clone, Debug)]
pub enum Build {
    /// `paper_victim(VggS, seed)`.
    Paper,
    /// `pruned_victim(VggS, 2:4, 1.0, seed, eyeriss_v2)`.
    Nm24,
    /// `quantized_victim(VggS, Unstructured, 0.25, seed)`.
    Int8Mini,
    /// One `channel_matrix_cells` victim: quarter width, im2col+GEMM,
    /// one defence.
    Matrix {
        /// Victim family.
        model: Model,
        /// Defence label as the committed matrix prints it.
        label: String,
        /// The defence the device deploys.
        defence: Defence,
    },
}

/// A victim to build: preset plus seed.
#[derive(Clone, Debug)]
pub struct VictimSpec {
    /// The preset.
    pub build: Build,
    /// Victim seed (weights and pruning).
    pub seed: u64,
}

/// A sealed victim and the network it hides.
pub struct Victim {
    /// The sealed device.
    pub device: Device,
    /// Ground truth, for scoring only.
    pub net: Network,
    /// Victim family name.
    pub model: &'static str,
    /// Deployed defence label.
    pub defence: String,
}

impl VictimSpec {
    /// Builds (initialises, prunes, verifies and seals) the victim.
    pub fn build(&self) -> Victim {
        let seed = self.seed;
        let (device, net) = match &self.build {
            Build::Paper => paper_victim(Model::VggS, seed),
            Build::Nm24 => pruned_victim(
                Model::VggS,
                PruneMode::Nm { n: 2, m: 4 },
                1.0,
                seed,
                AccelConfig::eyeriss_v2(),
            ),
            Build::Int8Mini => quantized_victim(Model::VggS, PruneMode::Unstructured, 0.25, seed),
            Build::Matrix { model, defence, .. } => pruned_victim(
                *model,
                PruneMode::Unstructured,
                CHANNEL_MATRIX_WIDTH,
                seed,
                AccelConfig::eyeriss_v2()
                    .with_defence(defence.clone())
                    .with_conv_backend(ConvBackend::Im2colGemm),
            ),
        };
        let (model, defence) = match &self.build {
            Build::Matrix { model, label, .. } => (model.name(), label.clone()),
            _ => (Model::VggS.name(), "none".to_string()),
        };
        Victim {
            device,
            net,
            model,
            defence,
        }
    }
}

/// The first stripe probe the prober sends: observing it takes the
/// stripe-probe forward path, so it forces every lazy device cache.
fn warm_image(device: &Device) -> Tensor3 {
    let shape = device.input_shape();
    stripe_probes(shape, 1, 1, 0)
        .swap_remove(0)
        .images
        .swap_remove(0)
}

/// Forces the lazy caches a steal would otherwise build on its first
/// observation: the sparse forward cache or the INT8 network, and the GEMM
/// call dimensions.
fn warm(device: &Device) -> Result<(), String> {
    device
        .observe(&warm_image(device))
        .map_err(|e| format!("warm-up observation failed: {e}"))?;
    device.gemm_calls();
    Ok(())
}

/// Set-up: the warm victims plus the time each part of building them took.
pub struct Setup {
    /// The victims, warm.
    pub victims: Vec<Victim>,
    /// Set-up wall seconds (build + warm), excluding the re-seal probe.
    pub setup_s: f64,
    /// Initialisation and pruning seconds (preset time minus seal time).
    pub victim_s: f64,
    /// Verification and sealing seconds (`Device::try_new` on a copy).
    pub seal_s: f64,
    /// Warm-up observation seconds.
    pub warm_s: f64,
}

/// Times one seal of `device`'s own graph: the `Device::try_new`
/// verification and sealing the preset just paid for.
fn reseal_s(device: &Device) -> Result<f64, String> {
    let oracle = device.oracle();
    let (net, params) = (oracle.net.clone(), oracle.params.clone());
    let cfg = device.config().clone();
    let t = Instant::now();
    let sealed = Device::try_new(net, params, cfg).map_err(|e| format!("re-seal failed: {e}"))?;
    let s = t.elapsed().as_secs_f64();
    drop(sealed);
    Ok(s)
}

/// Builds and warms every victim of `w` at `seed`.
pub fn setup(w: Workload, seed: u64) -> Result<Setup, String> {
    let mut out = Setup {
        victims: Vec::new(),
        setup_s: 0.0,
        victim_s: 0.0,
        seal_s: 0.0,
        warm_s: 0.0,
    };
    for spec in w.victims(seed) {
        let t = Instant::now();
        let victim = spec.build();
        let built = t.elapsed().as_secs_f64();
        let seal = reseal_s(&victim.device)?;
        let t = Instant::now();
        warm(&victim.device)?;
        let warmed = t.elapsed().as_secs_f64();
        out.setup_s += built + warmed;
        out.victim_s += (built - seal).max(0.0);
        out.seal_s += seal;
        out.warm_s += warmed;
        out.victims.push(victim);
    }
    Ok(out)
}

/// Calls `f` on every (victim, channel) target of one operation, in the
/// campaign's order. Campaign operations build their victims cold; the
/// returned seconds are the time those builds took (0 for steals).
pub fn each_target<F>(w: Workload, seed: u64, setup: &Setup, mut f: F) -> Result<f64, String>
where
    F: FnMut(&Victim, ChannelKind, bool) -> Result<(), String>,
{
    if !w.builds_per_op() {
        for v in &setup.victims {
            for &channel in w.channels() {
                f(v, channel, false)?;
            }
        }
        return Ok(0.0);
    }
    let mut build_s = 0.0;
    for spec in w.victims(seed) {
        let t = Instant::now();
        let v = spec.build();
        build_s += t.elapsed().as_secs_f64();
        for (i, &channel) in w.channels().iter().enumerate() {
            f(&v, channel, i == 0)?;
        }
    }
    Ok(build_s)
}

/// What one target's attack recovered, scored against the ground truth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Victim family.
    pub victim: String,
    /// Channel read.
    pub channel: String,
    /// Defence deployed.
    pub defence: String,
    /// Probe families consumed.
    pub probes_used: usize,
    /// `correct/total` over all layers.
    pub geometry: String,
    /// `correct/total` over conv layers.
    pub conv: String,
    /// Whether channel ratios were recovered.
    pub ratios: bool,
    /// Finalized candidate count (0 when none survived).
    pub solutions: usize,
    /// Whether the k1 candidates cover the live first-layer width.
    pub k1_hit: bool,
}

impl Cell {
    /// Scores `out` against `v`'s ground truth.
    pub fn score(v: &Victim, channel: ChannelKind, out: &AttackOutcome) -> Cell {
        let g = score_geometry(&v.net, &out.prober);
        let c = score_conv_geometry(&v.net, &out.prober);
        let k1 = live_k1(v);
        Cell {
            victim: v.model.to_string(),
            channel: channel.label().to_string(),
            defence: v.defence.clone(),
            probes_used: out.prober.probes_used,
            geometry: format!("{}/{}", g.correct, g.total),
            conv: format!("{}/{}", c.correct, c.total),
            ratios: out.ratios.is_some(),
            solutions: out.space.as_ref().map_or(0, |s| s.count()),
            k1_hit: out
                .space
                .as_ref()
                .is_some_and(|s| s.k1_candidates.contains(&k1)),
        }
    }

    /// One line in the pinned-fixture format.
    pub fn row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.victim,
            self.channel,
            self.defence,
            self.probes_used,
            self.geometry,
            self.conv,
            yes_no(self.ratios),
            self.solutions,
            yes_no(self.k1_hit)
        )
    }
}

fn yes_no(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// Live (at least one nonzero weight) rows of the first conv: the width
/// the k1 candidates must cover, since dead rows never touch the bus.
fn live_k1(v: &Victim) -> usize {
    let first = v.net.conv_nodes()[0];
    let w = v.device.oracle().params.conv(first).w;
    (0..w.k())
        .filter(|&k| {
            (0..w.c()).any(|c| {
                (0..w.r()).any(|r| (0..w.s()).any(|s| w.data()[w.index(k, c, r, s)] != 0.0))
            })
        })
        .count()
}

/// One untraced operation.
pub struct Op {
    /// Operation wall seconds.
    pub wall_s: f64,
    /// Seconds inside `attack::run` calls.
    pub attack_s: f64,
    /// Device runs consumed.
    pub runs: usize,
    /// Scored outcomes, one per target.
    pub cells: Vec<Cell>,
    /// The raw outcomes, for the traced run's bit-identity check.
    pub outcomes: Vec<AttackOutcome>,
}

/// Runs one untraced operation: `attack::run` on every target.
pub fn run_op(w: Workload, seed: u64, setup: &Setup, cfg: &AttackConfig) -> Result<Op, String> {
    if hd_obs::enabled() {
        return Err("telemetry is enabled during an end-to-end operation".into());
    }
    let mut op = Op {
        wall_s: 0.0,
        attack_s: 0.0,
        runs: 0,
        cells: Vec::new(),
        outcomes: Vec::new(),
    };
    let t = Instant::now();
    each_target(w, seed, setup, |v, channel, _| {
        let model = channel.model(&v.device);
        let ta = Instant::now();
        let out = huffduff_core::run(model.as_ref(), cfg).map_err(|e| e.to_string())?;
        op.attack_s += ta.elapsed().as_secs_f64();
        op.runs += out.prober.runs_used;
        op.cells.push(Cell::score(v, channel, &out));
        op.outcomes.push(out);
        Ok(())
    })?;
    op.wall_s = t.elapsed().as_secs_f64();
    Ok(op)
}

/// The correctness gate. At the default seed every cell must equal its
/// pinned row; at any seed the outcome must be a complete attack on the
/// undefended full channel (geometry layer count, ratios, a space that
/// covers the live k1).
pub fn check(w: Workload, seed: u64, cells: &[Cell]) -> Result<(), String> {
    if seed == w.default_seed() {
        let want = crate::pinned::rows(w);
        let got: Vec<String> = cells.iter().map(Cell::row).collect();
        if want.len() != got.len() {
            return Err(format!(
                "{} cells, {} pinned rows; got:\n{}",
                got.len(),
                want.len(),
                got.join("\n")
            ));
        }
        let moved: Vec<String> = got
            .iter()
            .zip(&want)
            .filter(|(g, p)| g != p)
            .map(|(g, p)| format!("  pinned {p}\n  got    {g}"))
            .collect();
        if moved.is_empty() {
            return Ok(());
        }
        return Err(format!("cells moved:\n{}", moved.join("\n")));
    }
    for c in cells
        .iter()
        .filter(|c| c.channel == "full" && c.defence == "none")
    {
        if !(c.ratios && c.solutions > 0 && c.k1_hit) {
            return Err(format!(
                "undefended full-channel steal incomplete: {}",
                c.row()
            ));
        }
    }
    Ok(())
}

//! Shared command-line handling for the example binaries.
//!
//! Included via `#[path = "common/cli.rs"] mod cli;` (files under
//! `examples/common/` are not themselves example targets); an example
//! that uses only part of it expects `dead_code` on that `mod` line.
//! Every example accepts the same surface:
//!
//! ```text
//! -j, --parallelism N       prober worker threads (default: all cores)
//! -b, --backend KIND        victim conv stack: gemm (GEMM calls observable)
//!                           | sparse (none)
//! -c, --channel KIND        observation channel: full | trace | timing | gemm
//! -p, --prune MODE          victim pruning: unstructured | N:M (e.g. 2:4)
//!                           | structured[:KEEP_FRAC]
//! -q, --quantize            deploy the victim as INT8 (post-training
//!                           quantized, BN folded) instead of f32
//! -o, --obs PATH            enable telemetry; write JSON to PATH and a
//!                           Chrome trace next to it (.trace.json)
//! -h, --help                usage
//! ```
//!
//! Unknown flags are errors (exit code 2), not silently ignored — the old
//! per-example parsers scanned for known flags and dropped the rest, which
//! made typos like `--paralellism 4` run the slow default silently.

use hd_tensor::ConvBackend;
use huffduff_core::ChannelKind;
use std::path::{Path, PathBuf};

/// Parsed common options.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CliArgs {
    /// `-j N`: prober worker threads (`None` = all cores).
    pub parallelism: Option<usize>,
    /// `-b KIND`: the victim's conv software stack, which decides only
    /// whether GEMM calls are observable (`None` = crate default).
    pub backend: Option<ConvBackend>,
    /// `-c KIND`: the observation channel the attacker reads.
    pub channel: ChannelKind,
    /// `-p MODE`: how the victim is pruned before the attack.
    pub prune: PruneArg,
    /// `-o PATH`: telemetry JSON output path; presence enables telemetry.
    pub obs_out: Option<PathBuf>,
    /// `-q`: deploy the victim INT8-quantized (PTQ with BN folding).
    pub quantized: bool,
}

/// Victim pruning mode selected with `-p`/`--prune`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum PruneArg {
    /// Magnitude pruning to the paper's sparsity profile (the default).
    #[default]
    Unstructured,
    /// N:M fine-grained sparsity along the input-channel axis.
    Nm {
        /// Kept weights per group.
        n: usize,
        /// Group size.
        m: usize,
    },
    /// Structured channel removal (shapes physically shrink).
    Structured {
        /// Fraction of each prunable class's channels kept.
        keep_frac: f64,
    },
}

impl PruneArg {
    /// Parses `unstructured`, `N:M` (e.g. `2:4`), `structured`, or
    /// `structured:FRAC` (e.g. `structured:0.6`).
    pub fn parse(v: &str) -> Result<PruneArg, String> {
        if v == "unstructured" {
            return Ok(PruneArg::Unstructured);
        }
        if v == "structured" {
            return Ok(PruneArg::Structured { keep_frac: 0.5 });
        }
        if let Some(frac) = v.strip_prefix("structured:") {
            let keep_frac: f64 = frac
                .parse()
                .map_err(|_| format!("invalid keep fraction {frac:?}"))?;
            if !(keep_frac > 0.0 && keep_frac <= 1.0) {
                return Err(format!("keep fraction {keep_frac} not in (0, 1]"));
            }
            return Ok(PruneArg::Structured { keep_frac });
        }
        if let Some((n, m)) = v.split_once(':') {
            let (n, m) = (
                n.parse::<usize>()
                    .map_err(|_| format!("invalid N in {v:?}"))?,
                m.parse::<usize>()
                    .map_err(|_| format!("invalid M in {v:?}"))?,
            );
            if n == 0 || n > m {
                return Err(format!("N:M needs 1 <= N <= M, got {n}:{m}"));
            }
            return Ok(PruneArg::Nm { n, m });
        }
        Err(format!(
            "unknown pruning mode {v:?} (expected unstructured, N:M, or structured[:FRAC])"
        ))
    }

    /// Human-readable label for banners.
    pub fn label(&self) -> String {
        match self {
            PruneArg::Unstructured => "unstructured (paper profile)".to_string(),
            PruneArg::Nm { n, m } => format!("{n}:{m} fine-grained"),
            PruneArg::Structured { keep_frac } => {
                format!("structured (keep {:.0}% of channels)", keep_frac * 100.0)
            }
        }
    }
}

/// Applies the selected pruning mode to a freshly-initialized victim,
/// returning the (possibly restructured) network and parameters.
/// Unstructured mode uses the paper's sparsity profile with `seed`;
/// structured mode removes channels first and then magnitude-prunes the
/// survivors with the same profile shape.
pub fn prune_victim(
    net: hd_dnn::graph::Network,
    mut params: hd_dnn::graph::Params,
    mode: PruneArg,
    seed: u64,
) -> (hd_dnn::graph::Network, hd_dnn::graph::Params) {
    match mode {
        PruneArg::Unstructured => {
            let profile = hd_dnn::prune::paper_profile(&net);
            hd_dnn::prune::apply_sparsity_profile(&net, &mut params, &profile, seed);
            (net, params)
        }
        PruneArg::Nm { n, m } => {
            hd_dnn::prune::nm_prune(&net, &mut params, n, m);
            (net, params)
        }
        PruneArg::Structured { keep_frac } => {
            let r = hd_dnn::prune::structured_prune(
                &net,
                &params,
                &hd_dnn::prune::StructuredCfg {
                    keep_frac,
                    min_keep: 2,
                },
            );
            let (net, mut params) = (r.net, r.params);
            let profile = hd_dnn::prune::paper_profile(&net);
            hd_dnn::prune::magnitude_prune_profile(&net, &mut params, &profile);
            (net, params)
        }
    }
}

impl CliArgs {
    /// The victim's conv stack (explicit flag or the default).
    pub fn backend_or_default(&self) -> ConvBackend {
        self.backend.unwrap_or_default()
    }

    /// The PE-array precision selected by `-q`.
    pub fn precision(&self) -> hd_accel::Precision {
        if self.quantized {
            hd_accel::Precision::Int8
        } else {
            hd_accel::Precision::F32
        }
    }

    /// Whether telemetry collection was requested.
    pub fn telemetry(&self) -> bool {
        self.obs_out.is_some()
    }

    /// Parses `std::env::args`, printing usage and exiting on `--help`
    /// (code 0) or any parse error (code 2).
    pub fn parse(example: &str) -> CliArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match Self::try_parse(&argv) {
            Ok(Parsed::Args(args)) => args,
            Ok(Parsed::HelpRequested) => {
                println!("{}", usage(example));
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}\n\n{}", usage(example));
                std::process::exit(2);
            }
        }
    }

    /// Pure parser over an argument slice (no process exit, testable).
    pub fn try_parse(argv: &[String]) -> Result<Parsed, String> {
        let mut args = CliArgs::default();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value_for = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "-h" | "--help" => return Ok(Parsed::HelpRequested),
                "-j" | "--parallelism" => {
                    let v = value_for(flag)?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("invalid worker count {v:?}"))?;
                    if n == 0 {
                        return Err("worker count must be at least 1".into());
                    }
                    args.parallelism = Some(n);
                }
                "-b" | "--backend" => {
                    let v = value_for(flag)?;
                    let backend = ConvBackend::parse(&v).ok_or_else(|| {
                        format!("unknown backend {v:?} (expected gemm or sparse)")
                    })?;
                    args.backend = Some(backend);
                }
                "-c" | "--channel" => {
                    let v = value_for(flag)?;
                    args.channel = ChannelKind::parse(&v).ok_or_else(|| {
                        format!("unknown channel {v:?} (expected full, trace, timing, or gemm)")
                    })?;
                }
                "-p" | "--prune" => {
                    args.prune = PruneArg::parse(&value_for(flag)?)?;
                }
                "-o" | "--obs" => {
                    args.obs_out = Some(PathBuf::from(value_for(flag)?));
                }
                "-q" | "--quantize" => {
                    args.quantized = true;
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Parsed::Args(args))
    }
}

/// Outcome of a successful parse.
#[derive(Clone, Debug, PartialEq)]
pub enum Parsed {
    /// Normal options.
    Args(CliArgs),
    /// `-h`/`--help` was present; the caller should print usage and stop.
    HelpRequested,
}

fn usage(example: &str) -> String {
    format!(
        "usage: cargo run --release --example {example} -- [options]\n\
         \n\
         options:\n\
         \x20 -j, --parallelism N   prober worker threads (default: all cores)\n\
         \x20 -b, --backend KIND    victim conv stack: gemm (im2col + BLAS, GEMM calls\n\
         \x20                       observable) | sparse (CSC engine, none); not a speed\n\
         \x20                       setting (default: gemm)\n\
         \x20 -c, --channel KIND    observation channel the attacker reads: full | trace |\n\
         \x20                       timing | gemm (default: full; gemm needs the gemm\n\
         \x20                       stack)\n\
         \x20 -p, --prune MODE      victim pruning: unstructured | N:M (e.g. 2:4) |\n\
         \x20                       structured[:KEEP_FRAC] (default: unstructured)\n\
         \x20 -o, --obs PATH        enable telemetry; write summary JSON to PATH and a\n\
         \x20                       Chrome trace (load in chrome://tracing) next to it\n\
         \x20 -q, --quantize        deploy the victim as INT8 (PTQ, BN folded) instead\n\
         \x20                       of f32\n\
         \x20 -h, --help            show this help"
    )
}

/// Enables and clears telemetry if `-o` was given. Call before the workload.
pub fn obs_begin(args: &CliArgs) {
    if args.telemetry() {
        hd_obs::reset();
        hd_obs::set_enabled(true);
    }
}

/// Disables telemetry and writes the three exports if `-o` was given:
/// the summary table to stdout, stable-schema JSON to the `-o` path, and a
/// Chrome trace next to it. Call after the workload.
pub fn obs_finish(args: &CliArgs) {
    let Some(path) = &args.obs_out else {
        return;
    };
    hd_obs::set_enabled(false);
    let snap = hd_obs::snapshot();
    print!("{}", snap.summary_table());
    write_or_die(path, &snap.to_json());
    let trace_path = chrome_trace_path(path);
    write_or_die(&trace_path, &snap.to_chrome_trace());
    println!(
        "telemetry: JSON -> {}, Chrome trace -> {}",
        path.display(),
        trace_path.display()
    );
}

/// `obs.json` -> `obs.trace.json`; a path without a `.json` extension gets
/// `.trace.json` appended.
pub fn chrome_trace_path(json_path: &Path) -> PathBuf {
    let name = json_path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let stem = name.strip_suffix(".json").unwrap_or(&name);
    json_path.with_file_name(format!("{stem}.trace.json"))
}

fn write_or_die(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

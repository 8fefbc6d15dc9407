//! Steal-level benchmark of the HuffDuff reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path stealbench/Cargo.toml -- \
//!     --workload vgg_paper --seed 3 --seconds 45 --trace 0
//! cargo run --release --offline --manifest-path stealbench/Cargo.toml -- --workload all
//! cargo run --release --offline --manifest-path stealbench/Cargo.toml -- --compare a.txt b.txt
//! ```
//!
//! `--trace 0` measures the end-to-end metrics of back-to-back steals;
//! `--trace 1` runs the per-layer ledger (see `ledger.rs`). Every run
//! prints a stamped record line and then, last, the summary line
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod ledger;
mod pinned;
mod report;
mod workloads;

use ledger::CLOSURE_MIN;
use report::{median, metric, Metric, Stamp};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Setup, Workload};

/// Set-ups per run: at least `SETUPS_MIN`, and more (up to `SETUPS_MAX`)
/// until `SETUP_BUDGET_S` seconds have gone into them, so sub-second
/// set-ups still give a steady median.
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 40;
const SETUP_BUDGET_S: f64 = 2.0;

const USAGE: &str =
    "usage: stealbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]\n\
                     \x20      stealbench --compare RESULT_A RESULT_B\n\
                     workloads: vgg_paper vgg_2of4 defence_matrix vgg_int8_mini";

struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Compare(String, String),
}

fn parse(argv: &[String]) -> Result<Mode, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: 45,
        trace: false,
    };
    let mut all = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if v == "all" {
                    all = true;
                } else {
                    args.workload =
                        Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
                }
            }
            "--seed" => args.seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--compare" => {
                let a = value()?;
                let b = it.next().cloned().ok_or("--compare needs two files")?;
                return Ok(Mode::Compare(a, b));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !all && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(Mode::Run(args))
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Result of one run, ready to print.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    notes: Vec<(&'static str, String)>,
}

/// Builds the victims repeatedly (see `SETUPS_MIN`) and keeps the last set.
fn setups(w: Workload, seed: u64) -> Result<(Setup, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut kept = None;
    while times.len() < SETUPS_MIN
        || (times.len() < SETUPS_MAX && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(kept.take());
        let s = workloads::setup(w, seed)?;
        times.push(s.setup_s);
        kept = Some(s);
    }
    Ok((kept.ok_or("no set-up ran")?, times))
}

/// `--trace 0`: one untimed warm-up operation, then back-to-back untraced
/// operations for `seconds`. Every operation, the warm-up too, passes the
/// correctness gate.
fn measure(w: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let cfg = w.attack_config(workers());
    let (setup, setup_times) = setups(w, seed)?;
    let budget = seconds as f64;
    let (mut attempted, mut failed) = (0, 0);
    let (mut walls, mut rates, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<workloads::Op> = None;
    let mut start = Instant::now();
    loop {
        let warm_up = attempted == 0;
        attempted += 1;
        let t = Instant::now();
        let verdict = workloads::run_op(w, seed, &setup, &cfg).and_then(|op| {
            workloads::check(w, seed, &op.cells)?;
            if let Some(f) = &first {
                if f.outcomes != op.outcomes {
                    return Err("outcome differs from the run's first operation".into());
                }
            }
            Ok(op)
        });
        match verdict {
            Ok(op) => {
                if !warm_up {
                    walls.push(op.wall_s);
                    rates.push(op.runs as f64 / op.attack_s);
                    runs.push(op.runs as f64);
                }
                first.get_or_insert(op);
            }
            Err(e) => {
                eprintln!("operation {attempted} failed: {e}");
                failed += 1;
            }
        }
        if warm_up {
            start = Instant::now();
            continue;
        }
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > budget {
            break;
        }
    }
    let mut steal = metric("steal_s", "s", median(&walls));
    let (tail_pct, tail) = report::tail(&walls);
    steal.extra = vec![
        ("tail_pct", tail_pct),
        ("tail", tail),
        ("samples", walls.len() as f64),
    ];
    let mut setup_m = metric("setup_s", "s", median(&setup_times));
    setup_m.extra = vec![("samples", setup_times.len() as f64)];
    let metrics = vec![
        steal,
        setup_m,
        metric("probe_runs_per_s", "1/s", median(&rates)),
        metric("device_runs", "count", median(&runs)),
        metric("peak_rss_mib", "MiB", report::peak_rss_mib()),
        metric(
            "ok_frac",
            "frac",
            (attempted - failed) as f64 / attempted as f64,
        ),
    ];
    let cells: Vec<String> = first
        .iter()
        .flat_map(|op| op.cells.iter().map(|c| report::string(&c.row())))
        .collect();
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes: vec![
            ("cells", format!("[{}]", cells.join(", "))),
            (
                "steal_walls_s",
                format!(
                    "[{}]",
                    walls
                        .iter()
                        .map(|w| report::num(*w))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ),
        ],
    })
}

/// `--trace 1`: one untraced and one traced operation, then the ledger.
fn traced(w: Workload, seed: u64) -> Result<Outcome, String> {
    let cfg = w.attack_config(workers());
    let (setup, _) = setups(w, seed)?;
    let mut problems: Vec<String> = Vec::new();

    let untraced = workloads::run_op(w, seed, &setup, &cfg)?;
    if let Err(e) = workloads::check(w, seed, &untraced.cells) {
        problems.push(e);
    }
    let op = ledger::traced_op(w, seed, &setup, &cfg)?;
    let l = &op.ledger;
    if op.outcomes != untraced.outcomes {
        problems.push("traced outcome differs from the untraced attack::run outcome".into());
    }
    let closure = l.attributed_s() / op.wall_s;
    if closure < CLOSURE_MIN {
        problems.push(format!(
            "closure check: layers cover {:.1}% of the traced operation",
            closure * 100.0
        ));
    }
    if seed == w.default_seed() {
        if let Some(pinned) = pinned::digest(w) {
            if pinned != l.digest {
                problems.push(format!(
                    "simulated statistics moved: digest {:016x}, pinned {pinned:016x}",
                    l.digest
                ));
            }
        }
    }
    for p in &problems {
        eprintln!("correctness: {p}");
    }

    let frac = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let metrics = vec![
        metric("dnn.forward_s", "s", l.forward_s),
        metric("dnn.cols_skipped_frac", "frac", l.cols_skipped_frac()),
        metric("accel.emit_s", "s", l.emit_s),
        metric(
            "accel.events_per_run",
            "count",
            frac(l.events as f64, l.replayed_runs as f64),
        ),
        metric("trace.analyze_s", "s", l.analyze_s),
        metric(
            "trace.peak_pending_reads",
            "count",
            l.peak_pending_reads as f64,
        ),
        metric("channel.observe_s", "s", l.channel_s),
        metric("channel.observe_calls", "count", l.observe_calls as f64),
        metric("core.classify_s", "s", l.classify_s),
        metric("core.families", "count", l.families as f64),
        metric(
            "core.confirm_frac",
            "frac",
            frac(l.confirm_families as f64, l.families as f64),
        ),
        metric("core.timing_s", "s", l.timing_s),
        metric("core.finalize_s", "s", l.finalize_s),
        metric(
            "pool.utilisation",
            "frac",
            frac(l.observe_busy_s, l.worker_s),
        ),
        metric("setup.victim_s", "s", setup.victim_s),
        metric("setup.seal_s", "s", setup.seal_s),
        metric("setup.warm_s", "s", setup.warm_s),
        metric("campaign.build_s", "s", l.build_s),
        metric("unattributed_s", "s", op.wall_s - l.attributed_s()),
        metric("tracing_overhead_s", "s", op.wall_s - untraced.wall_s),
    ];
    let notes = vec![
        ("traced_wall_s", report::num(op.wall_s)),
        ("untraced_wall_s", report::num(untraced.wall_s)),
        ("closure", report::num(closure)),
        ("observe_union_s", report::num(l.observe_union_s)),
        ("observe_busy_s", report::num(l.observe_busy_s)),
        (
            "replay_fit",
            report::num(frac(l.replay_parts.iter().sum(), l.observe_busy_s)),
        ),
        (
            "replay_parts_s",
            format!("[{}]", l.replay_parts.map(report::num).join(", ")),
        ),
        (
            "replay_images_per_target",
            ledger::REPLAY_IMAGES.to_string(),
        ),
        ("digest", report::string(&format!("{:016x}", l.digest))),
    ];
    let failed = usize::from(!problems.is_empty());
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: 1,
        failed,
        metrics,
        notes,
    })
}

fn run_one(w: Workload, seed: u64, seconds: u64, trace: bool) -> ExitCode {
    let result = if trace {
        traced(w, seed)
    } else {
        measure(w, seed, seconds)
    };
    match result {
        Ok(out) => {
            let stamp = Stamp::collect(w.name(), seed, seconds, trace, workers());
            report::print_table(
                &format!("{} seed {seed} trace {}", w.name(), u8::from(trace)),
                &out.metrics,
            );
            println!("{}", report::record_line(&stamp, &out.metrics, &out.notes));
            println!(
                "{}",
                report::summary_line(out.correct, out.attempted, out.failed, &out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--workload all`: every workload at its default seed, untraced then
/// traced, each in a child process so peak memory is per workload.
fn run_all(seconds: u64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seconds", &seconds.to_string()])
                .args(["--trace", trace])
                .output();
            match out {
                Ok(o) => {
                    let stdout = String::from_utf8_lossy(&o.stdout);
                    eprint!("{}", String::from_utf8_lossy(&o.stderr));
                    print!("{stdout}");
                    let last = stdout.lines().last().unwrap_or("");
                    ok &= o.status.success() && last.starts_with("{\"correct\": true");
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(Mode::Compare(a, b)) => match report::compare(&a, &b) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(3)
            }
        },
        Ok(Mode::Run(args)) => match args.workload {
            Some(w) => run_one(
                w,
                args.seed.unwrap_or(w.default_seed()),
                args.seconds,
                args.trace,
            ),
            None => run_all(args.seconds),
        },
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

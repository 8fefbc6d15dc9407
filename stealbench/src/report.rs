//! Statistics, the host/config stamp, JSON output and stamp-checked
//! comparison of two results.

use hd_obs::json::Json;
use std::fmt::Write as _;

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile of `v` with at least ten samples beyond it, as
/// `(percent, value)`; with ten or fewer samples, the maximum `(100, max)`.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => (100.0, 0.0),
        n if n <= 10 => (100.0, s[n - 1]),
        n => (100.0 * (n - 10) as f64 / n as f64, s[n - 11]),
    }
}

/// One named metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Extra fields recorded beside it (tail percentile, sample count).
    pub extra: Vec<(&'static str, f64)>,
}

/// A metric without extras.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        extra: Vec::new(),
    }
}

/// Formats a finite number with every digit Rust's shortest round-trip
/// form gives it; non-finite values become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric], with_extra: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let mut fields = format!("\"value\": {}, \"unit\": {}", num(m.value), string(m.unit));
            if with_extra {
                for (k, v) in &m.extra {
                    let _ = write!(fields, ", {}: {}", string(k), num(*v));
                }
            }
            format!("{}: {{{fields}}}", string(m.name))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The summary line every run prints last: correctness, operation counts
/// and the metrics without extras.
pub fn summary_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics, false)
    )
}

/// Host and configuration a result was measured under.
#[derive(Clone, Debug)]
pub struct Stamp {
    /// `(key, JSON value)` pairs in output order.
    fields: Vec<(&'static str, String)>,
}

/// Stamp keys a comparison ignores: the commit is what is being compared.
const UNCOMPARED: [&str; 1] = ["commit"];

impl Stamp {
    /// Stamps a run of `workload` at `seed`.
    pub fn collect(workload: &str, seed: u64, seconds: u64, trace: bool, workers: usize) -> Stamp {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Stamp {
            fields: vec![
                ("workload", string(workload)),
                ("seed", seed.to_string()),
                ("seconds", seconds.to_string()),
                ("trace", trace.to_string()),
                ("nproc", nproc.to_string()),
                ("prober_workers", workers.to_string()),
                ("simd", hd_tensor::simd::enabled().to_string()),
                ("isa", string(hd_tensor::simd::active_isa())),
                ("rustc", string(env!("STEALBENCH_RUSTC"))),
                ("commit", string(env!("STEALBENCH_COMMIT"))),
            ],
        }
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The full record line: stamp, every metric with its extras, and
/// free-form diagnostics. Printed before the summary line.
pub fn record_line(stamp: &Stamp, metrics: &[Metric], notes: &[(&'static str, String)]) -> String {
    let mut s = format!(
        "{{\"stealbench\": 1, \"stamp\": {}, \"metrics\": {}",
        stamp.json(),
        metrics_json(metrics, true)
    );
    for (k, v) in notes {
        let _ = write!(s, ", {}: {v}", string(k));
    }
    s.push('}');
    s
}

/// Human-readable metric table (stderr).
pub fn print_table(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for m in metrics {
        eprintln!("  {:<28} {:>16} {}", m.name, num(m.value), m.unit);
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn records(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| l.starts_with("{\"stealbench\""))
        .map(|l| Json::parse(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

fn field(j: &Json, key: &str) -> String {
    match j.get(key) {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(n)) => num(*n),
        Some(Json::Bool(b)) => b.to_string(),
        _ => "?".to_string(),
    }
}

/// Compares the records in two saved outputs, metric by metric. Refuses
/// (an `Err`) when any stamp field other than the commit differs.
pub fn compare(a_path: &str, b_path: &str) -> Result<(), String> {
    let (a, b) = (records(a_path)?, records(b_path)?);
    if a.is_empty() || a.len() != b.len() {
        return Err(format!(
            "{a_path} holds {} records, {b_path} holds {}",
            a.len(),
            b.len()
        ));
    }
    for (ra, rb) in a.iter().zip(&b) {
        let (Some(sa @ Json::Obj(fields)), Some(sb)) = (ra.get("stamp"), rb.get("stamp")) else {
            return Err("record without a stamp".into());
        };
        for (k, _) in fields
            .iter()
            .filter(|(k, _)| !UNCOMPARED.contains(&k.as_str()))
        {
            let (va, vb) = (field(sa, k), field(sb, k));
            if va != vb {
                return Err(format!(
                    "refusing to compare: stamp field {k:?} differs ({va} vs {vb})"
                ));
            }
        }
        println!(
            "{} seed {} (commit {} -> {})",
            field(sa, "workload"),
            field(sa, "seed"),
            field(sa, "commit"),
            field(sb, "commit")
        );
        if let (Some(Json::Obj(ma)), Some(mb)) = (ra.get("metrics"), rb.get("metrics")) {
            for (name, va) in ma {
                let x = va.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                let y = mb
                    .get(name)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                let ratio = if x != 0.0 { y / x } else { f64::NAN };
                println!(
                    "  {name:<28} {:>14} -> {:<14} x{:.3}",
                    num(x),
                    num(y),
                    ratio
                );
            }
        }
    }
    Ok(())
}

//! The one measurement harness behind every bench in `benches/`.
//!
//! * [`sample`]: one untimed warmup call, then `n` timed calls,
//!   summarised as mean, median and the raw samples.
//! * [`pairs`]: an in-process A/B comparison that alternates the arms
//!   (A first on even pairs, B first on odd ones), so slow drift of the
//!   host hits both arms alike. Guards built on it compare two arms of one
//!   run instead of a fresh run against a recording from another host.
//! * [`Artifact`]: the `BENCH_<name>.json` record at the repository root.
//!   Every artifact starts with the same stamp (bench, schema, host cores,
//!   active SIMD ISA, smoke flag). A full run writes the file; a smoke run
//!   (`HD_BENCH_SMOKE` set) leaves it alone and instead checks that the
//!   document it would have written has the committed file's key paths.
//!
//! Built on `std`, [`hd_obs::json`] and `hd_tensor::simd` only.

use hd_obs::json::Json;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Whether `HD_BENCH_SMOKE` asks for the seconds-long CI variant.
pub fn smoke() -> bool {
    std::env::var_os("HD_BENCH_SMOKE").is_some()
}

/// Whether `HD_BENCH_GUARD` asks for the bench's guard instead of a run.
pub fn guard() -> bool {
    std::env::var_os("HD_BENCH_GUARD").is_some()
}

/// Wall-clock seconds of one call of `f`, with its output.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

/// Timed samples of one routine, in seconds.
#[derive(Clone, Debug, PartialEq)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// Median (mean of the middle two for an even count).
    pub fn median(&self) -> f64 {
        let mut s = self.0.clone();
        s.sort_by(f64::total_cmp);
        let mid = s.len() / 2;
        if s.len().is_multiple_of(2) {
            (s[mid - 1] + s[mid]) / 2.0
        } else {
            s[mid]
        }
    }

    /// `mean_s` and `samples_s` artifact fields, rounded to milliseconds.
    pub fn fields(&self) -> [(&'static str, Json); 2] {
        let samples = self.0.iter().map(|&s| round(s, 3)).collect();
        [
            ("mean_s", round(self.mean(), 3)),
            ("samples_s", Json::Arr(samples)),
        ]
    }
}

/// One untimed warmup call of `f`, then `n` timed calls. Returns the last
/// call's output with the samples.
pub fn sample<T>(n: usize, mut f: impl FnMut() -> T) -> (T, Samples) {
    assert!(n >= 1, "at least one timed sample");
    let mut last = black_box(f());
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let (out, secs) = time(&mut f);
        last = out;
        samples.push(secs);
    }
    (last, Samples(samples))
}

/// One arm of a [`pairs`] comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Arm {
    /// Seconds per call, in pair order.
    pub samples: Vec<f64>,
    /// Median of `samples`.
    pub median: f64,
    /// Pairs this arm ran strictly faster in; a tie counts for neither.
    pub wins: usize,
}

/// Result of an alternating A/B comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Pairs {
    /// Arm A.
    pub a: Arm,
    /// Arm B.
    pub b: Arm,
}

impl Pairs {
    /// Scores per-pair samples: `a[i]` and `b[i]` ran as pair `i`.
    fn from_samples(a: Vec<f64>, b: Vec<f64>) -> Pairs {
        assert_eq!(a.len(), b.len(), "one sample per arm per pair");
        let wins = |x: &[f64], y: &[f64]| x.iter().zip(y).filter(|(p, q)| p < q).count();
        let arm = |samples: Vec<f64>, wins| Arm {
            median: Samples(samples.clone()).median(),
            samples,
            wins,
        };
        let (a_wins, b_wins) = (wins(&a, &b), wins(&b, &a));
        Pairs {
            a: arm(a, a_wins),
            b: arm(b, b_wins),
        }
    }
}

/// One untimed warmup call of each arm, then `n` timed pairs: A first on
/// even pairs, B first on odd ones.
pub fn pairs<A, B>(n: usize, mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> Pairs {
    assert!(n >= 1, "at least one pair");
    black_box(a());
    black_box(b());
    let (mut sa, mut sb) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        if i.is_multiple_of(2) {
            sa.push(time(&mut a).1);
            sb.push(time(&mut b).1);
        } else {
            sb.push(time(&mut b).1);
            sa.push(time(&mut a).1);
        }
    }
    Pairs::from_samples(sa, sb)
}

/// `v` rounded to `places` decimals, as a JSON number.
pub fn round(v: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::Num((v * scale).round() / scale)
}

/// A bench's committed artifact, `BENCH_<name>.json` at the repository root.
#[derive(Clone, Copy, Debug)]
pub struct Artifact {
    /// The bench target that records it (`fig_conv_backend`).
    pub bench: &'static str,
    /// File stem after `BENCH_` (`conv_gemm`).
    pub name: &'static str,
    /// Versioned schema tag (`hd-bench/conv-gemm/v1`).
    pub schema: &'static str,
}

impl Artifact {
    /// Path of the committed file.
    fn path(&self) -> PathBuf {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
        root.expect("hd-bench sits two levels below the repository root")
            .join(format!("BENCH_{}.json", self.name))
    }

    /// The committed document, parsed.
    pub fn committed(&self) -> Json {
        let path = self.path();
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: cannot read {}: {e}", self.bench, path.display()));
        Json::parse(&text)
            .unwrap_or_else(|e| panic!("{}: {} is not JSON: {e}", self.bench, path.display()))
    }

    /// The stamp followed by `body`, as the document to record.
    fn document(&self, smoke: bool, body: Json) -> Json {
        let Json::Obj(fields) = body else {
            panic!("{}: artifact body must be an object", self.bench)
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut doc = vec![
            ("bench".to_string(), self.bench.into()),
            ("schema".to_string(), self.schema.into()),
            ("host_cores".to_string(), cores.into()),
            ("isa".to_string(), hd_tensor::simd::active_isa().into()),
            ("smoke".to_string(), smoke.into()),
        ];
        doc.extend(fields);
        Json::Obj(doc)
    }

    /// Full run: writes the stamped `body` to the artifact. Smoke run:
    /// panics, naming the bench and the path, unless the stamped `body`
    /// has exactly the committed artifact's key paths.
    pub fn finish(&self, body: Json) {
        let smoke = smoke();
        let doc = self.document(smoke, body);
        let path = self.path();
        if smoke {
            if let Some(diff) = first_key_path_diff(&self.committed(), &doc) {
                panic!(
                    "{}: smoke document differs from {}: {diff}",
                    self.bench,
                    path.display()
                );
            }
            println!("smoke: key paths match {}", path.display());
        } else {
            std::fs::write(&path, doc.write() + "\n")
                .unwrap_or_else(|e| panic!("{}: cannot write {}: {e}", self.bench, path.display()));
            println!("wrote {}", path.display());
        }
    }
}

/// Every key path of `v` in document order, without repeats, array
/// indices collapsed to `[]` (`victims[].sparse.mean_s`).
fn key_paths(v: &Json) -> Vec<String> {
    fn walk(v: &Json, at: &str, out: &mut Vec<String>) {
        let mut visit = |path: String, child: &Json| {
            if !out.contains(&path) {
                out.push(path.clone());
            }
            walk(child, &path, out);
        };
        match v {
            Json::Obj(fields) => {
                for (k, child) in fields {
                    let sep = if at.is_empty() { "" } else { "." };
                    visit(format!("{at}{sep}{k}"), child);
                }
            }
            Json::Arr(items) => items
                .iter()
                .for_each(|child| visit(format!("{at}[]"), child)),
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(v, "", &mut out);
    out
}

/// The first key path that one document has and the other lacks: the
/// committed document's paths are checked first, in its order. `None`
/// when both have the same set.
fn first_key_path_diff(committed: &Json, run: &Json) -> Option<String> {
    let (want, got) = (key_paths(committed), key_paths(run));
    if let Some(p) = want.iter().find(|p| !got.contains(p)) {
        return Some(format!("`{p}` is committed but missing from this run"));
    }
    got.iter()
        .find(|p| !want.contains(p))
        .map(|p| format!("`{p}` is new in this run"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn pairs_alternate_which_arm_runs_first() {
        let order = RefCell::new(String::new());
        let p = pairs(
            4,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        // Warmup (a, b), then pairs 0..4: ab, ba, ab, ba.
        assert_eq!(order.into_inner(), "ababbaabba");
        assert_eq!((p.a.samples.len(), p.b.samples.len()), (4, 4));
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(Samples(vec![3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(Samples(vec![4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert_eq!(Samples(vec![5.0]).median(), 5.0);
    }

    #[test]
    fn ties_count_for_neither_arm() {
        let p = Pairs::from_samples(vec![1.0, 2.0, 3.0, 4.0], vec![2.0, 2.0, 1.0, 4.0]);
        assert_eq!((p.a.wins, p.b.wins), (1, 1));
        assert_eq!((p.a.median, p.b.median), (2.5, 2.0));
    }

    #[test]
    fn key_path_diff_names_the_first_differing_path() {
        let row = |key: &str| {
            Json::obj([
                ("victim", "VGG-S".into()),
                ("sparse", Json::obj([(key, 1.0.into())])),
            ])
        };
        let doc = |key: &str, rows: usize| {
            Json::obj([
                ("bench", "b".into()),
                ("victims", Json::Arr((0..rows).map(|_| row(key)).collect())),
            ])
        };
        // Row counts do not matter: indices collapse to `[]`.
        assert_eq!(
            first_key_path_diff(&doc("mean_s", 2), &doc("mean_s", 1)),
            None
        );
        let diff = first_key_path_diff(&doc("mean_s", 2), &doc("mean_sec", 1)).unwrap();
        assert!(diff.contains("`victims[].sparse.mean_s`"), "{diff}");
        let extra = Json::obj([("bench", "b".into()), ("extra", Json::Null)]);
        let diff = first_key_path_diff(&Json::obj([("bench", "b".into())]), &extra).unwrap();
        assert!(diff.contains("`extra` is new"), "{diff}");
    }
}

//! Golden diagnostics for the hd-lint v2 semantic rule pack: a seeded
//! mini-workspace (in-memory sources, no tempdirs) exercises each of the
//! four concurrency/determinism rules, the suppression path, and the v2
//! summary counters; the full text report and the JSON document are pinned
//! byte-for-byte.
//!
//! Regenerate deliberately with `GOLDEN_REGEN=1 cargo test --test
//! golden_lint_v2` and review the fixture diff like source.

use hd_lint::lint_sources;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_lint_v2.txt"
);

/// The seeded mini-workspace: one file per rule, a transitive-blocking
/// case that needs the call graph, and one suppressed finding.
fn mini_workspace() -> Vec<(String, String)> {
    let files: &[(&str, &str)] = &[
        (
            "crates/core/src/atomics.rs",
            "use std::sync::atomic::{AtomicUsize, Ordering};\n\
             pub fn bump(c: &AtomicUsize) {\n\
            \x20   c.fetch_add(1, Ordering::Relaxed);\n\
             }\n\
             pub fn sanctioned(c: &AtomicUsize) {\n\
            \x20   // hd-lint: allow(atomic-ordering) -- pure event counter, no data published through it\n\
            \x20   c.fetch_add(1, Ordering::Relaxed);\n\
             }\n",
        ),
        (
            "crates/core/src/guards.rs",
            "use std::sync::Mutex;\n\
             pub fn direct(m: &Mutex<u32>, dev: &Dev) {\n\
            \x20   let g = m.lock().unwrap();\n\
            \x20   dev.observe(&[*g]);\n\
             }\n\
             fn leaf(dev: &Dev) {\n\
            \x20   dev.observe(&[]);\n\
             }\n\
             pub fn transitive(m: &Mutex<u32>, dev: &Dev) {\n\
            \x20   let g = m.lock().unwrap();\n\
            \x20   leaf(dev);\n\
            \x20   drop(g);\n\
             }\n",
        ),
        (
            "crates/trace/src/iters.rs",
            "use std::collections::HashMap;\n\
             pub fn dump(m: &HashMap<u32, u32>) {\n\
            \x20   for (k, v) in m.iter() {\n\
            \x20       println!(\"{k} {v}\");\n\
            \x20   }\n\
             }\n",
        ),
        (
            "crates/dnn/src/floats.rs",
            "pub fn total(xs: &[f32]) -> f32 {\n\
            \x20   xs.iter().sum::<f32>()\n\
             }\n",
        ),
    ];
    files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect()
}

/// The full golden text: the human report (with allows), then the JSON.
fn golden_text() -> String {
    let report = lint_sources(&mini_workspace());
    format!(
        "== text ==\n{}== json ==\n{}",
        report.to_text(true),
        report.to_json()
    )
}

#[test]
fn golden_v2_diagnostics_pinned() {
    let got = golden_text();
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(FIXTURE, &got).expect("write v2 lint fixture");
        eprintln!("regenerated {FIXTURE}");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("golden v2 fixture missing; run with GOLDEN_REGEN=1 to create it");
    assert_eq!(
        got, want,
        "v2 lint diagnostics drifted from the golden fixture; if intentional, \
         regenerate with GOLDEN_REGEN=1 and review the diff"
    );
}

#[test]
fn golden_v2_fixture_is_nontrivial() {
    if std::env::var("GOLDEN_REGEN").is_ok() {
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("golden v2 fixture missing; run with GOLDEN_REGEN=1 to create it");
    for needle in [
        "[atomic-ordering]",
        "[lock-discipline]",
        "[unordered-iter]",
        "[float-reduction-order]",
        "crates/core/src/guards.rs:4:",  // direct guard-across-observe
        "crates/core/src/guards.rs:11:", // transitive, via the call graph
        "\"schema\": \"hd-lint/v2\"",
        "\"symbols\":",
        "\"call_edges\":",
        "allow(atomic-ordering) -- pure event counter",
    ] {
        assert!(want.contains(needle), "fixture missing {needle:?}");
    }
}

#[test]
fn lint_json_is_byte_stable_across_runs() {
    let a = lint_sources(&mini_workspace()).to_json();
    let b = lint_sources(&mini_workspace()).to_json();
    assert_eq!(a, b, "same tree must produce byte-identical lint.json");
}

#[test]
fn real_workspace_is_clean_under_the_v2_pack() {
    // The self-audit CI runs with `--deny`: the tree that builds this test
    // must be clean under all five rules, including the semantic pack.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = hd_lint::lint_workspace(root).expect("scan workspace");
    assert!(report.files_scanned > 50, "scan set suspiciously small");
    assert!(report.symbols > 500, "symbol index suspiciously small");
    assert!(report.call_edges > 100, "call graph suspiciously small");
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        report.to_text(false)
    );
}

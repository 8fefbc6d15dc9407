//! End-to-end tests of the `hd-lint` binary: seeded violation fixtures are
//! materialized as throwaway mini-workspaces under the target tmpdir, and
//! the real binary (via `CARGO_BIN_EXE_hd-lint`) must flag each one by
//! file, line, and rule — and exit zero on a clean tree.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Creates a throwaway workspace (Cargo.toml + crates/) with the given
/// `(relative path, contents)` files.
fn mk_ws(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clear stale fixture workspace");
    }
    std::fs::create_dir_all(root.join("crates")).expect("mkdir crates");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write Cargo.toml");
    for (rel, contents) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("fixture paths have parents"))
            .expect("mkdir fixture dir");
        std::fs::write(path, contents).expect("write fixture file");
    }
    root
}

fn run_lint(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hd-lint"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn hd-lint")
}

/// The seeded violation fixtures: one per rule plus the two suppression
/// meta-rules.
fn seeded_workspace() -> PathBuf {
    mk_ws(
        "seeded-violations",
        &[
            (
                "crates/trace/src/casts.rs",
                "pub fn narrow(x: u64) -> usize {\n    x as usize\n}\n",
            ),
            (
                "crates/trace/src/badallow.rs",
                "// hd-lint: allow(lossy-cast)\npub fn f(x: u64) -> usize {\n    x as usize\n}\n// hd-lint: allow(lossy-cast) -- stale suppression\npub fn g() {}\n",
            ),
            (
                "crates/core/src/relaxed.rs",
                "use std::sync::atomic::{AtomicUsize, Ordering};\npub fn bump(c: &AtomicUsize) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n",
            ),
            (
                "crates/core/src/guards.rs",
                "use std::sync::Mutex;\npub fn held(m: &Mutex<u32>, dev: &Dev) {\n    let g = m.lock().unwrap();\n    dev.observe(&[*g]);\n}\n",
            ),
            (
                "crates/core/src/iters.rs",
                "use std::collections::HashMap;\npub fn dump(m: &HashMap<u32, u32>) {\n    for (k, v) in m.iter() {\n        println!(\"{k} {v}\");\n    }\n}\n",
            ),
            (
                "crates/core/src/floats.rs",
                "pub fn total(xs: &[f32]) -> f32 {\n    xs.iter().sum::<f32>()\n}\n",
            ),
        ],
    )
}

#[test]
fn deny_exits_nonzero_and_names_each_seeded_violation() {
    let ws = seeded_workspace();
    let out = run_lint(&ws, &["--workspace", "--deny"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "seeded violations must fail --deny: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Each seeded violation is named by file:line and rule.
    for (site, rule) in [
        ("crates/trace/src/casts.rs:2:", "[lossy-cast]"),
        ("crates/trace/src/badallow.rs:1:", "[bad-allow]"),
        ("crates/trace/src/badallow.rs:5:", "[unused-allow]"),
        ("crates/core/src/relaxed.rs:3:", "[atomic-ordering]"),
        ("crates/core/src/guards.rs:4:", "[lock-discipline]"),
        ("crates/core/src/iters.rs:3:", "[unordered-iter]"),
        ("crates/core/src/floats.rs:2:", "[float-reduction-order]"),
    ] {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(site))
            .unwrap_or_else(|| panic!("no violation reported at {site}\n{stdout}"));
        assert!(line.contains(rule), "wrong rule at {site}: {line}");
    }
}

#[test]
fn clean_tree_exits_zero_under_deny() {
    let ws = mk_ws(
        "clean-tree",
        &[(
            "crates/core/src/lib.rs",
            "pub fn add(a: u64, b: u64) -> u64 {\n    a + b\n}\n",
        )],
    );
    let out = run_lint(&ws, &["--workspace", "--deny"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean tree must pass: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
}

#[test]
fn without_deny_violations_report_but_exit_zero() {
    let ws = mk_ws(
        "seeded-violations-nodeny",
        &[(
            "crates/trace/src/casts.rs",
            "pub fn narrow(x: u64) -> usize {\n    x as usize\n}\n",
        )],
    );
    let out = run_lint(&ws, &["--workspace"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("[lossy-cast]"));
}

#[test]
fn explicit_paths_scan_only_those_files() {
    let ws = mk_ws(
        "paths-mode",
        &[
            (
                "crates/core/src/bad.rs",
                "pub fn f(xs: &[f32]) -> f32 {\n    xs.iter().sum::<f32>()\n}\n",
            ),
            (
                "crates/core/src/alsobad.rs",
                "pub fn g(xs: &[f32]) -> f32 {\n    xs.iter().sum::<f32>()\n}\n",
            ),
        ],
    );
    let out = run_lint(&ws, &["crates/core/src/bad.rs", "--deny"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/core/src/bad.rs:2:"), "{stdout}");
    assert!(!stdout.contains("alsobad"), "{stdout}");
    assert!(stdout.contains("1 file(s) scanned"), "{stdout}");
}

#[test]
fn json_output_is_parseable_with_stable_schema() {
    let ws = mk_ws(
        "json-out",
        &[(
            "crates/core/src/lib.rs",
            "pub fn f(xs: &[f32]) -> f32 {\n    // hd-lint: allow(float-reduction-order) -- fixture justification\n    xs.iter().sum::<f32>()\n}\npub fn g(xs: &[f32]) -> f32 {\n    xs.iter().sum::<f32>()\n}\n",
        )],
    );
    let out = run_lint(&ws, &["--workspace", "-o", "lint.json"]);
    assert_eq!(out.status.code(), Some(0));
    let raw = std::fs::read_to_string(ws.join("lint.json")).expect("lint.json written");
    let v = hd_obs::json::Json::parse(&raw).expect("lint.json parses");
    assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("hd-lint/v2"));
    let summary = v.get("summary").expect("summary");
    assert_eq!(
        summary.get("violations").and_then(|n| n.as_f64()),
        Some(1.0)
    );
    assert_eq!(summary.get("allows").and_then(|n| n.as_f64()), Some(1.0));
    // v2 summary: the symbol index saw both fns; the call graph is present.
    assert_eq!(summary.get("symbols").and_then(|n| n.as_f64()), Some(2.0));
    assert!(summary.get("call_edges").and_then(|n| n.as_f64()).is_some());
    let viols = v
        .get("violations")
        .and_then(|a| a.as_array())
        .expect("violations array");
    assert_eq!(
        viols[0].get("rule").and_then(|s| s.as_str()),
        Some("float-reduction-order")
    );
    assert_eq!(
        viols[0].get("file").and_then(|s| s.as_str()),
        Some("crates/core/src/lib.rs")
    );
    let allows = v.get("allows").and_then(|a| a.as_array()).expect("allows");
    assert_eq!(
        allows[0].get("reason").and_then(|s| s.as_str()),
        Some("fixture justification")
    );
}

#[test]
fn unknown_flag_exits_two() {
    let ws = mk_ws(
        "unknown-flag",
        &[("crates/core/src/lib.rs", "pub fn f() {}\n")],
    );
    let out = run_lint(&ws, &["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn real_workspace_is_lint_clean() {
    // The tree that builds this crate must pass its own linter — the same
    // invariant CI enforces with `hd-lint --workspace --deny`.
    let root = hd_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let report = hd_lint::lint_workspace(&root).expect("scan workspace");
    assert!(report.files_scanned > 50, "scan set suspiciously small");
    assert!(
        report.violations.is_empty(),
        "workspace has lint violations:\n{}",
        report.to_text(false)
    );
    // Every accepted suppression carries a non-empty reason (the rule
    // engine enforces this per-comment; this pins the workspace total).
    assert!(report.allows.iter().all(|a| !a.reason.is_empty()));
}

#[test]
fn models_mode_verifies_zoo_against_presets() {
    let ws = mk_ws(
        "models-mode",
        &[("crates/core/src/lib.rs", "pub fn f() {}\n")],
    );
    let out = run_lint(&ws, &["--models"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "zoo models must verify under preset limits: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("8 model x preset pairs checked"),
        "{stdout}"
    );
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

//! `hd-lint`: self-contained static analysis for the HuffDuff workspace.
//!
//! Three layers:
//!
//! * **Source lint** ([`rules`]) — a hand-rolled Rust lexer ([`lexer`])
//!   plus the one token-sequence rule no native lint covers (`lossy-cast`:
//!   no integer `as`-casts in byte accounting), with
//!   `// hd-lint: allow(rule) -- reason` suppressions reported
//!   exhaustively. The other project invariants (no panics in library
//!   crates, no wall-clock reads outside `hd-obs`, no bare
//!   `thread::spawn`, `unsafe` only in `hd_tensor::simd`, no deprecated
//!   uses) are rustc and clippy lints set in the workspace manifest,
//!   `clippy.toml` and each library's `lib.rs`.
//! * **Semantic analysis** ([`parser`], [`symbols`], [`callgraph`],
//!   [`semantic`]) — a forgiving item parser over the same lexer feeds a
//!   workspace symbol index and intra-crate call graph, powering the
//!   concurrency/determinism rule pack (`atomic-ordering`,
//!   `lock-discipline`, `unordered-iter`, `float-reduction-order`).
//! * **Semantic verifier** — `hd_dnn::verify`, re-driven by the binary's
//!   `--models` mode over the model zoo × accelerator presets.
//!
//! The crate is intentionally dependency-free on the lint path so it can
//! lint the workspace that builds it.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod semantic;
pub mod symbols;

use rules::{lint_unit, Allow, Violation};
use semantic::Workspace;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use symbols::FileUnit;

/// JSON schema identifier emitted by [`Report::to_json`].
pub const JSON_SCHEMA: &str = "hd-lint/v2";

/// Aggregated lint result over a set of files.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Named items the workspace symbol index recovered.
    pub symbols: usize,
    /// Same-crate call edges the call graph resolved.
    pub call_edges: usize,
    /// All violations, ordered by (file, line, rule, col).
    pub violations: Vec<Violation>,
    /// All accepted suppressions, ordered by (file, line).
    pub allows: Vec<Allow>,
}

impl Report {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable report; `show_allows` appends the allowlist section.
    pub fn to_text(&self, show_allows: bool) -> String {
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "{v}");
        }
        if show_allows && !self.allows.is_empty() {
            let _ = writeln!(out, "accepted suppressions ({}):", self.allows.len());
            for a in &self.allows {
                let _ = writeln!(out, "  {a}");
            }
        }
        let _ = writeln!(
            out,
            "hd-lint: {} file(s) scanned, {} violation(s), {} allow(s)",
            self.files_scanned,
            self.violations.len(),
            self.allows.len()
        );
        out
    }

    /// Stable-schema JSON (`hd-lint/v2`), parseable by `hd_obs::json`.
    /// Byte-stable for a given tree: inputs are sorted and the violation
    /// order is pinned to (file, line, rule, col).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(JSON_SCHEMA));
        let _ = writeln!(
            out,
            "  \"summary\": {{\"files_scanned\": {}, \"symbols\": {}, \"call_edges\": {}, \"violations\": {}, \"allows\": {}}},",
            self.files_scanned,
            self.symbols,
            self.call_edges,
            self.violations.len(),
            self.allows.len()
        );
        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&v.file),
                v.line,
                v.col,
                json_str(v.rule),
                json_str(&v.message)
            );
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"allows\": [");
        for (i, a) in self.allows.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}}}",
                json_str(&a.file),
                a.line,
                json_str(&a.rule),
                json_str(&a.reason)
            );
        }
        if !self.allows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
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

/// Collects the workspace `.rs` scan set under `root`, skipping vendored
/// code, build output, and test/bench/fixture trees. Paths come back
/// workspace-relative with `/` separators, sorted for determinism.
pub fn scan_set(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "vendor" | "target" | ".git" | "tests" | "benches" | "fixtures"
            ) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

fn rel_str(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lints every file in the workspace scan set rooted at `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let files = scan_set(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        sources.push((rel_str(rel), src));
    }
    Ok(lint_sources(&sources))
}

/// Lints specific files (workspace-relative paths under `root`); the
/// semantic pack sees just those files.
pub fn lint_paths(root: &Path, rels: &[PathBuf]) -> std::io::Result<Report> {
    let mut sources = Vec::with_capacity(rels.len());
    for rel in rels {
        let src = std::fs::read_to_string(root.join(rel))?;
        sources.push((rel_str(rel), src));
    }
    Ok(lint_sources(&sources))
}

/// Builds just the workspace symbol index for the scan set rooted at
/// `root` (the binary's `--symbols` mode).
pub fn symbol_index(root: &Path) -> std::io::Result<symbols::SymbolIndex> {
    let files = scan_set(root)?;
    let mut units = Vec::with_capacity(files.len());
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        units.push(FileUnit::analyze(&rel_str(rel), &src));
    }
    Ok(symbols::SymbolIndex::build(&units))
}

/// Core driver over in-memory `(rel_path, source)` pairs: every file is
/// lexed and parsed once into a [`FileUnit`]; pass 1 builds the workspace
/// analysis (symbol index, call graph, crate-wide lock order); pass 2 runs
/// the token + semantic rule engine per file.
pub fn lint_sources(sources: &[(String, String)]) -> Report {
    let units: Vec<FileUnit> = sources
        .iter()
        .map(|(rel, src)| FileUnit::analyze(rel, src))
        .collect();
    let ws = Workspace::build(&units);
    let mut report = Report {
        files_scanned: sources.len(),
        symbols: ws.symbols.len(),
        call_edges: ws.calls.len(),
        ..Report::default()
    };
    for unit in &units {
        let fr = lint_unit(unit, &ws);
        report.violations.extend(fr.violations);
        report.allows.extend(fr.allows);
    }
    // Pinned diagnostic order: path, then line, then rule, then column —
    // `lint.json` must be byte-stable across runs and platforms.
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule, a.col).cmp(&(&b.file, b.line, b.rule, b.col)));
    report
        .allows
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report
}

/// Locates the workspace root: walks up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let sources = vec![
            (
                "crates/dnn/src/a.rs".to_string(),
                "fn f(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }\nfn ok() {} // hd-lint: allow(float-reduction-order) -- unused here\n".to_string(),
            ),
            (
                "crates/trace/src/b.rs".to_string(),
                "fn g(x: u64) -> usize {\n    // hd-lint: allow(lossy-cast) -- bounded by GLB size \"64KB\"\n    x as usize\n}\n".to_string(),
            ),
        ];
        lint_sources(&sources)
    }

    #[test]
    fn cross_file_report_is_sorted_and_counts_match() {
        let r = sample_report();
        assert_eq!(r.files_scanned, 2);
        let rules: Vec<_> = r.violations.iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec!["float-reduction-order", "unused-allow"]);
        assert_eq!(r.allows.len(), 1);
        assert_eq!(r.allows[0].rule, "lossy-cast");
    }

    #[test]
    fn json_is_parseable_and_schema_stable() {
        let r = sample_report();
        let json = r.to_json();
        let v = hd_obs::json::Json::parse(&json).expect("hd-lint JSON must parse");
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(JSON_SCHEMA));
        let summary = v.get("summary").expect("summary object");
        assert_eq!(
            summary.get("files_scanned").and_then(|n| n.as_f64()),
            Some(2.0)
        );
        assert_eq!(
            summary.get("violations").and_then(|n| n.as_f64()),
            Some(2.0)
        );
        assert_eq!(summary.get("allows").and_then(|n| n.as_f64()), Some(1.0));
        let viols = v
            .get("violations")
            .and_then(|a| a.as_array())
            .expect("violations array");
        assert_eq!(viols.len(), 2);
        assert_eq!(
            viols[0].get("rule").and_then(|s| s.as_str()),
            Some("float-reduction-order")
        );
        // The embedded quote in the allow reason must round-trip.
        let allows = v
            .get("allows")
            .and_then(|a| a.as_array())
            .expect("allows array");
        assert_eq!(
            allows[0].get("reason").and_then(|s| s.as_str()),
            Some("bounded by GLB size \"64KB\"")
        );
    }

    #[test]
    fn empty_report_json_has_empty_arrays() {
        let json = Report::default().to_json();
        let v = hd_obs::json::Json::parse(&json).expect("parses");
        assert_eq!(
            v.get("violations")
                .and_then(|a| a.as_array())
                .map(<[_]>::len),
            Some(0)
        );
        assert_eq!(
            v.get("allows").and_then(|a| a.as_array()).map(<[_]>::len),
            Some(0)
        );
    }

    #[test]
    fn text_report_names_file_line_rule() {
        let r = sample_report();
        let text = r.to_text(true);
        assert!(text.contains("crates/dnn/src/a.rs:1:"), "{text}");
        assert!(text.contains("[float-reduction-order]"), "{text}");
        assert!(text.contains("accepted suppressions (1):"), "{text}");
        assert!(text.contains("2 violation(s)"), "{text}");
    }

    #[test]
    fn finds_workspace_root_from_nested_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates/lint/Cargo.toml").is_file());
    }
}

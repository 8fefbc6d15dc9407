//! The rule engine: the `lossy-cast` token lint over each workspace source
//! file, merged with the semantic pack's findings, plus the
//! `// hd-lint: allow(rule) -- reason` suppression syntax and its
//! exhaustive allowlist report.
//!
//! | rule | scope | what it rejects |
//! |------|-------|-----------------|
//! | `lossy-cast` | trace/byte-accounting files | `as`-casts to integer types (use `hd_tensor::cast`) |
//! | `bad-allow` | everywhere scanned | malformed `hd-lint:` comments (unknown rule, missing reason) |
//! | `unused-allow` | everywhere scanned | an allow that suppresses nothing |
//!
//! The other project invariants are native lints: `clippy::{unwrap_used,
//! expect_used, panic}` in every library crate's `lib.rs`, the wall-clock
//! and bare-thread bans in `clippy.toml`, rustc's `unsafe_code` and
//! `deprecated`, and `#[expect(lint, reason = "…")]` for their
//! suppressions. `lossy-cast` stays here because no clippy lint matches
//! it: `usize as u64` passes every `cast_*` lint, and `as_conversions`
//! would also flag the float casts this rule allows.
//!
//! Suppression: `// hd-lint: allow(<rule>) -- <reason>` on the offending
//! line, or alone on the line above it. The reason string is mandatory and
//! every accepted allow lands in the [`Report`]'s allowlist.

use crate::lexer::{Comment, Token, TokenKind};
use std::collections::BTreeSet;
use std::fmt;

/// All enforceable rule names (the two meta-rules `bad-allow` and
/// `unused-allow` guard the suppression syntax itself and cannot be
/// suppressed). The last four are the semantic concurrency/determinism
/// pack, implemented in [`crate::semantic`] on top of the item parser,
/// symbol index, and call graph.
pub const RULES: [&str; 5] = [
    "lossy-cast",
    "atomic-ordering",
    "lock-discipline",
    "unordered-iter",
    "float-reduction-order",
];

/// Crates whose outputs feed traces, observations, exports, or reductions:
/// the `unordered-iter` enforcement surface.
pub const UNORDERED_SURFACE: [&str; 6] = [
    "crates/core/src/",
    "crates/trace/src/",
    "crates/accel/src/",
    "crates/obs/src/",
    "crates/dnn/src/",
    "crates/tensor/src/",
];

/// The sanctioned float-accumulation sites: the kernels whose documented
/// index order *is* the reference reduction order every backend must match.
pub const FLOAT_SANCTUARIES: [&str; 3] = [
    "crates/tensor/src/gemm",
    "crates/tensor/src/csc_conv",
    "crates/tensor/src/simd/",
];

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// 1-indexed column.
    pub col: u32,
    /// Rule name (one of [`RULES`], `bad-allow`, or `unused-allow`).
    pub rule: &'static str,
    /// Human explanation with the offending construct.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// One accepted suppression, for the exhaustive allowlist report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allow {
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line of the `hd-lint:` comment.
    pub line: u32,
    /// The suppressed rule.
    pub rule: String,
    /// The mandatory justification string.
    pub reason: String,
}

impl fmt::Display for Allow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: allow({}) -- {}",
            self.file, self.line, self.rule, self.reason
        )
    }
}

/// Lint result of one file.
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    /// Violations, in source order.
    pub violations: Vec<Violation>,
    /// Accepted allows (used ones), in source order.
    pub allows: Vec<Allow>,
}

/// Lints one file's source against every in-scope rule.
///
/// `rel_path` is the workspace-relative path (with `/` separators) that
/// rule scoping keys on.
///
/// Single-file convenience wrapper over [`lint_unit`]: the semantic rules
/// see a one-file workspace, so cross-file facts (struct fields from other
/// files, crate-wide lock order) are limited to this file's declarations.
pub fn lint_source(rel_path: &str, source: &str) -> FileReport {
    let unit = crate::symbols::FileUnit::analyze(rel_path, source);
    let ws = crate::semantic::Workspace::build(std::slice::from_ref(&unit));
    lint_unit(&unit, &ws)
}

/// Lints one pre-analyzed file: the `lossy-cast` token rule, the semantic
/// pack from `ws`, then the suppression pass over the merged findings (so
/// `hd-lint: allow` works identically for both rule families).
pub fn lint_unit(unit: &crate::symbols::FileUnit, ws: &crate::semantic::Workspace) -> FileReport {
    let rel_path = unit.rel.as_str();
    let lexed = &unit.lexed;
    let t = &lexed.tokens;
    let excluded = test_regions(t);
    let mut raw: Vec<Violation> = Vec::new();

    let vio = |line: u32, col: u32, rule: &'static str, message: String| Violation {
        file: rel_path.to_string(),
        line,
        col,
        rule,
        message,
    };

    // --- The token-sequence rule. ---
    if rule_in_scope("lossy-cast", rel_path) {
        for i in 0..t.len() {
            if text(t, i) == "as"
                && t.get(i + 1).map(|n| n.kind) == Some(TokenKind::Ident)
                && is_int_type(text(t, i + 1))
                && !excluded.iter().any(|r| r.contains(&t[i].line))
            {
                raw.push(vio(
                    t[i].line,
                    t[i].col,
                    "lossy-cast",
                    format!(
                        "`as {}` in byte-accounting code; use hd_tensor::cast or From/try_from",
                        text(t, i + 1)
                    ),
                ));
            }
        }
    }

    // --- Semantic rules (the concurrency/determinism pack). ---
    raw.extend(ws.check_file(unit, &excluded));

    // --- Suppression comments. ---
    let token_lines: BTreeSet<u32> = t.iter().map(|t| t.line).collect();
    let mut allows: Vec<(Allow, u32, bool)> = Vec::new(); // (allow, target line, used)
    for c in &lexed.comments {
        match parse_allow(c) {
            AllowParse::NotAnAllow => {}
            AllowParse::Malformed(msg) => raw.push(vio(c.line, 1, "bad-allow", msg)),
            AllowParse::Allow { rule, reason } => {
                // Applies to its own line when the comment trails code,
                // otherwise to the next line that holds any code token.
                let target = if token_lines.contains(&c.line) {
                    c.line
                } else {
                    token_lines
                        .range(c.line + 1..)
                        .next()
                        .copied()
                        .unwrap_or(c.line)
                };
                allows.push((
                    Allow {
                        file: rel_path.to_string(),
                        line: c.line,
                        rule,
                        reason,
                    },
                    target,
                    false,
                ));
            }
        }
    }

    // --- Apply suppressions. ---
    let mut violations = Vec::new();
    for v in raw {
        let mut suppressed = false;
        for (a, target, used) in allows.iter_mut() {
            if a.rule == v.rule && *target == v.line {
                *used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            violations.push(v);
        }
    }
    let mut report = FileReport::default();
    for (a, _, used) in allows {
        if used {
            report.allows.push(a);
        } else {
            violations.push(Violation {
                file: a.file,
                line: a.line,
                col: 1,
                rule: "unused-allow",
                message: format!("allow({}) suppresses nothing; remove it", a.rule),
            });
        }
    }
    violations.sort_by_key(|v| (v.line, v.col));
    report.violations = violations;
    report
}

enum AllowParse {
    NotAnAllow,
    Malformed(String),
    Allow { rule: String, reason: String },
}

/// Parses `hd-lint: allow(<rule>) -- <reason>` comments. Anything starting
/// with `hd-lint:` that does not match exactly is a `bad-allow` violation,
/// so typos fail loudly instead of silently not suppressing.
fn parse_allow(c: &Comment) -> AllowParse {
    let Some(body) = c.text.strip_prefix("hd-lint:") else {
        return AllowParse::NotAnAllow;
    };
    let body = body.trim();
    let Some(rest) = body.strip_prefix("allow(") else {
        return AllowParse::Malformed(format!(
            "unrecognized hd-lint directive `{body}`; expected `allow(<rule>) -- <reason>`"
        ));
    };
    let Some(close) = rest.find(')') else {
        return AllowParse::Malformed("allow( without closing parenthesis".to_string());
    };
    let rule = rest[..close].trim();
    if !RULES.contains(&rule) {
        return AllowParse::Malformed(format!(
            "allow({rule}) names an unknown rule; known rules: {}",
            RULES.join(", ")
        ));
    }
    let tail = rest[close + 1..].trim();
    let Some(reason) = tail.strip_prefix("--") else {
        return AllowParse::Malformed(
            "allow() without a reason; append `-- <why this is sound>`".to_string(),
        );
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return AllowParse::Malformed(
            "allow() with an empty reason; justify the suppression".to_string(),
        );
    }
    AllowParse::Allow {
        rule: rule.to_string(),
        reason: reason.to_string(),
    }
}

fn text(t: &[Token], i: usize) -> &str {
    t.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

fn is_int_type(s: &str) -> bool {
    matches!(
        s,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
    )
}

/// Line ranges (inclusive) covered by `#[cfg(test)]` / `#[test]` items.
pub(crate) fn test_regions(t: &[Token]) -> Vec<std::ops::RangeInclusive<u32>> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i + 1 < t.len() {
        if text(t, i) == "#" && text(t, i + 1) == "[" {
            let end_attr = skip_attr(t, i);
            if is_test_attr(t, i + 2, end_attr) {
                let start_line = t[i].line;
                let end = item_end(t, end_attr);
                let end_line = t
                    .get(end.saturating_sub(1))
                    .map(|t| t.line)
                    .unwrap_or(start_line);
                regions.push(start_line..=end_line);
                i = end;
                continue;
            }
            i = end_attr;
        } else {
            i += 1;
        }
    }
    regions
}

/// Does the attribute body starting at `from` (just past `#[`) mark a test
/// item — `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ...))]`, `#[should_panic]`?
fn is_test_attr(t: &[Token], from: usize, end: usize) -> bool {
    match text(t, from) {
        "test" | "should_panic" => true,
        "cfg" => (from..end).any(|j| text(t, j) == "test"),
        _ => false,
    }
}

/// Index just past the `]` closing the attribute opening at `i` (`#`).
fn skip_attr(t: &[Token], i: usize) -> usize {
    let mut j = i + 2; // past `#` `[`
    let mut depth = 1i32;
    while j < t.len() && depth > 0 {
        match text(t, j) {
            "[" => depth += 1,
            "]" => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Index just past the item that starts at `i` (further attributes, then
/// either a `;`-terminated declaration or a braced body).
fn item_end(t: &[Token], mut i: usize) -> usize {
    // Skip stacked attributes.
    while text(t, i) == "#" && text(t, i + 1) == "[" {
        i = skip_attr(t, i);
    }
    let mut depth = 0i32;
    while i < t.len() {
        match text(t, i) {
            "{" => {
                // Consume the balanced body; the item ends with it.
                let mut bd = 1i32;
                i += 1;
                while i < t.len() && bd > 0 {
                    match text(t, i) {
                        "{" => bd += 1,
                        "}" => bd -= 1,
                        _ => {}
                    }
                    i += 1;
                }
                return i;
            }
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Is `rule` enforced on the file at workspace-relative `rel` path?
///
/// * Binaries (`main.rs`, `src/bin/`), `examples/`, and the `crates/bench`
///   harness are exempt from the library-code rules.
/// * `lossy-cast` is scoped to the trace/byte-accounting surface where a
///   truncation silently corrupts measurements.
pub fn rule_in_scope(rule: &str, rel: &str) -> bool {
    let library = is_library_source(rel);
    match rule {
        "lossy-cast" => {
            rel.starts_with("crates/trace/src/")
                || rel.starts_with("crates/accel/src/")
                || rel == "crates/tensor/src/sparse.rs"
                || rel == "crates/tensor/src/cast.rs"
        }
        // --- the semantic concurrency/determinism pack ---
        "atomic-ordering" | "lock-discipline" => library,
        "unordered-iter" => library && UNORDERED_SURFACE.iter().any(|p| rel.starts_with(p)),
        "float-reduction-order" => library && !FLOAT_SANCTUARIES.iter().any(|p| rel.starts_with(p)),
        _ => false,
    }
}

/// Library-crate source files: every `crates/*/src/` tree except the bench
/// harness, plus the root crate's `src/` — minus binary entry points.
fn is_library_source(rel: &str) -> bool {
    if rel.ends_with("/main.rs") || rel.contains("/bin/") {
        return false;
    }
    if rel.starts_with("crates/bench/")
        || rel.starts_with("examples/")
        || rel.starts_with("vendor/")
    {
        return false;
    }
    (rel.starts_with("crates/") && rel.contains("/src/")) || rel.starts_with("src/")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A byte-accounting file, where `lossy-cast` is in scope.
    fn lint_acct(src: &str) -> FileReport {
        lint_source("crates/trace/src/fake.rs", src)
    }

    fn rules_hit(r: &FileReport) -> Vec<&'static str> {
        r.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = 7u64 as usize; }\n}";
        let r = lint_acct(src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn binaries_and_examples_are_exempt_from_library_rules() {
        let src = "fn main() { let _ = [1.0f32].iter().sum::<f32>(); }";
        assert_eq!(
            rules_hit(&lint_source("crates/dnn/src/lib.rs", src)),
            vec!["float-reduction-order"]
        );
        for path in [
            "examples/steal_vgg.rs",
            "src/bin/huffduff.rs",
            "crates/lint/src/main.rs",
            "crates/bench/src/lib.rs",
        ] {
            let r = lint_source(path, src);
            assert!(r.violations.is_empty(), "{path}: {:?}", r.violations);
        }
    }

    #[test]
    fn lossy_cast_scoped_to_accounting_files() {
        let src = "fn f(x: u64) -> usize { x as usize }";
        let r = lint_source("crates/trace/src/lib.rs", src);
        assert_eq!(rules_hit(&r), vec!["lossy-cast"]);
        // Same code elsewhere is fine (e.g. tensor indexing math).
        assert!(lint_source("crates/dnn/src/graph.rs", src)
            .violations
            .is_empty());
        // Casting *to* floats is never an integer-width hazard.
        let float = lint_source(
            "crates/trace/src/lib.rs",
            "fn f(x: u64) -> f64 { x as f64 }",
        );
        assert!(float.violations.is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_reported() {
        let src = "fn f(x: u64) -> usize {\n    // hd-lint: allow(lossy-cast) -- bounded by the GLB size\n    x as usize\n}";
        let r = lint_acct(src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.allows.len(), 1);
        assert_eq!(r.allows[0].rule, "lossy-cast");
        assert_eq!(r.allows[0].reason, "bounded by the GLB size");
    }

    #[test]
    fn trailing_allow_applies_to_its_own_line() {
        let src = "fn f(x: u64) -> usize { x as usize } // hd-lint: allow(lossy-cast) -- fits by construction";
        let r = lint_acct(src);
        assert!(r.violations.is_empty());
        assert_eq!(r.allows.len(), 1);
    }

    #[test]
    fn malformed_allow_is_a_violation() {
        for (src, needle) in [
            (
                "// hd-lint: allow(no-such-rule) -- x\nfn f() {}",
                "unknown rule",
            ),
            // Rules that moved to native lints are unknown here too.
            (
                "// hd-lint: allow(no-panic) -- x\nfn f() { None::<u8>.unwrap(); }",
                "unknown rule",
            ),
            (
                "// hd-lint: allow(lossy-cast)\nfn f(x: u64) -> usize { x as usize }",
                "without a reason",
            ),
            (
                "// hd-lint: deny(lossy-cast) -- x\nfn f() {}",
                "unrecognized",
            ),
        ] {
            let r = lint_acct(src);
            assert!(
                r.violations
                    .iter()
                    .any(|v| v.rule == "bad-allow" && v.message.contains(needle)),
                "{src}: {:?}",
                r.violations
            );
        }
    }

    #[test]
    fn unused_allow_is_a_violation() {
        let r = lint_acct("// hd-lint: allow(lossy-cast) -- stale\nfn f() {}");
        assert_eq!(rules_hit(&r), vec!["unused-allow"]);
        assert!(r.allows.is_empty());
    }

    #[test]
    fn strings_and_comments_never_trigger_rules() {
        let r = lint_acct("fn f() { let s = \"x as usize\"; } // y as u32");
        assert!(r.violations.is_empty());
    }

    #[test]
    fn violation_display_names_file_line_and_rule() {
        let r = lint_acct("fn f(x: u64) -> usize { x as usize }");
        let line = r.violations[0].to_string();
        assert!(line.starts_with("crates/trace/src/fake.rs:1:"), "{line}");
        assert!(line.contains("[lossy-cast]"), "{line}");
    }
}

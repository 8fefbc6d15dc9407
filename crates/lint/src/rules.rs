//! The rule engine: project-invariant lints over the token stream of each
//! workspace source file, plus the `// hd-lint: allow(rule) -- reason`
//! suppression syntax and its exhaustive allowlist report.
//!
//! | rule | scope | what it rejects |
//! |------|-------|-----------------|
//! | `no-panic` | library crate sources | `.unwrap()`, `.expect(...)`, `panic!` outside `#[cfg(test)]` |
//! | `no-wallclock` | library crates except `hd-obs` | `Instant::now`, `SystemTime` (nondeterminism sources) |
//! | `no-bare-spawn` | everywhere scanned | `thread::spawn` (use `std::thread::scope`, e.g. through `hd_pool::try_map`) |
//! | `lossy-cast` | trace/byte-accounting files | `as`-casts to integer types (use `hd_tensor::cast`) |
//! | `no-unsafe` | everywhere but `crates/tensor/src/simd/` | the `unsafe` keyword; inside the SIMD sanctuary it instead demands a nearby `SAFETY:` comment |
//! | `no-deprecated` | everywhere scanned | uses of items the workspace marks `#[deprecated]` |
//! | `bad-allow` | everywhere scanned | malformed `hd-lint:` comments (unknown rule, missing reason) |
//! | `unused-allow` | everywhere scanned | an allow that suppresses nothing |
//!
//! Suppression: `// hd-lint: allow(<rule>) -- <reason>` on the offending
//! line, or alone on the line above it. The reason string is mandatory and
//! every accepted allow lands in the [`Report`]'s allowlist.

use crate::lexer::{lex, Comment, Token, TokenKind};
use std::collections::BTreeSet;
use std::fmt;

/// All enforceable rule names (the two meta-rules `bad-allow` and
/// `unused-allow` guard the suppression syntax itself and cannot be
/// suppressed). The last four are the semantic concurrency/determinism
/// pack, implemented in [`crate::semantic`] on top of the item parser,
/// symbol index, and call graph.
pub const RULES: [&str; 10] = [
    "no-panic",
    "no-wallclock",
    "no-bare-spawn",
    "lossy-cast",
    "no-unsafe",
    "no-deprecated",
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

/// The one directory where `unsafe` is sanctioned: the SIMD kernels,
/// whose raw-pointer loads/stores cannot be expressed in safe Rust.
pub const UNSAFE_SANCTUARY: &str = "crates/tensor/src/simd/";

/// How many lines above an `unsafe` token the sanctuary check searches
/// for a `SAFETY:` (or `# Safety` doc-section) comment.
const SAFETY_COMMENT_WINDOW: u32 = 8;

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

/// Names declared `#[deprecated]` anywhere in the scanned set.
#[derive(Clone, Debug, Default)]
pub struct DeprecatedIndex {
    /// Deprecated item names, with the file that declares them (the
    /// declaring file is exempt from the usage lint for that name).
    pub names: Vec<(String, String)>,
}

/// Collects `#[deprecated]` declarations from `source` (pass 1 of the
/// `no-deprecated` rule).
pub fn collect_deprecated(rel_path: &str, source: &str) -> DeprecatedIndex {
    let lexed = lex(source);
    let t = &lexed.tokens;
    let mut idx = DeprecatedIndex::default();
    let mut i = 0usize;
    while i + 2 < t.len() {
        if text(t, i) == "#" && text(t, i + 1) == "[" && text(t, i + 2) == "deprecated" {
            let after_attr = skip_attr(t, i);
            if let Some(name) = declared_name(t, after_attr) {
                idx.names.push((name, rel_path.to_string()));
            }
            i = after_attr;
        } else {
            i += 1;
        }
    }
    idx
}

/// Lints one file's source against every in-scope rule.
///
/// `rel_path` is the workspace-relative path (with `/` separators) that
/// rule scoping keys on; `deprecated` is the workspace-wide declaration
/// index from [`collect_deprecated`] (pass an empty index to check a file
/// in isolation plus its own declarations).
///
/// Single-file convenience wrapper over [`lint_unit`]: the semantic rules
/// see a one-file workspace, so cross-file facts (struct fields from other
/// files, crate-wide lock order) are limited to this file's declarations.
pub fn lint_source(rel_path: &str, source: &str, deprecated: &DeprecatedIndex) -> FileReport {
    let unit = crate::symbols::FileUnit::analyze(rel_path, source);
    let ws = crate::semantic::Workspace::build(std::slice::from_ref(&unit));
    lint_unit(&unit, deprecated, &ws)
}

/// Lints one pre-analyzed file: the token-sequence rules, the semantic
/// pack from `ws`, then the suppression pass over the merged findings (so
/// `hd-lint: allow` works identically for both rule families).
pub fn lint_unit(
    unit: &crate::symbols::FileUnit,
    deprecated: &DeprecatedIndex,
    ws: &crate::semantic::Workspace,
) -> FileReport {
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

    // --- Token-sequence rules. ---
    for i in 0..t.len() {
        let in_tests = excluded.iter().any(|r| r.contains(&t[i].line));
        if in_tests {
            continue;
        }
        if rule_in_scope("no-panic", rel_path) {
            if text(t, i) == "."
                && matches!(text(t, i + 1), "unwrap" | "expect")
                && text(t, i + 2) == "("
            {
                let tok = &t[i + 1];
                raw.push(vio(
                    tok.line,
                    tok.col,
                    "no-panic",
                    format!(
                        ".{}() in library code; return a typed error or document an allow",
                        tok.text
                    ),
                ));
            }
            if text(t, i) == "panic" && text(t, i + 1) == "!" {
                raw.push(vio(
                    t[i].line,
                    t[i].col,
                    "no-panic",
                    "panic! in library code; return a typed error or document an allow".to_string(),
                ));
            }
        }
        if rule_in_scope("no-wallclock", rel_path) {
            if text(t, i) == "Instant"
                && text(t, i + 1) == ":"
                && text(t, i + 2) == ":"
                && text(t, i + 3) == "now"
            {
                raw.push(vio(
                    t[i].line,
                    t[i].col,
                    "no-wallclock",
                    "Instant::now() outside hd-obs; use hd_obs::monotonic_us()".to_string(),
                ));
            }
            if text(t, i) == "SystemTime" {
                raw.push(vio(
                    t[i].line,
                    t[i].col,
                    "no-wallclock",
                    "SystemTime outside hd-obs; wall-clock reads break determinism".to_string(),
                ));
            }
        }
        if rule_in_scope("no-bare-spawn", rel_path)
            && text(t, i) == "thread"
            && text(t, i + 1) == ":"
            && text(t, i + 2) == ":"
            && text(t, i + 3) == "spawn"
        {
            raw.push(vio(
                t[i].line,
                t[i].col,
                "no-bare-spawn",
                "bare thread::spawn; use std::thread::scope (e.g. hd_pool::try_map)".to_string(),
            ));
        }
        if rule_in_scope("lossy-cast", rel_path)
            && text(t, i) == "as"
            && t.get(i + 1).map(|n| n.kind) == Some(TokenKind::Ident)
            && is_int_type(text(t, i + 1))
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
        if text(t, i) == "unsafe" {
            if rule_in_scope("no-unsafe", rel_path) {
                raw.push(vio(
                    t[i].line,
                    t[i].col,
                    "no-unsafe",
                    format!(
                        "`unsafe` outside {UNSAFE_SANCTUARY}; move the kernel there or document an allow"
                    ),
                ));
            } else if rel_path.starts_with(UNSAFE_SANCTUARY)
                && !has_safety_comment(&lexed.comments, t[i].line)
            {
                raw.push(vio(
                    t[i].line,
                    t[i].col,
                    "no-unsafe",
                    format!(
                        "`unsafe` in the SIMD sanctuary without a `SAFETY:` comment within \
                         {SAFETY_COMMENT_WINDOW} lines above"
                    ),
                ));
            }
        }
        if rule_in_scope("no-deprecated", rel_path) && t[i].kind == TokenKind::Ident {
            for (name, decl_file) in &deprecated.names {
                if t[i].text == *name && decl_file != rel_path {
                    raw.push(vio(
                        t[i].line,
                        t[i].col,
                        "no-deprecated",
                        format!("use of deprecated item `{name}` (declared in {decl_file})"),
                    ));
                }
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

/// Is there a `SAFETY:` comment (or a `# Safety` doc section line) on
/// `line` or within [`SAFETY_COMMENT_WINDOW`] lines above it?
fn has_safety_comment(comments: &[Comment], line: u32) -> bool {
    let lo = line.saturating_sub(SAFETY_COMMENT_WINDOW);
    comments.iter().any(|c| {
        (lo..=line).contains(&c.line)
            && (c.text.starts_with("SAFETY:") || c.text.starts_with("# Safety"))
    })
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

/// The name an attribute at `after_attr` declares: handles `fn`/`struct`/
/// `enum`/`mod`/`trait`/`type`/`const`/`static` items and `pub use path as
/// NAME;` re-exports.
fn declared_name(t: &[Token], after_attr: usize) -> Option<String> {
    let mut i = after_attr;
    while text(t, i) == "#" && text(t, i + 1) == "[" {
        i = skip_attr(t, i);
    }
    let stop = item_end(t, after_attr).min(i + 64);
    let mut saw_use = false;
    let mut last_as: Option<usize> = None;
    let mut last_ident: Option<usize> = None;
    for j in i..stop {
        match text(t, j) {
            "use" => saw_use = true,
            "as" => last_as = Some(j),
            "fn" | "struct" | "enum" | "mod" | "trait" | "type" | "const" | "static"
                if !saw_use =>
            {
                return t.get(j + 1).map(|n| n.text.clone());
            }
            ";" => break,
            _ => {
                if t.get(j).map(|t| t.kind) == Some(TokenKind::Ident) {
                    last_ident = Some(j);
                }
            }
        }
    }
    if saw_use {
        let at = last_as.map(|j| j + 1).or(last_ident)?;
        return t.get(at).map(|n| n.text.clone());
    }
    None
}

/// Is `rule` enforced on the file at workspace-relative `rel` path?
///
/// * Binaries (`main.rs`, `src/bin/`), `examples/`, and the `crates/bench`
///   harness are exempt from the library-code rules.
/// * `crates/obs` is the one crate allowed to read the wall clock.
/// * `lossy-cast` is scoped to the trace/byte-accounting surface where a
///   truncation silently corrupts measurements.
pub fn rule_in_scope(rule: &str, rel: &str) -> bool {
    let library = is_library_source(rel);
    match rule {
        "no-panic" => library,
        "no-wallclock" => library && !rel.starts_with("crates/obs/"),
        "no-bare-spawn" => true,
        "lossy-cast" => {
            rel.starts_with("crates/trace/src/")
                || rel.starts_with("crates/accel/src/")
                || rel == "crates/tensor/src/sparse.rs"
                || rel == "crates/tensor/src/cast.rs"
        }
        // The SIMD kernels are the one sanctioned `unsafe` site; there the
        // rule mutates into a SAFETY-comment obligation (see `lint_source`).
        "no-unsafe" => !rel.starts_with(UNSAFE_SANCTUARY),
        "no-deprecated" => true,
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

    fn lint_lib(src: &str) -> FileReport {
        let dep = collect_deprecated("crates/dnn/src/fake.rs", src);
        lint_source("crates/dnn/src/fake.rs", src, &dep)
    }

    fn rules_hit(r: &FileReport) -> Vec<&'static str> {
        r.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn unwrap_expect_panic_flagged_in_library_code() {
        let r = lint_lib("fn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g() { panic!(\"no\") }\nfn h(x: Option<u8>) { x.expect(\"y\"); }");
        assert_eq!(rules_hit(&r), vec!["no-panic", "no-panic", "no-panic"]);
        assert_eq!(r.violations[0].line, 1);
        assert_eq!(r.violations[1].line, 2);
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); panic!(); }\n}";
        let r = lint_lib(src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn binaries_and_examples_are_exempt_from_no_panic() {
        let dep = DeprecatedIndex::default();
        for path in [
            "examples/steal_vgg.rs",
            "src/bin/huffduff.rs",
            "crates/lint/src/main.rs",
            "crates/bench/src/lib.rs",
        ] {
            let r = lint_source(path, "fn main() { None::<u8>.unwrap(); }", &dep);
            assert!(r.violations.is_empty(), "{path}: {:?}", r.violations);
        }
    }

    #[test]
    fn wallclock_flagged_outside_obs_only() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let dep = DeprecatedIndex::default();
        assert_eq!(
            rules_hit(&lint_source("crates/core/src/x.rs", src, &dep)),
            vec!["no-wallclock"]
        );
        assert!(lint_source("crates/obs/src/registry.rs", src, &dep)
            .violations
            .is_empty());
    }

    #[test]
    fn bare_spawn_flagged_everywhere() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        let dep = DeprecatedIndex::default();
        for path in ["examples/x.rs", "crates/pool/src/lib.rs"] {
            let r = lint_source(path, src, &dep);
            assert_eq!(rules_hit(&r), vec!["no-bare-spawn"], "{path}");
        }
        // A scoped spawn is not a bare one.
        let scoped = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        assert!(lint_source("crates/pool/src/lib.rs", scoped, &dep)
            .violations
            .is_empty());
    }

    #[test]
    fn unsafe_flagged_everywhere_but_the_simd_sanctuary() {
        let src = "fn f(p: *const f32) -> f32 { unsafe { *p } }";
        let dep = DeprecatedIndex::default();
        for path in [
            "crates/dnn/src/graph.rs",
            "crates/pool/src/lib.rs",
            "examples/steal_vgg.rs",
        ] {
            let r = lint_source(path, src, &dep);
            assert_eq!(rules_hit(&r), vec!["no-unsafe"], "{path}");
        }
        // Inside the sanctuary a SAFETY: comment discharges the rule...
        let safe = "fn f(p: *const f32) -> f32 {\n    // SAFETY: caller keeps p valid\n    unsafe { *p }\n}";
        let r = lint_source("crates/tensor/src/simd/x86.rs", safe, &dep);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // ...a `# Safety` doc section counts for `unsafe fn` items...
        let doc = "/// # Safety\n/// p must be valid.\npub unsafe fn f(p: *const f32) -> f32 {\n    // SAFETY: see above\n    unsafe { *p }\n}";
        let r = lint_source("crates/tensor/src/simd/neon.rs", doc, &dep);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // ...and a bare unsafe block there is still a violation.
        let bare = "fn f(p: *const f32) -> f32 { unsafe { *p } }";
        let r = lint_source("crates/tensor/src/simd/mod.rs", bare, &dep);
        assert_eq!(rules_hit(&r), vec!["no-unsafe"]);
        assert!(r.violations[0].message.contains("SAFETY"));
    }

    #[test]
    fn unsafe_allow_suppresses_with_reason() {
        let src = "unsafe impl Send for P {} // hd-lint: allow(no-unsafe) -- raw ptr only crosses with the join fence";
        let dep = DeprecatedIndex::default();
        let r = lint_source("crates/dnn/src/graph.rs", src, &dep);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.allows.len(), 1);
        assert_eq!(r.allows[0].rule, "no-unsafe");
    }

    #[test]
    fn lossy_cast_scoped_to_accounting_files() {
        let src = "fn f(x: u64) -> usize { x as usize }";
        let dep = DeprecatedIndex::default();
        let r = lint_source("crates/trace/src/lib.rs", src, &dep);
        assert_eq!(rules_hit(&r), vec!["lossy-cast"]);
        // Same code elsewhere is fine (e.g. tensor indexing math).
        assert!(lint_source("crates/dnn/src/graph.rs", src, &dep)
            .violations
            .is_empty());
        // Casting *to* floats is never an integer-width hazard.
        let float = lint_source(
            "crates/trace/src/lib.rs",
            "fn f(x: u64) -> f64 { x as f64 }",
            &dep,
        );
        assert!(float.violations.is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_reported() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // hd-lint: allow(no-panic) -- checked by caller invariant\n    x.unwrap()\n}";
        let r = lint_lib(src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.allows.len(), 1);
        assert_eq!(r.allows[0].rule, "no-panic");
        assert_eq!(r.allows[0].reason, "checked by caller invariant");
    }

    #[test]
    fn trailing_allow_applies_to_its_own_line() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // hd-lint: allow(no-panic) -- infallible here";
        let r = lint_lib(src);
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
            (
                "// hd-lint: allow(no-panic)\nfn f() { None::<u8>.unwrap(); }",
                "without a reason",
            ),
            ("// hd-lint: deny(no-panic) -- x\nfn f() {}", "unrecognized"),
        ] {
            let r = lint_lib(src);
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
        let r = lint_lib("// hd-lint: allow(no-panic) -- stale\nfn f() {}");
        assert_eq!(rules_hit(&r), vec!["unused-allow"]);
        assert!(r.allows.is_empty());
    }

    #[test]
    fn deprecated_declaration_and_use_detected() {
        let decl = "#[deprecated(since = \"0.1.0\", note = \"renamed\")]\npub use boundary_obs as observability;";
        let idx = collect_deprecated("crates/core/src/lib.rs", decl);
        assert_eq!(
            idx.names,
            vec![(
                "observability".to_string(),
                "crates/core/src/lib.rs".to_string()
            )]
        );
        // A use in another file is flagged; the declaring file is exempt.
        let user = "fn f() { huffduff_core::observability::emit(); }";
        let r = lint_source("crates/trace/src/lib.rs", user, &idx);
        assert_eq!(rules_hit(&r), vec!["no-deprecated"]);
        let self_use = lint_source("crates/core/src/lib.rs", decl, &idx);
        assert!(self_use.violations.is_empty());
    }

    #[test]
    fn deprecated_fn_name_detected() {
        let decl = "#[deprecated]\npub fn old_api() {}";
        let idx = collect_deprecated("crates/dnn/src/a.rs", decl);
        assert_eq!(idx.names[0].0, "old_api");
    }

    #[test]
    fn strings_and_comments_never_trigger_rules() {
        let r = lint_lib("fn f() { let s = \"call .unwrap() and panic!\"; } // panic! unwrap()");
        assert!(r.violations.is_empty());
    }

    #[test]
    fn violation_display_names_file_line_and_rule() {
        let r = lint_lib("fn f(x: Option<u8>) -> u8 { x.unwrap() }");
        let line = r.violations[0].to_string();
        assert!(line.starts_with("crates/dnn/src/fake.rs:1:"), "{line}");
        assert!(line.contains("[no-panic]"), "{line}");
    }
}

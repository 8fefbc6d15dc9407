//! The concurrency/determinism rule pack: semantic rules that need the
//! parser, the workspace symbol index, and the intra-crate call graph —
//! not just token patterns.
//!
//! | rule | what it rejects |
//! |------|-----------------|
//! | `atomic-ordering` | `Ordering::Relaxed` in library code. Relaxed is correct only for monotone counters and advisory flags; each such site must carry an allow naming the invariant (the `hd-pool` claim counter, the `hd-obs` enable flag, the SIMD mode cache). |
//! | `lock-discipline` | a `Mutex`/`RwLock` guard held across a blocking call — `ObservationModel::observe`, `Device::try_run*`, the prober entry points, or a `try_map` family fan-out (directly, or through any same-crate function the call graph shows reaches one) — and inconsistent nested lock acquisition order within a crate. |
//! | `unordered-iter` | iterating a `HashMap`/`HashSet` (local, parameter, or same-crate struct field) on the determinism-critical surface (`core`, `trace`, `accel`, `obs`, `dnn`, `tensor`): iteration order is random per process, so anything it feeds — traces, observations, exports, reductions — loses bit-stability. |
//! | `float-reduction-order` | f32/f64 `.sum()`/`.product()` reductions and `+`-accumulating float `fold`s outside the sanctioned kernels (`crates/tensor/src/{gemm,csc_conv,simd}`): float addition is non-associative, so reduction order is part of the bit-identical contract. |
//!
//! All four honor the standard `// hd-lint: allow(<rule>) -- <reason>`
//! suppressions and the `#[cfg(test)]` exclusion, exactly like the
//! `lossy-cast` token rule.

use crate::callgraph::CallGraph;
use crate::lexer::{Token, TokenKind};
use crate::parser::ItemKind;
use crate::rules::{rule_in_scope, test_regions, Violation};
use crate::symbols::{crate_of, FileUnit, SymbolIndex};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;

/// Calls that must never run under a held lock guard: the observation
/// boundary, the device run surface, the prober entry point and the
/// `hd_pool::try_map` fan-out that runs a probe family.
const SENTINELS: [&str; 6] = [
    "observe",
    "try_run",
    "try_run_with",
    "try_energy_estimate",
    "probe",
    "try_map",
];

/// The analyzed workspace: symbol index, call graph, and the derived facts
/// the semantic rules consume.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    /// Every named item, per crate.
    pub symbols: SymbolIndex,
    /// Same-crate call edges.
    pub calls: CallGraph,
    /// `(crate, fn_name)` from which a sentinel call is reachable through
    /// the crate's call graph (sentinel-calling fns included).
    blocking: BTreeSet<(String, String)>,
    /// Cross-file `lock-discipline` order findings, precomputed at build
    /// time (nested-acquisition order is a per-crate property).
    order_violations: Vec<Violation>,
}

impl Workspace {
    /// Analyzes every file once: index, call graph, blocking closure, and
    /// the crate-wide lock-order audit.
    pub fn build(files: &[FileUnit]) -> Workspace {
        let symbols = SymbolIndex::build(files);
        let calls = CallGraph::build(files, &symbols);

        // Functions that *directly* contain a blocking call, per crate.
        let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for fu in files {
            let krate = crate_of(&fu.rel);
            for it in fu.parsed.walk() {
                let (ItemKind::Fn, Some(name), Some((s, e))) = (it.kind, &it.name, it.body) else {
                    continue;
                };
                let t = &fu.lexed.tokens;
                let has_sentinel = (s..e.min(t.len())).any(|i| is_sentinel_call(t, i));
                if has_sentinel {
                    direct
                        .entry(krate.to_string())
                        .or_default()
                        .insert(name.clone());
                }
            }
        }
        // Close over callers: anything that reaches a blocking fn blocks.
        let mut blocking = BTreeSet::new();
        for (krate, targets) in &direct {
            for name in calls.reaching(krate, targets) {
                blocking.insert((krate.clone(), name));
            }
        }

        let order_violations = lock_order_audit(files);
        Workspace {
            symbols,
            calls,
            blocking,
            order_violations,
        }
    }

    /// Is a call to `name` inside `krate` (transitively) blocking?
    fn is_blocking(&self, krate: &str, name: &str) -> bool {
        self.blocking
            .contains(&(krate.to_string(), name.to_string()))
    }

    /// Runs every in-scope semantic rule on one file. `excluded` is the
    /// file's `#[cfg(test)]` line-range set (same exclusion as the token
    /// rule).
    pub fn check_file(&self, fu: &FileUnit, excluded: &[RangeInclusive<u32>]) -> Vec<Violation> {
        let mut out = Vec::new();
        if rule_in_scope("atomic-ordering", &fu.rel) {
            atomic_ordering(fu, excluded, &mut out);
        }
        if rule_in_scope("lock-discipline", &fu.rel) {
            lock_discipline(fu, excluded, self, &mut out);
            out.extend(
                self.order_violations
                    .iter()
                    .filter(|v| v.file == fu.rel)
                    .cloned(),
            );
        }
        if rule_in_scope("unordered-iter", &fu.rel) {
            unordered_iter(fu, excluded, &self.symbols, &mut out);
        }
        if rule_in_scope("float-reduction-order", &fu.rel) {
            float_reduction_order(fu, excluded, &mut out);
        }
        out
    }
}

fn in_tests(excluded: &[RangeInclusive<u32>], line: u32) -> bool {
    excluded.iter().any(|r| r.contains(&line))
}

fn text(t: &[Token], i: usize) -> &str {
    t.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

/// Names the enclosing fn for a diagnostic, when the parser found one.
fn in_fn(fu: &FileUnit, line: u32) -> String {
    match fu.parsed.enclosing_fn(line).and_then(|i| i.name.as_deref()) {
        Some(name) => format!(" in `fn {name}`"),
        None => String::new(),
    }
}

// --- atomic-ordering -----------------------------------------------------

fn atomic_ordering(fu: &FileUnit, excluded: &[RangeInclusive<u32>], out: &mut Vec<Violation>) {
    let t = &fu.lexed.tokens;
    for i in 0..t.len() {
        if text(t, i) == "Ordering"
            && text(t, i + 1) == ":"
            && text(t, i + 2) == ":"
            && text(t, i + 3) == "Relaxed"
            && !in_tests(excluded, t[i].line)
        {
            out.push(Violation {
                file: fu.rel.clone(),
                line: t[i].line,
                col: t[i].col,
                rule: "atomic-ordering",
                message: format!(
                    "Ordering::Relaxed{}: Relaxed orders nothing across threads; use \
                     Acquire/Release (or allow with the invariant that makes Relaxed sound)",
                    in_fn(fu, t[i].line)
                ),
            });
        }
    }
}

// --- lock-discipline -----------------------------------------------------

/// A live lock guard inside one fn body.
struct Guard {
    /// Binding name (`None` for a statement-temporary guard).
    name: Option<String>,
    /// The identifier the `.lock()`/`.read()`/`.write()` was called on —
    /// the mutex's name for the acquisition-order audit.
    mutex: String,
    /// Brace depth the guard was created at; it dies when depth drops
    /// below this.
    depth: i32,
    /// For temporaries: the guard dies at the statement's `;`.
    until_semi: bool,
    /// Line of the acquisition (for diagnostics).
    line: u32,
}

/// Does token `i` start a guard acquisition (`.lock(`, or `.read(`/
/// `.write(` in a file that mentions `RwLock`)?
fn is_acquire(t: &[Token], i: usize, has_rwlock: bool) -> bool {
    if text(t, i) != "." || text(t, i + 2) != "(" {
        return false;
    }
    match text(t, i + 1) {
        "lock" => true,
        "read" | "write" => has_rwlock,
        _ => false,
    }
}

/// Is token `i` a call to a sentinel by name? A declaration
/// `fn observe(` is not a call site.
fn is_sentinel_call(t: &[Token], i: usize) -> bool {
    t[i].kind == TokenKind::Ident
        && text(t, i + 1) == "("
        && SENTINELS.contains(&t[i].text.as_str())
        && (i == 0 || text(t, i - 1) != "fn")
}

fn lock_discipline(
    fu: &FileUnit,
    excluded: &[RangeInclusive<u32>],
    ws: &Workspace,
    out: &mut Vec<Violation>,
) {
    let t = &fu.lexed.tokens;
    let krate = crate_of(&fu.rel);
    let has_rwlock = t.iter().any(|tok| tok.text == "RwLock");
    for it in fu.parsed.walk() {
        let (ItemKind::Fn, Some((start, end))) = (it.kind, it.body) else {
            continue;
        };
        if in_tests(excluded, it.line) {
            continue;
        }
        let mut guards: Vec<Guard> = Vec::new();
        let mut depth = 1i32;
        let mut i = start;
        while i < end.min(t.len()) {
            match text(t, i) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                }
                ";" => guards.retain(|g| !g.until_semi),
                "drop" if text(t, i + 1) == "(" => {
                    let victim = text(t, i + 2).to_string();
                    guards.retain(|g| g.name.as_deref() != Some(victim.as_str()));
                }
                _ => {}
            }
            if is_acquire(t, i, has_rwlock) {
                let mutex = if i >= 1 && t[i - 1].kind == TokenKind::Ident {
                    t[i - 1].text.clone()
                } else {
                    "<expr>".to_string()
                };
                // A `...lock().unwrap().take()`-style chain binds the
                // chain's result, not the guard — statement temporary.
                let name = if chain_escapes_guard(t, i) {
                    None
                } else {
                    binding_name(t, start, i)
                };
                // A rebind (`q = ...lock()`) replaces the same-named guard.
                if let Some(n) = &name {
                    guards.retain(|g| g.name.as_deref() != Some(n.as_str()));
                }
                guards.push(Guard {
                    until_semi: name.is_none(),
                    name,
                    mutex,
                    depth,
                    line: t[i].line,
                });
            } else if !guards.is_empty()
                && !in_tests(excluded, t[i].line)
                && (is_sentinel_call(t, i)
                    || (t[i].kind == TokenKind::Ident
                        && text(t, i + 1) == "("
                        && text(t, i.wrapping_sub(1)) != "fn"
                        // Name-based resolution is only trustworthy for free
                        // calls and `self.` method calls; an arbitrary
                        // receiver's `.map(...)` is usually an iterator.
                        && (text(t, i.wrapping_sub(1)) != "."
                            || text(t, i.wrapping_sub(2)) == "self")
                        && ws.is_blocking(krate, t[i].text.as_str())
                        && !SENTINELS.contains(&t[i].text.as_str())))
            {
                push_guard_violation(fu, t, i, &guards, out);
            }
            i += 1;
        }
    }
}

fn push_guard_violation(
    fu: &FileUnit,
    t: &[Token],
    i: usize,
    guards: &[Guard],
    out: &mut Vec<Violation>,
) {
    let g = &guards[guards.len() - 1];
    let held = g
        .name
        .as_deref()
        .map(|n| format!("guard `{n}`"))
        .unwrap_or_else(|| "a temporary guard".to_string());
    out.push(Violation {
        file: fu.rel.clone(),
        line: t[i].line,
        col: t[i].col,
        rule: "lock-discipline",
        message: format!(
            "{held} (from `{}.lock()`, line {}) is held across `{}(...)`{}; \
             drop the guard before calling into the observation/run surface",
            g.mutex,
            g.line,
            t[i].text,
            in_fn(fu, t[i].line)
        ),
    });
}

/// Does the method chain after the `.lock(...)` at token `i` continue past
/// the unwrap family (`.take()`, `.clone()`, ...)? If so the binding holds
/// the chain's result, not the guard — the guard is a statement temporary.
fn chain_escapes_guard(t: &[Token], i: usize) -> bool {
    // `i` is the `.` of `.lock(`; find the call's closing paren.
    let mut j = i + 2;
    let mut depth = 0i32;
    while j < t.len() {
        match text(t, j) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j += 1;
    while text(t, j) == "." {
        if matches!(
            text(t, j + 1),
            "unwrap" | "unwrap_or_else" | "unwrap_or_default" | "expect"
        ) && text(t, j + 2) == "("
        {
            // Part of acquiring the guard; skip the call and keep looking.
            let mut d = 0i32;
            let mut k = j + 2;
            while k < t.len() {
                match text(t, k) {
                    "(" => d += 1,
                    ")" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k + 1;
            continue;
        }
        return true;
    }
    false
}

/// The `let` binding name for an acquisition at token `i`, scanning back to
/// the statement start: `let [mut] NAME = ... .lock(` or a bare rebind
/// `NAME = ... .lock(`. `None` for statement-temporaries.
fn binding_name(t: &[Token], body_start: usize, i: usize) -> Option<String> {
    let mut j = i;
    while j > body_start {
        j -= 1;
        match text(t, j) {
            ";" | "{" | "}" => break,
            "let" => {
                let mut k = j + 1;
                while matches!(text(t, k), "mut" | "(" | "Ok" | "Some" | "Err") {
                    k += 1;
                }
                return t
                    .get(k)
                    .filter(|tok| tok.kind == TokenKind::Ident)
                    .map(|tok| tok.text.clone());
            }
            _ => {}
        }
    }
    // Rebind without `let`: first two statement tokens are `NAME =`.
    let stmt_first = j + 1;
    if t.get(stmt_first).map(|tok| tok.kind) == Some(TokenKind::Ident)
        && text(t, stmt_first + 1) == "="
    {
        return Some(t[stmt_first].text.clone());
    }
    None
}

/// Per-crate nested-acquisition audit: collects every `(outer, inner)`
/// mutex pair; when a crate acquires the same two mutexes in both orders,
/// every site of the minority direction is an inconsistency.
fn lock_order_audit(files: &[FileUnit]) -> Vec<Violation> {
    // (krate, outer, inner) -> acquisition sites (file, outer line, inner line).
    type Sites = Vec<(String, u32, u32)>;
    let mut pairs: BTreeMap<(String, String, String), Sites> = BTreeMap::new();
    for fu in files {
        let krate = crate_of(&fu.rel).to_string();
        let excluded = test_regions(&fu.lexed.tokens);
        let t = &fu.lexed.tokens;
        let has_rwlock = t.iter().any(|tok| tok.text == "RwLock");
        for it in fu.parsed.walk() {
            let (ItemKind::Fn, Some((start, end))) = (it.kind, it.body) else {
                continue;
            };
            if in_tests(&excluded, it.line) {
                continue;
            }
            let mut guards: Vec<Guard> = Vec::new();
            let mut depth = 1i32;
            for i in start..end.min(t.len()) {
                match text(t, i) {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        guards.retain(|g| g.depth <= depth);
                    }
                    ";" => guards.retain(|g| !g.until_semi),
                    "drop" if text(t, i + 1) == "(" => {
                        let victim = text(t, i + 2).to_string();
                        guards.retain(|g| g.name.as_deref() != Some(victim.as_str()));
                    }
                    _ => {}
                }
                if is_acquire(t, i, has_rwlock) {
                    let mutex = if i >= 1 && t[i - 1].kind == TokenKind::Ident {
                        t[i - 1].text.clone()
                    } else {
                        "<expr>".to_string()
                    };
                    for g in &guards {
                        if g.mutex != mutex {
                            pairs
                                .entry((krate.clone(), g.mutex.clone(), mutex.clone()))
                                .or_default()
                                .push((fu.rel.clone(), t[i].line, t[i].col));
                        }
                    }
                    let name = if chain_escapes_guard(t, i) {
                        None
                    } else {
                        binding_name(t, start, i)
                    };
                    if let Some(n) = &name {
                        guards.retain(|g| g.name.as_deref() != Some(n.as_str()));
                    }
                    guards.push(Guard {
                        until_semi: name.is_none(),
                        name,
                        mutex,
                        depth,
                        line: t[i].line,
                    });
                }
            }
        }
    }
    let mut out = Vec::new();
    for ((krate, outer, inner), sites) in &pairs {
        let Some(rev) = pairs.get(&(krate.clone(), inner.clone(), outer.clone())) else {
            continue;
        };
        // Flag the minority direction only (ties: the lexicographically
        // later pair), so a consistent convention plus one outlier yields
        // exactly the outlier.
        let minority = sites.len() < rev.len() || (sites.len() == rev.len() && outer > inner);
        if !minority {
            continue;
        }
        for (file, line, col) in sites {
            out.push(Violation {
                file: file.clone(),
                line: *line,
                col: *col,
                rule: "lock-discipline",
                message: format!(
                    "inconsistent lock order in crate `{krate}`: `{outer}` is held while \
                     acquiring `{inner}`, but the crate elsewhere acquires `{inner}` before \
                     `{outer}` ({} site(s)); pick one order",
                    rev.len()
                ),
            });
        }
    }
    out
}

// --- unordered-iter ------------------------------------------------------

const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

fn unordered_iter(
    fu: &FileUnit,
    excluded: &[RangeInclusive<u32>],
    symbols: &SymbolIndex,
    out: &mut Vec<Violation>,
) {
    let t = &fu.lexed.tokens;
    let krate = crate_of(&fu.rel);

    // Names bound to an unordered collection in this file: `let NAME : ...
    // HashMap`, `let NAME = HashMap::new()`, `NAME : HashMap` params, plus
    // the crate's unordered struct fields from the symbol index.
    let mut names: BTreeSet<String> = symbols
        .unordered_fields
        .iter()
        .filter(|(k, _)| k == krate)
        .map(|(_, f)| f.clone())
        .collect();
    for i in 0..t.len() {
        if !matches!(text(t, i), "HashMap" | "HashSet") {
            continue;
        }
        if let Some(name) = unordered_binding(t, i) {
            names.insert(name);
        }
    }
    if names.is_empty() {
        return;
    }

    for i in 0..t.len() {
        if t[i].kind != TokenKind::Ident
            || !names.contains(&t[i].text)
            || in_tests(excluded, t[i].line)
        {
            continue;
        }
        // `NAME.iter()` / `self.NAME.keys()` / ... -- any order-revealing
        // method.
        let method_iter = text(t, i + 1) == "."
            && ITER_METHODS.contains(&text(t, i + 2))
            && text(t, i + 3) == "(";
        // `for PAT in [&][mut] NAME {`
        let mut back = i;
        while back > 0 && matches!(text(t, back - 1), "&" | "mut") {
            back -= 1;
        }
        let for_iter = back > 0 && text(t, back - 1) == "in" && text(t, i + 1) == "{";
        if method_iter || for_iter {
            out.push(Violation {
                file: fu.rel.clone(),
                line: t[i].line,
                col: t[i].col,
                rule: "unordered-iter",
                message: format!(
                    "iteration over unordered `{}`{}: HashMap/HashSet order is random per \
                     process and breaks bit-stable traces/exports; use BTreeMap/BTreeSet \
                     or sort before iterating",
                    t[i].text,
                    in_fn(fu, t[i].line)
                ),
            });
        }
    }
}

/// The binding name an unordered-type mention at token `i` declares, if
/// any: handles `let [mut] NAME : ... Hash{Map,Set}`, `let [mut] NAME =
/// Hash{Map,Set}::new/with_capacity/from`, and `NAME : Hash{Map,Set}` fn
/// parameters.
fn unordered_binding(t: &[Token], i: usize) -> Option<String> {
    // Scan back to the first annotation `:` or assignment `=` that is not
    // part of a `::` path separator; the identifier just before it is the
    // binder. Stop at statement/param boundaries.
    let mut j = i;
    let mut hops = 0;
    while j > 0 && hops < 32 {
        j -= 1;
        hops += 1;
        match text(t, j) {
            ";" | "{" | "}" | "," | "(" | ")" | "|" => return None,
            ":" => {
                if text(t, j.wrapping_sub(1)) == ":" || text(t, j + 1) == ":" {
                    continue; // `::` path separator, keep scanning
                }
                let cand = t.get(j.checked_sub(1)?)?;
                return (cand.kind == TokenKind::Ident).then(|| cand.text.clone());
            }
            "=" => {
                if text(t, j + 1) == "=" || matches!(text(t, j.wrapping_sub(1)), "=" | "!" | "<") {
                    return None; // comparison operator, not a binding
                }
                let cand = t.get(j.checked_sub(1)?)?;
                return (cand.kind == TokenKind::Ident).then(|| cand.text.clone());
            }
            _ => {}
        }
    }
    None
}

// --- float-reduction-order -----------------------------------------------

fn float_reduction_order(
    fu: &FileUnit,
    excluded: &[RangeInclusive<u32>],
    out: &mut Vec<Violation>,
) {
    let t = &fu.lexed.tokens;
    let src = fu.src.as_str();
    for i in 0..t.len() {
        if text(t, i) != "." {
            continue;
        }
        let meth = text(t, i + 1);
        if !matches!(meth, "sum" | "product" | "fold") || in_tests(excluded, t[i + 1].line) {
            continue;
        }
        let flagged = match meth {
            // `.sum::<f32>()` / turbofish, or `.sum()` in a statement that
            // names a float type (`let total: f32 = xs.iter().sum();`).
            "sum" | "product" => {
                let turbofish_float = text(t, i + 2) == ":"
                    && text(t, i + 3) == ":"
                    && text(t, i + 4) == "<"
                    && matches!(text(t, i + 5), "f32" | "f64");
                let plain = text(t, i + 2) == "(";
                turbofish_float || (plain && stmt_mentions_float(t, i))
            }
            // `.fold(0.0, |acc, v| acc + v)`: float-literal seed plus an
            // additive closure. Order-independent folds (max/min) pass.
            "fold" => {
                text(t, i + 2) == "(" && float_literal(t, i + 3, src) && fold_args_add(t, i + 2)
            }
            _ => false,
        };
        if flagged {
            out.push(Violation {
                file: fu.rel.clone(),
                line: t[i + 1].line,
                col: t[i + 1].col,
                rule: "float-reduction-order",
                message: format!(
                    "f32/f64 `.{meth}(...)` reduction{} outside the sanctioned kernels \
                     (crates/tensor/src/{{gemm,csc_conv,simd}}): float addition is \
                     non-associative, so order is part of the bit-identical contract; \
                     accumulate in explicit index order or allow with the ordering argument",
                    in_fn(fu, t[i + 1].line)
                ),
            });
        }
    }
}

/// Does the statement containing token `i` (back to the nearest `;`, `{`,
/// or `}`) mention `f32`/`f64`?
fn stmt_mentions_float(t: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        match text(t, j) {
            ";" | "{" | "}" => return false,
            "f32" | "f64" => return true,
            _ => {}
        }
    }
    false
}

/// Is token `i` a float literal (`0.0`, `1e-3`, `0f32`)? Numbers carry no
/// text, so the byte span is sliced from the source.
fn float_literal(t: &[Token], i: usize, src: &str) -> bool {
    let Some(tok) = t.get(i) else { return false };
    if tok.kind != TokenKind::Number {
        return false;
    }
    src.get(tok.start..tok.end)
        .map(|s| {
            s.contains('.')
                || s.ends_with("f32")
                || s.ends_with("f64")
                || (s.contains(['e', 'E']) && !s.starts_with("0x") && !s.starts_with("0X"))
        })
        .unwrap_or(false)
}

/// Does the `fold(` argument list opening at token `open` contain a `+`
/// (an order-sensitive accumulation) before its matching `)`?
fn fold_args_add(t: &[Token], open: usize) -> bool {
    let mut depth = 0i32;
    let mut j = open;
    while j < t.len() {
        match text(t, j) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            "+" => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::test_regions;

    fn check(rel: &str, src: &str) -> Vec<Violation> {
        let fu = FileUnit::analyze(rel, src);
        let ws = Workspace::build(std::slice::from_ref(&fu));
        let excluded = test_regions(&fu.lexed.tokens);
        ws.check_file(&fu, &excluded)
    }

    fn rules_hit(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn relaxed_ordering_flagged_with_enclosing_fn() {
        let vs = check(
            "crates/pool/src/fake.rs",
            "fn claim(n: &AtomicUsize) -> usize { n.fetch_add(1, Ordering::Relaxed) }",
        );
        assert_eq!(rules_hit(&vs), vec!["atomic-ordering"]);
        assert!(vs[0].message.contains("in `fn claim`"), "{}", vs[0].message);
    }

    #[test]
    fn acquire_release_pass_and_tests_are_exempt() {
        let vs = check(
            "crates/pool/src/fake.rs",
            "fn ok(n: &AtomicUsize) { n.store(1, Ordering::Release); let _ = n.load(Ordering::Acquire); }\n\
             #[cfg(test)]\nmod tests {\n    fn t(n: &AtomicUsize) { n.load(Ordering::Relaxed); }\n}\n",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn guard_held_across_observe_is_flagged() {
        let vs = check(
            "crates/core/src/fake.rs",
            "fn bad(m: &Mutex<u32>, target: &dyn ObservationModel, img: &Tensor3) {\n\
                 let g = m.lock().unwrap_or_else(|e| e.into_inner());\n\
                 let _ = target.observe(img, FullChannel);\n\
             }\n",
        );
        assert_eq!(rules_hit(&vs), vec!["lock-discipline"]);
        assert!(vs[0].message.contains("guard `g`"), "{}", vs[0].message);
    }

    #[test]
    fn dropping_or_scoping_the_guard_discharges_the_rule() {
        let vs = check(
            "crates/core/src/fake.rs",
            "fn ok(m: &Mutex<u32>, target: &dyn ObservationModel, img: &Tensor3) {\n\
                 {\n    let g = m.lock().unwrap_or_else(|e| e.into_inner());\n    let _ = *g;\n}\n\
                 let q = m.lock().unwrap_or_else(|e| e.into_inner());\n\
                 drop(q);\n\
                 let _ = target.observe(img, FullChannel);\n\
             }\n",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn guard_held_across_a_family_fan_out_is_flagged() {
        let vs = check(
            "crates/core/src/fake.rs",
            "fn bad(m: &Mutex<u32>, images: &[Tensor3], target: &dyn ObservationModel) {\n\
                 let g = m.lock().unwrap_or_else(|e| e.into_inner());\n\
                 let _ = hd_pool::try_map(images.len(), 4, |i| run_one(target, &images[i]));\n\
             }\n",
        );
        assert_eq!(rules_hit(&vs), vec!["lock-discipline"]);
        assert!(
            vs[0].message.contains("`try_map(...)`"),
            "{}",
            vs[0].message
        );
    }

    #[test]
    fn transitively_blocking_calls_are_caught_via_the_call_graph() {
        let vs = check(
            "crates/core/src/fake.rs",
            "fn step(target: &dyn ObservationModel, img: &Tensor3) { let _ = target.observe(img, FullChannel); }\n\
             fn bad(m: &Mutex<u32>, target: &dyn ObservationModel, img: &Tensor3) {\n\
                 let g = m.lock().unwrap_or_else(|e| e.into_inner());\n\
                 step(target, img);\n\
             }\n",
        );
        assert_eq!(rules_hit(&vs), vec!["lock-discipline"]);
        assert!(vs[0].message.contains("`step(...)`"), "{}", vs[0].message);
    }

    #[test]
    fn inconsistent_nested_lock_order_is_flagged_once_per_minority_site() {
        let vs = check(
            "crates/obs/src/fake.rs",
            "fn a(x: &M, y: &M) { let g = x.shards.lock(); let h = y.counters.lock(); }\n\
             fn b(x: &M, y: &M) { let g = x.shards.lock(); let h = y.counters.lock(); }\n\
             fn c(x: &M, y: &M) { let h = y.counters.lock(); let g = x.shards.lock(); }\n",
        );
        let order: Vec<&Violation> = vs
            .iter()
            .filter(|v| v.message.contains("inconsistent lock order"))
            .collect();
        assert_eq!(order.len(), 1, "{vs:?}");
        assert_eq!(order[0].line, 3, "the minority direction site");
    }

    #[test]
    fn hashmap_iteration_flagged_on_the_determinism_surface_only() {
        let src = "fn mode(xs: &[u64]) -> u64 {\n\
                       let mut counts: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();\n\
                       for &x in xs { *counts.entry(x).or_insert(0) += 1; }\n\
                       counts.iter().max_by_key(|(_, &c)| c).map(|(&k, _)| k).unwrap_or(0)\n\
                   }\n";
        let vs = check("crates/core/src/fake.rs", src);
        assert_eq!(rules_hit(&vs), vec!["unordered-iter"]);
        assert_eq!(vs[0].line, 4);
        // Same code outside the surface (e.g. the lint crate) passes.
        assert!(check("crates/lint/src/fake.rs", src).is_empty());
    }

    #[test]
    fn hashmap_without_iteration_passes_and_btreemap_iteration_passes() {
        let vs = check(
            "crates/core/src/fake.rs",
            "fn f(xs: &[u64]) -> usize {\n\
                 let mut seen: HashMap<u64, u16> = HashMap::new();\n\
                 for &x in xs { seen.entry(x).or_insert(0); }\n\
                 let mut sorted: BTreeMap<u64, u16> = BTreeMap::new();\n\
                 for (k, v) in sorted.iter() { let _ = (k, v); }\n\
                 seen.len()\n\
             }\n",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn unordered_struct_field_is_tracked_across_files_of_the_crate() {
        let decl = FileUnit::analyze(
            "crates/accel/src/device.rs",
            "pub struct Dev { capacity_of: std::collections::HashMap<u64, u64> }\n",
        );
        let user = FileUnit::analyze(
            "crates/accel/src/audit.rs",
            "impl Dev { fn audit(&self) { for (a, c) in self.capacity_of.iter() { let _ = (a, c); } } }\n",
        );
        let ws = Workspace::build(&[decl, user.clone()]);
        let vs = ws.check_file(&user, &[]);
        assert_eq!(rules_hit(&vs), vec!["unordered-iter"]);
    }

    #[test]
    fn float_sums_flagged_outside_sanctioned_kernels() {
        let src =
            "fn softmax_denom(exps: &[f32]) -> f32 { let sum: f32 = exps.iter().sum(); sum }\n\
                   fn l1(g: &[f32]) -> f32 { g.iter().map(|v| v.abs()).sum::<f32>() }\n";
        let vs = check("crates/dnn/src/fake.rs", src);
        assert_eq!(
            rules_hit(&vs),
            vec!["float-reduction-order", "float-reduction-order"]
        );
        // The sanctioned kernel sites are exempt by scope.
        assert!(check("crates/tensor/src/gemm.rs", src).is_empty());
        assert!(check("crates/tensor/src/simd/x86.rs", src).is_empty());
    }

    #[test]
    fn integer_sums_and_order_free_folds_pass() {
        let vs = check(
            "crates/dnn/src/fake.rs",
            "fn count(xs: &[u64]) -> u64 { xs.iter().sum() }\n\
             fn maxabs(xs: &[f32]) -> f32 { xs.iter().fold(0.0f32, |m, v| m.max(v.abs())) }\n",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn additive_float_fold_is_flagged() {
        let vs = check(
            "crates/dnn/src/fake.rs",
            "fn total(xs: &[f32]) -> f32 { xs.iter().fold(0.0f32, |acc, v| acc + v) }\n",
        );
        assert_eq!(rules_hit(&vs), vec!["float-reduction-order"]);
    }
}

//! The intra-crate call graph: for every parsed `fn` body, the calls that
//! resolve to another function or method declared in the *same* crate
//! (cross-crate calls are out of scope — the lint runs per workspace
//! checkout and the determinism rules only need same-crate reachability).
//!
//! Resolution is name-based over the symbol index: a call site `name(...)`
//! or `.name(...)` inside crate `k` produces an edge when `(k, name)` is a
//! declared fn/method. That is deliberately approximate (no type
//! inference), but the forgiving direction: an extra edge can at worst ask
//! for one more `hd-lint: allow`, a missing edge only weakens a heuristic
//! the dynamic invariance suites back-stop anyway.

use crate::lexer::TokenKind;
use crate::parser::{Item, ItemKind};
use crate::symbols::{crate_of, FileUnit, SymbolIndex};
use std::collections::BTreeSet;

/// One resolved call edge.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CallEdge {
    /// The crate both endpoints live in.
    pub krate: String,
    /// Calling function (or method) name.
    pub caller: String,
    /// Called function (or method) name.
    pub callee: String,
    /// File of the call site.
    pub file: String,
    /// 1-indexed line of the call site.
    pub line: u32,
}

/// The workspace call graph.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// All edges, deduplicated per (crate, caller, callee) pair and sorted.
    pub edges: Vec<CallEdge>,
}

impl CallGraph {
    /// Builds the graph over every analyzed file, resolving names against
    /// `idx`.
    pub fn build(files: &[FileUnit], idx: &SymbolIndex) -> CallGraph {
        let mut seen: BTreeSet<(String, String, String)> = BTreeSet::new();
        let mut edges = Vec::new();
        for fu in files {
            let krate = crate_of(&fu.rel);
            for it in fu.parsed.walk() {
                if it.kind != ItemKind::Fn {
                    continue;
                }
                let Some(caller) = it.name.as_deref() else {
                    continue;
                };
                for (callee, line) in calls_in(it, fu, krate, idx) {
                    if seen.insert((krate.to_string(), caller.to_string(), callee.clone())) {
                        edges.push(CallEdge {
                            krate: krate.to_string(),
                            caller: caller.to_string(),
                            callee,
                            file: fu.rel.clone(),
                            line,
                        });
                    }
                }
            }
        }
        edges.sort();
        CallGraph { edges }
    }

    /// Number of edges (the JSON summary counter).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edges were resolved.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The set of functions in `krate` from which `targets` are reachable
    /// (callers of targets, callers of those callers, ... to a fixpoint).
    /// Includes the targets themselves when they are declared in `krate`.
    pub fn reaching(&self, krate: &str, targets: &BTreeSet<String>) -> BTreeSet<String> {
        let mut reach: BTreeSet<String> = targets.clone();
        loop {
            let before = reach.len();
            for e in &self.edges {
                if e.krate == krate && reach.contains(&e.callee) {
                    reach.insert(e.caller.clone());
                }
            }
            if reach.len() == before {
                return reach;
            }
        }
    }
}

/// Call sites inside one fn body that resolve within `krate`: yields
/// `(callee, line)` pairs in source order.
fn calls_in(it: &Item, fu: &FileUnit, krate: &str, idx: &SymbolIndex) -> Vec<(String, u32)> {
    let Some((start, end)) = it.body else {
        return Vec::new();
    };
    let t = &fu.lexed.tokens;
    let mut out = Vec::new();
    let caller = it.name.as_deref().unwrap_or("");
    for i in start..end.min(t.len()) {
        if t[i].kind != TokenKind::Ident {
            continue;
        }
        let name = t[i].text.as_str();
        // `name(` or `name::<...>(` — a direct or method call. Skip macro
        // invocations (`name!(...)`), definitions (`fn name(`), and
        // self-recursion (a self-loop adds no reachability information).
        let next = t.get(i + 1).map(|n| n.text.as_str()).unwrap_or("");
        let is_call = next == "("
            || (next == ":"
                && t.get(i + 2).map(|n| n.text.as_str()) == Some(":")
                && t.get(i + 3).map(|n| n.text.as_str()) == Some("<"));
        if !is_call || name == caller {
            continue;
        }
        if i > start && t[i - 1].text == "fn" {
            continue;
        }
        if idx.is_fn_in(krate, name) {
            out.push((name.to_string(), t[i].line));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::SymbolIndex;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let units: Vec<FileUnit> = files
            .iter()
            .map(|(rel, src)| FileUnit::analyze(rel, src))
            .collect();
        let idx = SymbolIndex::build(&units);
        CallGraph::build(&units, &idx)
    }

    #[test]
    fn direct_and_method_calls_resolve_within_the_crate() {
        let g = graph_of(&[(
            "crates/core/src/x.rs",
            "fn leaf() {}\n\
             struct S;\n\
             impl S { fn step(&self) { leaf(); } }\n\
             fn run(s: &S) { s.step(); }\n",
        )]);
        let pairs: Vec<(&str, &str)> = g
            .edges
            .iter()
            .map(|e| (e.caller.as_str(), e.callee.as_str()))
            .collect();
        assert_eq!(pairs, vec![("run", "step"), ("step", "leaf")]);
    }

    #[test]
    fn cross_crate_and_unknown_calls_produce_no_edges() {
        let g = graph_of(&[
            ("crates/a/src/lib.rs", "pub fn helper() {}"),
            (
                "crates/b/src/lib.rs",
                "fn local() { helper(); println!(\"x\"); unknown_fn(); }",
            ),
        ]);
        assert!(g.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn edges_resolve_across_files_of_the_same_crate() {
        let g = graph_of(&[
            ("crates/core/src/a.rs", "pub fn observe_all() {}"),
            ("crates/core/src/b.rs", "pub fn drive() { observe_all(); }"),
        ]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.edges[0].caller, "drive");
        assert_eq!(g.edges[0].callee, "observe_all");
        assert_eq!(g.edges[0].file, "crates/core/src/b.rs");
    }

    #[test]
    fn reaching_closes_over_transitive_callers() {
        let g = graph_of(&[(
            "crates/core/src/x.rs",
            "fn sink() {}\nfn mid() { sink(); }\nfn top() { mid(); }\nfn unrelated() {}\n",
        )]);
        let targets: BTreeSet<String> = ["sink".to_string()].into();
        let reach = g.reaching("core", &targets);
        let names: Vec<&str> = reach.iter().map(String::as_str).collect();
        assert_eq!(names, vec!["mid", "sink", "top"]);
    }

    #[test]
    fn macro_invocations_and_recursion_are_skipped() {
        let g = graph_of(&[(
            "crates/core/src/x.rs",
            "fn rec(n: u32) { if n > 0 { rec(n - 1); } assert!(n < 10); }\nfn assert() {}\n",
        )]);
        assert!(g.is_empty(), "{:?}", g.edges);
    }
}

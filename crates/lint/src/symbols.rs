//! The workspace symbol index: every named item the parser recovers, keyed
//! by the crate its file belongs to (derived from the workspace-relative
//! path), plus derived lookup tables the semantic rules need — the set of
//! function/method names per crate (for call-graph resolution) and the set
//! of struct fields declared with an unordered map/set type (so
//! `unordered-iter` can follow a `HashMap` field across files within the
//! same crate).

use crate::lexer::{lex, Lexed, TokenKind};
use crate::parser::{parse_tokens, Item, ItemKind, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// One source file, lexed and parsed once, shared by every analysis pass.
#[derive(Clone, Debug)]
pub struct FileUnit {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The original source (tokens carry byte spans into it).
    pub src: String,
    /// Lex result: tokens + comments.
    pub lexed: Lexed,
    /// Parse result: the item tree.
    pub parsed: ParsedFile,
}

impl FileUnit {
    /// Lexes and parses `src` once.
    pub fn analyze(rel: &str, src: &str) -> FileUnit {
        let lexed = lex(src);
        let parsed = parse_tokens(&lexed.tokens);
        FileUnit {
            rel: rel.to_string(),
            src: src.to_string(),
            lexed,
            parsed,
        }
    }
}

/// The crate a workspace-relative path belongs to: `crates/<name>/...` maps
/// to `<name>`, the root crate's `src/` maps to `huffduff`, everything else
/// (examples, top-level tests) to its first path component.
pub fn crate_of(rel: &str) -> &str {
    if let Some(rest) = rel.strip_prefix("crates/") {
        return rest.split('/').next().unwrap_or(rest);
    }
    if rel.starts_with("src/") || !rel.contains('/') {
        return "huffduff";
    }
    rel.split('/').next().unwrap_or(rel)
}

/// One indexed symbol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Symbol {
    /// The crate the declaring file belongs to.
    pub krate: String,
    /// Declared name.
    pub name: String,
    /// Item kind.
    pub kind: ItemKind,
    /// Declaring file (workspace-relative).
    pub file: String,
    /// 1-indexed declaration line.
    pub line: u32,
    /// For associated items: the impl self-type or trait name.
    pub parent: Option<String>,
}

/// The workspace-wide symbol index.
#[derive(Clone, Debug, Default)]
pub struct SymbolIndex {
    /// Every named symbol, in (crate, file, line) order.
    pub symbols: Vec<Symbol>,
    /// `(crate, fn_name)` for every function/method — the call-graph
    /// resolution table.
    pub fns: BTreeSet<(String, String)>,
    /// `(crate, field_name)` for struct fields whose declared type mentions
    /// `HashMap`/`HashSet` — followed by the `unordered-iter` rule.
    pub unordered_fields: BTreeSet<(String, String)>,
}

impl SymbolIndex {
    /// Builds the index over every analyzed file.
    pub fn build(files: &[FileUnit]) -> SymbolIndex {
        let mut idx = SymbolIndex::default();
        for fu in files {
            let krate = crate_of(&fu.rel).to_string();
            collect_items(&fu.parsed.items, &krate, fu, None, &mut idx);
        }
        idx.symbols
            .sort_by(|a, b| (&a.krate, &a.file, a.line).cmp(&(&b.krate, &b.file, b.line)));
        idx
    }

    /// Is `name` a function or method declared in `krate`?
    pub fn is_fn_in(&self, krate: &str, name: &str) -> bool {
        self.fns.contains(&(krate.to_string(), name.to_string()))
    }

    /// Number of indexed symbols (the JSON summary counter).
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True when nothing was indexed.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Per-crate symbol counts, sorted by crate name (for `--symbols`).
    pub fn per_crate(&self) -> BTreeMap<&str, usize> {
        let mut out = BTreeMap::new();
        for s in &self.symbols {
            *out.entry(s.krate.as_str()).or_insert(0) += 1;
        }
        out
    }
}

fn collect_items(
    items: &[Item],
    krate: &str,
    fu: &FileUnit,
    parent: Option<&str>,
    idx: &mut SymbolIndex,
) {
    for it in items {
        if let Some(name) = &it.name {
            idx.symbols.push(Symbol {
                krate: krate.to_string(),
                name: name.clone(),
                kind: it.kind,
                file: fu.rel.clone(),
                line: it.line,
                parent: parent.map(str::to_string),
            });
            if it.kind == ItemKind::Fn {
                idx.fns.insert((krate.to_string(), name.clone()));
            }
            if it.kind == ItemKind::Struct {
                for field in unordered_fields_of(it, fu) {
                    idx.unordered_fields.insert((krate.to_string(), field));
                }
            }
        }
        let next_parent = match it.kind {
            // Methods hang off the impl self-type (or the trait name).
            ItemKind::Impl => it.name.as_deref().or(it.trait_name.as_deref()),
            ItemKind::Trait => it.name.as_deref(),
            _ => parent,
        };
        collect_items(&it.children, krate, fu, next_parent, idx);
    }
}

/// Field names in a struct body declared with a `HashMap`/`HashSet` type:
/// scans `name : ... HashMap ... ,` entries in the body token range.
fn unordered_fields_of(it: &Item, fu: &FileUnit) -> Vec<String> {
    let Some((body_start, body_end)) = it.body else {
        return Vec::new();
    };
    let t = &fu.lexed.tokens;
    let mut out = Vec::new();
    let mut i = body_start;
    while i < body_end.min(t.len()) {
        // A field entry: `ident :` at angle-depth 0, value type up to the
        // `,` at depth 0 (or the body end).
        if t[i].kind == TokenKind::Ident && i + 1 < body_end && t[i + 1].text == ":" {
            let name = t[i].text.clone();
            let mut j = i + 2;
            let mut depth = 0i32;
            let mut unordered = false;
            while j < body_end.min(t.len()) {
                match t[j].text.as_str() {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => depth -= 1,
                    "," if depth <= 0 => break,
                    "HashMap" | "HashSet" => unordered = true,
                    _ => {}
                }
                j += 1;
            }
            if unordered {
                out.push(name);
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// Renders the human-readable symbol listing (the binary's `--symbols`
/// mode): per-crate counts, then every symbol as `crate file:line kind
/// [parent::]name`.
pub fn render(idx: &SymbolIndex) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (krate, n) in idx.per_crate() {
        let _ = writeln!(out, "{krate}: {n} symbol(s)");
    }
    for s in &idx.symbols {
        let parent = s
            .parent
            .as_deref()
            .map(|p| format!("{p}::"))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  {} {}:{} {:?} {parent}{}",
            s.krate, s.file, s.line, s.kind, s.name
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_maps_workspace_layout() {
        assert_eq!(crate_of("crates/pool/src/lib.rs"), "pool");
        assert_eq!(crate_of("crates/core/src/channel.rs"), "core");
        assert_eq!(crate_of("src/main.rs"), "huffduff");
        assert_eq!(crate_of("examples/steal_vgg.rs"), "examples");
    }

    #[test]
    fn index_records_fns_methods_and_parents() {
        let fu = FileUnit::analyze(
            "crates/core/src/x.rs",
            "pub fn free() {}\n\
             pub struct S;\n\
             impl S {\n    pub fn method(&self) {}\n}\n\
             impl Display for S {\n    fn fmt(&self) {}\n}\n",
        );
        let idx = SymbolIndex::build(&[fu]);
        assert!(idx.is_fn_in("core", "free"));
        assert!(idx.is_fn_in("core", "method"));
        assert!(idx.is_fn_in("core", "fmt"));
        assert!(!idx.is_fn_in("pool", "free"), "crate-scoped");
        let method = idx
            .symbols
            .iter()
            .find(|s| s.name == "method")
            .expect("indexed");
        assert_eq!(method.parent.as_deref(), Some("S"));
    }

    #[test]
    fn unordered_struct_fields_are_recorded_per_crate() {
        let fu = FileUnit::analyze(
            "crates/trace/src/t.rs",
            "pub struct Cache {\n\
                 pub capacity_of: std::collections::HashMap<u64, u64>,\n\
                 pub names: Vec<String>,\n\
                 seen: HashSet<u32>,\n\
             }\n",
        );
        let idx = SymbolIndex::build(&[fu]);
        let fields: Vec<&str> = idx
            .unordered_fields
            .iter()
            .map(|(_, f)| f.as_str())
            .collect();
        assert_eq!(fields, vec!["capacity_of", "seen"]);
        assert!(idx.unordered_fields.iter().all(|(k, _)| k == "trace"));
    }

    #[test]
    fn per_crate_counts_are_sorted_and_render_is_stable() {
        let a = FileUnit::analyze("crates/b/src/lib.rs", "pub fn one() {}");
        let b = FileUnit::analyze("crates/a/src/lib.rs", "pub fn two() {}\npub struct T;");
        let idx = SymbolIndex::build(&[a, b]);
        let counts: Vec<(&str, usize)> = idx.per_crate().into_iter().collect();
        assert_eq!(counts, vec![("a", 2), ("b", 1)]);
        let text = render(&idx);
        assert!(text.contains("a: 2 symbol(s)"), "{text}");
        assert!(text.contains("crates/b/src/lib.rs:1"), "{text}");
    }
}

//! A lightweight recursive-descent *item* parser over the [`crate::lexer`]
//! token stream: functions, type definitions, impl blocks (with their
//! methods), trait definitions, modules, `use` trees, constants, and
//! macro invocations — each with its attributes and its exact byte span in
//! the original source.
//!
//! Like the lexer it is built on, the parser is deliberately **forgiving**:
//! it never fails and never panics. Anything it cannot classify is consumed
//! as an [`ItemKind::Other`] item (skipped to the next `;` or past one
//! balanced `{...}` body), so a rare misparse costs one item's structure,
//! never a cascade or a crash. This is enough structure for the semantic
//! rule pack ([`crate::semantic`]): rules need to know *which function* a
//! token lives in, what a file declares, and where bodies start and end —
//! not full expression trees.
//!
//! Spans are **byte offsets** into the source and round-trip by
//! construction: `&src[item.span.start..item.span.end]` is exactly the
//! text the item was parsed from (property-tested in
//! `crates/lint/tests/parser_props.rs`).

use crate::lexer::{lex, Token, TokenKind};

/// Half-open byte range `[start, end)` in the original source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the item's first token.
    pub start: usize,
    /// Byte offset one past the item's last token.
    pub end: usize,
}

impl Span {
    /// The spanned source slice, when the span lies on char boundaries
    /// (always true for spans produced by the parser).
    pub fn slice<'s>(&self, src: &'s str) -> Option<&'s str> {
        src.get(self.start..self.end)
    }
}

/// What kind of item was parsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn name(...) { ... }` (free function, method, or trait fn).
    Fn,
    /// `struct Name ...`
    Struct,
    /// `enum Name { ... }`
    Enum,
    /// `union Name { ... }`
    Union,
    /// `trait Name { ... }` — children are the trait items.
    Trait,
    /// `impl Type { ... }` / `impl Trait for Type { ... }` — children are
    /// the associated items.
    Impl,
    /// `mod name { ... }` or `mod name;` — children are the body items.
    Mod,
    /// `use path::{...};`
    Use,
    /// `extern crate name;`
    ExternCrate,
    /// `const NAME: T = ...;`
    Const,
    /// `static NAME: T = ...;`
    Static,
    /// `type Name = ...;`
    TypeAlias,
    /// `macro_rules! name { ... }` or an item-position `name!(...)`.
    Macro,
    /// Anything the parser could not classify (consumed forgivingly).
    Other,
}

/// One parsed item.
#[derive(Clone, Debug)]
pub struct Item {
    /// The item's kind.
    pub kind: ItemKind,
    /// Declared name: the fn/type/mod/const name, the self-type path
    /// segment for impls, the alias (or last segment) for `use`.
    pub name: Option<String>,
    /// For `impl Trait for Type`, the trait path's last segment.
    pub trait_name: Option<String>,
    /// Exact byte span in the source (attributes included).
    pub span: Span,
    /// 1-indexed line the item starts on (its first attribute).
    pub line: u32,
    /// 1-indexed line the item ends on.
    pub end_line: u32,
    /// First path segment of each attribute (`cfg`, `derive`,
    /// `deprecated`, `test`, ...), in source order.
    pub attrs: Vec<String>,
    /// Token-index range (exclusive) of the braced body's interior, when
    /// the item has one — indices into the token slice the file was
    /// parsed from.
    pub body: Option<(usize, usize)>,
    /// Nested items: mod bodies, impl/trait associated items.
    pub children: Vec<Item>,
}

impl Item {
    /// Does this item (or an ancestor attribute set) carry `#[attr]`?
    pub fn has_attr(&self, attr: &str) -> bool {
        self.attrs.iter().any(|a| a == attr)
    }
}

/// The parse result of one source file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl ParsedFile {
    /// Depth-first walk over all items, outer items before their children.
    pub fn walk(&self) -> Vec<&Item> {
        let mut out = Vec::new();
        fn rec<'a>(items: &'a [Item], out: &mut Vec<&'a Item>) {
            for it in items {
                out.push(it);
                rec(&it.children, out);
            }
        }
        rec(&self.items, &mut out);
        out
    }

    /// The innermost `fn` item whose line range contains `line`, if any.
    pub fn enclosing_fn(&self, line: u32) -> Option<&Item> {
        let mut best: Option<&Item> = None;
        for it in self.walk() {
            if it.kind == ItemKind::Fn && it.line <= line && line <= it.end_line {
                let better = match best {
                    None => true,
                    // Innermost = latest start among containers.
                    Some(b) => it.line >= b.line,
                };
                if better {
                    best = Some(it);
                }
            }
        }
        best
    }
}

/// Parses `src` into items (lexes internally). Never fails.
pub fn parse(src: &str) -> ParsedFile {
    parse_tokens(&lex(src).tokens)
}

/// Parses an already-lexed token slice into items. Body token ranges index
/// into `tokens`. Never fails.
pub fn parse_tokens(tokens: &[Token]) -> ParsedFile {
    let mut p = Parser {
        t: tokens,
        pos: 0,
        lim: tokens.len(),
    };
    ParsedFile {
        items: p.items(usize::MAX),
    }
}

/// Keywords that can begin (or modify) an item; used to recover cleanly
/// from unparseable stretches.
const MODIFIERS: [&str; 5] = ["pub", "default", "unsafe", "async", "auto"];

struct Parser<'t> {
    t: &'t [Token],
    pos: usize,
    /// Hard token limit: while parsing the interior of a braced parent,
    /// `lim` is the index of the parent's closing `}` so no child scan —
    /// however confused by garbage — can consume past it (which would
    /// produce child spans escaping the parent span).
    lim: usize,
}

impl<'t> Parser<'t> {
    fn text(&self, at: usize) -> &str {
        if at >= self.lim {
            return "";
        }
        self.t.get(at).map(|t| t.text.as_str()).unwrap_or("")
    }

    fn kind(&self, at: usize) -> Option<TokenKind> {
        if at >= self.lim {
            return None;
        }
        self.t.get(at).map(|t| t.kind)
    }

    fn eof(&self) -> bool {
        self.pos >= self.lim.min(self.t.len())
    }

    /// Parses items until `}` (when nested) or EOF; `stop` is the index of
    /// the closing brace's matching region (use `usize::MAX` at top level).
    fn items(&mut self, stop: usize) -> Vec<Item> {
        let mut out = Vec::new();
        while !self.eof() && self.pos < stop {
            if self.text(self.pos) == "}" {
                break;
            }
            let before = self.pos;
            if let Some(item) = self.item() {
                out.push(item);
            }
            if self.pos == before {
                // Forgiving: never spin on a token we cannot start from.
                self.pos += 1;
            }
        }
        out
    }

    /// Parses one item starting at the current position, or returns `None`
    /// (without consuming) when the position cannot start an item.
    fn item(&mut self) -> Option<Item> {
        let start_idx = self.pos;
        let mut attrs = Vec::new();

        // Leading attributes: `#[...]` and inner `#![...]`.
        while self.text(self.pos) == "#" {
            let mut j = self.pos + 1;
            if self.text(j) == "!" {
                j += 1;
            }
            if self.text(j) != "[" {
                break;
            }
            if let Some(name) = self.t.get(j + 1) {
                if name.kind == TokenKind::Ident {
                    attrs.push(name.text.clone());
                }
            }
            self.pos = self.skip_balanced(j, "[", "]");
        }

        // Visibility and item modifiers (any order, all optional).
        loop {
            match self.text(self.pos) {
                "pub" => {
                    self.pos += 1;
                    if self.text(self.pos) == "(" {
                        self.pos = self.skip_balanced(self.pos, "(", ")");
                    }
                }
                "default" | "unsafe" | "async" | "auto" => self.pos += 1,
                "extern" => {
                    if self.text(self.pos + 1) == "crate" {
                        // `extern crate name;`
                        self.pos += 2;
                        let name = self.ident_here();
                        self.scan_to_semi();
                        return Some(self.finish(
                            start_idx,
                            ItemKind::ExternCrate,
                            name,
                            None,
                            attrs,
                            None,
                            Vec::new(),
                        ));
                    }
                    self.pos += 1;
                    if self.kind(self.pos) == Some(TokenKind::Str) {
                        self.pos += 1;
                    }
                    if self.text(self.pos) == "{" {
                        // Foreign block `extern "C" { ... }`: opaque.
                        let body = self.brace_body();
                        return Some(self.finish(
                            start_idx,
                            ItemKind::Other,
                            None,
                            None,
                            attrs,
                            body,
                            Vec::new(),
                        ));
                    }
                }
                "const" => {
                    // `const fn` is a modifier; `const NAME` is an item.
                    if self.text(self.pos + 1) == "fn"
                        || MODIFIERS.contains(&self.text(self.pos + 1))
                        || self.text(self.pos + 1) == "extern"
                    {
                        self.pos += 1;
                    } else {
                        self.pos += 1;
                        let name = self.ident_here();
                        self.scan_to_semi();
                        return Some(self.finish(
                            start_idx,
                            ItemKind::Const,
                            name,
                            None,
                            attrs,
                            None,
                            Vec::new(),
                        ));
                    }
                }
                _ => break,
            }
        }

        match self.text(self.pos) {
            "fn" => {
                self.pos += 1;
                let name = self.ident_here();
                let body = self.signature_then_body();
                Some(self.finish(start_idx, ItemKind::Fn, name, None, attrs, body, Vec::new()))
            }
            kw @ ("struct" | "enum" | "union") => {
                let kind = match kw {
                    "struct" => ItemKind::Struct,
                    "enum" => ItemKind::Enum,
                    _ => ItemKind::Union,
                };
                self.pos += 1;
                let name = self.ident_here();
                let body = self.signature_then_body();
                Some(self.finish(start_idx, kind, name, None, attrs, body, Vec::new()))
            }
            "trait" => {
                self.pos += 1;
                let name = self.ident_here();
                let (body, children) = self.braced_items();
                Some(self.finish(
                    start_idx,
                    ItemKind::Trait,
                    name,
                    None,
                    attrs,
                    body,
                    children,
                ))
            }
            "impl" => {
                self.pos += 1;
                let (name, trait_name) = self.impl_header();
                let (body, children) = self.braced_items();
                Some(self.finish(
                    start_idx,
                    ItemKind::Impl,
                    name,
                    trait_name,
                    attrs,
                    body,
                    children,
                ))
            }
            "mod" => {
                self.pos += 1;
                let name = self.ident_here();
                if self.text(self.pos) == ";" {
                    self.pos += 1;
                    return Some(self.finish(
                        start_idx,
                        ItemKind::Mod,
                        name,
                        None,
                        attrs,
                        None,
                        Vec::new(),
                    ));
                }
                let (body, children) = self.braced_items();
                Some(self.finish(start_idx, ItemKind::Mod, name, None, attrs, body, children))
            }
            "use" => {
                self.pos += 1;
                let name = self.use_name();
                Some(self.finish(
                    start_idx,
                    ItemKind::Use,
                    name,
                    None,
                    attrs,
                    None,
                    Vec::new(),
                ))
            }
            "static" => {
                self.pos += 1;
                if self.text(self.pos) == "mut" {
                    self.pos += 1;
                }
                let name = self.ident_here();
                self.scan_to_semi();
                Some(self.finish(
                    start_idx,
                    ItemKind::Static,
                    name,
                    None,
                    attrs,
                    None,
                    Vec::new(),
                ))
            }
            "type" => {
                self.pos += 1;
                let name = self.ident_here();
                self.scan_to_semi();
                Some(self.finish(
                    start_idx,
                    ItemKind::TypeAlias,
                    name,
                    None,
                    attrs,
                    None,
                    Vec::new(),
                ))
            }
            "macro_rules" => {
                self.pos += 1; // `macro_rules`
                if self.text(self.pos) == "!" {
                    self.pos += 1;
                }
                let name = self.ident_here();
                let body = self.brace_body();
                Some(self.finish(
                    start_idx,
                    ItemKind::Macro,
                    name,
                    None,
                    attrs,
                    body,
                    Vec::new(),
                ))
            }
            _ => {
                // Item-position macro invocation: `name!(...)` / `name! { ... }`.
                if self.kind(self.pos) == Some(TokenKind::Ident) && self.text(self.pos + 1) == "!" {
                    let name = self.ident_here();
                    self.pos += 1; // `!`
                    let body = match self.text(self.pos) {
                        "{" => self.brace_body(),
                        "(" => {
                            self.pos = self.skip_balanced(self.pos, "(", ")");
                            if self.text(self.pos) == ";" {
                                self.pos += 1;
                            }
                            None
                        }
                        "[" => {
                            self.pos = self.skip_balanced(self.pos, "[", "]");
                            if self.text(self.pos) == ";" {
                                self.pos += 1;
                            }
                            None
                        }
                        _ => None,
                    };
                    return Some(self.finish(
                        start_idx,
                        ItemKind::Macro,
                        name,
                        None,
                        attrs,
                        body,
                        Vec::new(),
                    ));
                }
                if self.pos > start_idx {
                    // We consumed attributes/modifiers but found no item
                    // keyword: recover as Other so the span stays honest.
                    self.scan_to_semi_or_body();
                    return Some(self.finish(
                        start_idx,
                        ItemKind::Other,
                        None,
                        None,
                        attrs,
                        None,
                        Vec::new(),
                    ));
                }
                None
            }
        }
    }

    /// The identifier at the current position, consumed; `None` when the
    /// next token is not an identifier (forgiving).
    fn ident_here(&mut self) -> Option<String> {
        match self.t.get(self.pos) {
            Some(t) if t.kind == TokenKind::Ident => {
                self.pos += 1;
                Some(t.text.clone())
            }
            _ => None,
        }
    }

    /// Skips a signature (generics, params, return type, where clause) up
    /// to its `{` body or terminating `;`, then consumes the body if
    /// present. Returns the body's interior token range.
    fn signature_then_body(&mut self) -> Option<(usize, usize)> {
        let mut depth = 0i32;
        while !self.eof() {
            match self.text(self.pos) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth <= 0 => return self.brace_body(),
                ";" if depth <= 0 => {
                    self.pos += 1;
                    return None;
                }
                _ => {}
            }
            self.pos += 1;
        }
        None
    }

    /// Consumes a `{ ... }` starting at the current position (if present)
    /// and returns the interior token-index range.
    fn brace_body(&mut self) -> Option<(usize, usize)> {
        if self.text(self.pos) != "{" {
            return None;
        }
        let open = self.pos;
        self.pos = self.skip_balanced(open, "{", "}");
        // Interior excludes both braces; `pos` sits just past the `}`.
        Some((open + 1, self.pos.saturating_sub(1)))
    }

    /// Like [`Parser::signature_then_body`], but parses the body interior
    /// as nested items (for traits, impls, and modules).
    fn braced_items(&mut self) -> (Option<(usize, usize)>, Vec<Item>) {
        // Scan the header up to `{` or `;`.
        let mut depth = 0i32;
        while !self.eof() {
            match self.text(self.pos) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth <= 0 => break,
                ";" if depth <= 0 => {
                    self.pos += 1;
                    return (None, Vec::new());
                }
                _ => {}
            }
            self.pos += 1;
        }
        if self.text(self.pos) != "{" {
            return (None, Vec::new());
        }
        let open = self.pos;
        let close = self.skip_balanced(open, "{", "}"); // index just past `}`
        self.pos = open + 1;
        // Children parse under a clamped limit: nothing inside the body can
        // scan past the parent's closing brace.
        let saved_lim = self.lim;
        self.lim = close.saturating_sub(1).min(saved_lim);
        let children = self.items(close.saturating_sub(1));
        self.lim = saved_lim;
        self.pos = close;
        (Some((open + 1, close.saturating_sub(1))), children)
    }

    /// Extracts `(self_type, trait_name)` from an impl header, consuming
    /// tokens up to (not including) the `{` or `;`.
    fn impl_header(&mut self) -> (Option<String>, Option<String>) {
        let mut depth = 0i32;
        let mut last_ident: Option<String> = None;
        let mut trait_name: Option<String> = None;
        while !self.eof() {
            let txt = self.text(self.pos);
            match txt {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" | ";" if depth <= 0 => break,
                "for" if depth <= 0 => {
                    trait_name = last_ident.take();
                }
                "where" if depth <= 0 => {
                    // Type path is complete; keep scanning to the brace.
                }
                _ => {
                    if self.kind(self.pos) == Some(TokenKind::Ident)
                        && !matches!(txt, "dyn" | "mut" | "as")
                    {
                        last_ident = Some(txt.to_string());
                    }
                }
            }
            self.pos += 1;
        }
        (last_ident, trait_name)
    }

    /// The declared name of a `use` item: the alias after the last `as`,
    /// else the last path segment; consumes through the `;`.
    fn use_name(&mut self) -> Option<String> {
        let mut brace = 0i32;
        let mut last_as: Option<String> = None;
        let mut last_ident: Option<String> = None;
        while !self.eof() {
            let txt = self.text(self.pos);
            match txt {
                "{" => brace += 1,
                "}" => brace -= 1,
                ";" if brace <= 0 => {
                    self.pos += 1;
                    break;
                }
                "as" => {
                    if let Some(t) = self.t.get(self.pos + 1) {
                        if t.kind == TokenKind::Ident {
                            last_as = Some(t.text.clone());
                        }
                    }
                }
                _ => {
                    if self.kind(self.pos) == Some(TokenKind::Ident) && txt != "as" {
                        last_ident = Some(txt.to_string());
                    }
                }
            }
            self.pos += 1;
        }
        last_as.or(last_ident)
    }

    /// Consumes through the next `;` at bracket depth 0 (for declaration
    /// items whose initializer may contain braces, e.g. `const X: [u8; 2]
    /// = { ... };`).
    fn scan_to_semi(&mut self) {
        let mut depth = 0i32;
        while !self.eof() {
            match self.text(self.pos) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" => {
                    self.pos = self.skip_balanced(self.pos, "{", "}");
                    continue;
                }
                ";" if depth <= 0 => {
                    self.pos += 1;
                    return;
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Forgiving recovery: consume to the next `;` at depth 0, or through
    /// one balanced `{...}` body, whichever comes first.
    fn scan_to_semi_or_body(&mut self) {
        let mut depth = 0i32;
        while !self.eof() {
            match self.text(self.pos) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth <= 0 => {
                    self.pos = self.skip_balanced(self.pos, "{", "}");
                    return;
                }
                ";" if depth <= 0 => {
                    self.pos += 1;
                    return;
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Index just past the token matching the `open` at index `at`.
    fn skip_balanced(&self, at: usize, open: &str, close: &str) -> usize {
        let mut j = at;
        let mut depth = 0i32;
        while j < self.lim.min(self.t.len()) {
            let txt = self.text(j);
            if txt == open {
                depth += 1;
            } else if txt == close {
                depth -= 1;
                if depth <= 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        j
    }

    /// Builds the item with its span from `start_idx` to the last consumed
    /// token.
    #[expect(
        clippy::too_many_arguments,
        reason = "internal constructor, one call site per item kind"
    )]
    fn finish(
        &self,
        start_idx: usize,
        kind: ItemKind,
        name: Option<String>,
        trait_name: Option<String>,
        attrs: Vec<String>,
        body: Option<(usize, usize)>,
        children: Vec<Item>,
    ) -> Item {
        let first = self.t.get(start_idx);
        let last = self.t.get(self.pos.saturating_sub(1)).or(first);
        Item {
            kind,
            name,
            trait_name,
            span: Span {
                start: first.map(|t| t.start).unwrap_or(0),
                end: last.map(|t| t.end).unwrap_or(0),
            },
            line: first.map(|t| t.line).unwrap_or(1),
            end_line: last.map(|t| t.line).unwrap_or(1),
            attrs,
            body,
            children,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(items: &[Item]) -> Vec<(&str, ItemKind)> {
        items
            .iter()
            .map(|i| (i.name.as_deref().unwrap_or("?"), i.kind))
            .collect()
    }

    #[test]
    fn top_level_items_with_names_and_kinds() {
        let src = "use std::sync::Mutex;\n\
                   pub struct Foo { x: u32 }\n\
                   pub enum E { A, B }\n\
                   const LIMIT: usize = 4;\n\
                   static COUNT: u64 = 0;\n\
                   pub type Alias = Vec<u8>;\n\
                   pub fn run(x: u32) -> u32 { x + 1 }\n";
        let p = parse(src);
        assert_eq!(
            names(&p.items),
            vec![
                ("Mutex", ItemKind::Use),
                ("Foo", ItemKind::Struct),
                ("E", ItemKind::Enum),
                ("LIMIT", ItemKind::Const),
                ("COUNT", ItemKind::Static),
                ("Alias", ItemKind::TypeAlias),
                ("run", ItemKind::Fn),
            ]
        );
    }

    #[test]
    fn spans_round_trip_to_source_slices() {
        let src = "fn a() { 1 + 1; }\n\npub struct B;\n\nfn c(x: &str) -> usize { x.len() }\n";
        let p = parse(src);
        let slices: Vec<&str> = p
            .items
            .iter()
            .map(|i| i.span.slice(src).expect("span on char boundary"))
            .collect();
        assert_eq!(
            slices,
            vec![
                "fn a() { 1 + 1; }",
                "pub struct B;",
                "fn c(x: &str) -> usize { x.len() }"
            ]
        );
    }

    #[test]
    fn impl_blocks_carry_type_trait_and_methods() {
        let src = "impl Display for Report<'_> {\n\
                       fn fmt(&self, f: &mut Formatter) -> Result { Ok(()) }\n\
                   }\n\
                   impl Report<'_> {\n\
                       pub fn new() -> Self { Report {} }\n\
                       fn helper(&self) {}\n\
                   }\n";
        let p = parse(src);
        assert_eq!(p.items.len(), 2);
        let ti = &p.items[0];
        assert_eq!(ti.kind, ItemKind::Impl);
        assert_eq!(ti.trait_name.as_deref(), Some("Display"));
        assert_eq!(ti.name.as_deref(), Some("Report"));
        assert_eq!(names(&ti.children), vec![("fmt", ItemKind::Fn)]);
        let ii = &p.items[1];
        assert_eq!(ii.trait_name, None);
        assert_eq!(ii.name.as_deref(), Some("Report"));
        assert_eq!(
            names(&ii.children),
            vec![("new", ItemKind::Fn), ("helper", ItemKind::Fn)]
        );
    }

    #[test]
    fn modules_nest_and_attrs_are_recorded() {
        let src = "#[cfg(test)]\nmod tests {\n    use super::*;\n    #[test]\n    fn t() { assert!(true); }\n}\n";
        let p = parse(src);
        assert_eq!(p.items.len(), 1);
        let m = &p.items[0];
        assert_eq!(m.kind, ItemKind::Mod);
        assert_eq!(m.name.as_deref(), Some("tests"));
        assert!(m.has_attr("cfg"));
        assert_eq!(m.children.len(), 2);
        let t = &m.children[1];
        assert_eq!(t.kind, ItemKind::Fn);
        assert!(t.has_attr("test"));
    }

    #[test]
    fn traits_with_default_bodies_and_signatures() {
        let src = "pub trait Model: Sync {\n\
                       fn shape(&self) -> Shape3;\n\
                       fn observe(&self, x: &T) -> R { self.shape(); todo!() }\n\
                   }\n";
        let p = parse(src);
        let t = &p.items[0];
        assert_eq!(t.kind, ItemKind::Trait);
        assert_eq!(t.name.as_deref(), Some("Model"));
        assert_eq!(t.children.len(), 2);
        assert_eq!(t.children[0].body, None, "signature has no body");
        assert!(t.children[1].body.is_some(), "default body recorded");
    }

    #[test]
    fn const_fn_and_modifiers_parse_as_fns() {
        let src = "pub const fn k() -> usize { 4 }\n\
                   pub unsafe fn u(p: *const u8) -> u8 { *p }\n\
                   pub async fn a() {}\n\
                   extern \"C\" fn c() {}\n";
        let p = parse(src);
        let kinds: Vec<ItemKind> = p.items.iter().map(|i| i.kind).collect();
        assert_eq!(kinds, vec![ItemKind::Fn; 4]);
        assert_eq!(p.items[0].name.as_deref(), Some("k"));
    }

    #[test]
    fn macro_invocations_and_macro_rules() {
        let src = "macro_rules! gen { () => {}; }\nthread_local! { static X: u8 = 0; }\n";
        let p = parse(src);
        assert_eq!(
            names(&p.items),
            vec![("gen", ItemKind::Macro), ("thread_local", ItemKind::Macro)]
        );
    }

    #[test]
    fn enclosing_fn_finds_the_innermost_function() {
        let src = "fn outer() {\n    let x = 1;\n}\n\nmod m {\n    fn inner() {\n        let y = 2;\n    }\n}\n";
        let p = parse(src);
        assert_eq!(
            p.enclosing_fn(2).map(|i| i.name.as_deref()),
            Some(Some("outer"))
        );
        assert_eq!(
            p.enclosing_fn(7).map(|i| i.name.as_deref()),
            Some(Some("inner"))
        );
        assert!(p.enclosing_fn(4).is_none(), "blank line between items");
    }

    #[test]
    fn use_aliases_prefer_the_as_name() {
        let p = parse("pub use crate::boundary_obs as observability;\nuse std::collections::{BTreeMap, BTreeSet};\n");
        assert_eq!(p.items[0].name.as_deref(), Some("observability"));
        // Grouped imports keep the last segment (good enough for the index).
        assert_eq!(p.items[1].kind, ItemKind::Use);
    }

    #[test]
    fn parser_never_panics_on_garbage() {
        for src in [
            "",
            "}}}}",
            "fn",
            "fn (",
            "impl {",
            "struct ;;;",
            "#[cfg(",
            "pub pub pub",
            "fn f( { ) }",
            "trait T { fn",
            "\u{1F600} fn g() {}",
            "macro_rules!",
            "extern \"C\" {",
        ] {
            let _ = parse(src);
        }
    }

    #[test]
    fn forgiving_recovery_keeps_later_items() {
        // An unparseable stretch must not swallow the following fn.
        let src = "gibberish tokens ; fn real() {}\n";
        let p = parse(src);
        assert!(p
            .items
            .iter()
            .any(|i| i.kind == ItemKind::Fn && i.name.as_deref() == Some("real")));
    }
}

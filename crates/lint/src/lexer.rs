//! A hand-rolled Rust lexer: just enough token structure for the rule
//! engine — identifiers, punctuation, literals, and comments with line
//! positions — in the same vendored-parser spirit as `hd_obs::json`.
//!
//! The lexer is deliberately forgiving: it never fails, and anything it
//! cannot classify becomes a single-character [`TokenKind::Punct`]. Rules
//! match short token sequences (`.` `unwrap` `(`), so a rare misparse can
//! only cost a match, never a crash or a cascade.

/// Classification of one token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unwrap`, `as`, `fn`, `r#type`).
    Ident,
    /// Numeric literal (integers and floats, any base).
    Number,
    /// String literal (plain, raw, byte, raw-byte). Contents dropped.
    Str,
    /// Character or byte-character literal. Contents dropped.
    Char,
    /// Lifetime (`'a`, `'_`, `'static`).
    Lifetime,
    /// Any single other character (`.`, `:`, `!`, braces, operators).
    Punct,
}

/// One token with its source position (1-indexed line and column) and its
/// byte span in the original source.
#[derive(Clone, Debug)]
pub struct Token {
    /// What kind of token.
    pub kind: TokenKind,
    /// Token text for idents and puncts; empty for literals.
    pub text: String,
    /// 1-indexed source line.
    pub line: u32,
    /// 1-indexed source column (byte offset within the line).
    pub col: u32,
    /// Byte offset of the token's first byte in the source.
    pub start: usize,
    /// Byte offset one past the token's last byte (so `src[start..end]`
    /// is the token's exact source text, literals included).
    pub end: usize,
}

/// One comment (line `//...` or block `/* ... */`) with its start line.
#[derive(Clone, Debug)]
pub struct Comment {
    /// Comment text without the `//` / `/* */` markers, trimmed.
    pub text: String,
    /// 1-indexed line the comment starts on.
    pub line: u32,
}

/// The full lexing result: code tokens and comments, both in source order.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Code tokens (comments and whitespace removed).
    pub tokens: Vec<Token>,
    /// Comments, including doc comments.
    pub comments: Vec<Comment>,
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn eat_while(&mut self, pred: impl Fn(u8) -> bool) -> (usize, usize) {
        let start = self.pos;
        while self.peek(0).map(&pred).unwrap_or(false) {
            self.bump();
        }
        (start, self.pos)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into tokens and comments. Never fails.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor::new(src);
    let mut out = Lexed::default();
    while let Some(b) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        let tok_start = cur.pos;
        match b {
            b if b.is_ascii_whitespace() => {
                cur.bump();
            }
            b'/' if cur.peek(1) == Some(b'/') => {
                let (start, end) = cur.eat_while(|b| b != b'\n');
                out.comments.push(Comment {
                    text: text_of(src, start, end)
                        .trim_start_matches('/')
                        .trim_start_matches('!')
                        .trim()
                        .to_string(),
                    line,
                });
            }
            b'/' if cur.peek(1) == Some(b'*') => {
                let start = cur.pos;
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                out.comments.push(Comment {
                    text: text_of(src, start, cur.pos)
                        .trim_start_matches("/*")
                        .trim_end_matches("*/")
                        .trim()
                        .to_string(),
                    line,
                });
            }
            b'r' | b'b' if starts_string(&cur) => {
                skip_string_like(&mut cur);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text: String::new(),
                    line,
                    col,
                    start: tok_start,
                    end: cur.pos,
                });
            }
            b'"' => {
                skip_plain_string(&mut cur);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text: String::new(),
                    line,
                    col,
                    start: tok_start,
                    end: cur.pos,
                });
            }
            b'\'' => {
                let kind = skip_char_or_lifetime(&mut cur);
                out.tokens.push(Token {
                    kind,
                    text: String::new(),
                    line,
                    col,
                    start: tok_start,
                    end: cur.pos,
                });
            }
            b if is_ident_start(b) => {
                let (start, end) = cur.eat_while(is_ident_continue);
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: text_of(src, start, end).to_string(),
                    line,
                    col,
                    start,
                    end,
                });
            }
            b if b.is_ascii_digit() => {
                let start = cur.pos;
                cur.eat_while(|b| b.is_ascii_alphanumeric() || b == b'_');
                // Float continuation: `1.5`, `1.5e-3` — but not `0..n`.
                if cur.peek(0) == Some(b'.')
                    && cur.peek(1).map(|b| b.is_ascii_digit()) == Some(true)
                {
                    cur.bump();
                    cur.eat_while(|b| b.is_ascii_alphanumeric() || b == b'_');
                    // Exponent sign: `1.5e-3`.
                    if cur.peek(0) == Some(b'-') || cur.peek(0) == Some(b'+') {
                        let prev = src.as_bytes().get(cur.pos.wrapping_sub(1)).copied();
                        if prev == Some(b'e') || prev == Some(b'E') {
                            cur.bump();
                            cur.eat_while(|b| b.is_ascii_digit());
                        }
                    }
                }
                let end = cur.pos;
                out.tokens.push(Token {
                    kind: TokenKind::Number,
                    text: text_of(src, start, end).to_string(),
                    line,
                    col,
                    start,
                    end,
                });
            }
            other => {
                cur.bump();
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: (other as char).to_string(),
                    line,
                    col,
                    start: tok_start,
                    end: cur.pos,
                });
            }
        }
    }
    out
}

fn text_of(src: &str, start: usize, end: usize) -> &str {
    src.get(start..end).unwrap_or("")
}

/// Is the cursor (on `r` or `b`) at the start of a string-like literal,
/// rather than a plain identifier? Raw identifiers (`r#type`) return false.
fn starts_string(cur: &Cursor<'_>) -> bool {
    match (cur.peek(0), cur.peek(1)) {
        (Some(b'r'), Some(b'"')) => true,
        (Some(b'r'), Some(b'#')) => {
            // r#"..." is a raw string; r#ident is a raw identifier.
            let mut i = 1;
            while cur.peek(i) == Some(b'#') {
                i += 1;
            }
            cur.peek(i) == Some(b'"')
        }
        (Some(b'b'), Some(b'"')) | (Some(b'b'), Some(b'\'')) => true,
        (Some(b'b'), Some(b'r')) => match cur.peek(2) {
            Some(b'"') => true,
            Some(b'#') => {
                let mut i = 2;
                while cur.peek(i) == Some(b'#') {
                    i += 1;
                }
                cur.peek(i) == Some(b'"')
            }
            _ => false,
        },
        _ => false,
    }
}

/// Skips a string-like literal starting at `r`/`b` (raw, byte, raw-byte
/// strings and byte chars).
fn skip_string_like(cur: &mut Cursor<'_>) {
    // Consume the prefix letters.
    while matches!(cur.peek(0), Some(b'r') | Some(b'b')) {
        cur.bump();
    }
    let mut hashes = 0usize;
    while cur.peek(0) == Some(b'#') {
        hashes += 1;
        cur.bump();
    }
    match cur.peek(0) {
        Some(b'"') => {
            cur.bump();
            if hashes == 0 {
                // Non-raw (b"..."): escapes active only without hashes and
                // without an `r` in the prefix — but since we no longer know
                // the prefix, treat 0-hash as escape-aware; raw strings
                // rarely contain backslash-quote sequences that would differ.
                skip_until_quote_with_escapes(cur);
            } else {
                // Raw: ends at `"` followed by `hashes` hashes.
                loop {
                    match cur.bump() {
                        None => break,
                        Some(b'"') => {
                            let mut ok = true;
                            for i in 0..hashes {
                                if cur.peek(i) != Some(b'#') {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                for _ in 0..hashes {
                                    cur.bump();
                                }
                                break;
                            }
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        Some(b'\'') => {
            // Byte char b'x'.
            cur.bump();
            if cur.peek(0) == Some(b'\\') {
                cur.bump();
                cur.bump();
            } else {
                cur.bump();
            }
            if cur.peek(0) == Some(b'\'') {
                cur.bump();
            }
        }
        _ => {}
    }
}

fn skip_plain_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    skip_until_quote_with_escapes(cur);
}

fn skip_until_quote_with_escapes(cur: &mut Cursor<'_>) {
    loop {
        match cur.bump() {
            None | Some(b'"') => break,
            Some(b'\\') => {
                cur.bump();
            }
            Some(_) => {}
        }
    }
}

/// Disambiguates `'a` (lifetime) from `'x'` (char literal) and consumes it.
fn skip_char_or_lifetime(cur: &mut Cursor<'_>) -> TokenKind {
    cur.bump(); // the opening '
    match cur.peek(0) {
        Some(b'\\') => {
            // Escaped char literal: '\n', '\'', '\u{...}'.
            cur.bump();
            loop {
                match cur.bump() {
                    None | Some(b'\'') => break,
                    Some(_) => {}
                }
            }
            TokenKind::Char
        }
        Some(_) if cur.peek(1) == Some(b'\'') => {
            cur.bump();
            cur.bump();
            TokenKind::Char
        }
        Some(b) if is_ident_start(b) => {
            cur.eat_while(is_ident_continue);
            TokenKind::Lifetime
        }
        _ => TokenKind::Punct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn basic_tokens_with_positions() {
        let l = lex("let x = a.unwrap();\n");
        let texts: Vec<_> = l.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["let", "x", "=", "a", ".", "unwrap", "(", ")", ";"]
        );
        assert!(l.tokens.iter().all(|t| t.line == 1));
        let unwrap = &l.tokens[5];
        assert_eq!(unwrap.col, 11);
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let l = lex("a(); // hd-lint: allow(lossy-cast) -- reason\nb();");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].line, 1);
        assert!(l.comments[0].text.starts_with("hd-lint:"));
        assert!(idents("// unwrap\nx").iter().all(|t| t != "unwrap"));
    }

    #[test]
    fn block_comments_nest() {
        let l = lex("/* outer /* inner */ still */ x");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(idents("/* a */ real"), vec!["real"]);
        assert_eq!(l.tokens.len(), 1);
    }

    #[test]
    fn strings_hide_their_contents() {
        // None of the panic-words inside literals produce ident tokens.
        let src = r##"let a = "panic! unwrap()"; let b = r#"expect("x")"#; let c = b"panic";"##;
        let ids = idents(src);
        assert!(!ids
            .iter()
            .any(|i| i == "panic" || i == "unwrap" || i == "expect"));
        assert_eq!(ids, vec!["let", "a", "let", "b", "let", "c"]);
    }

    #[test]
    fn raw_identifier_is_an_ident() {
        // r#type lexes as `r` + `#` + `type`? No: starts_string rejects it,
        // so the ident path consumes `r`, then `#` punct, then `type`.
        let ids = idents("let r#type = 1;");
        assert!(ids.contains(&"type".to_string()));
    }

    #[test]
    fn char_vs_lifetime() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn numbers_and_ranges() {
        let l = lex("for i in 0..10 { let f = 1.5e-3; let h = 0xFF_u32; }");
        let nums: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5e-3", "0xFF_u32"]);
        // The range `..` survives as two puncts.
        let dots = l.tokens.iter().filter(|t| t.text == ".").count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn lexer_never_fails_on_garbage() {
        for src in [
            "\"unterminated",
            "'",
            "r#\"open",
            "/* open",
            "\u{1F600} emoji",
        ] {
            let _ = lex(src);
        }
    }
}

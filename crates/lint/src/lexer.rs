//! A minimal Rust lexer, sufficient for the workspace lints.
//!
//! The workspace builds fully offline, so `syn` is not available; this
//! hand-rolled lexer covers exactly what the lint passes need: identifiers,
//! punctuation and literals with correct line numbers, comments stripped
//! from the token stream but doc comments and `picocube-lint:` markers
//! retained as side tables. Nested block comments, raw strings, byte
//! strings, char literals and lifetimes are all handled so that quotes and
//! braces inside them can never desynchronize the parser.

use std::collections::BTreeMap;

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// A lifetime such as `'a` (kept distinct so the apostrophe cannot be
    /// confused with a char literal).
    Lifetime,
    /// String, raw-string, byte-string or char literal.
    Literal,
    /// Numeric literal.
    Num,
    /// Single punctuation character.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Source text (a single character for punctuation).
    pub text: String,
    /// 1-based line on which the token starts.
    pub line: u32,
}

impl Token {
    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.as_bytes() == [c as u8]
    }

    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// For a string literal token, the decoded content (prefix, quotes and
    /// raw-string hashes stripped, common escapes resolved). `None` for
    /// non-string literals such as chars and numbers.
    pub fn str_value(&self) -> Option<String> {
        if self.kind != TokenKind::Literal {
            return None;
        }
        let mut rest = self.text.as_str();
        let mut raw = false;
        while let Some(c) = rest.chars().next() {
            match c {
                'r' => {
                    raw = true;
                    rest = &rest[1..];
                }
                'b' | 'c' => rest = &rest[1..],
                _ => break,
            }
        }
        rest = rest.trim_start_matches('#').trim_end_matches('#');
        let body = rest.strip_prefix('"')?;
        let body = body.strip_suffix('"').unwrap_or(body);
        if raw || !body.contains('\\') {
            return Some(body.to_string());
        }
        let mut out = String::with_capacity(body.len());
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('0') => out.push('\0'),
                Some(other) => out.push(other),
                None => {}
            }
        }
        Some(out)
    }
}

/// Lexer output: the token stream plus the comment-derived side tables.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order, comments and whitespace removed.
    pub tokens: Vec<Token>,
    /// Doc-comment text by 1-based line (`///`, `//!`, `/** */`, `/*! */`).
    pub doc_lines: BTreeMap<u32, String>,
    /// Lint names allowed by a `picocube-lint: allow(...)` marker, by the
    /// 1-based line the marker's comment starts on.
    pub allow_markers: BTreeMap<u32, Vec<String>>,
}

impl Lexed {
    /// Whether a `picocube-lint: allow(code)` marker covers `line`: the
    /// marker sits on the line itself or on the line directly above.
    pub fn allows(&self, code: &str, line: u32) -> bool {
        [line, line.saturating_sub(1)].iter().any(|l| {
            self.allow_markers
                .get(l)
                .is_some_and(|names| names.iter().any(|n| n == code))
        })
    }

    /// Doc text attached to an item starting at `line`: the contiguous run
    /// of doc-comment lines ending directly above it (attribute lines in
    /// between are tolerated by scanning a few lines further up).
    pub fn doc_above(&self, line: u32) -> String {
        let mut doc = String::new();
        let mut l = line.saturating_sub(1);
        let mut gap = 0u32;
        while l > 0 && gap <= 3 {
            if let Some(text) = self.doc_lines.get(&l) {
                doc.insert_str(0, text);
                gap = 0;
            } else {
                gap += 1;
            }
            l -= 1;
        }
        doc
    }
}

/// The marker prefix recognized inside comments. A comment containing
/// `picocube-lint: allow(L1)` suppresses the named lints on its own line
/// and the line that follows it.
pub const ALLOW_MARKER: &str = "picocube-lint: allow(";

fn record_marker(out: &mut Lexed, comment: &str, line: u32) {
    let Some(at) = comment.find(ALLOW_MARKER) else {
        return;
    };
    let rest = &comment[at + ALLOW_MARKER.len()..];
    let Some(close) = rest.find(')') else {
        return;
    };
    let names: Vec<String> = rest[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if !names.is_empty() {
        out.allow_markers.entry(line).or_default().extend(names);
    }
}

/// Lexes `src` into tokens and comment side tables.
///
/// Unterminated strings or comments end the affected literal at EOF rather
/// than failing: the linter must degrade gracefully on code that rustc
/// itself will reject.
pub fn lex(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Byte-level scan; multi-byte UTF-8 only ever appears inside comments,
    // strings and identifiers, and identifiers are ASCII throughout the
    // workspace, so treating non-ASCII bytes as opaque is safe.
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let text = &src[start..i];
                let is_doc = text.starts_with("///") || text.starts_with("//!");
                record_marker(&mut out, text, line);
                if is_doc {
                    let body = text.trim_start_matches(['/', '!']).trim().to_string();
                    let slot = out.doc_lines.entry(line).or_default();
                    slot.push_str(&body);
                    slot.push(' ');
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start_line = line;
                let start = i;
                i += 2;
                let mut depth = 1u32;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let text = &src[start..i.min(src.len())];
                record_marker(&mut out, text, start_line);
                if text.starts_with("/**") || text.starts_with("/*!") {
                    let slot = out.doc_lines.entry(start_line).or_default();
                    slot.push_str(text);
                    slot.push(' ');
                }
            }
            b'"' => {
                let start = i;
                let start_line = line;
                i = lex_string(b, i, &mut line);
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: src[start..i.min(src.len())].to_string(),
                    line: start_line,
                });
            }
            b'\'' => {
                // Lifetime if followed by ident-start not closed by a quote.
                let is_lifetime = i + 1 < b.len()
                    && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_')
                    && !(i + 2 < b.len() && b[i + 2] == b'\'');
                if is_lifetime {
                    let start = i;
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: src[start..i].to_string(),
                        line,
                    });
                } else {
                    // Char literal: consume escapes until the closing quote.
                    let start = i;
                    let start_line = line;
                    i += 1;
                    while i < b.len() {
                        if b[i] == b'\\' {
                            i += 2;
                        } else if b[i] == b'\'' {
                            i += 1;
                            break;
                        } else {
                            if b[i] == b'\n' {
                                line += 1;
                            }
                            i += 1;
                        }
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: src[start..i.min(src.len())].to_string(),
                        line: start_line,
                    });
                }
            }
            _ if c.is_ascii_alphabetic() || c == b'_' || c >= 0x80 => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] >= 0x80)
                {
                    i += 1;
                }
                let text = &src[start..i];
                // Raw/byte string prefixes glue onto the following quote.
                let is_str_prefix = matches!(text, "r" | "b" | "br" | "rb" | "c" | "cr")
                    && i < b.len()
                    && (b[i] == b'"' || b[i] == b'#');
                if is_str_prefix && text.contains('r') {
                    let start_line = line;
                    i = lex_raw_string(b, i, &mut line);
                    out.tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: src[start..i.min(src.len())].to_string(),
                        line: start_line,
                    });
                } else if is_str_prefix && b[i] == b'"' {
                    let start_line = line;
                    i = lex_string(b, i, &mut line);
                    out.tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: src[start..i.min(src.len())].to_string(),
                        line: start_line,
                    });
                } else if text == "b" && i < b.len() && b[i] == b'\'' {
                    // Byte-char literal `b']'`: glue the prefix onto the
                    // char literal so it doesn't read as ident + char.
                    i += 1;
                    while i < b.len() {
                        if b[i] == b'\\' {
                            i += 2;
                        } else if b[i] == b'\'' {
                            i += 1;
                            break;
                        } else {
                            if b[i] == b'\n' {
                                line += 1;
                            }
                            i += 1;
                        }
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: src[start..i.min(src.len())].to_string(),
                        line,
                    });
                } else {
                    out.tokens.push(Token {
                        kind: TokenKind::Ident,
                        text: text.to_string(),
                        line,
                    });
                }
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    // `0..10` range: stop before a second consecutive dot.
                    if b[i] == b'.' && i + 1 < b.len() && b[i + 1] == b'.' {
                        break;
                    }
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Num,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            _ => {
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Consumes a `"…"` string starting at the opening quote (or at a one-byte
/// prefix such as `b` already consumed by the caller); returns the index
/// just past the closing quote.
fn lex_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    debug_assert!(b[i] == b'"');
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => {
                // A `\` line continuation still ends a source line.
                if b.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consumes a raw string body starting at the `#`s or quote after the `r`
/// prefix; returns the index just past the closing delimiter.
fn lex_raw_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i >= b.len() || b[i] != b'"' {
        return i;
    }
    i += 1;
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if b[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < b.len() && b[j] == b'#' && seen < hashes {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_and_puncts_with_lines() {
        let l = lex("fn main() {\n    x.unwrap();\n}\n");
        let idents: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| (t.text.as_str(), t.line))
            .collect();
        assert_eq!(
            idents,
            vec![("fn", 1), ("main", 1), ("x", 2), ("unwrap", 2)]
        );
    }

    #[test]
    fn comments_do_not_tokenize_but_docs_are_kept() {
        let l = lex("/// cited in §4.2\nconst X: f64 = 1.0; // unwrap() in a comment\n");
        assert!(l.doc_lines.get(&1).is_some_and(|d| d.contains('§')));
        assert!(!l.tokens.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn strings_and_chars_hide_their_contents() {
        let l = lex("let s = \"panic!('}')\"; let c = '\\''; let r = r#\"unwrap()\"#;\n");
        assert!(!l.tokens.iter().any(|t| t.is_ident("panic")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .count(),
            3
        );
    }

    #[test]
    fn line_continuations_in_strings_count_their_lines() {
        let l = lex("let s = \"one \\\n     two\";\nx.unwrap();\n");
        let unwrap = l.tokens.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert_eq!(unwrap.line, 3);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            3
        );
    }

    #[test]
    fn allow_markers_are_collected() {
        let l = lex("// picocube-lint: allow(L1, L4)\nfn f() {}\n");
        assert_eq!(
            l.allow_markers.get(&1),
            Some(&vec!["L1".to_string(), "L4".to_string()])
        );
    }

    #[test]
    fn nested_block_comments_terminate() {
        let l = lex("/* outer /* inner */ still */ fn f() {}\n");
        assert!(l.tokens.iter().any(|t| t.is_ident("fn")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("outer")));
    }
}

//! L2 — panic freedom.
//!
//! Library code on the simulation hot path must not contain panic-capable
//! constructs: `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!`,
//! `todo!`/`unimplemented!`, and (in the tightest-scoped crates) slice
//! indexing. Test code is exempt. Raw findings from this pass are netted
//! against the shrink-only allowlist by the caller; a
//! `picocube-lint: allow(L2)` marker suppresses an individual site with an
//! inline justification.

use crate::lexer::TokenKind;
use crate::parser::Ast;
use crate::report::{Finding, Lint};

/// The kind of a panic-capable site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SiteKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(…)`.
    Expect,
    /// `panic!(…)`.
    Panic,
    /// `unreachable!(…)`.
    Unreachable,
    /// `todo!(…)` or `unimplemented!(…)`.
    Todo,
    /// Bracket indexing of an expression (`xs[i]`).
    Index,
}

impl SiteKind {
    /// Stable lowercase name, used in reports and the allowlist file.
    pub fn name(self) -> &'static str {
        match self {
            Self::Unwrap => "unwrap",
            Self::Expect => "expect",
            Self::Panic => "panic",
            Self::Unreachable => "unreachable",
            Self::Todo => "todo",
            Self::Index => "index",
        }
    }

    /// Parses a [`SiteKind::name`] back; `None` for unknown names.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "unwrap" => Self::Unwrap,
            "expect" => Self::Expect,
            "panic" => Self::Panic,
            "unreachable" => Self::Unreachable,
            "todo" => Self::Todo,
            "index" => Self::Index,
            _ => None?,
        })
    }
}

/// The panic-capable site at token `i`, if any. Sites are lexical: the
/// parser does not keep every place one can sit (match guards, macro
/// bodies that are not expression lists).
fn site_at(ast: &Ast, i: usize) -> Option<SiteKind> {
    let toks = &ast.lexed.tokens;
    let t = toks.get(i)?;
    let prev = i.checked_sub(1).and_then(|p| toks.get(p));
    let next = toks.get(i + 1);
    if t.kind == TokenKind::Ident {
        let dotted = prev.is_some_and(|p| p.is_punct('.'));
        let called = next.is_some_and(|n| n.is_punct('('));
        let banged = next.is_some_and(|n| n.is_punct('!'));
        return match t.text.as_str() {
            "unwrap" if dotted && called => Some(SiteKind::Unwrap),
            "expect" if dotted && called => Some(SiteKind::Expect),
            "panic" if banged => Some(SiteKind::Panic),
            "unreachable" if banged => Some(SiteKind::Unreachable),
            "todo" | "unimplemented" if banged => Some(SiteKind::Todo),
            _ => None,
        };
    }
    // Expression indexing: `xs[i]`, `f()[i]`, `xs[i][j]` — the opening
    // bracket directly follows an identifier, a closing parenthesis or a
    // closing bracket. Type syntax (`[u8; 4]`), array literals (`= [...]`)
    // and macro brackets (`vec![`) all follow other tokens. Only flagged
    // inside fn bodies.
    let prev = prev?;
    let indexes = prev.kind == TokenKind::Ident
        && !matches!(
            prev.text.as_str(),
            // `let [a, b] = …` opens a slice pattern, never an index
            // expression.
            "return" | "in" | "else" | "match" | "break" | "as" | "let"
        )
        || prev.is_punct(')')
        || prev.is_punct(']');
    (t.is_punct('[') && indexes && ast.in_fn_body(i)).then_some(SiteKind::Index)
}

/// Runs L2 over a parsed file's tokens. `index_scoped` enables the
/// slice-indexing kind (only the event-queue/fleet crates opt in — indexing
/// is pervasive and legitimate in table-driven physics code elsewhere).
pub fn check_panics(ast: &Ast, path: &str, index_scoped: bool) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in ast.code_tokens() {
        let Some(kind) = site_at(ast, i) else {
            continue;
        };
        let line = ast.lexed.tokens[i].line;
        if kind == SiteKind::Index && !index_scoped
            || ast.in_test(i)
            || ast.lexed.allows(Lint::L2.code(), line)
        {
            continue;
        }
        let what = match kind {
            SiteKind::Unwrap => "`.unwrap()`",
            SiteKind::Expect => "`.expect(…)`",
            SiteKind::Panic => "`panic!`",
            SiteKind::Unreachable => "`unreachable!`",
            SiteKind::Todo => "`todo!`/`unimplemented!`",
            SiteKind::Index => "slice indexing",
        };
        out.push(Finding {
            lint: Lint::L2,
            file: path.to_string(),
            line,
            kind: kind.name().into(),
            message: format!("{what} in library code"),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn unwrap_in_lib_code_is_flagged() {
        let s = parse("fn f() { x.unwrap(); y.expect(\"msg\"); }\n");
        let f = check_panics(&s, "x.rs", false);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].kind, "unwrap");
        assert_eq!(f[1].kind, "expect");
    }

    #[test]
    fn test_code_is_exempt() {
        let s = parse("#[cfg(test)]\nmod t { fn g() { x.unwrap(); panic!(); } }\n");
        assert!(check_panics(&s, "x.rs", true).is_empty());
    }

    #[test]
    fn only_the_library_site_beside_a_test_module_is_flagged() {
        let src =
            "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let f = check_panics(&parse(src), "x.rs", true);
        let lines: Vec<u32> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, [1]);
    }

    #[test]
    fn test_fn_bodies_are_exempt_outside_test_modules() {
        let src = "#[test]\nfn t() { x.unwrap(); }\n\
                   #[should_panic(expected = \"x[0]\")]\nfn u() { y.unwrap(); }\n\
                   #[cfg(test)]\nfn helper(xs: &[u8]) -> u8 { xs[0] }\n\
                   #[cfg(not(test))]\nfn lib() { z.unwrap(); }\n\
                   #[cfg(any(test, feature = \"f\"))]\nfn either() { w.unwrap(); }\n";
        let f = check_panics(&parse(src), "x.rs", true);
        let lines: Vec<u32> = f.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            [8, 10],
            "attributes and test code are not linted: {f:?}"
        );
    }

    #[test]
    fn indexing_detected_only_for_expressions() {
        let src = "fn f(xs: &[u32], i: usize) -> u32 {\n    let a: [u8; 2] = [0, 1];\n    let v = vec![1];\n    let [lo, hi] = [xs[i], 1];\n    if let [only] = *xs { return only; }\n    lo + hi + u32::from(a[0]) + v[0]\n}\nconst T: [u8; 1] = [B[0]];\n";
        let f = check_panics(&parse(src), "x.rs", true);
        let lines: Vec<u32> = f.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            [4, 6, 6],
            "xs[i], a[0], v[0] — slice patterns, array types, `vec![` and \
             indexing outside fn bodies are not flagged"
        );
    }

    #[test]
    fn unwraps_in_match_guards_are_flagged() {
        let s = parse("fn f(x: u8) -> u8 { match x { n if g(n).unwrap() => 1, _ => 0 } }\n");
        assert_eq!(check_panics(&s, "x.rs", false).len(), 1);
    }

    #[test]
    fn indexing_only_when_scoped() {
        let s = parse("fn f(xs: &[u32]) -> u32 { xs[0] }\n");
        assert!(check_panics(&s, "x.rs", false).is_empty());
        assert_eq!(check_panics(&s, "x.rs", true).len(), 1);
    }

    #[test]
    fn allow_marker_suppresses_single_site() {
        let src = "fn f() {\n    // picocube-lint: allow(L2) checked above\n    x.unwrap();\n    y.unwrap();\n}\n";
        let s = parse(src);
        let f = check_panics(&s, "x.rs", false);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn macros_are_flagged() {
        let s = parse("fn f() { todo!(); }\nfn g() { unreachable!(\"no\"); }\n");
        let f = check_panics(&s, "x.rs", false);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn macro_sites_are_found() {
        let s = parse("fn f() { panic!(\"boom\"); unreachable!(); }\n");
        let kinds: Vec<String> = check_panics(&s, "x.rs", false)
            .into_iter()
            .map(|f| f.kind)
            .collect();
        assert_eq!(kinds, ["panic", "unreachable"]);
    }
}

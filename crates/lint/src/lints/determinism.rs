//! L3 — determinism.
//!
//! The fleet engine's contract is bit-identical results for a given seed,
//! serial or threaded. Iteration order and wall-clock reads are the two
//! classic ways to break that, so in the simulation core, the telemetry
//! merge path and the fleet engine this lint forbids: `HashMap`/`HashSet`
//! (randomized iteration order — use `BTreeMap`/`BTreeSet`),
//! `Instant`/`SystemTime` (wall-clock reads — simulation time comes from
//! the event queue), and ambient RNG (`thread_rng`, the `rand` crate —
//! randomness must flow from `SimRng` seed streams).

use crate::lexer::TokenKind;
use crate::parser::Ast;
use crate::report::{Finding, Lint};

/// Forbidden identifiers and what to use instead.
const FORBIDDEN: &[(&str, &str)] = &[
    ("HashMap", "iteration order is randomized; use BTreeMap"),
    ("HashSet", "iteration order is randomized; use BTreeSet"),
    (
        "Instant",
        "wall-clock read; simulation time comes from the event queue",
    ),
    (
        "SystemTime",
        "wall-clock read; simulation time comes from the event queue",
    ),
    ("thread_rng", "ambient RNG; draw from a SimRng seed stream"),
    ("rand", "external RNG; draw from a SimRng seed stream"),
];

/// Runs L3 over a parsed file's tokens (the caller restricts this to the
/// determinism-scoped paths). The check is lexical: a forbidden name
/// counts wherever it appears outside test code and attributes, also in
/// places the parser does not keep (enum variant fields, impl headers).
pub fn check_determinism(ast: &Ast, path: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in ast.code_tokens() {
        let t = &ast.lexed.tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let Some((_, why)) = FORBIDDEN.iter().find(|(name, _)| *name == t.text) else {
            continue;
        };
        if ast.in_test(i) || ast.lexed.allows(Lint::L3.code(), t.line) {
            continue;
        }
        out.push(Finding {
            lint: Lint::L3,
            file: path.to_string(),
            line: t.line,
            kind: t.text.clone(),
            message: format!("`{}` in a determinism-scoped path: {why}", t.text),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn hashmap_is_flagged_with_alternative() {
        let s = parse("use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n");
        let f = check_determinism(&s, "x.rs");
        assert_eq!(f.len(), 3, "use + type + constructor");
        assert!(f[0].message.contains("BTreeMap"));
    }

    #[test]
    fn wall_clock_is_flagged() {
        let s = parse("fn f() { let t = Instant::now(); }\n");
        assert_eq!(check_determinism(&s, "x.rs").len(), 1);
    }

    #[test]
    fn test_code_and_btree_are_fine() {
        let s = parse(
            "use std::collections::BTreeMap;\n#[cfg(test)]\nmod t { fn g() { Instant::now(); } }\n",
        );
        assert!(check_determinism(&s, "x.rs").is_empty());
    }

    #[test]
    fn names_outside_the_parsed_skeleton_are_flagged() {
        let s = parse(
            "enum E { Map(HashMap<u8, u8>) }\nimpl From<HashSet<u8>> for E {}\n\
             #[derive(Instant)]\nstruct S;\n",
        );
        let lines: Vec<u32> = check_determinism(&s, "x.rs")
            .iter()
            .map(|f| f.line)
            .collect();
        assert_eq!(
            lines,
            [1, 2],
            "variant fields and impl headers, not attributes"
        );
    }

    #[test]
    fn allow_marker_suppresses() {
        let s = parse("// picocube-lint: allow(L3) scratch map, drained in sorted order\nfn f() { let m = HashMap::new(); }\n");
        assert!(check_determinism(&s, "x.rs").is_empty());
    }
}

//! L4 — provenance.
//!
//! Every named physical constant in the power, radio and storage crates is
//! a number taken from the PicoCube paper or a component datasheet, and the
//! doc comment must say which: a `§x.y` citation (or an explicit datasheet
//! reference via the allow marker) keeps the model auditable against its
//! source. The lint fires on module- and impl-level `const` items whose
//! type is `f64` or a unit quantity and whose doc comment lacks a `§`.

use crate::parser::{Ast, ConstItem};
use crate::report::{Finding, Lint};

/// picocube-units quantity type names (kept in sync with the units crate's
/// public exports; unknown types are simply not linted).
const UNIT_TYPES: &[&str] = &[
    "Volts",
    "Amps",
    "Ohms",
    "Farads",
    "Coulombs",
    "Hertz",
    "Joules",
    "JoulesPerGram",
    "Seconds",
    "Watts",
    "Db",
    "Dbm",
    "Celsius",
    "Grams",
    "Gs",
    "Kilopascals",
    "Meters",
    "MetersPerSecond",
    "MetersPerSecond2",
    "Millimeters",
    "Rpm",
    "SquareMillimeters",
    "CubicMillimeters",
];

fn is_physical(c: &ConstItem) -> bool {
    c.ty.as_ref().is_some_and(|ty| {
        ty.idents
            .iter()
            .any(|i| i == "f64" || UNIT_TYPES.contains(&i.as_str()))
    })
}

/// Runs L4 over a parsed file's module- and impl-level `const` items (the
/// caller restricts this to the provenance-scoped crates).
pub fn check_provenance(ast: &Ast, path: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    ast.for_each_const(&mut |c| {
        if c.in_test || c.is_static || !is_physical(c) {
            return;
        }
        if ast.lexed.allows(Lint::L4.code(), c.line) || ast.lexed.doc_above(c.line).contains('§') {
            return;
        }
        out.push(Finding {
            lint: Lint::L4,
            file: path.to_string(),
            line: c.line,
            kind: "const".into(),
            message: format!(
                "physical constant `{}` has no `§x.y` paper citation in its doc comment",
                c.name
            ),
        });
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn uncited_f64_const_is_flagged() {
        let s = parse("/// Speed of light in m/s.\npub const C: f64 = 299_792_458.0;\n");
        let f = check_provenance(&s, "x.rs");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains('C'));
    }

    #[test]
    fn cited_const_passes() {
        let s = parse("/// Sensitivity floor from the §5.2 receiver budget.\npub const FLOOR: Dbm = Dbm::new(-94.0);\n");
        assert!(check_provenance(&s, "x.rs").is_empty());
    }

    #[test]
    fn only_module_level_consts_need_a_citation() {
        let cited =
            "/// Speed of light (§5).\nconst C: f64 = 3e8;\nfn f() { const INNER: f64 = 1.0; }\n";
        assert!(check_provenance(&parse(cited), "x.rs").is_empty());
        let uncited =
            "/// Speed of light.\nconst C: f64 = 3e8;\nfn f() { const INNER: f64 = 1.0; }\n";
        let f = check_provenance(&parse(uncited), "x.rs");
        assert_eq!(f.len(), 1, "fn-local consts are not items: {f:?}");
        assert!(f[0].message.contains("`C`"));
    }

    #[test]
    fn impl_consts_are_checked_and_test_consts_and_statics_are_not() {
        let src = "impl Cell {\n    const V: Volts = Volts::new(1.2);\n}\n\
                   static S: f64 = 1.0;\n\
                   #[cfg(test)]\nconst T: f64 = 2.0;\n";
        let f = check_provenance(&parse(src), "x.rs");
        let lines: Vec<u32> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, [2]);
    }

    #[test]
    fn non_physical_consts_are_ignored() {
        let s = parse("const NAME: &str = \"picocube\";\nconst N: usize = 4;\n");
        assert!(check_provenance(&s, "x.rs").is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let s = parse("/// Newton iteration convergence epsilon (numerical, not physical).\n// picocube-lint: allow(L4)\nconst EPS: f64 = 1e-12;\n");
        assert!(check_provenance(&s, "x.rs").is_empty());
    }

    #[test]
    fn unit_typed_const_needs_citation() {
        let s =
            parse("/// The 15 mAh cell.\npub const CAPACITY: Coulombs = Coulombs::new(54.0);\n");
        assert_eq!(check_provenance(&s, "x.rs").len(), 1);
    }
}

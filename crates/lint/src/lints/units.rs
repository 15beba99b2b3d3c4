//! L1 — unit hygiene.
//!
//! Public functions in the physical crates must not take or return bare
//! `f64` for values that carry a unit: the `picocube-units` newtypes exist
//! precisely so millivolts cannot be fed where volts are expected. The
//! lint fires when an `f64` parameter's name (or, for returns, the
//! function's name) carries a unit suffix (`_mah`, `_um`, `_dbm`, …) or a
//! dimensional keyword (`voltage`, `distance`, …). Genuinely dimensionless
//! values — efficiencies, ratios, duty cycles — pass untouched, and a
//! `picocube-lint: allow(L1)` marker documents deliberate boundary
//! crossings (FFI, datasheet-shaped constructors).

use crate::parser::{Ast, FnItem, TypeRef};
use crate::report::{Finding, Lint};

/// Name suffixes that imply a unit (after the final `_`).
const UNIT_SUFFIXES: &[&str] = &[
    "m", "mm", "um", "cm", "km", "v", "mv", "uv", "a", "ma", "ua", "na", "w", "mw", "uw", "nw",
    "j", "mj", "uj", "nj", "s", "ms", "us", "ns", "h", "hz", "khz", "mhz", "ghz", "db", "dbm",
    "mah", "ohm", "ohms", "f", "uf", "nf", "pf", "c", "g", "kpa",
];

/// Name components that imply a dimensional quantity.
const UNIT_WORDS: &[&str] = &[
    "voltage",
    "current",
    "charge",
    "capacitance",
    "resistance",
    "impedance",
    "frequency",
    "distance",
    "range",
    "thickness",
    "wavelength",
    "energy",
    "power",
    "temperature",
    "mass",
    "volume",
    "area",
    "duration",
    "latency",
    "timeout",
];

/// Whether an identifier names a unit-bearing quantity.
fn has_unit_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    if let Some((_, suffix)) = lower.rsplit_once('_') {
        if UNIT_SUFFIXES.contains(&suffix) {
            return true;
        }
    }
    UNIT_WORDS.iter().any(|w| {
        lower
            .split('_')
            .any(|part| part == *w || (w.len() > 5 && part.starts_with(w)))
    })
}

/// Whether a type is bare `f64` (`&f64` counts; `&mut f64`, `Option<f64>`
/// and `impl Into<f64>` deliberately do not — only the direct scalar type
/// is flagged).
fn is_bare_f64(ty: &TypeRef) -> bool {
    ty.idents == ["f64"]
}

fn check_fn(ast: &Ast, path: &str, f: &FnItem, out: &mut Vec<Finding>) {
    if !f.is_pub || f.in_test || f.nested || ast.lexed.allows(Lint::L1.code(), f.line) {
        return;
    }
    for p in &f.params {
        let (Some(name), Some(ty)) = (&p.name, &p.ty) else {
            continue;
        };
        if is_bare_f64(ty) && has_unit_name(name) {
            out.push(Finding {
                lint: Lint::L1,
                file: path.to_string(),
                line: f.line,
                kind: "param".into(),
                message: format!(
                    "`{}` takes `{name}: f64` — use the picocube-units quantity for this \
                     dimension (or mark `picocube-lint: allow(L1)` with a reason)",
                    f.name
                ),
            });
        }
    }
    if f.ret.as_ref().is_some_and(is_bare_f64) && has_unit_name(&f.name) {
        out.push(Finding {
            lint: Lint::L1,
            file: path.to_string(),
            line: f.line,
            kind: "return".into(),
            message: format!(
                "`{}` returns bare `f64` — its name implies a unit; return the \
                 picocube-units quantity instead",
                f.name
            ),
        });
    }
}

/// Runs L1 over the item-level fns of a parsed file (fns nested in bodies
/// are not API).
pub fn check_units(ast: &Ast, path: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    ast.for_each_fn(&mut |f| check_fn(ast, path, f, &mut out));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn unit_suffixed_f64_param_is_flagged() {
        let s = parse("pub fn path_loss(&self, distance_m: f64) -> Db { Db::ZERO }\n");
        let f = check_units(&s, "x.rs");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "param");
    }

    #[test]
    fn finds_pub_fn_signature() {
        let s = parse("pub fn path_loss(&self, distance_m: f64) -> Db { Db::ZERO }\n");
        let mut sigs = Vec::new();
        s.for_each_fn(&mut |f| {
            let params: Vec<_> = f
                .params
                .iter()
                .filter_map(|p| Some((p.name.clone()?, p.ty.as_ref()?.idents.clone())))
                .collect();
            let ret = f.ret.as_ref().map(|t| t.idents.clone());
            sigs.push((f.name.clone(), f.is_pub, f.in_test, params, ret));
        });
        let expected = (
            "path_loss".to_string(),
            true,
            false,
            vec![("distance_m".to_string(), vec!["f64".to_string()])],
            Some(vec!["Db".to_string()]),
        );
        assert_eq!(sigs, [expected]);
        let f = check_units(&s, "x.rs");
        assert_eq!(f.len(), 1, "the typed `Db` return passes: {f:?}");
        assert!(f[0].message.contains("`path_loss` takes `distance_m: f64`"));
    }

    #[test]
    fn restricted_visibility_and_nested_fns_are_not_api() {
        let s = parse(
            "pub(crate) fn a(distance_m: f64) {}\n\
             pub(super) fn b(distance_m: f64) {}\n\
             pub fn outer() { pub fn inner(distance_m: f64) {} }\n\
             pub const fn c(distance_m: f64) -> f64 { distance_m }\n",
        );
        let f = check_units(&s, "x.rs");
        let lines: Vec<u32> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, [4], "only the unrestricted item-level fn: {f:?}");
    }

    #[test]
    fn test_fns_are_skipped_but_not_cfg_not_test() {
        let s = parse(
            "#[should_panic(expected = \"x\")]\npub fn t(distance_m: f64) {}\n\
             #[test]\npub fn u(distance_m: f64) {}\n\
             #[cfg(not(test))]\npub fn v(distance_m: f64) {}\n",
        );
        let f = check_units(&s, "x.rs");
        let lines: Vec<u32> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, [6], "{f:?}");
    }

    #[test]
    fn dimensionless_f64_is_fine() {
        let s = parse(
            "pub fn set_duty(&mut self, duty: f64) {}\npub fn efficiency(&self) -> f64 { 0.9 }\n",
        );
        assert!(check_units(&s, "x.rs").is_empty());
    }

    #[test]
    fn unit_named_return_is_flagged() {
        let s = parse("pub fn thickness_um(&self) -> f64 { 0.0 }\n");
        let f = check_units(&s, "x.rs");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "return");
    }

    #[test]
    fn private_and_test_fns_are_skipped() {
        let s = parse("fn helper(distance_m: f64) {}\n#[cfg(test)]\nmod t { pub fn capacity_mah() -> f64 { 1.0 } }\n");
        assert!(check_units(&s, "x.rs").is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let s = parse("// picocube-lint: allow(L1) datasheet-shaped constructor\npub fn from_mah(capacity_mah: f64) {}\n");
        assert!(check_units(&s, "x.rs").is_empty());
    }

    #[test]
    fn typed_quantities_pass() {
        let s = parse("pub fn budget(&self, distance: Meters) -> LinkBudget { todo() }\n");
        assert!(check_units(&s, "x.rs").is_empty());
    }

    #[test]
    fn unit_word_components_are_flagged() {
        let s = parse("pub fn set_supply(&mut self, rail_voltage: f64) {}\n");
        assert_eq!(check_units(&s, "x.rs").len(), 1);
    }
}

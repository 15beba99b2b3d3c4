//! L5 — dimensional flow.
//!
//! Infers `picocube-units` quantity types through function bodies: let
//! bindings, parameters, struct fields, constructor paths, the `relate!`
//! multiplication algebra and the accessor methods (`.value()`, `.micro()`,
//! …) whose raw-`f64` results keep a *provenance* tag. Two rules fire:
//!
//! - **mixed-units** — an add/sub/compare whose operands carry different
//!   dimensions, either as typed quantities (`Joules + Watts`, which rustc
//!   itself rejects, so this mostly catches fixture code) or — the
//!   important case — as raw `f64` values laundered out of *different*
//!   units (`e.micro() + p.micro()` with `e: Joules, p: Watts`), which
//!   rustc happily accepts.
//! - **launder** — `.0` / `.into_inner()` applied to a quantity, with the
//!   result escaping into further arithmetic. The quantity newtypes keep
//!   their field private precisely so this cannot compile outside the
//!   units crate; the lint keeps it that way for any future `pub` slip.
//!
//! Inference is deliberately conservative: anything unknown stays unknown
//! and can only ever *suppress* a finding, never invent one. `SimTime` and
//! `SimDuration` participate as time-dimensioned pseudo-quantities (their
//! tick fields are integers, so the launder rule does not apply to them).

use crate::lexer::Lexed;
use crate::parser::{Ast, BinOp, Block, Expr, FnItem, Param, Stmt, TypeRef};
use crate::report::{Finding, Lint};
use std::collections::BTreeMap;

/// The `picocube-units` quantity newtypes (plus the RF decibel types).
const UNITS: &[&str] = &[
    "Volts",
    "Amps",
    "Ohms",
    "Farads",
    "Coulombs",
    "Hertz",
    "Watts",
    "Joules",
    "Seconds",
    "JoulesPerGram",
    "Meters",
    "Millimeters",
    "SquareMillimeters",
    "CubicMillimeters",
    "Grams",
    "Kilopascals",
    "Gs",
    "MetersPerSecond2",
    "MetersPerSecond",
    "Rpm",
    "Celsius",
    "Dbm",
    "Db",
];

/// Integer-backed simulation clock newtypes: dimension-checked like units
/// but exempt from the `.0` launder rule.
const TICK_TYPES: &[&str] = &["SimTime", "SimDuration"];

/// The `relate!` algebra: `(a, b, product)` with both operand orders
/// accepted and division derived by reversal.
const RELATE: &[(&str, &str, &str)] = &[
    ("Volts", "Amps", "Watts"),
    ("Amps", "Ohms", "Volts"),
    ("Farads", "Volts", "Coulombs"),
    ("Amps", "Seconds", "Coulombs"),
    ("Watts", "Seconds", "Joules"),
    ("JoulesPerGram", "Grams", "Joules"),
    ("Millimeters", "Millimeters", "SquareMillimeters"),
    ("SquareMillimeters", "Millimeters", "CubicMillimeters"),
];

/// Add/sub pairs that are legal across *different* types (affine scales
/// and clock arithmetic): `(lhs, rhs, result)`.
const ADD_PAIRS: &[(&str, &str, &str)] = &[
    ("Dbm", "Db", "Dbm"),
    ("Db", "Dbm", "Dbm"),
    ("SimTime", "SimDuration", "SimTime"),
    ("SimDuration", "SimTime", "SimTime"),
];

/// Methods on a quantity that return `Self`.
const SELF_METHODS: &[&str] = &["abs", "min", "max", "clamp"];

/// Accessor methods that return raw `f64` (or integer ticks) while keeping
/// provenance: the receiver's dimension tags the result.
const ACCESSOR_METHODS: &[&str] = &[
    "value",
    "nano",
    "micro",
    "milli",
    "kilo",
    "mega",
    "hours",
    "days",
    "milliamp_hours",
    "as_milliamp_hours",
    "mils",
    "micrometers",
    "kelvin",
    "fahrenheit",
    "psi",
    "bar",
    "kmh",
    "to_ratio",
    "as_nanos",
    "as_seconds_f64",
];

/// Methods whose *name* determines the result dimension regardless of the
/// (quantity-typed) receiver.
const METHOD_RESULTS: &[(&str, &str)] = &[
    ("power_at", "Watts"),
    ("conduction_loss", "Watts"),
    ("energy_at", "Joules"),
    ("charge_at", "Coulombs"),
    ("period", "Seconds"),
    ("frequency", "Hertz"),
    ("to_watts", "Watts"),
    ("margin_over", "Db"),
    ("to_millimeters", "Millimeters"),
    ("to_si", "MetersPerSecond2"),
    ("to_gs", "Gs"),
    ("wheel_rpm", "Rpm"),
    ("centripetal_at_radius", "MetersPerSecond2"),
    ("as_seconds", "Seconds"),
];

/// An inferred dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dim {
    /// A typed quantity.
    Unit(&'static str),
    /// A raw scalar; `prov` tags the unit it was extracted from, and
    /// `laundered` marks a `.0`/`into_inner` escape not yet reported.
    F64 {
        prov: Option<&'static str>,
        laundered: bool,
    },
    /// Known to be non-dimensional (bool, string, struct, …).
    Other,
    /// No information.
    Unknown,
}

impl Dim {
    fn f64_prov(prov: Option<&'static str>) -> Self {
        Dim::F64 {
            prov,
            laundered: false,
        }
    }
}

/// Interns a type name against the unit roster.
fn unit_name(name: &str) -> Option<&'static str> {
    UNITS
        .iter()
        .chain(TICK_TYPES.iter())
        .find(|u| **u == name)
        .copied()
}

fn dim_of_type(ty: &TypeRef) -> Dim {
    match ty.single() {
        Some("f64") | Some("f32") => Dim::f64_prov(None),
        Some(name) => match unit_name(name) {
            Some(u) => Dim::Unit(u),
            None => Dim::Unknown,
        },
        None => Dim::Unknown,
    }
}

/// Per-file context shared by every function body.
struct FileCtx<'a> {
    path: &'a str,
    /// Field name → dimension, for names unambiguous across the file's
    /// structs (conflicting names collapse to `Unknown`).
    fields: BTreeMap<String, Dim>,
    /// Function name → return dimension, for same-file calls.
    fn_rets: BTreeMap<String, Dim>,
    /// The file's lex, for its allow markers.
    lexed: &'a Lexed,
    findings: Vec<Finding>,
}

impl FileCtx<'_> {
    fn push(&mut self, line: u32, kind: &str, message: String) {
        if self.lexed.allows(Lint::L5.code(), line) {
            return;
        }
        // One finding per (line, kind): chained expressions otherwise
        // report the same site repeatedly.
        if self
            .findings
            .iter()
            .any(|f| f.line == line && f.kind == kind)
        {
            return;
        }
        self.findings.push(Finding {
            lint: Lint::L5,
            file: self.path.to_string(),
            line,
            kind: kind.into(),
            message,
        });
    }
}

type Env = BTreeMap<String, Dim>;

/// Runs L5 over a parsed file.
pub fn check_dimflow(ast: &Ast, path: &str) -> Vec<Finding> {
    let mut ctx = FileCtx {
        path,
        fields: BTreeMap::new(),
        fn_rets: BTreeMap::new(),
        lexed: &ast.lexed,
        findings: Vec::new(),
    };
    ast.for_each_struct(&mut |_, fields| {
        for (name, ty) in fields {
            let dim = dim_of_type(ty);
            match ctx.fields.get(name) {
                None => {
                    ctx.fields.insert(name.clone(), dim);
                }
                Some(prev) if *prev != dim => {
                    ctx.fields.insert(name.clone(), Dim::Unknown);
                }
                Some(_) => {}
            }
        }
    });
    ast.for_each_fn(&mut |f| {
        let dim = f.ret.as_ref().map_or(Dim::Other, dim_of_type);
        match ctx.fn_rets.get(&f.name) {
            None => {
                ctx.fn_rets.insert(f.name.clone(), dim);
            }
            Some(prev) if *prev != dim => {
                ctx.fn_rets.insert(f.name.clone(), Dim::Unknown);
            }
            Some(_) => {}
        }
    });
    ast.for_each_fn(&mut |f: &FnItem| {
        if f.in_test {
            return;
        }
        let Some(body) = &f.body else { return };
        let mut env = Env::new();
        for Param { name, ty } in &f.params {
            if let (Some(n), Some(t)) = (name, ty) {
                env.insert(n.clone(), dim_of_type(t));
            }
        }
        check_block(body, &mut env, &mut ctx);
    });
    ctx.findings
}

fn check_block(block: &Block, env: &mut Env, ctx: &mut FileCtx<'_>) -> Dim {
    let mut last = Dim::Other;
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { name, ty, init, .. } => {
                let init_dim = init.as_ref().map(|e| infer(e, env, ctx));
                let dim = ty
                    .as_ref()
                    .map(dim_of_type)
                    .filter(|d| *d != Dim::Unknown)
                    .or(init_dim)
                    .unwrap_or(Dim::Unknown);
                if let Some(n) = name {
                    env.insert(n.clone(), dim);
                }
                last = Dim::Other;
            }
            Stmt::Expr(e) => last = infer(e, env, ctx),
            Stmt::Item(_) => last = Dim::Other,
        }
    }
    last
}

/// Strips the pending-launder flag (used once an operand has been checked).
fn settle(d: Dim) -> Dim {
    match d {
        Dim::F64 { prov, .. } => Dim::f64_prov(prov),
        other => other,
    }
}

fn infer(expr: &Expr, env: &mut Env, ctx: &mut FileCtx<'_>) -> Dim {
    match expr {
        Expr::Num { .. } => Dim::f64_prov(None),
        Expr::Str { .. } => Dim::Other,
        Expr::Path { segs, line } => infer_path(segs, *line, env),
        Expr::Unary { expr } | Expr::Wrap { expr } => infer(expr, env, ctx),
        Expr::Binary { op, lhs, rhs, line } => {
            let ld = infer(lhs, env, ctx);
            let rd = infer(rhs, env, ctx);
            check_launder(ld, *line, ctx);
            check_launder(rd, *line, ctx);
            combine(*op, settle(ld), settle(rd), *line, ctx)
        }
        Expr::Assign { lhs, op, rhs, line } => {
            let ld = infer(lhs, env, ctx);
            let rd = infer(rhs, env, ctx);
            if matches!(op, Some(BinOp::AddSub)) {
                check_launder(rd, *line, ctx);
                combine(BinOp::AddSub, settle(ld), settle(rd), *line, ctx);
            }
            Dim::Other
        }
        Expr::Call { callee, args, line } => {
            for a in args {
                let _ = infer(a, env, ctx);
            }
            if let Expr::Path { segs, .. } = callee.as_ref() {
                return infer_call_path(segs, *line, ctx);
            }
            let _ = infer(callee, env, ctx);
            Dim::Unknown
        }
        Expr::MethodCall {
            recv, name, args, ..
        } => {
            let recv_dim = infer(recv, env, ctx);
            for a in args {
                let _ = infer(a, env, ctx);
            }
            infer_method(recv_dim, name, ctx)
        }
        Expr::Field { recv, name, line } => {
            let recv_dim = infer(recv, env, ctx);
            if name == "0" || name.chars().all(|c| c.is_ascii_digit()) {
                // Tuple access: laundering when the receiver is a float
                // quantity.
                if let Dim::Unit(u) = recv_dim {
                    if UNITS.contains(&u) {
                        return Dim::F64 {
                            prov: Some(u),
                            laundered: true,
                        };
                    }
                    return Dim::f64_prov(Some(u));
                }
                return Dim::Unknown;
            }
            if matches!(recv.as_ref(), Expr::Path { segs, .. } if segs.len() == 1 && segs[0] == "self")
            {
                return ctx.fields.get(name).copied().unwrap_or(Dim::Unknown);
            }
            let _ = line;
            Dim::Unknown
        }
        Expr::Index { recv, index } => {
            let _ = infer(recv, env, ctx);
            let _ = infer(index, env, ctx);
            Dim::Unknown
        }
        Expr::Cast { expr, ty } => {
            let inner = infer(expr, env, ctx);
            match ty.single() {
                Some("f64") | Some("f32") => match settle(inner) {
                    Dim::F64 { prov, .. } => Dim::f64_prov(prov),
                    _ => Dim::f64_prov(None),
                },
                _ => Dim::Other,
            }
        }
        Expr::StructLit { fields, .. } => {
            for f in fields {
                let _ = infer(f, env, ctx);
            }
            Dim::Other
        }
        Expr::Seq { elems } => {
            for e in elems {
                let _ = infer(e, env, ctx);
            }
            Dim::Unknown
        }
        Expr::Block(b) => {
            let mut inner = env.clone();
            check_block(b, &mut inner, ctx)
        }
        Expr::If { cond, then, else_ } => {
            let _ = infer(cond, env, ctx);
            let mut t_env = env.clone();
            let t = check_block(then, &mut t_env, ctx);
            let e = else_
                .as_ref()
                .map(|e| infer(e, env, ctx))
                .unwrap_or(Dim::Other);
            if t == e {
                t
            } else {
                Dim::Unknown
            }
        }
        Expr::Match { scrutinee, arms } => {
            let _ = infer(scrutinee, env, ctx);
            let mut dims: Vec<Dim> = Vec::new();
            for arm in arms {
                let mut a_env = env.clone();
                dims.push(infer(arm, &mut a_env, ctx));
            }
            dims.dedup();
            match dims.as_slice() {
                [one] => *one,
                _ => Dim::Unknown,
            }
        }
        Expr::Loop { head, body } => {
            if let Some(h) = head {
                let _ = infer(h, env, ctx);
            }
            let mut inner = env.clone();
            let _ = check_block(body, &mut inner, ctx);
            Dim::Other
        }
        Expr::Closure { params, body } => {
            let mut inner = env.clone();
            for Param { name, ty } in params {
                if let Some(n) = name {
                    inner.insert(n.clone(), ty.as_ref().map_or(Dim::Unknown, dim_of_type));
                }
            }
            let _ = infer(body, &mut inner, ctx);
            Dim::Unknown
        }
        Expr::Macro { args, .. } => {
            for a in args {
                let _ = infer(a, env, ctx);
            }
            Dim::Unknown
        }
        Expr::Opaque { .. } => Dim::Unknown,
    }
}

fn infer_path(segs: &[String], _line: u32, env: &Env) -> Dim {
    match segs {
        [one] => env.get(one).copied().unwrap_or(Dim::Unknown),
        [ty, tail] => {
            if let Some(u) = unit_name(ty) {
                // `Joules::ZERO`, `Seconds::HOUR`, … associated constants.
                if tail.chars().all(|c| c.is_ascii_uppercase() || c == '_') {
                    return Dim::Unit(u);
                }
            }
            Dim::Unknown
        }
        _ => Dim::Unknown,
    }
}

fn infer_call_path(segs: &[String], _line: u32, ctx: &FileCtx<'_>) -> Dim {
    match segs {
        [one] => ctx.fn_rets.get(one).copied().unwrap_or(Dim::Unknown),
        [ty, ctor] => {
            if let Some(u) = unit_name(ty) {
                if ctor == "new" || ctor.starts_with("from_") {
                    return Dim::Unit(u);
                }
            }
            if ty == "Self" {
                return ctx.fn_rets.get(ctor).copied().unwrap_or(Dim::Unknown);
            }
            Dim::Unknown
        }
        _ => Dim::Unknown,
    }
}

fn infer_method(recv: Dim, name: &str, ctx: &FileCtx<'_>) -> Dim {
    match settle(recv) {
        Dim::Unit(u) => {
            if SELF_METHODS.contains(&name) {
                return Dim::Unit(u);
            }
            if ACCESSOR_METHODS.contains(&name) {
                return Dim::f64_prov(Some(u));
            }
            if name == "into_inner" {
                if UNITS.contains(&u) {
                    return Dim::F64 {
                        prov: Some(u),
                        laundered: true,
                    };
                }
                return Dim::f64_prov(Some(u));
            }
            if let Some((_, ret)) = METHOD_RESULTS.iter().find(|(m, _)| *m == name) {
                return Dim::Unit(ret);
            }
            if name == "is_finite" || name == "is_zero" {
                return Dim::Other;
            }
            Dim::Unknown
        }
        Dim::F64 { prov, .. } => match name {
            // Float combinators that keep the value in its dimension.
            "abs" | "min" | "max" | "clamp" => Dim::f64_prov(prov),
            "floor" | "ceil" | "round" | "trunc" => Dim::f64_prov(prov),
            // Anything else (sqrt, powi, ln, …) changes the dimension.
            _ => Dim::f64_prov(None),
        },
        Dim::Unknown => {
            // A same-file method call: `self.stored_energy()` &c.
            ctx.fn_rets.get(name).copied().unwrap_or(Dim::Unknown)
        }
        Dim::Other => Dim::Unknown,
    }
}

fn check_launder(d: Dim, line: u32, ctx: &mut FileCtx<'_>) {
    if let Dim::F64 {
        prov,
        laundered: true,
    } = d
    {
        let unit = prov.unwrap_or("a quantity");
        ctx.push(
            line,
            "launder",
            format!(
                "raw f64 laundered out of {unit} via `.0`/`into_inner` escapes into \
                 arithmetic — use `.value()` at the boundary or keep the typed quantity"
            ),
        );
    }
}

fn combine(op: BinOp, lhs: Dim, rhs: Dim, line: u32, ctx: &mut FileCtx<'_>) -> Dim {
    match op {
        BinOp::AddSub | BinOp::Cmp => {
            let result = match (lhs, rhs) {
                (Dim::Unit(a), Dim::Unit(b)) => {
                    if a == b {
                        Some(Dim::Unit(a))
                    } else if let Some((_, _, r)) =
                        ADD_PAIRS.iter().find(|(x, y, _)| *x == a && *y == b)
                    {
                        Some(Dim::Unit(r))
                    } else {
                        ctx.push(
                            line,
                            "mixed-units",
                            format!(
                                "{} of {a} and {b} — these dimensions do not mix",
                                if op == BinOp::Cmp {
                                    "comparison"
                                } else {
                                    "add/sub"
                                },
                            ),
                        );
                        Some(Dim::Unknown)
                    }
                }
                (Dim::F64 { prov: Some(a), .. }, Dim::F64 { prov: Some(b), .. }) if a != b => {
                    ctx.push(
                        line,
                        "mixed-units",
                        format!(
                            "{} mixes raw f64 values from {a} and {b} — convert to one \
                             dimension (or one scale) before combining",
                            if op == BinOp::Cmp {
                                "comparison"
                            } else {
                                "add/sub"
                            },
                        ),
                    );
                    Some(Dim::f64_prov(None))
                }
                (Dim::F64 { prov: pa, .. }, Dim::F64 { prov: pb, .. }) => {
                    Some(Dim::f64_prov(pa.or(pb)))
                }
                _ => None,
            };
            if op == BinOp::Cmp {
                return Dim::Other;
            }
            result.unwrap_or(Dim::Unknown)
        }
        BinOp::Mul => match (lhs, rhs) {
            (Dim::Unit(a), Dim::Unit(b)) => RELATE
                .iter()
                .find(|(x, y, _)| (*x == a && *y == b) || (*x == b && *y == a))
                .map(|(_, _, p)| Dim::Unit(p))
                .unwrap_or(Dim::Unknown),
            (Dim::Unit(u), Dim::F64 { .. }) | (Dim::F64 { .. }, Dim::Unit(u)) => Dim::Unit(u),
            (Dim::F64 { .. }, Dim::F64 { .. }) => Dim::f64_prov(None),
            _ => Dim::Unknown,
        },
        BinOp::Div => match (lhs, rhs) {
            (Dim::Unit(a), Dim::Unit(b)) => {
                if a == b {
                    Dim::f64_prov(None)
                } else {
                    RELATE
                        .iter()
                        .find_map(|(x, y, p)| {
                            if *p == a && *y == b {
                                Some(Dim::Unit(x))
                            } else if *p == a && *x == b {
                                Some(Dim::Unit(y))
                            } else {
                                None
                            }
                        })
                        .unwrap_or(Dim::Unknown)
                }
            }
            (Dim::Unit(u), Dim::F64 { .. }) => Dim::Unit(u),
            (Dim::F64 { .. }, Dim::F64 { .. }) => Dim::f64_prov(None),
            _ => Dim::Unknown,
        },
        BinOp::Opaque => Dim::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(src: &str) -> Vec<Finding> {
        let ast = parse(src);
        assert!(ast.gaps.is_empty(), "fixture should parse: {:?}", ast.gaps);
        check_dimflow(&ast, "x.rs")
    }

    #[test]
    fn clean_unit_arithmetic_passes() {
        let f = run("fn f(p: Watts, t: Seconds) -> Joules { p * t }\n\
             fn g(a: Joules, b: Joules) -> Joules { a + b }\n\
             fn h(e: Joules, t: Seconds) -> Watts { e / t }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn mixed_unit_add_is_flagged() {
        let f = run("fn f(e: Joules, p: Watts) -> f64 { e.value() + p.value() }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind, "mixed-units");
        assert!(f[0].message.contains("Joules"));
        assert!(f[0].message.contains("Watts"));
    }

    #[test]
    fn mixed_unit_compare_is_flagged() {
        let f = run("fn f(v: Volts, t: Seconds) -> bool { v.value() < t.value() }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("comparison"));
    }

    #[test]
    fn provenance_flows_through_lets_and_fields() {
        let f = run("struct S { stored: Joules, rate: Watts }\n\
             impl S {\n\
             fn f(&self) -> f64 { let e = self.stored.micro(); e + self.rate.micro() }\n\
             }\n");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn same_unit_accessors_pass() {
        let f = run("fn f(a: Joules, b: Joules) -> f64 { a.micro() + b.micro() }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn relate_algebra_types_products() {
        let f = run("fn f(v: Volts, i: Amps, t: Seconds) -> f64 {\n\
             let e = v * i * t;\n\
             e.value() + Joules::ZERO.value()\n\
             }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn launder_escaping_into_arithmetic_is_flagged() {
        let f = run("fn f(e: Joules) -> f64 { e.into_inner() * 2.0 }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind, "launder");
    }

    #[test]
    fn dbm_plus_db_is_fine_dbm_plus_dbm_compare_is_fine() {
        let f =
            run("fn f(p: Dbm, g: Db, s: Dbm) -> bool { let rx = p + g; rx.value() < s.value() }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_marker_suppresses() {
        let f = run("fn f(e: Joules, p: Watts) -> f64 {\n\
             // picocube-lint: allow(L5) intentional scale mix in a fixture\n\
             e.value() + p.value()\n\
             }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn scalar_plus_provenance_passes() {
        let f = run("fn f(e: Joules) -> f64 { e.value() + 1.0 }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_fns_are_skipped() {
        let f = run(
            "#[cfg(test)]\nmod t {\n fn f(e: Joules, p: Watts) -> f64 { e.value() + p.value() }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}

//! L6: RNG-stream discipline.
//!
//! Reserved `SimRng` stream indices are a global namespace: two subsystems
//! drawing the same stream silently correlate their randomness, and a
//! re-implementation of the derivation rule drifts out of sync with
//! `SimRng::stream_seed` the day either changes. The lint enforces the
//! contract from `DESIGN.md`:
//!
//! - every reserved stream is a named constant (`*_STREAM` or
//!   `*_STREAM_BASE`) declared exactly once across the workspace;
//! - a declared stream is drawn by exactly one module (its owner), and
//!   every draw names the constant — no literal stream indices;
//! - arithmetic stream derivation (e.g. `2 * node`) lives only in the
//!   fleet engine's per-node seed-stream derivation;
//! - `SimRng::fork` and ad-hoc golden-ratio seed mixing appear only in
//!   `crates/sim/src/rng.rs`, the derivation rule's home.
//!
//! Fact collection ([`collect_streams`]) runs per file during the normal
//! scan; the registry checks ([`check_streams_workspace`]) run once over
//! the whole workspace's facts.

use crate::parser::{walk_block_exprs, Ast, Expr};
use crate::report::{Finding, Lint};
use std::collections::BTreeMap;

/// The one module allowed to implement seed/stream derivation.
const RNG_HOME: &str = "crates/sim/src/rng.rs";

/// The one module allowed to derive stream indices arithmetically (its
/// per-node `2i`/`2i + 1` scheme is the documented derivation rule).
const DERIVATION_HOME: &str = "crates/core/src/fleet/mod.rs";

/// The 64-bit golden-ratio constant used by splitmix64 and the stream
/// derivation rule; its appearance outside [`RNG_HOME`] marks a re-derived
/// stream mixing scheme.
const GOLDEN_RATIO: u64 = 0x9E37_79B9_7F4A_7C15;

/// A reserved-stream constant declaration.
#[derive(Debug, Clone)]
pub struct StreamDecl {
    /// Constant name (`MERGE_STREAM`, `FALSE_WAKE_STREAM_BASE`, ...).
    pub name: String,
    /// 1-based declaration line.
    pub line: u32,
    /// Constant value when the initializer is a plain literal or
    /// `u64::MAX`; `None` for derived initializers like `1 << 62`.
    pub value: Option<u64>,
    /// Whether an inline `allow(L6)` marker covers the declaration.
    pub allowed: bool,
}

/// One `SimRng::stream`/`stream_seed` call site naming a reserved constant.
#[derive(Debug, Clone)]
pub struct StreamDraw {
    /// The constant named by the stream argument.
    pub name: String,
    /// 1-based call line.
    pub line: u32,
    /// Whether an inline `allow(L6)` marker covers the call.
    pub allowed: bool,
}

/// Per-file L6 facts, fed to [`check_streams_workspace`].
#[derive(Debug, Clone, Default)]
pub struct StreamFacts {
    /// Workspace-relative path of the scanned file.
    pub file: String,
    /// Reserved-stream constants declared here.
    pub decls: Vec<StreamDecl>,
    /// Reserved-stream constants drawn here.
    pub draws: Vec<StreamDraw>,
}

/// Whether a constant name claims a reserved stream.
fn is_stream_const(name: &str) -> bool {
    name.ends_with("_STREAM") || name.ends_with("_STREAM_BASE")
}

/// Parses an integer literal's text (`1_000`, `0xFF`, `7u64`, ...).
fn parse_num(text: &str) -> Option<u64> {
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    if let Some(hex) = cleaned
        .strip_prefix("0x")
        .or_else(|| cleaned.strip_prefix("0X"))
    {
        let digits: String = hex.chars().take_while(char::is_ascii_hexdigit).collect();
        return u64::from_str_radix(&digits, 16).ok();
    }
    if let Some(bin) = cleaned.strip_prefix("0b") {
        let digits: String = bin.chars().take_while(|c| *c == '0' || *c == '1').collect();
        return u64::from_str_radix(&digits, 2).ok();
    }
    let digits: String = cleaned.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Best-effort constant evaluation of a declaration initializer. Only
/// plain literals and `u64::MAX`/`u64::MIN` resolve; arithmetic stays
/// `None` (duplicate detection then falls back to name identity).
fn eval_u64(e: &Expr) -> Option<u64> {
    match e {
        Expr::Num { text, .. } => parse_num(text),
        Expr::Path { segs, .. } => match segs.last().map(String::as_str) {
            Some("MAX") if segs.iter().any(|s| s == "u64") => Some(u64::MAX),
            Some("MIN") if segs.iter().any(|s| s == "u64") => Some(0),
            _ => None,
        },
        Expr::Wrap { expr } | Expr::Cast { expr, .. } => eval_u64(expr),
        _ => None,
    }
}

/// Whether a numeric literal spells the golden-ratio constant.
fn is_golden_ratio(text: &str) -> bool {
    parse_num(text) == Some(GOLDEN_RATIO)
}

/// How a `SimRng::stream`/`stream_seed` stream argument is formed.
enum StreamArg {
    /// A named `*_STREAM` constant.
    Const(String),
    /// `*_STREAM_BASE + <expr>` (a reserved per-node range).
    BaseOffset(String),
    /// A hard-coded integer index.
    Literal,
    /// Anything else (arithmetic derivation, variables).
    Derived,
}

/// Strips wrapping parens.
fn unwrap_expr(e: &Expr) -> &Expr {
    match e {
        Expr::Wrap { expr } => unwrap_expr(expr),
        _ => e,
    }
}

/// Classifies the stream argument of a draw call.
fn classify_stream_arg(e: &Expr) -> StreamArg {
    match unwrap_expr(e) {
        Expr::Num { .. } => StreamArg::Literal,
        Expr::Path { segs, .. } => match segs.last() {
            Some(name) if is_stream_const(name) => StreamArg::Const(name.clone()),
            _ => StreamArg::Derived,
        },
        Expr::Binary { lhs, rhs, .. } => {
            for side in [lhs.as_ref(), rhs.as_ref()] {
                if let Expr::Path { segs, .. } = unwrap_expr(side) {
                    if let Some(name) = segs.last() {
                        if name.ends_with("_STREAM_BASE") {
                            return StreamArg::BaseOffset(name.clone());
                        }
                    }
                }
            }
            StreamArg::Derived
        }
        _ => StreamArg::Derived,
    }
}

/// Whether the callee path is `SimRng::stream` or `SimRng::stream_seed`.
fn is_draw_callee(callee: &Expr) -> bool {
    if let Expr::Path { segs, .. } = unwrap_expr(callee) {
        if segs.len() >= 2 {
            let ty = &segs[segs.len() - 2];
            let m = &segs[segs.len() - 1];
            return (ty == "SimRng" || ty == "Self") && (m == "stream" || m == "stream_seed");
        }
    }
    false
}

/// Collects per-file stream facts and emits the file-local findings
/// (forks, ad-hoc derivation, literal/derived stream arguments).
pub fn collect_streams(ast: &Ast, path: &str) -> (StreamFacts, Vec<Finding>) {
    let mut facts = StreamFacts {
        file: path.to_string(),
        ..StreamFacts::default()
    };
    let mut findings = Vec::new();
    let in_rng_home = path == RNG_HOME;
    let allowed = |line: u32| ast.lexed.allows(Lint::L6.code(), line);
    let push = |findings: &mut Vec<Finding>, line: u32, kind: &str, message: String| {
        if !allowed(line) {
            findings.push(Finding {
                lint: Lint::L6,
                file: path.to_string(),
                line,
                kind: kind.to_string(),
                message,
            });
        }
    };

    ast.for_each_const(&mut |c| {
        if c.in_test || !is_stream_const(&c.name) {
            return;
        }
        facts.decls.push(StreamDecl {
            name: c.name.clone(),
            line: c.line,
            value: c.init.as_ref().and_then(eval_u64),
            allowed: allowed(c.line),
        });
    });

    ast.for_each_fn(&mut |f| {
        if f.in_test {
            return;
        }
        let Some(body) = &f.body else { return };
        walk_block_exprs(body, &mut |e| match e {
            Expr::MethodCall { name, line, .. } if name == "fork" && !in_rng_home => {
                push(
                    &mut findings,
                    *line,
                    "fork",
                    "`SimRng::fork` outside the derivation home; draw a numbered \
                     stream via `SimRng::stream` instead"
                        .into(),
                );
            }
            Expr::Num { text, line } if is_golden_ratio(text) && !in_rng_home => {
                push(
                    &mut findings,
                    *line,
                    "adhoc-derivation",
                    "golden-ratio seed mixing outside `SimRng`; use \
                     `SimRng::stream_seed`/`fan_seed` so the derivation rule \
                     has one home"
                        .into(),
                );
            }
            Expr::Call { callee, args, line } if is_draw_callee(callee) && !in_rng_home => {
                match args.get(1).map(classify_stream_arg) {
                    Some(StreamArg::Const(name)) | Some(StreamArg::BaseOffset(name)) => {
                        facts.draws.push(StreamDraw {
                            name,
                            line: *line,
                            allowed: allowed(*line),
                        });
                    }
                    Some(StreamArg::Literal) => {
                        push(
                            &mut findings,
                            *line,
                            "literal-stream",
                            "hard-coded stream index; declare a reserved \
                             `*_STREAM` constant"
                                .into(),
                        );
                    }
                    Some(StreamArg::Derived) if path != DERIVATION_HOME => {
                        push(
                            &mut findings,
                            *line,
                            "derived-stream",
                            "arithmetic stream derivation outside the fleet \
                             engine's per-node scheme"
                                .into(),
                        );
                    }
                    _ => {}
                }
            }
            _ => {}
        });
    });

    (facts, findings)
}

/// Cross-file registry checks over every scanned file's [`StreamFacts`].
pub fn check_streams_workspace(all: &[StreamFacts]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut push = |file: &str, line: u32, kind: &str, message: String| {
        findings.push(Finding {
            lint: Lint::L6,
            file: file.to_string(),
            line,
            kind: kind.to_string(),
            message,
        });
    };

    // Declarations by name and by resolved value.
    let mut by_name: BTreeMap<&str, Vec<(&str, &StreamDecl)>> = BTreeMap::new();
    let mut by_value: BTreeMap<u64, Vec<(&str, &StreamDecl)>> = BTreeMap::new();
    for f in all {
        for d in &f.decls {
            by_name.entry(&d.name).or_default().push((&f.file, d));
            if let Some(v) = d.value {
                by_value.entry(v).or_default().push((&f.file, d));
            }
        }
    }

    for (name, decls) in &by_name {
        if decls.len() > 1 {
            for (file, d) in &decls[1..] {
                if !d.allowed {
                    push(
                        file,
                        d.line,
                        "dup-stream",
                        format!(
                            "`{name}` already declared in `{}`; reserved streams \
                             are declared exactly once",
                            decls[0].0
                        ),
                    );
                }
            }
        }
    }
    for (value, decls) in &by_value {
        if decls.len() > 1 {
            for (file, d) in &decls[1..] {
                if !d.allowed {
                    push(
                        file,
                        d.line,
                        "dup-stream",
                        format!(
                            "`{}` reuses stream index {value} already reserved by \
                             `{}` in `{}`",
                            d.name, decls[0].1.name, decls[0].0
                        ),
                    );
                }
            }
        }
    }

    // Draws by constant name: must resolve to a declaration, and each
    // constant is drawn from a single owning file.
    let mut draws_by_name: BTreeMap<&str, Vec<(&str, &StreamDraw)>> = BTreeMap::new();
    for f in all {
        for d in &f.draws {
            draws_by_name.entry(&d.name).or_default().push((&f.file, d));
        }
    }
    for (name, draws) in &draws_by_name {
        if !by_name.contains_key(name) {
            for (file, d) in draws {
                if !d.allowed {
                    push(
                        file,
                        d.line,
                        "unregistered-stream",
                        format!("`{name}` drawn but never declared as a reserved stream"),
                    );
                }
            }
            continue;
        }
        let owner = draws[0].0;
        for (file, d) in &draws[1..] {
            if *file != owner && !d.allowed {
                push(
                    file,
                    d.line,
                    "shared-stream",
                    format!("`{name}` already drawn by `{owner}`; one stream, one subsystem"),
                );
            }
        }
    }

    // Declared but never drawn: dead reservations rot the registry.
    for (name, decls) in &by_name {
        if !draws_by_name.contains_key(name) {
            for (file, d) in decls {
                if !d.allowed {
                    push(
                        file,
                        d.line,
                        "stale-stream",
                        format!("`{name}` declared but never drawn; remove the reservation"),
                    );
                }
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, &a.kind).cmp(&(&b.file, b.line, &b.kind)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn facts(path: &str, src: &str) -> (StreamFacts, Vec<Finding>) {
        let ast = parse(src);
        assert!(ast.gaps.is_empty(), "parse gaps: {:?}", ast.gaps);
        collect_streams(&ast, path)
    }

    #[test]
    fn decl_and_const_draw_are_clean() {
        let (f, findings) = facts(
            "crates/core/src/mesh.rs",
            "const SINK_STREAM: u64 = 7;\n\
             fn go(seed: u64) { let _r = SimRng::stream(seed, SINK_STREAM); }\n",
        );
        assert!(findings.is_empty());
        assert_eq!(f.decls.len(), 1);
        assert_eq!(f.decls[0].value, Some(7));
        assert_eq!(f.draws.len(), 1);
        assert_eq!(f.draws[0].name, "SINK_STREAM");
    }

    #[test]
    fn base_offset_draw_resolves_to_base_const() {
        let (f, findings) = facts(
            "crates/core/src/mesh.rs",
            "const WAKE_STREAM_BASE: u64 = 1 << 62;\n\
             fn go(seed: u64, i: u64) {\n\
                 let _r = SimRng::stream(seed, WAKE_STREAM_BASE + i);\n\
             }\n",
        );
        assert!(findings.is_empty());
        assert_eq!(f.draws[0].name, "WAKE_STREAM_BASE");
        // `1 << 62` does not const-evaluate; name identity still registers.
        assert_eq!(f.decls[0].value, None);
    }

    #[test]
    fn literal_and_derived_stream_args_flag() {
        let (_, findings) = facts(
            "crates/core/src/mesh.rs",
            "fn go(seed: u64, i: u64) {\n\
                 let _a = SimRng::stream(seed, 3);\n\
                 let _b = SimRng::stream_seed(seed, 2 * i);\n\
             }\n",
        );
        let kinds: Vec<&str> = findings.iter().map(|f| f.kind.as_str()).collect();
        assert_eq!(kinds, ["literal-stream", "derived-stream"]);
    }

    #[test]
    fn fleet_engine_may_derive_streams() {
        let (_, findings) = facts(
            "crates/core/src/fleet/mod.rs",
            "fn node_stream(master: u64, node: usize) -> u64 {\n\
                 SimRng::stream_seed(master, 2 * node as u64)\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn fork_and_golden_ratio_flag_outside_rng_home() {
        let (_, findings) = facts(
            "crates/harvest/src/shaker.rs",
            "fn go(rng: &mut SimRng, seed: u64) -> u64 {\n\
                 let _child = rng.fork();\n\
                 seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)\n\
             }\n",
        );
        let kinds: Vec<&str> = findings.iter().map(|f| f.kind.as_str()).collect();
        assert_eq!(kinds, ["fork", "adhoc-derivation"]);
    }

    #[test]
    fn rng_home_is_exempt() {
        let (_, findings) = facts(
            "crates/sim/src/rng.rs",
            "fn mix(s: u64) -> u64 { s.wrapping_add(0x9E37_79B9_7F4A_7C15) }\n",
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn allow_marker_suppresses_site() {
        let (_, findings) = facts(
            "crates/core/src/stack/storage.rs",
            "fn hash(seed: u64) -> u64 {\n\
                 // picocube-lint: allow(L6) independent decorrelation hash\n\
                 seed.wrapping_add(0x9E37_79B9_7F4A_7C15)\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn test_code_is_skipped() {
        let (f, findings) = facts(
            "crates/core/src/mesh.rs",
            "#[cfg(test)]\nmod tests {\n\
                 #[test]\n\
                 fn t() { let _r = SimRng::stream(1, 3); }\n\
             }\n",
        );
        assert!(findings.is_empty());
        assert!(f.draws.is_empty());
    }

    fn one_file(path: &str, src: &str) -> StreamFacts {
        facts(path, src).0
    }

    #[test]
    fn workspace_dup_by_name_and_value() {
        let a = one_file(
            "crates/core/src/fleet.rs",
            "const MERGE_STREAM: u64 = 100;\n\
             fn go(s: u64) { let _ = SimRng::stream(s, MERGE_STREAM); }\n",
        );
        let b = one_file(
            "crates/core/src/mesh.rs",
            "const MERGE_STREAM: u64 = 101;\n\
             const SINK_STREAM: u64 = 100;\n\
             fn go(s: u64) {\n\
                 let _ = SimRng::stream(s, MERGE_STREAM);\n\
                 let _ = SimRng::stream(s, SINK_STREAM);\n\
             }\n",
        );
        let findings = check_streams_workspace(&[a, b]);
        let kinds: Vec<&str> = findings.iter().map(|f| f.kind.as_str()).collect();
        // mesh.rs redeclares MERGE_STREAM (name), SINK_STREAM reuses
        // index 100 (value), and mesh.rs also draws fleet's MERGE_STREAM.
        assert_eq!(kinds, ["dup-stream", "dup-stream", "shared-stream"]);
        assert!(findings.iter().all(|f| f.file == "crates/core/src/mesh.rs"));
    }

    #[test]
    fn workspace_shared_unregistered_and_stale() {
        let a = one_file(
            "crates/core/src/fleet.rs",
            "const MERGE_STREAM: u64 = 1;\n\
             const SPARE_STREAM: u64 = 2;\n\
             fn go(s: u64) { let _ = SimRng::stream(s, MERGE_STREAM); }\n",
        );
        let b = one_file(
            "crates/core/src/mesh.rs",
            "fn go(s: u64) {\n\
                 let _ = SimRng::stream(s, MERGE_STREAM);\n\
                 let _ = SimRng::stream(s, GHOST_STREAM);\n\
             }\n",
        );
        let findings = check_streams_workspace(&[a, b]);
        let kinds: Vec<&str> = findings.iter().map(|f| f.kind.as_str()).collect();
        assert!(kinds.contains(&"shared-stream"), "{findings:?}");
        assert!(kinds.contains(&"unregistered-stream"), "{findings:?}");
        assert!(kinds.contains(&"stale-stream"), "{findings:?}");
    }

    #[test]
    fn clean_workspace_has_no_findings() {
        let a = one_file(
            "crates/core/src/fleet.rs",
            "const MERGE_STREAM: u64 = u64::MAX;\n\
             fn go(s: u64) { let _ = SimRng::stream(s, MERGE_STREAM); }\n",
        );
        let b = one_file(
            "crates/core/src/mesh.rs",
            "const SINK_STREAM: u64 = 50;\n\
             fn go(s: u64) { let _ = SimRng::stream(s, SINK_STREAM); }\n",
        );
        assert!(check_streams_workspace(&[a, b]).is_empty());
    }
}

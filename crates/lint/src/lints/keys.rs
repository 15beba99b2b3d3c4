//! L7: telemetry-key registry.
//!
//! Metric keys are stringly typed at the `picocube-telemetry` API, which
//! means a typo'd key silently splits a counter and a renamed key silently
//! orphans every golden fixture that mentions the old spelling. The lint
//! closes the loop around one registry: `crates/telemetry/src/keys.rs`.
//!
//! - every key passed to a [`KEY_METHODS`] call is a `keys::` constant,
//!   an imported registry constant, or a call to a registry helper
//!   function (the blessed home for `format!`-built dynamic keys) — never
//!   an inline string literal or ad-hoc `format!`;
//! - the registry itself has no duplicate values, and `*_PATTERN`
//!   constants (with `*` wildcards) document each dynamic key family;
//! - every dotted metric key appearing in a golden fixture matches a
//!   registry constant or pattern, so emit sites and goldens cannot
//!   drift apart unnoticed.
//!
//! Events are not covered: `EventKind` is a typed enum, so the compiler
//! already enforces its namespace.

use crate::parser::{walk_block_exprs, Ast, Expr};
use crate::report::{Finding, Lint};
use std::collections::{BTreeMap, BTreeSet};

/// The registry module; the only place metric-key strings may live.
pub const KEYS_HOME: &str = "crates/telemetry/src/keys.rs";

/// `Metrics` methods whose first argument is a metric key.
pub const KEY_METHODS: &[&str] = &[
    "inc",
    "add",
    "observe",
    "register_histogram",
    "counter",
    "gauge",
    "histogram",
];

/// A registry constant (`pub const MESH_OFFERED: &str = "mesh.offered";`).
#[derive(Debug, Clone)]
pub struct KeyConst {
    /// Constant name.
    pub name: String,
    /// The key string, when the initializer is a plain literal.
    pub value: Option<String>,
    /// 1-based declaration line.
    pub line: u32,
    /// Whether an inline `allow(L7)` marker covers the declaration.
    pub allowed: bool,
}

/// A reference to a registry item (`keys::MESH_OFFERED`,
/// `keys::power_rail_uj(...)` or an imported constant).
#[derive(Debug, Clone)]
pub struct KeyRef {
    /// The referenced constant or helper-function name.
    pub name: String,
    /// 1-based reference line.
    pub line: u32,
    /// Whether an inline `allow(L7)` marker covers the site.
    pub allowed: bool,
}

/// Per-file L7 facts, fed to [`check_keys_workspace`].
#[derive(Debug, Clone, Default)]
pub struct KeyFacts {
    /// Workspace-relative path of the scanned file.
    pub file: String,
    /// Registry constants (populated only for [`KEYS_HOME`]).
    pub registry: Vec<KeyConst>,
    /// Registry helper functions (populated only for [`KEYS_HOME`]).
    pub helper_fns: Vec<String>,
    /// Registry references at emit/read sites.
    pub refs: Vec<KeyRef>,
}

/// Strips references and parens off an argument expression.
fn unwrap_arg(e: &Expr) -> &Expr {
    match e {
        Expr::Wrap { expr } | Expr::Unary { expr } => unwrap_arg(expr),
        _ => e,
    }
}

/// How a key argument is formed.
enum KeyArg {
    /// `keys::NAME` or an imported registry constant.
    Registry(String),
    /// A string literal or string-building macro.
    Inline,
    /// An `ALLCAPS` constant that does not come from the registry.
    Foreign(String),
    /// Anything else (variables, passthrough parameters): not checkable
    /// locally; the golden cross-check catches drift they could cause.
    Opaque,
}

/// Whether a path has a `keys` module segment.
fn has_keys_seg(segs: &[String]) -> bool {
    segs.iter().any(|s| s == "keys")
}

/// Whether an identifier looks like a constant name.
fn is_const_ident(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
}

/// Classifies the first argument of a key-taking call. `imported` holds
/// the names brought in by `use ...::keys::{...}` in this file.
fn classify_key_arg(e: &Expr, imported: &BTreeSet<String>) -> KeyArg {
    match unwrap_arg(e) {
        Expr::Str { .. } => KeyArg::Inline,
        Expr::Macro { segs, .. } => match segs.last().map(String::as_str) {
            Some("format" | "concat") => KeyArg::Inline,
            _ => KeyArg::Opaque,
        },
        Expr::Path { segs, .. } => {
            let Some(name) = segs.last() else {
                return KeyArg::Opaque;
            };
            if has_keys_seg(segs) || imported.contains(name) {
                KeyArg::Registry(name.clone())
            } else if is_const_ident(name) {
                KeyArg::Foreign(name.clone())
            } else {
                KeyArg::Opaque
            }
        }
        Expr::Call { callee, .. } => {
            if let Expr::Path { segs, .. } = unwrap_arg(callee) {
                if has_keys_seg(segs) {
                    if let Some(name) = segs.last() {
                        return KeyArg::Registry(name.clone());
                    }
                }
            }
            KeyArg::Opaque
        }
        _ => KeyArg::Opaque,
    }
}

/// Collects per-file key facts and emits the file-local findings
/// (inline keys, constants from outside the registry).
pub fn collect_keys(ast: &Ast, path: &str) -> (KeyFacts, Vec<Finding>) {
    let mut facts = KeyFacts {
        file: path.to_string(),
        ..KeyFacts::default()
    };
    let mut findings = Vec::new();
    let in_keys_home = path == KEYS_HOME;
    let allowed = |line: u32| ast.lexed.allows(Lint::L7.code(), line);

    if in_keys_home {
        ast.for_each_const(&mut |c| {
            if c.in_test {
                return;
            }
            let value = c.init.as_ref().and_then(|e| match unwrap_arg(e) {
                Expr::Str { text, line: _ } => decode_str(text),
                _ => None,
            });
            facts.registry.push(KeyConst {
                name: c.name.clone(),
                value,
                line: c.line,
                allowed: allowed(c.line),
            });
        });
        ast.for_each_fn(&mut |f| {
            if !f.in_test {
                facts.helper_fns.push(f.name.clone());
            }
        });
        return (facts, findings);
    }

    // Names imported from the registry via `use`.
    let mut imported = BTreeSet::new();
    ast.for_each_use(&mut |u| {
        if has_keys_seg(&u.prefix) {
            imported.extend(u.leaves.iter().cloned());
        }
    });

    ast.for_each_fn(&mut |f| {
        if f.in_test {
            return;
        }
        let Some(body) = &f.body else { return };
        walk_block_exprs(body, &mut |e| {
            let Expr::MethodCall {
                name, args, line, ..
            } = e
            else {
                return;
            };
            if !KEY_METHODS.contains(&name.as_str()) {
                return;
            }
            let Some(arg0) = args.first() else { return };
            match classify_key_arg(arg0, &imported) {
                KeyArg::Registry(key) => facts.refs.push(KeyRef {
                    name: key,
                    line: *line,
                    allowed: allowed(*line),
                }),
                KeyArg::Inline => {
                    if !allowed(*line) {
                        findings.push(Finding {
                            lint: Lint::L7,
                            file: path.to_string(),
                            line: *line,
                            kind: "inline-key".into(),
                            message: format!(
                                "inline metric key passed to `{name}`; use a \
                                 `picocube_telemetry::keys` constant or helper"
                            ),
                        });
                    }
                }
                KeyArg::Foreign(konst) => {
                    if !allowed(*line) {
                        findings.push(Finding {
                            lint: Lint::L7,
                            file: path.to_string(),
                            line: *line,
                            kind: "unregistered-key".into(),
                            message: format!(
                                "`{konst}` is not a `picocube_telemetry::keys` \
                                 constant; metric keys live in the registry"
                            ),
                        });
                    }
                }
                KeyArg::Opaque => {}
            }
        });
    });

    (facts, findings)
}

/// Decodes a string literal's token text into its value.
fn decode_str(text: &str) -> Option<String> {
    // The lexer retains raw token text; reuse its decoding rules via a
    // tiny local copy (plain `"..."` literals only — registry keys never
    // need escapes beyond the basics).
    let inner = text.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                '0' => out.push('\0'),
                other => out.push(other),
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Matches a key against a `*`-wildcard pattern (`*` spans any chars).
pub fn pattern_matches(pattern: &str, key: &str) -> bool {
    fn inner(p: &[u8], k: &[u8]) -> bool {
        match p.first() {
            None => k.is_empty(),
            Some(b'*') => (0..=k.len()).any(|i| inner(&p[1..], &k[i..])),
            Some(c) => k.first() == Some(c) && inner(&p[1..], &k[1..]),
        }
    }
    inner(pattern.as_bytes(), key.as_bytes())
}

/// A golden fixture's extracted metric keys, for the drift check.
#[derive(Debug, Clone)]
pub struct GoldenKeys {
    /// Display path of the fixture (workspace-relative).
    pub file: String,
    /// Dotted metric keys found in the document.
    pub keys: Vec<String>,
}

/// Cross-file registry checks: duplicate values, unknown references and
/// golden-fixture drift.
pub fn check_keys_workspace(all: &[KeyFacts], goldens: &[GoldenKeys]) -> Vec<Finding> {
    let mut findings = Vec::new();

    let registry_file = all.iter().find(|f| f.file == KEYS_HOME);
    let consts: Vec<&KeyConst> = registry_file
        .map(|f| f.registry.iter().collect())
        .unwrap_or_default();
    let helper_fns: BTreeSet<&str> = registry_file
        .map(|f| f.helper_fns.iter().map(String::as_str).collect())
        .unwrap_or_default();
    let const_names: BTreeSet<&str> = consts.iter().map(|c| c.name.as_str()).collect();

    // Duplicate key values split a metric silently; flag the later decl.
    let mut by_value: BTreeMap<&str, &KeyConst> = BTreeMap::new();
    for c in &consts {
        let Some(v) = &c.value else { continue };
        if let Some(first) = by_value.get(v.as_str()) {
            if !c.allowed {
                findings.push(Finding {
                    lint: Lint::L7,
                    file: KEYS_HOME.into(),
                    line: c.line,
                    kind: "dup-key".into(),
                    message: format!(
                        "`{}` duplicates key \"{v}\" already registered as `{}`",
                        c.name, first.name
                    ),
                });
            }
        } else {
            by_value.insert(v, c);
        }
    }

    // Every reference resolves to a registry constant or helper.
    for f in all {
        for r in &f.refs {
            if r.allowed
                || const_names.contains(r.name.as_str())
                || helper_fns.contains(r.name.as_str())
            {
                continue;
            }
            findings.push(Finding {
                lint: Lint::L7,
                file: f.file.clone(),
                line: r.line,
                kind: "unknown-key".into(),
                message: format!("`keys::{}` is not declared in the registry", r.name),
            });
        }
    }

    // Golden fixtures only mention registered keys (exact or pattern).
    let values: BTreeSet<&str> = consts.iter().filter_map(|c| c.value.as_deref()).collect();
    let patterns: Vec<&str> = consts
        .iter()
        .filter(|c| c.name.ends_with("_PATTERN"))
        .filter_map(|c| c.value.as_deref())
        .collect();
    for g in goldens {
        for key in &g.keys {
            let known =
                values.contains(key.as_str()) || patterns.iter().any(|p| pattern_matches(p, key));
            if !known {
                findings.push(Finding {
                    lint: Lint::L7,
                    file: g.file.clone(),
                    line: 0,
                    kind: "golden-drift".into(),
                    message: format!(
                        "golden fixture key \"{key}\" is not in the telemetry-key registry"
                    ),
                });
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

    fn facts(path: &str, src: &str) -> (KeyFacts, Vec<Finding>) {
        let ast = parse(src);
        assert!(ast.gaps.is_empty(), "parse gaps: {:?}", ast.gaps);
        collect_keys(&ast, path)
    }

    #[test]
    fn registry_consts_and_helpers_are_collected() {
        let (f, findings) = facts(
            KEYS_HOME,
            "pub const MESH_OFFERED: &str = \"mesh.offered\";\n\
             pub const POWER_RAIL_UJ_PATTERN: &str = \"power.rail.*.uj\";\n\
             pub fn power_rail_uj(rail: &str) -> String {\n\
                 format!(\"power.rail.{rail}.uj\")\n\
             }\n",
        );
        assert!(findings.is_empty());
        assert_eq!(f.registry.len(), 2);
        assert_eq!(f.registry[0].value.as_deref(), Some("mesh.offered"));
        assert_eq!(f.helper_fns, ["power_rail_uj"]);
    }

    #[test]
    fn inline_key_flags_and_registry_ref_does_not() {
        let (f, findings) = facts(
            "crates/core/src/mesh.rs",
            "use picocube_telemetry::keys;\n\
             fn go(m: &mut Metrics) {\n\
                 m.inc(keys::MESH_OFFERED, 1);\n\
                 m.inc(\"mesh.collided\", 1);\n\
                 m.add(&format!(\"power.rail.{}.uj\", name), 0.5);\n\
             }\n",
        );
        let kinds: Vec<&str> = findings.iter().map(|x| x.kind.as_str()).collect();
        assert_eq!(kinds, ["inline-key", "inline-key"]);
        assert_eq!(f.refs.len(), 1);
        assert_eq!(f.refs[0].name, "MESH_OFFERED");
    }

    #[test]
    fn imported_const_and_helper_call_are_registry_refs() {
        let (f, findings) = facts(
            "crates/sim/src/power.rs",
            "use picocube_telemetry::keys::{POWER_TOTAL_UJ};\n\
             fn go(m: &mut Metrics, rail: &str) {\n\
                 m.add(POWER_TOTAL_UJ, 1.0);\n\
                 m.add(&keys::power_rail_uj(rail), 2.0);\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
        let names: Vec<&str> = f.refs.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["POWER_TOTAL_UJ", "power_rail_uj"]);
    }

    #[test]
    fn foreign_const_flags_unregistered() {
        let (_, findings) = facts(
            "crates/core/src/mesh.rs",
            "const MY_KEY: &str = \"mesh.offered\";\n\
             fn go(m: &mut Metrics) { m.inc(MY_KEY, 1); }\n",
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, "unregistered-key");
    }

    #[test]
    fn passthrough_variables_are_not_flagged() {
        let (_, findings) = facts(
            "crates/sim/src/queue.rs",
            "fn export(m: &mut Metrics, key: &str, n: u64) { m.inc(key, n); }\n",
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn allow_marker_suppresses_inline_key() {
        let (_, findings) = facts(
            "crates/core/src/mesh.rs",
            "fn go(m: &mut Metrics) {\n\
                 // picocube-lint: allow(L7) scratch metric in a demo\n\
                 m.inc(\"demo.scratch\", 1);\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn test_code_is_skipped() {
        let (_, findings) = facts(
            "crates/core/src/mesh.rs",
            "#[cfg(test)]\nmod tests {\n\
                 #[test]\n\
                 fn t() { m.inc(\"mesh.offered\", 1); }\n\
             }\n",
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn wildcard_patterns_match_spans() {
        assert!(pattern_matches("power.rail.*.uj", "power.rail.VBAT.uj"));
        assert!(pattern_matches("power.load.*.uj", "power.load.VBAT.mcu.uj"));
        assert!(pattern_matches("*.pushed", "sim.queue.pushed"));
        assert!(!pattern_matches("power.rail.*.uj", "power.rail.VBAT.nj"));
        assert!(!pattern_matches("mesh.offered", "mesh.offered_load"));
    }

    fn registry(src: &str) -> KeyFacts {
        facts(KEYS_HOME, src).0
    }

    #[test]
    fn workspace_dup_unknown_and_drift() {
        let reg = registry(
            "pub const A: &str = \"mesh.offered\";\n\
             pub const B: &str = \"mesh.offered\";\n\
             pub const RAIL_PATTERN: &str = \"power.rail.*.uj\";\n",
        );
        let user = facts(
            "crates/core/src/mesh.rs",
            "use picocube_telemetry::keys;\n\
             fn go(m: &mut Metrics) { m.inc(keys::GHOST, 1); }\n",
        )
        .0;
        let goldens = [GoldenKeys {
            file: "tests/golden/mesh.json".into(),
            keys: vec![
                "mesh.offered".into(),
                "power.rail.VBAT.uj".into(),
                "mesh.renamed".into(),
            ],
        }];
        let findings = check_keys_workspace(&[reg, user], &goldens);
        let kinds: Vec<&str> = findings.iter().map(|f| f.kind.as_str()).collect();
        assert!(kinds.contains(&"dup-key"), "{findings:?}");
        assert!(kinds.contains(&"unknown-key"), "{findings:?}");
        assert!(kinds.contains(&"golden-drift"), "{findings:?}");
        assert_eq!(findings.len(), 3);
    }

    #[test]
    fn clean_workspace_has_no_findings() {
        let reg = registry("pub const MESH_OFFERED: &str = \"mesh.offered\";\n");
        let user = facts(
            "crates/core/src/mesh.rs",
            "use picocube_telemetry::keys;\n\
             fn go(m: &mut Metrics) { m.inc(keys::MESH_OFFERED, 1); }\n",
        )
        .0;
        let goldens = [GoldenKeys {
            file: "tests/golden/mesh.json".into(),
            keys: vec!["mesh.offered".into()],
        }];
        assert!(check_keys_workspace(&[reg, user], &goldens).is_empty());
    }
}

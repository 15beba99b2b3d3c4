//! Workspace invariant linter for the PicoCube simulation.
//!
//! `cargo xtask lint` runs seven lints over every library source in the
//! workspace:
//!
//! - **L1 unit hygiene** — public functions in the physical crates must not
//!   take or return bare `f64` where a `picocube-units` quantity exists.
//! - **L2 panic freedom** — no `unwrap`/`expect`/`panic!`/slice indexing in
//!   library code of the simulation hot path; residual sites live in a
//!   shrink-only allowlist (`lint-allowlist.txt`).
//! - **L3 determinism** — no `HashMap`/`HashSet`, wall clocks or ambient
//!   RNG in the simulation core, fleet engine and telemetry merge paths.
//! - **L4 provenance** — named physical constants in power/radio/storage
//!   must cite their paper section (`§x.y`) in a doc comment.
//! - **L5 dimensional flow** — unit types inferred through function bodies
//!   of the physical crates must agree at every add/sub/compare, and
//!   `.0`/`into_inner` laundering must not escape into arithmetic.
//! - **L6 RNG-stream discipline** — reserved `SimRng` streams are declared
//!   once, drawn by one module, never forked or re-derived ad hoc.
//! - **L7 telemetry-key registry** — metric keys are constants from
//!   `picocube_telemetry::keys`, and golden fixtures only mention
//!   registered keys.
//!
//! The workspace builds fully offline, so there is no `syn`: the crate
//! carries its own minimal lexer ([`lexer`]) and recursive-descent parser
//! ([`parser`]), and each file is lexed and parsed once. All seven lints
//! read that one AST: L1 and L4 its items, L5–L7 its expressions, and L2
//! and L3 its token stream, with test code and fn bodies taken from the
//! spans the parser records. Individual sites opt out with an inline
//! `picocube-lint: allow(L1)`-style marker, which applies to its own line
//! and the next. Constructs the parser cannot understand become structured
//! parse gaps, and a gap fails the run like a finding: every lint is blind
//! past it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod allowlist;
pub mod lexer;
pub mod lints;
pub mod parser;
pub mod report;
pub mod scope;

use allowlist::Allowlist;
use lints::{GoldenKeys, KeyFacts, StreamFacts};
use picocube_units::json::Json;
use report::{Finding, Lint, Report, ReportGap};
use scope::scope_for;
use std::io;
use std::path::{Path, PathBuf};

/// The allowlist's location, relative to the workspace root.
pub const ALLOWLIST_PATH: &str = "lint-allowlist.txt";

/// The golden-fixture tree scanned by the L7 drift check.
pub const GOLDEN_DIR: &str = "tests/golden";

/// One file's full analysis: findings, cross-file facts and parse gaps.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Raw findings (nothing netted against the allowlist yet).
    pub findings: Vec<Finding>,
    /// L6 facts for the workspace stream-registry check.
    pub stream_facts: Option<StreamFacts>,
    /// L7 facts for the workspace key-registry check.
    pub key_facts: Option<KeyFacts>,
    /// Constructs the parser could not understand.
    pub parse_gaps: Vec<ReportGap>,
}

/// Analyzes one file's contents under the scope its path implies: the file
/// is lexed and parsed once, and every lint in scope reads that parse.
/// Files outside every scope yield an empty analysis.
pub fn analyze_file(rel_path: &str, src: &str) -> FileAnalysis {
    let mut out = FileAnalysis::default();
    let Some(scope) = scope_for(rel_path) else {
        return out;
    };
    let ast = parser::parse(src);
    out.parse_gaps.extend(ast.gaps.iter().map(|g| ReportGap {
        file: rel_path.to_string(),
        line: g.line,
        context: g.context.to_string(),
        found: g.found.clone(),
    }));
    if scope.l1 {
        out.findings.extend(lints::check_units(&ast, rel_path));
    }
    if scope.l2 {
        out.findings
            .extend(lints::check_panics(&ast, rel_path, scope.l2_index));
    }
    if scope.l3 {
        out.findings
            .extend(lints::check_determinism(&ast, rel_path));
    }
    if scope.l4 {
        out.findings.extend(lints::check_provenance(&ast, rel_path));
    }
    if scope.l5 {
        out.findings.extend(lints::check_dimflow(&ast, rel_path));
    }
    if scope.l6 {
        let (facts, findings) = lints::collect_streams(&ast, rel_path);
        out.findings.extend(findings);
        out.stream_facts = Some(facts);
    }
    if scope.l7 {
        let (facts, findings) = lints::collect_keys(&ast, rel_path);
        out.findings.extend(findings);
        out.key_facts = Some(facts);
    }
    out
}

/// Lints one file's contents under the scope its path implies. Findings of
/// the allowlisted lints are returned raw (not netted against any
/// allowlist), and the cross-file registry checks do not run — this is the
/// per-file surface the fixture tests exercise.
pub fn lint_file_contents(rel_path: &str, src: &str) -> Vec<Finding> {
    analyze_file(rel_path, src).findings
}

/// A completed workspace run.
#[derive(Debug)]
pub struct RunOutput {
    /// The final report (allowlisted lints already netted).
    pub report: Report,
    /// Raw findings of the allowlisted lints (L2/L5/L6/L7) before the
    /// allowlist, for `--update-allowlist`.
    pub raw_allowlisted: Vec<Finding>,
}

/// Recursively collects files with `ext` under `dir`, as workspace-relative
/// paths with `/` separators, in sorted order.
fn collect_files(root: &Path, dir: &Path, ext: &str, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_files(root, &path, ext, out)?;
        } else if path.extension().is_some_and(|e| e == ext) {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    Ok(())
}

/// Enumerates the scannable library sources of the workspace rooted at
/// `root` (every `crates/*/src` tree plus the root package's `src`).
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                collect_files(root, &src, "rs", &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_files(root, &root_src, "rs", &mut files)?;
    }
    files.retain(|f| scope_for(f).is_some());
    Ok(files)
}

/// Collects every `metrics` object's keys from one parsed golden document.
fn metrics_keys(doc: &Json, out: &mut Vec<String>) {
    match doc {
        Json::Obj(pairs) => {
            for (key, value) in pairs {
                if key == "metrics" {
                    if let Json::Obj(metrics) = value {
                        out.extend(metrics.iter().map(|(k, _)| k.clone()));
                    }
                }
                metrics_keys(value, out);
            }
        }
        Json::Arr(items) => {
            for item in items {
                metrics_keys(item, out);
            }
        }
        _ => {}
    }
}

/// Extracts the metric keys of every golden fixture under
/// [`GOLDEN_DIR`], for the L7 drift check. Unparseable fixtures are
/// skipped here — the golden tests themselves fail on those.
pub fn golden_keys(root: &Path) -> io::Result<Vec<GoldenKeys>> {
    let dir = root.join(GOLDEN_DIR);
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut files = Vec::new();
    collect_files(root, &dir, "json", &mut files)?;
    let mut out = Vec::new();
    for rel in files {
        let text = std::fs::read_to_string(root.join(&rel))?;
        let Ok(doc) = Json::parse(&text) else {
            continue;
        };
        let mut keys = Vec::new();
        metrics_keys(&doc, &mut keys);
        keys.sort();
        keys.dedup();
        out.push(GoldenKeys { file: rel, keys });
    }
    Ok(out)
}

/// Runs the full lint over the workspace at `root`.
///
/// # Errors
///
/// Returns I/O errors from walking or reading sources, and surfaces a
/// malformed allowlist as a finding rather than an error so it shows up in
/// the report like any other violation.
pub fn run_workspace(root: &Path) -> io::Result<RunOutput> {
    let files = workspace_files(root)?;
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    let mut raw = Vec::new();
    let mut stream_facts = Vec::new();
    let mut key_facts = Vec::new();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        let analysis = analyze_file(rel, &src);
        for f in analysis.findings {
            if Lint::ALLOWLISTED.contains(&f.lint) {
                raw.push(f);
            } else {
                report.findings.push(f);
            }
        }
        report.parse_gaps.extend(analysis.parse_gaps);
        stream_facts.extend(analysis.stream_facts);
        key_facts.extend(analysis.key_facts);
    }

    // Cross-file registry checks (inline-allowed sites were already
    // filtered out during fact collection).
    raw.extend(lints::check_streams_workspace(&stream_facts));
    raw.extend(lints::check_keys_workspace(&key_facts, &golden_keys(root)?));

    let allow_path = root.join(ALLOWLIST_PATH);
    let allow = if allow_path.is_file() {
        match Allowlist::parse(&std::fs::read_to_string(&allow_path)?) {
            Ok(a) => a,
            Err(msg) => {
                report.findings.push(Finding {
                    lint: Lint::L2,
                    file: ALLOWLIST_PATH.into(),
                    line: 0,
                    kind: "allowlist-parse".into(),
                    message: msg,
                });
                Allowlist::default()
            }
        }
    } else {
        Allowlist::default()
    };
    raw.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    let (kept, suppressed) = allow.apply(raw.clone());
    report.findings.extend(kept);
    report.allowlisted = suppressed;
    report.sort();
    Ok(RunOutput {
        report,
        raw_allowlisted: raw,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_scope_files_yield_nothing() {
        let findings = lint_file_contents("crates/lint/src/lib.rs", "fn f() { x.unwrap(); }");
        assert!(findings.is_empty());
    }

    #[test]
    fn scoped_file_is_linted() {
        let findings = lint_file_contents("crates/sim/src/fake.rs", "fn f() { x.unwrap(); }");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, Lint::L2);
    }

    #[test]
    fn l1_only_fires_in_physical_crates() {
        let src = "pub fn set(&mut self, rail_voltage: f64) {}";
        assert_eq!(lint_file_contents("crates/power/src/fake.rs", src).len(), 1);
        assert!(lint_file_contents("crates/sim/src/fake.rs", src).is_empty());
    }

    #[test]
    fn l5_fires_in_physical_crates_only() {
        let src = "fn f(v: Volts, a: Amps) -> bool { v > a }\n";
        let findings = lint_file_contents("crates/power/src/fake.rs", src);
        assert!(findings.iter().any(|f| f.lint == Lint::L5), "{findings:?}");
        // The radio crate is L1-scoped but not L5-scoped.
        let findings = lint_file_contents("crates/radio/src/fake.rs", src);
        assert!(findings.iter().all(|f| f.lint != Lint::L5));
    }

    #[test]
    fn l6_and_l7_fire_in_any_scanned_file() {
        let src = "fn f(m: &mut Metrics, s: u64) {\n\
                       m.inc(\"ad.hoc\", 1);\n\
                       let _r = SimRng::stream(s, 3);\n\
                   }\n";
        let findings = lint_file_contents("crates/core/src/fake.rs", src);
        assert!(findings.iter().any(|f| f.lint == Lint::L6));
        assert!(findings.iter().any(|f| f.lint == Lint::L7));
    }

    #[test]
    fn analyze_reports_parse_gaps() {
        let analysis = analyze_file("crates/sim/src/fake.rs", "fn f() { let x = @!; }\n");
        assert!(!analysis.parse_gaps.is_empty());
    }

    #[test]
    fn a_parse_gap_fails_a_workspace_run() {
        let root = std::env::temp_dir().join(format!("picocube-lint-gap-{}", std::process::id()));
        let src_dir = root.join("crates/sim/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(src_dir.join("bad.rs"), "fn f() { let x = @!; }\n").unwrap();
        let run = run_workspace(&root);
        std::fs::remove_dir_all(&root).unwrap();
        let report = run.unwrap().report;
        assert!(report.findings.is_empty());
        assert!(!report.parse_gaps.is_empty());
        assert!(
            !report.is_clean(),
            "a gap blinds every lint, so it fails the run"
        );
        assert!(report.render_table().contains("crates/sim/src/bad.rs:1"));
    }

    #[test]
    fn cfg_not_test_is_library_code_for_every_lint() {
        let items = "pub fn set(rail_voltage: f64) { x.unwrap(); }\n\
                     fn emit(m: &mut Metrics) { m.inc(\"ad.hoc\", 1); }\n";
        let lints = |attr: &str| -> Vec<(Lint, u32)> {
            let src = format!("#[{attr}]\nmod m {{\n{items}}}\n");
            lint_file_contents("crates/power/src/fake.rs", &src)
                .iter()
                .map(|f| (f.lint, f.line))
                .collect()
        };
        assert_eq!(
            lints("cfg(not(test))"),
            [(Lint::L1, 3), (Lint::L2, 3), (Lint::L7, 4)]
        );
        assert_eq!(lints("cfg(test)"), []);
    }

    #[test]
    fn metrics_keys_walks_nested_objects() {
        let doc = Json::parse(r#"{"outcome":{"metrics":{"a.b":1,"c.d":2}},"metrics":{"e.f":3}}"#)
            .unwrap();
        let mut keys = Vec::new();
        metrics_keys(&doc, &mut keys);
        keys.sort();
        assert_eq!(keys, ["a.b", "c.d", "e.f"]);
    }
}

//! Findings, the machine-readable JSON report and the human table.

use picocube_units::json::{Json, ToJson};
use std::fmt::Write as _;

/// The seven workspace lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// Unit hygiene: no bare `f64` in public signatures where a
    /// `picocube-units` quantity exists.
    L1,
    /// Panic freedom: no `unwrap`/`expect`/`panic!`/indexing in library
    /// code of the simulation hot path.
    L2,
    /// Determinism: no `HashMap`/`HashSet`, wall clocks or ambient RNG in
    /// the simulation and telemetry merge paths.
    L3,
    /// Provenance: named physical constants must cite a paper section.
    L4,
    /// Dimensional flow: unit types inferred through function bodies must
    /// agree at every add/sub/compare; `.0`/`into_inner` laundering that
    /// escapes into arithmetic is flagged.
    L5,
    /// RNG-stream discipline: reserved `SimRng` streams are declared once,
    /// drawn by one module, never forked or re-derived ad hoc.
    L6,
    /// Telemetry-key registry: metric/event keys are constants from the
    /// `picocube-telemetry` `keys` module, never inline strings.
    L7,
}

impl Lint {
    /// Stable short code, also the name used by allow markers.
    pub fn code(self) -> &'static str {
        match self {
            Self::L1 => "L1",
            Self::L2 => "L2",
            Self::L3 => "L3",
            Self::L4 => "L4",
            Self::L5 => "L5",
            Self::L6 => "L6",
            Self::L7 => "L7",
        }
    }

    /// One-line description for report headers.
    pub fn title(self) -> &'static str {
        match self {
            Self::L1 => "unit hygiene",
            Self::L2 => "panic freedom",
            Self::L3 => "determinism",
            Self::L4 => "provenance",
            Self::L5 => "dimensional flow",
            Self::L6 => "rng-stream discipline",
            Self::L7 => "telemetry-key registry",
        }
    }

    /// Parses a lint code (`"L5"` → [`Lint::L5`]).
    pub fn parse(code: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|l| l.code() == code)
    }

    /// All lints in report order.
    pub const ALL: [Lint; 7] = [
        Lint::L1,
        Lint::L2,
        Lint::L3,
        Lint::L4,
        Lint::L5,
        Lint::L6,
        Lint::L7,
    ];

    /// The lints whose findings are netted against `lint-allowlist.txt`.
    pub const ALLOWLISTED: [Lint; 4] = [Lint::L2, Lint::L5, Lint::L6, Lint::L7];
}

/// One lint violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Sub-kind within the lint (e.g. `unwrap`, `param`, `const`).
    pub kind: String,
    /// Human-readable explanation.
    pub message: String,
}

impl ToJson for Finding {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("lint".into(), Json::Str(self.lint.code().into())),
            ("file".into(), Json::Str(self.file.clone())),
            ("line".into(), Json::UInt(u64::from(self.line))),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("message".into(), Json::Str(self.message.clone())),
        ])
    }
}

/// A construct the parser could not understand. Every lint reads the one
/// parse, so a gap fails the run: it cannot silently hide violations.
#[derive(Debug, Clone)]
pub struct ReportGap {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What the parser expected: the construct it was trying to parse.
    pub context: String,
    /// The token that stopped it.
    pub found: String,
}

impl ToJson for ReportGap {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("file".into(), Json::Str(self.file.clone())),
            ("line".into(), Json::UInt(u64::from(self.line))),
            ("context".into(), Json::Str(self.context.clone())),
            ("found".into(), Json::Str(self.found.clone())),
        ])
    }
}

/// A full lint run: findings plus bookkeeping for the summary.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of sites suppressed by the allowlist (all layers).
    pub allowlisted: usize,
    /// Parser gaps: constructs no lint could see.
    pub parse_gaps: Vec<ReportGap>,
}

impl Report {
    /// Sorts findings into the stable report order.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    }

    /// Whether the run is clean: no findings and no parse gaps.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.parse_gaps.is_empty()
    }

    /// Count of findings for one lint.
    pub fn count(&self, lint: Lint) -> usize {
        self.findings.iter().filter(|f| f.lint == lint).count()
    }

    /// The machine-readable report document.
    pub fn to_json(&self) -> Json {
        let counts = Json::Obj(
            Lint::ALL
                .iter()
                .map(|l| (l.code().to_string(), Json::UInt(self.count(*l) as u64)))
                .collect(),
        );
        Json::Obj(vec![
            ("schema".into(), Json::Str("picocube-lint/v2".into())),
            (
                "files_scanned".into(),
                Json::UInt(self.files_scanned as u64),
            ),
            ("allowlisted".into(), Json::UInt(self.allowlisted as u64)),
            ("counts".into(), counts),
            ("findings".into(), self.findings.to_json()),
            ("parse_gaps".into(), self.parse_gaps.to_json()),
        ])
    }

    /// The human-readable diagnostic table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            let _ = writeln!(
                out,
                "picocube-lint: clean ({} files scanned, {} allowlisted sites, {} parse gaps)",
                self.files_scanned,
                self.allowlisted,
                self.parse_gaps.len()
            );
            return out;
        }
        let loc_width = self
            .findings
            .iter()
            .map(|f| (&f.file, f.line))
            .chain(self.parse_gaps.iter().map(|g| (&g.file, g.line)))
            .map(|(file, line)| file.len() + 1 + line.to_string().len())
            .max()
            .unwrap_or(8)
            .max("location".len());
        let kind_width = self
            .findings
            .iter()
            .map(|f| f.kind.len())
            .max()
            .unwrap_or(4)
            .max("kind".len());
        let _ = writeln!(
            out,
            "LINT  {:loc_width$}  {:kind_width$}  MESSAGE",
            "LOCATION", "KIND"
        );
        for f in &self.findings {
            let loc = format!("{}:{}", f.file, f.line);
            let _ = writeln!(
                out,
                "{}    {:loc_width$}  {:kind_width$}  {}",
                f.lint.code(),
                loc,
                f.kind,
                f.message
            );
        }
        for g in &self.parse_gaps {
            let loc = format!("{}:{}", g.file, g.line);
            let _ = writeln!(
                out,
                "GAP   {loc:loc_width$}  expected {}, found `{}`",
                g.context, g.found
            );
        }
        let _ = writeln!(out);
        for l in Lint::ALL {
            let n = self.count(l);
            if n > 0 {
                let _ = writeln!(out, "{}: {} {} finding(s)", l.code(), n, l.title());
            }
        }
        let _ = writeln!(
            out,
            "total: {} finding(s) and {} parse gap(s) in {} file(s) scanned",
            self.findings.len(),
            self.parse_gaps.len(),
            self.files_scanned
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            findings: vec![
                Finding {
                    lint: Lint::L2,
                    file: "crates/sim/src/queue.rs".into(),
                    line: 10,
                    kind: "unwrap".into(),
                    message: "`.unwrap()` in library code".into(),
                },
                Finding {
                    lint: Lint::L1,
                    file: "crates/radio/src/channel.rs".into(),
                    line: 3,
                    kind: "param".into(),
                    message: "bare f64 parameter".into(),
                },
            ],
            files_scanned: 2,
            allowlisted: 1,
            parse_gaps: Vec::new(),
        };
        r.sort();
        r
    }

    #[test]
    fn sort_orders_by_file_then_line() {
        let r = sample();
        assert_eq!(r.findings[0].lint, Lint::L1);
        assert_eq!(r.findings[1].lint, Lint::L2);
    }

    #[test]
    fn json_has_counts_and_findings() {
        let doc = sample().to_json();
        assert_eq!(
            doc.get("counts")
                .and_then(|c| c.get("L2"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            doc.get("findings")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
        // Round-trips through the parser.
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn table_lists_every_finding() {
        let table = sample().render_table();
        assert!(table.contains("crates/sim/src/queue.rs:10"));
        assert!(table.contains("total: 2 finding(s)"));
    }

    #[test]
    fn a_parse_gap_fails_the_run_and_is_listed() {
        let r = Report {
            files_scanned: 1,
            parse_gaps: vec![ReportGap {
                file: "crates/sim/src/bad.rs".into(),
                line: 7,
                context: "expr".into(),
                found: "@".into(),
            }],
            ..Report::default()
        };
        assert!(!r.is_clean(), "no lint saw past the gap");
        let table = r.render_table();
        assert!(
            table.contains("crates/sim/src/bad.rs:7  expected expr, found `@`"),
            "{table}"
        );
        assert!(table.contains("total: 0 finding(s) and 1 parse gap(s)"));
    }

    #[test]
    fn clean_report_prints_summary() {
        let r = Report {
            files_scanned: 40,
            allowlisted: 3,
            ..Report::default()
        };
        assert!(r.render_table().contains("clean"));
        assert!(r.is_clean());
    }
}

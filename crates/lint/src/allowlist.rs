//! The allowlist: a budget file that may only shrink.
//!
//! `lint-allowlist.txt` at the workspace root records, per file and
//! finding kind, how many sites are accepted and why. Bare kinds
//! (`unwrap`, `index`, ...) are L2 panic budgets — the original format.
//! Lint-tagged kinds (`L5:mixed-units`, `L6:adhoc-derivation`,
//! `L7:inline-key`) budget the syntactic lints the same way. The budgets
//! are **exact**: more actual sites than budgeted is a regression (new
//! violations), and fewer is a stale entry (a site was fixed, so the
//! budget must be tightened in the same change). Both directions fail the
//! lint, which is what makes the allowlist shrink-only in practice.

use crate::lints::panics::SiteKind;
use crate::report::{Finding, Lint};
use std::collections::BTreeMap;

/// One `path kind count -- justification` entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Workspace-relative file path.
    pub path: String,
    /// Which lint the budget belongs to (L2 for bare kinds).
    pub lint: Lint,
    /// The finding kind the budget covers (`unwrap`, `mixed-units`, ...).
    pub kind: String,
    /// Number of accepted sites.
    pub count: usize,
    /// Why the sites are acceptable.
    pub justification: String,
}

impl Entry {
    /// The kind token as written in the file (`unwrap` vs `L5:mixed-units`).
    pub fn kind_token(&self) -> String {
        if self.lint == Lint::L2 {
            self.kind.clone()
        } else {
            format!("{}:{}", self.lint.code(), self.kind)
        }
    }
}

/// Parses a kind token into `(lint, kind)`, validating both halves.
fn parse_kind_token(token: &str) -> Option<(Lint, String)> {
    if let Some((code, kind)) = token.split_once(':') {
        let lint = Lint::parse(code)?;
        if !Lint::ALLOWLISTED.contains(&lint) || lint == Lint::L2 || kind.is_empty() {
            return None;
        }
        return Some((lint, kind.to_string()));
    }
    // Bare kinds are L2 panic kinds and must name a real one.
    SiteKind::parse(token).map(|k| (Lint::L2, k.name().to_string()))
}

/// The parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<Entry>,
}

impl Allowlist {
    /// Parses the allowlist file format. Blank lines and `#` comments are
    /// skipped; malformed lines are returned as errors with line numbers.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (head, justification) = line
                .split_once("--")
                .ok_or_else(|| format!("line {}: missing `-- justification`", idx + 1))?;
            let mut parts = head.split_whitespace();
            let path = parts
                .next()
                .ok_or_else(|| format!("line {}: missing path", idx + 1))?;
            let (lint, kind) = parts
                .next()
                .and_then(parse_kind_token)
                .ok_or_else(|| format!("line {}: missing or unknown kind", idx + 1))?;
            let count: usize = parts
                .next()
                .and_then(|c| c.parse().ok())
                .ok_or_else(|| format!("line {}: missing count", idx + 1))?;
            if parts.next().is_some() {
                return Err(format!("line {}: trailing tokens before `--`", idx + 1));
            }
            let justification = justification.trim();
            if justification.is_empty() {
                return Err(format!("line {}: empty justification", idx + 1));
            }
            entries.push(Entry {
                path: path.to_string(),
                lint,
                kind,
                count,
                justification: justification.to_string(),
            });
        }
        Ok(Self { entries })
    }

    /// Budget for a `(path, lint, kind)` triple; 0 when absent.
    pub fn budget(&self, path: &str, lint: Lint, kind: &str) -> usize {
        self.entries
            .iter()
            .filter(|e| e.path == path && e.lint == lint && e.kind == kind)
            .map(|e| e.count)
            .sum()
    }

    /// Total budgeted sites for one lint (the CI `--max-allowlisted` cap
    /// applies to L2 only).
    pub fn total(&self, lint: Lint) -> usize {
        self.entries
            .iter()
            .filter(|e| e.lint == lint)
            .map(|e| e.count)
            .sum()
    }

    /// Applies the budgets to the raw findings of every allowlisted lint.
    ///
    /// Per `(lint, file, kind)` group: if the actual count exceeds the
    /// budget the excess findings are kept (reported at their real
    /// locations); if it matches, all are suppressed; if it falls short —
    /// or an entry's file has no findings at all — a `stale-allowlist`
    /// finding is emitted so the budget gets tightened. Returns the
    /// surviving findings and the number suppressed.
    pub fn apply(&self, raw: Vec<Finding>) -> (Vec<Finding>, usize) {
        let mut groups: BTreeMap<(Lint, String, String), Vec<Finding>> = BTreeMap::new();
        for f in raw {
            groups
                .entry((f.lint, f.file.clone(), f.kind.clone()))
                .or_default()
                .push(f);
        }
        let mut kept = Vec::new();
        let mut suppressed = 0usize;
        for ((lint, file, kind), group) in &mut groups {
            let budget = self.budget(file, *lint, kind);
            let actual = group.len();
            if actual > budget {
                suppressed += budget;
                kept.extend(group.drain(budget..).map(|mut f| {
                    f.message = format!(
                        "{} (allowlist budget {budget}, found {actual} — new site)",
                        f.message
                    );
                    f
                }));
            } else if actual < budget {
                suppressed += actual;
                kept.push(Finding {
                    lint: *lint,
                    file: file.clone(),
                    line: 0,
                    kind: "stale-allowlist".into(),
                    message: format!(
                        "allowlist budgets {budget} `{kind}` site(s) but only {actual} \
                         remain — shrink the entry in lint-allowlist.txt"
                    ),
                });
            } else {
                suppressed += actual;
            }
        }
        // Entries whose file/kind produced no findings at all are stale too.
        for e in &self.entries {
            let key = (e.lint, e.path.clone(), e.kind.clone());
            if !groups.contains_key(&key) && e.count > 0 {
                kept.push(Finding {
                    lint: e.lint,
                    file: e.path.clone(),
                    line: 0,
                    kind: "stale-allowlist".into(),
                    message: format!(
                        "allowlist budgets {} `{}` site(s) but none remain — delete the entry",
                        e.count, e.kind
                    ),
                });
            }
        }
        (kept, suppressed)
    }

    /// Renders entries back into the file format (used by
    /// `--update-allowlist` to tighten budgets mechanically).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# picocube-lint allowlist — shrink-only.\n\
             # Format: <path> <kind> <count> -- <justification>\n\
             # Bare kinds are L2 panic budgets; `L5:`/`L6:`/`L7:`-tagged kinds budget\n\
             # the syntactic lints. Budgets are exact: the lint fails when a file\n\
             # gains OR loses sites relative to its budget, so fixes must tighten\n\
             # the entry here.\n\n",
        );
        for e in &self.entries {
            out.push_str(&format!(
                "{} {} {} -- {}\n",
                e.path,
                e.kind_token(),
                e.count,
                e.justification
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(lint: Lint, file: &str, kind: &str, line: u32) -> Finding {
        Finding {
            lint,
            file: file.into(),
            line,
            kind: kind.into(),
            message: "site".into(),
        }
    }

    #[test]
    fn parses_entries_and_skips_comments() {
        let a = Allowlist::parse(
            "# header\n\ncrates/sim/src/power.rs index 2 -- rail ids are validated at build\n",
        )
        .unwrap();
        assert_eq!(a.entries.len(), 1);
        assert_eq!(a.budget("crates/sim/src/power.rs", Lint::L2, "index"), 2);
        assert_eq!(a.budget("crates/sim/src/power.rs", Lint::L2, "unwrap"), 0);
    }

    #[test]
    fn parses_lint_tagged_kinds() {
        let a = Allowlist::parse(
            "crates/core/src/stack/storage.rs L6:adhoc-derivation 1 -- decorrelation hash\n",
        )
        .unwrap();
        assert_eq!(a.entries[0].lint, Lint::L6);
        assert_eq!(
            a.budget(
                "crates/core/src/stack/storage.rs",
                Lint::L6,
                "adhoc-derivation"
            ),
            1
        );
        assert_eq!(a.total(Lint::L6), 1);
        assert_eq!(a.total(Lint::L2), 0);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Allowlist::parse("no-kind-or-count\n").is_err());
        assert!(Allowlist::parse("p unwrap x -- why\n").is_err());
        assert!(Allowlist::parse("p unwrap 1 --   \n").is_err());
        assert!(Allowlist::parse("p wibble 1 -- why\n").is_err());
        // Only allowlisted lints may carry budgets; L2 uses bare kinds.
        assert!(Allowlist::parse("p L3:hashmap 1 -- why\n").is_err());
        assert!(Allowlist::parse("p L2:unwrap 1 -- why\n").is_err());
        assert!(Allowlist::parse("p L5: 1 -- why\n").is_err());
    }

    #[test]
    fn exact_budget_suppresses_all() {
        let a = Allowlist::parse("f.rs unwrap 2 -- fine\n").unwrap();
        let (kept, suppressed) = a.apply(vec![
            finding(Lint::L2, "f.rs", "unwrap", 1),
            finding(Lint::L2, "f.rs", "unwrap", 2),
        ]);
        assert!(kept.is_empty());
        assert_eq!(suppressed, 2);
    }

    #[test]
    fn growth_keeps_excess_findings() {
        let a = Allowlist::parse("f.rs unwrap 1 -- fine\n").unwrap();
        let (kept, _) = a.apply(vec![
            finding(Lint::L2, "f.rs", "unwrap", 1),
            finding(Lint::L2, "f.rs", "unwrap", 9),
        ]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 9, "excess reported at the newest site");
        assert!(kept[0].message.contains("new site"));
    }

    #[test]
    fn budgets_are_per_lint() {
        // An L5 budget must not absorb an L6 finding of the same kind name.
        let a = Allowlist::parse("f.rs L5:oops 1 -- fine\n").unwrap();
        let (kept, _) = a.apply(vec![finding(Lint::L6, "f.rs", "oops", 3)]);
        // The L6 finding survives and the L5 entry is stale.
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().any(|f| f.lint == Lint::L6 && f.line == 3));
        assert!(kept
            .iter()
            .any(|f| f.lint == Lint::L5 && f.kind == "stale-allowlist"));
    }

    #[test]
    fn shrink_flags_stale_budget() {
        let a = Allowlist::parse("f.rs unwrap 3 -- fine\n").unwrap();
        let (kept, _) = a.apply(vec![finding(Lint::L2, "f.rs", "unwrap", 1)]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].kind, "stale-allowlist");
    }

    #[test]
    fn entry_with_no_findings_is_stale() {
        let a = Allowlist::parse("gone.rs expect 1 -- was here once\n").unwrap();
        let (kept, _) = a.apply(Vec::new());
        assert_eq!(kept.len(), 1);
        assert!(kept[0].message.contains("delete the entry"));
    }

    #[test]
    fn render_round_trips() {
        let text = "a.rs unwrap 1 -- one\nb.rs index 2 -- two\nc.rs L7:inline-key 3 -- three\n";
        let a = Allowlist::parse(text).unwrap();
        let again = Allowlist::parse(&a.render()).unwrap();
        assert_eq!(again.entries.len(), 3);
        assert_eq!(again.budget("b.rs", Lint::L2, "index"), 2);
        assert_eq!(again.budget("c.rs", Lint::L7, "inline-key"), 3);
        assert!(a.render().contains("c.rs L7:inline-key 3"));
    }
}

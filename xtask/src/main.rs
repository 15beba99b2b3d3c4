//! Workspace task runner.
//!
//! ```text
//! cargo xtask lint [--json PATH] [--update-allowlist] [--allow-growth]
//!                  [--max-allowlisted N]
//! ```
//!
//! Runs the picocube-lint invariant checks over the workspace, prints the
//! human diagnostic table, optionally writes the machine-readable JSON
//! report, and exits non-zero when any finding survives the allowlist or
//! a file leaves a parse gap (no lint can see past one).
//! `--update-allowlist` mechanically tightens `lint-allowlist.txt` to the
//! current raw counts of the allowlisted lints (existing justifications
//! are preserved; new groups get a TODO placeholder that must be justified
//! before commit). The update is **shrink-only**: it refuses to raise any
//! budget or add entries for new findings unless `--allow-growth` is also
//! passed, so a regression cannot be waved through by regenerating the
//! file. `--max-allowlisted N` additionally fails the run when the
//! allowlist budgets more than `N` total L2 sites — CI pins `N` to the
//! current total so the panic-freedom burndown can only shrink.

use picocube_lint::allowlist::{Allowlist, Entry};
use picocube_lint::report::Lint;
use picocube_lint::{run_workspace, ALLOWLIST_PATH};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/xtask, so the root is the manifest's parent.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().unwrap_or(manifest).to_path_buf()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask lint [--json PATH] [--update-allowlist] [--allow-growth] \
         [--max-allowlisted N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    if command != "lint" {
        return usage();
    }
    let mut json_path: Option<PathBuf> = None;
    let mut update_allowlist = false;
    let mut allow_growth = false;
    let mut max_allowlisted: Option<usize> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--update-allowlist" => update_allowlist = true,
            "--allow-growth" => allow_growth = true,
            "--max-allowlisted" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => max_allowlisted = Some(n),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if allow_growth && !update_allowlist {
        eprintln!("xtask lint: --allow-growth only makes sense with --update-allowlist");
        return usage();
    }

    let root = workspace_root();
    let run = match run_workspace(&root) {
        Ok(run) => run,
        Err(err) => {
            eprintln!("xtask lint: {err}");
            return ExitCode::FAILURE;
        }
    };

    if update_allowlist {
        return match write_allowlist(&root, &run, allow_growth) {
            Ok(n) => {
                println!("xtask lint: wrote {ALLOWLIST_PATH} with {n} entries");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("xtask lint: {err}");
                ExitCode::FAILURE
            }
        };
    }

    print!("{}", run.report.render_table());
    if let Some(path) = json_path {
        let doc = run.report.to_json().to_string();
        if let Err(err) = std::fs::write(&path, doc + "\n") {
            eprintln!("xtask lint: writing {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!("json report: {}", path.display());
    }
    if let Some(cap) = max_allowlisted {
        match allowlist_l2_total(&root) {
            Ok(total) if total > cap => {
                eprintln!(
                    "xtask lint: allowlist budgets {total} L2 sites but the cap is {cap} — \
                     the burndown only shrinks; fix the new sites instead of budgeting them"
                );
                return ExitCode::FAILURE;
            }
            Ok(total) => println!("allowlisted L2 budget: {total} (cap {cap})"),
            Err(err) => {
                eprintln!("xtask lint: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    if run.report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Total L2 sites budgeted by `lint-allowlist.txt` (0 when absent). The
/// syntactic lints' budgets are tracked per entry but not capped here.
fn allowlist_l2_total(root: &Path) -> Result<usize, String> {
    let path = root.join(ALLOWLIST_PATH);
    if !path.is_file() {
        return Ok(0);
    }
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    Ok(Allowlist::parse(&text)?.total(Lint::L2))
}

/// Rewrites the allowlist to match the current raw finding counts,
/// preserving existing justifications. Shrink-only unless `allow_growth`:
/// raising a budget or adding a group is refused with a description of
/// every offending group. Returns the number of entries written.
fn write_allowlist(
    root: &Path,
    run: &picocube_lint::RunOutput,
    allow_growth: bool,
) -> Result<usize, String> {
    let path = root.join(ALLOWLIST_PATH);
    let existing = if path.is_file() {
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        Allowlist::parse(&text)?
    } else {
        Allowlist::default()
    };

    let mut groups: BTreeMap<(String, Lint, String), usize> = BTreeMap::new();
    for f in &run.raw_allowlisted {
        *groups
            .entry((f.file.clone(), f.lint, f.kind.clone()))
            .or_insert(0) += 1;
    }
    let mut grown = Vec::new();
    let entries: Vec<Entry> = groups
        .into_iter()
        .map(|((file, lint, kind), count)| {
            let budget = existing.budget(&file, lint, &kind);
            if count > budget {
                grown.push(format!("{file} {}:{kind} {budget} -> {count}", lint.code()));
            }
            let justification = existing
                .entries
                .iter()
                .find(|e| e.path == file && e.lint == lint && e.kind == kind)
                .map(|e| e.justification.clone())
                .unwrap_or_else(|| "TODO: justify or fix before commit".to_string());
            Entry {
                path: file,
                lint,
                kind,
                count,
                justification,
            }
        })
        .collect();
    if !grown.is_empty() && !allow_growth {
        return Err(format!(
            "refusing to grow the allowlist (pass --allow-growth to override):\n  {}",
            grown.join("\n  ")
        ));
    }
    let n = entries.len();
    let rendered = Allowlist { entries }.render();
    std::fs::write(&path, rendered).map_err(|e| e.to_string())?;
    Ok(n)
}

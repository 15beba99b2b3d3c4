//! Parser totality over the real workspace: every checked-in library
//! source must parse without panicking, and with zero parse gaps — every
//! lint reads the parse, so a gap in real code blinds all seven (and fails
//! `cargo xtask lint`). A deliberate gap fixture keeps the structured-gap
//! path honest.

use picocube_lint::parser::parse;
use picocube_lint::workspace_files;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
}

#[test]
fn every_workspace_source_parses_without_gaps() {
    let root = workspace_root();
    let files = workspace_files(root).expect("walk workspace");
    assert!(
        files.len() > 20,
        "workspace walk found only {} files",
        files.len()
    );
    let mut gaps = Vec::new();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel)).expect("read source");
        let ast = parse(&src);
        for gap in &ast.gaps {
            gaps.push(format!(
                "{rel}:{} expected {} found {}",
                gap.line, gap.context, gap.found
            ));
        }
    }
    assert!(
        gaps.is_empty(),
        "parser gaps over checked-in sources:\n  {}",
        gaps.join("\n  ")
    );
}

#[test]
fn unparseable_input_yields_structured_gaps_not_panics() {
    // Garbage at item position: recovered as a gap, parsing continues.
    let ast = parse("@@@!\npub fn ok() {}\n");
    assert!(!ast.gaps.is_empty());
    assert_eq!(ast.items.len(), 1);
}

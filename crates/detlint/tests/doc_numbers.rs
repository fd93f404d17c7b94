//! Numbers stated in prose are checked against what they count. A figure
//! a doc states is tagged `<!-- doc-number: NAME -->` on its line, and this
//! test recomputes it from the tree, so a doc cannot drift from the command
//! it quotes.

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
}

/// The number on the one line of `doc` tagged `<!-- doc-number: name -->`:
/// its first run of digits, thousands separated by spaces or not.
fn tagged_number(doc: &str, name: &str) -> u64 {
    let tag = format!("<!-- doc-number: {name} -->");
    let lines: Vec<&str> = doc.lines().filter(|l| l.contains(&tag)).collect();
    assert_eq!(lines.len(), 1, "exactly one line carries {tag}");
    let digits: String = lines[0]
        .split(|c: char| !(c.is_ascii_digit() || c == ' '))
        .map(str::trim)
        .find(|run| !run.is_empty())
        .unwrap_or_else(|| panic!("no number on the line tagged {tag}"))
        .chars()
        .filter(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

/// ROADMAP's count: for every `.rs` file under the seven production crates'
/// `src/`, the lines before the first line that starts with `#[cfg(test)]`.
fn non_test_lines(root: &Path) -> u64 {
    let files = detlint::collect_rust_files(root).expect("workspace walk");
    let mut total = 0;
    for rel in files.iter().filter(|rel| {
        detlint::surface::SURFACE_PREFIXES
            .iter()
            .any(|p| rel.starts_with(p))
    }) {
        let source = std::fs::read_to_string(root.join(rel)).unwrap();
        total += source
            .lines()
            .take_while(|line| !line.starts_with("#[cfg(test)]"))
            .count() as u64;
    }
    total
}

#[test]
fn architecture_states_the_non_test_line_count() {
    let root = workspace_root();
    let doc = std::fs::read_to_string(root.join("ARCHITECTURE.md")).unwrap();
    let stated = tagged_number(&doc, "non-test-lines");
    let counted = non_test_lines(root);
    assert_eq!(
        stated, counted,
        "ARCHITECTURE.md states {stated} non-test lines; the tree has {counted}"
    );
}

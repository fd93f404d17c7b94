//! detlint — the workspace determinism & simulation-safety audit.
//!
//! Every claim this repository makes (exactly-once delivery under churn,
//! bit-identical same-seed traces, the rebalance-recovery numbers) rests on
//! the simulation kernel being deterministic. detlint turns that contract
//! from folklore into an enforced static-analysis pass: it walks the
//! workspace sources with a line-oriented lexer (string/comment aware, item
//! paths attached) and applies the D001–D005 and D007 ruleset described
//! in [`rules`], [`exhaustive`] and [`surface`].
//!
//! Run it as `cargo run -p detlint -- --workspace`. Findings diff against
//! the checked-in `detlint.baseline`; only *new* findings fail the build.
//! See ARCHITECTURE.md § "The determinism contract".

pub mod baseline;
pub mod exhaustive;
pub mod lexer;
pub mod rules;
pub mod surface;

use rules::Finding;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Run the whole pipeline over in-memory sources: per-file rules
/// (D001–D003), exhaustiveness (D004) over `pairs`, the unused public
/// surface (D007), then stale-allow hygiene (D005). `files` maps
/// workspace-relative paths to source text. Findings come back sorted by
/// (file, line, rule, key).
pub fn scan_sources(files: &[(String, String)], pairs: &[exhaustive::Pair]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut scrubbed_lines: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut scrubbed_files = Vec::new();

    for (rel, source) in files {
        let mut scrubbed = lexer::scrub(source);
        rules::check_file(rel, &mut scrubbed, &mut findings);
        scrubbed_lines.insert(rel.clone(), scrubbed.lines.clone());
        scrubbed_files.push((rel.clone(), scrubbed));
    }

    exhaustive::check(&scrubbed_lines, pairs, &mut findings);
    surface::check(&mut scrubbed_files, &mut findings);

    // D005 last: an allow is "used" only once every rule that could consume
    // it has run.
    for (rel, scrubbed) in &scrubbed_files {
        rules::stale_allows(rel, scrubbed, &mut findings);
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule, &a.key).cmp(&(&b.file, b.line, b.rule, &b.key)));
    findings
}

/// Scan a workspace rooted at `root` with the standard D004 table.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for rel in collect_rust_files(root)? {
        let source = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, source));
    }
    Ok(scan_sources(&files, &exhaustive::WORKSPACE_PAIRS))
}

/// Every `.rs` file under `root`, as sorted workspace-relative paths with
/// `/` separators. Skips build output, VCS metadata, and detlint's own
/// fixture corpus (which contains deliberate violations).
pub fn collect_rust_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | ".git" | "fixtures") {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Locate the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Minimal JSON string escaping for `--json` output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

//! D007 — a `pub` item with no user outside its own file.
//!
//! rustc's `dead_code` lint stops at `pub`: an item the crate exports is
//! assumed to have a caller somewhere else, so code that only its own unit
//! tests call never warns. This pass is the cross-file check rustc does not
//! make. It looks at every `pub` fn, const, static, struct, enum, type alias
//! and trait defined in the production crates ([`SURFACE_PREFIXES`]) and
//! searches for its name, as a whole word in scrubbed text, in every file the
//! workspace walk collects: other crates, their `tests/`, `examples/`, the
//! root `tests/` and `perfbench/src` (read, never written). A name in a
//! comment, a string or a `use` line is not a use.
//!
//! - A fn, const or static fires when its name occurs in no other file. The
//!   fix is to drop `pub`; `dead_code` then decides whether anything in the
//!   file still calls it.
//! - A struct, enum, type alias or trait fires when its name occurs nowhere
//!   outside its own definition, its own `impl` blocks and its file's
//!   `#[cfg(test)]` code. A type that another public signature in its file
//!   names is in use.
//!
//! A word match cannot tell two items of one name apart, so the rule is a
//! floor, not a proof: a dead method that shares its name with a live one
//! stays silent, and so do the names in its skip list.

use crate::lexer::{item_header, word_occurrences, Scrubbed};
use crate::rules::{push_unless_allowed, Finding, Rule};
use std::collections::BTreeSet;

/// The production crates whose public items must have a user.
pub const SURFACE_PREFIXES: [&str; 7] = [
    "crates/jxta/src/",
    "crates/ski-rental/src/",
    "crates/tps/src/",
    "crates/simnet/src/",
    "crates/dissem/src/",
    "crates/telemetry/src/",
    "crates/dst/src/",
];

/// Names a word match cannot resolve. Constructors and collection-shaped
/// accessors occur in every file, and a trait method is called through the
/// trait (`{}` for `fmt`, `.into()` for `from`), so neither a hit nor a miss
/// says anything about one particular item.
const SKIP: [&str; 6] = ["new", "len", "is_empty", "fmt", "from", "default"];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// fn, const, static: used when named in another file.
    Value,
    /// struct, enum, type, trait: used when named outside its own
    /// definition, `impl` blocks and file tests.
    Type,
}

struct Def {
    line: usize,
    keyword: &'static str,
    name: String,
    kind: Kind,
}

/// Run D007 over every scanned file. Allows in `files` are marked used in
/// place, so this must run before [`crate::rules::stale_allows`].
pub fn check(files: &mut [(String, Scrubbed)], findings: &mut Vec<Finding>) {
    let masks: Vec<Vec<Mask>> = files.iter().map(|(_, s)| masks(&s.lines)).collect();
    let words: Vec<BTreeSet<&str>> = files
        .iter()
        .zip(&masks)
        .map(|((_, s), mask)| {
            s.lines
                .iter()
                .zip(mask)
                .filter(|(_, m)| !m.in_use)
                .flat_map(|(line, _)| identifiers(line))
                .collect()
        })
        .collect();

    let mut unused = Vec::new();
    for (idx, (file, scrubbed)) in files.iter().enumerate() {
        if !SURFACE_PREFIXES.iter().any(|p| file.starts_with(p)) {
            continue;
        }
        for def in definitions(&scrubbed.lines, &masks[idx]) {
            if SKIP.contains(&def.name.as_str()) {
                continue;
            }
            let elsewhere = words
                .iter()
                .enumerate()
                .any(|(other, w)| other != idx && w.contains(def.name.as_str()));
            if elsewhere || (def.kind == Kind::Type && used_in_own_file(scrubbed, &masks[idx], &def)) {
                continue;
            }
            let enclosing = scrubbed.path_of(def.line);
            let item = if enclosing.is_empty() {
                def.name.clone()
            } else {
                format!("{enclosing}::{}", def.name)
            };
            let message = match def.kind {
                Kind::Value => format!(
                    "`pub {} {}` has no user outside its file: drop `pub` and let `dead_code` decide",
                    def.keyword, def.name
                ),
                Kind::Type => format!(
                    "`pub {} {}` is named nowhere outside its definition and its tests: delete it",
                    def.keyword, def.name
                ),
            };
            unused.push((
                idx,
                Finding {
                    file: file.clone(),
                    line: def.line,
                    rule: Rule::D007,
                    item,
                    key: def.name,
                    message,
                },
            ));
        }
    }
    for (idx, finding) in unused {
        push_unless_allowed(&mut files[idx].1, findings, finding);
    }
}

/// Per-line classification: inside a `use` statement, inside `#[cfg(test)]`
/// code.
#[derive(Clone, Copy, Default)]
struct Mask {
    in_use: bool,
    in_test: bool,
}

fn masks(lines: &[String]) -> Vec<Mask> {
    let mut out = vec![Mask::default(); lines.len()];
    let mut in_use = false;
    for (i, line) in lines.iter().enumerate() {
        let t = line.trim_start();
        if ["use ", "pub use ", "pub(crate) use ", "pub(super) use "]
            .iter()
            .any(|p| t.starts_with(p))
        {
            in_use = true;
        }
        out[i].in_use = in_use;
        if in_use && line.contains(';') {
            in_use = false;
        }
    }
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].trim_start().starts_with("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // The attribute covers the next item: to its `;` if that comes
        // before any `{`, else to the `}` that balances its first `{`.
        let mut depth = 0usize;
        let mut opened = false;
        let mut end = lines.len() - 1;
        'scan: for (j, line) in lines.iter().enumerate().skip(i) {
            let text = if j == i { "" } else { line.as_str() };
            for c in text.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            end = j;
                            break 'scan;
                        }
                    }
                    ';' if !opened => {
                        end = j;
                        break 'scan;
                    }
                    _ => {}
                }
            }
        }
        for m in &mut out[i..=end] {
            m.in_test = true;
        }
        i = end + 1;
    }
    out
}

/// The `pub` definitions outside test code. `pub(crate)` and narrower are
/// rustc's business.
fn definitions(lines: &[String], masks: &[Mask]) -> Vec<Def> {
    let mut defs = Vec::new();
    for (i, (line, mask)) in lines.iter().zip(masks).enumerate() {
        if mask.in_test || mask.in_use {
            continue;
        }
        let Some(rest) = line.trim_start().strip_prefix("pub ") else {
            continue;
        };
        let words: Vec<&str> = rest.split_whitespace().collect();
        let mut k = 0;
        // Qualifiers: `const fn`, `async fn`, `unsafe fn`, `extern "C" fn`
        // (the scrubbed ABI string is a bare `"`…`"`).
        while let Some(w) = words.get(k) {
            let qualifier = matches!(*w, "async" | "unsafe" | "extern" | "mut")
                || w.starts_with('"')
                || (*w == "const"
                    && words
                        .get(k + 1)
                        .is_some_and(|n| matches!(*n, "fn" | "unsafe" | "async")));
            if !qualifier {
                break;
            }
            k += 1;
        }
        let Some(&keyword) = words.get(k) else {
            continue;
        };
        let (keyword, kind) = match keyword {
            "fn" => ("fn", Kind::Value),
            "const" => ("const", Kind::Value),
            "static" => ("static", Kind::Value),
            "struct" => ("struct", Kind::Type),
            "enum" => ("enum", Kind::Type),
            "type" => ("type", Kind::Type),
            "trait" => ("trait", Kind::Type),
            _ => continue,
        };
        let mut name_at = k + 1;
        if keyword == "static" && words.get(name_at) == Some(&"mut") {
            name_at += 1;
        }
        let name: String = words
            .get(name_at)
            .map(|w| {
                w.chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect()
            })
            .unwrap_or_default();
        if !name.is_empty() {
            defs.push(Def {
                line: i + 1,
                keyword,
                name,
                kind,
            });
        }
    }
    defs
}

/// A type is used in its own file when a non-test line outside its
/// definition and its `impl` blocks names it.
fn used_in_own_file(scrubbed: &Scrubbed, masks: &[Mask], def: &Def) -> bool {
    scrubbed
        .lines
        .iter()
        .zip(masks)
        .enumerate()
        .any(|(i, (line, mask))| {
            let lineno = i + 1;
            if mask.in_test || mask.in_use || lineno == def.line {
                return false;
            }
            let own = item_header(line).as_deref() == Some(def.name.as_str())
                || scrubbed.path_of(lineno).split("::").any(|seg| seg == def.name);
            !own && word_occurrences(line, &def.name).next().is_some()
        })
}

/// The identifiers on a scrubbed line.
fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| w.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_'))
}

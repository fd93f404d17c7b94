//! D004 — structural exhaustiveness.
//!
//! Some correspondences in this workspace cannot be enforced by the type
//! system because they live in different crates or in data (label tables,
//! metric exports, span taxonomies). Each [`Pair`] below declares one such
//! contract: *every variant of `enum_name` must appear, as a whole word, in
//! each named region*. A `_ =>` wildcard does not satisfy the contract — the
//! point is to force the author of a new variant to visit every site that
//! classifies it.

use crate::rules::{Finding, Rule};
use std::collections::BTreeMap;

/// What kind of item anchors a checked region.
#[derive(Debug, Clone, Copy)]
pub enum RegionKind {
    /// `fn name { … }` — the region is the brace-balanced body.
    Fn,
    /// `const NAME: … = …;` — the region runs to the terminating `;`.
    Const,
}

/// One region that must mention every variant.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    pub file: &'static str,
    pub kind: RegionKind,
    pub name: &'static str,
}

/// An enum and the regions that must stay exhaustive over it.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    pub enum_name: &'static str,
    pub enum_file: &'static str,
    pub regions: &'static [Region],
}

/// The workspace's exhaustiveness contracts. Documented in ARCHITECTURE.md's
/// determinism-contract section; extend this table when a new
/// variant-classifying site appears.
pub const WORKSPACE_PAIRS: [Pair; 5] = [
    // Every kernel drop reason must be countable, labelable, and indexable —
    // the drop-summary export iterates DropReason::ALL, so a variant missing
    // from any of these silently vanishes from metrics.
    Pair {
        enum_name: "DropReason",
        enum_file: "crates/simnet/src/stats.rs",
        regions: &[
            Region {
                file: "crates/simnet/src/stats.rs",
                kind: RegionKind::Const,
                name: "ALL",
            },
            Region {
                file: "crates/simnet/src/stats.rs",
                kind: RegionKind::Fn,
                name: "label",
            },
            Region {
                file: "crates/simnet/src/stats.rs",
                kind: RegionKind::Fn,
                name: "index",
            },
        ],
    },
    // Every wire message must have a span-taxonomy tag, a decoder arm, and a
    // handler arm — a new message type that skips any of these is routed but
    // never traced (or vice versa).
    Pair {
        enum_name: "WireMessage",
        enum_file: "crates/jxta/src/endpoint.rs",
        regions: &[
            Region {
                file: "crates/jxta/src/endpoint.rs",
                kind: RegionKind::Fn,
                name: "type_tag",
            },
            Region {
                file: "crates/jxta/src/endpoint.rs",
                kind: RegionKind::Fn,
                name: "from_bytes",
            },
            Region {
                file: "crates/jxta/src/peer/mod.rs",
                kind: RegionKind::Fn,
                name: "handle_wire_message",
            },
        ],
    },
    // Every span kind must render in the operator timeline.
    Pair {
        enum_name: "SpanKind",
        enum_file: "crates/telemetry/src/trace.rs",
        regions: &[Region {
            file: "crates/telemetry/src/trace.rs",
            kind: RegionKind::Fn,
            name: "timeline",
        }],
    },
    // Every health-alert kind must be enumerable, labelable, and indexable —
    // the watchdog's alert log and the operator view key off the label table,
    // so a variant missing from any of these renders as nothing.
    Pair {
        enum_name: "AlertKind",
        enum_file: "crates/telemetry/src/slo.rs",
        regions: &[
            Region {
                file: "crates/telemetry/src/slo.rs",
                kind: RegionKind::Const,
                name: "ALL",
            },
            Region {
                file: "crates/telemetry/src/slo.rs",
                kind: RegionKind::Fn,
                name: "label",
            },
            Region {
                file: "crates/telemetry/src/slo.rs",
                kind: RegionKind::Fn,
                name: "index",
            },
        ],
    },
    // Every dissemination strategy must be enumerable by the bench matrix.
    Pair {
        enum_name: "StrategyKind",
        enum_file: "crates/dissem/src/lib.rs",
        regions: &[Region {
            file: "crates/dissem/src/lib.rs",
            kind: RegionKind::Const,
            name: "ALL",
        }],
    },
];

/// Check every pair against the scrubbed sources (keyed by workspace-relative
/// path). Missing files/enums/regions are themselves findings — a renamed
/// anchor must update this table, not silently disable the check.
pub fn check(sources: &BTreeMap<String, Vec<String>>, pairs: &[Pair], findings: &mut Vec<Finding>) {
    for pair in pairs {
        let Some(enum_lines) = sources.get(pair.enum_file) else {
            findings.push(drift(pair.enum_file, 1, pair.enum_name, "missing-file"));
            continue;
        };
        let Some(variants) = enum_variants(enum_lines, pair.enum_name) else {
            findings.push(drift(pair.enum_file, 1, pair.enum_name, "missing-enum"));
            continue;
        };
        for region in pair.regions {
            let Some(region_lines) = sources.get(region.file) else {
                findings.push(drift(region.file, 1, region.name, "missing-file"));
                continue;
            };
            let Some((start, text)) = region_text(region_lines, region.kind, region.name) else {
                findings.push(drift(region.file, 1, region.name, "missing-region"));
                continue;
            };
            for variant in &variants {
                if !crate::rules::contains_word(&text, variant) {
                    findings.push(Finding {
                        file: region.file.to_owned(),
                        line: start,
                        rule: Rule::D004,
                        item: region.name.to_owned(),
                        key: format!("{}::{variant}!{}", pair.enum_name, region.name),
                        message: format!(
                            "`{}::{variant}` is not handled in `{}` ({}): add an arm/entry for it",
                            pair.enum_name, region.name, region.file
                        ),
                    });
                }
            }
        }
    }
}

fn drift(file: &str, line: usize, name: &str, what: &str) -> Finding {
    Finding {
        file: file.to_owned(),
        line,
        rule: Rule::D004,
        item: name.to_owned(),
        key: format!("{what}:{name}"),
        message: format!("exhaustiveness table drift: {what} `{name}` — update detlint's WORKSPACE_PAIRS"),
    }
}

/// Parse the variant names of `enum name { … }` from scrubbed lines.
pub fn enum_variants(lines: &[String], name: &str) -> Option<Vec<String>> {
    let text = lines.join("\n");
    let mut search_from = 0;
    let decl = loop {
        let idx = text[search_from..].find("enum")? + search_from;
        search_from = idx + 4;
        if !crate::lexer::word_at(&text, idx, "enum") {
            continue;
        }
        let after = text[idx + 4..].trim_start();
        if after.starts_with(name)
            && !after[name.len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            break idx;
        }
    };
    let body_open = text[decl..].find('{')? + decl;
    let body = balanced_block(&text, body_open)?;
    // Drop the enclosing braces so the variant walk sees depth 0 inside.
    let inner = &body[1..body.len().saturating_sub(1)];

    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut expecting = true;
    let chars: Vec<char> = inner.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            '#' if depth == 0 => {
                // Skip an attribute: `#[derive(…)]`.
                let mut d = 0;
                while i < chars.len() {
                    match chars[i] {
                        '[' => d += 1,
                        ']' => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            ',' if depth == 0 => expecting = true,
            _ if depth == 0 && expecting && (c.is_alphabetic() || c == '_') => {
                let mut ident = String::new();
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    ident.push(chars[i]);
                    i += 1;
                }
                expecting = false;
                variants.push(ident);
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    Some(variants)
}

/// The text of the named region and its 1-based start line.
pub fn region_text(lines: &[String], kind: RegionKind, name: &str) -> Option<(usize, String)> {
    let text = lines.join("\n");
    let keyword = match kind {
        RegionKind::Fn => "fn",
        RegionKind::Const => "const",
    };
    let mut search_from = 0;
    let decl = loop {
        let idx = text[search_from..].find(keyword)? + search_from;
        search_from = idx + keyword.len();
        if !crate::lexer::word_at(&text, idx, keyword) {
            continue;
        }
        let after = text[idx + keyword.len()..].trim_start();
        if after.starts_with(name) && crate::lexer::word_at(after, 0, name) {
            break idx;
        }
    };
    let start_line = text[..decl].matches('\n').count() + 1;
    let body = match kind {
        RegionKind::Fn => {
            let open = text[decl..].find('{')? + decl;
            balanced_block(&text, open)?
        }
        RegionKind::Const => {
            // Run to the first `;` at bracket depth 0 (the type's own `;` in
            // `[T; N]` sits inside brackets).
            let rest = &text[decl..];
            let mut depth = 0i32;
            let mut end = None;
            for (i, c) in rest.char_indices() {
                match c {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' | '}' => depth -= 1,
                    ';' if depth == 0 => {
                        end = Some(i);
                        break;
                    }
                    _ => {}
                }
            }
            rest[..end?].to_owned()
        }
    };
    Some((start_line, body))
}

/// The `{ … }` block opening at `open` (byte index of `{`), braces balanced.
fn balanced_block(text: &str, open: usize) -> Option<String> {
    let mut depth = 0i32;
    for (i, c) in text[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(text[open..open + i + 1].to_owned());
                }
            }
            _ => {}
        }
    }
    None
}

//! The detlint ruleset.
//!
//! | rule | checks for | scope |
//! |------|-----------|-------|
//! | D001 | wall-clock leaks (`Instant::now`, `SystemTime`, …) | everywhere |
//! | D002 | iteration over `HashMap`/`HashSet` | determinism-critical crates |
//! | D003 | thread / OS nondeterminism (`thread::spawn`, `thread_rng`, `env::var`, …) | determinism-critical crates |
//! | D004 | structural exhaustiveness (see [`crate::exhaustive`]) | declared enum/region pairs |
//! | D005 | stale or malformed `detlint::allow` annotations | everywhere |
//!
//! Findings carry a line number for display but their *identity* (what the
//! baseline stores) is `(rule, file, item path, key)` — editing unrelated
//! lines never churns the baseline.

use crate::lexer::{word_at, word_occurrences, Scrubbed};
use std::collections::BTreeSet;
use std::fmt;

/// Rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    D001,
    D002,
    D003,
    D004,
    D005,
}

impl Rule {
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
            Rule::D005 => "D005",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative, '/'-separated path.
    pub file: String,
    /// 1-based line, for display only.
    pub line: usize,
    pub rule: Rule,
    /// Item path at the finding site (`Network::drop_summary`).
    pub item: String,
    /// Stable token naming what fired (`drop_counts.iter()`).
    pub key: String,
    pub message: String,
}

impl Finding {
    /// Line-number-free identity used by the baseline.
    pub fn identity(&self) -> String {
        format!("{}\t{}\t{}\t{}", self.rule, self.file, self.item, self.key)
    }
}

/// Crates whose event ordering must be bit-identical across processes: the
/// simulation kernel and everything that runs inside it.
pub const KERNEL_PREFIXES: [&str; 5] = [
    "crates/simnet/",
    "crates/jxta/",
    "crates/dissem/",
    "crates/tps/",
    "crates/telemetry/",
];

fn in_kernel(file: &str) -> bool {
    KERNEL_PREFIXES.iter().any(|p| file.starts_with(p))
}

/// Wall-clock constructors. Matched as whole words in scrubbed text, so
/// occurrences inside strings/comments never fire.
const D001_PATTERNS: [&str; 5] = [
    "Instant::now",
    "SystemTime",
    "UNIX_EPOCH",
    "Utc::now",
    "Local::now",
];

/// Thread- and OS-level nondeterminism sources.
const D003_PATTERNS: [&str; 8] = [
    "thread::spawn",
    "spawn_blocking",
    "thread_rng",
    "rand::random",
    "env::var",
    "env::vars",
    "available_parallelism",
    "RandomState",
];

/// Hash-container methods whose result order is nondeterministic.
const ITER_SUFFIXES: [&str; 9] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// Tokens that make an iteration order-insensitive: collecting into an
/// ordered container, sorting the result in the same statement, or reducing
/// to an order-free aggregate.
const MITIGATORS: [&str; 13] = [
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    ".sort",
    ".count()",
    ".sum()",
    ".sum::",
    ".len()",
    ".min(",
    ".max(",
    ".any(",
    ".all(",
    ".is_empty()",
];

/// Run the per-file rules (D001/D002/D003) over one scrubbed source file.
/// `allows` usage flags are updated in place; stale ones become D005
/// findings later via [`stale_allows`].
pub fn check_file(file: &str, scrubbed: &mut Scrubbed, findings: &mut Vec<Finding>) {
    pattern_rule(
        file,
        scrubbed,
        Rule::D001,
        &D001_PATTERNS,
        "wall-clock read",
        findings,
    );
    if in_kernel(file) {
        pattern_rule(
            file,
            scrubbed,
            Rule::D003,
            &D003_PATTERNS,
            "thread/OS nondeterminism",
            findings,
        );
        check_hash_iteration(file, scrubbed, findings);
    }
}

fn pattern_rule(
    file: &str,
    scrubbed: &mut Scrubbed,
    rule: Rule,
    patterns: &[&str],
    what: &str,
    findings: &mut Vec<Finding>,
) {
    for lineno in 1..=scrubbed.lines.len() {
        let line = scrubbed.lines[lineno - 1].clone();
        for pat in patterns {
            if word_occurrences(&line, pat).next().is_some() {
                push_unless_allowed(
                    file,
                    scrubbed,
                    findings,
                    Finding {
                        file: file.to_owned(),
                        line: lineno,
                        rule,
                        item: scrubbed.path_of(lineno).to_owned(),
                        key: (*pat).to_owned(),
                        message: format!("{what} `{pat}` in deterministic code"),
                    },
                );
            }
        }
    }
}

/// D002: two passes. First collect the names bound to `HashMap`/`HashSet`
/// values in this file (struct fields, lets, params); then flag order-
/// sensitive iteration over those names.
fn check_hash_iteration(file: &str, scrubbed: &mut Scrubbed, findings: &mut Vec<Finding>) {
    let names = hash_bindings(&scrubbed.lines);
    if names.is_empty() {
        return;
    }
    for lineno in 1..=scrubbed.lines.len() {
        let line = scrubbed.lines[lineno - 1].clone();
        let mut flagged: BTreeSet<(String, String)> = BTreeSet::new();
        for name in &names {
            for idx in word_occurrences(&line, name).collect::<Vec<_>>() {
                let after = &line[idx + name.len()..];
                for suffix in ITER_SUFFIXES {
                    if after.starts_with(suffix) {
                        flagged.insert((name.clone(), format!("{name}{}", suffix.trim_end_matches('('))));
                    }
                }
            }
            if let Some(expr) = for_loop_expr(&line) {
                let subject = expr
                    .trim_start_matches('&')
                    .trim_start_matches("mut ")
                    .trim_start()
                    .trim_start_matches("self.");
                if subject == name.as_str() {
                    flagged.insert((name.clone(), format!("for-in:{name}")));
                }
            }
        }
        for (name, key) in flagged {
            if statement_window(&scrubbed.lines, lineno)
                .iter()
                .any(|l| MITIGATORS.iter().any(|m| l.contains(m)))
            {
                continue;
            }
            push_unless_allowed(
                file,
                scrubbed,
                findings,
                Finding {
                    file: file.to_owned(),
                    line: lineno,
                    rule: Rule::D002,
                    item: scrubbed.path_of(lineno).to_owned(),
                    key: key.clone(),
                    message: format!(
                        "iteration over hash container `{name}` — order is nondeterministic; \
                         sort, use a BTreeMap/BTreeSet, or annotate detlint::allow(D002, …)"
                    ),
                },
            );
        }
    }
}

/// Names bound to a `HashMap`/`HashSet` anywhere in the file: `x: HashMap<…>`
/// (fields, params, typed lets) and `x = HashMap::new()` style initialisers.
fn hash_bindings(lines: &[String]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in lines {
        for container in ["HashMap", "HashSet"] {
            for idx in word_occurrences(line, container) {
                if let Some(name) = binding_before(&line[..idx]) {
                    names.insert(name);
                }
            }
        }
    }
    names
}

/// Given the text before a `HashMap`/`HashSet` token, extract the bound name
/// for declaration shapes (`name: HashMap<…>`, `name = HashMap::new()`).
fn binding_before(before: &str) -> Option<String> {
    let mut s = before.trim_end();
    // Strip a path prefix like `std::collections::`.
    while let Some(r) = s.strip_suffix("::") {
        let r = r.trim_end();
        let ident = trailing_ident(r)?;
        s = r[..r.len() - ident.len()].trim_end();
    }
    // Strip reference/mut decorations: `name: &mut HashMap<…>`.
    loop {
        let t = s.trim_end();
        if let Some(r) = t.strip_suffix('&') {
            s = r;
        } else if let Some(r) = t.strip_suffix("mut") {
            if r.is_empty() || r.ends_with([' ', '&', '(']) {
                s = r;
            } else {
                s = t;
                break;
            }
        } else {
            s = t;
            break;
        }
    }
    if let Some(r) = s.strip_suffix(':') {
        if r.ends_with(':') {
            return None; // path remnant like `collections::`
        }
        return trailing_ident(r.trim_end()).filter(|n| n != "let");
    }
    if let Some(r) = s.strip_suffix('=') {
        if r.ends_with(['=', '!', '<', '>', '+', '-', '*']) {
            return None; // comparison / compound assignment
        }
        return trailing_ident(r.trim_end()).filter(|n| n != "let");
    }
    None
}

fn trailing_ident(s: &str) -> Option<String> {
    let ident: String = s
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(ident)
    }
}

/// If `line` holds a `for … in EXPR {` header, return the trimmed EXPR.
fn for_loop_expr(line: &str) -> Option<&str> {
    let for_idx = word_occurrences(line, "for").next()?;
    let rest = &line[for_idx + 3..];
    let in_idx = word_occurrences(rest, "in").next()?;
    let expr = rest[in_idx + 2..].trim();
    Some(expr.trim_end_matches('{').trim_end())
}

/// The statement the finding line starts: that line plus following lines up
/// to (and including) the first one ending in `;` or `{`, capped at 8.
fn statement_window(lines: &[String], lineno: usize) -> Vec<String> {
    let mut window = Vec::new();
    for line in lines.iter().skip(lineno - 1).take(8) {
        window.push(line.clone());
        let t = line.trim_end();
        if t.ends_with(';') || t.ends_with('{') {
            break;
        }
    }
    window
}

/// Suppression: an allow for the finding's rule on the same line or the line
/// directly above eats the finding (and is marked used, for D005).
fn push_unless_allowed(_file: &str, scrubbed: &mut Scrubbed, findings: &mut Vec<Finding>, finding: Finding) {
    for allow in &mut scrubbed.allows {
        if allow.malformed.is_none()
            && allow.rule == finding.rule.as_str()
            && (allow.line == finding.line || allow.line + 1 == finding.line)
        {
            allow.used = true;
            return;
        }
    }
    findings.push(finding);
}

/// D005: every allow that never suppressed anything (or failed to parse) is
/// itself a finding — stale annotations rot into misinformation.
pub fn stale_allows(file: &str, scrubbed: &Scrubbed, findings: &mut Vec<Finding>) {
    for allow in &scrubbed.allows {
        if let Some(why) = &allow.malformed {
            findings.push(Finding {
                file: file.to_owned(),
                line: allow.line,
                rule: Rule::D005,
                item: scrubbed.path_of(allow.line).to_owned(),
                key: "malformed-allow".to_owned(),
                message: format!("malformed detlint::allow annotation: {why}"),
            });
        } else if !allow.used {
            findings.push(Finding {
                file: file.to_owned(),
                line: allow.line,
                rule: Rule::D005,
                item: scrubbed.path_of(allow.line).to_owned(),
                key: format!("stale-allow:{}", allow.rule),
                message: format!(
                    "stale detlint::allow({}) — the rule no longer fires here; delete the annotation",
                    allow.rule
                ),
            });
        }
    }
}

/// Self-check helper for `word_at`, exposed for tests.
pub fn contains_word(text: &str, needle: &str) -> bool {
    text.match_indices(needle).any(|(i, _)| word_at(text, i, needle))
}

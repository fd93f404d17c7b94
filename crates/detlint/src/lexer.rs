//! Line-oriented Rust lexing: just enough awareness to blank out comments and
//! string/char literals (so rule patterns never match inside them), harvest
//! `detlint::allow` annotations from comments, and attach a coarse
//! item path (`Type::fn_name`) to every line.
//!
//! This is intentionally not a full Rust parser. The rules in this workspace
//! key off token patterns (`Instant::now`, `.keys()`, `for … in`), and the
//! only lexical hazards for those are literals and comments — which a
//! character-level state machine handles exactly, including nested block
//! comments and `r#"…"#` raw strings.

/// A `detlint::allow` annotation — rule id plus mandatory reason string —
/// found in a comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line the annotation sits on. It suppresses findings of its
    /// rule on the same line or the line directly below.
    pub line: usize,
    /// Rule id the annotation names, e.g. `D002`.
    pub rule: String,
    /// The operator-facing justification. Required: an allow without a
    /// reason is reported as malformed.
    pub reason: String,
    /// Parse error, if the annotation was recognisably an allow but did not
    /// follow the grammar. Reported as D005.
    pub malformed: Option<String>,
    /// Set by the rule engines when a finding was actually suppressed.
    /// Allows that stay unused are stale and reported as D005.
    pub used: bool,
}

/// A source file after literal/comment scrubbing.
#[derive(Debug)]
pub struct Scrubbed {
    /// Source lines with comment and string/char literal *contents* replaced
    /// by spaces. Line structure (count and byte offsets) is preserved so
    /// findings can point back at real locations.
    pub lines: Vec<String>,
    /// Allow annotations harvested from the comments, in file order.
    pub allows: Vec<Allow>,
    /// `item_paths[i]` is the item path in effect at the start of line
    /// `i + 1`, e.g. `Network::drop_summary`. Empty at module scope.
    pub item_paths: Vec<String>,
}

impl Scrubbed {
    /// Item path for a 1-based line number.
    pub fn path_of(&self, line: usize) -> &str {
        self.item_paths
            .get(line.wrapping_sub(1))
            .map_or("", String::as_str)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Nesting depth of `/* */`.
    BlockComment(u32),
    Str,
    /// Number of `#` marks that close the raw string.
    RawStr(u32),
    CharLit,
}

/// Scrub `source`: blank out comments and literal contents, collect allow
/// annotations, and compute per-line item paths.
pub fn scrub(source: &str) -> Scrubbed {
    let mut lines = Vec::new();
    let mut allows = Vec::new();
    let mut state = State::Code;

    for (idx, raw) in source.lines().enumerate() {
        let mut out = String::with_capacity(raw.len());
        let mut comment = String::new();
        let chars: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                State::Code => match c {
                    '/' if next == Some('/') => {
                        comment.extend(&chars[i..]);
                        out.extend(std::iter::repeat_n(' ', chars.len() - i));
                        state = State::LineComment;
                        i = chars.len();
                        continue;
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        out.push_str("  ");
                        i += 2;
                        continue;
                    }
                    '"' => {
                        state = State::Str;
                        out.push('"');
                    }
                    'r' if matches!(next, Some('"' | '#')) && !prev_is_ident(&chars, i) => {
                        // Raw string: r"…" or r#"…"# (any number of hashes).
                        let mut hashes = 0;
                        let mut j = i + 1;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') {
                            state = State::RawStr(hashes);
                            for _ in i..=j {
                                out.push(' ');
                            }
                            i = j + 1;
                            continue;
                        }
                        out.push(c);
                    }
                    '\'' => {
                        // Char literal vs lifetime: a literal is 'x' or an
                        // escape; a lifetime tick is followed by an ident
                        // with no closing quote right after.
                        if next == Some('\\') {
                            state = State::CharLit;
                            out.push('\'');
                            out.push(' ');
                            i += 2;
                            continue;
                        }
                        if chars.get(i + 2) == Some(&'\'') && next != Some('\'') {
                            out.push_str("' '");
                            i += 3;
                            continue;
                        }
                        out.push('\'');
                    }
                    _ => out.push(c),
                },
                State::LineComment => unreachable!("line comments consume the rest of the line"),
                State::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::BlockComment(depth - 1)
                        };
                        comment.push(' ');
                        out.push_str("  ");
                        i += 2;
                        continue;
                    }
                    if c == '/' && next == Some('*') {
                        state = State::BlockComment(depth + 1);
                        comment.push(' ');
                        out.push_str("  ");
                        i += 2;
                        continue;
                    }
                    comment.push(c);
                    out.push(' ');
                }
                State::Str => match c {
                    '\\' => {
                        out.push_str("  ");
                        i += 2;
                        continue;
                    }
                    '"' => {
                        state = State::Code;
                        out.push('"');
                    }
                    _ => out.push(' '),
                },
                State::RawStr(hashes) => {
                    if c == '"' {
                        let mut ok = true;
                        for k in 0..hashes as usize {
                            if chars.get(i + 1 + k) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            state = State::Code;
                            for _ in 0..=hashes as usize {
                                out.push(' ');
                            }
                            i += 1 + hashes as usize;
                            continue;
                        }
                    }
                    out.push(' ');
                }
                State::CharLit => {
                    if c == '\'' {
                        state = State::Code;
                        out.push('\'');
                    } else {
                        out.push(' ');
                    }
                }
            }
            i += 1;
        }
        // A line comment never spills to the next line, and a char literal
        // cannot contain a newline. Plain and raw strings CAN span lines —
        // those states persist.
        if matches!(state, State::LineComment | State::CharLit) {
            state = State::Code;
        }
        if let Some(allow) = parse_allow(&comment, idx + 1) {
            allows.push(allow);
        }
        lines.push(out);
    }

    let item_paths = item_paths(&lines);
    Scrubbed {
        lines,
        allows,
        item_paths,
    }
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Parse an allow annotation — `detlint::allow` immediately followed by
/// `(RULE, reason = …)` — out of comment text. Returns `None` when the
/// comment does not contain the call form at all; prose that merely
/// *mentions* detlint::allow is not an annotation attempt.
fn parse_allow(comment: &str, line: usize) -> Option<Allow> {
    let start = comment.find("detlint::allow(")?;
    let malformed = |why: &str| Allow {
        line,
        rule: String::new(),
        reason: String::new(),
        malformed: Some(why.to_owned()),
        used: false,
    };
    let rest = &comment[start + "detlint::allow".len()..];
    let Some(args) = rest.strip_prefix('(') else {
        return Some(malformed("expected `detlint::allow(RULE, reason = \"…\")`"));
    };
    // A reason may itself hold parentheses ("paper API (2)"): the call ends
    // at the first `)` after the reason's closing quote.
    let close_quote = args
        .find('"')
        .and_then(|open| args[open + 1..].find('"').map(|close| open + 1 + close))
        .unwrap_or(0);
    let body = &args[..args[close_quote..]
        .find(')')
        .map_or(args.len(), |p| close_quote + p)];
    let mut parts = body.splitn(2, ',');
    let rule = parts.next().unwrap_or("").trim().to_owned();
    if rule.len() != 4 || !rule.starts_with('D') || !rule[1..].chars().all(|c| c.is_ascii_digit()) {
        return Some(malformed("allow must name a rule id like D002"));
    }
    let tail = parts.next().unwrap_or("").trim();
    let reason = tail
        .strip_prefix("reason")
        .map(|r| r.trim_start().trim_start_matches('=').trim())
        .and_then(|r| r.strip_prefix('"'))
        .and_then(|r| r.rsplit_once('"').map(|(body, _)| body.to_owned()));
    let Some(reason) = reason else {
        return Some(malformed("allow requires `reason = \"…\"`"));
    };
    if reason.trim().is_empty() {
        return Some(malformed("allow reason must not be empty"));
    }
    Some(Allow {
        line,
        rule,
        reason,
        malformed: None,
        used: false,
    })
}

/// Compute the item path in effect at the start of every (scrubbed) line by
/// tracking brace depth and the `fn`/`struct`/`enum`/`impl`/`mod`/`trait`
/// headers that open blocks.
fn item_paths(lines: &[String]) -> Vec<String> {
    let mut paths = Vec::with_capacity(lines.len());
    // (depth the item's block lives at, name)
    let mut stack: Vec<(usize, String)> = Vec::new();
    let mut depth = 0usize;
    let mut pending: Option<String> = None;

    for line in lines {
        paths.push(
            stack
                .iter()
                .map(|(_, n)| n.as_str())
                .collect::<Vec<_>>()
                .join("::"),
        );
        if let Some(name) = item_header(line) {
            pending = Some(name);
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some(name) = pending.take() {
                        stack.push((depth, name));
                    }
                }
                '}' => {
                    if stack.last().is_some_and(|(d, _)| *d == depth) {
                        stack.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                ';' => {
                    // `struct Unit;`, trait method signatures, etc. end the
                    // pending header without opening a block.
                    pending = None;
                }
                _ => {}
            }
        }
    }
    paths
}

/// If the line begins an item (`fn name`, `impl Type`, …) return its display
/// name. `impl Trait for Type` names `Type`.
pub(crate) fn item_header(line: &str) -> Option<String> {
    let line = without_impl_generics(line);
    let words: Vec<&str> = line.split_whitespace().collect();
    for (i, w) in words.iter().enumerate() {
        match *w {
            "fn" | "struct" | "enum" | "trait" | "mod" | "union" => {
                return words.get(i + 1).map(|n| ident_prefix(n));
            }
            "impl" => {
                // `impl<T> Trait for Type` — prefer the type after `for`.
                let after_for = words
                    .iter()
                    .position(|w| *w == "for")
                    .and_then(|p| words.get(p + 1));
                let name = after_for.or_else(|| {
                    words[i + 1..]
                        .iter()
                        .find(|w| w.chars().next().is_some_and(char::is_alphabetic))
                });
                return name.map(|n| ident_prefix(n));
            }
            // Qualifiers that may precede the item keyword.
            "pub" | "pub(crate)" | "pub(super)" | "const" | "unsafe" | "async" | "extern" => {}
            _ => return None,
        }
    }
    None
}

/// `impl<T: Bound> Type<T>` → `impl Type<T>`, so the words after `impl`
/// start with the trait or type, not with a parameter's bound.
fn without_impl_generics(line: &str) -> std::borrow::Cow<'_, str> {
    let Some(at) = line.find("impl<").filter(|&i| word_at(line, i, "impl")) else {
        return line.into();
    };
    let params = at + "impl".len();
    let mut depth = 0;
    for (j, c) in line[params..].char_indices() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return format!("{} {}", &line[..params], &line[params + j + 1..]).into();
                }
            }
            _ => {}
        }
    }
    line.into()
}

/// The leading identifier characters of a token (`Network<T>` → `Network`).
fn ident_prefix(token: &str) -> String {
    token
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

/// True when `text[idx..]` starts with `needle` as a whole word: the
/// characters on either side are not identifier characters.
pub fn word_at(text: &str, idx: usize, needle: &str) -> bool {
    if !text[idx..].starts_with(needle) {
        return false;
    }
    let before_ok = idx == 0
        || text[..idx]
            .chars()
            .next_back()
            .is_some_and(|c| !c.is_alphanumeric() && c != '_');
    let after = text[idx + needle.len()..].chars().next();
    let after_ok = after.is_none_or(|c| !c.is_alphanumeric() && c != '_');
    before_ok && after_ok
}

/// All whole-word occurrences of `needle` in `text`.
pub fn word_occurrences<'a>(text: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    text.match_indices(needle)
        .map(|(i, _)| i)
        .filter(move |&i| word_at(text, i, needle))
}

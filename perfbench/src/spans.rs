//! The benchmark's own spans: one per call into `Scenario`, kept in memory
//! and written out as JSONL when the benchmark ends.
//!
//! Spans are recorded from this package only, around the calls into the
//! layers; spans inside the program are a later change.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    rep: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span; `None` while recording is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The in-memory span store. With recording off, `begin`/`end` cost one
/// branch each, so untraced reps measure the program and not the recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    rep: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A store that records nothing until [`Spans::set_recording`].
    pub fn new() -> Self {
        Spans {
            on: false,
            origin: crate::clock::now(),
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off and names the rep the next spans belong to.
    pub fn set_recording(&mut self, on: bool, rep: u32) {
        self.on = on;
        self.rep = rep;
    }

    /// Opens a span whose parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            rep: self.rep,
            parent: self.stack.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Spans::begin`].
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Seconds spent in spans called `name` during rep `rep`.
    pub fn total_s(&self, name: &str, rep: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.rep == rep && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .fold(0.0, |total, s| total + s)
    }

    /// One JSON object per span and line. `self_ns` is the span's duration
    /// minus the part of it its child spans cover.
    pub fn to_jsonl(&self) -> String {
        let mut children_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let duration = span.end_ns - span.start_ns;
            writeln!(
                out,
                "{{\"rep\": {}, \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                span.rep,
                span.name,
                span.start_ns,
                span.end_ns,
                duration.saturating_sub(children_ns[id]),
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_off_keeps_nothing() {
        let mut spans = Spans::new();
        let open = spans.begin("rep");
        spans.end(open);
        assert_eq!(spans.to_jsonl(), "");
    }

    #[test]
    fn children_name_their_parent_and_reduce_its_self_time() {
        let mut spans = Spans::new();
        spans.set_recording(true, 3);
        let rep = spans.begin("rep");
        let child = spans.begin("advance");
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.end(child);
        spans.end(rep);
        let jsonl = spans.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"rep\": 3, \"id\": 0, \"parent\": null, \"name\": \"rep\""));
        assert!(lines[1].contains("\"id\": 1, \"parent\": 0, \"name\": \"advance\""));
        assert!(spans.total_s("advance", 3) >= 0.002);
        assert!(spans.total_s("rep", 3) >= spans.total_s("advance", 3));
        assert_eq!(spans.total_s("advance", 4), 0.0);
        let field = |line: &str, key: &str| -> u64 {
            let at = line.find(key).expect("field present") + key.len();
            line[at..]
                .trim_start_matches([':', ' '])
                .split([',', '}'])
                .next()
                .expect("value present")
                .parse()
                .expect("numeric field")
        };
        let rep_total = field(lines[0], "\"end_ns\"") - field(lines[0], "\"start_ns\"");
        let child_total = field(lines[1], "\"end_ns\"") - field(lines[1], "\"start_ns\"");
        assert_eq!(field(lines[0], "\"self_ns\""), rep_total - child_total);
    }
}

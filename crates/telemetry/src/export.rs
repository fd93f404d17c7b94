//! Canonical export ordering and the shared text/JSON encoding helpers.
//!
//! Every exporter in the workspace — [`MetricsSnapshot::render_text`] and
//! the flight recorder's JSONL series dump — must walk metrics in the
//! *same* order, or two renderings of identical state stop being
//! byte-comparable and the determinism replay loses its cheapest oracle. This module owns that order: counters first, then
//! gauges, then histograms, each name-sorted (the snapshot vectors are
//! already name-ordered because the registry is BTree-backed). Exporters
//! iterate [`canonical_entries`] instead of re-sorting locally.

use crate::{HistogramSummary, MetricsSnapshot};

/// One metric in canonical export order, borrowed from a snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricEntry<'a> {
    /// A monotonic counter.
    Counter(&'a str, u64),
    /// A point-in-time gauge.
    Gauge(&'a str, i64),
    /// A windowed histogram summary.
    Histogram(&'a str, &'a HistogramSummary),
}

impl MetricEntry<'_> {
    /// The metric's name.
    pub fn name(&self) -> &str {
        match self {
            MetricEntry::Counter(name, _) | MetricEntry::Gauge(name, _) | MetricEntry::Histogram(name, _) => {
                name
            }
        }
    }
}

/// Iterates a snapshot in the canonical export order: counters, then gauges,
/// then histograms, each name-sorted. Every exporter must use this (or
/// [`MetricsSnapshot::canonical_entries`], which delegates here) so that two
/// renderings of the same state agree byte for byte.
pub fn canonical_entries(snapshot: &MetricsSnapshot) -> impl Iterator<Item = MetricEntry<'_>> {
    let counters = snapshot.counters.iter().map(|(n, v)| MetricEntry::Counter(n, *v));
    let gauges = snapshot.gauges.iter().map(|(n, v)| MetricEntry::Gauge(n, *v));
    let histograms = snapshot
        .histograms
        .iter()
        .map(|(n, s)| MetricEntry::Histogram(n, s));
    counters.chain(gauges).chain(histograms)
}

/// Appends `value` as a JSON string literal (quotes included) to `out`.
/// Metric names are plain ASCII paths, but the escape is complete anyway so
/// a creative series name cannot corrupt the JSONL stream.
pub fn push_json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an `f64` for export: finite values use Rust's shortest-roundtrip
/// formatting (deterministic for equal bits), non-finite values — which JSON
/// cannot carry — are pinned to `null`-safe sentinels.
pub fn format_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else if value.is_nan() {
        "0".to_owned()
    } else if value > 0.0 {
        "1e308".to_owned()
    } else {
        "-1e308".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn canonical_order_is_counters_gauges_histograms_each_name_sorted() {
        let mut registry = MetricsRegistry::new();
        registry.set_gauge("b.gauge", 2);
        registry.inc_counter("z.counter", 1);
        registry.record("a.histo", 1.0);
        registry.inc_counter("a.counter", 1);
        registry.set_gauge("a.gauge", 1);
        let snapshot = registry.snapshot();
        let names: Vec<String> = canonical_entries(&snapshot)
            .map(|e| e.name().to_owned())
            .collect();
        assert_eq!(
            names,
            vec!["a.counter", "z.counter", "a.gauge", "b.gauge", "a.histo"],
            "counters first, then gauges, then histograms, each name-sorted"
        );
    }

    #[test]
    fn render_text_follows_the_canonical_order() {
        // The ordering pin of the shared helper: render_text must list
        // metrics exactly as canonical_entries yields them.
        let mut registry = MetricsRegistry::new();
        registry.inc_counter("m.events", 7);
        registry.set_gauge("a.depth", -1);
        registry.record("z.lat", 3.0);
        let snapshot = registry.snapshot();
        let rendered = snapshot.render_text();
        let rendered_names: Vec<&str> = rendered
            .lines()
            .map(|l| l.split_whitespace().nth(1).expect("metric name column"))
            .collect();
        let canonical: Vec<String> = canonical_entries(&snapshot)
            .map(|e| e.name().to_owned())
            .collect();
        assert_eq!(rendered_names, canonical);
    }

    #[test]
    fn json_strings_escape_the_dangerous_characters() {
        let mut out = String::new();
        push_json_string(&mut out, "plain.name");
        assert_eq!(out, "\"plain.name\"");
        let mut out = String::new();
        push_json_string(&mut out, "q\"b\\n\n\u{1}");
        assert_eq!(out, "\"q\\\"b\\\\n\\n\\u0001\"");
    }

    #[test]
    fn float_formatting_is_shortest_roundtrip_and_total() {
        assert_eq!(format_f64(1.5), "1.5");
        assert_eq!(format_f64(1.0), "1");
        assert_eq!(format_f64(f64::NAN), "0");
        assert_eq!(format_f64(f64::INFINITY), "1e308");
        assert_eq!(format_f64(f64::NEG_INFINITY), "-1e308");
    }
}

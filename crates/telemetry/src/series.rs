//! The flight recorder: bounded per-metric time series over *virtual* time.
//!
//! A [`MetricsSnapshot`] answers "what is the system doing now"; the paper's
//! evaluation — and every operator staring at a recovering mesh — needs
//! "what has it been doing": delivery ratio dipping after a shard death and
//! climbing back as leases fail over, p99 latency under churn, mailbox depth
//! under a flood. The [`SeriesRecorder`] closes that gap. A harness samples
//! a registry snapshot into it on a fixed virtual-time cadence; each metric
//! becomes a bounded ring of `(sim_time, value)` points with derived views
//! (delta, rate) computed on read, and the whole record exports as
//! deterministic JSONL — byte-identical across same-seed runs, so it joins
//! the determinism replay next to the span trace.
//!
//! Memory is bounded twice over: each series keeps at most
//! `CAPACITY_PER_SERIES` (512) points (older ones are evicted, counted), and
//! at most `MAX_SERIES` (4 096) distinct series are tracked (later names are
//! dropped, counted). Both caps are part of the recorder's contract at
//! 100k-subscriber scale; [`SeriesRecorder::approx_bytes`] reports the
//! actual footprint so tests can pin the documented bound.

use crate::export::{canonical_entries, format_f64, push_json_string, MetricEntry};
use crate::MetricsSnapshot;
use std::collections::{BTreeMap, VecDeque};

/// Points retained per series; older points are evicted ring-style.
const CAPACITY_PER_SERIES: usize = 512;

/// Most distinct series tracked; names arriving after the cap are dropped
/// (and counted in [`SeriesRecorder::dropped_series`]).
const MAX_SERIES: usize = 4096;

/// Configuration of a [`SeriesRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Sampling cadence in virtual microseconds (how often the owning
    /// harness should call [`SeriesRecorder::sample`]).
    pub cadence_us: u64,
}

impl RecorderConfig {
    /// One sample per virtual second. The caps are fixed: 512 points per
    /// series, 4096 series — 32 MiB of points at full occupancy.
    pub fn default_cadence() -> Self {
        RecorderConfig {
            cadence_us: 1_000_000,
        }
    }

    /// A custom cadence (at least 1 µs).
    pub fn with_cadence_us(cadence_us: u64) -> Self {
        RecorderConfig {
            cadence_us: cadence_us.max(1),
        }
    }
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig::default_cadence()
    }
}

/// One sample of one series: a value at a virtual instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Virtual time of the sample, in microseconds.
    pub at_us: u64,
    /// The sampled value.
    pub value: f64,
}

/// A bounded ring of [`SeriesPoint`]s for one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    points: VecDeque<SeriesPoint>,
    evicted: u64,
}

impl MetricSeries {
    fn push(&mut self, at_us: u64, value: f64) {
        self.points.push_back(SeriesPoint { at_us, value });
        if self.points.len() > CAPACITY_PER_SERIES {
            self.points.pop_front();
            self.evicted += 1;
        }
    }

    /// Points currently retained, oldest first.
    pub fn points(&self) -> impl Iterator<Item = &SeriesPoint> {
        self.points.iter()
    }

    /// Number of points currently retained.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Points evicted from the ring over the series' lifetime.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The newest point, if any.
    pub fn last(&self) -> Option<SeriesPoint> {
        self.points.back().copied()
    }

    /// The oldest retained point, if any.
    pub fn first(&self) -> Option<SeriesPoint> {
        self.points.front().copied()
    }

    /// Derived series: newest value minus oldest retained value (the growth
    /// across the retained window; for monotonic counters, work done).
    pub fn delta(&self) -> f64 {
        match (self.first(), self.last()) {
            (Some(first), Some(last)) => last.value - first.value,
            _ => 0.0,
        }
    }

    /// The raw values in time order (for sparklines and assertions).
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.value).collect()
    }
}

/// The flight recorder. See the module docs for the contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesRecorder {
    config: RecorderConfig,
    series: BTreeMap<String, MetricSeries>,
    samples_taken: u64,
    dropped_series: u64,
}

impl SeriesRecorder {
    /// Creates a recorder with the given caps and cadence.
    pub fn new(config: RecorderConfig) -> Self {
        SeriesRecorder {
            config,
            series: BTreeMap::new(),
            samples_taken: 0,
            dropped_series: 0,
        }
    }

    /// The configured sampling cadence in virtual microseconds.
    pub fn cadence_us(&self) -> u64 {
        self.config.cadence_us
    }

    /// Samples one snapshot at virtual time `at_us`: every counter and gauge
    /// becomes one point in its series; every histogram contributes derived
    /// `<name>.p50` and `<name>.p99` sub-series (the windowed quantiles an
    /// SLO rule wants to watch). Iteration follows the canonical export
    /// order, so which names win the `MAX_SERIES` race is deterministic.
    pub fn sample(&mut self, at_us: u64, snapshot: &MetricsSnapshot) {
        self.samples_taken += 1;
        for entry in canonical_entries(snapshot) {
            match entry {
                MetricEntry::Counter(name, value) => self.record_value_borrowed(at_us, name, value as f64),
                MetricEntry::Gauge(name, value) => self.record_value_borrowed(at_us, name, value as f64),
                MetricEntry::Histogram(name, summary) => {
                    self.record_value(at_us, format!("{name}.p50"), summary.p50);
                    self.record_value(at_us, format!("{name}.p99"), summary.p99);
                }
            }
        }
    }

    /// Records one point into the named series directly — the path for
    /// harness-computed figures that live in no registry (delivery ratio,
    /// probe outcomes) and for the histogram-derived sub-series.
    pub fn record_value(&mut self, at_us: u64, name: impl Into<String>, value: f64) {
        let name = name.into();
        self.record_value_borrowed(at_us, &name, value);
    }

    fn record_value_borrowed(&mut self, at_us: u64, name: &str, value: f64) {
        if let Some(series) = self.series.get_mut(name) {
            series.push(at_us, value);
            return;
        }
        if self.series.len() >= MAX_SERIES {
            self.dropped_series += 1;
            return;
        }
        let mut series = MetricSeries {
            points: VecDeque::new(),
            evicted: 0,
        };
        series.push(at_us, value);
        self.series.insert(name.to_owned(), series);
    }

    /// The named series, if any point was ever recorded under it.
    pub fn series(&self, name: &str) -> Option<&MetricSeries> {
        self.series.get(name)
    }

    /// Every tracked series name, in name order.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// Number of distinct series tracked.
    pub fn num_series(&self) -> usize {
        self.series.len()
    }

    /// How many times [`SeriesRecorder::sample`] ran.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Recordings refused because the `MAX_SERIES` cap was reached.
    pub fn dropped_series(&self) -> u64 {
        self.dropped_series
    }

    /// Approximate heap footprint of the recorded data: name bytes plus
    /// 16 bytes per retained point. The figure the mega-scale bound test
    /// pins against the documented budget in `docs/observability.md`.
    pub fn approx_bytes(&self) -> usize {
        self.series
            .iter()
            .map(|(name, series)| name.len() + series.len() * std::mem::size_of::<SeriesPoint>())
            .sum()
    }

    /// Exports every retained point as JSON Lines, one object per point,
    /// series in name order and points in time order within a series:
    ///
    /// ```text
    /// {"series":"simnet.datagrams_delivered","t_us":1000000,"value":42}
    /// ```
    ///
    /// Deterministic: same recorded state, same bytes.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, series) in &self.series {
            for point in series.points() {
                out.push_str("{\"series\":");
                push_json_string(&mut out, name);
                out.push_str(",\"t_us\":");
                out.push_str(&point.at_us.to_string());
                out.push_str(",\"value\":");
                out.push_str(&format_f64(point.value));
                out.push_str("}\n");
            }
        }
        out
    }
}

/// Renders `values` as a unicode sparkline (`▁▂▃▄▅▆▇█`), normalised to the
/// series' own min/max; a flat series renders mid-height. The operator
/// view's one-line trend display.
pub fn sparkline(values: &[f64]) -> String {
    const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() || span <= 0.0 {
                RAMP[3]
            } else {
                let norm = (v - min) / span;
                RAMP[((norm * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn sampled_recorder() -> SeriesRecorder {
        let mut recorder = SeriesRecorder::new(RecorderConfig::with_cadence_us(1_000_000));
        let mut registry = MetricsRegistry::new();
        for tick in 0..5u64 {
            registry.set_counter("kernel.delivered", tick * 10);
            registry.set_gauge("kernel.queue", 3 - tick.min(3) as i64);
            registry.record("lat_ms", tick as f64);
            recorder.sample(tick * 1_000_000, &registry.snapshot());
        }
        recorder
    }

    #[test]
    fn sampling_builds_per_metric_series_with_derived_quantiles() {
        let recorder = sampled_recorder();
        assert_eq!(recorder.samples_taken(), 5);
        let delivered = recorder.series("kernel.delivered").expect("counter series");
        assert_eq!(delivered.len(), 5);
        assert_eq!(delivered.last().unwrap().value, 40.0);
        assert_eq!(delivered.delta(), 40.0);
        assert!(recorder.series("lat_ms.p50").is_some(), "histograms derive .p50");
        assert!(recorder.series("lat_ms.p99").is_some(), "histograms derive .p99");
        assert!(
            recorder.series("lat_ms").is_none(),
            "raw histogram has no scalar series"
        );
    }

    #[test]
    fn rings_evict_oldest_points_and_count_them() {
        let mut recorder = SeriesRecorder::new(RecorderConfig::with_cadence_us(1));
        for tick in 0..CAPACITY_PER_SERIES as u64 + 6 {
            recorder.record_value(tick, "s", tick as f64);
        }
        let series = recorder.series("s").unwrap();
        assert_eq!(series.len(), 512);
        assert_eq!(series.evicted(), 6);
        assert_eq!(
            series.first().unwrap().value,
            6.0,
            "oldest retained point moved up"
        );
        assert_eq!(series.last().unwrap().value, 517.0);
    }

    #[test]
    fn the_series_cap_drops_new_names_deterministically() {
        let mut recorder = SeriesRecorder::new(RecorderConfig::with_cadence_us(1));
        for n in 0..MAX_SERIES {
            recorder.record_value(0, format!("s{n}"), 1.0);
        }
        recorder.record_value(0, "late", 1.0);
        recorder.record_value(1, "s0", 2.0);
        assert_eq!(recorder.num_series(), 4096);
        assert_eq!(recorder.dropped_series(), 1);
        assert!(
            recorder.series("late").is_none(),
            "the name past the cap is dropped"
        );
        assert_eq!(
            recorder.series("s0").unwrap().len(),
            2,
            "existing series keep recording"
        );
    }

    #[test]
    fn jsonl_export_is_deterministic_and_name_ordered() {
        let a = sampled_recorder().export_jsonl();
        let b = sampled_recorder().export_jsonl();
        assert_eq!(a.as_bytes(), b.as_bytes(), "same state, same bytes");
        let first = a.lines().next().unwrap();
        assert_eq!(
            first, r#"{"series":"kernel.delivered","t_us":0,"value":0}"#,
            "alphabetically first series leads, oldest point first"
        );
        assert_eq!(
            a.lines().count(),
            5 * 4,
            "5 ticks x (counter + gauge + p50 + p99)"
        );
    }

    #[test]
    fn approx_bytes_tracks_points_and_names() {
        let recorder = sampled_recorder();
        let expected: usize = recorder
            .series_names()
            .map(|n| n.len() + recorder.series(n).unwrap().len() * 16)
            .sum();
        assert_eq!(recorder.approx_bytes(), expected);
        assert!(recorder.approx_bytes() > 0);
    }

    #[test]
    fn sparklines_normalise_to_the_series_range() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0]), "▄▄", "flat series renders mid-height");
        let line = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.starts_with('▁') && line.ends_with('█'));
    }
}

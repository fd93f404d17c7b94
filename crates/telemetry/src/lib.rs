//! # telemetry — the observability substrate of the TPS stack
//!
//! The paper's JXTA deployment is a black box: rendezvous peers carry the
//! whole propagation load and nothing in the system can see how hot (or how
//! dead) any of them is. This crate is the zero-dependency metrics subsystem
//! the rest of the workspace hangs its instrumentation on:
//!
//! * [`MetricsRegistry`] — a named collection of monotonic counters, gauges
//!   and [`WindowedHistogram`]s with a deterministic [`MetricsSnapshot`]
//!   view. Every layer exports into a registry under its own prefix
//!   (`simnet.*`, `jxta.*`, `tps.*`), so one snapshot shows the whole stack.
//! * [`WindowedHistogram`] — a bounded sliding window of samples with
//!   mean/min/max/quantile summaries; old samples fall out, so the summary
//!   tracks *recent* behaviour under sustained load.
//! * [`LoadReport`] — the compact per-peer load record of the wire-level
//!   load-report plane: events relayed, fan-out, mailbox depth and lease
//!   count. Edge peers piggyback one on their housekeeping tick; rendezvous
//!   peers aggregate them into a per-shard load table and gossip their own
//!   across the mesh links (see the `jxta` crate), and the rebalancing
//!   controller in `dissem` decides from the table.
//! * [`trace`] — the causal event-tracing plane: per-event [`trace::TraceId`]s,
//!   typed hop spans collected into a bounded [`trace::TraceCollector`], path
//!   reconstruction (`trace_of`), latency accounting and drop forensics
//!   (`why_missing`). Off by default; zero-cost when disabled.
//! * [`series`] — the flight recorder: [`series::SeriesRecorder`] samples
//!   snapshots on a virtual-time cadence into bounded per-metric rings and
//!   exports them as deterministic JSONL.
//! * [`slo`] — declarative SLO rules ([`slo::SloRule`]) evaluated by an
//!   [`slo::SloWatchdog`] against the recorded series, emitting typed,
//!   virtually-timestamped [`slo::HealthAlert`]s.
//! * [`export`] — the canonical metric iteration order and the shared
//!   text/JSON encoding helpers every exporter goes through.
//!
//! Everything here is plain owned state — no interior mutability, no
//! threads, no clocks — so the simulator's determinism guarantees carry
//! through unchanged.
#![warn(rust_2018_idioms)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

pub mod export;
pub mod series;
pub mod slo;
pub mod trace;

/// Default number of samples a [`WindowedHistogram`] retains.
const DEFAULT_HISTOGRAM_WINDOW: usize = 1024;

// ---------------------------------------------------------------------------
// WindowedHistogram
// ---------------------------------------------------------------------------

/// A bounded sliding window of `f64` samples. Recording past the capacity
/// evicts the oldest sample, so summaries describe the most recent
/// `capacity` observations — the behaviour an operator actually wants from
/// a long-running relay ("how slow is it *now*", not "since boot").
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedHistogram {
    capacity: usize,
    samples: VecDeque<f64>,
    recorded: u64,
}

/// Summary statistics of one histogram window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Samples currently in the window.
    pub count: usize,
    /// Samples recorded over the histogram's lifetime (including evicted).
    pub recorded: u64,
    /// Arithmetic mean of the window.
    pub mean: f64,
    /// Smallest sample in the window.
    pub min: f64,
    /// Largest sample in the window.
    pub max: f64,
    /// Median of the window.
    pub p50: f64,
    /// 90th percentile of the window.
    pub p90: f64,
    /// 99th percentile of the window.
    pub p99: f64,
}

impl WindowedHistogram {
    /// Creates a histogram retaining the latest `capacity` samples
    /// (`capacity == 0` is promoted to 1).
    pub fn with_capacity(capacity: usize) -> Self {
        WindowedHistogram {
            capacity: capacity.max(1),
            samples: VecDeque::new(),
            recorded: 0,
        }
    }

    /// The window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one sample, evicting the oldest if the window is full.
    pub fn record(&mut self, sample: f64) {
        self.recorded += 1;
        self.samples.push_back(sample);
        if self.samples.len() > self.capacity {
            self.samples.pop_front();
        }
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample has been recorded (or all have been evicted).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Summarises the current window. An empty window yields all-zero stats.
    pub fn summary(&self) -> HistogramSummary {
        if self.samples.is_empty() {
            return HistogramSummary::default();
        }
        let mut sorted: Vec<f64> = self.samples.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let count = sorted.len();
        let quantile = |q: f64| -> f64 {
            // Nearest-rank on the sorted window; q in [0, 1].
            let rank = ((count as f64 * q).ceil() as usize).clamp(1, count);
            sorted[rank - 1]
        };
        HistogramSummary {
            count,
            recorded: self.recorded,
            mean: sorted.iter().sum::<f64>() / count as f64,
            min: sorted[0],
            max: sorted[count - 1],
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        WindowedHistogram::with_capacity(DEFAULT_HISTOGRAM_WINDOW)
    }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

/// A named collection of counters, gauges and windowed histograms.
///
/// Names are free-form dotted paths (`"jxta.rdv-0.relayed"`); iteration is
/// name-ordered (BTree-backed), so two snapshots of identical state render
/// identically — a property the deterministic tests lean on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, WindowedHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to the named monotonic counter (creating it at zero).
    pub fn inc_counter(&mut self, name: impl Into<String>, by: u64) {
        *self.counters.entry(name.into()).or_insert(0) += by;
    }

    /// Sets the named counter to an absolute value — used when exporting an
    /// already-accumulated total from another layer's own counter.
    pub fn set_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: impl Into<String>, value: i64) {
        self.gauges.insert(name.into(), value);
    }

    /// Records one sample into the named histogram (created with the default
    /// window on first use).
    pub fn record(&mut self, name: impl Into<String>, sample: f64) {
        self.histograms.entry(name.into()).or_default().record(sample);
    }

    /// Installs an already-populated histogram under a name (replacing any
    /// existing one) — used when a layer maintains its own window and only
    /// hands it over at snapshot time.
    pub fn insert_histogram(&mut self, name: impl Into<String>, histogram: WindowedHistogram) {
        self.histograms.insert(name.into(), histogram);
    }

    /// The current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The current value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Read access to a histogram, if any sample was recorded under the name.
    pub fn histogram(&self, name: &str) -> Option<&WindowedHistogram> {
        self.histograms.get(name)
    }

    /// Counters whose name starts with `prefix`, in name order.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, value)| (name.clone(), *value))
            .collect()
    }

    /// A point-in-time, name-ordered view of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(n, v)| (n.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(n, v)| (n.clone(), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.summary()))
                .collect(),
        }
    }
}

/// A point-in-time view of a [`MetricsRegistry`], suitable for assertions
/// and operator reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, name-ordered.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries, name-ordered.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// The value of a counter in this snapshot (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The value of a gauge in this snapshot, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Renders the snapshot as stable, name-sorted text — the operator-view
    /// dump format. Identical state renders identically, so the output is
    /// safe to assert on (and to diff between two runs).
    pub fn render_text(&self) -> String {
        self.to_string()
    }

    /// Iterates the snapshot in the canonical export order (counters, then
    /// gauges, then histograms, each name-sorted). Delegates to
    /// [`export::canonical_entries`]; every exporter walks this.
    pub fn canonical_entries(&self) -> impl Iterator<Item = export::MetricEntry<'_>> {
        export::canonical_entries(self)
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for entry in export::canonical_entries(self) {
            match entry {
                export::MetricEntry::Counter(name, value) => writeln!(f, "counter {name} = {value}")?,
                export::MetricEntry::Gauge(name, value) => writeln!(f, "gauge   {name} = {value}")?,
                export::MetricEntry::Histogram(name, summary) => writeln!(
                    f,
                    "histo   {name} = mean {:.2} p50 {:.2} p99 {:.2} max {:.2} (n={})",
                    summary.mean, summary.p50, summary.p99, summary.max, summary.count
                )?,
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// LoadReport
// ---------------------------------------------------------------------------

/// The compact per-peer load record carried by the wire-level load-report
/// plane. Small enough to piggyback on every housekeeping tick; rich enough
/// for the rebalancing controller to spot dead and hot shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadReport {
    /// Propagated/forwarded events since boot (monotonic).
    pub events_relayed: u64,
    /// Current forwarding fan-out (client leases + mesh links for a
    /// rendezvous; bound listeners for an edge publisher).
    pub fan_out: u32,
    /// Commands waiting in the application-layer mailbox (TPS session
    /// mailbox depth for TPS peers; zero where no mailbox exists).
    pub mailbox_depth: u32,
    /// Client leases currently held (rendezvous role; zero on edges).
    pub lease_count: u32,
}

impl LoadReport {
    /// Folds another report into this one (used when aggregating the
    /// reports of a shard's edge peers into the shard's own entry).
    pub fn absorb(&mut self, other: &LoadReport) {
        self.events_relayed += other.events_relayed;
        self.fan_out = self.fan_out.max(other.fan_out);
        self.mailbox_depth = self.mailbox_depth.max(other.mailbox_depth);
        self.lease_count += other.lease_count;
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "relayed={} fan_out={} mailbox={} leases={}",
            self.events_relayed, self.fan_out, self.mailbox_depth, self.lease_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_window_slides() {
        let mut h = WindowedHistogram::with_capacity(4);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4, "window keeps only the latest capacity samples");
        assert_eq!(s.recorded, 6, "lifetime count includes evicted samples");
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 6.0);
        assert!((s.mean - 4.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_are_nearest_rank() {
        let mut h = WindowedHistogram::with_capacity(100);
        for v in 1..=100 {
            h.record(v as f64);
        }
        let s = h.summary();
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let h = WindowedHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.summary(), HistogramSummary::default());
        assert_eq!(h.capacity(), DEFAULT_HISTOGRAM_WINDOW);
        assert_eq!(WindowedHistogram::with_capacity(0).capacity(), 1);
    }

    #[test]
    fn registry_counters_gauges_and_histograms() {
        let mut registry = MetricsRegistry::new();
        registry.inc_counter("a.relayed", 3);
        registry.inc_counter("a.relayed", 2);
        registry.set_counter("b.relayed", 10);
        registry.set_gauge("a.leases", 7);
        registry.record("a.latency_ms", 5.0);
        registry.record("a.latency_ms", 15.0);

        assert_eq!(registry.counter("a.relayed"), 5);
        assert_eq!(registry.counter("missing"), 0);
        assert_eq!(registry.gauge("a.leases"), Some(7));
        assert_eq!(registry.gauge("missing"), None);
        assert_eq!(registry.histogram("a.latency_ms").unwrap().len(), 2);
        assert_eq!(
            registry.counters_with_prefix("a."),
            vec![("a.relayed".to_owned(), 5)]
        );
    }

    #[test]
    fn snapshots_are_name_ordered_and_render() {
        let mut registry = MetricsRegistry::new();
        registry.inc_counter("z.last", 1);
        registry.inc_counter("a.first", 2);
        registry.set_gauge("m.middle", -4);
        registry.record("h.histo", 2.0);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters[0].0, "a.first");
        assert_eq!(snapshot.counters[1].0, "z.last");
        assert_eq!(snapshot.counter("z.last"), 1);
        assert_eq!(snapshot.gauge("m.middle"), Some(-4));
        let rendered = snapshot.to_string();
        assert!(rendered.contains("counter a.first = 2"));
        assert!(rendered.contains("gauge   m.middle = -4"));
        assert!(rendered.contains("histo   h.histo"));
        assert_eq!(
            snapshot.render_text(),
            rendered,
            "render_text is the stable Display form"
        );
    }

    #[test]
    fn identical_state_snapshots_identically() {
        let build = || {
            let mut r = MetricsRegistry::new();
            r.inc_counter("x", 1);
            r.set_gauge("g", 2);
            r.record("h", 3.0);
            r.snapshot()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn load_reports_absorb_and_render() {
        let mut total = LoadReport {
            events_relayed: 10,
            fan_out: 4,
            mailbox_depth: 1,
            lease_count: 4,
        };
        total.absorb(&LoadReport {
            events_relayed: 5,
            fan_out: 9,
            mailbox_depth: 0,
            lease_count: 2,
        });
        assert_eq!(total.events_relayed, 15);
        assert_eq!(total.fan_out, 9, "fan-out aggregates as the maximum");
        assert_eq!(total.lease_count, 6, "lease counts sum");
        assert_eq!(total.to_string(), "relayed=15 fan_out=9 mailbox=1 leases=6");
    }
}

//! # tps-bench — figure reproductions and ablation benches
//!
//! The measurement surface of the reproduction. Three Criterion benches
//! regenerate the paper's figures (`fig18_invocation_time`,
//! `fig19_publisher_throughput`, `fig20_subscriber_throughput`) and six
//! ablations isolate one mechanism each (`ablation_dissem`,
//! `ablation_batch`, `ablation_codec`, `ablation_dedup`,
//! `ablation_fanout`, `ablation_rebalance`). The `reproduce` binary
//! (`cargo run -p tps-bench --bin reproduce --release`) prints the
//! paper-vs-measured comparison tables without the bench harness.
//!
//! All series are measured in *virtual* time on the deterministic
//! simulator, so runs are reproducible per seed ([`DEFAULT_SEED`]; change
//! it to check conclusions are seed-independent). Set `TPS_BENCH_SMOKE=1`
//! to run reduced-iteration shapes — that is what CI does to keep bench
//! code from rotting.
//!
//! This crate itself holds the shared reporting helpers: [`SeriesReport`]
//! pairs a reproduced series with the paper's reference value and renders
//! the comparison rows used by both consumers, and [`report::BenchJson`]
//! emits each headline table as a machine-readable
//! `target/bench-json/BENCH_<name>.json` artifact.

pub mod figures;
pub mod report;

use ski_rental::{stats, Flavor, SeriesStats};

/// The default seed used by the figure reproductions (change it to check that
/// conclusions are seed-independent).
pub const DEFAULT_SEED: u64 = 2002;

/// A reproduced series alongside the paper's reported reference value.
#[derive(Debug, Clone)]
pub struct SeriesReport {
    /// The flavour and population the series describes (e.g. "SR-TPS, 4 subs").
    pub label: String,
    /// The value the paper reports (approximate, read off the figure).
    pub paper_reference: String,
    /// Statistics of the reproduced series.
    pub measured: SeriesStats,
    /// The full reproduced series.
    pub series: Vec<f64>,
}

impl SeriesReport {
    /// Builds a report from a measured series.
    pub fn new(label: impl Into<String>, paper_reference: impl Into<String>, series: Vec<f64>) -> Self {
        SeriesReport {
            label: label.into(),
            paper_reference: paper_reference.into(),
            measured: stats(&series),
            series,
        }
    }

    /// One formatted table row: label, paper reference, measured mean ± std.
    pub fn row(&self, unit: &str) -> String {
        format!(
            "{:<22} | paper: {:<18} | measured: {:7.2} ± {:6.2} {} (min {:.2}, max {:.2})",
            self.label,
            self.paper_reference,
            self.measured.mean,
            self.measured.std_dev,
            unit,
            self.measured.min,
            self.measured.max
        )
    }
}

/// The flavours in figure order with their figure labels.
pub fn flavors() -> [Flavor; 3] {
    [Flavor::JxtaWire, Flavor::SrJxta, Flavor::SrTps]
}

/// Renders a figure header for the console report.
pub fn figure_header(title: &str) -> String {
    let line = "=".repeat(title.len());
    format!("\n{title}\n{line}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_rows_format_mean_and_reference() {
        let report = SeriesReport::new("SR-TPS, 1 sub", "~250 ms", vec![10.0, 20.0, 30.0]);
        let row = report.row("ms");
        assert!(row.contains("SR-TPS, 1 sub"));
        assert!(row.contains("~250 ms"));
        assert!(row.contains("20.00"));
        assert_eq!(report.series.len(), 3);
    }

    #[test]
    fn header_underlines_title() {
        let header = figure_header("Figure 18");
        assert!(header.contains("Figure 18"));
        assert!(header.contains("========="));
    }

    #[test]
    fn flavor_order_matches_figures() {
        assert_eq!(flavors()[0].label(), "JXTA-WIRE");
        assert_eq!(flavors()[2].label(), "SR-TPS");
    }
}

//! # tps-bench — figure and ablation reproductions
//!
//! The evaluation surface of the reproduction. [`figures::SECTIONS`] lists
//! every table: the paper's Figures 18–20, the §4.4 line count, and the
//! ablations that isolate one mechanism each (dissemination strategies,
//! the sharded mesh's cost structure, end-to-end latency, batching, the
//! rebalancing controller). The `reproduce` binary
//! (`cargo run -p tps-bench --bin reproduce --release`) prints them, and
//! `tests/{figures,dissem,sections}_golden.rs` pin every one but the line
//! count.
//!
//! All series are measured in *virtual* time on the deterministic
//! simulator, so runs are reproducible per seed ([`DEFAULT_SEED`]; change
//! it to check conclusions are seed-independent). What the simulator costs
//! on the host is measured by the repo benchmark in `perfbench/`.
//!
//! This crate itself holds the shared reporting helpers: [`SeriesReport`]
//! pairs a reproduced series with the paper's reference value and renders
//! the comparison row, and [`figure_header`] titles each section.

pub mod figures;

use ski_rental::{stats, SeriesStats};

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
}

impl SeriesReport {
    /// Builds a report from a measured series.
    pub fn new(label: impl Into<String>, paper_reference: impl Into<String>, series: &[f64]) -> Self {
        SeriesReport {
            label: label.into(),
            paper_reference: paper_reference.into(),
            measured: stats(series),
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
        let report = SeriesReport::new("SR-TPS, 1 sub", "~250 ms", &[10.0, 20.0, 30.0]);
        let row = report.row("ms");
        assert!(row.contains("SR-TPS, 1 sub"));
        assert!(row.contains("~250 ms"));
        assert!(row.contains("20.00"));
    }

    #[test]
    fn header_underlines_title() {
        let header = figure_header("Figure 18");
        assert!(header.contains("Figure 18"));
        assert!(header.contains("========="));
    }
}

//! The paper's Figures 18–20 as paper-reference vs measured tables, and the
//! dissemination ablation that extends Figure 18 to every strategy.
//!
//! The `reproduce` binary prints these and `tests/figures_golden.rs` /
//! `tests/dissem_golden.rs` pin them: every number is virtual time at
//! [`DEFAULT_SEED`], so the text is exact per commit and a change that moves
//! a row shows up as a diff of a file under `tests/golden/`.

use crate::{figure_header, SeriesReport, DEFAULT_SEED};
use ski_rental::{
    dissemination_comparison, invocation_time, publisher_throughput, subscriber_throughput, Flavor,
};

/// One row of a figure: the paper's value, the flavour, and the population
/// (subscribers in Figures 18 and 19, publishers in Figure 20).
type Row = (&'static str, Flavor, usize);

fn figure(
    title: &str,
    rows: &[Row],
    population: &str,
    unit: &str,
    measure: impl Fn(Flavor, usize) -> Vec<f64>,
    shape: &str,
) -> String {
    let mut out = figure_header(title);
    out.push('\n');
    for &(reference, flavor, count) in rows {
        let report = SeriesReport::new(
            format!("{flavor}, {count} {population}(s)"),
            reference,
            measure(flavor, count),
        );
        out.push_str(&report.row(unit));
        out.push('\n');
    }
    out.push_str(&format!("shape checks: {shape}\n"));
    out
}

/// Figure 18: invocation time per `sendMessage` call.
pub fn fig18() -> String {
    figure(
        "Figure 18 - Invocation time (ms per sendMessage call, 50 events)",
        &[
            ("~150-450 (1 sub)", Flavor::JxtaWire, 1),
            ("~200-500 (1 sub)", Flavor::SrJxta, 1),
            ("~200-500 (1 sub)", Flavor::SrTps, 1),
            ("~400-1100 (4 subs)", Flavor::JxtaWire, 4),
            ("~450-1200 (4 subs)", Flavor::SrJxta, 4),
            ("~450-1200 (4 subs)", Flavor::SrTps, 4),
        ],
        "sub",
        "ms/msg",
        |flavor, subs| invocation_time(flavor, subs, 50, DEFAULT_SEED),
        "JXTA-WIRE < SR-JXTA ~= SR-TPS; 4 subscribers slower than 1; large std-dev",
    )
}

/// Figure 19: publisher throughput.
pub fn fig19() -> String {
    figure(
        "Figure 19 - Publisher throughput (events sent/sec, 100 events, 10 epochs)",
        &[
            ("~9-11 ev/s (1 sub)", Flavor::JxtaWire, 1),
            ("~7-9 ev/s (1 sub)", Flavor::SrJxta, 1),
            ("~7-9 ev/s (1 sub)", Flavor::SrTps, 1),
            ("~2-4 ev/s (4 subs)", Flavor::JxtaWire, 4),
            ("~2-4 ev/s (4 subs)", Flavor::SrJxta, 4),
            ("~2-4 ev/s (4 subs)", Flavor::SrTps, 4),
        ],
        "sub",
        "ev/s",
        |flavor, subs| publisher_throughput(flavor, subs, 100, 10, DEFAULT_SEED),
        "wire fastest at 1 sub; differences shrink as subscribers increase",
    )
}

/// Figure 20: subscriber throughput under flooding.
pub fn fig20() -> String {
    figure(
        "Figure 20 - Subscriber throughput (events received/sec over 50s of flooding)",
        &[
            ("~7.8 ev/s (1 pub)", Flavor::JxtaWire, 1),
            ("~6.1 ev/s (1 pub)", Flavor::SrJxta, 1),
            ("~6.0 ev/s (1 pub)", Flavor::SrTps, 1),
            ("~2-3 ev/s (4 pubs)", Flavor::JxtaWire, 4),
            ("~2 ev/s (4 pubs)", Flavor::SrJxta, 4),
            ("~2 ev/s (4 pubs)", Flavor::SrTps, 4),
        ],
        "pub",
        "ev/s",
        |flavor, pubs| subscriber_throughput(flavor, pubs, 50, DEFAULT_SEED),
        "wire >= SR layers at 1 publisher; per-layer rates drop with 4 publishers",
    )
}

/// The dissemination ablation: mean SR-TPS publisher invocation time over
/// 10 events, one row per strategy, one column per subscriber count.
pub fn dissem() -> String {
    const SUBSCRIBERS: [usize; 4] = [1, 4, 16, 32];
    let sweeps: Vec<_> = SUBSCRIBERS
        .iter()
        .map(|&subs| dissemination_comparison(Flavor::SrTps, subs, 10, DEFAULT_SEED))
        .collect();
    let mut out = figure_header("Ablation - Dissemination strategies (publisher invocation time, ms/event)");
    out.push_str(&format!("\n{:<18}", "strategy \\ subs"));
    for subs in SUBSCRIBERS {
        out.push_str(&format!("{subs:>10}"));
    }
    out.push('\n');
    for (row, (kind, _)) in sweeps[0].iter().enumerate() {
        out.push_str(&format!("{:<18}", kind.label()));
        for sweep in &sweeps {
            out.push_str(&format!("{:>10.1}", sweep[row].1));
        }
        out.push('\n');
    }
    out.push_str(
        "shape checks: direct fan-out grows linearly (Figure 18); rendezvous mesh stays flat (O(1) copies)\n",
    );
    out
}

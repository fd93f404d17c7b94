//! The paper's Figures 18–20 as paper-reference vs measured tables, the
//! §4.4 line count, and the ablations that isolate one mechanism each.
//!
//! [`SECTIONS`] lists them in print order. The `reproduce` binary prints
//! them and the golden tests pin every one but `loc` (`figures_golden.rs`
//! Figures 18–20, `dissem_golden.rs` the dissemination ablation,
//! `sections_golden.rs` every other section): every number is virtual time at [`DEFAULT_SEED`], so the text is exact per
//! commit and a change that moves a row shows up as a diff of a file under
//! `tests/golden/`.

use crate::{figure_header, SeriesReport, DEFAULT_SEED};
use jxta::RebalanceConfig;
use simnet::{ChurnDriver, SimDuration};
use ski_rental::harness::trace_latency_comparison;
use ski_rental::{
    batch_comparison, dissemination_comparison, invocation_time, loc_report, mesh_fanout_report,
    publisher_throughput, subscriber_throughput, DisseminationConfig, Flavor, Scenario,
};

/// One printable section: the name that selects it on the `reproduce`
/// command line and the function that renders it.
pub type Section = (&'static str, fn() -> String);

/// Every section `reproduce` prints, in print order.
pub const SECTIONS: &[Section] = &[
    ("fig18", fig18),
    ("fig19", fig19),
    ("fig20", fig20),
    ("loc", loc),
    ("dissem", dissem),
    ("mesh", mesh),
    ("latency", latency),
    ("batch", batch),
    ("rebalance", rebalance),
];

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
            &measure(flavor, count),
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

/// Section 4.4: the programming-effort comparison. It counts source lines,
/// so it moves with every change and no golden pins it.
pub fn loc() -> String {
    let report = loc_report();
    let mut out = figure_header("Section 4.4 - Programming effort (non-blank, non-comment lines)");
    out.push('\n');
    out.push_str(&format!(
        "code a TPS user writes (type + SR-TPS app):        {:>6}\n",
        report.tps_user_loc
    ));
    out.push_str(&format!(
        "code a direct-JXTA user writes (SR-JXTA app):      {:>6}\n",
        report.jxta_user_loc
    ));
    out.push_str(&format!(
        "TPS library functionality the JXTA user forgoes:   {:>6}\n",
        report.tps_library_loc
    ));
    out.push_str(&format!(
        "savings, minimal functionality (paper: >= 900):    {:>6}\n",
        report.minimal_savings()
    ));
    out.push_str(&format!(
        "savings, full API functionality (paper: ~5000):    {:>6}\n",
        report.full_api_savings()
    ));
    out
}

/// Events published per run of the mesh and latency ablations.
const ABLATION_EVENTS: usize = 5;

/// The sharded rendezvous mesh's cost structure at 1, 2, 4 and 8 shards:
/// the publisher sends one copy whatever the population, while the
/// per-rendezvous fan-out shrinks with the shard count.
pub fn mesh() -> String {
    let mut out = figure_header(&format!(
        "Ablation - Rendezvous-mesh cost structure (SR-TPS, {ABLATION_EVENTS} events)"
    ));
    out.push_str(&format!(
        "\n{:>7} {:>12} {:>15} {:>17} {:>11} {:>10}\n",
        "shards", "subscribers", "pub copies", "max rdv fan-out", "max leases", "delivered"
    ));
    for shards in [1, 2, 4, 8] {
        for subscribers in [16, 32] {
            let report = mesh_fanout_report(subscribers, shards, ABLATION_EVENTS, DEFAULT_SEED);
            out.push_str(&format!(
                "{:>7} {:>12} {:>15} {:>17} {:>11} {:>9.0}%\n",
                report.shards,
                report.subscribers,
                report.publisher_copies,
                report.max_rendezvous_fanout,
                report.max_rendezvous_clients,
                report.delivered_ratio * 100.0
            ));
        }
    }
    out.push_str(
        "shape checks: one publisher copy at any size; leases per rendezvous shrink as shards grow, \
         fan-out adds the shards-1 mesh links\n",
    );
    out
}

/// End-to-end virtual delivery latency per strategy, publish span to
/// delivery span, one sample per subscriber per event.
pub fn latency() -> String {
    const SUBSCRIBERS: usize = 16;
    let mut out = figure_header(&format!(
        "Ablation - End-to-end delivery latency (ms, SR-TPS, {SUBSCRIBERS} subscribers, {ABLATION_EVENTS} events)"
    ));
    out.push_str(&format!(
        "\n{:<18} {:>9} {:>9} {:>9} {:>9}\n",
        "strategy", "samples", "p50", "p99", "max"
    ));
    for (kind, summary) in trace_latency_comparison(Flavor::SrTps, SUBSCRIBERS, ABLATION_EVENTS, DEFAULT_SEED)
    {
        out.push_str(&format!(
            "{:<18} {:>9} {:>9.1} {:>9.1} {:>9.1}\n",
            kind.label(),
            summary.count,
            summary.p50,
            summary.p99,
            summary.max
        ));
    }
    out.push_str(
        "shape checks: direct fan-out queues every copy at the publisher; mesh and gossip deliver sooner\n",
    );
    out
}

/// Batched publication: the publisher's invocation time for N events sent
/// one by one versus as one `publish_batch`, which pays the per-message
/// charges once.
pub fn batch() -> String {
    const SUBSCRIBERS: usize = 4;
    let mut out = figure_header(&format!(
        "Ablation - Batched publication (publisher invocation time, SR-TPS, direct fan-out, {SUBSCRIBERS} subscribers)"
    ));
    out.push_str(&format!(
        "\n{:>8} {:>14} {:>14} {:>14} {:>9}\n",
        "events", "singles (ms)", "batch (ms)", "ms/event", "speedup"
    ));
    for events in [4, 16, 64, 256] {
        let (singles, batch) = batch_comparison(
            Flavor::SrTps,
            DisseminationConfig::direct_fanout(),
            SUBSCRIBERS,
            events,
            DEFAULT_SEED,
        );
        out.push_str(&format!(
            "{:>8} {:>14.1} {:>14.1} {:>14.2} {:>8.1}x\n",
            events,
            singles,
            batch,
            batch / events as f64,
            singles / batch
        ));
    }
    out.push_str("shape checks: singles grow linearly in N; the batch grows far slower, so ms/event falls\n");
    out
}

const REBALANCE_SHARDS: usize = 4;
const REBALANCE_SUBSCRIBERS: usize = 8;
/// Seconds between the events of the rebalance trajectory.
const REBALANCE_EPOCH_SECS: u64 = 15;
/// Events published after the kill: enough to cover the lease lifetime plus
/// the failover margin.
const REBALANCE_EPOCHS: usize = 14;

/// One rebalance run: a non-publisher rendezvous holding subscribers is
/// killed and never revived, then one event is published every
/// [`REBALANCE_EPOCH_SECS`]. Returns, per event, how long after the kill it
/// was published and the share of subscribers that received it.
fn delivery_trajectory(rebalance: RebalanceConfig) -> Vec<(SimDuration, f64)> {
    let mut scenario = Scenario::build_sharded(
        Flavor::SrTps,
        DisseminationConfig::rendezvous_mesh(REBALANCE_SHARDS).with_rebalance(rebalance),
        REBALANCE_SHARDS,
        1,
        REBALANCE_SUBSCRIBERS,
        DEFAULT_SEED,
        jxta::CostModel::free(),
    );
    scenario.warm_up();
    let publisher_shard = scenario
        .shard_of(scenario.publisher_id(0))
        .expect("publisher leased");
    let victim = scenario
        .rendezvous_ids()
        .iter()
        .copied()
        .find(|&id| {
            id != publisher_shard
                && (0..REBALANCE_SUBSCRIBERS)
                    .any(|i| scenario.shard_of(scenario.subscriber_id(i)) == Some(id))
        })
        .expect("some non-publisher shard has subscribers");

    let mut churn = ChurnDriver::new();
    let kill_at = scenario.now() + SimDuration::from_secs(1);
    churn.kill_at(kill_at, victim);
    churn.run_until(scenario.network_mut(), kill_at + SimDuration::from_secs(1));

    (0..REBALANCE_EPOCHS)
        .map(|_| {
            let before: Vec<usize> = (0..REBALANCE_SUBSCRIBERS)
                .map(|i| scenario.received_count(i))
                .collect();
            let published = scenario.now() - kill_at;
            scenario.publish_one(0);
            scenario.advance(SimDuration::from_secs(REBALANCE_EPOCH_SECS));
            let delivered = (0..REBALANCE_SUBSCRIBERS)
                .filter(|&i| scenario.received_count(i) > before[i])
                .count();
            (published, delivered as f64 / REBALANCE_SUBSCRIBERS as f64)
        })
        .collect()
}

/// The load-aware rebalancing controller across a permanent shard death:
/// with it, the dead shard's subscribers fail over to an adopting
/// rendezvous as their leases expire; without it they stay dark.
pub fn rebalance() -> String {
    let with_controller = delivery_trajectory(RebalanceConfig::default());
    let without_controller = delivery_trajectory(RebalanceConfig::disabled());
    let mut out = figure_header(&format!(
        "Ablation - Rebalancing controller (delivery ratio after a permanent shard death, \
         {REBALANCE_SHARDS} shards, {REBALANCE_SUBSCRIBERS} subscribers)"
    ));
    out.push_str(&format!(
        "\n{:>12} {:>17} {:>17}\n",
        "published at", "with controller", "without"
    ));
    for (&(published, on), &(_, off)) in with_controller.iter().zip(&without_controller) {
        out.push_str(&format!(
            "{:>11.0}s {:>16.0}% {:>16.0}%\n",
            published.as_secs_f64(),
            on * 100.0,
            off * 100.0
        ));
    }
    out.push_str("shape checks: both dip when the shard dies; only the controller recovers to 100%\n");
    out
}

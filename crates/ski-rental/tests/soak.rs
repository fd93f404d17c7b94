//! The deployment that has been up all afternoon: 80 virtual minutes in
//! sixteen five-minute windows, one publish per window.
//!
//! Elapsed time is a fault like any other. The run crosses every horizon in
//! the stack — the 120 s rendezvous lease (minute 2), the 15-minute lifetime
//! of a learned advertisement, and minute 60, where a peer's own copy of what
//! it authored used to lapse — and asserts that nothing changes on the far
//! side: every window after the second costs what the second did, and every
//! subscriber receives every event. (The first window carries the cold start
//! and is not compared.)
//!
//! Idle cost is pinned too: a node at rest fires its finder every 10 s and
//! its housekeeping, and nothing else, so a five-minute window stays under
//! 40 timers per node. A mailbox poll at 20 Hz would fire 6 000.

use jxta::DisseminationConfig;
use simnet::SimTime;
use ski_rental::{Flavor, Scenario, ScenarioSpec};

const WINDOWS: u64 = 16;
const WINDOW_SECS: u64 = 300;
const SUBSCRIBERS: usize = 8;
/// Timers one node may fire in a five-minute window after the first.
const TIMERS_PER_NODE_PER_WINDOW: u64 = 40;

/// Runs the soak on `spec`; a failure prints `(datagrams, bytes, timers)`
/// per window.
fn soak(label: &str, spec: ScenarioSpec) {
    let mut scenario = Scenario::from_spec(spec);
    scenario.warm_up();
    let nodes =
        (scenario.num_publishers() + scenario.num_subscribers() + scenario.rendezvous_ids().len()) as u64;
    let mut windows = Vec::new();
    let mut before = simnet::TrafficStats::default();
    for window in 1..=WINDOWS {
        scenario.publish_one(0);
        let end = SimTime::from_secs(window * WINDOW_SECS);
        scenario.advance(end - scenario.now());
        let after = scenario.network().total_stats();
        windows.push((
            after.datagrams_sent - before.datagrams_sent,
            after.bytes_sent - before.bytes_sent,
            after.timers_fired - before.timers_fired,
        ));
        before = after;
    }
    let (steady_datagrams, steady_bytes, _) = windows[1];
    for (index, &(datagrams, bytes, timers)) in windows.iter().enumerate().skip(1) {
        let minutes = format!(
            "minutes {}..{}",
            index as u64 * WINDOW_SECS / 60,
            (index as u64 + 1) * WINDOW_SECS / 60
        );
        assert!(
            timers <= TIMERS_PER_NODE_PER_WINDOW * nodes,
            "{label}: window {index} ({minutes}) fired {timers} timers on {nodes} nodes, \
             more than {TIMERS_PER_NODE_PER_WINDOW} per node\n\
             (datagrams, bytes, timers) per five-minute window: {windows:?}"
        );
        assert!(
            datagrams as f64 <= 1.1 * steady_datagrams as f64 && bytes as f64 <= 1.1 * steady_bytes as f64,
            "{label}: window {index} ({minutes}) sent {datagrams} datagrams / {bytes} bytes, \
             more than 1.1 x window 1's {steady_datagrams} / {steady_bytes}\n\
             (datagrams, bytes, timers) per five-minute window: {windows:?}"
        );
    }
    let received: Vec<usize> = (0..SUBSCRIBERS).map(|i| scenario.received_count(i)).collect();
    assert!(
        received.iter().all(|&count| count as u64 == WINDOWS),
        "{label}: every subscriber must receive all {WINDOWS} events, got {received:?}\n\
         (datagrams, bytes, timers) per five-minute window: {windows:?}"
    );
}

#[test]
fn sr_tps_costs_the_same_every_five_minutes() {
    soak(
        "SR-TPS, 1 rendezvous",
        ScenarioSpec::paper_testbed(Flavor::SrTps, 1, SUBSCRIBERS, 2002),
    );
}

#[test]
fn sr_jxta_costs_the_same_every_five_minutes() {
    soak(
        "SR-JXTA, 1 rendezvous",
        ScenarioSpec::paper_testbed(Flavor::SrJxta, 1, SUBSCRIBERS, 2002),
    );
}

#[test]
fn a_two_shard_mesh_costs_the_same_every_five_minutes() {
    soak(
        "SR-TPS, 2-shard mesh",
        ScenarioSpec {
            dissemination: DisseminationConfig::rendezvous_mesh(2),
            rendezvous: 2,
            ..ScenarioSpec::paper_testbed(Flavor::SrTps, 1, SUBSCRIBERS, 2002)
        },
    );
}

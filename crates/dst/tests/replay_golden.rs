//! Cross-commit replay fingerprint.
//!
//! `ski-rental/tests/determinism.rs` compares two runs of the *same* binary,
//! so a refactor that changes behaviour deterministically passes it. This
//! test pins behaviour *across* commits: three fixed-size scenarios are
//! reduced to FNV-1a-64 digests and compared against
//! `golden/replay.txt`, which was recorded once and must only be re-recorded
//! by a change that means to alter what the simulated deployment does (a
//! wire byte, a CPU charge, a timer, an RNG draw) — and says so.
//!
//! The scenario sizes do not depend on `cfg!(debug_assertions)`: debug and
//! release builds must produce the same digests.
//!
//! On mismatch the test prints the lines it computed; to re-record, paste
//! them over `crates/dst/tests/golden/replay.txt`.

// The planted canary bugs change behaviour on purpose.
#![cfg(not(any(feature = "canary", feature = "latency-canary")))]

use dst::{generate, run_schedule, SeedFailure, SweepReport};
use jxta::peer::CostModel;
use simnet::SimDuration;
use ski_rental::{DisseminationConfig, Flavor, Scenario};
use std::fmt::Write as _;
use telemetry::series::RecorderConfig;

const GOLDEN: &str = include_str!("golden/replay.txt");

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn line(out: &mut String, key: &str, text: &str) {
    let _ = writeln!(out, "{key} {:016x} {}", fnv1a(text.as_bytes()), text.len());
}

/// 4 rendezvous / 2 publishers / 64 full SR-TPS subscribers on the mesh,
/// every observability plane on, one rendezvous killed for good: lease
/// lapse, ring failover, adoption, rebalance gossip and drop forensics all
/// leave their mark on the four exports. The fifth line digests the
/// `why_missing` verdict of every subscriber for every traced event.
fn churn(out: &mut String) {
    let mut scenario = Scenario::build_sharded(
        Flavor::SrTps,
        DisseminationConfig::rendezvous_mesh(4),
        4,
        2,
        64,
        4242,
        CostModel::free(),
    );
    scenario.enable_tracing(1 << 17);
    scenario.enable_recorder(RecorderConfig::with_cadence_us(500_000));
    scenario.add_standard_slo_rules();
    scenario.warm_up();
    for publisher in 0..2 {
        scenario.publish_one(publisher);
    }
    scenario.advance(SimDuration::from_secs(5));
    let victim = scenario.rendezvous_ids()[2];
    scenario.network_mut().shutdown_node(victim);
    for _ in 0..8 {
        for publisher in 0..2 {
            scenario.publish_one(publisher);
        }
        scenario.advance(SimDuration::from_secs(30));
    }
    let mut spans = String::new();
    for span in scenario.tracer().expect("tracing enabled").borrow().spans() {
        let _ = writeln!(spans, "{span:?}");
    }
    line(out, "churn.spans", &spans);
    line(
        out,
        "churn.metrics",
        &scenario.metrics_registry().snapshot().render_text(),
    );
    line(out, "churn.series", &scenario.export_series_jsonl());
    line(out, "churn.alerts", &scenario.export_alert_log());
    let mut verdicts = String::new();
    let ids = scenario.traced_ids();
    for sub in 0..scenario.num_subscribers() {
        for &id in &ids {
            let _ = writeln!(verdicts, "{sub} {id} {}", scenario.why_missing(sub, id));
        }
    }
    line(out, "churn.verdicts", &verdicts);
}

/// The explorer over seeds `0..25`: the rendered sweep report (what
/// `dst::sweep` renders, without running every seed twice), plus each seed's
/// run report — a clean sweep renders to one line, which alone would pin
/// very little.
fn explorer(out: &mut String) {
    let mut runs = String::new();
    let mut failures = Vec::new();
    for seed in 0..25 {
        let schedule = generate(seed);
        let report = run_schedule(&schedule);
        let _ = writeln!(runs, "{seed} {report:?}");
        if !report.passed() {
            failures.push(SeedFailure {
                seed,
                schedule,
                report,
                minimized: None,
            });
        }
    }
    let sweep = SweepReport {
        seeds: 0..25,
        failures,
    };
    line(out, "dst.sweep", &sweep.render());
    line(out, "dst.runs", &runs);
}

/// 2 shards × 1 000 flyweights with one rendezvous killed for good: the
/// flyweight half of the lease protocol (renewal, lapse, ring failover).
fn flyweights(out: &mut String) {
    let mut scenario = Scenario::build_flyweight_mesh(2, 1, 1_000, 2002);
    scenario.advance(SimDuration::from_secs(8));
    scenario.publish_one(0);
    scenario.advance(SimDuration::from_secs(3));
    let victim = scenario.rendezvous_ids()[1];
    scenario.network_mut().shutdown_node(victim);
    for _ in 0..6 {
        scenario.publish_one(0);
        scenario.advance(SimDuration::from_secs(40));
    }
    let mut mailboxes = String::new();
    let mut connects = String::new();
    for index in 0..1_000 {
        let fly = scenario.flyweight(index).expect("flyweight subscriber");
        let _ = writeln!(mailboxes, "{index} {:?}", fly.mailbox());
        let _ = writeln!(connects, "{index} {}", fly.connects_sent());
    }
    line(out, "flyweight.mailboxes", &mailboxes);
    line(out, "flyweight.connects_sent", &connects);
}

#[test]
fn replay_matches_the_committed_fingerprint() {
    let mut actual = String::new();
    churn(&mut actual);
    explorer(&mut actual);
    flyweights(&mut actual);
    assert!(
        actual == GOLDEN,
        "behaviour drifted from crates/dst/tests/golden/replay.txt.\n\
         --- committed ---\n{GOLDEN}--- this build (paste to re-record) ---\n{actual}"
    );
}

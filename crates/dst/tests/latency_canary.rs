//! The latency-canary self-test: with jxta's planted 1.5 s rendezvous
//! fan-down stall compiled in (`--features latency-canary`), every probe
//! copy still arrives — so the delivery invariants alone stay green — but
//! the watchdog's p99 latency ceiling must catch the regression as a
//! [`Violation::SloLatencyP99`]. This is the existence proof for the SLO
//! plane: a class of regression the delivery contract cannot see.

#![cfg(feature = "latency-canary")]

use dst::{generate, run_schedule, StrategyKind, Violation};

#[test]
fn the_watchdog_catches_the_planted_latency_stall_the_delivery_invariant_misses() {
    // Scan generated schedules for a deterministic strategy (the latency
    // rule is not installed under gossip) with a rendezvous-routed path:
    // direct fan-out never crosses a rendezvous, so the stall (and the
    // rule's purpose) only shows on mesh runs.
    let mut checked = 0;
    for seed in 0..50 {
        let schedule = generate(seed);
        if schedule.topology.kind != StrategyKind::RendezvousMesh {
            continue;
        }
        checked += 1;
        let report = run_schedule(&schedule);
        let latency_breach = report
            .violations
            .iter()
            .find(|v| matches!(v, Violation::SloLatencyP99 { .. }));
        let Some(Violation::SloLatencyP99 { p99_ms, ceiling_ms }) = latency_breach else {
            panic!(
                "seed {seed} ({:?}): the 1500 ms stall must breach the p99 ceiling; got {:?}",
                schedule.topology.kind, report.violations
            );
        };
        assert!(
            *p99_ms >= 1500,
            "seed {seed}: observed p99 {p99_ms}ms must carry the planted 1500 ms stall"
        );
        assert!(*p99_ms > *ceiling_ms);
        // The regression the delivery plane cannot see: no live subscriber
        // missed a probe copy even though every copy was late.
        assert!(
            !report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::MissedProbe { .. } | Violation::CountMismatch { .. })),
            "seed {seed}: the stall delays copies, it must not drop them: {:?}",
            report.violations
        );
        if checked >= 3 {
            return;
        }
    }
    panic!("50 seeds produced fewer than 3 mesh schedules — generator drifted");
}

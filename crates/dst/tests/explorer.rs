//! Explorer end-to-end tests: script round-trips, clean sweeps with
//! bit-identical reports, invariants firing on out-of-contract schedules,
//! and a pasted minimized schedule replayed as a regression test.

// The planted latency stall adds an SLO violation to every run: nothing here
// holds under it, and with this suite red `cargo test --features
// latency-canary` never reached `latency_canary.rs`, the suite it exists for.
#![cfg(not(feature = "latency-canary"))]

use dst::{generate, minimize, run_schedule, FaultSchedule, Violation};

#[test]
fn generated_schedules_roundtrip_through_display_and_fromstr() {
    for seed in 0..64 {
        let schedule = generate(seed);
        let text = schedule.to_string();
        let reparsed: FaultSchedule = text
            .parse()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        assert_eq!(reparsed, schedule, "seed {seed} round-trips");
        assert_eq!(reparsed.to_string(), text, "seed {seed} is a fixpoint");
    }
}

#[cfg(not(feature = "canary"))]
#[test]
fn clean_sweep_holds_and_reports_bit_identically() {
    use dst::{sweep, GenConfig};
    // Enough seeds to cover every strategy in debug, the acceptance bar of
    // 100 in release (mirroring the determinism suite's size split).
    let seeds = if cfg!(debug_assertions) { 8 } else { 100 };
    let first = sweep(0..seeds, &GenConfig::default(), true);
    assert!(
        first.clean(),
        "every in-contract schedule must pass:\n{}",
        first.render()
    );
    let second = sweep(0..seeds, &GenConfig::default(), true);
    assert_eq!(
        first.render(),
        second.render(),
        "same seeds, same bounds -> bit-identical report"
    );
}

/// Killing the lone rendezvous of a one-shard mesh for good is *outside* the
/// generator's recoverability contract — exactly the kind of schedule the
/// invariant checker must catch when handed one by a human (or a future,
/// bolder generator).
const DEAD_LONE_RENDEZVOUS: &str = "\
dst-schedule v1
seed 7
flavor sr-tps
strategy rendezvous-mesh
shards 1
publishers 1
subscribers 3
settle 120s
at 40s kill rdv-0
end
";

#[test]
fn out_of_contract_schedules_violate_invariants_and_minimize() {
    let schedule: FaultSchedule = DEAD_LONE_RENDEZVOUS.parse().expect("schedule parses");
    let report = run_schedule(&schedule);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::MissedProbe { .. })),
        "a dead lone rendezvous must lose probe events: {:?}",
        report.violations
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::StrandedEdge { .. })),
        "edges leased to a dead rendezvous are stranded: {:?}",
        report.violations
    );
    assert!(
        report.violations.contains(&Violation::AdoptionHole { shard: 0 }),
        "no surviving rendezvous can adopt the only shard: {:?}",
        report.violations
    );
    assert_eq!(report, run_schedule(&schedule), "runs are bit-reproducible");

    let minimized = minimize(&schedule);
    assert!(
        minimized.schedule.size() < schedule.size(),
        "minimization must shrink {} below {}",
        minimized.schedule.size(),
        schedule.size()
    );
    assert!(!minimized.report.passed(), "the minimized schedule still fails");
    assert_eq!(
        minimized.schedule.faults.len(),
        1,
        "the kill is the only load-bearing fault"
    );
}

/// The canary self-test's minimized output (see `tests/canary.rs`), pasted
/// verbatim: with the planted adoption-ring bug compiled *out*, the same
/// schedule must pass — the mesh adopts the dead rendezvous's shard.
#[cfg(not(feature = "canary"))]
#[test]
fn canary_minimized_schedule_is_clean_without_the_planted_bug() {
    let schedule: FaultSchedule = "\
dst-schedule v1
seed 14
flavor jxta-wire
strategy rendezvous-mesh
shards 3
publishers 1
subscribers 1
settle 180s
at 79s kill rdv-2
end
"
    .parse()
    .expect("minimized schedule parses");
    let report = run_schedule(&schedule);
    assert!(
        report.passed(),
        "adoption must cover the dead shard: {:?}",
        report.violations
    );
}

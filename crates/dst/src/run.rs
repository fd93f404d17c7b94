//! The schedule runner: builds the scenario a [`FaultSchedule`] describes,
//! replays its fault timeline under the discrete-event clock, then checks
//! the global invariants of the deployment's contract.
//!
//! # Run phases
//!
//! 1. **Warm-up** (30 virtual seconds): rendezvous connection, advertisement
//!    discovery, pipe binding — the harness's standard initialisation.
//! 2. **Wave A**: one traced event per publisher, delivered on the healthy
//!    topology.
//! 3. **Fault window**: the scripted faults are lowered onto
//!    [`simnet::ChurnDriver`] actions and applied at exactly their instants;
//!    **wave B** is published mid-window so events are in flight while
//!    faults land.
//! 4. **Settle**: the schedule's SLA elapses after the last fault.
//! 5. **Wave C (probe)**: two traced events per publisher; 15 further
//!    seconds drain the wires.
//!
//! # Invariants
//!
//! - **Probe delivery** — every surviving subscriber received every probe
//!   event exactly once (deterministic strategies must show a `Delivered`
//!   verdict for each; gossip is relaxed to "no duplicates and every miss
//!   explained", since probabilistic fan-out may legitimately skip a peer).
//! - **No unknown verdicts** — for *every* `(subscriber, traced event)`
//!   pair across all three waves, [`why_missing`] must return a verdict
//!   other than `NeverPublished`: the forensics plane must be able to say
//!   what happened to every copy, including ones lost mid-fault.
//! - **No stranded edges** — after settle, every live edge peer holds a
//!   lease with a live rendezvous.
//! - **Adoption coverage** (mesh only) — the union of owned hash ranges
//!   over live rendezvous covers every shard exactly once: no orphaned
//!   shards, no double owners, one consistent adoption map.
//!
//! [`why_missing`]: ski_rental::Scenario::why_missing

use crate::schedule::{Fault, FaultSchedule, StrategyKind, Target};
use jxta::peer::CostModel;
use simnet::{ChurnDriver, FaultAction, LinkSpec, NodeId, SimDuration, SimTime, SubnetId};
use ski_rental::{DisseminationConfig, Scenario, ScenarioSpec};
use std::collections::BTreeSet;
use std::fmt;
use telemetry::series::RecorderConfig;
use telemetry::slo::{AlertKind, SloRule};
use telemetry::trace::{DeliveryVerdict, TraceId};

/// Events per publisher in the post-settle probe wave.
const PROBE_EVENTS_PER_PUBLISHER: usize = 2;
/// Wire-drain time granted after the probe wave before invariants are read.
const PROBE_DRAIN: SimDuration = SimDuration::from_secs(15);
/// Capacity of the span ring and of the kernel's drop log; generously above
/// the span volume of any generated schedule, so no forensic record is ever
/// evicted.
const TRACE_CAPACITY: usize = 1 << 17;
/// Flight-recorder cadence: one sample per virtual second.
const RECORDER_CADENCE_US: u64 = 1_000_000;
/// Probe delivery-ratio floor under deterministic strategies: the probe wave
/// lands after settle on a healed topology, so anything short of full
/// delivery is a regression (the floor sits just under 1.0 only to dodge
/// float rounding in the ratio).
const PROBE_RATIO_FLOOR_DETERMINISTIC: f64 = 0.999;
/// Probe delivery-ratio floor under gossip, whose probabilistic fan-out may
/// legitimately skip peers.
const PROBE_RATIO_FLOOR_GOSSIP: f64 = 0.5;
/// Shard-load imbalance bound (mesh only): max allowed z-score of any live
/// rendezvous's lease count against its owned-range share.
const LOAD_ZMAX_BOUND: f64 = 4.0;
/// End-to-end p99 delivery-latency ceiling (virtual ms) for non-gossip
/// strategies under the free cost model — generous against LAN delays, and
/// far below the planted 1500 ms canary stall.
const LATENCY_P99_CEILING_MS: f64 = 750.0;

/// One invariant violation, with enough context to start forensics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The probe wave produced fewer (or more) traced publishes than
    /// publishers × `PROBE_EVENTS_PER_PUBLISHER`.
    ProbeNotTraced {
        /// Probe events expected in the trace.
        expected: usize,
        /// Probe events actually traced.
        traced: usize,
    },
    /// A live subscriber missed a probe event under a deterministic
    /// strategy.
    MissedProbe {
        /// Subscriber index.
        subscriber: usize,
        /// The probe event.
        id: TraceId,
        /// Short verdict label from the forensics plane.
        verdict: String,
    },
    /// A live subscriber received more probe deliveries than probe events.
    DuplicateDelivery {
        /// Subscriber index.
        subscriber: usize,
        /// Probe events published.
        expected: usize,
        /// Probe deliveries observed.
        got: usize,
    },
    /// Mailbox count and span verdicts disagree: every probe event shows
    /// `Delivered`, yet the subscriber's mailbox grew by a different amount.
    CountMismatch {
        /// Subscriber index.
        subscriber: usize,
        /// Probe events published.
        expected: usize,
        /// Mailbox growth observed.
        got: usize,
    },
    /// The forensics plane returned the unknown verdict (`NeverPublished`)
    /// for an event it demonstrably knows about.
    UnexplainedMiss {
        /// Subscriber index.
        subscriber: usize,
        /// The unexplained event.
        id: TraceId,
    },
    /// A live edge peer holds no lease with any live rendezvous after the
    /// settle window.
    StrandedEdge {
        /// Role-indexed edge label (`pub-0`, `sub-3`).
        edge: String,
    },
    /// Mesh only: no live rendezvous owns this shard's hash range.
    AdoptionHole {
        /// The orphaned shard.
        shard: usize,
    },
    /// Mesh only: several live rendezvous claim this shard's hash range.
    AdoptionOverlap {
        /// The doubly-owned shard.
        shard: usize,
        /// Ring positions of the claimants.
        owners: Vec<usize>,
    },
    /// The watchdog's post-settle delivery-ratio SLO was breached and never
    /// recovered: the probe wave's delivered-copy ratio ended below the
    /// floor. Values in permille so the violation stays `Eq`-comparable.
    SloDeliveryRatio {
        /// Delivered probe copies per expected copy, in permille.
        ratio_permille: u32,
        /// The rule's floor, in permille.
        floor_permille: u32,
    },
    /// The watchdog's shard-load imbalance bound (mesh only) was still
    /// breached when invariants were read: some live rendezvous held a
    /// lease population more than the bound's z-score above its
    /// owned-range share.
    SloLoadImbalance {
        /// The observed maximum z-score, in thousandths.
        zmax_milli: i64,
        /// The rule's bound, in thousandths.
        bound_milli: i64,
    },
    /// The watchdog's end-to-end p99 latency ceiling was still breached
    /// when invariants were read.
    SloLatencyP99 {
        /// Observed p99 delivery latency, in whole virtual ms.
        p99_ms: u64,
        /// The rule's ceiling, in whole virtual ms.
        ceiling_ms: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ProbeNotTraced { expected, traced } => {
                write!(f, "probe wave traced {traced} events, expected {expected}")
            }
            Violation::MissedProbe {
                subscriber,
                id,
                verdict,
            } => write!(f, "sub-{subscriber} missed probe event {id} ({verdict})"),
            Violation::DuplicateDelivery {
                subscriber,
                expected,
                got,
            } => write!(
                f,
                "sub-{subscriber} got {got} probe deliveries, expected {expected}"
            ),
            Violation::CountMismatch {
                subscriber,
                expected,
                got,
            } => write!(
                f,
                "sub-{subscriber} mailbox grew by {got} but all {expected} probe verdicts say delivered"
            ),
            Violation::UnexplainedMiss { subscriber, id } => {
                write!(
                    f,
                    "no verdict for (sub-{subscriber}, event {id}): forensics came up empty"
                )
            }
            Violation::StrandedEdge { edge } => {
                write!(f, "{edge} holds no lease with any live rendezvous after settle")
            }
            Violation::AdoptionHole { shard } => {
                write!(
                    f,
                    "shard {shard} is owned by no live rendezvous (orphaned hash range)"
                )
            }
            Violation::AdoptionOverlap { shard, owners } => {
                write!(f, "shard {shard} is owned by {owners:?} simultaneously")
            }
            Violation::SloDeliveryRatio {
                ratio_permille,
                floor_permille,
            } => write!(
                f,
                "probe delivery ratio {}.{:03} ended below the SLO floor {}.{:03}",
                ratio_permille / 1000,
                ratio_permille % 1000,
                floor_permille / 1000,
                floor_permille % 1000
            ),
            Violation::SloLoadImbalance {
                zmax_milli,
                bound_milli,
            } => write!(
                f,
                "shard-load z-score {}.{:03} ended above the balance bound {}.{:03}",
                zmax_milli / 1000,
                zmax_milli.rem_euclid(1000),
                bound_milli / 1000,
                bound_milli.rem_euclid(1000)
            ),
            Violation::SloLatencyP99 { p99_ms, ceiling_ms } => write!(
                f,
                "p99 delivery latency {p99_ms}ms ended above the SLO ceiling {ceiling_ms}ms"
            ),
        }
    }
}

/// What one schedule run concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Every invariant violation found, in check order.
    pub violations: Vec<Violation>,
    /// Subscribers still alive when invariants were read.
    pub live_subscribers: usize,
    /// Probe events each live subscriber was expected to receive.
    pub probe_events: usize,
    /// Total traced events across all three waves.
    pub traced_events: usize,
}

impl RunReport {
    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn node_of(scenario: &Scenario, target: Target) -> NodeId {
    match target {
        Target::Rdv(i) => scenario.rendezvous_ids()[i],
        Target::Pub(i) => scenario.publisher_id(i),
        Target::Sub(i) => scenario.subscriber_id(i),
    }
}

fn lower(scenario: &Scenario, fault: Fault) -> FaultAction {
    let lan = SubnetId(0);
    match fault {
        Fault::Kill(t) => FaultAction::Kill(node_of(scenario, t)),
        Fault::Revive(t) => FaultAction::Revive(node_of(scenario, t)),
        Fault::Cut(a, b) => FaultAction::CutLink(node_of(scenario, a), node_of(scenario, b)),
        Fault::Restore(a, b) => FaultAction::RestoreLink(node_of(scenario, a), node_of(scenario, b)),
        Fault::Loss(pct) => FaultAction::SetLink(lan, lan, LinkSpec::lan().with_loss(f64::from(pct) / 100.0)),
        Fault::Heal => FaultAction::SetLink(lan, lan, LinkSpec::lan()),
    }
}

fn verdict_label(verdict: &DeliveryVerdict) -> &'static str {
    match verdict {
        DeliveryVerdict::Delivered { .. } => "delivered",
        DeliveryVerdict::DroppedAt { .. } => "dropped-at-hop",
        DeliveryVerdict::LostOnWire { .. } => "lost-on-wire",
        DeliveryVerdict::NeverRouted { .. } => "never-routed",
        DeliveryVerdict::NeverPublished => "never-published",
    }
}

/// Runs one schedule to quiescence and checks every invariant. Pure: same
/// schedule, same report, bit for bit.
///
/// # Panics
///
/// Panics if the schedule fails [`FaultSchedule::validate`] — the generator
/// and the parser both guarantee validity, so a panic here means a
/// hand-constructed schedule skipped validation.
pub fn run_schedule(schedule: &FaultSchedule) -> RunReport {
    schedule.validate().expect("schedule must be valid");
    let topo = &schedule.topology;
    let dissemination = match topo.kind {
        StrategyKind::RendezvousMesh => DisseminationConfig::rendezvous_mesh(topo.shards),
        kind => DisseminationConfig::of_kind(kind),
    };
    let mut scenario = Scenario::from_spec(ScenarioSpec {
        dissemination,
        rendezvous: topo.shards,
        costs: CostModel::free(),
        ..ScenarioSpec::paper_testbed(topo.flavor, topo.publishers, topo.subscribers, schedule.seed)
    });
    scenario.enable_tracing(TRACE_CAPACITY);
    // The flight recorder samples every virtual second; the watchdog runs
    // dst's own SLO rules over the recorded series (the harness's stock
    // rules are tuned for operator consoles, not fault schedules).
    scenario.enable_recorder(RecorderConfig::with_cadence_us(RECORDER_CADENCE_US));
    let deterministic = topo.kind != StrategyKind::Gossip;
    scenario.add_slo_rule(SloRule::floor(
        AlertKind::DeliveryRatioLow,
        "dst.probe_delivery_ratio",
        if deterministic {
            PROBE_RATIO_FLOOR_DETERMINISTIC
        } else {
            PROBE_RATIO_FLOOR_GOSSIP
        },
    ));
    if topo.kind == StrategyKind::RendezvousMesh {
        scenario.add_slo_rule(SloRule::ceiling(
            AlertKind::ShardImbalance,
            "harness.shard_load_zmax",
            LOAD_ZMAX_BOUND,
        ));
    }
    if deterministic {
        scenario.add_slo_rule(SloRule::ceiling(
            AlertKind::LatencyP99High,
            "trace.latency_p99_ms",
            LATENCY_P99_CEILING_MS,
        ));
    }
    scenario.warm_up();

    // Wave A on the healthy topology.
    for publisher in 0..topo.publishers {
        scenario.publish_one(publisher);
    }

    // Fault window, with wave B published mid-window while the script is
    // half applied. Publishes cost zero virtual CPU (free cost model), so
    // no churn action slips past a publish unapplied.
    let mut churn = ChurnDriver::new();
    for &(when, fault) in &schedule.faults {
        churn.at(when, lower(&scenario, fault));
    }
    let now = scenario.now();
    let first = schedule.faults.first().map_or(now, |&(t, _)| t);
    let last = schedule.last_fault_at().unwrap_or(now);
    let mid = SimTime::from_micros(first.as_micros().midpoint(last.as_micros())).max(now);
    churn.run_until(scenario.network_mut(), mid);
    for publisher in 0..topo.publishers {
        scenario.publish_one(publisher);
    }
    let fault_horizon = last.max(scenario.now()) + SimDuration::from_millis(1);
    churn.run_until(scenario.network_mut(), fault_horizon);
    debug_assert_eq!(churn.pending(), 0);

    // Settle, then snapshot the pre-probe state.
    scenario.advance(schedule.settle);
    let pre_ids: BTreeSet<TraceId> = scenario.traced_ids().into_iter().collect();
    let pre_counts: Vec<usize> = (0..topo.subscribers)
        .map(|i| scenario.received_count(i))
        .collect();

    // Wave C: the probe.
    for publisher in 0..topo.publishers {
        for _ in 0..PROBE_EVENTS_PER_PUBLISHER {
            scenario.publish_one(publisher);
        }
    }
    scenario.advance(PROBE_DRAIN);

    let all_ids: BTreeSet<TraceId> = scenario.traced_ids().into_iter().collect();
    let probe_ids: Vec<TraceId> = all_ids.difference(&pre_ids).copied().collect();
    let expected = topo.publishers * PROBE_EVENTS_PER_PUBLISHER;

    let mut violations = Vec::new();
    if probe_ids.len() != expected {
        violations.push(Violation::ProbeNotTraced {
            expected,
            traced: probe_ids.len(),
        });
    }

    // Probe delivery per live subscriber.
    let mut live_subscribers = 0;
    let mut probe_copies_delivered = 0u64;
    for (sub, &pre_count) in pre_counts.iter().enumerate() {
        if !scenario.network().is_alive(scenario.subscriber_id(sub)) {
            continue;
        }
        live_subscribers += 1;
        let mut missed = false;
        for &id in &probe_ids {
            let verdict = scenario.why_missing(sub, id);
            let delivered = matches!(verdict, DeliveryVerdict::Delivered { .. });
            if deterministic && !delivered {
                missed = true;
                violations.push(Violation::MissedProbe {
                    subscriber: sub,
                    id,
                    verdict: verdict_label(&verdict).to_owned(),
                });
            }
        }
        let got = scenario.received_count(sub) - pre_count;
        probe_copies_delivered += got.min(expected) as u64;
        if got > expected {
            violations.push(Violation::DuplicateDelivery {
                subscriber: sub,
                expected,
                got,
            });
        } else if deterministic && !missed && got != expected {
            violations.push(Violation::CountMismatch {
                subscriber: sub,
                expected,
                got,
            });
        }
    }

    // Unknown-verdict audit: the forensics plane must explain every
    // (subscriber, event) pair it has ever heard of — dead subscribers and
    // mid-fault waves included.
    for sub in 0..topo.subscribers {
        for &id in &all_ids {
            if matches!(scenario.why_missing(sub, id), DeliveryVerdict::NeverPublished) {
                violations.push(Violation::UnexplainedMiss { subscriber: sub, id });
            }
        }
    }

    // Stranded-edge audit over every live edge peer.
    let edges = (0..topo.publishers)
        .map(|i| (format!("pub-{i}"), scenario.publisher_id(i)))
        .chain((0..topo.subscribers).map(|i| (format!("sub-{i}"), scenario.subscriber_id(i))));
    for (label, id) in edges {
        if !scenario.network().is_alive(id) {
            continue;
        }
        let leased_live = scenario
            .shard_of(id)
            .is_some_and(|rdv| scenario.network().is_alive(rdv));
        if !leased_live {
            violations.push(Violation::StrandedEdge { edge: label });
        }
    }

    // SLO invariants: feed the probe-scoped delivery ratio into the
    // watchdog (which also re-evaluates the load-balance and latency rules
    // against their latest recorded points), then lower every alert still
    // active into a violation. Edge-triggered alerts that fired mid-fault
    // and cleared during settle are recovery, not regression — only an
    // alert open at the end breaks the contract.
    let expected_copies = expected as u64 * live_subscribers as u64;
    let probe_ratio = if expected_copies == 0 {
        1.0
    } else {
        probe_copies_delivered as f64 / expected_copies as f64
    };
    scenario.record_sample_now();
    scenario.record_custom("dst.probe_delivery_ratio", probe_ratio);
    for alert in scenario.watchdog().expect("recorder enabled").active_alerts() {
        match alert.kind {
            AlertKind::DeliveryRatioLow => violations.push(Violation::SloDeliveryRatio {
                ratio_permille: (alert.value * 1000.0).round() as u32,
                floor_permille: (alert.threshold * 1000.0).round() as u32,
            }),
            AlertKind::ShardImbalance => violations.push(Violation::SloLoadImbalance {
                zmax_milli: (alert.value * 1000.0).round() as i64,
                bound_milli: (alert.threshold * 1000.0).round() as i64,
            }),
            AlertKind::LatencyP99High => violations.push(Violation::SloLatencyP99 {
                p99_ms: alert.value.round() as u64,
                ceiling_ms: alert.threshold.round() as u64,
            }),
            // dst installs no rules of the remaining kinds; an alert here
            // means a rule set drifted — surface it as a latency-style
            // breach rather than dropping it on the floor.
            AlertKind::MailboxDepthHigh | AlertKind::StaleLeases | AlertKind::HotShard => {
                violations.push(Violation::SloLatencyP99 {
                    p99_ms: alert.value.round() as u64,
                    ceiling_ms: alert.threshold.round() as u64,
                });
            }
        }
    }

    // Adoption coverage (mesh only): every shard owned by exactly one live
    // rendezvous.
    if topo.kind == StrategyKind::RendezvousMesh {
        let rows = scenario.shard_load_report();
        for shard in 0..topo.shards {
            let owners: Vec<usize> = rows
                .iter()
                .filter(|row| row.alive && row.owned_shards.contains(&shard))
                .map(|row| row.shard)
                .collect();
            match owners.len() {
                0 => violations.push(Violation::AdoptionHole { shard }),
                1 => {}
                _ => violations.push(Violation::AdoptionOverlap { shard, owners }),
            }
        }
    }

    RunReport {
        violations,
        live_subscribers,
        probe_events: expected,
        traced_events: all_ids.len(),
    }
}

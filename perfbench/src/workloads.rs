//! The four workloads and one rep of each: build, set up, run, read the
//! books, check the outputs.
//!
//! Every workload drives `ski_rental::Scenario` in a closed loop from one
//! thread: publish, advance the virtual clock, read the books, publish
//! again. The reasons each workload exists are in `BENCHMARK.json` and
//! `README.md`; the sizes below are the ones those reasons were measured at.

use crate::alloc;
use crate::spans::Spans;
use jxta::peer::CostModel;
use jxta::telemetry::series::RecorderConfig;
use jxta::telemetry::trace::DeliveryVerdict;
use jxta::DisseminationConfig;
use simnet::{ChurnDriver, SimDuration, SimTime, TrafficStats};
use ski_rental::{Flavor, Scenario};

/// Span-ring capacity of `mesh_churn`'s tracing plane. Bounded on purpose:
/// `why_missing` scans the ring once per verdict and the sweep asks for one
/// verdict per (subscriber, event still in the ring), so forensics cost
/// grows with the square of this. At 1 << 15 the sweep is about a quarter
/// of the run; at 1 << 16 it was more than half of it.
const CHURN_TRACE_CAPACITY: usize = 1 << 15;
/// Flight-recorder cadence of `mesh_churn`: one sample per virtual second.
const CHURN_RECORDER_CADENCE_US: u64 = 1_000_000;
/// Virtual time between `mesh_churn`'s first publish and the kill.
const CHURN_KILL_AFTER: SimDuration = SimDuration::from_secs(1);

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 18/19 regime: full peers, JXTA 1.0 costs, singles.
    PaperDirect,
    /// 50 000 flyweight subscribers behind a four-shard rendezvous mesh.
    MeshFanout,
    /// Four publishers flooding sixteen subscribers with batches, free costs.
    TypedFlood,
    /// A rendezvous dies under the mesh with every observability plane on.
    MeshChurn,
}

/// How large one rep of a workload is.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Rendezvous peers.
    pub shards: usize,
    /// Publishing peers.
    pub publishers: usize,
    /// Subscribing peers.
    pub subscribers: usize,
    /// Publish instants in the run phase.
    pub rounds: usize,
    /// Events each publishing peer packs into one publish call.
    pub batch: usize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperDirect,
        Workload::MeshFanout,
        Workload::TypedFlood,
        Workload::MeshChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDirect => "paper_direct",
            Workload::MeshFanout => "mesh_fanout",
            Workload::TypedFlood => "typed_flood",
            Workload::MeshChurn => "mesh_churn",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's size; `smoke` is the shape small enough for
    /// `cargo test`.
    pub fn shape(self, smoke: bool) -> Shape {
        let (shards, publishers, subscribers, rounds, batch) = match (self, smoke) {
            (Workload::PaperDirect, false) => (1, 1, 32, 200, 1),
            (Workload::PaperDirect, true) => (1, 1, 4, 5, 1),
            (Workload::MeshFanout, false) => (4, 1, 50_000, 20, 1),
            (Workload::MeshFanout, true) => (4, 1, 400, 3, 1),
            (Workload::TypedFlood, false) => (1, 4, 16, 100, 64),
            (Workload::TypedFlood, true) => (1, 4, 4, 5, 8),
            (Workload::MeshChurn, false) => (4, 2, 512, 42, 1),
            (Workload::MeshChurn, true) => (4, 2, 48, 42, 1),
        };
        Shape {
            shards,
            publishers,
            subscribers,
            rounds,
            batch,
        }
    }

    /// Whether the workload runs with the tracing, recorder and SLO planes
    /// on. Only `mesh_churn` does; the other three must report their
    /// `telemetry.*` costs as 0.
    pub fn uses_planes(self) -> bool {
        self == Workload::MeshChurn
    }

    /// Events published at each publish instant.
    fn events_per_round(self, shape: Shape) -> u64 {
        match self {
            // Every publisher publishes one batch per round.
            Workload::TypedFlood => (shape.publishers * shape.batch) as u64,
            _ => shape.batch as u64,
        }
    }
}

/// What the modelled deployment did in one rep, all on the virtual clock
/// or as counts: a pure function of workload, shape and seed. Integers
/// only, so two reps compare exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Virtual {
    /// Deliveries the workload attempts: subscribers × events.
    pub expected: u64,
    /// Deliveries that arrived in their event's window.
    pub delivered: u64,
    /// Expected deliveries that never arrived.
    pub missing: u64,
    /// Arrivals beyond the one expected per subscriber and event.
    pub duplicates: u64,
    /// Deliveries that break the workload's delivery contract (see
    /// [`check_contract`]); what the runner reports as `failed`.
    pub failed: u64,
    /// `why_missing` verdicts that came back `NeverPublished`.
    pub never_published: u64,
    /// `why_missing` verdicts asked for in the forensics sweep.
    pub verdicts: u64,
    /// Delivered copies with a latency sample.
    pub latency_samples: u64,
    /// Publish → arrival, median, virtual µs.
    pub latency_p50_us: u64,
    /// Publish → arrival, 99th percentile, virtual µs.
    pub latency_p99_us: u64,
    /// Virtual CPU charged to one publish call, median, virtual µs.
    pub invocation_p50_us: u64,
    /// Kill → start of the first epoch from which every epoch reaches every
    /// subscriber, virtual µs; 0 without a fault.
    pub recovery_us: u64,
    /// Virtual time the run phase covered, µs.
    pub virtual_run_us: u64,
    /// Kernel books over the run phase.
    pub books: Books,
}

/// The kernel's books over the run phase (end minus start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Books {
    /// Kernel events processed.
    pub events: u64,
    /// Timers fired.
    pub timers: u64,
    /// Datagrams handed to the kernel, data and control.
    pub datagrams_sent: u64,
    /// Datagrams delivered to a handler.
    pub datagrams_delivered: u64,
    /// Datagrams dropped, any reason.
    pub datagrams_dropped: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Datagrams sent by the publishing peers.
    pub publisher_datagrams: u64,
}

impl Books {
    fn read(scenario: &Scenario) -> Books {
        let net = scenario.network();
        let total: TrafficStats = net.total_stats();
        let publisher_datagrams = (0..scenario.num_publishers())
            .map(|i| net.stats_of(scenario.publisher_id(i)).datagrams_sent)
            .sum();
        Books {
            events: net.events_processed(),
            timers: total.timers_fired,
            datagrams_sent: total.datagrams_sent,
            datagrams_delivered: total.datagrams_delivered,
            datagrams_dropped: total.datagrams_dropped,
            bytes_sent: total.bytes_sent,
            publisher_datagrams,
        }
    }

    fn since(self, start: Books) -> Books {
        Books {
            events: self.events - start.events,
            timers: self.timers - start.timers,
            datagrams_sent: self.datagrams_sent - start.datagrams_sent,
            datagrams_delivered: self.datagrams_delivered - start.datagrams_delivered,
            datagrams_dropped: self.datagrams_dropped - start.datagrams_dropped,
            bytes_sent: self.bytes_sent - start.bytes_sent,
            publisher_datagrams: self.publisher_datagrams - start.publisher_datagrams,
        }
    }
}

/// Per-layer counts read from the scenario's own books once the run phase
/// is over (traced run only: the registry walk is O(nodes)).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    /// Kernel queue length when the run ended.
    pub queue_len_end: u64,
    /// Wire copies forwarded on behalf of other peers, all peers.
    pub wire_forwarded: u64,
    /// Wire and rendezvous duplicates absorbed, all peers.
    pub jxta_duplicates: u64,
    /// Mesh hellos sent, all rendezvous.
    pub mesh_hellos: u64,
    /// Client leases on the most loaded rendezvous.
    pub leases_per_shard_max: u64,
    /// Events handed to `publish`, all engines.
    pub tps_published: u64,
    /// Events delivered to subscriptions, all engines.
    pub tps_delivered: u64,
    /// Events the engines' dedup windows absorbed.
    pub tps_duplicates_dropped: u64,
    /// Deepest session mailbox when the run ended.
    pub mailbox_depth_max: u64,
    /// Bytes the flight recorder holds.
    pub series_bytes: u64,
    /// Series the flight recorder holds.
    pub series_count: u64,
    /// Alerts the SLO watchdog opened.
    pub alerts_opened: u64,
    /// One `Scenario::record_sample_now`, host µs.
    pub record_tick_us: f64,
    /// One `Scenario::metrics_registry().snapshot()`, host µs.
    pub registry_snapshot_us: f64,
}

/// One rep of a workload.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds from `build_*` through the warm-up or lease phase.
    pub setup_s: f64,
    /// Host seconds of the run phase: first publish to the end of the drain,
    /// plus the forensics sweep on `mesh_churn`.
    pub run_s: f64,
    /// Host seconds of the forensics sweep inside `run_s`.
    pub forensics_s: f64,
    /// Peak live heap bytes between the start of the rep and the end of the
    /// run phase.
    pub peak_heap_bytes: u64,
    /// Allocator calls during the run phase.
    pub run_allocs: u64,
    /// Bytes requested from the allocator during the run phase.
    pub run_alloc_bytes: u64,
    /// The modelled deployment's results.
    pub virt: Virtual,
    /// Per-layer counts, when asked for.
    pub counts: Option<LayerCounts>,
    /// Output checks that failed, by name.
    pub violations: Vec<String>,
}

/// What to run besides the workload itself; the default is the workload as
/// `BENCHMARK.json` describes it, and nothing else.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepOptions {
    /// Use the `cargo test`-sized shape.
    pub smoke: bool,
    /// Run `mesh_churn` without its observability planes (and so without the
    /// forensics sweep): the "off" half of `telemetry.plane_overhead_share`.
    pub planes_off: bool,
    /// Read the per-layer counts once the run is over.
    pub collect_counts: bool,
}

/// The scenario plus what the driver itself has to remember: when it
/// published what, and what each publish call was charged.
struct Driver<'a> {
    scenario: Scenario,
    spans: &'a mut Spans,
    /// `(publish instant, events published at it)`, in order.
    rounds: Vec<(SimTime, u64)>,
    invocations_us: Vec<u64>,
}

impl Driver<'_> {
    /// One call into the scenario, inside a span called `name`.
    fn spanned<R>(&mut self, name: &'static str, call: impl FnOnce(&mut Scenario) -> R) -> R {
        let span = self.spans.begin(name);
        let result = call(&mut self.scenario);
        self.spans.end(span);
        result
    }

    fn advance(&mut self, duration: SimDuration) {
        self.spanned("advance", |scenario| scenario.advance(duration));
    }

    fn begin_round(&mut self) {
        self.rounds.push((self.scenario.now(), 0));
    }

    fn note_publish(&mut self, events: usize, charged: SimDuration) {
        self.rounds.last_mut().expect("a round is open").1 += events as u64;
        self.invocations_us.push(charged.as_micros());
    }

    fn publish_one(&mut self, publisher: usize) {
        let charged = self.spanned("publish", |scenario| scenario.publish_one(publisher));
        self.note_publish(1, charged);
    }

    fn publish_batch(&mut self, publisher: usize, count: usize) {
        let charged = self.spanned("publish", |scenario| scenario.publish_batch(publisher, count));
        self.note_publish(count, charged);
    }
}

fn build(workload: Workload, shape: Shape, seed: u64) -> Scenario {
    match workload {
        Workload::PaperDirect => Scenario::build(Flavor::SrTps, shape.publishers, shape.subscribers, seed),
        Workload::MeshFanout => {
            Scenario::build_flyweight_mesh(shape.shards, shape.publishers, shape.subscribers, seed)
        }
        Workload::TypedFlood => Scenario::build_with_dissemination(
            Flavor::SrTps,
            DisseminationConfig::direct_fanout(),
            shape.publishers,
            shape.subscribers,
            seed,
            CostModel::free(),
        ),
        Workload::MeshChurn => Scenario::build_sharded(
            Flavor::SrTps,
            DisseminationConfig::rendezvous_mesh(shape.shards),
            shape.shards,
            shape.publishers,
            shape.subscribers,
            seed,
            CostModel::free(),
        ),
    }
}

/// The rendezvous `mesh_churn` kills: the first one, in shard order, that
/// serves subscribers and no publisher.
fn churn_victim(scenario: &Scenario) -> simnet::NodeId {
    let publisher_shards: Vec<_> = (0..scenario.num_publishers())
        .filter_map(|i| scenario.shard_of(scenario.publisher_id(i)))
        .collect();
    scenario
        .rendezvous_ids()
        .iter()
        .copied()
        .find(|rdv| {
            !publisher_shards.contains(rdv)
                && (0..scenario.num_subscribers())
                    .any(|i| scenario.shard_of(scenario.subscriber_id(i)) == Some(*rdv))
        })
        .expect("some rendezvous serves subscribers and no publisher")
}

/// Runs one rep: build, set-up, run phase, verification reads, drop.
pub fn run_rep(workload: Workload, seed: u64, options: RepOptions, spans: &mut Spans) -> Rep {
    let shape = workload.shape(options.smoke);
    let planes = workload.uses_planes() && !options.planes_off;
    alloc::reset_peak();
    let rep_span = spans.begin("rep");

    let setup_started = crate::clock::now();
    let build_span = spans.begin("build");
    let scenario = build(workload, shape, seed);
    spans.end(build_span);
    let mut driver = Driver {
        scenario,
        spans,
        rounds: Vec::with_capacity(shape.rounds),
        invocations_us: Vec::new(),
    };
    if planes {
        driver.scenario.enable_tracing(CHURN_TRACE_CAPACITY);
        driver
            .scenario
            .enable_recorder(RecorderConfig::with_cadence_us(CHURN_RECORDER_CADENCE_US));
        driver.scenario.add_standard_slo_rules();
    }
    match workload {
        // Flyweights need no discovery or pipe binding, only the time to
        // obtain their leases.
        Workload::MeshFanout => {
            driver.spanned("warm_up", |scenario| scenario.advance(SimDuration::from_secs(8)));
        }
        _ => driver.spanned("warm_up", Scenario::warm_up),
    }
    let setup_s = setup_started.elapsed().as_secs_f64();

    let books_start = Books::read(&driver.scenario);
    let virtual_start = driver.scenario.now();
    let alloc_start = alloc::snapshot();
    let run_started = crate::clock::now();
    let mut kill_at = None;
    match workload {
        Workload::PaperDirect => {
            // Closed loop on the publisher's virtual busy time: `publish_one`
            // advances the clock by what the call was charged.
            for _ in 0..shape.rounds {
                driver.begin_round();
                driver.publish_one(0);
            }
            driver.advance(SimDuration::from_secs(10));
        }
        Workload::MeshFanout => {
            for _ in 0..shape.rounds {
                driver.begin_round();
                driver.publish_one(0);
                driver.advance(SimDuration::from_secs(3));
            }
            driver.advance(SimDuration::from_secs(5));
        }
        Workload::TypedFlood => {
            // Open loop in virtual time: a round every 50 virtual ms whatever
            // the subscribers have absorbed.
            for _ in 0..shape.rounds {
                driver.begin_round();
                for publisher in 0..shape.publishers {
                    driver.publish_batch(publisher, shape.batch);
                }
                driver.advance(SimDuration::from_millis(50));
            }
            driver.advance(SimDuration::from_secs(5));
        }
        Workload::MeshChurn => {
            let mut churn = ChurnDriver::new();
            let when = driver.scenario.now() + CHURN_KILL_AFTER;
            churn.kill_at(when, churn_victim(&driver.scenario));
            kill_at = Some(when);
            for epoch in 0..shape.rounds {
                driver.begin_round();
                driver.publish_one(epoch % shape.publishers);
                if epoch == 0 {
                    driver.spanned("advance", |scenario| {
                        churn.run_until(scenario.network_mut(), when);
                    });
                    driver.advance(SimDuration::from_secs(5) - CHURN_KILL_AFTER);
                } else {
                    driver.advance(SimDuration::from_secs(5));
                }
            }
            assert_eq!(churn.pending(), 0, "the kill must have been applied");
        }
    }
    let mut verdicts = 0u64;
    let mut never_published = 0u64;
    let mut forensics_s = 0.0;
    if planes {
        // The forensics sweep dst's invariant check runs: one verdict per
        // (subscriber, event the span ring still knows).
        let started = crate::clock::now();
        driver.spanned("forensics", |scenario| {
            let ids = scenario.traced_ids();
            for subscriber in 0..shape.subscribers {
                for &id in &ids {
                    verdicts += 1;
                    if matches!(
                        scenario.why_missing(subscriber, id),
                        DeliveryVerdict::NeverPublished
                    ) {
                        never_published += 1;
                    }
                }
            }
        });
        forensics_s = started.elapsed().as_secs_f64();
    }
    let run_s = run_started.elapsed().as_secs_f64();
    let alloc_end = alloc::snapshot();
    let books = Books::read(&driver.scenario).since(books_start);
    let virtual_run_us = driver.scenario.now().saturating_since(virtual_start).as_micros();

    // From here on: the benchmark's own verification reads, outside `run_s`.
    let Driver {
        mut scenario,
        spans,
        rounds,
        mut invocations_us,
    } = driver;
    let mut violations = Vec::new();
    let deliveries = tally_deliveries(&scenario, &rounds);
    invocations_us.sort_unstable();
    let mut virt = Virtual {
        expected: deliveries.expected,
        delivered: deliveries.delivered,
        missing: deliveries.missing,
        duplicates: deliveries.duplicates,
        failed: 0,
        never_published,
        verdicts,
        latency_samples: deliveries.latencies_us.len() as u64,
        latency_p50_us: crate::stats::percentile_sorted(&deliveries.latencies_us, 50.0),
        latency_p99_us: crate::stats::percentile_sorted(&deliveries.latencies_us, 99.0),
        invocation_p50_us: crate::stats::percentile_sorted(&invocations_us, 50.0),
        recovery_us: 0,
        virtual_run_us,
        books,
    };
    check_contract(
        workload,
        shape,
        &rounds,
        kill_at,
        &deliveries,
        &mut virt,
        &mut violations,
    );
    if !options.smoke
        && crate::stats::highest_supported_percentile(deliveries.latencies_us.len()) < Some(99.0)
    {
        violations.push(format!(
            "deliver_latency_ms_p99: {} samples leave fewer than ten beyond the 99th percentile",
            deliveries.latencies_us.len()
        ));
    }
    let counts = options
        .collect_counts
        .then(|| read_layer_counts(&mut scenario, planes));

    let drop_span = spans.begin("drop");
    drop(scenario);
    spans.end(drop_span);
    spans.end(rep_span);
    Rep {
        setup_s,
        run_s,
        forensics_s,
        peak_heap_bytes: alloc_end.peak,
        run_allocs: alloc_end.calls - alloc_start.calls,
        run_alloc_bytes: alloc_end.bytes - alloc_start.bytes,
        virt,
        counts,
        violations,
    }
}

/// What the subscribers' mailboxes say, joined against the publish instants.
struct Deliveries {
    expected: u64,
    delivered: u64,
    missing: u64,
    duplicates: u64,
    /// Publish → arrival of every delivered copy, ascending, virtual µs.
    latencies_us: Vec<u64>,
    /// Per round, how many subscribers received all of its events.
    complete_subscribers: Vec<u64>,
    /// Per round, how many expected deliveries never arrived.
    missing_by_round: Vec<u64>,
}

/// Joins every subscriber's arrival times against the publish instants.
///
/// A subscriber that received exactly as many events as were published is
/// matched in order: its i-th arrival is the i-th event (one ordered stream
/// per publish instant; this is what keeps `paper_direct` right, where the
/// last copy of an event lands just after the next publish began). Any other
/// subscriber is matched by window: an arrival belongs to the latest publish
/// instant at or before it, arrivals beyond a round's event count are
/// duplicates and the shortfall is missing.
fn tally_deliveries(scenario: &Scenario, rounds: &[(SimTime, u64)]) -> Deliveries {
    let subscribers = scenario.num_subscribers();
    let events: u64 = rounds.iter().map(|r| r.1).sum();
    let mut tally = Deliveries {
        expected: events * subscribers as u64,
        delivered: 0,
        missing: 0,
        duplicates: 0,
        latencies_us: Vec::with_capacity(events as usize * subscribers),
        complete_subscribers: vec![0; rounds.len()],
        missing_by_round: vec![0; rounds.len()],
    };
    for subscriber in 0..subscribers {
        let mut arrivals = scenario.received_times(subscriber);
        arrivals.sort_unstable();
        if arrivals.len() as u64 == events {
            let mut next = arrivals.iter();
            for (round, &(published, count)) in rounds.iter().enumerate() {
                for arrival in next.by_ref().take(count as usize) {
                    tally
                        .latencies_us
                        .push(arrival.saturating_since(published).as_micros());
                }
                tally.complete_subscribers[round] += 1;
            }
            tally.delivered += events;
            continue;
        }
        let mut at = arrivals.partition_point(|&t| t < rounds[0].0);
        // Arrivals before the first publish belong to no event.
        tally.duplicates += at as u64;
        for (round, &(published, count)) in rounds.iter().enumerate() {
            let window_end = rounds.get(round + 1).map_or(SimTime::MAX, |r| r.0);
            let in_window = arrivals[at..].partition_point(|&t| t < window_end);
            let delivered = (in_window as u64).min(count);
            for arrival in &arrivals[at..at + delivered as usize] {
                tally
                    .latencies_us
                    .push(arrival.saturating_since(published).as_micros());
            }
            tally.delivered += delivered;
            tally.duplicates += in_window as u64 - delivered;
            tally.missing += count - delivered;
            tally.missing_by_round[round] += count - delivered;
            if delivered == count {
                tally.complete_subscribers[round] += 1;
            }
            at += in_window;
        }
    }
    tally.latencies_us.sort_unstable();
    tally
}

/// Applies the workload's delivery contract, filling `failed`,
/// `recovery_us` and the violation list.
///
/// Without a fault the contract is exactly-once at every subscriber. Under
/// `mesh_churn` the dead shard's subscribers legitimately miss events until
/// their leases lapse and they fail over, so the contract is: no duplicates,
/// no `NeverPublished` verdict, and from some epoch on every epoch reaches
/// every subscriber; misses from that epoch on count as failed.
fn check_contract(
    workload: Workload,
    shape: Shape,
    rounds: &[(SimTime, u64)],
    kill_at: Option<SimTime>,
    deliveries: &Deliveries,
    virt: &mut Virtual,
    violations: &mut Vec<String>,
) {
    let round_events = workload.events_per_round(shape);
    if rounds.len() != shape.rounds || rounds.iter().any(|r| r.1 != round_events) {
        violations.push(format!(
            "publish schedule: expected {} rounds of {round_events} events",
            shape.rounds
        ));
    }
    if deliveries.duplicates > 0 {
        violations.push(format!(
            "exactly_once: {} duplicate deliveries",
            deliveries.duplicates
        ));
    }
    virt.failed = deliveries.duplicates + virt.never_published;
    let Some(kill_at) = kill_at else {
        if deliveries.missing > 0 {
            violations.push(format!(
                "exactly_once: {} of {} deliveries missing",
                deliveries.missing, deliveries.expected
            ));
        }
        virt.failed += deliveries.missing;
        return;
    };
    if virt.never_published > 0 {
        violations.push(format!(
            "why_missing: {} NeverPublished verdicts of {}",
            virt.never_published, virt.verdicts
        ));
    }
    let subscribers = shape.subscribers as u64;
    let incomplete_tail = deliveries
        .complete_subscribers
        .iter()
        .rposition(|&complete| complete != subscribers);
    // The first epoch from which every epoch is complete, no earlier than
    // the first epoch that starts after the kill.
    let first_after_kill = rounds.partition_point(|r| r.0 < kill_at);
    let recovered_from = incomplete_tail.map_or(0, |r| r + 1).max(first_after_kill);
    match rounds.get(recovered_from) {
        Some(&(published, _)) => {
            virt.recovery_us = published.saturating_since(kill_at).as_micros();
        }
        None => {
            let last_missing = deliveries.missing_by_round.last().copied().unwrap_or(0);
            violations.push(format!(
                "recovery: the last epoch still misses {last_missing} deliveries"
            ));
            virt.failed += last_missing;
        }
    }
}

fn median_us(mut op: impl FnMut(), samples: usize) -> f64 {
    let timings: Vec<f64> = (0..samples)
        .map(|_| {
            let started = crate::clock::now();
            op();
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&timings)
}

/// Reads the per-layer counts off a finished scenario. With the planes on it
/// also times the two telemetry calls a run makes per sample; with them off
/// those costs are 0 by definition, because the workload never pays them.
fn read_layer_counts(scenario: &mut Scenario, planes: bool) -> LayerCounts {
    let snapshot = scenario.metrics_registry().snapshot();
    let sum = |suffix: &str| -> u64 {
        snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.ends_with(suffix))
            .map(|&(_, value)| value)
            .sum()
    };
    let mut counts = LayerCounts {
        queue_len_end: snapshot.gauge("simnet.queue_len").unwrap_or(0).max(0) as u64,
        wire_forwarded: sum(".wire.forwarded"),
        jxta_duplicates: sum(".wire.duplicates") + sum(".rdv.duplicates"),
        mesh_hellos: sum(".rdv.mesh_hellos"),
        leases_per_shard_max: scenario
            .rendezvous_loads()
            .iter()
            .map(|&(clients, _)| clients as u64)
            .max()
            .unwrap_or(0),
        tps_published: sum(".events_published"),
        tps_delivered: sum(".events_delivered"),
        tps_duplicates_dropped: sum(".duplicates_dropped"),
        mailbox_depth_max: snapshot
            .gauges
            .iter()
            .filter(|(name, _)| name.starts_with("tps.") && name.ends_with(".mailbox_depth"))
            .map(|&(_, depth)| depth.max(0) as u64)
            .max()
            .unwrap_or(0),
        ..LayerCounts::default()
    };
    if planes {
        let recorder = scenario.recorder().expect("planes are on");
        counts.series_bytes = recorder.approx_bytes() as u64;
        counts.series_count = recorder.num_series() as u64;
        counts.alerts_opened = scenario.watchdog().expect("planes are on").alerts().len() as u64;
        counts.registry_snapshot_us = median_us(
            || {
                std::hint::black_box(scenario.metrics_registry().snapshot());
            },
            9,
        );
        counts.record_tick_us = median_us(|| scenario.record_sample_now(), 9);
    }
    counts
}

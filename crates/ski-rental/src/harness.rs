//! The measurement harness: builds the paper's testbed topologies and
//! regenerates the data series behind Figures 18, 19 and 20, plus the
//! programming-effort comparison of Section 4.4.
//!
//! All measurements are expressed in *virtual* time: per-message CPU costs
//! are charged through the simulator's cost model (calibrated to the paper's
//! JXTA 1.0 testbed) and network delays come from the link model. Runs are
//! deterministic for a given seed.

use crate::jxta_app::Role;
use crate::node::{Flavor, SkiNode};
use crate::workload::OfferGenerator;
use jxta::peer::CostModel;
use jxta::telemetry::series::{sparkline, RecorderConfig, SeriesRecorder};
use jxta::telemetry::slo::{AlertKind, SloRule, SloWatchdog};
use jxta::telemetry::trace::{DeliveryVerdict, TraceId, DEFAULT_TRACE_CAPACITY};
use jxta::{DisseminationConfig, PeerId, SharedTraceCollector, StrategyKind, TraceJoin};
use simnet::{Network, NetworkBuilder, NodeConfig, NodeId, SimDuration, SimTime, SubnetId, TransportKind};
use std::collections::BTreeSet;
use std::rc::Rc;

/// A built scenario: one or more rendezvous peers, `publishers` publishing
/// peers and `subscribers` subscribing peers, all on one LAN segment (the
/// paper's FastEthernet testbed of Sun Ultra 10s). Multi-rendezvous
/// deployments join the rendezvous peers in a full mesh of
/// rendezvous-to-rendezvous links (the sharded `RendezvousMesh` topology).
pub struct Scenario {
    net: Network,
    flavor: Flavor,
    dissemination: DisseminationConfig,
    rendezvous: Vec<NodeId>,
    publishers: Vec<NodeId>,
    subscribers: Vec<NodeId>,
    offers: OfferGenerator,
    invocation_times: telemetry::WindowedHistogram,
    /// The tracing plane, if enabled: the shared span collector and its
    /// join against the kernel's own drop log.
    trace: Option<TraceJoin>,
    /// The flight recorder + SLO watchdog, if enabled. `None` costs nothing:
    /// every clock advance funnels through [`Scenario::run_net`], which
    /// degenerates to a plain `run_for` when this is unset.
    recorder: Option<RecorderState>,
    /// Events published through this harness so far (batched events count
    /// individually) — the denominator of the recorded delivery ratio.
    published_events: u64,
}

/// The recorder plumbing of a [`Scenario`]: the series store, the watchdog
/// evaluating rules against it, and the next point on the sampling grid.
struct RecorderState {
    recorder: SeriesRecorder,
    watchdog: SloWatchdog,
    next_sample_at: SimTime,
}

/// The series the operator view renders as sparklines — the health figures
/// an operator scans first, not the full catalogue.
const KEY_SERIES: [&str; 8] = [
    "harness.delivery_ratio",
    "harness.hot_shards",
    "harness.mailbox_depth_max",
    "harness.shard_load_zmax",
    "harness.stale_leases",
    "simnet.datagrams_delivered",
    "simnet.queue_len",
    "trace.latency_p99_ms",
];

/// The stock SLO rule set over the harness's recorded series, one rule per
/// [`AlertKind`]. Thresholds are the defaults documented in
/// `docs/observability.md`; scenarios with different service levels install
/// their own rules instead.
fn standard_slo_rules() -> Vec<SloRule> {
    vec![
        SloRule::floor(AlertKind::DeliveryRatioLow, "harness.delivery_ratio", 0.95),
        SloRule::ceiling(AlertKind::LatencyP99High, "trace.latency_p99_ms", 1000.0),
        SloRule::ceiling(AlertKind::MailboxDepthHigh, "harness.mailbox_depth_max", 1024.0),
        SloRule::ceiling(AlertKind::ShardImbalance, "harness.shard_load_zmax", 4.0),
        SloRule::ceiling(AlertKind::StaleLeases, "harness.stale_leases", 0.0),
        SloRule::ceiling(AlertKind::HotShard, "harness.hot_shards", 0.0),
    ]
}

/// What [`Scenario::from_spec`] builds: every population on one LAN segment,
/// nodes `0..rendezvous` the rendezvous peers joined in a full mesh, every
/// edge peer seeded with all rendezvous addresses — under
/// [`jxta::StrategyKind::RendezvousMesh`] each edge leases with exactly the
/// shard its peer id hashes to, under every other strategy the original
/// connect-to-all behaviour applies.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The implementation flavour of the publishers and (full) subscribers.
    pub flavor: Flavor,
    /// The dissemination strategy every peer runs.
    pub dissemination: DisseminationConfig,
    /// Rendezvous peers (at least one; exactly `mesh_shards` under the mesh
    /// strategy).
    pub rendezvous: usize,
    /// Publishing peers.
    pub publishers: usize,
    /// Subscribing peers.
    pub subscribers: usize,
    /// Subscribers are [`jxta::FlyweightEdge`]s — a lease + mailbox each
    /// instead of a full JXTA stack, which is what makes 100k+ subscriber
    /// populations buildable and runnable in seconds (delivery is still the
    /// real wire protocol end to end). Needs the mesh strategy.
    pub flyweight_subscribers: bool,
    /// The virtual CPU model of every full peer.
    pub costs: CostModel,
    /// Seed of the network's and the offer generator's random streams.
    pub seed: u64,
}

impl ScenarioSpec {
    /// The paper's testbed: one rendezvous, the direct fan-out baseline,
    /// full-stack subscribers, JXTA 1.0 costs. Other shapes override fields.
    pub fn paper_testbed(flavor: Flavor, publishers: usize, subscribers: usize, seed: u64) -> Self {
        ScenarioSpec {
            flavor,
            dissemination: DisseminationConfig::default(),
            rendezvous: 1,
            publishers,
            subscribers,
            flyweight_subscribers: false,
            costs: CostModel::jxta_1_0(),
            seed,
        }
    }
}

impl Scenario {
    /// Builds (but does not yet warm up) the scenario `spec` describes.
    pub fn from_spec(spec: ScenarioSpec) -> Scenario {
        assert!(spec.rendezvous >= 1, "a scenario needs at least one rendezvous");
        if spec.dissemination.kind == StrategyKind::RendezvousMesh {
            assert_eq!(
                spec.dissemination.mesh_shards, spec.rendezvous,
                "a mesh scenario runs one rendezvous per shard"
            );
        }
        let lan = NodeConfig::lan_peer(SubnetId(0));
        let mut builder = NetworkBuilder::new(spec.seed);
        let (rdv_configs, seeds) = jxta::peer::lan_mesh(spec.rendezvous, &spec.dissemination);
        let rendezvous = rdv_configs
            .into_iter()
            .map(|config| {
                let peer = jxta::JxtaPeer::new(config.with_costs(spec.costs.clone()));
                builder.add_node(Box::new(RdvNode { peer }), lan.clone())
            })
            .collect();
        let mut full_edges = |role: Role, prefix: &str, count: usize| -> Vec<NodeId> {
            (0..count)
                .map(|i| {
                    let node = SkiNode::boxed_with_dissemination(
                        spec.flavor,
                        role,
                        &format!("{prefix}-{i}"),
                        seeds.clone(),
                        spec.costs.clone(),
                        spec.dissemination.clone(),
                    );
                    builder.add_node(node, lan.clone())
                })
                .collect()
        };
        let publishers = full_edges(Role::Publisher, "shop", spec.publishers);
        let subscribers = if spec.flyweight_subscribers {
            // TCP only: flyweights never join multicast groups, so the
            // kernel's per-subnet member lists stay small whatever the
            // population.
            let tcp_only = lan.clone().with_transports(vec![TransportKind::Tcp]);
            let shards = spec.dissemination.mesh_shards;
            (0..spec.subscribers)
                .map(|i| {
                    let node = SkiNode::boxed_flyweight(&format!("skier-{i}"), seeds.clone(), shards);
                    builder.add_node(node, tcp_only.clone())
                })
                .collect()
        } else {
            full_edges(Role::Subscriber, "skier", spec.subscribers)
        };
        Scenario {
            net: builder.build(),
            flavor: spec.flavor,
            dissemination: spec.dissemination,
            rendezvous,
            publishers,
            subscribers,
            offers: OfferGenerator::new(spec.seed ^ 0x5EED),
            invocation_times: telemetry::WindowedHistogram::default(),
            trace: None,
            recorder: None,
            published_events: 0,
        }
    }

    /// [`ScenarioSpec::paper_testbed`], built.
    pub fn build(flavor: Flavor, publishers: usize, subscribers: usize, seed: u64) -> Scenario {
        Scenario::from_spec(ScenarioSpec::paper_testbed(flavor, publishers, subscribers, seed))
    }

    /// A single-rendezvous scenario whose peers all run `dissemination`.
    pub fn build_with_dissemination(
        flavor: Flavor,
        dissemination: DisseminationConfig,
        publishers: usize,
        subscribers: usize,
        seed: u64,
        costs: CostModel,
    ) -> Scenario {
        Scenario::build_sharded(flavor, dissemination, 1, publishers, subscribers, seed, costs)
    }

    /// A scenario with `rendezvous` mesh-linked rendezvous peers.
    pub fn build_sharded(
        flavor: Flavor,
        dissemination: DisseminationConfig,
        rendezvous: usize,
        publishers: usize,
        subscribers: usize,
        seed: u64,
        costs: CostModel,
    ) -> Scenario {
        Scenario::from_spec(ScenarioSpec {
            dissemination,
            rendezvous,
            costs,
            ..ScenarioSpec::paper_testbed(flavor, publishers, subscribers, seed)
        })
    }

    /// The mega-scale scenario: a `rendezvous`-shard mesh, SR-TPS
    /// publishers, **flyweight** subscribers, free costs (flyweights model
    /// zero-CPU consumers).
    pub fn build_flyweight_mesh(
        rendezvous: usize,
        publishers: usize,
        subscribers: usize,
        seed: u64,
    ) -> Scenario {
        Scenario::from_spec(ScenarioSpec {
            dissemination: DisseminationConfig::rendezvous_mesh(rendezvous),
            rendezvous,
            flyweight_subscribers: true,
            costs: CostModel::free(),
            ..ScenarioSpec::paper_testbed(Flavor::SrTps, publishers, subscribers, seed)
        })
    }

    /// Turns on the causal tracing plane: a shared span collector is
    /// installed on every peer (rendezvous and edges) and the kernel's drop
    /// log is enabled with the same capacity, so trace spans can be joined
    /// against it for transport-level forensics. Call before
    /// [`Scenario::warm_up`] to also capture the warm-up traffic; a scenario
    /// without this call pays no tracing cost at all.
    pub fn enable_tracing(&mut self, capacity: usize) {
        let mut trace = TraceJoin::enable(&mut self.net, capacity);
        for &id in &self.rendezvous {
            let node = self.net.node_mut::<RdvNode>(id).expect("rendezvous exists");
            node.peer.set_trace_collector(Rc::clone(trace.collector()), false);
            trace.add_node(id, node.peer.trace_node());
        }
        for &id in self.publishers.iter().chain(&self.subscribers) {
            let node = self.net.node_mut::<SkiNode>(id).expect("edge exists");
            // Flyweights live outside the tracing plane (no per-copy spans
            // at mega-scale); everything else joins it.
            if node.peer_opt().is_none() {
                continue;
            }
            node.set_trace_collector(Rc::clone(trace.collector()));
            trace.add_node(id, node.peer_ref().trace_node());
        }
        self.trace = Some(trace);
    }

    /// The tracing plane, if [`Scenario::enable_tracing`] ran — for the
    /// kernel join ([`TraceJoin::kernel_drop_reason`], against
    /// [`Scenario::network`]) and other per-node forensics.
    pub fn trace(&self) -> Option<&TraceJoin> {
        self.trace.as_ref()
    }

    /// The shared trace collector, if [`Scenario::enable_tracing`] ran.
    pub fn tracer(&self) -> Option<&SharedTraceCollector> {
        self.trace.as_ref().map(TraceJoin::collector)
    }

    /// Every event trace id the collector currently knows about.
    pub fn traced_ids(&self) -> Vec<TraceId> {
        self.trace.as_ref().map(TraceJoin::traced_ids).unwrap_or_default()
    }

    /// Drop forensics for one `(subscriber, event)` pair: where that
    /// subscriber's copy of the event ended up (see
    /// [`TraceJoin::why_missing`]).
    ///
    /// # Panics
    ///
    /// Panics if tracing was not enabled.
    pub fn why_missing(&self, subscriber: usize, id: TraceId) -> DeliveryVerdict {
        self.trace
            .as_ref()
            .expect("tracing not enabled")
            .why_missing(self.subscribers[subscriber], id)
    }

    /// End-to-end virtual delivery latency summary (publish → subscriber
    /// delivery) over every traced event, from the collector's histogram.
    ///
    /// # Panics
    ///
    /// Panics if tracing was not enabled.
    fn delivery_latency_summary(&self) -> telemetry::HistogramSummary {
        self.tracer()
            .expect("tracing not enabled")
            .borrow()
            .latency_histogram()
            .summary()
    }

    /// Turns on the flight recorder: from now on every clock advance pauses
    /// on a `config.cadence_us` virtual-time grid and samples the bounded
    /// observable surface (kernel aggregates, per-rendezvous peers, harness
    /// delivery/lease/mailbox/load figures, trace-plane latency quantiles)
    /// into the recorder's per-metric rings, then evaluates the installed
    /// SLO rules. No rules are installed by default — call
    /// [`Scenario::add_standard_slo_rules`] for the stock set or
    /// [`Scenario::add_slo_rule`] for custom ones. A scenario without this
    /// call pays no recording cost at all.
    pub fn enable_recorder(&mut self, config: RecorderConfig) {
        let next_sample_at = self
            .net
            .now()
            .saturating_add(SimDuration::from_micros(config.cadence_us));
        self.recorder = Some(RecorderState {
            recorder: SeriesRecorder::new(config),
            watchdog: SloWatchdog::new(),
            next_sample_at,
        });
    }

    /// Installs one SLO rule on the watchdog.
    ///
    /// # Panics
    ///
    /// Panics if the recorder was not enabled.
    pub fn add_slo_rule(&mut self, rule: SloRule) {
        self.recorder_state_mut().watchdog.add_rule(rule);
    }

    /// Installs the stock rule set over the harness's own recorded series —
    /// one rule per [`AlertKind`], thresholds documented in
    /// `docs/observability.md`.
    pub fn add_standard_slo_rules(&mut self) {
        for rule in standard_slo_rules() {
            self.add_slo_rule(rule);
        }
    }

    /// The flight recorder, if enabled.
    pub fn recorder(&self) -> Option<&SeriesRecorder> {
        self.recorder.as_ref().map(|s| &s.recorder)
    }

    /// The SLO watchdog, if the recorder is enabled.
    pub fn watchdog(&self) -> Option<&SloWatchdog> {
        self.recorder.as_ref().map(|s| &s.watchdog)
    }

    /// Records one harness-computed value into the named series at the
    /// current virtual time and immediately re-evaluates the watchdog —
    /// the hook `dst` uses to feed probe-scoped figures into SLO rules.
    ///
    /// # Panics
    ///
    /// Panics if the recorder was not enabled.
    pub fn record_custom(&mut self, name: impl Into<String>, value: f64) {
        let at = self.net.now().as_micros();
        let state = self.recorder_state_mut();
        state.recorder.record_value(at, name, value);
        state.watchdog.evaluate(at, &state.recorder);
    }

    /// Forces one full recorder sample at the current virtual instant,
    /// off-grid (the sampling grid itself is not advanced). Useful for a
    /// final sample after the last clock advance.
    ///
    /// # Panics
    ///
    /// Panics if the recorder was not enabled.
    pub fn record_sample_now(&mut self) {
        assert!(self.recorder.is_some(), "recorder not enabled");
        self.record_tick(false);
    }

    /// The recorder's full JSONL series export.
    ///
    /// # Panics
    ///
    /// Panics if the recorder was not enabled.
    pub fn export_series_jsonl(&self) -> String {
        self.recorder().expect("recorder not enabled").export_jsonl()
    }

    /// The watchdog's alert log as deterministic text.
    ///
    /// # Panics
    ///
    /// Panics if the recorder was not enabled.
    pub fn export_alert_log(&self) -> String {
        self.watchdog().expect("recorder not enabled").render_log()
    }

    fn recorder_state_mut(&mut self) -> &mut RecorderState {
        self.recorder.as_mut().expect("recorder not enabled")
    }

    /// Every clock advance funnels through here: with no recorder it is a
    /// plain `run_for`; with one, the run pauses on each cadence boundary
    /// to take a sample and evaluate the watchdog, so the series grid is
    /// identical whatever mix of `warm_up`/`advance`/`publish_*` calls
    /// produced the timeline.
    fn run_net(&mut self, duration: SimDuration) {
        if self.recorder.is_none() {
            self.net.run_for(duration);
            return;
        }
        let horizon = self.net.now().saturating_add(duration);
        while self.net.now() < horizon {
            let next_sample = self
                .recorder
                .as_ref()
                .expect("recorder checked above")
                .next_sample_at;
            self.net.run_until(next_sample.min(horizon));
            if self.net.now() >= next_sample {
                self.record_tick(true);
            }
        }
    }

    /// Takes one recorder sample at the current virtual instant and runs the
    /// watchdog. The sampled surface is deliberately bounded — kernel
    /// aggregates, the (few) rendezvous peers, and one O(edges) scan with no
    /// per-edge allocation — so a tick stays cheap at 100k-flyweight scale.
    fn record_tick(&mut self, advance_grid: bool) {
        let at = self.net.now().as_micros();
        let mut registry = telemetry::MetricsRegistry::new();
        self.net.export_metrics_aggregate(&mut registry);
        self.export_rendezvous_metrics(&mut registry);

        // Rendezvous-side figures: lease counts (for the hot-shard rule) and
        // the owned-share-normalised load z-score (for the imbalance rule).
        let shards = self.rendezvous.len() as f64;
        let lease_counts = self.live_lease_counts();
        let total_clients: f64 = lease_counts.iter().map(|&clients| f64::from(clients)).sum();
        let mut dead_rdvs: BTreeSet<PeerId> = BTreeSet::new();
        let mut zmax = 0.0f64;
        for (&id, &clients) in self.rendezvous.iter().zip(&lease_counts) {
            let peer = self.rdv_peer(id);
            if !self.net.is_alive(id) {
                dead_rdvs.insert(peer.peer_id());
                continue;
            }
            let share = peer.owned_shards().len() as f64 / shards;
            if share <= 0.0 || share >= 1.0 {
                // A rendezvous owning nothing serves no leases; one owning
                // everything trivially holds them all. Neither is imbalance.
                continue;
            }
            let expected = total_clients * share;
            let sigma = (total_clients * share * (1.0 - share)).sqrt().max(1.0);
            zmax = zmax.max((f64::from(clients) - expected) / sigma);
        }
        let hot = jxta::dissem::hot_shards(&lease_counts, self.dissemination.rebalance.hot_ratio_percent);

        // One pass over the edge population: delivered copies, mailbox
        // depths, and live edges still leased to a dead rendezvous.
        let mut received_total = 0u64;
        let mut stale_leases = 0i64;
        let mut mailbox_max = 0i64;
        for &id in self.publishers.iter().chain(&self.subscribers) {
            let Some(node) = self.net.node_ref::<SkiNode>(id) else {
                continue;
            };
            if !self.net.is_alive(id) {
                continue;
            }
            if let Some(engine) = node.engine_ref() {
                mailbox_max = mailbox_max.max(engine.mailbox_depth() as i64);
            }
            if let Some(rdv) = node.leased_rendezvous() {
                if dead_rdvs.contains(&rdv) {
                    stale_leases += 1;
                }
            }
        }
        for &id in &self.subscribers {
            if let Some(node) = self.net.node_ref::<SkiNode>(id) {
                received_total += node.received_count() as u64;
            }
        }
        let expected_copies = self.published_events * self.subscribers.len() as u64;
        let delivery_ratio = if expected_copies == 0 {
            1.0
        } else {
            received_total as f64 / expected_copies as f64
        };

        let state = self.recorder.as_mut().expect("recorder not enabled");
        state.recorder.sample(at, &registry.snapshot());
        let latency = self
            .trace
            .as_ref()
            .map(|trace| trace.collector().borrow().latency_histogram().summary());
        let derived = [
            ("harness.delivery_ratio", Some(delivery_ratio)),
            ("harness.hot_shards", Some(hot.len() as f64)),
            ("harness.mailbox_depth_max", Some(mailbox_max as f64)),
            ("harness.shard_load_zmax", Some(zmax)),
            ("harness.stale_leases", Some(stale_leases as f64)),
            ("trace.latency_p50_ms", latency.map(|summary| summary.p50)),
            ("trace.latency_p99_ms", latency.map(|summary| summary.p99)),
        ];
        for (name, value) in derived {
            if let Some(value) = value {
                state.recorder.record_value(at, name, value);
            }
        }
        state.watchdog.evaluate(at, &state.recorder);
        if advance_grid {
            // Stay phase-aligned to the original grid, but never schedule a
            // boundary at-or-before `now`: a churn driver advancing the
            // network directly can leave the grid behind, and replaying the
            // missed boundaries would stack identical-time samples.
            let cadence = SimDuration::from_micros(state.recorder.cadence_us());
            let now = SimTime::from_micros(at);
            let mut next = state.next_sample_at.saturating_add(cadence);
            while next <= now {
                next = next.saturating_add(cadence);
            }
            state.next_sample_at = next;
        }
    }

    /// The operator's text console: the full metrics snapshot (rendered via
    /// [`telemetry::MetricsSnapshot::render_text`]), the flight recorder's
    /// key series as sparklines plus the active-alert table (when the
    /// recorder is on), the end-to-end delivery latency summary, and the
    /// causal timeline of up to `max_timelines` traced events (newest first
    /// — the events an operator is usually debugging).
    pub fn operator_view(&self, max_timelines: usize) -> String {
        let mut out = String::new();
        out.push_str("== metrics ==\n");
        out.push_str(&self.metrics_registry().snapshot().render_text());
        if let Some(state) = &self.recorder {
            out.push_str("\n== series ==\n");
            for name in KEY_SERIES {
                let Some(series) = state.recorder.series(name) else {
                    continue;
                };
                let last = series.last().map_or(0.0, |p| p.value);
                out.push_str(&format!(
                    "{name:<26} {} last={}\n",
                    sparkline(&series.values()),
                    jxta::telemetry::export::format_f64(last),
                ));
            }
            out.push_str("\n== active alerts ==\n");
            let mut any = false;
            for alert in state.watchdog.active_alerts() {
                any = true;
                out.push_str(&format!("{alert}\n"));
            }
            if !any {
                out.push_str("(none)\n");
            }
        }
        if let Some(tracer) = self.tracer() {
            let collector = tracer.borrow();
            let summary = collector.latency_histogram().summary();
            out.push_str("\n== delivery latency (virtual ms) ==\n");
            out.push_str(&format!(
                "count={} p50={:.3} p99={:.3} max={:.3}\n",
                summary.count, summary.p50, summary.p99, summary.max
            ));
            out.push_str("\n== event timelines ==\n");
            let mut ids = collector.known_ids();
            ids.reverse();
            for id in ids.into_iter().take(max_timelines) {
                out.push_str(&collector.timeline(id));
                out.push('\n');
            }
        }
        out
    }

    /// The flavour this scenario runs.
    pub fn flavor(&self) -> Flavor {
        self.flavor
    }

    /// The dissemination strategy this scenario's peers run.
    pub fn dissemination(&self) -> &DisseminationConfig {
        &self.dissemination
    }

    /// Read access to the simulated network (stats, traces).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the simulated network, for churn scripts
    /// (`simnet::ChurnDriver::run_until` needs `&mut Network`).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Runs the initialisation phase: rendezvous connection, advertisement
    /// publication/discovery and pipe binding.
    pub fn warm_up(&mut self) {
        self.run_net(SimDuration::from_secs(30));
    }

    /// Advances virtual time.
    pub fn advance(&mut self, duration: SimDuration) {
        self.run_net(duration);
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Publishes one generated offer from publisher `index` and returns the
    /// invocation time (the virtual CPU time the `publish` call consumed at
    /// the publisher — the quantity of the paper's Figure 18). The clock is
    /// advanced by the same amount, modelling the publisher being busy.
    pub fn publish_one(&mut self, index: usize) -> SimDuration {
        let charged = self.publish_without_advancing(index);
        self.invocation_times.record(charged.as_millis_f64());
        self.run_net(charged);
        charged
    }

    /// Publishes one offer from publisher `index` without advancing the
    /// clock; used to model several publishers working concurrently (the
    /// caller advances by the longest of the per-publisher busy times).
    fn publish_without_advancing(&mut self, index: usize) -> SimDuration {
        let offer = self.offers.next_offer();
        let node = self.publishers[index];
        self.published_events += 1;
        self.net.invoke::<SkiNode, _>(node, |peer, ctx| {
            peer.publish_offer(ctx, &offer).expect("publish failed");
            ctx.charged()
        })
    }

    /// Publishes `count` generated offers from publisher `index` as **one**
    /// batch (`Publisher::publish_batch` under SR-TPS) and returns the
    /// invocation time the single batched call consumed at the publisher.
    /// The clock advances by the same amount.
    pub fn publish_batch(&mut self, index: usize, count: usize) -> SimDuration {
        let offers: Vec<_> = (0..count).map(|_| self.offers.next_offer()).collect();
        let node = self.publishers[index];
        self.published_events += count as u64;
        let charged = self.net.invoke::<SkiNode, _>(node, |peer, ctx| {
            peer.publish_offer_batch(ctx, &offers)
                .expect("batch publish failed");
            ctx.charged()
        });
        self.run_net(charged);
        charged
    }

    /// The simulation node ids of the rendezvous peers, in shard order.
    pub fn rendezvous_ids(&self) -> &[NodeId] {
        &self.rendezvous
    }

    /// How many publishers the scenario was built with.
    pub fn num_publishers(&self) -> usize {
        self.publishers.len()
    }

    /// How many subscribers the scenario was built with.
    pub fn num_subscribers(&self) -> usize {
        self.subscribers.len()
    }

    /// The simulation node id of publisher `index`.
    pub fn publisher_id(&self, index: usize) -> NodeId {
        self.publishers[index]
    }

    /// The simulation node id of subscriber `index`.
    pub fn subscriber_id(&self, index: usize) -> NodeId {
        self.subscribers[index]
    }

    /// Per-rendezvous `(client leases, mesh links)` counts, in shard order —
    /// the structural per-event forwarding fan-out of each rendezvous (a
    /// rendezvous forwards one copy per client lease, plus one per mesh link
    /// when it roots the event's shard).
    pub fn rendezvous_loads(&self) -> Vec<(usize, usize)> {
        self.rendezvous
            .iter()
            .map(|&id| {
                let service = self.rdv_peer(id).rendezvous();
                (service.counters().2, service.mesh_degree())
            })
            .collect()
    }

    /// The operator's shard view: one [`ShardLoadRow`] per rendezvous, in
    /// shard order, built from the telemetry plane — liveness, owned hash
    /// ranges (own + adopted), lease and mesh-link counts, relay work, and
    /// the hot-shard flag of the rebalancing controller's load-ratio rule.
    pub fn shard_load_report(&self) -> Vec<ShardLoadRow> {
        let hot = jxta::dissem::hot_shards(
            &self.live_lease_counts(),
            self.dissemination.rebalance.hot_ratio_percent,
        );
        self.rendezvous
            .iter()
            .enumerate()
            .map(|(shard, &id)| {
                let alive = self.net.is_alive(id);
                let peer = self.rdv_peer(id);
                let service = peer.rendezvous();
                ShardLoadRow {
                    shard,
                    node: id,
                    alive,
                    owned_shards: if alive { peer.owned_shards() } else { Vec::new() },
                    adopted_shards: if alive { peer.adopted_shards() } else { Vec::new() },
                    clients: service.counters().2,
                    mesh_links: service.mesh_degree(),
                    relayed: peer.wire().forwarded(),
                    hot: hot.contains(&shard),
                }
            })
            .collect()
    }

    /// A full-stack metrics snapshot source: the simulation kernel's
    /// counters (`simnet.*`), every rendezvous peer (`jxta.rdv<i>.*`,
    /// including the per-shard load-table rows), every SR-TPS edge engine
    /// (`tps.pub<i>.*` / `tps.sub<i>.*`), and the harness's own publish
    /// invocation-time histogram (`harness.publish_invocation_ms`).
    pub fn metrics_registry(&self) -> telemetry::MetricsRegistry {
        let mut registry = telemetry::MetricsRegistry::new();
        self.net.export_metrics(&mut registry);
        self.export_rendezvous_metrics(&mut registry);
        let edges = self
            .publishers
            .iter()
            .enumerate()
            .map(|(i, &id)| (format!("pub{i}"), id))
            .chain(
                self.subscribers
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| (format!("sub{i}"), id)),
            );
        for (label, id) in edges {
            let Some(node) = self.net.node_ref::<SkiNode>(id) else {
                continue;
            };
            match (node.engine_ref(), node.peer_opt()) {
                (Some(engine), _) => engine.export_metrics(&mut registry, &format!("tps.{label}")),
                (None, Some(peer)) => peer.export_metrics(&mut registry, &format!("jxta.{label}")),
                // Flyweights have no metrics surface of their own; the
                // kernel's simnet.* counters already cover their traffic.
                (None, None) => {}
            }
        }
        registry.insert_histogram("harness.publish_invocation_ms", self.invocation_times.clone());
        registry
    }

    /// The shard (rendezvous node id) an edge peer currently leases with,
    /// if it is connected.
    pub fn shard_of(&self, edge: NodeId) -> Option<NodeId> {
        let connected_rdv = self.net.node_ref::<SkiNode>(edge)?.leased_rendezvous()?;
        self.rendezvous
            .iter()
            .copied()
            .find(|&id| self.rdv_peer(id).peer_id() == connected_rdv)
    }

    /// The JXTA peer of the rendezvous running on simulation node `id`.
    fn rdv_peer(&self, id: NodeId) -> &jxta::JxtaPeer {
        &self.net.node_ref::<RdvNode>(id).expect("rendezvous exists").peer
    }

    /// Subscriber `index`'s node.
    fn subscriber(&self, index: usize) -> &SkiNode {
        self.net
            .node_ref::<SkiNode>(self.subscribers[index])
            .expect("subscriber exists")
    }

    /// Client leases per rendezvous, in shard order; a dead rendezvous
    /// serves none.
    fn live_lease_counts(&self) -> Vec<u32> {
        self.rendezvous
            .iter()
            .map(|&id| {
                if self.net.is_alive(id) {
                    self.rdv_peer(id).rendezvous().counters().2 as u32
                } else {
                    0
                }
            })
            .collect()
    }

    /// Exports every rendezvous peer's counters as `jxta.rdv<shard>.*`.
    fn export_rendezvous_metrics(&self, registry: &mut telemetry::MetricsRegistry) {
        for (shard, &id) in self.rendezvous.iter().enumerate() {
            self.rdv_peer(id)
                .export_metrics(registry, &format!("jxta.rdv{shard}"));
        }
    }

    /// Publishes one offer from publisher `index` and returns how many
    /// datagrams the publisher put on the wire for it — the publisher-side
    /// copy count of the dissemination strategy (O(subscribers) under the
    /// paper baseline, O(1) under the rendezvous mesh).
    fn publish_counting_copies(&mut self, index: usize) -> usize {
        let node = self.publishers[index];
        let before = self.net.stats_of(node).datagrams_sent;
        let charged = self.publish_without_advancing(index);
        let copies = (self.net.stats_of(node).datagrams_sent - before) as usize;
        self.run_net(charged.saturating_add(SimDuration::from_millis(1)));
        copies
    }

    /// Offers received so far by subscriber `index`, with arrival times.
    pub fn received_times(&self, index: usize) -> Vec<SimTime> {
        self.subscriber(index).received_times()
    }

    /// The flyweight behind subscriber `index`, for scenarios built with
    /// [`ScenarioSpec::flyweight_subscribers`] (`None` for full-stack subscribers).
    pub fn flyweight(&self, index: usize) -> Option<&jxta::FlyweightEdge> {
        self.subscriber(index).flyweight_ref()
    }

    /// Number of offers received so far by subscriber `index`.
    pub fn received_count(&self, index: usize) -> usize {
        self.subscriber(index).received_count()
    }
}

/// One row of [`Scenario::shard_load_report`]: everything an operator needs
/// to see about one rendezvous shard at a glance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLoadRow {
    /// The shard index (ring position).
    pub shard: usize,
    /// The simulation node running this shard's rendezvous.
    pub node: NodeId,
    /// Whether the rendezvous process is up.
    pub alive: bool,
    /// Every hash range this rendezvous currently serves (its own plus any
    /// adopted dead shards'); empty while the node is down.
    pub owned_shards: Vec<usize>,
    /// The adopted (formerly dead) ranges only.
    pub adopted_shards: Vec<usize>,
    /// Client leases currently held.
    pub clients: usize,
    /// Live rendezvous-to-rendezvous mesh links.
    pub mesh_links: usize,
    /// Wire copies forwarded on behalf of other peers since boot.
    pub relayed: u64,
    /// Whether the rebalancing controller's load-ratio rule flags this
    /// shard as hot (lease count above the configured multiple of the mean).
    pub hot: bool,
}

impl std::fmt::Display for ShardLoadRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} [{}] owns {:?} clients={} mesh={} relayed={}{}",
            self.shard,
            if self.alive { "alive" } else { "DEAD" },
            self.owned_shards,
            self.clients,
            self.mesh_links,
            self.relayed,
            if self.hot { " HOT" } else { "" }
        )
    }
}

/// A bare rendezvous node (no application on top).
#[derive(Debug)]
struct RdvNode {
    peer: jxta::JxtaPeer,
}

impl simnet::SimNode for RdvNode {
    fn on_start(&mut self, ctx: &mut simnet::NodeContext<'_>) {
        self.peer.on_start(ctx);
    }
    fn on_datagram(&mut self, ctx: &mut simnet::NodeContext<'_>, dg: simnet::Datagram) {
        self.peer.on_datagram(ctx, &dg);
        let _ = self.peer.take_events();
    }
    fn on_timer(&mut self, ctx: &mut simnet::NodeContext<'_>, _token: simnet::TimerToken, tag: u64) {
        if jxta::is_jxta_timer(tag) {
            self.peer.on_timer(ctx, tag);
        }
        let _ = self.peer.take_events();
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Figure 18 — invocation time
// ---------------------------------------------------------------------------

/// The Figure 18 testbed under a given strategy: one publisher, one
/// rendezvous, JXTA 1.0 costs.
fn single_publisher(
    flavor: Flavor,
    dissemination: DisseminationConfig,
    subscribers: usize,
    seed: u64,
) -> Scenario {
    Scenario::from_spec(ScenarioSpec {
        dissemination,
        ..ScenarioSpec::paper_testbed(flavor, 1, subscribers, seed)
    })
}

/// One series of the paper's Figure 18: the per-event invocation time (ms) of
/// `events` back-to-back publications with `subscribers` connected
/// subscribers.
pub fn invocation_time(flavor: Flavor, subscribers: usize, events: usize, seed: u64) -> Vec<f64> {
    invocation_time_with_dissemination(flavor, DisseminationConfig::default(), subscribers, events, seed)
}

/// The Figure 18 series under an explicit dissemination strategy — the
/// workload behind the dissemination ablation. Under the paper baseline the
/// publisher's invocation time grows linearly with `subscribers`; under the
/// rendezvous mesh it stays flat (one copy to the rendezvous, whatever the
/// subscriber count).
fn invocation_time_with_dissemination(
    flavor: Flavor,
    dissemination: DisseminationConfig,
    subscribers: usize,
    events: usize,
    seed: u64,
) -> Vec<f64> {
    let mut scenario = single_publisher(flavor, dissemination, subscribers, seed);
    scenario.warm_up();
    (0..events)
        .map(|_| scenario.publish_one(0).as_millis_f64())
        .collect()
}

/// Runs the same publish workload under every dissemination strategy and
/// returns `(strategy, mean publisher invocation time in ms)` per strategy —
/// the scenario behind the dissemination ablation.
pub fn dissemination_comparison(
    flavor: Flavor,
    subscribers: usize,
    events: usize,
    seed: u64,
) -> Vec<(StrategyKind, f64)> {
    StrategyKind::ALL
        .into_iter()
        .map(|kind| {
            let series = invocation_time_with_dissemination(
                flavor,
                DisseminationConfig::of_kind(kind),
                subscribers,
                events,
                seed,
            );
            (kind, stats(&series).mean)
        })
        .collect()
}

/// Runs a traced publish workload under every dissemination strategy and
/// returns `(strategy, end-to-end virtual delivery latency summary)` per
/// strategy — the `latency` section of `reproduce`. The
/// latency of one event is publish-span to delivery-span on the virtual
/// clock; each delivery (one per subscriber per event) contributes one
/// sample.
pub fn trace_latency_comparison(
    flavor: Flavor,
    subscribers: usize,
    events: usize,
    seed: u64,
) -> Vec<(StrategyKind, telemetry::HistogramSummary)> {
    StrategyKind::ALL
        .into_iter()
        .map(|kind| {
            let mut scenario =
                single_publisher(flavor, DisseminationConfig::of_kind(kind), subscribers, seed);
            scenario.enable_tracing(DEFAULT_TRACE_CAPACITY);
            scenario.warm_up();
            for _ in 0..events {
                scenario.publish_one(0);
            }
            // Let the last event's copies drain through the overlay before
            // closing the books.
            scenario.advance(SimDuration::from_secs(10));
            (kind, scenario.delivery_latency_summary())
        })
        .collect()
}

/// One row of the sharded rendezvous-mesh ablation: cost structure of the
/// `RendezvousMesh` strategy at a given shard count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshReport {
    /// Number of rendezvous shards (N).
    pub shards: usize,
    /// Number of subscribers in the run.
    pub subscribers: usize,
    /// Copies the publisher sent per event (the publisher-side cost; O(1)
    /// under the mesh, whatever `subscribers` or `shards`).
    pub publisher_copies: usize,
    /// The largest per-rendezvous forwarding fan-out: local client leases
    /// plus mesh links of the most loaded rendezvous.
    pub max_rendezvous_fanout: usize,
    /// The largest number of client leases on any one rendezvous (how uneven
    /// the hash sharding came out).
    pub max_rendezvous_clients: usize,
    /// Mesh links per rendezvous (N - 1 on the full mesh).
    pub mesh_links: usize,
    /// Fraction of published events that reached every subscriber.
    pub delivered_ratio: f64,
}

/// Runs the mesh workload at `shards` rendezvous peers and measures its cost
/// structure: publisher copies per event, the per-rendezvous fan-out, and
/// delivery coverage. The workload behind the `mesh` section of `reproduce` —
/// publisher copies stay flat in `subscribers` while the per-rendezvous
/// fan-out shrinks as `shards` grows.
pub fn mesh_fanout_report(subscribers: usize, shards: usize, events: usize, seed: u64) -> MeshReport {
    let mut scenario = Scenario::build_sharded(
        Flavor::SrTps,
        DisseminationConfig::rendezvous_mesh(shards),
        shards,
        1,
        subscribers,
        seed,
        CostModel::free(),
    );
    scenario.warm_up();
    let mut publisher_copies = 0;
    for _ in 0..events {
        publisher_copies = publisher_copies.max(scenario.publish_counting_copies(0));
    }
    scenario.advance(SimDuration::from_secs(10));
    let loads = scenario.rendezvous_loads();
    let max_rendezvous_fanout = loads.iter().map(|&(c, m)| c + m).max().unwrap_or(0);
    let max_rendezvous_clients = loads.iter().map(|&(c, _)| c).max().unwrap_or(0);
    let mesh_links = loads.iter().map(|&(_, m)| m).max().unwrap_or(0);
    let delivered: usize = (0..subscribers).map(|i| scenario.received_count(i)).sum();
    let expected = subscribers * events;
    MeshReport {
        shards,
        subscribers,
        publisher_copies,
        max_rendezvous_fanout,
        max_rendezvous_clients,
        mesh_links,
        delivered_ratio: if expected == 0 {
            1.0
        } else {
            delivered as f64 / expected as f64
        },
    }
}

/// The batching ablation: publisher-side invocation time (ms) for `events`
/// offers published one by one versus as a single `publish_batch` call,
/// under the given dissemination strategy. Returns `(singles_ms, batch_ms)`
/// — the *total* virtual CPU time the publisher spent invoking `publish`.
///
/// Batching flattens the per-event cost because the per-message charges
/// (connection service per listener, message padding) are paid once per
/// batch instead of once per event.
pub fn batch_comparison(
    flavor: Flavor,
    dissemination: DisseminationConfig,
    subscribers: usize,
    events: usize,
    seed: u64,
) -> (f64, f64) {
    let singles = {
        let mut scenario = single_publisher(flavor, dissemination.clone(), subscribers, seed);
        scenario.warm_up();
        (0..events).map(|_| scenario.publish_one(0).as_millis_f64()).sum()
    };
    let batch = {
        let mut scenario = single_publisher(flavor, dissemination, subscribers, seed);
        scenario.warm_up();
        scenario.publish_batch(0, events).as_millis_f64()
    };
    (singles, batch)
}

// ---------------------------------------------------------------------------
// Figure 19 — publisher throughput
// ---------------------------------------------------------------------------

/// One series of the paper's Figure 19: events sent per second, per epoch,
/// while publishing `events` events split into `epochs` epochs.
pub fn publisher_throughput(
    flavor: Flavor,
    subscribers: usize,
    events: usize,
    epochs: usize,
    seed: u64,
) -> Vec<f64> {
    let mut scenario = Scenario::build(flavor, 1, subscribers, seed);
    scenario.warm_up();
    let per_epoch = events / epochs;
    let mut series = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let start = scenario.now();
        for _ in 0..per_epoch {
            scenario.publish_one(0);
        }
        let elapsed = scenario.now().saturating_since(start).as_secs_f64();
        series.push(if elapsed > 0.0 {
            per_epoch as f64 / elapsed
        } else {
            0.0
        });
    }
    series
}

// ---------------------------------------------------------------------------
// Figure 20 — subscriber throughput
// ---------------------------------------------------------------------------

/// One series of the paper's Figure 20: the number of events received per
/// second at a single subscriber, sampled every second for `seconds`, while
/// `publishers` publishers flood it.
pub fn subscriber_throughput(flavor: Flavor, publishers: usize, seconds: usize, seed: u64) -> Vec<f64> {
    let mut scenario = Scenario::build(flavor, publishers, 1, seed);
    scenario.warm_up();
    let start = scenario.now();
    let end = start + SimDuration::from_secs(seconds as u64);
    // Publishers flood concurrently: in each round every publisher issues one
    // event at the current instant (they are separate machines), and the
    // clock advances by the slowest publisher's busy time.
    while scenario.now() < end {
        let mut round_max = SimDuration::ZERO;
        for publisher in 0..publishers {
            let charged = scenario.publish_without_advancing(publisher);
            if charged > round_max {
                round_max = charged;
            }
        }
        scenario.advance(round_max.saturating_add(SimDuration::from_millis(1)));
    }
    // Bucket arrivals into one-second windows relative to the flood start.
    let mut buckets = vec![0.0_f64; seconds];
    for at in scenario.received_times(0) {
        if at < start {
            continue;
        }
        let offset = at.saturating_since(start).as_secs_f64();
        let bucket = offset as usize;
        if bucket < seconds {
            buckets[bucket] += 1.0;
        }
    }
    buckets
}

// ---------------------------------------------------------------------------
// Section 4.4 — programming-effort comparison
// ---------------------------------------------------------------------------

/// Line-count comparison of the code a programmer must write (and, for the
/// direct-JXTA route, re-implement) for the ski-rental application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocReport {
    /// Lines the TPS user writes (type definition + SR-TPS application).
    pub tps_user_loc: usize,
    /// Lines the direct-JXTA user writes for equal functionality (SR-JXTA:
    /// advertisements creator/finder, wire service finder, dedup, histories).
    pub jxta_user_loc: usize,
    /// Lines of the TPS library itself — functionality the direct-JXTA user
    /// would have to re-create to obtain the full API (the paper's "about
    /// 5000 lines" figure).
    pub tps_library_loc: usize,
}

impl LocReport {
    /// Lines saved by using TPS while writing the minimal application
    /// (the paper's "at least 900 lines" claim).
    pub fn minimal_savings(&self) -> isize {
        self.jxta_user_loc as isize - self.tps_user_loc as isize
    }

    /// Lines saved when the full API functionality is needed (the paper's
    /// "about 5000 lines" claim).
    pub fn full_api_savings(&self) -> isize {
        self.minimal_savings() + self.tps_library_loc as isize
    }
}

fn count_loc(sources: &[&str]) -> usize {
    sources
        .iter()
        .flat_map(|s| s.lines())
        .filter(|line| {
            let trimmed = line.trim();
            !trimmed.is_empty() && !trimmed.starts_with("//")
        })
        .count()
}

/// Computes the programming-effort comparison from the actual sources in this
/// repository.
pub fn loc_report() -> LocReport {
    let tps_user = [include_str!("types.rs"), include_str!("tps_app.rs")];
    let jxta_user = [include_str!("types.rs"), include_str!("jxta_app.rs")];
    let tps_library = [
        include_str!("../../tps/src/engine.rs"),
        include_str!("../../tps/src/interface.rs"),
        include_str!("../../tps/src/codec.rs"),
        include_str!("../../tps/src/callback.rs"),
        include_str!("../../tps/src/criteria.rs"),
        include_str!("../../tps/src/event.rs"),
        include_str!("../../tps/src/error.rs"),
        include_str!("../../tps/src/host.rs"),
    ];
    LocReport {
        tps_user_loc: count_loc(&tps_user),
        jxta_user_loc: count_loc(&jxta_user),
        tps_library_loc: count_loc(&tps_library),
    }
}

/// Simple descriptive statistics used by the reproduction reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

/// Computes mean / standard deviation / min / max of a series.
pub fn stats(series: &[f64]) -> SeriesStats {
    if series.is_empty() {
        return SeriesStats {
            mean: 0.0,
            std_dev: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    let mean = series.iter().sum::<f64>() / series.len() as f64;
    let variance = series.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / series.len() as f64;
    let min = series.iter().copied().fold(f64::INFINITY, f64::min);
    let max = series.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    SeriesStats {
        mean,
        std_dev: variance.sqrt(),
        min,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's testbed under the free cost model.
    fn free_scenario(flavor: Flavor, publishers: usize, subscribers: usize, seed: u64) -> Scenario {
        Scenario::from_spec(ScenarioSpec {
            costs: CostModel::free(),
            ..ScenarioSpec::paper_testbed(flavor, publishers, subscribers, seed)
        })
    }

    #[test]
    fn functional_delivery_for_every_flavor() {
        for flavor in Flavor::ALL {
            let mut scenario = free_scenario(flavor, 1, 1, 11);
            scenario.warm_up();
            for _ in 0..5 {
                scenario.publish_one(0);
            }
            scenario.advance(SimDuration::from_secs(10));
            assert_eq!(
                scenario.received_count(0),
                5,
                "{flavor}: subscriber should receive every published offer exactly once"
            );
        }
    }

    #[test]
    fn functional_delivery_under_every_dissemination_strategy() {
        for kind in StrategyKind::ALL {
            let mut scenario = Scenario::build_with_dissemination(
                Flavor::SrTps,
                DisseminationConfig::of_kind(kind),
                1,
                3,
                11,
                CostModel::free(),
            );
            scenario.warm_up();
            for _ in 0..5 {
                scenario.publish_one(0);
            }
            scenario.advance(SimDuration::from_secs(10));
            for subscriber in 0..3 {
                assert_eq!(
                    scenario.received_count(subscriber),
                    5,
                    "{kind}: every subscriber receives every offer exactly once"
                );
            }
        }
    }

    #[test]
    fn gossip_defaults_deliver_most_events_on_a_wide_neighbourhood() {
        // Fanout 4 / TTL 4 is a genuinely probabilistic regime: coverage must
        // stay high at 16 subscribers (duplicate copies re-sample a fresh
        // fanout on every hop), though a small miss fraction is inherent.
        let mut scenario = Scenario::build_with_dissemination(
            Flavor::SrTps,
            DisseminationConfig::of_kind(StrategyKind::Gossip),
            1,
            16,
            11,
            CostModel::free(),
        );
        scenario.warm_up();
        for _ in 0..5 {
            scenario.publish_one(0);
            scenario.advance(SimDuration::from_secs(1));
        }
        scenario.advance(SimDuration::from_secs(20));
        let delivered: usize = (0..16).map(|i| scenario.received_count(i)).sum();
        let expected = 16 * 5;
        assert!(
            delivered * 10 >= expected * 8,
            "gossip defaults should reach at least 80% of subscribers (delivered {delivered}/{expected})"
        );
    }

    #[test]
    fn rendezvous_mesh_publisher_cost_is_flat_where_direct_fanout_grows() {
        // The Figure 18 trend (invocation time vs subscribers) per strategy:
        // the baseline pays one connection service per listener, the mesh
        // pays one per publish, whatever the subscriber count.
        let direct = |subs| {
            stats(&invocation_time_with_dissemination(
                Flavor::SrTps,
                DisseminationConfig::direct_fanout(),
                subs,
                8,
                2002,
            ))
            .mean
        };
        let mesh = |subs| {
            stats(&invocation_time_with_dissemination(
                Flavor::SrTps,
                DisseminationConfig::rendezvous_mesh(1),
                subs,
                8,
                2002,
            ))
            .mean
        };
        let (direct_1, direct_8) = (direct(1), direct(8));
        let (mesh_1, mesh_8) = (mesh(1), mesh(8));
        assert!(
            direct_8 > direct_1 * 4.0,
            "direct fan-out must grow roughly linearly ({direct_1:.1} -> {direct_8:.1} ms)"
        );
        assert!(
            mesh_8 < mesh_1 * 2.0,
            "rendezvous mesh must stay roughly flat ({mesh_1:.1} -> {mesh_8:.1} ms)"
        );
        assert!(
            mesh_8 < direct_8 / 2.0,
            "at 8 subscribers the mesh publisher must be far cheaper ({mesh_8:.1} vs {direct_8:.1} ms)"
        );
    }

    #[test]
    fn batched_publish_is_far_cheaper_than_singles_under_direct_fanout() {
        // The batching ablation's claim: publishing 64 offers as
        // one batch must cost the publisher measurably less invocation time
        // than 64 single publishes (the per-message connection services are
        // paid once per batch instead of once per event).
        let (singles, batch) =
            batch_comparison(Flavor::SrTps, DisseminationConfig::direct_fanout(), 2, 64, 2002);
        assert!(
            batch * 4.0 < singles,
            "a 64-event batch should be at least 4x cheaper than 64 singles \
             ({batch:.1} vs {singles:.1} ms)"
        );
    }

    #[test]
    fn batched_publish_delivers_every_event() {
        let mut scenario = free_scenario(Flavor::SrTps, 1, 2, 13);
        scenario.warm_up();
        scenario.publish_batch(0, 8);
        scenario.advance(SimDuration::from_secs(10));
        for subscriber in 0..2 {
            assert_eq!(
                scenario.received_count(subscriber),
                8,
                "every batched offer reaches every subscriber exactly once"
            );
        }
    }

    #[test]
    fn dissemination_comparison_covers_all_strategies() {
        let report = dissemination_comparison(Flavor::SrTps, 2, 3, 7);
        assert_eq!(report.len(), StrategyKind::ALL.len());
        assert!(report.iter().all(|(_, mean)| *mean > 0.0));
        assert_eq!(report[0].0, StrategyKind::DirectFanout);
    }

    #[test]
    #[should_panic(expected = "one rendezvous per shard")]
    fn a_mesh_scenario_needs_one_rendezvous_per_shard() {
        Scenario::build_with_dissemination(
            Flavor::SrTps,
            DisseminationConfig::rendezvous_mesh(4),
            1,
            1,
            11,
            CostModel::free(),
        );
    }

    #[test]
    fn sharded_mesh_delivers_across_shards() {
        let mut scenario = Scenario::build_sharded(
            Flavor::SrTps,
            DisseminationConfig::rendezvous_mesh(3),
            3,
            1,
            6,
            11,
            CostModel::free(),
        );
        scenario.warm_up();
        // The subscribers must spread over more than one shard, or the mesh
        // links are never exercised.
        let shards: std::collections::HashSet<_> = (0..6)
            .filter_map(|i| scenario.shard_of(scenario.subscriber_id(i)))
            .collect();
        assert!(
            shards.len() > 1,
            "6 subscribers over 3 shards should span several shards"
        );
        for _ in 0..5 {
            scenario.publish_one(0);
        }
        scenario.advance(SimDuration::from_secs(10));
        for subscriber in 0..6 {
            assert_eq!(
                scenario.received_count(subscriber),
                5,
                "mesh: every subscriber receives every offer exactly once"
            );
        }
        // Full mesh of 3: every rendezvous holds 2 mesh links.
        assert!(scenario.rendezvous_loads().iter().all(|&(_, m)| m == 2));
    }

    #[test]
    fn mesh_report_shows_flat_publisher_and_sharded_fanout() {
        let one = mesh_fanout_report(12, 1, 3, 2002);
        let four = mesh_fanout_report(12, 4, 3, 2002);
        assert_eq!(one.publisher_copies, 1, "publisher sends exactly one copy");
        assert_eq!(
            four.publisher_copies, 1,
            "publisher copies independent of shard count"
        );
        assert_eq!(one.mesh_links, 0);
        assert_eq!(four.mesh_links, 3);
        assert!(
            four.max_rendezvous_clients < one.max_rendezvous_clients,
            "sharding must spread the client leases ({} -> {})",
            one.max_rendezvous_clients,
            four.max_rendezvous_clients
        );
        assert!((one.delivered_ratio - 1.0).abs() < f64::EPSILON);
        assert!((four.delivered_ratio - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn shard_load_report_and_metrics_reflect_a_healthy_mesh() {
        let mut scenario = Scenario::build_sharded(
            Flavor::SrTps,
            DisseminationConfig::rendezvous_mesh(3),
            3,
            1,
            6,
            11,
            CostModel::free(),
        );
        scenario.warm_up();
        for _ in 0..3 {
            scenario.publish_one(0);
        }
        scenario.advance(SimDuration::from_secs(40)); // past one housekeeping tick
        let report = scenario.shard_load_report();
        assert_eq!(report.len(), 3);
        for (index, row) in report.iter().enumerate() {
            assert_eq!(row.shard, index);
            assert!(row.alive);
            assert_eq!(
                row.owned_shards,
                vec![index],
                "healthy mesh: everyone owns their own range"
            );
            assert!(row.adopted_shards.is_empty());
            assert_eq!(row.mesh_links, 2);
            assert!(row.to_string().contains("alive"));
        }
        let total_clients: usize = report.iter().map(|r| r.clients).sum();
        assert_eq!(total_clients, 7, "1 publisher + 6 subscribers lease somewhere");

        let registry = scenario.metrics_registry();
        let snapshot = registry.snapshot();
        assert!(snapshot.counter("simnet.datagrams_delivered") > 0);
        assert!(
            (0..3).any(|i| snapshot.counter(&format!("jxta.rdv{i}.wire.forwarded")) > 0),
            "some rendezvous relayed the published offers"
        );
        assert_eq!(snapshot.counter("tps.pub0.events_published"), 3);
        assert!(
            registry.histogram("harness.publish_invocation_ms").unwrap().len() == 3,
            "every publish_one lands in the invocation histogram"
        );
    }

    /// The ISSUE 5 acceptance scenario, end to end at the harness level:
    /// kill 1 of 4 rendezvous, keep it dead past the lease lifetime, and
    /// the controller must migrate its shard's leases to survivors so
    /// delivery resumes for every subscriber without revival — with the
    /// adopted range visible in `shard_load_report` and per-shard relay
    /// counts in the registry snapshot.
    #[test]
    fn controller_recovers_delivery_after_permanent_shard_death() {
        let subscribers = 8;
        let mut scenario = Scenario::build_sharded(
            Flavor::SrTps,
            DisseminationConfig::rendezvous_mesh(4),
            4,
            1,
            subscribers,
            2002,
            CostModel::free(),
        );
        scenario.warm_up();
        // Pick a victim shard that is not the publisher's and has clients.
        let publisher_shard = scenario.shard_of(scenario.publisher_id(0)).unwrap();
        let victim_index = scenario
            .rendezvous_ids()
            .iter()
            .position(|&id| {
                id != publisher_shard
                    && (0..subscribers).any(|i| scenario.shard_of(scenario.subscriber_id(i)) == Some(id))
            })
            .expect("some non-publisher shard has subscribers");
        let victim = scenario.rendezvous_ids()[victim_index];
        let adopter_index = (victim_index + 1) % 4;

        scenario.publish_one(0);
        scenario.advance(SimDuration::from_secs(5));
        let mut churn = simnet::ChurnDriver::new();
        let kill_at = scenario.now() + SimDuration::from_secs(1);
        churn.kill_at(kill_at, victim);
        churn.run_until(scenario.network_mut(), kill_at + SimDuration::from_secs(180));
        assert!(!scenario.network().is_alive(victim), "no revival");

        let before_late: Vec<usize> = (0..subscribers).map(|i| scenario.received_count(i)).collect();
        scenario.publish_one(0);
        scenario.advance(SimDuration::from_secs(10));
        let delivered_late = (0..subscribers)
            .filter(|&i| scenario.received_count(i) == before_late[i] + 1)
            .count();
        assert!(
            delivered_late * 100 >= subscribers * 99,
            "delivery must resume for >=99% of subscribers without revival \
             ({delivered_late}/{subscribers})"
        );

        let report = scenario.shard_load_report();
        assert!(!report[victim_index].alive);
        assert!(report[victim_index].owned_shards.is_empty());
        assert_eq!(
            report[adopter_index].adopted_shards,
            vec![victim_index],
            "shard_load_report shows the adopted range"
        );
        assert!(report[adopter_index].owned_shards.contains(&adopter_index));

        let snapshot = scenario.metrics_registry().snapshot();
        assert!(
            (0..4)
                .filter(|&i| i != victim_index)
                .any(|i| { snapshot.counter(&format!("jxta.rdv{i}.shard{i}.relayed")) > 0 }),
            "registry snapshots expose per-shard relay counts"
        );
        assert_eq!(
            snapshot.gauge(&format!("jxta.rdv{adopter_index}.shard{victim_index}.dead")),
            Some(1),
            "the adopter's load table flags the victim's shard dead"
        );
    }

    #[test]
    fn invocation_time_orders_flavors_like_the_paper() {
        let wire = stats(&invocation_time(Flavor::JxtaWire, 1, 10, 21)).mean;
        let sr_jxta = stats(&invocation_time(Flavor::SrJxta, 1, 10, 21)).mean;
        let sr_tps = stats(&invocation_time(Flavor::SrTps, 1, 10, 21)).mean;
        assert!(
            wire < sr_jxta,
            "raw JXTA-WIRE should be quicker than SR-JXTA ({wire} vs {sr_jxta})"
        );
        assert!(
            wire < sr_tps,
            "raw JXTA-WIRE should be quicker than SR-TPS ({wire} vs {sr_tps})"
        );
        // SR-TPS and SR-JXTA are within a few percent of each other.
        let relative_gap = (sr_tps - sr_jxta).abs() / sr_jxta;
        assert!(
            relative_gap < 0.15,
            "SR-TPS and SR-JXTA should be close (gap {relative_gap})"
        );
    }

    #[test]
    fn more_subscribers_slow_the_publisher_down() {
        let one = stats(&invocation_time(Flavor::SrTps, 1, 10, 33)).mean;
        let four = stats(&invocation_time(Flavor::SrTps, 4, 10, 33)).mean;
        assert!(
            four > one * 1.5,
            "four subscribers should cost noticeably more than one ({one} -> {four})"
        );
    }

    #[test]
    fn loc_report_shows_tps_saving_code() {
        let report = loc_report();
        assert!(report.tps_user_loc < report.jxta_user_loc);
        assert!(report.minimal_savings() > 0);
        assert!(report.full_api_savings() > report.minimal_savings());
        assert!(report.tps_library_loc > 1000);
    }

    #[test]
    fn stats_helper_computes_moments() {
        let s = stats(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-9);
        assert!((s.min - 1.0).abs() < 1e-9);
        assert!((s.max - 4.0).abs() < 1e-9);
        assert!(s.std_dev > 1.0 && s.std_dev < 1.2);
        assert_eq!(stats(&[]).mean, 0.0);
    }

    /// Runs a small traced workload and returns the scenario plus the ids.
    fn traced_run(flavor: Flavor, seed: u64) -> Scenario {
        let mut scenario = free_scenario(flavor, 1, 2, seed);
        scenario.enable_tracing(4096);
        scenario.warm_up();
        for _ in 0..3 {
            scenario.publish_one(0);
        }
        scenario.advance(SimDuration::from_secs(10));
        scenario
    }

    #[test]
    fn traces_explain_every_delivered_event() {
        for flavor in [Flavor::JxtaWire, Flavor::SrTps] {
            let scenario = traced_run(flavor, 42);
            let ids = scenario.traced_ids();
            assert_eq!(ids.len(), 3, "{flavor}: one trace id per published event");
            for id in ids {
                for subscriber in 0..2 {
                    let verdict = scenario.why_missing(subscriber, id);
                    assert!(
                        verdict.is_delivered(),
                        "{flavor}: expected delivery, got: {verdict}"
                    );
                }
            }
            let summary = scenario.delivery_latency_summary();
            assert_eq!(
                summary.count, 6,
                "{flavor}: one latency sample per (event, subscriber) delivery"
            );
            assert!(summary.p50 >= 0.0 && summary.p99 >= summary.p50);
        }
    }

    #[test]
    fn traces_are_bit_identical_across_same_seed_runs() {
        for flavor in [Flavor::JxtaWire, Flavor::SrTps] {
            let a = traced_run(flavor, 77);
            let b = traced_run(flavor, 77);
            let spans_a: Vec<_> = a.tracer().unwrap().borrow().spans().copied().collect();
            let spans_b: Vec<_> = b.tracer().unwrap().borrow().spans().copied().collect();
            assert!(!spans_a.is_empty(), "{flavor}: traced runs record spans");
            assert_eq!(
                spans_a, spans_b,
                "{flavor}: same seed must reproduce the identical span trace"
            );
        }
    }

    #[test]
    fn untraced_runs_record_nothing_and_send_no_trace_bytes() {
        let mut scenario = free_scenario(Flavor::SrTps, 1, 1, 42);
        scenario.warm_up();
        scenario.publish_one(0);
        scenario.advance(SimDuration::from_secs(5));
        assert!(scenario.tracer().is_none());
        assert!(scenario.traced_ids().is_empty());
        assert_eq!(scenario.received_count(0), 1);
        assert!(
            scenario.network().drop_log().records().is_empty(),
            "the drop log stays off"
        );
    }

    #[test]
    fn why_missing_blames_the_kernel_when_a_subscriber_dies_in_flight() {
        let mut scenario = free_scenario(Flavor::SrTps, 1, 2, 9);
        scenario.enable_tracing(8192);
        scenario.warm_up();
        // Kill subscriber 1, then publish: its copy must die in the kernel
        // (NodeDown at send or delivery time) and forensics must say so.
        let victim = scenario.subscriber_id(1);
        scenario.network_mut().shutdown_node(victim);
        scenario.publish_one(0);
        scenario.advance(SimDuration::from_secs(10));
        let ids = scenario.traced_ids();
        assert_eq!(ids.len(), 1);
        let id = ids[0];
        assert!(scenario.why_missing(0, id).is_delivered());
        let verdict = scenario.why_missing(1, id);
        assert!(!verdict.is_delivered(), "the dead subscriber cannot receive");
        match &verdict {
            DeliveryVerdict::LostOnWire { .. } => {
                let trace = scenario.trace().expect("tracing enabled");
                let reason = trace.kernel_drop_reason(scenario.network(), &verdict);
                assert_eq!(
                    reason,
                    Some(simnet::DropReason::NodeDown),
                    "the kernel join must name the transport-level cause"
                );
            }
            DeliveryVerdict::DroppedAt { .. } | DeliveryVerdict::NeverRouted { .. } => {
                // Acceptable alternative: the copy died at an instrumented
                // hop before reaching the wire (e.g. the lease was already
                // torn down). The verdict still names the exact hop.
            }
            other => panic!("undelivered copy must be explained, got: {other}"),
        }
    }

    /// A mesh partition at the publisher's home shard loses the other three
    /// shards' copies on the wire. With a 1 024-record ring every one of
    /// them still joins to its kernel drop: the kernel logs drops and
    /// nothing else, so timers and deliveries cannot evict the evidence.
    #[test]
    fn why_missing_joins_every_partitioned_copy_to_its_kernel_drop() {
        let mut scenario = Scenario::build_sharded(
            Flavor::SrTps,
            DisseminationConfig::rendezvous_mesh(4),
            4,
            1,
            24,
            9,
            CostModel::free(),
        );
        scenario.enable_tracing(1024);
        scenario.warm_up();
        let home = scenario
            .shard_of(scenario.publisher_id(0))
            .expect("the publisher holds a lease");
        let others: Vec<NodeId> = scenario
            .rendezvous_ids()
            .iter()
            .copied()
            .filter(|&id| id != home)
            .collect();
        for &other in &others {
            scenario.network_mut().block_pair(home, other);
        }
        scenario.publish_one(0);
        scenario.advance(SimDuration::from_secs(1));
        for &other in &others {
            scenario.network_mut().unblock_pair(home, other);
        }
        scenario.advance(SimDuration::from_secs(60));

        let ids = scenario.traced_ids();
        assert_eq!(ids.len(), 1);
        let trace = scenario.trace().expect("tracing enabled");
        let reasons: Vec<_> = (0..scenario.num_subscribers())
            .map(|index| scenario.why_missing(index, ids[0]))
            .filter(|verdict| matches!(verdict, DeliveryVerdict::LostOnWire { .. }))
            .map(|verdict| trace.kernel_drop_reason(scenario.network(), &verdict))
            .collect();
        assert_eq!(reasons.len(), 18, "three shards of six subscribers are cut off");
        assert!(
            reasons
                .iter()
                .all(|reason| *reason == Some(simnet::DropReason::FaultInjected)),
            "every wire loss joins to the cut: {reasons:?}"
        );
    }

    /// One publisher loses two copies of one event at the same instant for
    /// two reasons: one subscriber is down, the publisher is cut from the
    /// other. Each lost copy joins to the drop of the datagram sent to its
    /// own subscriber, whichever of the two the kernel logged first.
    #[test]
    fn why_missing_joins_each_copy_to_its_own_drop() {
        for dead in 0..2 {
            let cut = 1 - dead;
            let mut scenario = free_scenario(Flavor::SrTps, 1, 2, 9);
            scenario.enable_tracing(4096);
            scenario.warm_up();
            let publisher = scenario.publisher_id(0);
            let (dead_id, cut_id) = (scenario.subscriber_id(dead), scenario.subscriber_id(cut));
            scenario.network_mut().shutdown_node(dead_id);
            scenario.network_mut().block_pair(publisher, cut_id);
            scenario.publish_one(0);
            scenario.advance(SimDuration::from_secs(10));

            let ids = scenario.traced_ids();
            assert_eq!(ids.len(), 1);
            let trace = scenario.trace().expect("tracing enabled");
            let reason = |subscriber: usize| {
                let verdict = scenario.why_missing(subscriber, ids[0]);
                assert!(
                    matches!(verdict, DeliveryVerdict::LostOnWire { .. }),
                    "subscriber {subscriber}'s copy dies in the kernel, got: {verdict}"
                );
                trace.kernel_drop_reason(scenario.network(), &verdict)
            };
            assert_eq!(
                reason(dead),
                Some(simnet::DropReason::NodeDown),
                "subscriber {dead} is down"
            );
            assert_eq!(
                reason(cut),
                Some(simnet::DropReason::FaultInjected),
                "subscriber {cut} is cut from the publisher"
            );
        }
    }

    #[test]
    fn operator_view_renders_metrics_latency_and_timelines() {
        let scenario = traced_run(Flavor::SrTps, 11);
        let view = scenario.operator_view(2);
        assert!(view.contains("== metrics =="));
        assert!(
            view.contains("simnet.datagrams_delivered"),
            "kernel counters are included"
        );
        assert!(view.contains("== delivery latency (virtual ms) =="));
        assert!(view.contains("== event timelines =="));
        assert!(view.contains("published"), "timelines show the publish hop");
        assert!(view.contains("delivered"), "timelines show the delivery hop");
        // The snapshot text comes through MetricsSnapshot::render_text, which
        // is the stable sorted rendering.
        let rendered = scenario.metrics_registry().snapshot().render_text();
        assert!(view.contains(rendered.lines().next().unwrap()));
    }

    #[test]
    fn trace_latency_comparison_reports_every_strategy() {
        let rows = trace_latency_comparison(Flavor::SrTps, 2, 2, 2002);
        assert_eq!(rows.len(), StrategyKind::ALL.len());
        for (kind, summary) in rows {
            assert!(
                summary.count >= 2,
                "{kind}: at least one delivery latency sample per event (got {})",
                summary.count
            );
            assert!(summary.p99 >= summary.p50);
        }
    }
}

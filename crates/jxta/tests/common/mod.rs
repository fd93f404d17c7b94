//! Shared topology scaffolding for the dissemination integration tests:
//! a bare application node that records delivered wire messages, and a
//! builder for LAN topologies with any number of mesh-linked rendezvous
//! peers, publishers and subscribers.

// Each integration-test crate compiles its own copy of this module and uses
// a different subset of it.
#![allow(dead_code)]

use jxta::peer::{lan_mesh, CostModel, JxtaPeer, PeerConfig};
use jxta::telemetry::trace::DeliveryVerdict;
use jxta::{is_jxta_timer, DisseminationConfig, JxtaEvent, Message, MessageElement, PeerId, TraceJoin};
use simnet::{
    Datagram, Network, NetworkBuilder, NodeConfig, NodeContext, NodeId, SimDuration, SimNode, SubnetId,
    TimerToken,
};
use std::collections::HashMap;
use std::rc::Rc;

/// A bare application node recording every wire message delivered to it.
pub struct DeliveryApp {
    pub peer: JxtaPeer,
    pub delivered: Vec<String>,
}

impl DeliveryApp {
    pub fn boxed(config: PeerConfig) -> Box<Self> {
        Box::new(DeliveryApp {
            peer: JxtaPeer::new(config.with_costs(CostModel::free())),
            delivered: Vec::new(),
        })
    }

    fn drain(&mut self) {
        for event in self.peer.take_events() {
            if let JxtaEvent::WireMessageReceived { message, .. } = event {
                if let Some(tag) = message.element_text("app", "tag") {
                    self.delivered.push(tag);
                }
            }
        }
    }
}

impl SimNode for DeliveryApp {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        self.peer.on_start(ctx);
        self.drain();
    }
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dg: Datagram) {
        self.peer.on_datagram(ctx, &dg);
        self.drain();
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _token: TimerToken, tag: u64) {
        if is_jxta_timer(tag) {
            self.peer.on_timer(ctx, tag);
        }
        self.drain();
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A built test topology.
pub struct Topology {
    pub net: Network,
    pub rendezvous: Vec<NodeId>,
    pub publishers: Vec<NodeId>,
    pub subscribers: Vec<NodeId>,
    pub pipe: jxta::PipeAdvertisement,
    trace: Option<TraceJoin>,
}

/// Builds `rendezvous` mesh-seeded rendezvous peers (nodes `0..rendezvous`),
/// then `publishers` and `subscribers` edge peers seeded with every
/// rendezvous address, all running `strategy` on one LAN subnet.
pub fn build(
    strategy: DisseminationConfig,
    rendezvous: usize,
    publishers: usize,
    subscribers: usize,
    seed: u64,
) -> Topology {
    assert!(rendezvous >= 1);
    let lan = || NodeConfig::lan_peer(SubnetId(0));
    let mut builder = NetworkBuilder::new(seed);
    let (rdv_configs, seeds) = lan_mesh(rendezvous, &strategy);
    let rendezvous_ids = rdv_configs
        .into_iter()
        .map(|config| builder.add_node(DeliveryApp::boxed(config), lan()))
        .collect();
    let mut edges = |prefix: &str, count: usize| -> Vec<NodeId> {
        (0..count)
            .map(|i| {
                let config = PeerConfig::edge(format!("{prefix}-{i}"))
                    .with_seeds(seeds.clone())
                    .with_dissemination(strategy.clone());
                builder.add_node(DeliveryApp::boxed(config), lan())
            })
            .collect()
    };
    let publishers = edges("shop", publishers);
    let subscribers = edges("skier", subscribers);
    let group = jxta::PeerGroup::for_event_type("Delivery", PeerId::derive("shop-0"));
    let pipe = group
        .wire_pipe()
        .expect("event-type groups embed a wire pipe")
        .clone();
    Topology {
        net: builder.build(),
        rendezvous: rendezvous_ids,
        publishers,
        subscribers,
        pipe,
        trace: None,
    }
}

impl Topology {
    /// Runs the boot + pipe-binding phase: rendezvous leases, input pipes on
    /// every subscriber, output-pipe resolution on every publisher.
    pub fn warm_up(&mut self) {
        self.net.run_for(SimDuration::from_secs(2));
        let pipe = self.pipe.clone();
        for &subscriber in &self.subscribers {
            self.net.invoke::<DeliveryApp, _>(subscriber, |app, ctx| {
                app.peer.create_wire_input_pipe(ctx, &pipe);
            });
        }
        for &publisher in &self.publishers {
            self.net.invoke::<DeliveryApp, _>(publisher, |app, ctx| {
                app.peer.resolve_wire_output_pipe(ctx, &pipe);
            });
        }
        self.net.run_for(SimDuration::from_secs(5));
    }

    /// Publishes one tagged event from publisher `index` (does not advance
    /// the clock).
    pub fn publish_tag(&mut self, index: usize, tag: &str) {
        let pipe_id = self.pipe.pipe_id;
        let tag = tag.to_owned();
        self.net
            .invoke::<DeliveryApp, _>(self.publishers[index], |app, ctx| {
                let mut message = Message::new();
                message.add(MessageElement::text("app", "tag", tag.clone()));
                app.peer
                    .wire_send(ctx, pipe_id, &message)
                    .expect("publish failed");
            });
    }

    /// Delivery count per tag for subscriber `index`.
    pub fn delivered_counts(&self, index: usize) -> HashMap<String, usize> {
        let app = self
            .net
            .node_ref::<DeliveryApp>(self.subscribers[index])
            .expect("subscriber exists");
        let mut counts = HashMap::new();
        for tag in &app.delivered {
            *counts.entry(tag.clone()).or_insert(0usize) += 1;
        }
        counts
    }

    /// Turns on the causal tracing plane: one shared span collector across
    /// every peer of the topology plus the kernel's own datagram trace ring,
    /// so every subsequently published event can be explained end to end
    /// (see [`Topology::assert_every_copy_explained`]).
    pub fn enable_tracing(&mut self, capacity: usize) {
        let mut trace = TraceJoin::enable(&mut self.net, capacity);
        let all = self
            .rendezvous
            .iter()
            .chain(&self.publishers)
            .chain(&self.subscribers);
        for &id in all {
            let node = self.net.node_mut::<DeliveryApp>(id).expect("node exists");
            node.peer.set_trace_collector(Rc::clone(trace.collector()), false);
            trace.add_node(id, node.peer.trace_node());
        }
        self.trace = Some(trace);
    }

    /// The tracing plane.
    ///
    /// # Panics
    ///
    /// Panics if tracing was not enabled.
    pub fn trace(&self) -> &TraceJoin {
        self.trace.as_ref().expect("tracing not enabled")
    }

    /// The acceptance sweep for the forensics plane: every `(subscriber,
    /// traced event)` copy must end in a *named* outcome — delivered, dropped
    /// at an instrumented hop that recorded the cause itself, or lost in the
    /// kernel with a joinable transport [`DropReason`]. Returns the
    /// `(delivered, undelivered)` copy counts.
    ///
    /// # Panics
    ///
    /// Panics on the first copy whose fate cannot be named (an "unknown
    /// outcome": no spans, never routed, or a wire loss the kernel log
    /// cannot corroborate).
    pub fn assert_every_copy_explained(&self) -> (usize, usize) {
        let trace = self.trace();
        let ids = trace.traced_ids();
        assert!(!ids.is_empty(), "nothing was traced");
        let mut delivered = 0;
        let mut undelivered = 0;
        for index in 0..self.subscribers.len() {
            for &id in &ids {
                let verdict = trace.why_missing(self.subscribers[index], id);
                match &verdict {
                    DeliveryVerdict::Delivered { .. } => delivered += 1,
                    DeliveryVerdict::DroppedAt { .. } => undelivered += 1,
                    DeliveryVerdict::LostOnWire { last_send } => {
                        assert!(
                            trace.kernel_drop_reason(&self.net, &verdict).is_some(),
                            "subscriber {index}, event {id}: copy left hop {} at {}us \
                             but the kernel drop log names no cause",
                            last_send.node,
                            last_send.at_us
                        );
                        undelivered += 1;
                    }
                    DeliveryVerdict::NeverRouted { .. } | DeliveryVerdict::NeverPublished => {
                        panic!("subscriber {index}, event {id}: unexplained outcome: {verdict}")
                    }
                }
            }
        }
        (delivered, undelivered)
    }

    /// The rendezvous *node id* an edge node currently leases with, if any.
    pub fn shard_of(&self, edge: NodeId) -> Option<NodeId> {
        let connected = self
            .net
            .node_ref::<DeliveryApp>(edge)?
            .peer
            .rendezvous()
            .connection()?
            .rdv;
        self.rendezvous.iter().copied().find(|&id| {
            self.net
                .node_ref::<DeliveryApp>(id)
                .is_some_and(|n| n.peer.peer_id() == connected)
        })
    }
}

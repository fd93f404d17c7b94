//! The peer platform: one `JxtaPeer` per simulated device, assembling the
//! endpoint layer, the protocols TPS speaks (PRP, PDP, PBP) and the services
//! into a working stack.
//!
//! The peer is deliberately *not* a [`simnet::SimNode`] itself: applications
//! (the ski-rental apps, the TPS engine) own a `JxtaPeer` and forward their
//! node's `on_start` / `on_datagram` / `on_timer` hooks to it, then drain the
//! [`JxtaEvent`]s it produced. This sans-I/O composition keeps the layering of
//! the paper's Figure 9 (application → TPS → JXTA → network) explicit in the
//! code.

mod rendezvous_role;
mod resolver;
mod send;
mod trace;

pub use trace::{record_spans, trace_handle, SharedTraceCollector};

use crate::adv::PeerAdvertisement;
use crate::endpoint::{EndpointService, WireMessage};
use crate::events::JxtaEvent;
use crate::id::{PeerGroupId, PeerId, QueryId};
use crate::lease::LeasePolicy;
use crate::services::{DiscoveryService, RendezvousService, WireService};
use dissem::RebalanceController;
use simnet::{NodeContext, SimAddress, SimDuration, TransportKind};
use telemetry::MetricsRegistry;

/// Timer tag used by the peer's periodic housekeeping.
pub const TIMER_HOUSEKEEPING: u64 = 0x4A58_0001;

/// Interval of the housekeeping timer: lapsed learned advertisements are
/// purged, the lease is renewed, load is reported, and remote-published
/// advertisements whose refresh is due ([`crate::services::discovery`]) go out.
pub const HOUSEKEEPING_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// Whether a timer tag belongs to the JXTA platform (the owning node should
/// forward it to [`JxtaPeer::on_timer`]).
pub fn is_jxta_timer(tag: u64) -> bool {
    (tag >> 16) == 0x4A58
}

/// Per-message CPU cost model, calibrated so that the reproduced figures land
/// in the same order of magnitude as the paper's JXTA 1.0 / JDK 1.4-beta /
/// Sun Ultra 10 testbed (hundreds of milliseconds per published event, with
/// a large variance).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Fixed cost of decoding any received message.
    pub decode_fixed: SimDuration,
    /// Additional decode cost per payload byte, in microseconds.
    pub decode_per_byte_us: u64,
    /// Fixed cost of encoding and handing a message to the transport.
    pub send_fixed: SimDuration,
    /// Additional send cost per payload byte, in microseconds.
    pub send_per_byte_us: u64,
    /// Cost of servicing one resolved listener connection during a wire
    /// publish (dominates the paper's invocation time).
    pub wire_listener_fixed: SimDuration,
    /// Cost of handling a resolver query (cache search, XML work).
    pub resolver_handle_fixed: SimDuration,
    /// Relative jitter applied to every charged cost (`0.25` = ±25 %).
    pub jitter_fraction: f64,
}

impl CostModel {
    /// The JXTA 1.0-era defaults used by the paper reproduction.
    pub fn jxta_1_0() -> Self {
        CostModel {
            decode_fixed: SimDuration::from_millis(3),
            decode_per_byte_us: 2,
            send_fixed: SimDuration::from_millis(9),
            send_per_byte_us: 4,
            wire_listener_fixed: SimDuration::from_millis(150),
            resolver_handle_fixed: SimDuration::from_millis(6),
            jitter_fraction: 0.25,
        }
    }

    /// A free cost model for functional unit tests where virtual CPU time is
    /// irrelevant.
    pub fn free() -> Self {
        CostModel {
            decode_fixed: SimDuration::ZERO,
            decode_per_byte_us: 0,
            send_fixed: SimDuration::ZERO,
            send_per_byte_us: 0,
            wire_listener_fixed: SimDuration::ZERO,
            resolver_handle_fixed: SimDuration::ZERO,
            jitter_fraction: 0.0,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::jxta_1_0()
    }
}

/// Static configuration of a peer.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerConfig {
    /// Human-readable peer name.
    pub name: String,
    /// Whether this peer offers rendezvous (and relay) service.
    pub rendezvous: bool,
    /// Addresses of seed rendezvous peers an edge peer connects to.
    pub seed_rendezvous: Vec<SimAddress>,
    /// Per-message CPU costs.
    pub costs: CostModel,
    /// How wire publishes are disseminated (see the `dissem` crate). The
    /// default is the paper-faithful direct fan-out.
    pub dissemination: dissem::DisseminationConfig,
}

impl PeerConfig {
    /// Configuration of an ordinary ("edge") peer.
    pub fn edge(name: impl Into<String>) -> Self {
        PeerConfig {
            name: name.into(),
            rendezvous: false,
            seed_rendezvous: Vec::new(),
            costs: CostModel::jxta_1_0(),
            dissemination: dissem::DisseminationConfig::default(),
        }
    }

    /// Configuration of a rendezvous/router peer.
    pub fn rendezvous(name: impl Into<String>) -> Self {
        PeerConfig {
            rendezvous: true,
            ..PeerConfig::edge(name)
        }
    }

    /// Builder-style seed rendezvous addresses.
    pub fn with_seeds(mut self, seeds: Vec<SimAddress>) -> Self {
        self.seed_rendezvous = seeds;
        self
    }

    /// Builder-style cost-model override.
    pub fn with_costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Builder-style dissemination-strategy override.
    pub fn with_dissemination(mut self, dissemination: dissem::DisseminationConfig) -> Self {
        self.dissemination = dissemination;
        self
    }
}

/// The TCP address the `index`-th node added to a fresh one-LAN
/// [`simnet::NetworkBuilder`] receives: hosts are assigned 10.0.0.1 upward in
/// add order, so the addresses are known before the nodes exist.
pub fn lan_address(index: usize) -> SimAddress {
    SimAddress::new(TransportKind::Tcp, 0x0A00_0001 + index as u32, 9701)
}

/// The rendezvous tier of the one-LAN topology every harness builds: `count`
/// rendezvous peers `rdv-0..`, each seeded with all the others (a full mesh)
/// and running `dissemination`. They must be the first nodes added to the
/// network, in order, so that rendezvous `i` sits at [`lan_address`]`(i)`.
/// Returns their configurations and the seed list — every rendezvous
/// address, ascending — the edge peers are configured with.
pub fn lan_mesh(
    count: usize,
    dissemination: &dissem::DisseminationConfig,
) -> (Vec<PeerConfig>, Vec<SimAddress>) {
    let seeds: Vec<SimAddress> = (0..count).map(lan_address).collect();
    let configs = (0..count)
        .map(|i| {
            let others = seeds.iter().copied().filter(|&seed| seed != seeds[i]).collect();
            PeerConfig::rendezvous(format!("rdv-{i}"))
                .with_seeds(others)
                .with_dissemination(dissemination.clone())
        })
        .collect();
    (configs, seeds)
}

/// The JXTA peer platform.
#[derive(Debug)]
pub struct JxtaPeer {
    config: PeerConfig,
    peer_id: PeerId,
    /// The peer group this peer boots into (and advertises): the Net group,
    /// derived once.
    group: PeerGroupId,
    discovery: DiscoveryService,
    rendezvous: RendezvousService,
    wire: WireService,
    endpoint: EndpointService,
    next_query: QueryId,
    events: Vec<JxtaEvent>,
    local_transports: Vec<TransportKind>,
    local_addresses: Vec<SimAddress>,
    rebalance: RebalanceController<PeerId>,
    mailbox_depth: u32,
    tracer: Option<SharedTraceCollector>,
    defer_delivery_spans: bool,
    /// Reusable `(client, address)` buffer for the rendezvous fan-down
    /// loops: taken before the loop, refilled from the lease table, restored
    /// after — so forwarding one event to a 100k-client shard allocates
    /// nothing per event (and nothing per client).
    fanout_scratch: Vec<(PeerId, SimAddress)>,
}

impl JxtaPeer {
    /// Creates a peer whose id is derived deterministically from its name.
    pub fn new(config: PeerConfig) -> Self {
        let peer_id = PeerId::derive(&config.name);
        Self::with_id(config, peer_id)
    }

    /// Creates a peer with an explicit id.
    fn with_id(config: PeerConfig, peer_id: PeerId) -> Self {
        let rendezvous = RendezvousService::with_lease_policy(
            config.rendezvous,
            config.seed_rendezvous.clone(),
            LeasePolicy::full_peer(&config.dissemination),
        );
        JxtaPeer {
            peer_id,
            group: PeerGroupId::net(),
            discovery: DiscoveryService::new(),
            rendezvous,
            wire: WireService::with_config(&config.dissemination),
            endpoint: EndpointService::new(),
            next_query: QueryId(0),
            events: Vec::new(),
            local_transports: Vec::new(),
            local_addresses: Vec::new(),
            rebalance: RebalanceController::new(config.dissemination.rebalance),
            mailbox_depth: 0,
            tracer: None,
            fanout_scratch: Vec::new(),
            defer_delivery_spans: false,
            config,
        }
    }

    /// The peer's stable identifier.
    pub fn peer_id(&self) -> PeerId {
        self.peer_id
    }

    /// The peer's configuration.
    pub fn config(&self) -> &PeerConfig {
        &self.config
    }

    /// The wire service (read access).
    pub fn wire(&self) -> &WireService {
        &self.wire
    }

    /// The rendezvous service (read access).
    pub fn rendezvous(&self) -> &RendezvousService {
        &self.rendezvous
    }

    /// The endpoint/route table (read access).
    pub fn endpoint(&self) -> &EndpointService {
        &self.endpoint
    }

    /// Drains the events produced since the last call.
    pub fn take_events(&mut self) -> Vec<JxtaEvent> {
        std::mem::take(&mut self.events)
    }

    /// Reports the application-layer mailbox depth the next outgoing
    /// [`telemetry::LoadReport`] should carry (the TPS engine sets this from
    /// its session mailbox at every pump; zero where no mailbox exists).
    pub fn set_mailbox_depth(&mut self, depth: u32) {
        self.mailbox_depth = depth;
    }

    /// Exports this peer's counters into a metrics registry under
    /// `<prefix>.*`: wire and rendezvous service counters, mesh state, and
    /// (rendezvous role) one `shard<i>.*` group per load-table row, keyed
    /// by ring position — the per-shard relay counts of the telemetry plane.
    pub fn export_metrics(&self, registry: &mut MetricsRegistry, prefix: &str) {
        let (sent, received, duplicates) = self.wire.counters();
        registry.set_counter(format!("{prefix}.wire.sent"), sent);
        registry.set_counter(format!("{prefix}.wire.received"), received);
        registry.set_counter(format!("{prefix}.wire.duplicates"), duplicates);
        registry.set_counter(format!("{prefix}.wire.forwarded"), self.wire.forwarded());
        let (propagated, rdv_duplicates, clients) = self.rendezvous.counters();
        registry.set_counter(format!("{prefix}.rdv.propagated"), propagated);
        registry.set_counter(format!("{prefix}.rdv.duplicates"), rdv_duplicates);
        registry.set_gauge(format!("{prefix}.rdv.clients"), clients as i64);
        registry.set_gauge(
            format!("{prefix}.rdv.mesh_links"),
            self.rendezvous.mesh_degree() as i64,
        );
        registry.set_counter(
            format!("{prefix}.rdv.mesh_hellos"),
            self.rendezvous.mesh_hellos_sent(),
        );
        registry.set_gauge(format!("{prefix}.mailbox_depth"), i64::from(self.mailbox_depth));
        if self.rendezvous.is_rendezvous() {
            let ring = self.shard_ring();
            for (peer, entry) in self.rendezvous.load_table() {
                let shard = ring
                    .iter()
                    .position(|&a| a == entry.address)
                    .map_or_else(|| peer.to_string(), |i| i.to_string());
                registry.set_counter(
                    format!("{prefix}.shard{shard}.relayed"),
                    entry.report.events_relayed,
                );
                registry.set_gauge(
                    format!("{prefix}.shard{shard}.leases"),
                    i64::from(entry.report.lease_count),
                );
                registry.set_gauge(
                    format!("{prefix}.shard{shard}.dead"),
                    i64::from(self.rebalance.is_dead(peer)),
                );
            }
        }
    }

    /// The peer's own advertisement, reflecting its current addresses.
    pub fn peer_advertisement(&self, ctx: &NodeContext<'_>) -> PeerAdvertisement {
        let endpoints: Vec<SimAddress> = ctx
            .local_addresses()
            .iter()
            .copied()
            .filter(|a| a.transport.is_point_to_point())
            .collect();
        PeerAdvertisement::new(self.peer_id, self.config.name.clone(), self.group)
            .with_endpoints(endpoints)
            .with_rendezvous(self.config.rendezvous)
    }

    // ------------------------------------------------------------------
    // lifecycle hooks (called by the owning SimNode)
    // ------------------------------------------------------------------

    /// Must be called from the owning node's `on_start`.
    pub fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        self.local_transports = ctx.local_addresses().iter().map(|a| a.transport).collect();
        self.local_addresses = ctx.local_addresses().to_vec();
        self.discovery.publish_local(self.peer_advertisement(ctx).into());
        self.connect_to_rendezvous(ctx, true);
        ctx.set_timer(HOUSEKEEPING_INTERVAL, TIMER_HOUSEKEEPING);
    }

    /// Must be called from the owning node's `on_timer` for JXTA timer tags
    /// (see [`is_jxta_timer`]). Returns `true` if the tag was consumed.
    pub fn on_timer(&mut self, ctx: &mut NodeContext<'_>, tag: u64) -> bool {
        if tag != TIMER_HOUSEKEEPING {
            return false;
        }
        let now = ctx.now();
        let refreshes_due = self.discovery.housekeep(now);
        self.rendezvous.prune(now);
        // The lease tick may abandon a dead home: it precedes the load
        // report (which must not go to the abandoned rendezvous), and the
        // reconnect it asks for happens in this same tick. The load-report
        // plane and the rebalancing controller piggyback on the tick too.
        let connect_due = self.rendezvous.lease_mut().tick(now);
        self.housekeep_load_plane(ctx);
        if connect_due {
            self.connect_to_rendezvous(ctx, false);
        }
        // After the lease tick, as the load report: never to an abandoned home.
        for adv_xml in refreshes_due {
            self.push(ctx, adv_xml, true);
        }
        ctx.set_timer(HOUSEKEEPING_INTERVAL, TIMER_HOUSEKEEPING);
        true
    }

    /// Must be called from the owning node's `on_address_changed`.
    ///
    /// Remote-publishes the peer advertisement so that other peers' pipe
    /// bindings converge on the new addresses — the Pipe Binding Protocol
    /// scenario of the paper's Figure 5.
    pub fn on_address_changed(&mut self, ctx: &mut NodeContext<'_>, _old: SimAddress, _new: SimAddress) {
        let adv = self.peer_advertisement(ctx);
        self.remote_publish(ctx, adv.into());
        // Re-establish the rendezvous lease from the new address.
        self.local_addresses = ctx.local_addresses().to_vec();
        self.connect_to_rendezvous(ctx, true);
    }

    /// Must be called from the owning node's `on_datagram`.
    pub fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, datagram: &simnet::Datagram) {
        self.charge_decode(ctx, datagram.payload.len());
        // Not JXTA traffic → ignore, as a real stack would.
        let Ok(message) = WireMessage::from_bytes(&datagram.payload) else {
            return;
        };
        let reply_addr = if datagram.src_addr.is_multicast() {
            None
        } else {
            Some(datagram.src_addr)
        };
        self.handle_wire_message(ctx, message, reply_addr);
    }

    // ------------------------------------------------------------------
    // internals: inbound dispatch
    // ------------------------------------------------------------------

    fn handle_wire_message(
        &mut self,
        ctx: &mut NodeContext<'_>,
        message: WireMessage,
        reply_addr: Option<SimAddress>,
    ) {
        match message {
            WireMessage::ResolverQuery(query) => self.handle_resolver_query(ctx, query),
            WireMessage::ResolverResponse(response) => self.handle_resolver_response(ctx, response),
            WireMessage::RendezvousConnect { peer } => self.handle_rdv_connect(ctx, peer, reply_addr),
            WireMessage::MeshLink { peer, ack } => self.handle_mesh_link(ctx, peer, ack, reply_addr),
            WireMessage::RendezvousLease {
                rdv,
                granted,
                lease_ms,
            } => self.handle_rdv_lease(ctx, rdv, granted, lease_ms, reply_addr),
            WireMessage::Publish { adv_xml, src_peer } => self.handle_publish(ctx, &adv_xml, src_peer),
            WireMessage::LoadReport { peer, report } => self.handle_load_report(ctx, peer, report),
            WireMessage::WireData(packet) => self.handle_wire_data(ctx, packet),
            WireMessage::Relay { dest, inner } => self.handle_relay(ctx, dest, inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adv::AdvKind;
    use crate::cm::SearchFilter;
    use crate::error::JxtaError;
    use crate::id::PipeId;
    use crate::message::{Message, MessageElement};
    use crate::peergroup::PeerGroup;
    use simnet::{
        Datagram, Network, NetworkBuilder, NodeConfig, NodeId, SimNode, SimTime, SubnetId, TimerToken,
    };

    /// Minimal application node wrapping a bare `JxtaPeer`, used to exercise
    /// the platform end-to-end on a simulated network.
    struct TestApp {
        peer: JxtaPeer,
        events: Vec<JxtaEvent>,
    }

    impl TestApp {
        fn new(config: PeerConfig) -> Self {
            TestApp {
                peer: JxtaPeer::new(config.with_costs(CostModel::free())),
                events: Vec::new(),
            }
        }
        fn drain(&mut self) {
            self.events.extend(self.peer.take_events());
        }
    }

    impl SimNode for TestApp {
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
        fn on_address_changed(&mut self, ctx: &mut NodeContext<'_>, old: SimAddress, new: SimAddress) {
            self.peer.on_address_changed(ctx, old, new);
            self.drain();
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Builds a network with one rendezvous and `edges` edge peers, all on
    /// the same subnet, seeded to the rendezvous.
    fn build_network(edges: usize) -> (Network, NodeId, Vec<NodeId>) {
        let mut builder = NetworkBuilder::new(42);
        let rdv_id = builder.add_node(
            Box::new(TestApp::new(PeerConfig::rendezvous("rdv"))),
            NodeConfig::lan_peer(SubnetId(0)),
        );
        let mut net_partial = Vec::new();
        let rdv_addr = lan_address(0);
        for i in 0..edges {
            let config = PeerConfig::edge(format!("edge-{i}")).with_seeds(vec![rdv_addr]);
            let id = builder.add_node(Box::new(TestApp::new(config)), NodeConfig::lan_peer(SubnetId(0)));
            net_partial.push(id);
        }
        (builder.build(), rdv_id, net_partial)
    }

    fn events_of(net: &Network, node: NodeId) -> Vec<JxtaEvent> {
        net.node_ref::<TestApp>(node).unwrap().events.clone()
    }

    #[test]
    fn edge_peers_obtain_rendezvous_leases() {
        let (mut net, rdv, edges) = build_network(2);
        net.run_for(SimDuration::from_secs(2));
        for edge in &edges {
            let connected = events_of(&net, *edge)
                .iter()
                .any(|e| matches!(e, JxtaEvent::RendezvousConnected { .. }));
            assert!(connected, "edge peer {edge} never connected to the rendezvous");
        }
        let rdv_app = net.node_ref::<TestApp>(rdv).unwrap();
        assert_eq!(rdv_app.peer.rendezvous().counters().2, 2);
    }

    #[test]
    fn remote_discovery_finds_advertisements_published_elsewhere() {
        let (mut net, _rdv, edges) = build_network(2);
        net.run_for(SimDuration::from_secs(2));
        let publisher = edges[0];
        let searcher = edges[1];

        // The publisher creates a ps- group advertisement and caches it
        // locally only, so the rendezvous must walk the query to find it.
        let group = PeerGroup::for_event_type("SkiRental", PeerId::derive("edge-0"));
        net.invoke::<TestApp, _>(publisher, |app, ctx| {
            app.peer.publish_local(ctx, group.advertisement().clone().into());
        });
        // The searcher issues a remote discovery query for ps-* groups.
        net.invoke::<TestApp, _>(searcher, |app, ctx| {
            app.peer
                .discover_remote(ctx, AdvKind::Group, SearchFilter::by_name("ps-*"), 10);
        });
        net.run_for(SimDuration::from_secs(5));

        let found = events_of(&net, searcher).iter().any(|e| match e {
            JxtaEvent::AdvertisementDiscovered { adv, .. } => adv.display_name() == "ps-SkiRental",
            _ => false,
        });
        assert!(
            found,
            "searcher never discovered the ps-SkiRental group advertisement"
        );
    }

    #[test]
    fn wire_pipe_resolution_and_publication_deliver_events() {
        let (mut net, _rdv, edges) = build_network(2);
        net.run_for(SimDuration::from_secs(2));
        let subscriber = edges[0];
        let publisher = edges[1];
        let group = PeerGroup::for_event_type("SkiRental", PeerId::derive("edge-1"));
        let pipe = group.wire_pipe().unwrap().clone();

        net.invoke::<TestApp, _>(subscriber, |app, ctx| {
            app.peer.create_wire_input_pipe(ctx, &pipe);
        });
        net.invoke::<TestApp, _>(publisher, |app, ctx| {
            app.peer.resolve_wire_output_pipe(ctx, &pipe);
        });
        net.run_for(SimDuration::from_secs(5));

        // The publisher resolved the subscriber as a listener.
        let resolved = events_of(&net, publisher)
            .iter()
            .any(|e| matches!(e, JxtaEvent::PipeResolved { .. }));
        assert!(resolved, "output pipe never resolved a listener");
        assert_eq!(
            net.node_ref::<TestApp>(publisher)
                .unwrap()
                .peer
                .wire_listener_count(pipe.pipe_id),
            1
        );

        // Publishing reaches the subscriber.
        let mut message = Message::new();
        message.add(MessageElement::text("app", "offer", "Salomon, 14 CHF/day"));
        let sent = net.invoke::<TestApp, _>(publisher, |app, ctx| {
            app.peer.wire_send(ctx, pipe.pipe_id, &message).unwrap()
        });
        assert_eq!(sent, 1);
        net.run_for(SimDuration::from_secs(3));
        let received = events_of(&net, subscriber).iter().any(|e| match e {
            JxtaEvent::WireMessageReceived { message: m, .. } => {
                m.element_text("app", "offer").as_deref() == Some("Salomon, 14 CHF/day")
            }
            _ => false,
        });
        assert!(received, "subscriber never received the wire message");
    }

    /// A rendezvous used to fan a discovery query it could not parse down to
    /// every client: one hostile datagram became one per lease, for a query
    /// nobody downstream could answer either.
    #[test]
    fn a_rendezvous_drops_a_discovery_query_it_cannot_parse() {
        use crate::protocols::pdp::DiscoveryQuery;
        use crate::protocols::prp::ResolverQuery;
        use crate::protocols::{handlers, ProtocolPayload};

        let clients = 5;
        let (mut net, rdv, _edges) = build_network(clients);
        net.run_for(SimDuration::from_secs(2));
        let outsider = PeerAdvertisement::new(PeerId::derive("outsider"), "outsider", PeerGroupId::world());
        let mut sent_for = |id: u64, body: String| {
            let query = ResolverQuery::new(handlers::PDP, QueryId(id), outsider.peer_id, body);
            let before = net.stats_of(rdv).datagrams_sent;
            net.invoke::<TestApp, _>(rdv, |app, ctx| app.peer.handle_resolver_query(ctx, query));
            net.stats_of(rdv).datagrams_sent - before
        };
        assert_eq!(
            sent_for(1, "<jxta:DiscoveryQuery><Kind>GROUP</Kind".to_owned()),
            0
        );
        assert_eq!(sent_for(2, "not xml at all".to_owned()), 0);
        // A well-formed query the local index cannot answer is still walked
        // to every client, as before.
        let unknown = DiscoveryQuery::new(
            AdvKind::Group,
            SearchFilter::by_name("nobody-*"),
            10,
            outsider.clone(),
        );
        assert_eq!(sent_for(3, unknown.to_xml_string()), clients as u64);
    }

    /// A rendezvous used to walk every non-discovery query to every client,
    /// whatever its handler: one datagram naming a protocol nobody serves
    /// became one per lease.
    #[test]
    fn a_rendezvous_drops_a_query_for_a_handler_it_does_not_serve() {
        use crate::protocols::pbp::PipeBindQuery;
        use crate::protocols::prp::ResolverQuery;
        use crate::protocols::{handlers, ProtocolPayload};

        let clients = 5;
        let (mut net, rdv, _edges) = build_network(clients);
        net.run_for(SimDuration::from_secs(2));
        let outsider = PeerId::derive("outsider");
        let bind = PipeBindQuery {
            pipe_id: PipeId::derive("ski"),
            requester: outsider,
        }
        .to_xml_string();
        let mut sent_for = |id: u64, handler: &str| {
            let query = ResolverQuery::new(handler, QueryId(id), outsider, bind.clone());
            let before = net.stats_of(rdv).datagrams_sent;
            net.invoke::<TestApp, _>(rdv, |app, ctx| app.peer.handle_resolver_query(ctx, query));
            net.stats_of(rdv).datagrams_sent - before
        };
        assert_eq!(sent_for(1, "urn:jxta:handler-PMP"), 0);
        assert_eq!(sent_for(2, "urn:jxta:handler-bogus"), 0);
        // A pipe-binding query is still walked to every client: its answer
        // lives on the listeners, not in the rendezvous index.
        assert_eq!(sent_for(3, handlers::PBP), clients as u64);
    }

    #[test]
    fn housekeeping_timer_keeps_running() {
        let (mut net, rdv, _edges) = build_network(0);
        net.run_until(SimTime::from_secs(120));
        // After two minutes the housekeeping timer has fired several times.
        assert!(net.stats_of(rdv).timers_fired >= 3);
    }

    #[test]
    fn shard_ring_truncates_to_the_configured_mesh_shards() {
        // The edge failover walks `seeds[(home + attempts) % mesh_shards]`,
        // so the adoption ring must stop at the same boundary: rendezvous
        // beyond the shard count never serve a hash range.
        let seeds: Vec<SimAddress> = (0..3)
            .map(|i| SimAddress::new(TransportKind::Tcp, 0x0A00_0010 + i, 9701))
            .collect();
        let meshy = JxtaPeer::new(
            PeerConfig::rendezvous("rdv-extra")
                .with_seeds(seeds.clone())
                .with_dissemination(dissem::DisseminationConfig::rendezvous_mesh(2)),
        );
        assert_eq!(meshy.shard_ring(), seeds[..2].to_vec());
        let direct = JxtaPeer::new(
            PeerConfig::rendezvous("rdv-direct")
                .with_seeds(seeds.clone())
                .with_dissemination(dissem::DisseminationConfig::direct_fanout()),
        );
        assert_eq!(
            direct.shard_ring(),
            seeds,
            "non-mesh strategies keep the full ring"
        );
    }

    #[test]
    fn wire_send_without_output_pipe_errors() {
        let (mut net, _rdv, edges) = build_network(1);
        net.run_for(SimDuration::from_secs(1));
        let publisher = edges[0];
        let err = net.invoke::<TestApp, _>(publisher, |app, ctx| {
            app.peer.wire_send(ctx, PipeId::derive("nope"), &Message::new())
        });
        assert!(matches!(err, Err(JxtaError::UnknownPipe(_))));
    }
}

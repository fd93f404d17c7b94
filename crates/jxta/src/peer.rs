//! The peer platform: one `JxtaPeer` per simulated device, assembling the
//! endpoint layer, the six protocols and the services into a working stack.
//!
//! The peer is deliberately *not* a [`simnet::SimNode`] itself: applications
//! (the ski-rental apps, the TPS engine) own a `JxtaPeer` and forward their
//! node's `on_start` / `on_datagram` / `on_timer` hooks to it, then drain the
//! [`JxtaEvent`]s it produced. This sans-I/O composition keeps the layering of
//! the paper's Figure 9 (application → TPS → JXTA → network) explicit in the
//! code.

use crate::adv::{AdvKind, AnyAdvertisement, PeerAdvertisement, PeerGroupAdvertisement, PipeAdvertisement};
use crate::cm::SearchFilter;
use crate::endpoint::{first_local, EndpointService, WireMessage, WirePacket};
use crate::error::JxtaError;
use crate::events::JxtaEvent;
use crate::id::{PeerGroupId, PeerId, PipeId, QueryId, Uuid};
use crate::lease::LeasePolicy;
use crate::message::Message;
use crate::protocols::erp::{RouteQuery, RouteResponse};
use crate::protocols::pbp::{PipeBindQuery, PipeBindResponse};
use crate::protocols::pdp::{DiscoveryQuery, DiscoveryResponse};
use crate::protocols::pip::{PeerInfoResponse, PingQuery};
use crate::protocols::pmp::{
    Credential, MembershipOp, MembershipQuery, MembershipResponse, MembershipVerdict,
};
use crate::protocols::prp::{ResolverQuery, ResolverResponse, DEFAULT_HOPS};
use crate::protocols::{handlers, ProtocolPayload};
use crate::services::{
    DiscoveryService, MembershipService, MembershipState, PeerInfoService, RendezvousService, WireService,
};
use bytes::Bytes;
use dissem::{RebalanceController, RebalanceEvent};
use rand::Rng;
use simnet::{NodeContext, SimAddress, SimDuration, SimTime, TransportKind};
use std::cell::RefCell;
use std::rc::Rc;
use telemetry::trace::{DropCause, SpanKind, TraceCollector, TraceId, TraceSpan, BROADCAST};
use telemetry::{LoadReport, MetricsRegistry};

/// The trace collector shared by every instrumented layer of one simulated
/// deployment. The simulator is single-threaded, so plain `Rc<RefCell<..>>`
/// sharing is enough; a peer holding `None` pays nothing for tracing.
pub type SharedTraceCollector = Rc<RefCell<TraceCollector>>;

/// Folds a 128-bit peer id into the 64-bit trace handle used by
/// [`telemetry::trace`] spans. Deterministic, and never the reserved
/// [`BROADCAST`] handle.
pub fn trace_handle(peer: PeerId) -> u64 {
    let raw = peer.0 .0;
    let folded = ((raw >> 64) as u64) ^ (raw as u64);
    if folded == BROADCAST {
        1
    } else {
        folded
    }
}

/// Records one `kind` span at `peer` for each traced event id — the one
/// span-writing routine of every instrumented layer (this peer, the TPS
/// engine above it).
pub fn record_spans(
    tracer: &SharedTraceCollector,
    peer: PeerId,
    now: SimTime,
    ids: &[TraceId],
    kind: SpanKind,
) {
    let node = trace_handle(peer);
    let mut tracer = tracer.borrow_mut();
    for id in ids {
        tracer.record(TraceSpan {
            id: *id,
            at_us: now.as_micros(),
            node,
            kind,
        });
    }
}

/// Timer tag used by the peer's periodic housekeeping.
pub const TIMER_HOUSEKEEPING: u64 = 0x4A58_0001;

/// Interval of the housekeeping timer (cache expiry, lease renewal,
/// advertisement re-publication, load reports).
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
    membership: MembershipService,
    endpoint: EndpointService,
    info: PeerInfoService,
    next_query: QueryId,
    events: Vec<JxtaEvent>,
    started: bool,
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
    pub fn with_id(config: PeerConfig, peer_id: PeerId) -> Self {
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
            membership: MembershipService::new(),
            endpoint: EndpointService::new(),
            info: PeerInfoService::new(),
            next_query: QueryId(0),
            events: Vec::new(),
            started: false,
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

    /// Whether `on_start` has run.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// The discovery service (read access).
    pub fn discovery(&self) -> &DiscoveryService {
        &self.discovery
    }

    /// The wire service (read access).
    pub fn wire(&self) -> &WireService {
        &self.wire
    }

    /// The rendezvous service (read access).
    pub fn rendezvous(&self) -> &RendezvousService {
        &self.rendezvous
    }

    /// The membership service (read access).
    pub fn membership(&self) -> &MembershipService {
        &self.membership
    }

    /// The endpoint/route table (read access).
    pub fn endpoint(&self) -> &EndpointService {
        &self.endpoint
    }

    /// The peer information service (read access).
    pub fn info(&self) -> &PeerInfoService {
        &self.info
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

    /// Installs a shared [`TraceCollector`] so every copy of every wire
    /// message this peer touches records causal [`TraceSpan`]s. Off by
    /// default; a peer without a collector skips all span bookkeeping.
    ///
    /// With `defer_delivery` set, the peer records every hop span *except*
    /// the terminal `Delivered` / duplicate-drop spans: a layer above (the
    /// TPS engine, which runs its own cross-pipe event-id dedup) takes over
    /// that responsibility so each copy gets exactly one verdict span.
    pub fn set_trace_collector(&mut self, tracer: SharedTraceCollector, defer_delivery: bool) {
        tracer
            .borrow_mut()
            .register_node(trace_handle(self.peer_id), self.config.name.clone());
        self.tracer = Some(tracer);
        self.defer_delivery_spans = defer_delivery;
    }

    /// This peer's 64-bit trace handle (see [`trace_handle`]).
    pub fn trace_node(&self) -> u64 {
        trace_handle(self.peer_id)
    }

    /// Records one span for each traced event id, if tracing is on.
    fn record_spans(&self, now: SimTime, ids: &[TraceId], kind: SpanKind) {
        if let Some(tracer) = &self.tracer {
            record_spans(tracer, self.peer_id, now, ids, kind);
        }
    }

    /// Records that this copy of each traced event died here, and why.
    fn record_drop(&self, now: SimTime, ids: &[TraceId], cause: DropCause) {
        self.record_spans(now, ids, SpanKind::Dropped { cause });
    }

    /// Classifies a unicast wire copy headed for `peer`: across the
    /// rendezvous mesh, down a client lease, or a plain point-to-point hop.
    fn classify_send(&self, peer: PeerId) -> SpanKind {
        let to = trace_handle(peer);
        if self.rendezvous.has_mesh_link(peer) {
            SpanKind::MeshRelay { to }
        } else if self.rendezvous.is_rendezvous() && self.rendezvous.has_client(peer) {
            SpanKind::FanDown { to }
        } else {
            SpanKind::WireOut { to }
        }
    }

    /// The first point-to-point address this peer listens on, if started.
    fn primary_address(&self) -> Option<SimAddress> {
        self.local_addresses
            .iter()
            .copied()
            .find(|a| a.transport.is_point_to_point())
    }

    /// The deployment's shard ring: every rendezvous address (this peer's
    /// own plus its seeds), ascending, truncated to the configured
    /// `mesh_shards` under the mesh strategy. Builders hand out seed lists
    /// in ascending address order, so this ring matches the seed list the
    /// edges hash and fail over on — including the truncation: an edge's
    /// connect target is always `seeds[(home + attempts) % shards]`, so
    /// rendezvous beyond the shard count never serve a hash range and must
    /// not appear in the adoption ring either.
    pub fn shard_ring(&self) -> Vec<SimAddress> {
        let mut ring: Vec<SimAddress> = self
            .rendezvous
            .seed_addresses()
            .iter()
            .copied()
            .filter(|a| a.transport.is_point_to_point())
            .chain(self.primary_address())
            .collect();
        ring.sort();
        ring.dedup();
        if self.config.dissemination.kind == dissem::StrategyKind::RendezvousMesh {
            ring.truncate(self.config.dissemination.mesh_shards.max(1));
        }
        ring
    }

    /// The shard indices this rendezvous currently serves: its own, plus
    /// every dead shard whose ring adopter it is (the deterministic rule of
    /// [`dissem::adopter_of`]). Edges walking their failover ring land on
    /// exactly these shards' leases. Empty on edge peers.
    pub fn owned_shards(&self) -> Vec<usize> {
        if !self.rendezvous.is_rendezvous() {
            return Vec::new();
        }
        let ring = self.shard_ring();
        let Some(own_addr) = self.primary_address() else {
            return Vec::new();
        };
        let Some(own_index) = ring.iter().position(|&a| a == own_addr) else {
            return Vec::new();
        };
        let alive: Vec<bool> = ring
            .iter()
            .map(|&addr| {
                if addr == own_addr {
                    return true;
                }
                // A shard is dead only when the controller says so; a seed
                // we never heard from at all is treated optimistically (it
                // may simply not have booted yet).
                !self.peer_at(addr).is_some_and(|p| self.rebalance.is_dead(p))
            })
            .collect();
        dissem::adoption_map(&alive)
            .into_iter()
            .enumerate()
            .filter(|&(_, owner)| owner == Some(own_index))
            .map(|(index, _)| index)
            .collect()
    }

    /// The dead shards' hash ranges this rendezvous has adopted (its
    /// [`JxtaPeer::owned_shards`] minus its own).
    pub fn adopted_shards(&self) -> Vec<usize> {
        let ring = self.shard_ring();
        let own_index = self
            .primary_address()
            .and_then(|own| ring.iter().position(|&a| a == own));
        self.owned_shards()
            .into_iter()
            .filter(|&index| Some(index) != own_index)
            .collect()
    }

    /// The fellow rendezvous the controller currently considers dead.
    pub fn dead_shards(&self) -> Vec<PeerId> {
        self.rebalance.dead_peers()
    }

    /// The rendezvous peer known to live at `addr`, from the mesh links or
    /// the load table (which outlives link removal).
    fn peer_at(&self, addr: SimAddress) -> Option<PeerId> {
        self.rendezvous
            .mesh_links()
            .into_iter()
            .find(|&(_, link)| link == addr)
            .map(|(peer, _)| peer)
            .or_else(|| {
                self.rendezvous
                    .load_table()
                    .into_iter()
                    .find(|(_, entry)| entry.address == addr)
                    .map(|(peer, _)| peer)
            })
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
        self.started = true;
        self.info.start(ctx.now());
        self.local_transports = ctx.local_addresses().iter().map(|a| a.transport).collect();
        self.local_addresses = ctx.local_addresses().to_vec();
        let own_adv: AnyAdvertisement = self.peer_advertisement(ctx).into();
        self.discovery.publish_local(own_adv, ctx.now());
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
        self.discovery.expire(now);
        self.rendezvous.prune(now);
        // Refresh our own advertisement locally so it never ages out.
        let own_adv: AnyAdvertisement = self.peer_advertisement(ctx).into();
        self.discovery.publish_local(own_adv, now);
        // The lease tick may abandon a dead home: it precedes the load
        // report (which must not go to the abandoned rendezvous), and the
        // reconnect it asks for happens in this same tick. The load-report
        // plane and the rebalancing controller piggyback on the tick too.
        let connect_due = self.rendezvous.lease_mut().tick(now);
        self.housekeep_load_plane(ctx);
        if connect_due {
            self.connect_to_rendezvous(ctx, false);
        }
        ctx.set_timer(HOUSEKEEPING_INTERVAL, TIMER_HOUSEKEEPING);
        true
    }

    /// Must be called from the owning node's `on_address_changed`.
    ///
    /// Re-publishes the peer advertisement (locally and to the network) so
    /// that other peers' pipe bindings converge on the new addresses — the
    /// Pipe Binding Protocol scenario of the paper's Figure 5.
    pub fn on_address_changed(&mut self, ctx: &mut NodeContext<'_>, _old: SimAddress, _new: SimAddress) {
        let adv = self.peer_advertisement(ctx);
        self.discovery.publish_local(adv.clone().into(), ctx.now());
        let wm = WireMessage::Publish {
            adv_xml: AnyAdvertisement::from(adv).to_xml_string(),
            src_peer: self.peer_id,
        };
        self.propagate(ctx, &wm, None);
        // Re-establish the rendezvous lease from the new address.
        self.local_addresses = ctx.local_addresses().to_vec();
        self.connect_to_rendezvous(ctx, true);
    }

    /// Must be called from the owning node's `on_datagram`.
    pub fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, datagram: &simnet::Datagram) {
        self.info.note_received(datagram.payload.len());
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
    // public operations (discovery)
    // ------------------------------------------------------------------

    /// Publishes an advertisement to the local cache only
    /// (`DiscoveryService.publish`).
    pub fn publish_local(&mut self, ctx: &NodeContext<'_>, adv: AnyAdvertisement) -> bool {
        self.discovery.publish_local(adv, ctx.now())
    }

    /// Publishes an advertisement locally *and* pushes it to the network
    /// (`DiscoveryService.remotePublish`).
    pub fn remote_publish(&mut self, ctx: &mut NodeContext<'_>, adv: AnyAdvertisement) {
        self.discovery.publish_local(adv.clone(), ctx.now());
        let wm = WireMessage::Publish {
            adv_xml: adv.to_xml_string(),
            src_peer: self.peer_id,
        };
        self.propagate(ctx, &wm, None);
    }

    /// Searches the local cache (`getLocalAdvertisements`).
    pub fn local_advertisements(
        &self,
        ctx: &NodeContext<'_>,
        kind: AdvKind,
        filter: &SearchFilter,
    ) -> Vec<AnyAdvertisement> {
        self.discovery.local(kind, filter, ctx.now())
    }

    /// Sends a remote discovery query (`getRemoteAdvertisements`), returning
    /// the query id. Matching advertisements arrive later as
    /// [`JxtaEvent::AdvertisementDiscovered`] events.
    pub fn discover_remote(
        &mut self,
        ctx: &mut NodeContext<'_>,
        kind: AdvKind,
        filter: SearchFilter,
        threshold: usize,
    ) -> QueryId {
        let dq = DiscoveryQuery::new(kind, filter, threshold, self.peer_advertisement(ctx));
        let (query_id, wm) = self.new_query(handlers::PDP, dq.to_xml_string());
        self.discovery.note_query_sent();
        self.propagate(ctx, &wm, None);
        query_id
    }

    /// Discards cached advertisements (`flushAdvertisements`).
    pub fn flush_advertisements(&mut self, kind: Option<AdvKind>) {
        self.discovery.flush(kind);
    }

    // ------------------------------------------------------------------
    // public operations (groups, membership)
    // ------------------------------------------------------------------

    /// Registers a group this peer created: it becomes the group's membership
    /// authority and the advertisement is published locally.
    pub fn author_group(&mut self, ctx: &NodeContext<'_>, adv: &PeerGroupAdvertisement) {
        self.membership.author_group(adv);
        self.discovery.publish_local(adv.clone().into(), ctx.now());
    }

    /// Applies for membership of a group (PMP `apply`): asks the group's
    /// creator for its credential requirements.
    pub fn membership_apply(&mut self, ctx: &mut NodeContext<'_>, group: &PeerGroupAdvertisement) -> QueryId {
        self.membership_request(ctx, group, MembershipOp::Apply, MembershipState::Applied)
    }

    /// Joins a group (PMP `join`) presenting a credential.
    pub fn membership_join(
        &mut self,
        ctx: &mut NodeContext<'_>,
        group: &PeerGroupAdvertisement,
        credential: Credential,
    ) -> QueryId {
        self.membership_request(
            ctx,
            group,
            MembershipOp::Join(credential),
            MembershipState::Joining,
        )
    }

    /// Leaves a group (PMP `leave`).
    pub fn membership_leave(&mut self, ctx: &mut NodeContext<'_>, group: &PeerGroupAdvertisement) -> QueryId {
        self.membership_request(ctx, group, MembershipOp::Leave, MembershipState::Applied)
    }

    fn membership_request(
        &mut self,
        ctx: &mut NodeContext<'_>,
        group: &PeerGroupAdvertisement,
        op: MembershipOp,
        pending: MembershipState,
    ) -> QueryId {
        let query = MembershipQuery {
            group_id: group.group_id,
            applicant: self.peer_id,
            op,
        };
        let (query_id, wm) = self.new_query(handlers::PMP, query.to_xml_string());
        // If we are the authority ourselves, short-circuit locally.
        if self.membership.is_authority_for(group.group_id) {
            let verdict = self.evaluate_membership(&query);
            self.apply_membership_verdict(ctx.now(), group.group_id, &verdict);
            self.events.push(JxtaEvent::MembershipResult {
                group: group.group_id,
                verdict,
            });
            return query_id;
        }
        self.membership.set_state(group.group_id, pending, ctx.now());
        self.send_or_propagate(ctx, group.creator, &wm);
        query_id
    }

    // ------------------------------------------------------------------
    // public operations (pipes / wire)
    // ------------------------------------------------------------------

    /// Creates a local input (listening) end of a wire pipe and publishes the
    /// pipe advertisement locally so PBP queries can find it.
    pub fn create_wire_input_pipe(&mut self, ctx: &NodeContext<'_>, pipe: &PipeAdvertisement) -> bool {
        self.discovery.publish_local(pipe.clone().into(), ctx.now());
        self.wire.create_input_pipe(pipe.pipe_id)
    }

    /// Closes the local input end of a wire pipe.
    pub fn close_wire_input_pipe(&mut self, pipe_id: PipeId) {
        self.wire.close_input_pipe(pipe_id);
    }

    /// Creates (or refreshes) the output end of a wire pipe and launches a
    /// Pipe Binding Protocol resolution for its current listeners; resolved
    /// listeners arrive as [`JxtaEvent::PipeResolved`] events.
    pub fn resolve_wire_output_pipe(
        &mut self,
        ctx: &mut NodeContext<'_>,
        pipe: &PipeAdvertisement,
    ) -> QueryId {
        self.wire.output_pipe_mut(pipe.pipe_id);
        self.discovery.publish_local(pipe.clone().into(), ctx.now());
        let query = PipeBindQuery {
            pipe_id: pipe.pipe_id,
            requester: self.peer_id,
        };
        let (query_id, wm) = self.new_query(handlers::PBP, query.to_xml_string());
        self.propagate(ctx, &wm, None);
        query_id
    }

    /// The number of listeners currently bound to an output pipe.
    pub fn wire_listener_count(&self, pipe_id: PipeId) -> usize {
        self.wire
            .output_pipe(pipe_id)
            .map_or(0, super::services::wire::OutputPipeState::len)
    }

    /// Publishes an application [`Message`] on a wire pipe.
    ///
    /// Copy selection is delegated to the wire service's dissemination
    /// strategy (see [`PeerConfig::dissemination`] and the `dissem` crate).
    /// Under the paper-baseline direct fan-out, one copy goes to every
    /// resolved listener, each charged with the per-listener connection cost
    /// — the dominant term of the paper's Figure 18 invocation time. Other
    /// strategies (rendezvous tree, gossip) send fewer publisher-side copies
    /// and move the fan-out into the overlay.
    ///
    /// Returns the number of direct copies sent.
    ///
    /// # Errors
    ///
    /// Returns [`JxtaError::UnknownPipe`] if no output pipe was created for
    /// `pipe_id`.
    pub fn wire_send(
        &mut self,
        ctx: &mut NodeContext<'_>,
        pipe_id: PipeId,
        message: &Message,
    ) -> Result<usize, JxtaError> {
        self.wire_send_traced(ctx, pipe_id, message, Vec::new())
    }

    /// [`JxtaPeer::wire_send`] with explicit event trace ids, one per event
    /// packed inside `message` (the TPS engine allocates ids before
    /// marshalling so a batched publish carries one id per event). With an
    /// empty list and a collector installed the peer allocates a single id
    /// itself, so bare-JXTA applications get traced transparently.
    pub fn wire_send_traced(
        &mut self,
        ctx: &mut NodeContext<'_>,
        pipe_id: PipeId,
        message: &Message,
        mut trace_ids: Vec<TraceId>,
    ) -> Result<usize, JxtaError> {
        if self.wire.output_pipe(pipe_id).is_none() {
            return Err(JxtaError::UnknownPipe(pipe_id.to_string()));
        }
        if let Some(tracer) = &self.tracer {
            if trace_ids.is_empty() {
                let id = tracer.borrow_mut().allocate(trace_handle(self.peer_id));
                trace_ids.push(id);
                self.record_spans(ctx.now(), &trace_ids, SpanKind::Published);
            }
        } else {
            // No collector: never put trace elements on the wire.
            trace_ids.clear();
        }
        let plan = self
            .wire
            .plan_publish(pipe_id, self.peer_id, &self.rendezvous, DEFAULT_HOPS, ctx.rng());
        let listeners = self
            .wire
            .output_pipe(pipe_id)
            .expect("checked above")
            .listeners
            .clone();
        let msg_id = Uuid::generate(ctx.rng());
        let packet = WirePacket {
            pipe_id,
            msg_id,
            src_peer: self.peer_id,
            // The strategy owns the hop budget: gossip in particular may need
            // more hops than the resolver-query default to cover deep
            // overlays, so the configured `gossip_ttl` is not clamped here.
            ttl: plan.ttl,
            payload: message.to_bytes(),
            trace_ids: trace_ids.clone(),
        };
        // Seed the local seen-window with our own message id so a copy
        // gossiped back to the publisher is dropped instead of re-forwarded.
        self.wire.seen_before(pipe_id, msg_id);
        let wm = WireMessage::WireData(packet);
        // Encode once: every direct copy below shares this buffer.
        let encoded = wm.to_bytes();
        self.wire.note_sent();
        let mut sent = 0;
        for peer in &plan.unicast {
            // Every unicast copy costs one per-connection service charge;
            // the plan's length is therefore the publisher-side cost profile
            // of the strategy.
            let listener_cost = self.jittered(ctx, self.config.costs.wire_listener_fixed);
            ctx.charge(listener_cost);
            // Prefer the freshest route (kept up to date by re-published peer
            // advertisements after address changes) over the endpoints frozen
            // in the pipe binding, so that pipes survive peers moving.
            let routed = match self.wire_peer_address(*peer, listeners.get(peer).map(Vec::as_slice)) {
                Some(addr) => {
                    self.transmit_encoded(ctx, addr, &encoded);
                    true
                }
                // No usable direct address: fall back to relaying.
                None => self.send_to_peer(ctx, *peer, &wm),
            };
            if routed {
                self.record_spans(ctx.now(), &trace_ids, self.classify_send(*peer));
                sent += 1;
            } else {
                self.record_drop(ctx.now(), &trace_ids, DropCause::NoRoute);
            }
        }
        if sent == 0 || plan.propagate {
            // Nothing resolved yet (or the strategy asked for it): propagate
            // so early subscribers still hear us.
            self.propagate(ctx, &wm, None);
            self.record_spans(ctx.now(), &trace_ids, SpanKind::WireOut { to: BROADCAST });
        }
        Ok(sent)
    }

    // ------------------------------------------------------------------
    // public operations (PIP / ERP)
    // ------------------------------------------------------------------

    /// Queries another peer's status (PIP); the answer arrives as a
    /// [`JxtaEvent::PeerInfoReceived`] event.
    pub fn query_peer_info(&mut self, ctx: &mut NodeContext<'_>, target: PeerId) -> QueryId {
        let (query_id, wm) = self.new_query(handlers::PIP, PingQuery { target }.to_xml_string());
        self.send_or_propagate(ctx, target, &wm);
        query_id
    }

    /// Queries the routing infrastructure for a route to `dest` (ERP); the
    /// answer arrives as a [`JxtaEvent::RouteLearned`] event.
    pub fn query_route(&mut self, ctx: &mut NodeContext<'_>, dest: PeerId) -> QueryId {
        let query = RouteQuery {
            dest,
            requester: self.peer_id,
        };
        let (query_id, wm) = self.new_query(handlers::ERP, query.to_xml_string());
        self.propagate(ctx, &wm, None);
        query_id
    }

    /// Allocates the next query id and wraps `body` into a resolver query
    /// for `handler`, carrying the default hop budget.
    fn new_query(&mut self, handler: &str, body: String) -> (QueryId, WireMessage) {
        self.next_query = self.next_query.next();
        let query = ResolverQuery::new(handler, self.next_query, self.peer_id, body);
        (self.next_query, WireMessage::ResolverQuery(query))
    }

    // ------------------------------------------------------------------
    // internals: cost charging and transmission
    // ------------------------------------------------------------------

    fn jittered(&self, ctx: &mut NodeContext<'_>, base: SimDuration) -> SimDuration {
        let f = self.config.costs.jitter_fraction;
        if f <= 0.0 || base == SimDuration::ZERO {
            return base;
        }
        let u: f64 = ctx.rng().gen_range(0.0..1.0);
        base.mul_f64(1.0 - f + 2.0 * f * u)
    }

    fn charge_decode(&mut self, ctx: &mut NodeContext<'_>, bytes: usize) {
        let base = self.config.costs.decode_fixed
            + SimDuration::from_micros(self.config.costs.decode_per_byte_us * bytes as u64);
        let cost = self.jittered(ctx, base);
        ctx.charge(cost);
    }

    fn charge_send(&mut self, ctx: &mut NodeContext<'_>, bytes: usize) {
        let base = self.config.costs.send_fixed
            + SimDuration::from_micros(self.config.costs.send_per_byte_us * bytes as u64);
        let cost = self.jittered(ctx, base);
        ctx.charge(cost);
    }

    fn transmit(&mut self, ctx: &mut NodeContext<'_>, addr: SimAddress, wm: &WireMessage) {
        let bytes = wm.to_bytes();
        self.transmit_encoded(ctx, addr, &bytes);
    }

    /// Sends an already-encoded wire message: the same per-recipient cost
    /// charge and traffic accounting as [`JxtaPeer::transmit`], minus the
    /// codec. Fan-out paths encode the message once and share the buffer —
    /// `Bytes` is `Arc`-backed, so each extra recipient costs a refcount
    /// bump instead of a re-serialisation.
    fn transmit_encoded(&mut self, ctx: &mut NodeContext<'_>, addr: SimAddress, bytes: &Bytes) {
        self.charge_send(ctx, bytes.len());
        self.info.note_sent(bytes.len());
        let _ = ctx.send(addr, bytes.clone());
    }

    fn transmit_multicast(&mut self, ctx: &mut NodeContext<'_>, wm: &WireMessage) {
        let bytes = wm.to_bytes();
        self.charge_send(ctx, bytes.len());
        self.info.note_sent(bytes.len());
        let _ = ctx.send_multicast(bytes);
    }

    /// Resolves the freshest usable address for `peer`: learned routes first
    /// (kept current by re-published peer advertisements after address
    /// changes), then the endpoints frozen in `frozen` (a pipe binding or a
    /// client lease), then a rendezvous-to-rendezvous mesh link, then our
    /// rendezvous connection if `peer` is our rendezvous. Shared by the
    /// publish and forward paths so the priority order cannot drift between
    /// them.
    fn wire_peer_address(&self, peer: PeerId, frozen: Option<&[SimAddress]>) -> Option<SimAddress> {
        self.endpoint
            .best_address(peer, &self.local_transports)
            .or_else(|| frozen.and_then(|endpoints| first_local(endpoints, &self.local_transports)))
            .or_else(|| self.rendezvous.mesh_link_address(peer))
            .or_else(|| {
                self.rendezvous
                    .connection()
                    .filter(|conn| conn.rdv == peer)
                    .map(|conn| conn.addr)
            })
    }

    /// Sends to a specific peer using the best route known: direct endpoint,
    /// rendezvous client table, relay via our rendezvous, or a multicast
    /// relay envelope. Returns `false` if no route at all was available.
    fn send_to_peer(&mut self, ctx: &mut NodeContext<'_>, dest: PeerId, wm: &WireMessage) -> bool {
        if dest == self.peer_id {
            return false;
        }
        let direct = self
            .endpoint
            .best_address(dest, &self.local_transports)
            .or_else(|| self.client_address(dest));
        if let Some(addr) = direct {
            self.transmit(ctx, addr, wm);
            return true;
        }
        // No direct route: relay through whoever might know the destination
        // — the relay recorded for it, else our rendezvous.
        let envelope = || WireMessage::Relay {
            dest,
            inner: wm.to_bytes(),
        };
        let relay = self
            .endpoint
            .relay_for(dest)
            .and_then(|relay| self.endpoint.best_address(relay, &self.local_transports))
            .or_else(|| self.rendezvous.connection().map(|connection| connection.addr));
        if let Some(addr) = relay {
            self.transmit(ctx, addr, &envelope());
            return true;
        }
        let relays: Vec<SimAddress> = if self.rendezvous.is_rendezvous() {
            // A rendezvous that cannot resolve the destination forwards
            // through the mesh: the edge is leased to *some* shard, and that
            // shard's rendezvous knows its address (handle_relay checks its
            // lease table). O(mesh links) per message where the multicast
            // fallback below would be O(subnet).
            self.rendezvous
                .mesh_links()
                .into_iter()
                .map(|(_, addr)| addr)
                .collect()
        } else {
            // An edge that has seeds but no lease yet relays through the
            // seeds for the same reason propagate() does: pre-lease traffic
            // must not multicast a subnet that has rendezvous infrastructure.
            self.usable_seeds()
        };
        if !relays.is_empty() {
            let encoded = envelope().to_bytes();
            for addr in relays {
                self.transmit_encoded(ctx, addr, &encoded);
            }
            return true;
        }
        if self.local_transports.contains(&TransportKind::Multicast) {
            self.transmit_multicast(ctx, &envelope());
            return true;
        }
        false
    }

    /// Sends to `dest` over the best known route, or to the whole
    /// neighbourhood when there is none.
    fn send_or_propagate(&mut self, ctx: &mut NodeContext<'_>, dest: PeerId, wm: &WireMessage) {
        if !self.send_to_peer(ctx, dest, wm) {
            self.propagate(ctx, wm, None);
        }
    }

    /// Where a client of this rendezvous is reached: the first endpoint of
    /// its lease over a local transport.
    fn client_address(&self, client: PeerId) -> Option<SimAddress> {
        first_local(self.rendezvous.client_endpoints(client)?, &self.local_transports)
    }

    /// The seed rendezvous reachable over a local transport.
    fn usable_seeds(&self) -> Vec<SimAddress> {
        self.rendezvous
            .lease()
            .usable_seeds(|transport| self.local_transports.contains(&transport))
            .collect()
    }

    /// Whether this edge knows any rendezvous it can route control traffic
    /// through: a granted lease, or (before the grant) configured seeds.
    fn has_rendezvous_path(&self) -> bool {
        self.rendezvous.connection().is_some() || !self.rendezvous.seed_addresses().is_empty()
    }

    /// Propagates a message to the neighbourhood: subnet multicast, our
    /// rendezvous (if we are an edge peer), and all connected clients (if we
    /// are a rendezvous), excluding `exclude`.
    fn propagate(&mut self, ctx: &mut NodeContext<'_>, wm: &WireMessage, exclude: Option<PeerId>) {
        self.rendezvous.note_propagated();
        // One encode shared by every leg below — on a rendezvous the client
        // leg alone can be the whole subscriber population of a shard.
        let encoded = wm.to_bytes();
        // An edge that knows rendezvous peers routes control traffic through
        // them instead of multicasting the subnet (the JXTA 2.0 edge
        // behaviour): on a large LAN the multicast leg makes every resolver
        // query and publish push an O(peers) broadcast that every receiver
        // must decode and often answer — O(peers²) per discovery round.
        // Before the lease is granted the seeds stand in for the connection;
        // only peers with no rendezvous path at all (rendezvous-less
        // deployments) keep the multicast leg their discovery relies on.
        if self.rendezvous.is_rendezvous() || !self.has_rendezvous_path() {
            if self.local_transports.contains(&TransportKind::Multicast) {
                self.transmit_multicast(ctx, wm);
            }
        } else if self.rendezvous.connection().is_none() {
            for seed in self.usable_seeds() {
                self.transmit_encoded(ctx, seed, &encoded);
            }
        }
        if let Some(connection) = self.rendezvous.connection().copied() {
            if Some(connection.rdv) != exclude {
                self.transmit_encoded(ctx, connection.addr, &encoded);
            }
        }
        if self.rendezvous.is_rendezvous() {
            self.fan_down(ctx, &encoded, exclude);
        }
    }

    /// The fan-down loop of a rendezvous: one already-encoded message to
    /// every client lease but `exclude`, through one reusable target buffer
    /// instead of cloning every lease.
    fn fan_down(&mut self, ctx: &mut NodeContext<'_>, encoded: &Bytes, exclude: Option<PeerId>) {
        let mut targets = std::mem::take(&mut self.fanout_scratch);
        self.rendezvous
            .collect_client_targets(&self.local_transports, &mut targets);
        for &(peer, addr) in &targets {
            if Some(peer) != exclude && peer != self.peer_id {
                self.transmit_encoded(ctx, addr, encoded);
            }
        }
        self.fanout_scratch = targets;
    }

    fn connect_to_rendezvous(&mut self, ctx: &mut NodeContext<'_>, force_announce: bool) {
        if self.rendezvous.is_rendezvous() {
            // A rendezvous uses its seeds as fellow rendezvous: announce
            // mesh links to each (hello; answered with an ack announcement).
            self.announce_mesh_links(ctx, force_announce);
            return;
        }
        // Which seeds: every usable one, or under the sharded mesh the one
        // ring slot this peer hashes (and has failed over) to — the lease
        // client's policy decides (see `lease.rs`).
        let local_transports = &self.local_transports;
        let targets = self
            .rendezvous
            .lease_mut()
            .connect_targets(self.peer_id, |transport| local_transports.contains(&transport));
        if targets.is_empty() {
            return;
        }
        let wm = WireMessage::RendezvousConnect {
            peer: self.peer_advertisement(ctx),
        };
        for seed in targets {
            self.transmit(ctx, seed, &wm);
        }
    }

    /// Sends mesh-link announcements (rendezvous role only). At `on_start`
    /// (and after an address change) every seed is greeted; the housekeeping
    /// tick only re-announces to seeds whose link is missing or was dropped
    /// (e.g. by the rebalancing controller), so an established mesh costs no
    /// steady-state hello chatter while lost links still heal.
    fn announce_mesh_links(&mut self, ctx: &mut NodeContext<'_>, force: bool) {
        let seeds = self.rendezvous.seed_addresses().to_vec();
        if seeds.is_empty() {
            return;
        }
        let local_addresses = ctx.local_addresses().to_vec();
        let wm = WireMessage::MeshLink {
            peer: self.peer_advertisement(ctx),
            ack: false,
        };
        for seed in seeds {
            if !self.local_transports.contains(&seed.transport) || local_addresses.contains(&seed) {
                continue;
            }
            if !force && self.rendezvous.has_mesh_link_at(seed) {
                continue;
            }
            self.rendezvous.note_mesh_hello();
            self.transmit(ctx, seed, &wm);
        }
    }

    // ------------------------------------------------------------------
    // internals: the load-report plane and the rebalancing controller
    // ------------------------------------------------------------------

    /// One housekeeping pass of the load-report plane. Edges: piggyback a
    /// load report to the current rendezvous. Rendezvous: refresh the local load-table entry, gossip it across the
    /// mesh links, and run the dead-shard detector over the table.
    fn housekeep_load_plane(&mut self, ctx: &mut NodeContext<'_>) {
        // `rebalance.enabled` gates the whole plane — reports, gossip and
        // detection here, edge failover in the lease policy — so a disabled
        // configuration is the exact pre-controller behaviour the ablation
        // baseline compares against, traffic included.
        if !self.config.dissemination.rebalance.enabled {
            return;
        }
        let now = ctx.now();
        if !self.rendezvous.is_rendezvous() {
            if let Some(connection) = self.rendezvous.connection().copied() {
                let report = LoadReport {
                    events_relayed: self.wire.counters().0,
                    fan_out: 0,
                    mailbox_depth: self.mailbox_depth,
                    lease_count: 0,
                };
                let wm = WireMessage::LoadReport {
                    peer: self.peer_id,
                    report,
                };
                self.transmit(ctx, connection.addr, &wm);
            }
            return;
        }
        // Rendezvous role: refresh our own entry and gossip it.
        let own_load = self
            .rendezvous
            .own_load(self.mailbox_depth, self.wire.forwarded());
        if let Some(own_addr) = self.primary_address() {
            self.rendezvous
                .record_shard_load(self.peer_id, own_addr, own_load, now);
        }
        let wm = WireMessage::LoadReport {
            peer: self.peer_id,
            report: own_load,
        };
        for (_, addr) in self.rendezvous.mesh_links() {
            self.transmit(ctx, addr, &wm);
        }
        // Dead-shard detection over the gossiped table. Dropping the mesh
        // link stops forwarding copies into a black hole; the housekeeping
        // announce (see `announce_mesh_links`) keeps probing the seed
        // address, so a revived rendezvous re-links automatically.
        let transitions = self
            .rebalance
            .tick(now.as_millis(), HOUSEKEEPING_INTERVAL.as_millis());
        for transition in transitions {
            if let RebalanceEvent::ShardDead(rdv) = transition {
                // Keep (or create) the dead peer's load-table row before the
                // link goes: the address is what maps the peer back to its
                // ring position for adoption and for the operator report. A
                // rendezvous that died before its first report only ever
                // announced itself, so the row may not exist yet.
                if self.rendezvous.shard_load(rdv).is_none() {
                    if let Some(address) = self.rendezvous.mesh_link_address(rdv) {
                        self.rendezvous
                            .record_shard_load(rdv, address, LoadReport::default(), now);
                    }
                }
                self.rendezvous.remove_mesh_link(rdv);
                self.events.push(JxtaEvent::ShardDead { rdv });
            }
        }
    }

    fn handle_load_report(&mut self, ctx: &mut NodeContext<'_>, peer: PeerId, report: LoadReport) {
        if !self.rendezvous.is_rendezvous() || peer == self.peer_id {
            return;
        }
        let now = ctx.now();
        if self.rendezvous.has_client(peer) {
            self.rendezvous.record_client_load(peer, report);
            return;
        }
        // Only peers we know as (possibly former) mesh links count as shard
        // entries — fellow rendezvous always hello before they report. A
        // report from anyone else is an edge whose lease was pruned while
        // the datagram was in flight; feeding it to the dead-shard detector
        // would later declare a phantom shard dead, so it is dropped.
        let address = self
            .rendezvous
            .mesh_link_address(peer)
            .or_else(|| self.rendezvous.shard_load(peer).map(|entry| entry.address));
        let Some(address) = address else { return };
        self.rendezvous.record_shard_load(peer, address, report, now);
        self.note_alive(peer, now);
    }

    /// Feeds a liveness signal from a fellow rendezvous to the dead-shard
    /// detector; one from a dead-declared peer is the revival signal itself.
    fn note_alive(&mut self, peer: PeerId, now: SimTime) {
        if let Some(RebalanceEvent::ShardRevived(rdv)) = self.rebalance.note_report(peer, now.as_millis()) {
            self.events.push(JxtaEvent::ShardRevived { rdv });
        }
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

    fn handle_rdv_connect(
        &mut self,
        ctx: &mut NodeContext<'_>,
        peer: PeerAdvertisement,
        reply_addr: Option<SimAddress>,
    ) {
        if !self.rendezvous.is_rendezvous() {
            return;
        }
        let lease = self
            .rendezvous
            .register_client(peer.peer_id, peer.endpoints.clone(), ctx.now());
        self.endpoint.learn_from_peer_adv(&peer);
        self.absorb(peer.clone().into(), peer.peer_id, ctx.now());
        let response = WireMessage::RendezvousLease {
            rdv: self.peer_id,
            granted: true,
            lease_ms: lease.as_millis(),
        };
        let target = first_local(&peer.endpoints, &self.local_transports).or(reply_addr);
        if let Some(addr) = target {
            self.transmit(ctx, addr, &response);
        }
    }

    fn handle_mesh_link(
        &mut self,
        ctx: &mut NodeContext<'_>,
        peer: PeerAdvertisement,
        ack: bool,
        reply_addr: Option<SimAddress>,
    ) {
        // Only rendezvous peers keep mesh links, and only with other
        // rendezvous peers (the advertisement carries the role flag).
        if !self.rendezvous.is_rendezvous() || !peer.is_rendezvous || peer.peer_id == self.peer_id {
            return;
        }
        let Some(address) = first_local(&peer.endpoints, &self.local_transports).or(reply_addr) else {
            return;
        };
        let fresh = self.rendezvous.add_mesh_link(peer.peer_id, address);
        self.endpoint.learn_from_peer_adv(&peer);
        // A mesh announcement is a liveness signal too: it seeds the
        // detector for peers that die before their first load report.
        self.note_alive(peer.peer_id, ctx.now());
        if fresh {
            self.events.push(JxtaEvent::MeshLinked { rdv: peer.peer_id });
        }
        if !ack {
            // Answer a hello with our own announcement so the link is
            // bidirectional; acks are never answered (no ping-pong).
            let response = WireMessage::MeshLink {
                peer: self.peer_advertisement(ctx),
                ack: true,
            };
            self.transmit(ctx, address, &response);
        }
    }

    fn handle_rdv_lease(
        &mut self,
        ctx: &mut NodeContext<'_>,
        rdv: PeerId,
        granted: bool,
        lease_ms: u64,
        reply_addr: Option<SimAddress>,
    ) {
        if !granted {
            return;
        }
        let Some(addr) = reply_addr else { return };
        self.rendezvous
            .lease_mut()
            .granted(rdv, addr, SimDuration::from_millis(lease_ms), ctx.now());
        self.endpoint.learn_endpoints(rdv, vec![addr]);
        self.events.push(JxtaEvent::RendezvousConnected { rdv });
    }

    /// Caches an advertisement heard from `source`, announcing it to the
    /// application if it was not known yet.
    fn absorb(&mut self, adv: AnyAdvertisement, source: PeerId, now: SimTime) {
        for adv in self.discovery.absorb(vec![adv], now) {
            self.events
                .push(JxtaEvent::AdvertisementDiscovered { adv, source });
        }
    }

    fn handle_publish(&mut self, ctx: &mut NodeContext<'_>, adv_xml: &str, src_peer: PeerId) {
        let Ok(adv) = AnyAdvertisement::parse(adv_xml) else {
            return;
        };
        if let Some(peer_adv) = adv.as_peer() {
            self.endpoint.learn_from_peer_adv(peer_adv);
        }
        self.absorb(adv, src_peer, ctx.now());
        // Rendezvous peers index pushes and replicate them across the
        // rendezvous mesh (the SRDI model), so an advertisement published in
        // one shard is indexed by every rendezvous and any edge's query finds
        // it there. Pushes deliberately do NOT re-fan down to clients: that
        // would cost O(clients) per publish — O(peers²) when every starting
        // edge pushes its own advertisements — and edges pull what they need
        // through resolver queries anyway. The seen-window absorbs the echo a
        // mesh neighbour sends back.
        if self.rendezvous.is_rendezvous() {
            let push_instance = Uuid::derive(&format!("publish/{src_peer}/{adv_xml}"));
            if self.rendezvous.seen_before(push_instance) {
                return;
            }
            let wm = WireMessage::Publish {
                adv_xml: adv_xml.to_owned(),
                src_peer,
            };
            for (peer, addr) in self.rendezvous.mesh_links() {
                if peer != src_peer {
                    self.transmit(ctx, addr, &wm);
                }
            }
        }
    }

    fn handle_wire_data(&mut self, ctx: &mut NodeContext<'_>, packet: WirePacket) {
        // Wire traffic is deduplicated by the wire service's per-pipe
        // seen-window: copies of the same message arriving over several
        // propagation paths (direct, tree, gossip) are delivered and
        // forwarded at most once.
        let first_sight = !self.wire.seen_before(packet.pipe_id, packet.msg_id);
        let traced = self.tracer.is_some() && !packet.trace_ids.is_empty();
        let from_elsewhere = packet.src_peer != self.peer_id;
        if traced && from_elsewhere {
            self.record_spans(
                ctx.now(),
                &packet.trace_ids,
                SpanKind::WireIn {
                    from: trace_handle(packet.src_peer),
                },
            );
            if !first_sight {
                // This copy dies right here in the wire dedup window.
                self.record_drop(ctx.now(), &packet.trace_ids, DropCause::Duplicate);
            }
        }
        if from_elsewhere && self.wire.has_input_pipe(packet.pipe_id) && first_sight {
            if let Ok(message) = Message::from_bytes(&packet.payload) {
                self.wire.note_received();
                if traced && !self.defer_delivery_spans {
                    self.record_spans(ctx.now(), &packet.trace_ids, SpanKind::Delivered);
                }
                self.events.push(JxtaEvent::WireMessageReceived {
                    pipe_id: packet.pipe_id,
                    src_peer: packet.src_peer,
                    message,
                });
            }
        }
        // On-receive forwarding is the strategy's decision: under direct
        // fan-out and the rendezvous tree only rendezvous peers fan copies
        // down their leases, and only the first-seen copy is forwarded;
        // gossip instead re-samples a fresh fanout for *every* received copy
        // (duplicates included, TTL-bounded) — that repetition is what
        // spreads a rumour past the first neighbourhood sample.
        let forward_this_copy = first_sight || self.wire.forwards_duplicates();
        if forward_this_copy && packet.ttl > 0 {
            let plan = self.wire.plan_forward(
                self.peer_id,
                &self.rendezvous,
                packet.src_peer,
                packet.ttl,
                ctx.rng(),
            );
            if plan.forward.is_empty() {
                return;
            }
            // A planted latency regression for validating the SLO watchdog:
            // the rendezvous stalls for 1.5 virtual seconds before fanning an
            // event down its forward plan. Every copy still arrives — the
            // delivery invariants stay green — but the p99 latency ceiling
            // does not. Test builds only, behind an off-by-default feature.
            #[cfg(feature = "latency-canary")]
            if self.rendezvous.is_rendezvous() {
                ctx.charge(simnet::SimDuration::from_millis(1500));
            }
            let forwarded = WireMessage::WireData(WirePacket {
                ttl: packet.ttl - 1,
                ..packet.clone()
            });
            // Encode the forwarded packet once; the fan-down of a 100k-client
            // shard then shares one buffer instead of re-running the codec
            // per member.
            let encoded = forwarded.to_bytes();
            let mut copies = 0;
            for peer in plan.forward {
                if let Some(addr) = self.wire_peer_address(peer, self.rendezvous.client_endpoints(peer)) {
                    self.transmit_encoded(ctx, addr, &encoded);
                    if traced && from_elsewhere {
                        self.record_spans(ctx.now(), &packet.trace_ids, self.classify_send(peer));
                    }
                    copies += 1;
                }
            }
            self.wire.note_forwarded(copies);
        } else if traced
            && from_elsewhere
            && first_sight
            && packet.ttl == 0
            && !self.wire.has_input_pipe(packet.pipe_id)
        {
            // The hop budget ran out at a peer that is not a listener: this
            // copy dies here without reaching anyone.
            self.record_drop(ctx.now(), &packet.trace_ids, DropCause::TtlExhausted);
        }
    }

    fn handle_relay(&mut self, ctx: &mut NodeContext<'_>, dest: PeerId, inner: bytes::Bytes) {
        if dest == self.peer_id {
            if let Ok(inner_message) = WireMessage::from_bytes(&inner) {
                self.handle_wire_message(ctx, inner_message, None);
            }
            return;
        }
        // Forward if we know how to reach the destination; otherwise drop.
        let addr = self
            .client_address(dest)
            .or_else(|| self.endpoint.best_address(dest, &self.local_transports));
        if let Some(addr) = addr {
            let wm = WireMessage::Relay { dest, inner };
            self.transmit(ctx, addr, &wm);
        }
    }

    fn handle_resolver_query(&mut self, ctx: &mut NodeContext<'_>, query: ResolverQuery) {
        // The same query instance often arrives twice (subnet multicast plus
        // the rendezvous lease connection); the rendezvous seen-window
        // suppresses the duplicate so it is neither re-forwarded nor
        // re-answered. Retries use fresh query ids and pass through.
        let query_instance = Uuid::derive(&format!(
            "{}/{}/{}",
            query.handler, query.src_peer, query.query_id.0
        ));
        if self.rendezvous.seen_before(query_instance) {
            return;
        }
        let handle_cost = self.jittered(ctx, self.config.costs.resolver_handle_fixed);
        ctx.charge(handle_cost);
        // Rendezvous peers forward queries onward (scoped by the hop budget)
        // — but a discovery (PDP) query whose threshold the local cache
        // already satisfies is answered from the cache instead of being
        // walked to every client. The walk exists to find advertisements the
        // rendezvous index lacks; once edges have remote-published their
        // advertisements the index answers everything and the per-round
        // query flood (O(clients) per query, O(clients²) per finder round)
        // disappears. Cold starts still flood and behave exactly as before.
        if self.rendezvous.is_rendezvous() && query.hops_left > 0 && self.should_walk_clients(ctx, &query) {
            let mut forwarded = query.clone();
            forwarded.hops_left -= 1;
            let encoded = WireMessage::ResolverQuery(forwarded).to_bytes();
            self.fan_down(ctx, &encoded, Some(query.src_peer));
        }
        let response_body = match query.handler.as_str() {
            handlers::PDP => self.answer_pdp(ctx, &query),
            handlers::PIP => self.answer_pip(ctx, &query),
            handlers::PMP => self.answer_pmp(ctx, &query),
            handlers::PBP => self.answer_pbp(ctx, &query),
            handlers::ERP => self.answer_erp(ctx, &query),
            _ => None,
        };
        if let Some(body) = response_body {
            let response = ResolverResponse::answering(&query, self.peer_id, body);
            let wm = WireMessage::ResolverResponse(response);
            self.send_to_peer(ctx, query.src_peer, &wm);
        }
    }

    /// Whether a rendezvous should walk (re-flood) a resolver query to its
    /// clients. Non-PDP queries always walk — their answers live on specific
    /// peers (pipe listeners, group authorities, ping targets), not in the
    /// rendezvous cache. PDP queries walk only while the local index knows
    /// *nothing* matching the filter: every remotely-published advertisement
    /// is replicated to every rendezvous via the mesh, so an empty result
    /// means the advertisement (if it exists) was only ever published
    /// locally on some edge — exactly the case the client walk exists for.
    fn should_walk_clients(&self, ctx: &NodeContext<'_>, query: &ResolverQuery) -> bool {
        if query.handler != handlers::PDP {
            return true;
        }
        let Ok(dq) = DiscoveryQuery::from_xml_string(&query.body) else {
            return true;
        };
        self.discovery.local(dq.kind, &dq.filter, ctx.now()).is_empty()
    }

    fn answer_pdp(&mut self, ctx: &mut NodeContext<'_>, query: &ResolverQuery) -> Option<String> {
        let dq = DiscoveryQuery::from_xml_string(&query.body).ok()?;
        // Learn about the requester from the advertisement it embedded.
        self.endpoint.learn_from_peer_adv(&dq.requester);
        self.absorb(dq.requester.clone().into(), dq.requester.peer_id, ctx.now());
        let hits = self.discovery.answer(&dq, ctx.now());
        if hits.is_empty() {
            return None;
        }
        let my_adv = self.peer_advertisement(ctx);
        Some(DiscoveryResponse::new(dq.kind, hits, my_adv).to_xml_string())
    }

    fn answer_pip(&mut self, ctx: &mut NodeContext<'_>, query: &ResolverQuery) -> Option<String> {
        let ping = PingQuery::from_xml_string(&query.body).ok()?;
        if ping.target != self.peer_id {
            return None;
        }
        Some(self.info.snapshot(self.peer_id, ctx.now()).to_xml_string())
    }

    fn answer_pmp(&mut self, ctx: &mut NodeContext<'_>, query: &ResolverQuery) -> Option<String> {
        let mq = MembershipQuery::from_xml_string(&query.body).ok()?;
        if !self.membership.is_authority_for(mq.group_id) {
            return None;
        }
        let _ = ctx;
        let verdict = self.evaluate_membership(&mq);
        Some(
            MembershipResponse {
                group_id: mq.group_id,
                verdict,
            }
            .to_xml_string(),
        )
    }

    fn evaluate_membership(&mut self, query: &MembershipQuery) -> MembershipVerdict {
        match &query.op {
            MembershipOp::Apply => match self.membership.requirements(query.group_id) {
                Some(req) => MembershipVerdict::Requirements(req),
                None => MembershipVerdict::Rejected("unknown group".to_owned()),
            },
            MembershipOp::Join(credential) => {
                self.membership
                    .evaluate_join(query.group_id, query.applicant, credential)
            }
            MembershipOp::Renew => {
                if self
                    .membership
                    .admitted(query.group_id)
                    .contains(&query.applicant)
                {
                    MembershipVerdict::Accepted
                } else {
                    MembershipVerdict::Rejected("not a member".to_owned())
                }
            }
            MembershipOp::Leave => self.membership.evaluate_leave(query.group_id, query.applicant),
        }
    }

    fn answer_pbp(&mut self, ctx: &mut NodeContext<'_>, query: &ResolverQuery) -> Option<String> {
        let bind = PipeBindQuery::from_xml_string(&query.body).ok()?;
        if !self.wire.has_input_pipe(bind.pipe_id) {
            return None;
        }
        let endpoints = self.peer_advertisement(ctx).endpoints;
        Some(
            PipeBindResponse {
                pipe_id: bind.pipe_id,
                peer: self.peer_id,
                endpoints,
            }
            .to_xml_string(),
        )
    }

    fn answer_erp(&mut self, ctx: &mut NodeContext<'_>, query: &ResolverQuery) -> Option<String> {
        let rq = RouteQuery::from_xml_string(&query.body).ok()?;
        let _ = ctx;
        if rq.dest == self.peer_id {
            return None; // the requester already reached us; nothing to add
        }
        let known_endpoints = self
            .rendezvous
            .client_endpoints(rq.dest)
            .map(<[SimAddress]>::to_vec)
            .or_else(|| {
                self.endpoint
                    .best_address(rq.dest, &self.local_transports)
                    .map(|a| vec![a])
            })?;
        let route = if self.rendezvous.is_rendezvous() {
            crate::adv::RouteAdvertisement::via_relay(rq.dest, self.peer_id, known_endpoints)
        } else {
            crate::adv::RouteAdvertisement::direct(rq.dest, known_endpoints)
        };
        Some(RouteResponse { route }.to_xml_string())
    }

    fn handle_resolver_response(&mut self, ctx: &mut NodeContext<'_>, response: ResolverResponse) {
        match response.handler.as_str() {
            handlers::PDP => {
                if let Ok(dr) = DiscoveryResponse::from_xml_string(&response.body) {
                    self.endpoint.learn_from_peer_adv(&dr.responder);
                    let fresh = self.discovery.absorb_response(&dr, ctx.now());
                    for adv in fresh {
                        if let Some(peer_adv) = adv.as_peer() {
                            self.endpoint.learn_from_peer_adv(peer_adv);
                        }
                        self.events.push(JxtaEvent::AdvertisementDiscovered {
                            adv,
                            source: response.src_peer,
                        });
                    }
                }
            }
            handlers::PIP => {
                if let Ok(info) = PeerInfoResponse::from_xml_string(&response.body) {
                    self.events.push(JxtaEvent::PeerInfoReceived { info });
                }
            }
            handlers::PMP => {
                if let Ok(mr) = MembershipResponse::from_xml_string(&response.body) {
                    self.apply_membership_verdict(ctx.now(), mr.group_id, &mr.verdict);
                    self.events.push(JxtaEvent::MembershipResult {
                        group: mr.group_id,
                        verdict: mr.verdict,
                    });
                }
            }
            handlers::PBP => {
                if let Ok(bind) = PipeBindResponse::from_xml_string(&response.body) {
                    self.endpoint.learn_endpoints(bind.peer, bind.endpoints.clone());
                    self.wire
                        .output_pipe_mut(bind.pipe_id)
                        .bind(bind.peer, bind.endpoints);
                    self.events.push(JxtaEvent::PipeResolved {
                        pipe_id: bind.pipe_id,
                        peer: bind.peer,
                    });
                }
            }
            handlers::ERP => {
                if let Ok(rr) = RouteResponse::from_xml_string(&response.body) {
                    self.endpoint.learn_route(&rr.route);
                    self.events.push(JxtaEvent::RouteLearned { route: rr.route });
                }
            }
            _ => {}
        }
    }

    fn apply_membership_verdict(&mut self, now: SimTime, group: PeerGroupId, verdict: &MembershipVerdict) {
        match verdict {
            MembershipVerdict::Accepted => self.membership.set_state(group, MembershipState::Member, now),
            MembershipVerdict::Rejected(_) => {
                self.membership.set_state(group, MembershipState::Rejected, now);
            }
            MembershipVerdict::Requirements(_) => {
                self.membership.set_state(group, MembershipState::Applied, now);
            }
            MembershipVerdict::Left => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageElement;
    use crate::peergroup::PeerGroup;
    use simnet::{Datagram, Network, NetworkBuilder, NodeConfig, NodeId, SimNode, SubnetId, TimerToken};

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

        // The publisher creates and remote-publishes a ps- group advertisement.
        let group = PeerGroup::for_event_type("SkiRental", PeerId::derive("edge-0"));
        net.invoke::<TestApp, _>(publisher, |app, ctx| {
            app.peer.author_group(ctx, group.advertisement());
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

    #[test]
    fn membership_join_against_remote_authority() {
        let (mut net, _rdv, edges) = build_network(2);
        net.run_for(SimDuration::from_secs(2));
        let authority = edges[0];
        let applicant = edges[1];
        let group = PeerGroup::for_event_type("Private", PeerId::derive("edge-0"));

        net.invoke::<TestApp, _>(authority, |app, ctx| {
            app.peer.author_group(ctx, group.advertisement());
        });
        // The applicant needs to know the authority's endpoints; discovery
        // via the rendezvous provides them.
        net.invoke::<TestApp, _>(applicant, |app, ctx| {
            app.peer
                .discover_remote(ctx, AdvKind::Peer, SearchFilter::any(), 10);
        });
        net.run_for(SimDuration::from_secs(3));
        net.invoke::<TestApp, _>(applicant, |app, ctx| {
            app.peer
                .membership_join(ctx, group.advertisement(), Credential::None);
        });
        net.run_for(SimDuration::from_secs(3));

        let accepted = events_of(&net, applicant).iter().any(|e| {
            matches!(
                e,
                JxtaEvent::MembershipResult {
                    verdict: MembershipVerdict::Accepted,
                    ..
                }
            )
        });
        assert!(accepted, "membership join was never accepted");
        assert!(net
            .node_ref::<TestApp>(applicant)
            .unwrap()
            .peer
            .membership()
            .is_member(group.group_id()));
    }

    #[test]
    fn peer_info_query_returns_uptime() {
        let (mut net, rdv, edges) = build_network(1);
        net.run_for(SimDuration::from_secs(2));
        let asker = edges[0];
        let rdv_peer_id = net.node_ref::<TestApp>(rdv).unwrap().peer.peer_id();
        net.invoke::<TestApp, _>(asker, |app, ctx| {
            app.peer.query_peer_info(ctx, rdv_peer_id);
        });
        net.run_for(SimDuration::from_secs(2));
        let info = events_of(&net, asker).iter().find_map(|e| match e {
            JxtaEvent::PeerInfoReceived { info } => Some(info.clone()),
            _ => None,
        });
        let info = info.expect("no PIP response received");
        assert_eq!(info.peer, rdv_peer_id);
        assert!(info.messages_received > 0);
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
        let tree = JxtaPeer::new(
            PeerConfig::rendezvous("rdv-tree")
                .with_seeds(seeds.clone())
                .with_dissemination(dissem::DisseminationConfig::rendezvous_tree()),
        );
        assert_eq!(tree.shard_ring(), seeds, "non-mesh strategies keep the full ring");
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

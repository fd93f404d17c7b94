//! The rendezvous side of the peer and the edge's dealings with it: shard
//! ring and adoption, lease connects and grants, mesh links, the load-report
//! plane, advertisement replication and the wire-data fan-down.

use super::{trace_handle, JxtaPeer, HOUSEKEEPING_INTERVAL};
use crate::adv::{AnyAdvertisement, PeerAdvertisement};
use crate::endpoint::{first_local, WireMessage, WirePacket};
use crate::events::JxtaEvent;
use crate::id::{PeerId, Uuid};
use crate::message::Message;
use crate::services::discovery::REFRESH_INTERVAL;
use dissem::RebalanceEvent;
use simnet::{NodeContext, SimAddress, SimDuration, SimTime};
use telemetry::trace::{DropCause, SpanKind};
use telemetry::LoadReport;

impl JxtaPeer {
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
    /// `adopter_of` in `dissem::rebalance`). Edges walking their failover ring land on
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

    pub(super) fn connect_to_rendezvous(&mut self, ctx: &mut NodeContext<'_>, force_announce: bool) {
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
    pub(super) fn housekeep_load_plane(&mut self, ctx: &mut NodeContext<'_>) {
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

    pub(super) fn handle_load_report(&mut self, ctx: &mut NodeContext<'_>, peer: PeerId, report: LoadReport) {
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

    pub(super) fn handle_rdv_connect(
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

    pub(super) fn handle_mesh_link(
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

    pub(super) fn handle_rdv_lease(
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

    pub(super) fn handle_publish(&mut self, ctx: &mut NodeContext<'_>, adv_xml: &str, src_peer: PeerId) {
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
        // mesh neighbour sends back within one refresh round; the next
        // round's identical bytes must cross the mesh again, or every shard
        // but the author's home forgets the advertisement.
        if self.rendezvous.is_rendezvous() {
            let round = ctx.now().as_micros() / REFRESH_INTERVAL.as_micros();
            let push_instance = Uuid::derive(&format!("publish/{round}/{src_peer}/{adv_xml}"));
            if self.rendezvous.seen_before(push_instance) {
                return;
            }
            let wm = WireMessage::Publish {
                adv_xml: adv_xml.to_owned(),
                src_peer,
            };
            self.send_across_mesh(ctx, &wm, src_peer);
        }
    }

    /// Sends `wm` over every mesh link except the one to `origin`.
    pub(super) fn send_across_mesh(&mut self, ctx: &mut NodeContext<'_>, wm: &WireMessage, origin: PeerId) {
        let encoded = wm.to_bytes();
        for (peer, addr) in self.rendezvous.mesh_links() {
            if peer != origin {
                self.transmit_encoded(ctx, addr, &encoded);
            }
        }
    }

    pub(super) fn handle_wire_data(&mut self, ctx: &mut NodeContext<'_>, packet: WirePacket) {
        // Wire traffic is deduplicated by the wire service's per-pipe
        // seen-window: copies of the same message arriving over several
        // propagation paths (direct, mesh, gossip) are delivered and
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
        // fan-out and the rendezvous mesh only rendezvous peers fan copies
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
}

//! The sending side: wire pipes and publishes, cost charging, transmission,
//! route selection (`send_to_peer`), neighbourhood propagation and relaying.

use super::{trace_handle, JxtaPeer};
use crate::adv::PipeAdvertisement;
use crate::endpoint::{first_local, WireMessage, WirePacket};
use crate::error::JxtaError;
use crate::id::{PeerId, PipeId, QueryId, Uuid};
use crate::message::Message;
use crate::protocols::pbp::PipeBindQuery;
use crate::protocols::prp::DEFAULT_HOPS;
use crate::protocols::{handlers, ProtocolPayload};
use bytes::Bytes;
use rand::Rng;
use simnet::{NodeContext, SimAddress, SimDuration, TransportKind};
use telemetry::trace::{DropCause, SpanKind, TraceId, BROADCAST};

impl JxtaPeer {
    // ------------------------------------------------------------------
    // public operations (pipes / wire)
    // ------------------------------------------------------------------

    /// Creates a local input (listening) end of a wire pipe and publishes the
    /// pipe advertisement locally so PBP queries can find it.
    pub fn create_wire_input_pipe(&mut self, _ctx: &NodeContext<'_>, pipe: &PipeAdvertisement) -> bool {
        self.discovery.publish_local(pipe.clone().into());
        self.wire.create_input_pipe(pipe.pipe_id)
    }

    /// Closes the local input end of a wire pipe.
    pub fn close_wire_input_pipe(&mut self, pipe_id: PipeId) {
        self.wire.close_input_pipe(pipe_id);
    }

    /// Creates (or refreshes) the output end of a wire pipe and launches a
    /// Pipe Binding Protocol resolution for its current listeners; resolved
    /// listeners arrive as [`crate::JxtaEvent::PipeResolved`] events.
    pub fn resolve_wire_output_pipe(
        &mut self,
        ctx: &mut NodeContext<'_>,
        pipe: &PipeAdvertisement,
    ) -> QueryId {
        self.wire.output_pipe_mut(pipe.pipe_id);
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
            .map_or(0, crate::services::wire::OutputPipeState::len)
    }

    /// Publishes an application [`Message`] on a wire pipe.
    ///
    /// Copy selection is delegated to the wire service's dissemination
    /// strategy (see [`super::PeerConfig::dissemination`] and the `dissem` crate).
    /// Under the paper-baseline direct fan-out, one copy goes to every
    /// resolved listener, each charged with the per-listener connection cost
    /// — the dominant term of the paper's Figure 18 invocation time. Other
    /// strategies (rendezvous mesh, gossip) send fewer publisher-side copies
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
    // internals: cost charging and transmission
    // ------------------------------------------------------------------

    pub(super) fn jittered(&self, ctx: &mut NodeContext<'_>, base: SimDuration) -> SimDuration {
        let f = self.config.costs.jitter_fraction;
        if f <= 0.0 || base == SimDuration::ZERO {
            return base;
        }
        let u: f64 = ctx.rng().gen_range(0.0..1.0);
        base.mul_f64(1.0 - f + 2.0 * f * u)
    }

    pub(super) fn charge_decode(&mut self, ctx: &mut NodeContext<'_>, bytes: usize) {
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

    pub(super) fn transmit(&mut self, ctx: &mut NodeContext<'_>, addr: SimAddress, wm: &WireMessage) {
        let bytes = wm.to_bytes();
        self.transmit_encoded(ctx, addr, &bytes);
    }

    /// Sends an already-encoded wire message: the same per-recipient cost
    /// charge and traffic accounting as [`JxtaPeer::transmit`], minus the
    /// codec. Fan-out paths encode the message once and share the buffer —
    /// `Bytes` is `Arc`-backed, so each extra recipient costs a refcount
    /// bump instead of a re-serialisation.
    pub(super) fn transmit_encoded(&mut self, ctx: &mut NodeContext<'_>, addr: SimAddress, bytes: &Bytes) {
        self.charge_send(ctx, bytes.len());
        let _ = ctx.send(addr, bytes.clone());
    }

    fn transmit_multicast(&mut self, ctx: &mut NodeContext<'_>, wm: &WireMessage) {
        let bytes = wm.to_bytes();
        self.charge_send(ctx, bytes.len());
        let _ = ctx.send_multicast(bytes);
    }

    /// Resolves the freshest usable address for `peer`: learned routes first
    /// (kept current by re-published peer advertisements after address
    /// changes), then the endpoints frozen in `frozen` (a pipe binding or a
    /// client lease), then a rendezvous-to-rendezvous mesh link, then our
    /// rendezvous connection if `peer` is our rendezvous. Shared by the
    /// publish and forward paths so the priority order cannot drift between
    /// them.
    pub(super) fn wire_peer_address(
        &self,
        peer: PeerId,
        frozen: Option<&[SimAddress]>,
    ) -> Option<SimAddress> {
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
    pub(super) fn send_to_peer(&mut self, ctx: &mut NodeContext<'_>, dest: PeerId, wm: &WireMessage) -> bool {
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
        // No direct route: relay through our rendezvous, which may know the
        // destination.
        let envelope = || WireMessage::Relay {
            dest,
            inner: wm.to_bytes(),
        };
        if let Some(addr) = self.rendezvous.connection().map(|connection| connection.addr) {
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
    pub(super) fn propagate(&mut self, ctx: &mut NodeContext<'_>, wm: &WireMessage, exclude: Option<PeerId>) {
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
    pub(super) fn fan_down(&mut self, ctx: &mut NodeContext<'_>, encoded: &Bytes, exclude: Option<PeerId>) {
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

    pub(super) fn handle_relay(&mut self, ctx: &mut NodeContext<'_>, dest: PeerId, inner: bytes::Bytes) {
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
}

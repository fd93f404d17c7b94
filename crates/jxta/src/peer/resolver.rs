//! The resolver protocol: the discovery and pipe-binding queries a peer
//! issues, the answers it gives, and the responses it absorbs.

use super::JxtaPeer;
use crate::adv::{AdvKind, AnyAdvertisement};
use crate::cm::SearchFilter;
use crate::endpoint::WireMessage;
use crate::events::JxtaEvent;
use crate::id::{PeerId, QueryId, Uuid};
use crate::protocols::pbp::{PipeBindQuery, PipeBindResponse};
use crate::protocols::pdp::{DiscoveryQuery, DiscoveryResponse};
use crate::protocols::prp::{ResolverQuery, ResolverResponse};
use crate::protocols::{handlers, ProtocolPayload};
use simnet::{NodeContext, SimTime};

impl JxtaPeer {
    // ------------------------------------------------------------------
    // public operations (discovery)
    // ------------------------------------------------------------------

    /// Publishes an advertisement to the local cache only
    /// (`DiscoveryService.publish`).
    pub fn publish_local(&mut self, _ctx: &NodeContext<'_>, adv: AnyAdvertisement) -> bool {
        self.discovery.publish_local(adv)
    }

    /// Publishes an advertisement locally *and* pushes it to the network
    /// (`DiscoveryService.remotePublish`), again every refresh interval for
    /// as long as the peer runs, so the copies other peers keep do not lapse.
    pub fn remote_publish(&mut self, ctx: &mut NodeContext<'_>, adv: AnyAdvertisement) {
        let adv_xml = adv.to_xml_string();
        self.discovery.remote_publish(adv, ctx.now());
        self.push(ctx, adv_xml, false);
    }

    /// The one place an advertisement of this peer's goes onto the network.
    /// A rendezvous's `refresh` crosses its mesh links only, like a push it
    /// received ([`JxtaPeer::handle_publish`]): its clients pull from its index.
    pub(super) fn push(&mut self, ctx: &mut NodeContext<'_>, adv_xml: String, refresh: bool) {
        let wm = WireMessage::Publish {
            adv_xml,
            src_peer: self.peer_id,
        };
        if refresh && self.rendezvous.is_rendezvous() {
            self.send_across_mesh(ctx, &wm, self.peer_id);
        } else {
            self.propagate(ctx, &wm, None);
        }
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
        self.propagate(ctx, &wm, None);
        query_id
    }

    /// Discards cached advertisements (`flushAdvertisements`).
    pub fn flush_advertisements(&mut self, kind: Option<AdvKind>) {
        self.discovery.flush(kind);
    }

    /// Allocates the next query id and wraps `body` into a resolver query
    /// for `handler`, carrying the default hop budget.
    pub(super) fn new_query(&mut self, handler: &str, body: String) -> (QueryId, WireMessage) {
        self.next_query = self.next_query.next();
        let query = ResolverQuery::new(handler, self.next_query, self.peer_id, body);
        (self.next_query, WireMessage::ResolverQuery(query))
    }

    /// Caches an advertisement heard from `source`, announcing it to the
    /// application if it was not known yet.
    pub(super) fn absorb(&mut self, adv: AnyAdvertisement, source: PeerId, now: SimTime) {
        for adv in self.discovery.absorb(vec![adv], now) {
            self.events
                .push(JxtaEvent::AdvertisementDiscovered { adv, source });
        }
    }

    pub(super) fn handle_resolver_query(&mut self, ctx: &mut NodeContext<'_>, query: ResolverQuery) {
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
        // Only PDP and PBP are served. A discovery body is parsed once, for the
        // walk decision and the answer. A discovery body that does not parse,
        // or a handler this stack does not serve, is dropped: walking it would
        // turn one datagram into one per client, for a query nobody can answer.
        let discovery = match query.handler.as_str() {
            handlers::PDP => match DiscoveryQuery::from_xml_string(&query.body) {
                Ok(dq) => Some(dq),
                Err(_) => return,
            },
            handlers::PBP => None,
            _ => return,
        };
        // Rendezvous peers forward queries onward (scoped by the hop budget)
        // — but a discovery (PDP) query whose threshold the local cache
        // already satisfies is answered from the cache instead of being
        // walked to every client. The walk exists to find advertisements the
        // rendezvous index lacks; once edges have remote-published their
        // advertisements the index answers everything and the per-round
        // query flood (O(clients) per query, O(clients²) per finder round)
        // disappears. Cold starts still flood and behave exactly as before.
        if self.rendezvous.is_rendezvous()
            && query.hops_left > 0
            && self.should_walk_clients(ctx, discovery.as_ref())
        {
            let mut forwarded = query.clone();
            forwarded.hops_left -= 1;
            let encoded = WireMessage::ResolverQuery(forwarded).to_bytes();
            self.fan_down(ctx, &encoded, Some(query.src_peer));
        }
        let response_body = match discovery {
            Some(dq) => self.answer_pdp(ctx, dq),
            None => self.answer_pbp(ctx, &query),
        };
        if let Some(body) = response_body {
            let response = ResolverResponse::answering(&query, self.peer_id, body);
            let wm = WireMessage::ResolverResponse(response);
            self.send_to_peer(ctx, query.src_peer, &wm);
        }
    }

    /// Whether a rendezvous should walk (re-flood) a served resolver query to
    /// its clients (`discovery` is `None` for PBP). PBP queries always walk —
    /// their answers live on the pipe listeners, not in the rendezvous cache.
    /// PDP queries walk only while the local index knows
    /// *nothing* matching the filter: every remotely-published advertisement
    /// is replicated to every rendezvous via the mesh, so an empty result
    /// means the advertisement (if it exists) was only ever published
    /// locally on some edge — exactly the case the client walk exists for.
    fn should_walk_clients(&self, ctx: &NodeContext<'_>, discovery: Option<&DiscoveryQuery>) -> bool {
        discovery.is_none_or(|dq| self.discovery.local(dq.kind, &dq.filter, ctx.now()).is_empty())
    }

    fn answer_pdp(&mut self, ctx: &mut NodeContext<'_>, dq: DiscoveryQuery) -> Option<String> {
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

    pub(super) fn handle_resolver_response(&mut self, ctx: &mut NodeContext<'_>, response: ResolverResponse) {
        match response.handler.as_str() {
            handlers::PDP => {
                if let Ok(dr) = DiscoveryResponse::from_xml_string(&response.body) {
                    self.endpoint.learn_from_peer_adv(&dr.responder);
                    let fresh = self.discovery.absorb_response(dr, ctx.now());
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
            _ => {}
        }
    }
}

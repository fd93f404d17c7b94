//! The resolver protocol: the discovery, membership, peer-info and route
//! queries a peer issues, the answers it gives, and the responses it absorbs.

use super::JxtaPeer;
use crate::adv::{AdvKind, AnyAdvertisement, PeerGroupAdvertisement};
use crate::cm::SearchFilter;
use crate::endpoint::WireMessage;
use crate::events::JxtaEvent;
use crate::id::{PeerGroupId, PeerId, QueryId, Uuid};
use crate::protocols::erp::{RouteQuery, RouteResponse};
use crate::protocols::pbp::{PipeBindQuery, PipeBindResponse};
use crate::protocols::pdp::{DiscoveryQuery, DiscoveryResponse};
use crate::protocols::pip::{PeerInfoResponse, PingQuery};
use crate::protocols::pmp::{
    Credential, MembershipOp, MembershipQuery, MembershipResponse, MembershipVerdict,
};
use crate::protocols::prp::{ResolverQuery, ResolverResponse};
use crate::protocols::{handlers, ProtocolPayload};
use crate::services::MembershipState;
use simnet::{NodeContext, SimAddress, SimTime};

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
    pub fn author_group(&mut self, _ctx: &NodeContext<'_>, adv: &PeerGroupAdvertisement) {
        self.membership.author_group(adv);
        self.discovery.publish_local(adv.clone().into());
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
        // A discovery body is parsed once, for the walk decision and the answer;
        // one that does not parse is dropped: walking it would turn one malformed
        // datagram into one per client, for a query nobody can answer.
        let discovery = match query.handler.as_str() {
            handlers::PDP => match DiscoveryQuery::from_xml_string(&query.body) {
                Ok(dq) => Some(dq),
                Err(_) => return,
            },
            _ => None,
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
        let response_body = match query.handler.as_str() {
            handlers::PDP => discovery.and_then(|dq| self.answer_pdp(ctx, dq)),
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

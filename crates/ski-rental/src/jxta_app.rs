//! The ski-rental application written **directly against JXTA** — the
//! paper's SR-JXTA — plus the bare JXTA-WIRE reference point.
//!
//! This is the hand-rolled counterpart of the TPS layer: it re-creates the
//! paper's `AdvertisementsCreator`, `AdvertisementsFinder` and
//! `WireServiceFinder` on top of [`jxta::JxtaPeer`], and (in its
//! full-featured SR-JXTA configuration) re-implements the three guarantees
//! the TPS layer gives for free:
//!
//! 1. minimisation of the number of advertisements for the same type,
//! 2. management of multiple advertisements at the same time,
//! 3. handling of duplicate messages.
//!
//! With `full_featured = false` it degrades to the raw JXTA-WIRE lower-bound
//! used as a reference in the paper's Section 5: no duplicate suppression, no
//! multi-advertisement management, no sent/received history.

use crate::types::SkiRental;
use jxta::peer::{is_jxta_timer, PeerConfig};
use jxta::{
    AdvKind, AnyAdvertisement, JxtaEvent, JxtaPeer, Message, MessageElement, PeerGroup, PipeAdvertisement,
    SearchFilter, Uuid,
};
use simnet::{Datagram, NodeContext, SimDuration, SimTime};
use std::collections::HashSet;

use jxta::PeerId;

/// Timer tag of the application-level advertisement finder thread.
const TIMER_SR_FINDER: u64 = 0x5352_0001;

/// How often the finder thread runs (the paper's `SLEEPING_TIME`).
const FINDER_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// Whether this peer publishes offers or subscribes to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A shop publishing rental offers.
    Publisher,
    /// A skier looking for offers.
    Subscriber,
}

/// Extra per-event CPU the full-featured SR layers spend compared to raw
/// JXTA-WIRE (duplicate bookkeeping, advertisement management, histories).
const SR_PUBLISH_OVERHEAD: SimDuration = SimDuration::from_millis(20);
const SR_DELIVER_OVERHEAD: SimDuration = SimDuration::from_millis(24);
/// Marshalling cost charged by every flavour (object serialisation).
const MARSHAL_COST: SimDuration = SimDuration::from_millis(2);
/// The paper's wire message size.
const TARGET_MESSAGE_SIZE: usize = 1910;
/// Additional receive-side cost per extra incoming publisher connection,
/// relative to the base cost (JXTA 1.0 degraded sharply as the subscriber had
/// to service more connections — the cause of Figure 20's ~3x drop).
const CONNECTION_SCALE: f64 = 0.8;

/// The direct-JXTA ski-rental peer (SR-JXTA, or raw JXTA-WIRE when
/// `full_featured` is off).
#[derive(Debug)]
pub struct JxtaSkiApp {
    peer: JxtaPeer,
    role: Role,
    full_featured: bool,
    group: PeerGroup,
    known_pipes: Vec<PipeAdvertisement>,
    seen_events: HashSet<Uuid>,
    received: Vec<(SimTime, SkiRental)>,
    sent: Vec<SkiRental>,
    duplicates: u64,
    overloaded_drops: u64,
    publishers_seen: HashSet<PeerId>,
    busy_until: SimTime,
}

impl JxtaSkiApp {
    /// Creates the application peer.
    ///
    /// `full_featured = true` gives SR-JXTA; `false` gives the raw JXTA-WIRE
    /// reference.
    pub fn new(peer_config: PeerConfig, role: Role, full_featured: bool) -> Self {
        let peer = JxtaPeer::new(peer_config);
        let group = PeerGroup::for_event_type("SkiRental", peer.peer_id());
        let pipe = group
            .wire_pipe()
            .expect("event-type groups always embed a pipe")
            .clone();
        JxtaSkiApp {
            peer,
            role,
            full_featured,
            group,
            known_pipes: vec![pipe],
            seen_events: HashSet::new(),
            received: Vec::new(),
            sent: Vec::new(),
            duplicates: 0,
            overloaded_drops: 0,
            publishers_seen: HashSet::new(),
            busy_until: SimTime::ZERO,
        }
    }

    /// The underlying JXTA peer.
    pub fn peer(&self) -> &JxtaPeer {
        &self.peer
    }

    /// Installs a shared trace collector on the underlying peer, so every
    /// copy of every offer this app publishes or receives records causal
    /// delivery spans. The bare-JXTA flavours have no TPS dedup above the
    /// wire, so the peer records the terminal spans itself.
    pub fn set_trace_collector(&mut self, tracer: jxta::SharedTraceCollector) {
        self.peer.set_trace_collector(tracer, false);
    }

    /// The offers received so far, with their virtual arrival times.
    pub fn received(&self) -> &[(SimTime, SkiRental)] {
        &self.received
    }

    /// The offers published so far (empty for the raw wire flavour, which
    /// keeps no history).
    pub fn sent(&self) -> &[SkiRental] {
        &self.sent
    }

    /// Duplicate events suppressed (always 0 for the raw wire flavour).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Events lost because the subscriber was still busy servicing earlier
    /// ones (receive-side overload, as JXTA 1.0 exhibited under flooding).
    pub fn overloaded_drops(&self) -> u64 {
        self.overloaded_drops
    }

    /// Publishes an offer; the publisher-side half of the paper's
    /// `WireServiceFinder.publish(msg.dup())`.
    ///
    /// # Errors
    ///
    /// Returns a readable error if the offer cannot be serialised or no
    /// output pipe exists.
    pub fn publish_offer(&mut self, ctx: &mut NodeContext<'_>, offer: &SkiRental) -> Result<(), String> {
        let payload = tps::codec::to_vec(offer).map_err(|e| e.to_string())?;
        ctx.charge(MARSHAL_COST);
        let mut message = Message::new();
        if self.full_featured {
            // Duplicate-handling support and sent-history bookkeeping.
            ctx.charge(SR_PUBLISH_OVERHEAD);
            let event_id = Uuid::generate(ctx.rng());
            message.add(MessageElement::text("sr", "EventId", event_id.to_hex()));
            self.sent.push(offer.clone());
        }
        message.add(MessageElement::binary("sr", "Payload", payload));
        let current = message.wire_size();
        if current < TARGET_MESSAGE_SIZE {
            message.add(MessageElement::binary(
                "sr",
                "Padding",
                vec![0u8; TARGET_MESSAGE_SIZE - current],
            ));
        }
        let pipes: Vec<_> = if self.full_featured {
            self.known_pipes.iter().map(|p| p.pipe_id).collect()
        } else {
            vec![self.known_pipes[0].pipe_id]
        };
        for pipe_id in pipes {
            self.peer
                .wire_send(ctx, pipe_id, &message)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn handle_wire_message(&mut self, ctx: &mut NodeContext<'_>, src_peer: PeerId, message: &Message) {
        // Receive-side capacity model: servicing one event costs a base
        // amount (scaled from the peer's cost model) plus a penalty per
        // additional incoming publisher connection; events arriving while the
        // subscriber is still busy are lost, as on the paper's testbed.
        self.publishers_seen.insert(src_peer);
        let base = self.peer.config().costs.wire_listener_fixed.mul_f64(0.85);
        if base > SimDuration::ZERO {
            let connections = self.publishers_seen.len().max(1);
            let mut service_cost = base.mul_f64(1.0 + CONNECTION_SCALE * (connections - 1) as f64);
            if self.full_featured {
                service_cost += SR_DELIVER_OVERHEAD;
            }
            if ctx.now() < self.busy_until {
                self.overloaded_drops += 1;
                return;
            }
            self.busy_until = ctx.now() + service_cost;
        }
        if self.full_featured {
            ctx.charge(SR_DELIVER_OVERHEAD);
            if let Some(id_hex) = message.element_text("sr", "EventId") {
                if let Ok(id) = Uuid::from_hex(&id_hex) {
                    if !self.seen_events.insert(id) {
                        self.duplicates += 1;
                        return;
                    }
                }
            }
        }
        let Some(payload) = message.element("sr", "Payload") else {
            return;
        };
        let Ok(offer) = tps::codec::from_slice::<SkiRental>(&payload.body) else {
            return;
        };
        self.received.push((ctx.now(), offer));
    }

    fn handle_discovered(&mut self, ctx: &mut NodeContext<'_>, adv: &AnyAdvertisement) {
        if !self.full_featured {
            return; // the raw wire flavour manages a single advertisement only
        }
        let Some(group_adv) = adv.as_group() else { return };
        if group_adv.name != self.group.name() {
            return;
        }
        let Ok(pipe) = PeerGroup::from_advertisement(group_adv.clone())
            .wire_pipe()
            .cloned()
        else {
            return;
        };
        // The paper's findAdvertisement duplicate check: only genuinely new
        // advertisements are added.
        if self.known_pipes.iter().any(|p| p.pipe_id == pipe.pipe_id) {
            return;
        }
        self.known_pipes.push(pipe.clone());
        match self.role {
            Role::Subscriber => {
                self.peer.create_wire_input_pipe(ctx, &pipe);
            }
            Role::Publisher => {
                self.peer.resolve_wire_output_pipe(ctx, &pipe);
            }
        }
    }

    fn drain(&mut self, ctx: &mut NodeContext<'_>) {
        for event in self.peer.take_events() {
            match event {
                JxtaEvent::WireMessageReceived {
                    src_peer, message, ..
                } => self.handle_wire_message(ctx, src_peer, &message),
                JxtaEvent::AdvertisementDiscovered { adv, .. } => self.handle_discovered(ctx, &adv),
                _ => {}
            }
        }
    }
}

impl simnet::SimNode for JxtaSkiApp {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        self.peer.on_start(ctx);
        // AdvertisementsCreator: publish the ps-SkiRental group advertisement.
        self.peer
            .remote_publish(ctx, AnyAdvertisement::Group(self.group.advertisement().clone()));
        let pipes = self.known_pipes.clone();
        match self.role {
            Role::Subscriber => {
                for pipe in &pipes {
                    self.peer.create_wire_input_pipe(ctx, pipe);
                }
            }
            Role::Publisher => {
                for pipe in &pipes {
                    self.peer.resolve_wire_output_pipe(ctx, pipe);
                }
            }
        }
        if self.full_featured {
            // AdvertisementsFinder: keep searching for other advertisements
            // of the same type.
            self.peer
                .discover_remote(ctx, AdvKind::Group, SearchFilter::by_name("ps-SkiRental*"), 10);
        }
        // Every flavour runs the finder tick: publishers must retry pipe
        // resolution because the initial attempt races peer start-up (a
        // listener that has not leased with its rendezvous yet cannot be
        // walked, so the first resolution round can miss it).
        ctx.set_timer(FINDER_INTERVAL, TIMER_SR_FINDER);
        self.drain(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, datagram: Datagram) {
        self.peer.on_datagram(ctx, &datagram);
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _token: simnet::TimerToken, tag: u64) {
        if is_jxta_timer(tag) {
            self.peer.on_timer(ctx, tag);
        } else if tag == TIMER_SR_FINDER {
            if self.full_featured {
                self.peer
                    .discover_remote(ctx, AdvKind::Group, SearchFilter::by_name("ps-SkiRental*"), 10);
            }
            if self.role == Role::Publisher {
                // Pipe resolutions are additive (newly answering listeners
                // bind on top of the ones already resolved), so retrying
                // picks up listeners whose leases were not yet granted when
                // the previous round walked the rendezvous.
                let pipes = self.known_pipes.clone();
                for pipe in &pipes {
                    self.peer.resolve_wire_output_pipe(ctx, pipe);
                }
            }
            ctx.set_timer(FINDER_INTERVAL, TIMER_SR_FINDER);
        }
        self.drain(ctx);
    }

    fn on_address_changed(
        &mut self,
        ctx: &mut NodeContext<'_>,
        old: simnet::SimAddress,
        new: simnet::SimAddress,
    ) {
        self.peer.on_address_changed(ctx, old, new);
        self.drain(ctx);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxta::peer::CostModel;

    #[test]
    fn construction_prepares_the_canonical_pipe() {
        let app = JxtaSkiApp::new(
            PeerConfig::edge("shop").with_costs(CostModel::free()),
            Role::Publisher,
            true,
        );
        assert_eq!(app.known_pipes.len(), 1);
        assert!(app.sent().is_empty());
        assert!(app.received().is_empty());
        assert_eq!(app.duplicates(), 0);
        assert_eq!(app.peer().peer_id(), jxta::PeerId::derive("shop"));
    }
}

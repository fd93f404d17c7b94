//! Flyweight edge peers: the mega-scale subscriber representation.
//!
//! A full [`crate::JxtaPeer`] carries the PRP/PDP/PBP stack, a cache manager, a
//! resolver, per-peer route tables and a metrics surface — hundreds of bytes
//! of state plus per-event codec work. None of that is needed to *measure*
//! dissemination at 100k subscribers: the paper's edge devices only lease
//! with a rendezvous and consume events. A [`FlyweightEdge`] is exactly that
//! residue — a lease, a subscription record and a mailbox — implemented
//! directly as a [`simnet::SimNode`], and it costs nothing when idle. The
//! mailbox doubles as the duplicate-suppression window, so each received id
//! is stored once. Measured live heap, rendezvous and kernel included, is
//! about 2.4 kB per subscriber after a lease and 20 receipts, at 2 000 and
//! at 50 000 subscribers alike (`ski-rental/tests/flyweight_heap.rs`).
//!
//! The flyweight speaks the real wire protocol (it sends a genuine
//! [`WireMessage::RendezvousConnect`] and parses the
//! [`WireMessage::RendezvousLease`] and [`WireMessage::WireData`] envelopes
//! the rendezvous produces), so the rendezvous side needs no changes and no
//! test-only back doors: from the mesh's point of view a flyweight is just
//! another leased client.

use crate::endpoint::WireMessage;
use crate::id::{PeerGroupId, PeerId, PipeId, Uuid};
use crate::lease::{Lease, LeaseClient, LeasePolicy};
use crate::peer::is_jxta_timer;
use crate::PeerAdvertisement;
use simnet::{Datagram, NodeContext, SimAddress, SimDuration, SimNode, SimTime, TimerToken};
use std::any::Any;

/// Timer tag for the flyweight's renewal housekeeping. Lives in the JXTA
/// timer namespace (see [`is_jxta_timer`]) so harnesses that route timers by
/// namespace keep working unchanged.
const TIMER_FLYWEIGHT: u64 = 0x4A58_0002;

/// How often the flyweight wakes up to check its lease. Deliberately coarse:
/// a scale run covering tens of virtual seconds schedules *zero* renewal
/// events per subscriber, which is what keeps the 100k-node event queue
/// dominated by actual deliveries.
const HOUSEKEEPING_INTERVAL: SimDuration = SimDuration::from_secs(45);

/// Duplicate-suppression window: a copy is a duplicate iff its id is among
/// the newest `SEEN_WINDOW` mailbox entries. Small on purpose: a flyweight
/// only sees the traffic its own rendezvous fans down, where duplicates are
/// adjacent (mesh relay races), so a short window suffices and the check is
/// a scan of at most 64 ids, with nothing stored beyond the mailbox. The
/// window slides strictly oldest-first, so replays are bit-identical.
const SEEN_WINDOW: usize = 64;

/// A minimal subscriber: lease + subscription record + mailbox.
///
/// Compare with a full [`crate::JxtaPeer`]: no resolver, no cache manager,
/// no route table, no metrics registry, no trace collector. The only
/// behaviour kept is the client half of the rendezvous lease protocol and
/// pipe-filtered consumption of [`WireMessage::WireData`].
#[derive(Debug)]
pub struct FlyweightEdge {
    peer_id: PeerId,
    name: String,
    /// The single pipe this edge subscribes to.
    pipe: PipeId,
    /// The client half of the lease protocol — the same state machine as a
    /// full peer's, under [`LeasePolicy::flyweight`], so both peer kinds
    /// land on the same rendezvous for the same name and dead shards heal
    /// the same way.
    lease: LeaseClient,
    /// Every accepted event: `(delivery time, message id)` in arrival order.
    /// Its newest [`SEEN_WINDOW`] ids are the duplicate-suppression window.
    mailbox: Vec<(SimTime, Uuid)>,
    // 32-bit on purpose: the two counters share one 8-byte word.
    duplicates: u32,
    connects_sent: u32,
}

impl FlyweightEdge {
    /// Creates a flyweight subscribed to `pipe`, leasing with one of
    /// `seeds` (sharded by peer id over `shards` ring slots, exactly like a
    /// full peer under the rendezvous mesh strategy).
    pub fn new(name: impl Into<String>, seeds: Vec<SimAddress>, shards: usize, pipe: PipeId) -> Self {
        let name = name.into();
        FlyweightEdge {
            peer_id: PeerId::derive(&name),
            name,
            pipe,
            lease: LeaseClient::new(seeds, LeasePolicy::flyweight(shards)),
            mailbox: Vec::new(),
            duplicates: 0,
            connects_sent: 0,
        }
    }

    /// This edge's peer id (`PeerId::derive(name)`, same scheme as
    /// [`crate::PeerConfig`]).
    pub fn peer_id(&self) -> PeerId {
        self.peer_id
    }

    /// The edge's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lease currently held, if any.
    pub fn lease(&self) -> Option<&Lease> {
        self.lease.lease()
    }

    /// Accepted events in arrival order: `(delivery time, message id)`.
    pub fn mailbox(&self) -> &[(SimTime, Uuid)] {
        &self.mailbox
    }

    /// Events accepted (mailbox length).
    pub fn received_count(&self) -> usize {
        self.mailbox.len()
    }

    /// Duplicates suppressed by the mailbox's seen-window.
    pub fn duplicates(&self) -> u64 {
        u64::from(self.duplicates)
    }

    /// Connect requests sent (initial + renewals + failovers).
    pub fn connects_sent(&self) -> u64 {
        u64::from(self.connects_sent)
    }

    /// Stores `id` received at `now`, or counts it as a duplicate when it is
    /// among the newest [`SEEN_WINDOW`] ids already stored.
    fn accept(&mut self, now: SimTime, id: Uuid) {
        let window = &self.mailbox[self.mailbox.len().saturating_sub(SEEN_WINDOW)..];
        if window.iter().any(|&(_, seen)| seen == id) {
            self.duplicates += 1;
        } else {
            self.mailbox.push((now, id));
        }
    }

    fn send_connect(&mut self, ctx: &mut NodeContext<'_>) {
        let targets = self
            .lease
            .connect_targets(self.peer_id, |transport| ctx.local_address(transport).is_some());
        if targets.is_empty() {
            return;
        }
        let endpoints: Vec<SimAddress> = ctx
            .local_addresses()
            .iter()
            .copied()
            .filter(|a| a.transport.is_point_to_point())
            .collect();
        let adv = PeerAdvertisement::new(self.peer_id, self.name.clone(), PeerGroupId::net())
            .with_endpoints(endpoints);
        let wm = WireMessage::RendezvousConnect { peer: adv }.to_bytes();
        for target in targets {
            let _ = ctx.send(target, wm.clone());
            self.connects_sent += 1;
        }
    }
}

impl SimNode for FlyweightEdge {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        self.send_connect(ctx);
        ctx.set_timer(HOUSEKEEPING_INTERVAL, TIMER_FLYWEIGHT);
    }

    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, datagram: Datagram) {
        let Ok(wm) = WireMessage::from_bytes(&datagram.payload) else {
            return;
        };
        match wm {
            WireMessage::RendezvousLease {
                rdv,
                granted: true,
                lease_ms,
            } => self.lease.granted(
                rdv,
                datagram.src_addr,
                SimDuration::from_millis(lease_ms),
                ctx.now(),
            ),
            WireMessage::WireData(packet) => {
                if packet.pipe_id != self.pipe || packet.src_peer == self.peer_id {
                    return;
                }
                self.accept(ctx.now(), packet.msg_id);
            }
            // Refusals, resolver traffic, publishes: a flyweight has no use
            // for any of it.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _token: TimerToken, tag: u64) {
        if !is_jxta_timer(tag) {
            return;
        }
        if self.lease.tick(ctx.now()) {
            self.send_connect(ctx);
        }
        ctx.set_timer(HOUSEKEEPING_INTERVAL, TIMER_FLYWEIGHT);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::WirePacket;
    use simnet::{Network, NetworkBuilder, NodeConfig, NodeId, SubnetId, TransportKind};

    fn pipe() -> PipeId {
        PipeId::derive("SkiRental")
    }

    /// One flyweight alone on a LAN, and its node id.
    fn lone_edge() -> (Network, NodeId) {
        let mut builder = NetworkBuilder::new(7);
        let edge = FlyweightEdge::new(
            "edge-0",
            vec![SimAddress::new(TransportKind::Tcp, 1, 9701)],
            1,
            pipe(),
        );
        let node = builder.add_node(Box::new(edge), NodeConfig::lan_peer(SubnetId(0)));
        (builder.build(), node)
    }

    /// Hands the edge one `WireData` copy of `msg_id` on `pipe` from `src`.
    fn receive(net: &mut Network, node: NodeId, pipe: PipeId, src: PeerId, msg_id: u128) {
        let addr = SimAddress::new(TransportKind::Tcp, 1, 9701);
        let datagram = Datagram {
            src_node: NodeId::from_raw(u32::MAX),
            src_addr: addr,
            dst_addr: addr,
            transport: TransportKind::Tcp,
            payload: WireMessage::WireData(WirePacket {
                pipe_id: pipe,
                msg_id: Uuid(msg_id),
                src_peer: src,
                ttl: 1,
                trace_ids: Vec::new(),
                payload: bytes::Bytes::new(),
            })
            .to_bytes(),
        };
        net.invoke::<FlyweightEdge, _>(node, |edge, ctx| edge.on_datagram(ctx, datagram));
    }

    /// `(mailbox length, duplicates)`.
    fn counts(net: &mut Network, node: NodeId) -> (usize, u64) {
        net.invoke::<FlyweightEdge, _>(node, |edge, _| (edge.received_count(), edge.duplicates()))
    }

    #[test]
    fn seen_window_remembers_exactly_its_capacity() {
        let (mut net, node) = lone_edge();
        let publisher = PeerId::derive("shop-0");
        let window = SEEN_WINDOW as u128;
        for i in 0..=window {
            receive(&mut net, node, pipe(), publisher, i);
        }
        assert_eq!(counts(&mut net, node), (SEEN_WINDOW + 1, 0));
        for i in 1..=window {
            receive(&mut net, node, pipe(), publisher, i);
        }
        assert_eq!(
            counts(&mut net, node),
            (SEEN_WINDOW + 1, SEEN_WINDOW as u64),
            "the newest 64 are rejected and counted"
        );
        receive(&mut net, node, pipe(), publisher, 0);
        assert_eq!(
            counts(&mut net, node),
            (SEEN_WINDOW + 2, SEEN_WINDOW as u64),
            "the 65th-newest is forgotten and accepted again"
        );
    }

    #[test]
    fn foreign_pipes_and_own_copies_are_neither_stored_nor_counted() {
        let (mut net, node) = lone_edge();
        let (other, shop, me) = (
            PipeId::derive("Other"),
            PeerId::derive("shop-0"),
            PeerId::derive("edge-0"),
        );
        receive(&mut net, node, other, shop, 1);
        receive(&mut net, node, pipe(), me, 2);
        assert_eq!(counts(&mut net, node), (0, 0));
    }

    #[test]
    fn flyweight_state_is_small() {
        // The whole point of the flyweight: the per-subscriber footprint
        // must stay in flyweight territory. This bounds the *inline* struct
        // size; its heap is the lease's and the mailbox, whose newest
        // SEEN_WINDOW ids are also the dedup window.
        assert!(std::mem::size_of::<FlyweightEdge>() <= 256);
    }

    #[test]
    fn datagram_handle_is_small() {
        // The other per-subscriber cost at scale: every scheduled datagram,
        // queued send and decoded element embeds a `Bytes`, and a fan-down
        // to 100k leases holds 100k of them in the event queue at once. A
        // fat pointer plus `usize` bounds would make it 32 bytes.
        assert!(std::mem::size_of::<bytes::Bytes>() <= 16);
    }
}

//! Flyweight edge peers: the mega-scale subscriber representation.
//!
//! A full [`crate::JxtaPeer`] carries the six protocols, a cache manager, a
//! resolver, per-peer route tables and a metrics surface — hundreds of bytes
//! of state plus per-event codec work. None of that is needed to *measure*
//! dissemination at 100k subscribers: the paper's edge devices only lease
//! with a rendezvous and consume events. A [`FlyweightEdge`] is exactly that
//! residue — a lease, a subscription record and a mailbox — implemented
//! directly as a [`simnet::SimNode`] so a hundred thousand of them fit in a
//! few MB and cost nothing when idle.
//!
//! The flyweight speaks the real wire protocol (it sends a genuine
//! [`WireMessage::RendezvousConnect`] and parses the
//! [`WireMessage::RendezvousLease`] and [`WireMessage::WireData`] envelopes
//! the rendezvous produces), so the rendezvous side needs no changes and no
//! test-only back doors: from the mesh's point of view a flyweight is just
//! another leased client.

use crate::endpoint::WireMessage;
use crate::id::{PeerGroupId, PeerId, PipeId, Uuid};
use crate::peer::is_jxta_timer;
use crate::PeerAdvertisement;
use simnet::{Datagram, NodeContext, SimAddress, SimDuration, SimNode, SimTime, TimerToken};
use std::any::Any;
use std::collections::{HashSet, VecDeque};

/// Timer tag for the flyweight's renewal housekeeping. Lives in the JXTA
/// timer namespace (see [`is_jxta_timer`]) so harnesses that route timers by
/// namespace keep working unchanged.
pub const TIMER_FLYWEIGHT: u64 = 0x4A58_0002;

/// How often the flyweight wakes up to check its lease. Deliberately coarse:
/// a scale run covering tens of virtual seconds schedules *zero* renewal
/// events per subscriber, which is what keeps the 100k-node event queue
/// dominated by actual deliveries.
const HOUSEKEEPING_INTERVAL: SimDuration = SimDuration::from_secs(45);

/// Renew when the lease has less than this long to live. With the default
/// 120 s lease and a 45 s tick, renewal lands on the tick at t=90 s.
const RENEW_MARGIN: SimDuration = SimDuration::from_secs(60);

/// Duplicate-suppression window. Small on purpose: a flyweight only sees the
/// traffic its own rendezvous fans down, where duplicates are adjacent
/// (mesh relay races), so a short window suffices and 100k of them stay
/// cheap. Eviction is strictly oldest-first (FIFO), independent of hash
/// order, so replays are bit-identical.
const SEEN_WINDOW: usize = 64;

/// The lease a flyweight holds with its home rendezvous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlyweightLease {
    /// The rendezvous that granted the lease.
    pub rdv: PeerId,
    /// The address the grant arrived from — where renewals go.
    pub addr: SimAddress,
    /// When the lease lapses.
    pub expires_at: SimTime,
}

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
    /// Rendezvous seed addresses; the home shard is picked by the same
    /// ring formula as [`crate::JxtaPeer`] so both peer kinds land on the
    /// same rendezvous for the same name.
    seeds: Vec<SimAddress>,
    /// Shard count of the rendezvous mesh (`mesh_shards` in dissemination
    /// config terms).
    shards: usize,
    /// The single pipe this edge subscribes to.
    pipe: PipeId,
    lease: Option<FlyweightLease>,
    /// A connect is in flight and unanswered.
    connect_pending: bool,
    /// Ring-walk offset, advanced when the home rendezvous does not answer
    /// (mirrors the full peer's failover so dead shards heal the same way).
    failover_attempts: u64,
    seen: HashSet<Uuid>,
    seen_order: VecDeque<Uuid>,
    /// Every accepted event: `(delivery time, message id)` in arrival order.
    mailbox: Vec<(SimTime, Uuid)>,
    duplicates: u64,
    connects_sent: u64,
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
            seeds,
            shards: shards.max(1),
            pipe,
            lease: None,
            connect_pending: false,
            failover_attempts: 0,
            seen: HashSet::new(),
            seen_order: VecDeque::new(),
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
    pub fn lease(&self) -> Option<&FlyweightLease> {
        self.lease.as_ref()
    }

    /// Accepted events in arrival order: `(delivery time, message id)`.
    pub fn mailbox(&self) -> &[(SimTime, Uuid)] {
        &self.mailbox
    }

    /// Events accepted (mailbox length).
    pub fn received_count(&self) -> usize {
        self.mailbox.len()
    }

    /// Duplicates suppressed by the seen-window.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Connect requests sent (initial + renewals + failovers).
    pub fn connects_sent(&self) -> u64 {
        self.connects_sent
    }

    fn send_connect(&mut self, ctx: &mut NodeContext<'_>) {
        // Same reachability filter and ring formula as the full peer's
        // `connect_to_rendezvous`: hash onto a home shard among the usable
        // seeds, then walk the ring by the failover offset.
        let usable: Vec<SimAddress> = self
            .seeds
            .iter()
            .copied()
            .filter(|seed| ctx.local_address(seed.transport).is_some())
            .collect();
        if usable.is_empty() {
            return;
        }
        let shards = usable.len().min(self.shards);
        let home = dissem::shard_index(self.peer_id.0 .0, shards);
        let target = usable[(home + self.failover_attempts as usize) % shards];
        let endpoints: Vec<SimAddress> = ctx
            .local_addresses()
            .iter()
            .copied()
            .filter(|a| a.transport.is_point_to_point())
            .collect();
        let adv = PeerAdvertisement::new(self.peer_id, self.name.clone(), PeerGroupId::net())
            .with_endpoints(endpoints);
        let wm = WireMessage::RendezvousConnect { peer: adv };
        let _ = ctx.send(target, wm.to_bytes());
        self.connect_pending = true;
        self.connects_sent += 1;
    }

    fn note_seen(&mut self, msg_id: Uuid) -> bool {
        if self.seen.contains(&msg_id) {
            return false;
        }
        if self.seen_order.len() == SEEN_WINDOW {
            if let Some(evicted) = self.seen_order.pop_front() {
                self.seen.remove(&evicted);
            }
        }
        self.seen.insert(msg_id);
        self.seen_order.push_back(msg_id);
        true
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
            } => {
                self.lease = Some(FlyweightLease {
                    rdv,
                    addr: datagram.src_addr,
                    expires_at: ctx.now() + SimDuration::from_millis(lease_ms),
                });
                self.connect_pending = false;
            }
            WireMessage::WireData(packet) => {
                if packet.pipe_id != self.pipe || packet.src_peer == self.peer_id {
                    return;
                }
                if self.note_seen(packet.msg_id) {
                    self.mailbox.push((ctx.now(), packet.msg_id));
                } else {
                    self.duplicates += 1;
                }
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
        // A lapsed lease is no lease: dropping it here lets the failover
        // branch below advance the ring instead of waiting on a rendezvous
        // that stopped answering.
        if self.lease.is_some_and(|lease| ctx.now() >= lease.expires_at) {
            self.lease = None;
        }
        let needs_lease = match self.lease {
            None => true,
            Some(lease) => ctx.now() + RENEW_MARGIN >= lease.expires_at,
        };
        if needs_lease {
            if self.connect_pending && self.lease.is_none() {
                // The previous connect went unanswered: walk the ring to the
                // next shard, like the full peer's failover.
                self.failover_attempts += 1;
            }
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

    #[test]
    fn seen_window_is_bounded_and_fifo() {
        let mut edge = FlyweightEdge::new(
            "edge-0",
            vec![SimAddress::new(simnet::TransportKind::Tcp, 1, 9701)],
            1,
            PipeId::derive("SkiRental"),
        );
        // Fill well past the window; memory must stay bounded.
        for i in 0..10 * SEEN_WINDOW as u64 {
            assert!(edge.note_seen(Uuid(i as u128 + 1)));
        }
        assert_eq!(edge.seen.len(), SEEN_WINDOW);
        assert_eq!(edge.seen_order.len(), SEEN_WINDOW);
        // The newest SEEN_WINDOW ids are still rejected as duplicates...
        let newest = 10 * SEEN_WINDOW as u64;
        assert!(!edge.note_seen(Uuid(newest as u128)));
        // ...while an id evicted oldest-first is accepted again.
        assert!(edge.note_seen(Uuid(1)));
    }

    #[test]
    fn flyweight_state_is_small() {
        // The whole point of the flyweight: the per-subscriber footprint
        // must stay in flyweight territory. This bounds the *inline* struct
        // size; heap state is bounded by SEEN_WINDOW and the mailbox.
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

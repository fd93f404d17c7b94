//! Upcalls from the JXTA platform to the application (or TPS) layer.
//!
//! The peer platform is written sans-I/O-callback style: handling a datagram
//! or timer produces a list of [`JxtaEvent`]s that the owning node drains with
//! [`crate::peer::JxtaPeer::take_events`] and interprets — the Rust equivalent
//! of JXTA's listener interfaces (`DiscoveryListener`, pipe `InputStream`s,
//! rendezvous events, ...).

use crate::adv::AnyAdvertisement;
use crate::id::{PeerId, PipeId};
use crate::message::Message;

/// An event produced by the JXTA platform for its application layer.
#[derive(Debug, Clone, PartialEq)]
pub enum JxtaEvent {
    /// A new (previously unseen) advertisement was learned, through discovery
    /// responses, pushes or rendezvous connections.
    AdvertisementDiscovered {
        /// The advertisement.
        adv: AnyAdvertisement,
        /// The peer it was learned from.
        source: PeerId,
    },
    /// A message arrived on a wire (many-to-many) pipe this peer listens on.
    WireMessageReceived {
        /// The pipe the message arrived on.
        pipe_id: PipeId,
        /// The peer that originally published the message.
        src_peer: PeerId,
        /// The application message.
        message: Message,
    },
    /// A pipe-binding response arrived: `peer` hosts an input pipe for
    /// `pipe_id` and has been bound to the local output pipe.
    PipeResolved {
        /// The pipe that was resolved.
        pipe_id: PipeId,
        /// The listening peer.
        peer: PeerId,
    },
    /// This peer obtained (or renewed) a lease with a rendezvous.
    RendezvousConnected {
        /// The rendezvous peer.
        rdv: PeerId,
    },
    /// This rendezvous established a new mesh link to a fellow rendezvous
    /// (sharded rendezvous-mesh deployments).
    MeshLinked {
        /// The newly linked rendezvous peer.
        rdv: PeerId,
    },
    /// The rebalancing controller declared a fellow rendezvous dead: its
    /// load reports stopped for the configured number of report intervals.
    /// The local rendezvous drops the mesh link; the dead shard's edges
    /// re-lease with the ring adopter as their leases expire.
    ShardDead {
        /// The rendezvous whose shard went dark.
        rdv: PeerId,
    },
    /// A load report arrived from a rendezvous previously declared dead —
    /// its shard is serving again (the mesh link heals via the next hello).
    ShardRevived {
        /// The rendezvous that came back.
        rdv: PeerId,
    },
}

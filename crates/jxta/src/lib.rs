//! # jxta — a from-scratch Rust implementation of the JXTA P2P substrate
//!
//! This crate re-implements the parts of Sun's JXTA 1.0 specification that the
//! paper *"OS Support for P2P Programming: a Case for TPS"* (ICDCS 2002)
//! builds on: identifiers, XML advertisements, messages, the three protocols
//! TPS sends (PRP, PDP, PBP) and the service layer (discovery, resolver,
//! rendezvous, pipes and the many-to-many wire service), all running on the
//! [`simnet`] discrete-event network simulator. Section 2.2's other three
//! protocols (PIP, PMP, ERP) are omitted, because TPS never sends them.
//!
//! The central type is [`peer::JxtaPeer`]: one instance per simulated device,
//! embedded in an application node. Applications forward their node's
//! lifecycle hooks to the peer and drain [`events::JxtaEvent`]s from it; the
//! TPS layer (crate `tps`) is exactly such an application.
//!
//! ```
//! use jxta::peer::{JxtaPeer, PeerConfig};
//!
//! let peer = JxtaPeer::new(PeerConfig::edge("alice"));
//! assert_eq!(peer.peer_id(), JxtaPeer::new(PeerConfig::edge("alice")).peer_id());
//! ```
#![warn(rust_2018_idioms)]

pub mod adv;
pub mod cm;
pub mod endpoint;
pub mod error;
pub mod events;
pub mod flyweight;
pub mod forensics;
pub mod id;
pub mod lease;
pub mod message;
pub mod peer;
pub mod peergroup;
pub mod protocols;
pub mod seen;
pub mod services;
pub mod xml;

pub use dissem;
pub use dissem::{DisseminationConfig, RebalanceConfig, StrategyKind};
pub use telemetry;
pub use telemetry::{LoadReport, MetricsRegistry, MetricsSnapshot};

/// The shared byte buffer element bodies and wire payloads are views of.
pub use bytes::Bytes;

pub use adv::{
    AdvKind, Advertisement, AnyAdvertisement, PeerAdvertisement, PeerGroupAdvertisement, PipeAdvertisement,
    PipeType, ServiceAdvertisement,
};
pub use cm::SearchFilter;
pub use error::JxtaError;
pub use events::JxtaEvent;
pub use flyweight::FlyweightEdge;
pub use forensics::TraceJoin;
pub use id::{PeerGroupId, PeerId, PipeId, QueryId, Uuid};
pub use lease::{Lease, LeaseClient, LeasePolicy};
pub use message::{Message, MessageElement};
pub use peer::{
    is_jxta_timer, trace_handle, CostModel, JxtaPeer, PeerConfig, SharedTraceCollector, TIMER_HOUSEKEEPING,
};
pub use peergroup::{PeerGroup, PS_PREFIX};
pub use seen::SeenWindow;

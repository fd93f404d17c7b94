//! JXTA services: the building blocks of the service layer.
//!
//! Each service is a plain state machine (no I/O of its own); the
//! [`crate::peer::JxtaPeer`] platform wires them to the network and to each
//! other, mirroring the JXTA service layer of the paper's Section 2.

pub mod discovery;
pub mod rendezvous;
pub mod wire;

pub use discovery::DiscoveryService;
pub use rendezvous::{RendezvousService, ShardLoadEntry};
pub use wire::{OutputPipeState, WireService};

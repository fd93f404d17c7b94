//! # simnet — a deterministic discrete-event wide-area network simulator
//!
//! This crate is the bottom-most substrate of the reproduction of *"OS Support
//! for P2P Programming: a Case for TPS"* (ICDCS 2002). The paper evaluates a
//! Type-based Publish/Subscribe layer stacked on JXTA over a small LAN of
//! workstations; here, the "machines" and the "network" are simulated so that
//! every experiment is laptop-runnable and bit-for-bit reproducible.
//!
//! The model is a classic event-driven simulation:
//!
//! * nodes implement [`SimNode`] and react to datagrams and timers,
//! * handlers queue effects on a [`NodeContext`] (send, set timer, charge
//!   virtual CPU time, ...); a [`Waker`] taken from it lets code outside the
//!   simulation run a node's timer handler at the current instant,
//! * the [`Network`] kernel owns the virtual clock, resolves addresses, applies
//!   link latency/jitter/bandwidth/loss, firewalls and subnet-scoped
//!   multicast, and delivers events in deterministic order.
//!
//! # Quick example
//!
//! ```
//! use simnet::{NetworkBuilder, NodeConfig, SimNode, NodeContext, Datagram, SubnetId, TransportKind};
//! use bytes::Bytes;
//!
//! /// A peer that greets every datagram it receives.
//! struct Greeter { greetings: usize }
//!
//! impl SimNode for Greeter {
//!     fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, _dg: Datagram) {
//!         self.greetings += 1;
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut builder = NetworkBuilder::new(1);
//! let alice = builder.add_node(Box::new(Greeter { greetings: 0 }), NodeConfig::lan_peer(SubnetId(0)));
//! let bob = builder.add_node(Box::new(Greeter { greetings: 0 }), NodeConfig::lan_peer(SubnetId(0)));
//! let mut net = builder.build();
//!
//! let bob_tcp = net.addresses_of(bob).iter().copied()
//!     .find(|a| a.transport == TransportKind::Tcp).unwrap();
//! net.invoke::<Greeter, _>(alice, |_peer, ctx| {
//!     ctx.send(bob_tcp, Bytes::from_static(b"hi")).unwrap();
//! });
//! net.run_until_idle();
//! assert_eq!(net.node_ref::<Greeter>(bob).unwrap().greetings, 1);
//! ```

#![warn(rust_2018_idioms)]

pub mod address;
pub mod datagram;
pub mod fault;
pub mod firewall;
pub mod id;
pub mod link;
pub mod network;
pub mod node;
pub mod stats;
pub mod time;
pub mod trace;

pub use address::{SimAddress, TransportKind};
pub use datagram::{Datagram, SendError};
pub use fault::{ChurnDriver, FaultAction};
pub use firewall::FirewallPolicy;
pub use id::{NodeId, SubnetId, TimerToken};
pub use link::{LinkSpec, LinkTable};
pub use network::{Network, NetworkBuilder, DEFAULT_MAX_DATAGRAM};
pub use node::{NodeConfig, NodeContext, SimNode, Waker};
pub use stats::{DropReason, DropSummary, TrafficStats};
pub use time::{SimDuration, SimTime};
pub use trace::{DropLog, DropRecord};

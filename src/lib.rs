//! # tps-jxta — reproduction of "OS Support for P2P Programming: a Case for TPS"
//!
//! Umbrella crate re-exporting the workspace's public API:
//!
//! * [`simnet`] — deterministic discrete-event WAN simulator (the "machines"
//!   and "network" of the paper's testbed),
//! * [`jxta`] — a from-scratch implementation of the JXTA P2P substrate
//!   (IDs, XML advertisements, messages, the PRP/PDP/PBP protocols TPS
//!   sends, the services),
//! * [`tps`] — the paper's contribution: Type-based Publish/Subscribe,
//! * [`ski_rental`] — the evaluation application in its three flavours plus
//!   the measurement harness regenerating the paper's figures.
//!
//! See `examples/quickstart.rs` for the paper's four-phase walk-through and
//! `EXPERIMENTS.md` for the paper-vs-measured comparison.
#![warn(rust_2018_idioms)]

pub use jxta;
pub use simnet;
pub use ski_rental;
pub use tps;

//! # ski-rental — the paper's evaluation application, three ways
//!
//! The ICDCS 2002 TPS paper compares the programming and performance of the
//! same ski-rental application written (a) over the TPS abstraction
//! ([`tps_app`], *SR-TPS*), (b) directly over JXTA with equal functionality
//! ([`jxta_app`], *SR-JXTA*), and (c) over the bare JXTA-WIRE service (also
//! [`jxta_app`], with the full-featured flag off). The [`harness`] module
//! builds the paper's testbed topologies and regenerates the series behind
//! Figures 18–20 and the Section 4.4 programming-effort comparison.
#![warn(rust_2018_idioms)]

pub mod harness;
pub mod jxta_app;
pub mod node;
pub mod tps_app;
pub mod types;
pub mod workload;

pub use harness::{
    batch_comparison, dissemination_comparison, invocation_time, loc_report, mesh_fanout_report,
    publisher_throughput, stats, subscriber_throughput, LocReport, MeshReport, Scenario, ScenarioSpec,
    SeriesStats, ShardLoadRow,
};
pub use jxta::{DisseminationConfig, RebalanceConfig, StrategyKind};
pub use jxta_app::{JxtaSkiApp, Role};
pub use node::{Flavor, SkiNode};
pub use tps_app::TpsSkiApp;
pub use types::{RentalOffer, SkiRental, SnowboardRental};
pub use workload::OfferGenerator;

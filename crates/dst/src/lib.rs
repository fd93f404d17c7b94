//! Deterministic fault explorer for the TPS reproduction — a
//! simulation-testing harness in the style FoundationDB made famous,
//! adapted to the discrete-event network under `simnet`.
//!
//! One `u64` seed deterministically produces one [`FaultSchedule`]: a random
//! topology (dissemination strategy, shard count, peer populations) plus a
//! random fault timeline (kills, revivals, overlay cuts, loss bursts)
//! expressed as a serializable script. The runner replays the schedule
//! under the virtual clock and checks the deployment's global invariants —
//! exactly-once probe delivery to every surviving subscriber, zero unknown
//! forensic verdicts, no stranded edges, a consistent adoption map. When a
//! schedule fails, the minimizer greedily shrinks it (dropping faults,
//! cutting population) to the smallest script that still fails, and that
//! script round-trips through [`Display`]/[`FromStr`] so it can be pasted
//! verbatim into a regression test.
//!
//! Run a sweep from the command line:
//!
//! ```text
//! cargo run --release -p dst -- --seeds 0..100
//! ```
//!
//! The crate's own self-test plants a known wrap-around bug in the
//! rebalancing plane (cargo feature `canary`, which enables
//! `dissem/dst-canary`) and asserts the explorer finds and minimizes it;
//! with the feature off, the same sweep must come back clean. See
//! `docs/dst.md` for the schedule format, the invariant catalogue and a
//! worked walkthrough.
//!
//! [`Display`]: std::fmt::Display
//! [`FromStr`]: std::str::FromStr

pub mod explore;
pub mod gen;
pub mod minimize;
pub mod run;
pub mod schedule;

pub use explore::{sweep, SeedFailure, SweepReport};
pub use gen::{generate, generate_with, GenConfig};
pub use minimize::{minimize, Minimized};
pub use run::{run_schedule, RunReport, Violation};
pub use schedule::{Fault, FaultSchedule, StrategyKind, Target, Topology};

//! The host clock, read in one place.
//!
//! The repository's determinism audit (`detlint`, rule D001) rejects
//! wall-clock reads everywhere but `crates/bench/` and the shims, and scans
//! this package too. Measuring the simulator on the host clock is what this
//! package is for, so every read goes through [`now`] and the one audited
//! exception sits here. Nothing read here feeds back into a simulation.

use std::time::Instant;

/// Now, on the host clock.
pub fn now() -> Instant {
    // detlint::allow(D001, reason = "the benchmark times the simulator from outside; no simulated behaviour depends on it")
    Instant::now()
}

//! The load-aware shard rebalancing controller.
//!
//! The sharded rendezvous mesh (PR 3) confines a rendezvous failure to its
//! own shard, but until this controller existed the *only* way that shard
//! ever heard events again was the dead rendezvous being revived. The churn
//! tests scripted exactly that; production cannot. This module closes the
//! loop: fed by the wire-level load-report plane (every rendezvous gossips a
//! `telemetry::LoadReport` across its mesh links on each housekeeping tick),
//! it declares a shard **dead** when its rendezvous misses
//! `MISS_THRESHOLD` (3) consecutive report intervals — by
//! construction longer than any transient outage the lease lifetime already
//! absorbs — and **hot** when its lease count exceeds a configurable ratio
//! of the mean.
//!
//! Recovery is deterministic and needs no coordination: every surviving
//! rendezvous runs the same controller over the same gossiped table, and the
//! adoption rule (`adopter_of`) is a pure function of the alive set — the
//! dead shard's hash range is adopted by the **next surviving shard in ring
//! order**. Edge peers converge on the same answer independently: when their
//! lease expires un-renewed they walk the same ring
//! (`home + 1, home + 2, …` mod N) until a rendezvous answers, which is the
//! adopter. No re-shard map ever has to travel on the wire.
//!
//! The controller is deliberately *below* the protocol stack (like the
//! strategies): it knows nothing about pipes, addresses or simulation time —
//! callers feed it peer identifiers and millisecond timestamps from whatever
//! clock they run.

use std::collections::{BTreeMap, BTreeSet};

/// How many consecutive report intervals a rendezvous may miss before its
/// shard is declared dead.
const MISS_THRESHOLD: u32 = 3;

/// The dead-detection horizon in milliseconds for a given report interval:
/// a peer unheard for this long has missed `MISS_THRESHOLD` consecutive
/// intervals.
fn dead_after_ms(interval_ms: u64) -> u64 {
    u64::from(MISS_THRESHOLD) * interval_ms
}

/// Static configuration of the rebalancing controller, carried inside
/// [`crate::DisseminationConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceConfig {
    /// Whether the load-report plane runs at all — reports, gossip, dead
    /// detection and edge failover together. Disabled, the stack behaves
    /// (traffic included) as before the controller existed: a dead shard
    /// stays dead until its rendezvous is revived (the `rebalance` section
    /// of `reproduce` measures exactly this difference).
    pub enabled: bool,
    /// A shard is flagged hot when `lease_count * 100` exceeds
    /// `hot_ratio_percent * mean_lease_count` (e.g. `200` = twice the mean).
    /// `0` disables hot detection.
    pub hot_ratio_percent: u32,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            enabled: true,
            hot_ratio_percent: 200,
        }
    }
}

impl RebalanceConfig {
    /// A controller that never intervenes (the pre-PR-5 behaviour).
    pub fn disabled() -> Self {
        RebalanceConfig {
            enabled: false,
            ..RebalanceConfig::default()
        }
    }
}

/// What [`RebalanceController::tick`] observed changing this interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceEvent<P> {
    /// The peer missed the threshold of report intervals and its shard is
    /// now considered dead.
    ShardDead(P),
    /// A report arrived from a peer previously declared dead.
    ShardRevived(P),
}

/// Tracks per-shard health from load-report arrival times and emits
/// dead/revived transitions. One instance runs inside every rendezvous (and
/// anywhere else that watches the load table); identical inputs produce
/// identical verdicts everywhere.
#[derive(Debug, Clone, Default)]
pub struct RebalanceController<P: Copy + Ord> {
    config: RebalanceConfig,
    last_heard_ms: BTreeMap<P, u64>,
    dead: BTreeSet<P>,
}

impl<P: Copy + Ord> RebalanceController<P> {
    /// Creates a controller with the given configuration.
    pub fn new(config: RebalanceConfig) -> Self {
        RebalanceController {
            config,
            last_heard_ms: BTreeMap::new(),
            dead: BTreeSet::new(),
        }
    }

    /// Records a load report heard from `peer` at `now_ms`. Returns
    /// `Some(ShardRevived)` if the peer had been declared dead.
    pub fn note_report(&mut self, peer: P, now_ms: u64) -> Option<RebalanceEvent<P>> {
        self.last_heard_ms.insert(peer, now_ms);
        if self.dead.remove(&peer) {
            Some(RebalanceEvent::ShardRevived(peer))
        } else {
            None
        }
    }

    /// Runs one detection pass at `now_ms` with reports expected every
    /// `interval_ms`: peers unheard past the miss threshold transition to
    /// dead. Returns the transitions of this pass, in peer order. A
    /// disabled controller never declares anything.
    pub fn tick(&mut self, now_ms: u64, interval_ms: u64) -> Vec<RebalanceEvent<P>> {
        if !self.config.enabled {
            return Vec::new();
        }
        let horizon = dead_after_ms(interval_ms);
        let mut events = Vec::new();
        for (&peer, &heard) in &self.last_heard_ms {
            if now_ms.saturating_sub(heard) >= horizon && !self.dead.contains(&peer) {
                events.push(RebalanceEvent::ShardDead(peer));
            }
        }
        for event in &events {
            if let RebalanceEvent::ShardDead(peer) = event {
                self.dead.insert(*peer);
            }
        }
        events
    }

    /// Whether `peer` is currently considered dead.
    pub fn is_dead(&self, peer: P) -> bool {
        self.dead.contains(&peer)
    }

    /// The peers currently considered dead, in order.
    pub fn dead_peers(&self) -> Vec<P> {
        self.dead.iter().copied().collect()
    }
}

/// The surviving shard that adopts dead shard `dead_index`: the next alive
/// index in ring order. Returns `None` when every shard is dead (nothing
/// can adopt) or the index is out of range.
fn adopter_of(dead_index: usize, alive: &[bool]) -> Option<usize> {
    let n = alive.len();
    if dead_index >= n {
        return None;
    }
    // The `dst` explorer's planted canary (see crates/dst/tests/canary.rs):
    // with the `dst-canary` feature on, the adoption ring fails to wrap, so
    // the last shard's hash range is orphaned when its rendezvous dies —
    // exactly the class of off-by-one the adoption-coverage invariant must
    // catch. Compiled out entirely in normal builds.
    #[cfg(feature = "dst-canary")]
    if dead_index + 1 == n {
        return None;
    }
    (1..n)
        .map(|step| (dead_index + step) % n)
        .find(|&candidate| alive[candidate])
}

/// The full ownership map under the given alive set: `map[i]` is the shard
/// that currently serves hash range `i` (itself when alive, its ring
/// adopter when dead, `None` when the whole mesh is down).
pub fn adoption_map(alive: &[bool]) -> Vec<Option<usize>> {
    (0..alive.len())
        .map(|index| {
            if alive[index] {
                Some(index)
            } else {
                adopter_of(index, alive)
            }
        })
        .collect()
}

/// The shards whose lease count exceeds `hot_ratio_percent` of the mean —
/// the operator-facing hot-shard flag of `shard_load_report`. `0` disables
/// detection; shards need at least one lease overall to avoid flagging an
/// idle mesh.
pub fn hot_shards(lease_counts: &[u32], hot_ratio_percent: u32) -> Vec<usize> {
    if hot_ratio_percent == 0 || lease_counts.is_empty() {
        return Vec::new();
    }
    let total: u64 = lease_counts.iter().map(|&c| u64::from(c)).sum();
    if total == 0 {
        return Vec::new();
    }
    // lease_count / mean > ratio/100  ⟺  lease_count * len * 100 > ratio * total
    lease_counts
        .iter()
        .enumerate()
        .filter(|&(_, &count)| {
            u64::from(count) * lease_counts.len() as u64 * 100 > u64::from(hot_ratio_percent) * total
        })
        .map(|(index, _)| index)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_and_horizon() {
        let config = RebalanceConfig::default();
        assert!(config.enabled);
        assert_eq!(config.hot_ratio_percent, 200);
        assert_eq!(MISS_THRESHOLD, 3);
        assert_eq!(dead_after_ms(30_000), 90_000);
        assert!(!RebalanceConfig::disabled().enabled);
    }

    #[test]
    fn controller_declares_dead_after_k_missed_intervals() {
        let mut controller: RebalanceController<u32> = RebalanceController::new(RebalanceConfig {
            enabled: true,
            hot_ratio_percent: 0,
        });
        controller.note_report(7, 0);
        assert!(controller.tick(30_000, 30_000).is_empty(), "1 missed interval");
        assert!(controller.tick(60_000, 30_000).is_empty(), "2 missed intervals");
        assert_eq!(
            controller.tick(90_000, 30_000),
            vec![RebalanceEvent::ShardDead(7)],
            "3 missed intervals cross the threshold"
        );
        assert!(controller.is_dead(7));
        assert_eq!(controller.dead_peers(), vec![7]);
        assert!(
            controller.tick(120_000, 30_000).is_empty(),
            "death is reported once, not every tick"
        );
    }

    #[test]
    fn reports_keep_peers_alive_and_revive_dead_ones() {
        let mut controller: RebalanceController<u32> = RebalanceController::new(RebalanceConfig::default());
        controller.note_report(1, 0);
        controller.note_report(1, 60_000);
        assert!(controller.tick(120_000, 30_000).is_empty(), "refreshed in time");
        assert_eq!(
            controller.tick(150_000, 30_000),
            vec![RebalanceEvent::ShardDead(1)]
        );
        assert_eq!(
            controller.note_report(1, 151_000),
            Some(RebalanceEvent::ShardRevived(1))
        );
        assert!(!controller.is_dead(1));
        assert_eq!(controller.note_report(1, 152_000), None, "already alive");
    }

    #[test]
    fn disabled_controller_never_intervenes() {
        let mut controller: RebalanceController<u32> = RebalanceController::new(RebalanceConfig::disabled());
        controller.note_report(1, 0);
        assert!(controller.tick(1_000_000, 30_000).is_empty());
        assert!(!controller.is_dead(1));
    }

    #[test]
    fn adoption_walks_the_ring_to_the_next_survivor() {
        let alive = [true, false, false, true];
        assert_eq!(adopter_of(1, &alive), Some(3));
        assert_eq!(adopter_of(2, &alive), Some(3));
        assert_eq!(
            adopter_of(0, &alive),
            Some(3),
            "an alive shard's adopter is moot but defined"
        );
        assert_eq!(adopter_of(3, &alive), Some(0), "ring wraps");
        assert_eq!(adopter_of(9, &alive), None, "out of range");
        assert_eq!(adopter_of(0, &[false, false]), None, "all dead: nobody adopts");
        assert_eq!(adoption_map(&alive), vec![Some(0), Some(3), Some(3), Some(3)]);
        assert_eq!(adoption_map(&[]), Vec::<Option<usize>>::new());
    }

    #[test]
    fn identical_alive_sets_give_identical_maps_everywhere() {
        // The decentralised-consistency property: any two controllers that
        // agree on the alive set agree on the full ownership map.
        let alive = [false, true, true, false, true];
        assert_eq!(adoption_map(&alive), adoption_map(&alive));
        assert_eq!(adoption_map(&alive)[0], Some(1));
        assert_eq!(adoption_map(&alive)[3], Some(4));
    }

    #[test]
    fn hot_shards_flag_outliers_only() {
        assert_eq!(hot_shards(&[10, 1, 1, 0], 200), vec![0], "10 vs mean 3 is hot");
        assert!(hot_shards(&[3, 3, 3, 3], 200).is_empty(), "balanced mesh");
        assert!(hot_shards(&[0, 0], 200).is_empty(), "idle mesh is never hot");
        assert!(hot_shards(&[10, 1], 0).is_empty(), "ratio 0 disables detection");
        assert!(hot_shards(&[], 200).is_empty());
        // Exactly at the ratio is not hot (strict inequality).
        assert!(hot_shards(&[2, 1, 1, 0], 200).is_empty());
    }
}

//! Exactly-once delivery under every dissemination strategy.
//!
//! Property: on a randomized topology (a configurable number of rendezvous
//! peers, a random number of publishers and subscribers) every subscriber
//! receives every published wire message **exactly once** — no loss, and no
//! duplicate surviving the seen-window dedup — whichever of the three
//! strategies the peers run. A second property checks the sharded rendezvous
//! mesh against the paper baseline: across shard counts, `RendezvousMesh`
//! delivers exactly the same set of events as `DirectFanout` on the same
//! topology.
//!
//! The gossip configuration uses a fanout larger than any generated
//! neighbourhood, which degenerates to flooding-with-dedup and therefore
//! guarantees coverage on these connected topologies (the probabilistic
//! regime is measured by `tests/gossip_probability.rs` and the
//! `ablation_dissem` bench instead).

mod common;

use common::build;
use jxta::{DisseminationConfig, StrategyKind};
use proptest::prelude::*;
use simnet::SimDuration;
use std::collections::{BTreeMap, HashMap};

/// Runs the workload and returns, per subscriber, the delivery count per tag.
fn run(
    strategy: DisseminationConfig,
    rendezvous: usize,
    publishers: usize,
    subscribers: usize,
    events: usize,
    seed: u64,
) -> Vec<HashMap<String, usize>> {
    let mut topology = build(strategy, rendezvous, publishers, subscribers, seed);
    topology.warm_up();
    for p in 0..publishers {
        for e in 0..events {
            topology.publish_tag(p, &format!("pub{p}-event{e}"));
            topology.net.run_for(SimDuration::from_millis(250));
        }
    }
    topology.net.run_for(SimDuration::from_secs(10));
    (0..subscribers).map(|i| topology.delivered_counts(i)).collect()
}

/// The per-subscriber delivered tag sets (order-insensitive), for comparing
/// two strategies on the same topology.
fn delivered_sets(per_subscriber: &[HashMap<String, usize>]) -> Vec<BTreeMap<String, usize>> {
    per_subscriber
        .iter()
        .map(|counts| counts.iter().map(|(k, v)| (k.clone(), *v)).collect())
        .collect()
}

fn strategy_of(index: usize, shards: usize) -> DisseminationConfig {
    match StrategyKind::ALL[index % StrategyKind::ALL.len()] {
        StrategyKind::DirectFanout => DisseminationConfig::direct_fanout(),
        StrategyKind::RendezvousMesh => DisseminationConfig::rendezvous_mesh(shards),
        // Fanout 64 >= any generated neighbourhood: flooding-with-dedup.
        StrategyKind::Gossip => DisseminationConfig::gossip(64, 4),
    }
}

proptest! {
    /// Every subscriber receives each published event exactly once, under
    /// each strategy, on randomized topologies (including multi-rendezvous
    /// deployments).
    #[test]
    fn every_subscriber_receives_each_event_exactly_once(
        strategy_index in 0usize..3,
        shards in 1usize..4,
        publishers in 1usize..3,
        subscribers in 1usize..6,
        events in 1usize..4,
        seed in 1u64..5_000,
    ) {
        let strategy = strategy_of(strategy_index, shards);
        let per_subscriber = run(strategy.clone(), shards, publishers, subscribers, events, seed);
        for (index, counts) in per_subscriber.iter().enumerate() {
            for p in 0..publishers {
                for e in 0..events {
                    let tag = format!("pub{p}-event{e}");
                    let count = counts.get(&tag).copied().unwrap_or(0);
                    prop_assert_eq!(
                        count, 1,
                        "strategy {} shards {} subscriber {} tag {}: delivered {} times (want exactly 1)",
                        strategy.kind, shards, index, tag, count
                    );
                }
            }
            prop_assert_eq!(
                counts.values().sum::<usize>(), publishers * events,
                "strategy {} shards {} subscriber {}: spurious deliveries {:?}",
                strategy.kind, shards, index, counts
            );
        }
    }

    /// The sharded rendezvous mesh delivers exactly the set of events the
    /// paper-baseline direct fan-out delivers, on the same randomized
    /// topology and shard count — and both are exactly-once.
    #[test]
    fn rendezvous_mesh_matches_direct_fanout_delivery(
        shards in 1usize..5,
        publishers in 1usize..3,
        subscribers in 1usize..6,
        events in 1usize..3,
        seed in 1u64..5_000,
    ) {
        let mesh = run(
            DisseminationConfig::rendezvous_mesh(shards),
            shards, publishers, subscribers, events, seed,
        );
        let direct = run(
            DisseminationConfig::direct_fanout(),
            shards, publishers, subscribers, events, seed,
        );
        let mesh_sets = delivered_sets(&mesh);
        let direct_sets = delivered_sets(&direct);
        prop_assert_eq!(
            &mesh_sets, &direct_sets,
            "shards {}: mesh delivered sets must match direct fan-out", shards
        );
        for (index, counts) in mesh_sets.iter().enumerate() {
            prop_assert_eq!(
                counts.len(), publishers * events,
                "shards {} subscriber {}: mesh must cover every event", shards, index
            );
            prop_assert!(
                counts.values().all(|&c| c == 1),
                "shards {} subscriber {}: every delivery exactly once, got {:?}",
                shards, index, counts
            );
        }
    }
}

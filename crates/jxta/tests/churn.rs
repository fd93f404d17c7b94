//! Churn and fault-injection tests for the sharded rendezvous mesh, driven
//! by the deterministic `simnet::ChurnDriver`.
//!
//! The paper's single-rendezvous topology dies with its rendezvous; the
//! sharded mesh is supposed to confine a rendezvous failure to its own
//! shard. These tests certify exactly that:
//!
//! * killing one of N rendezvous peers mid-run loses only the in-flight
//!   events of that shard's subscribers, and reviving it restores delivery;
//! * cutting the rendezvous-to-rendezvous mesh links partitions delivery at
//!   shard boundaries, and restoring the links heals it;
//! * the whole scenario — kills, revivals and all — is bit-for-bit
//!   reproducible for a given seed.
//!
//! Timing note: the scripts below keep every dead window well under the
//! 120 s client-lease lifetime, so shard membership survives the outage and
//! revival alone restores delivery (no re-shard needed).

mod common;

use common::{build, Topology};
use jxta::telemetry::trace::DeliveryVerdict;
use jxta::DisseminationConfig;
use simnet::{ChurnDriver, DropReason, NodeId, SimDuration};
use std::collections::HashMap;

const SHARDS: usize = 3;
const SUBSCRIBERS: usize = 6;
const SEED: u64 = 2002;

/// Builds the standard churn topology (3 mesh shards, 1 publisher,
/// 6 subscribers), warms it up and returns it together with the shard map:
/// `(topology, publisher_shard, subscribers_by_shard)`.
fn churn_topology(seed: u64) -> (Topology, NodeId, HashMap<NodeId, Vec<usize>>) {
    let mut topology = build(
        DisseminationConfig::rendezvous_mesh(SHARDS),
        SHARDS,
        1,
        SUBSCRIBERS,
        seed,
    );
    topology.warm_up();
    let publisher_shard = topology
        .shard_of(topology.publishers[0])
        .expect("publisher holds a lease after warm-up");
    let mut by_shard: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for index in 0..SUBSCRIBERS {
        let shard = topology
            .shard_of(topology.subscribers[index])
            .expect("every subscriber holds a lease after warm-up");
        by_shard.entry(shard).or_default().push(index);
    }
    (topology, publisher_shard, by_shard)
}

/// A shard that is not the publisher's and has at least one subscriber — the
/// victim whose failure must stay confined.
fn victim_shard(publisher_shard: NodeId, by_shard: &HashMap<NodeId, Vec<usize>>) -> NodeId {
    let mut candidates: Vec<NodeId> = by_shard
        .keys()
        .copied()
        .filter(|&shard| shard != publisher_shard)
        .collect();
    candidates.sort();
    *candidates
        .first()
        .expect("the fixed names of this topology spread subscribers over several shards")
}

#[test]
fn killing_one_shard_rendezvous_loses_only_that_shards_inflight_events() {
    let (mut topology, publisher_shard, by_shard) = churn_topology(SEED);
    let victim = victim_shard(publisher_shard, &by_shard);
    let victim_subscribers = by_shard[&victim].clone();
    assert!(!victim_subscribers.is_empty());

    // Phase 1: healthy mesh — everyone hears "before".
    topology.publish_tag(0, "before");
    topology.net.run_for(SimDuration::from_secs(5));

    // Phase 2: the victim rendezvous dies; events published during the
    // outage are in-flight casualties for its shard only.
    let kill_at = topology.net.now() + SimDuration::from_secs(1);
    let revive_at = kill_at + SimDuration::from_secs(20);
    let mut churn = ChurnDriver::new();
    churn.kill_at(kill_at, victim);
    churn.run_until(&mut topology.net, kill_at + SimDuration::from_secs(1));
    assert!(!topology.net.is_alive(victim));
    topology.publish_tag(0, "during");
    churn.run_until(&mut topology.net, kill_at + SimDuration::from_secs(19));

    // Phase 3: revival (the revived rendezvous re-announces its mesh links
    // from on_start); delivery to the shard resumes.
    churn.revive_at(revive_at, victim);
    churn.run_until(&mut topology.net, revive_at + SimDuration::from_secs(5));
    assert!(topology.net.is_alive(victim));
    topology.publish_tag(0, "after");
    topology.net.run_for(SimDuration::from_secs(10));

    for index in 0..SUBSCRIBERS {
        let counts = topology.delivered_counts(index);
        let on_victim_shard = victim_subscribers.contains(&index);
        assert_eq!(
            counts.get("before").copied().unwrap_or(0),
            1,
            "subscriber {index}: pre-churn event delivered exactly once"
        );
        assert_eq!(
            counts.get("during").copied().unwrap_or(0),
            usize::from(!on_victim_shard),
            "subscriber {index} (victim shard: {on_victim_shard}): only the dead \
             shard loses the in-flight event"
        );
        assert_eq!(
            counts.get("after").copied().unwrap_or(0),
            1,
            "subscriber {index}: revival restores delivery"
        );
    }
}

#[test]
fn cutting_mesh_links_partitions_at_shard_boundaries_and_healing_restores() {
    let (mut topology, publisher_shard, by_shard) = churn_topology(SEED);
    let other_shards: Vec<NodeId> = topology
        .rendezvous
        .iter()
        .copied()
        .filter(|&r| r != publisher_shard)
        .collect();

    // Cut every mesh link out of the publisher's shard, then publish.
    let cut_at = topology.net.now() + SimDuration::from_secs(1);
    let mut churn = ChurnDriver::new();
    for &other in &other_shards {
        churn.cut_link_at(cut_at, publisher_shard, other);
    }
    churn.run_until(&mut topology.net, cut_at + SimDuration::from_secs(1));
    topology.publish_tag(0, "partitioned");
    topology.net.run_for(SimDuration::from_secs(5));

    // Heal the links and publish again.
    let heal_at = topology.net.now() + SimDuration::from_secs(1);
    for &other in &other_shards {
        churn.restore_link_at(heal_at, publisher_shard, other);
    }
    churn.run_until(&mut topology.net, heal_at + SimDuration::from_secs(1));
    topology.publish_tag(0, "healed");
    topology.net.run_for(SimDuration::from_secs(10));

    for index in 0..SUBSCRIBERS {
        let counts = topology.delivered_counts(index);
        let local = by_shard
            .get(&publisher_shard)
            .is_some_and(|subs| subs.contains(&index));
        assert_eq!(
            counts.get("partitioned").copied().unwrap_or(0),
            usize::from(local),
            "subscriber {index}: with the mesh cut, only the publisher's own \
             shard ({local}) hears the event"
        );
        assert_eq!(
            counts.get("healed").copied().unwrap_or(0),
            1,
            "subscriber {index}: restored mesh links resume full delivery"
        );
    }
}

#[test]
fn churn_scenarios_are_deterministic_under_the_discrete_event_clock() {
    let run = |seed: u64| -> Vec<Vec<String>> {
        let (mut topology, publisher_shard, by_shard) = churn_topology(seed);
        let victim = victim_shard(publisher_shard, &by_shard);
        let mut churn = ChurnDriver::new();
        let base = topology.net.now();
        churn
            .kill_at(base + SimDuration::from_secs(2), victim)
            .revive_at(base + SimDuration::from_secs(12), victim);
        churn.run_until(&mut topology.net, base + SimDuration::from_secs(4));
        topology.publish_tag(0, "mid-outage");
        churn.run_until(&mut topology.net, base + SimDuration::from_secs(20));
        topology.publish_tag(0, "post-revival");
        topology.net.run_for(SimDuration::from_secs(10));
        (0..SUBSCRIBERS)
            .map(|i| {
                let mut tags: Vec<String> = topology.delivered_counts(i).into_keys().collect();
                tags.sort();
                tags
            })
            .collect()
    };
    assert_eq!(
        run(SEED),
        run(SEED),
        "identical seeds + identical churn scripts must reproduce identical deliveries"
    );
}

#[test]
fn killed_rendezvous_drops_are_accounted_as_node_down() {
    let (mut topology, publisher_shard, by_shard) = churn_topology(SEED);
    let victim = victim_shard(publisher_shard, &by_shard);
    let before = topology.net.drop_summary();
    let mut churn = ChurnDriver::new();
    let kill_at = topology.net.now() + SimDuration::from_secs(1);
    churn.kill_at(kill_at, victim);
    churn.run_until(&mut topology.net, kill_at + SimDuration::from_secs(1));
    topology.publish_tag(0, "lost");
    topology.net.run_for(SimDuration::from_secs(5));
    // The per-reason drop summary names the exact cause: the mesh copy sent
    // to the dead rendezvous is node_down, and *only* node_down — a kill
    // (unlike a link cut) must never surface as fault injection, random
    // loss or a firewall.
    let after = topology.net.drop_summary();
    assert!(
        after.of(simnet::DropReason::NodeDown) > before.of(simnet::DropReason::NodeDown),
        "the mesh copy addressed to the dead rendezvous must be counted"
    );
    for reason in [
        simnet::DropReason::FaultInjected,
        simnet::DropReason::RandomLoss,
        simnet::DropReason::Firewall,
    ] {
        assert_eq!(
            after.of(reason),
            before.of(reason),
            "a kill must not be misattributed to {reason}"
        );
    }
}

#[test]
fn tracing_explains_every_undelivered_copy_when_a_rendezvous_dies() {
    let (mut topology, publisher_shard, by_shard) = churn_topology(SEED);
    topology.enable_tracing(1 << 16);
    let victim = victim_shard(publisher_shard, &by_shard);
    let victim_subscribers = by_shard[&victim].clone();

    // One healthy publish, then one mid-outage publish.
    topology.publish_tag(0, "before");
    topology.net.run_for(SimDuration::from_secs(5));
    let kill_at = topology.net.now() + SimDuration::from_secs(1);
    let mut churn = ChurnDriver::new();
    churn.kill_at(kill_at, victim);
    churn.run_until(&mut topology.net, kill_at + SimDuration::from_secs(1));
    topology.publish_tag(0, "during");
    topology.net.run_for(SimDuration::from_secs(5));

    // The sweep itself is the acceptance check: zero unknown outcomes.
    let ids = topology.trace().traced_ids();
    assert_eq!(ids.len(), 2, "two publishes, two traced events");
    let (delivered, undelivered) = topology.assert_every_copy_explained();
    assert_eq!(
        delivered,
        2 * SUBSCRIBERS - victim_subscribers.len(),
        "everyone hears the healthy event; only the dead shard misses the second"
    );
    assert_eq!(undelivered, victim_subscribers.len());

    // And the forensics name the exact hop and transport cause: the copy
    // left the publisher's home rendezvous toward the dead one, where the
    // kernel swallowed it as node_down.
    let during = ids[1];
    for &index in &victim_subscribers {
        let verdict = topology.trace().why_missing(topology.subscribers[index], during);
        let DeliveryVerdict::LostOnWire { last_send } = verdict else {
            panic!("subscriber {index}: expected a wire loss, got: {verdict}");
        };
        assert_eq!(
            Some(last_send.node),
            topology.trace().handle_of(publisher_shard),
            "the blamed hop is the relaying rendezvous"
        );
        assert_eq!(
            topology.trace().kernel_drop_reason(&topology.net, &verdict),
            Some(DropReason::NodeDown),
            "subscriber {index}: the kernel join must name node_down"
        );
    }
}

#[test]
fn tracing_explains_partitioned_copies_as_fault_injected() {
    let (mut topology, publisher_shard, by_shard) = churn_topology(SEED);
    topology.enable_tracing(1 << 16);
    let local_subscribers = by_shard.get(&publisher_shard).cloned().unwrap_or_default();

    // Cut every mesh link out of the publisher's shard, then publish once.
    let cut_at = topology.net.now() + SimDuration::from_secs(1);
    let other_shards: Vec<NodeId> = topology
        .rendezvous
        .iter()
        .copied()
        .filter(|&r| r != publisher_shard)
        .collect();
    let mut churn = ChurnDriver::new();
    for &other in &other_shards {
        churn.cut_link_at(cut_at, publisher_shard, other);
    }
    churn.run_until(&mut topology.net, cut_at + SimDuration::from_secs(1));
    topology.publish_tag(0, "partitioned");
    topology.net.run_for(SimDuration::from_secs(5));

    let ids = topology.trace().traced_ids();
    assert_eq!(ids.len(), 1);
    let (delivered, undelivered) = topology.assert_every_copy_explained();
    assert_eq!(delivered, local_subscribers.len());
    assert_eq!(undelivered, SUBSCRIBERS - local_subscribers.len());
    for index in 0..SUBSCRIBERS {
        let verdict = topology.trace().why_missing(topology.subscribers[index], ids[0]);
        if local_subscribers.contains(&index) {
            assert!(verdict.is_delivered(), "subscriber {index} shares the shard");
            continue;
        }
        let DeliveryVerdict::LostOnWire { last_send } = verdict else {
            panic!("subscriber {index}: expected a wire loss, got: {verdict}");
        };
        assert_eq!(Some(last_send.node), topology.trace().handle_of(publisher_shard));
        assert_eq!(
            topology.trace().kernel_drop_reason(&topology.net, &verdict),
            Some(DropReason::FaultInjected),
            "subscriber {index}: a link cut must surface as fault_injected, not node_down"
        );
    }
}

#[test]
fn cut_mesh_links_drops_are_accounted_as_fault_injected() {
    let (mut topology, publisher_shard, _) = churn_topology(SEED);
    let other_shards: Vec<NodeId> = topology
        .rendezvous
        .iter()
        .copied()
        .filter(|&r| r != publisher_shard)
        .collect();
    let before = topology.net.drop_summary();
    let cut_at = topology.net.now() + SimDuration::from_secs(1);
    let mut churn = ChurnDriver::new();
    for &other in &other_shards {
        churn.cut_link_at(cut_at, publisher_shard, other);
    }
    churn.run_until(&mut topology.net, cut_at + SimDuration::from_secs(1));
    topology.publish_tag(0, "partitioned");
    topology.net.run_for(SimDuration::from_secs(5));
    let after = topology.net.drop_summary();
    assert!(
        after.of(simnet::DropReason::FaultInjected) > before.of(simnet::DropReason::FaultInjected),
        "copies swallowed by the cut must be fault_injected"
    );
    assert_eq!(
        after.of(simnet::DropReason::NodeDown),
        before.of(simnet::DropReason::NodeDown),
        "nobody died in this scenario — the cause must be the cut, not node_down"
    );
}

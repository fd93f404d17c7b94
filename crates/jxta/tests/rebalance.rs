//! Rebalancing-controller tests: permanent shard death on the sharded
//! rendezvous mesh, driven by `simnet::ChurnDriver`.
//!
//! The churn suite (`churn.rs`) certifies the *revival* path: a killed
//! rendezvous comes back within the lease lifetime and delivery resumes.
//! These tests certify the path the ROADMAP left open — the shard stays dead
//! *past* the lease lifetime and recovery must come from the control plane
//! instead:
//!
//! * surviving rendezvous stop hearing the victim's load reports, declare
//!   the shard dead after `miss_threshold` report intervals and drop its
//!   mesh link (adopting its hash range per the deterministic ring rule);
//! * the victim's edge peers find their lease expired with every renewal
//!   unanswered and walk the same ring to the adopter, re-leasing there;
//! * delivery to every subscriber resumes with **no revival**, and the
//!   telemetry plane (load table, metrics registry, drop summary) shows
//!   exactly what happened.

mod common;

use common::{build, DeliveryApp, Topology};
use jxta::peer::lan_address;
use jxta::{DisseminationConfig, MetricsRegistry};
use simnet::{ChurnDriver, DropReason, NodeId, SimDuration, SimTime};
use std::collections::HashMap;

const SHARDS: usize = 4;
const SUBSCRIBERS: usize = 8;
const SEED: u64 = 505;

/// Client leases run 120 virtual seconds; housekeeping every 30. Holding a
/// rendezvous down for 180 s guarantees every one of its leases expires and
/// at least one failover housekeeping tick runs afterwards.
const DEAD_WINDOW: SimDuration = SimDuration::from_secs(180);

fn rebalance_topology(seed: u64) -> (Topology, NodeId, HashMap<NodeId, Vec<usize>>) {
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

/// A shard that is not the publisher's and has at least one subscriber.
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
fn permanent_shard_death_migrates_leases_and_delivery_resumes_without_revival() {
    let (mut topology, publisher_shard, by_shard) = rebalance_topology(SEED);
    let victim = victim_shard(publisher_shard, &by_shard);
    let victim_subscribers = by_shard[&victim].clone();
    assert!(!victim_subscribers.is_empty());
    // The ring index of the victim equals its node index: hosts are assigned
    // ascending in add order, and the ring sorts by address.
    let victim_index = topology
        .rendezvous
        .iter()
        .position(|&r| r == victim)
        .expect("victim is a rendezvous");
    let adopter_index = (victim_index + 1) % SHARDS;
    let adopter = topology.rendezvous[adopter_index];

    // Phase 1: healthy mesh.
    topology.publish_tag(0, "before");
    topology.net.run_for(SimDuration::from_secs(5));

    // Phase 2: the victim dies and STAYS dead, past the lease lifetime.
    let kill_at = topology.net.now() + SimDuration::from_secs(1);
    let mut churn = ChurnDriver::new();
    churn.kill_at(kill_at, victim);
    churn.run_until(&mut topology.net, kill_at + DEAD_WINDOW);
    assert!(!topology.net.is_alive(victim), "no revival in this scenario");

    // Every one of the victim's former subscribers walked the failover ring
    // to the deterministic adopter (the next surviving shard in ring order).
    for &index in &victim_subscribers {
        assert_eq!(
            topology.shard_of(topology.subscribers[index]),
            Some(adopter),
            "subscriber {index} must re-lease with the ring adopter"
        );
    }

    // The survivors' controllers declared the shard dead and dropped the
    // mesh link; the adopter reports the victim's hash range as its own.
    {
        let adopter_peer = &topology.net.node_ref::<DeliveryApp>(adopter).unwrap().peer;
        assert_eq!(
            adopter_peer.adopted_shards(),
            vec![victim_index],
            "the adopter owns exactly the dead shard's ring range"
        );
        assert!(
            adopter_peer.owned_shards().contains(&adopter_index),
            "adoption must not displace the adopter's own range"
        );
        assert_eq!(adopter_peer.dead_shards().len(), 1);
    }
    for &rdv in &topology.rendezvous {
        if rdv == victim || rdv == adopter {
            continue;
        }
        let peer = &topology.net.node_ref::<DeliveryApp>(rdv).unwrap().peer;
        assert!(
            peer.adopted_shards().is_empty(),
            "non-adjacent survivors adopt nothing"
        );
        assert_eq!(
            peer.dead_shards().len(),
            1,
            "every survivor's controller agrees on the dead set"
        );
    }

    // Phase 3: delivery has resumed for EVERY subscriber — no revival.
    topology.publish_tag(0, "late");
    topology.net.run_for(SimDuration::from_secs(10));
    for index in 0..SUBSCRIBERS {
        let counts = topology.delivered_counts(index);
        assert_eq!(
            counts.get("before").copied().unwrap_or(0),
            1,
            "subscriber {index}: pre-death event delivered exactly once"
        );
        assert_eq!(
            counts.get("late").copied().unwrap_or(0),
            1,
            "subscriber {index}: the controller must restore delivery without revival"
        );
    }

    // The telemetry plane exposes the migration: per-shard relay counts in a
    // registry snapshot, and the kernel's drop summary names the causes.
    let mut registry = MetricsRegistry::new();
    topology.net.export_metrics(&mut registry);
    let adopter_peer = &topology.net.node_ref::<DeliveryApp>(adopter).unwrap().peer;
    adopter_peer.export_metrics(&mut registry, "rdv.adopter");
    let snapshot = registry.snapshot();
    assert!(
        snapshot.counter("rdv.adopter.wire.forwarded") > 0,
        "the adopter relayed traffic"
    );
    assert!(
        snapshot.counter(&format!("rdv.adopter.shard{adopter_index}.relayed")) > 0,
        "the adopter's own shard row shows relayed events"
    );
    assert_eq!(
        snapshot.gauge(&format!("rdv.adopter.shard{victim_index}.dead")),
        Some(1),
        "the victim's load-table row is flagged dead"
    );
    let drops = topology.net.drop_summary();
    assert!(
        drops.of(DropReason::NodeDown) > 0,
        "traffic addressed to the dead rendezvous is accounted as node_down"
    );
    assert_eq!(
        drops.of(DropReason::FaultInjected),
        0,
        "no pair was cut in this scenario"
    );
}

#[test]
fn tracing_explains_every_copy_across_a_permanent_shard_death() {
    // The full rebalance arc under the tracing plane: a healthy publish, a
    // publish while the victim shard is dark, and a publish after the
    // controller migrated its leases — every copy of all three events must
    // end in a named outcome (acceptance: zero unknown outcomes).
    let (mut topology, publisher_shard, by_shard) = rebalance_topology(SEED);
    topology.enable_tracing(1 << 17);
    let victim = victim_shard(publisher_shard, &by_shard);
    let victim_subscribers = by_shard[&victim].clone();

    topology.publish_tag(0, "before");
    topology.net.run_for(SimDuration::from_secs(5));

    let kill_at = topology.net.now() + SimDuration::from_secs(1);
    let mut churn = ChurnDriver::new();
    churn.kill_at(kill_at, victim);
    churn.run_until(&mut topology.net, kill_at + SimDuration::from_secs(1));
    topology.publish_tag(0, "dark");
    churn.run_until(&mut topology.net, kill_at + DEAD_WINDOW);

    topology.publish_tag(0, "migrated");
    topology.net.run_for(SimDuration::from_secs(10));

    let ids = topology.trace().traced_ids();
    assert_eq!(ids.len(), 3, "three publishes, three traced events");
    let (delivered, undelivered) = topology.assert_every_copy_explained();
    assert_eq!(
        delivered,
        3 * SUBSCRIBERS - victim_subscribers.len(),
        "only the dark-window copies of the victim's subscribers are lost"
    );
    assert_eq!(undelivered, victim_subscribers.len());

    // The dark-window losses are wire losses at the relaying rendezvous,
    // corroborated by the kernel as node_down (never fault injection).
    let dark = ids[1];
    for &index in &victim_subscribers {
        let verdict = topology.trace().why_missing(topology.subscribers[index], dark);
        let jxta::telemetry::trace::DeliveryVerdict::LostOnWire { last_send } = verdict else {
            panic!("subscriber {index}: expected a wire loss, got: {verdict}");
        };
        assert_eq!(Some(last_send.node), topology.trace().handle_of(publisher_shard));
        assert_eq!(
            topology.trace().kernel_drop_reason(&topology.net, &verdict),
            Some(DropReason::NodeDown),
            "subscriber {index}: the kernel join must name node_down"
        );
    }
}

#[test]
fn late_subscriber_joins_after_permanent_shard_death() {
    // A subscriber whose input pipe opens only AFTER its shard died
    // permanently: the lease migration happens underneath (connect runs at
    // boot), and the late subscription must still hear subsequent events.
    let (mut topology, publisher_shard, by_shard) = rebalance_topology(SEED);
    let victim = victim_shard(publisher_shard, &by_shard);
    let late_index = by_shard[&victim][0];

    let kill_at = topology.net.now() + SimDuration::from_secs(1);
    let mut churn = ChurnDriver::new();
    churn.kill_at(kill_at, victim);
    churn.run_until(&mut topology.net, kill_at + DEAD_WINDOW);
    assert!(!topology.net.is_alive(victim));

    // The late peer re-subscribes (fresh input pipe) on the migrated lease.
    let pipe = topology.pipe.clone();
    let late_node = topology.subscribers[late_index];
    topology.net.invoke::<DeliveryApp, _>(late_node, |app, ctx| {
        app.peer.close_wire_input_pipe(pipe.pipe_id);
        app.delivered.clear();
        app.peer.create_wire_input_pipe(ctx, &pipe);
    });
    topology.net.run_for(SimDuration::from_secs(2));

    topology.publish_tag(0, "after-resub");
    topology.net.run_for(SimDuration::from_secs(10));
    assert_eq!(
        topology
            .delivered_counts(late_index)
            .get("after-resub")
            .copied()
            .unwrap_or(0),
        1,
        "a subscription created after the permanent death must deliver"
    );
}

#[test]
fn disabling_the_controller_keeps_the_dead_shard_dark() {
    // The ablation baseline: same scenario, controller off — the victim's
    // subscribers stay stranded (the pre-controller behaviour).
    let mut topology = build(
        DisseminationConfig::rendezvous_mesh(SHARDS).with_rebalance(dissem::RebalanceConfig::disabled()),
        SHARDS,
        1,
        SUBSCRIBERS,
        SEED,
    );
    topology.warm_up();
    let publisher_shard = topology.shard_of(topology.publishers[0]).unwrap();
    let mut by_shard: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for index in 0..SUBSCRIBERS {
        let shard = topology.shard_of(topology.subscribers[index]).unwrap();
        by_shard.entry(shard).or_default().push(index);
    }
    let victim = victim_shard(publisher_shard, &by_shard);
    let victim_subscribers = by_shard[&victim].clone();

    let kill_at = topology.net.now() + SimDuration::from_secs(1);
    let mut churn = ChurnDriver::new();
    churn.kill_at(kill_at, victim);
    churn.run_until(&mut topology.net, kill_at + DEAD_WINDOW);

    topology.publish_tag(0, "stranded");
    topology.net.run_for(SimDuration::from_secs(10));
    for &index in &victim_subscribers {
        assert_eq!(
            topology
                .delivered_counts(index)
                .get("stranded")
                .copied()
                .unwrap_or(0),
            0,
            "subscriber {index}: without the controller the dead shard stays dark"
        );
        assert_eq!(
            topology.shard_of(topology.subscribers[index]),
            Some(victim),
            "subscriber {index}: the stale lease record still points at the dead home"
        );
    }
}

#[test]
fn established_mesh_links_stop_hello_chatter() {
    // The steady-state throttle: once every mesh link is established, the
    // housekeeping tick re-announces nothing; a dead link resumes probing.
    let mut topology = build(DisseminationConfig::rendezvous_mesh(3), 3, 1, 3, SEED);
    topology.warm_up();
    let hellos = |topology: &Topology, rdv: NodeId| {
        topology
            .net
            .node_ref::<DeliveryApp>(rdv)
            .unwrap()
            .peer
            .rendezvous()
            .mesh_hellos_sent()
    };
    let after_warmup: Vec<u64> = topology
        .rendezvous
        .iter()
        .map(|&r| hellos(&topology, r))
        .collect();
    topology.net.run_for(SimDuration::from_secs(150)); // five housekeeping ticks
    let after_idle: Vec<u64> = topology
        .rendezvous
        .iter()
        .map(|&r| hellos(&topology, r))
        .collect();
    assert_eq!(
        after_warmup, after_idle,
        "an established mesh must not re-announce every tick"
    );

    // Kill one rendezvous past the dead horizon: the survivors drop the
    // link and resume hello probes toward the missing seed.
    let victim = topology.rendezvous[2];
    let mut churn = ChurnDriver::new();
    let kill_at = topology.net.now() + SimDuration::from_secs(1);
    churn.kill_at(kill_at, victim);
    churn.run_until(&mut topology.net, kill_at + SimDuration::from_secs(150));
    let survivor = topology.rendezvous[0];
    assert!(
        hellos(&topology, survivor) > after_idle[0],
        "a dropped link resumes hello probing so revival can heal it"
    );
    assert!(
        !topology
            .net
            .node_ref::<DeliveryApp>(survivor)
            .unwrap()
            .peer
            .rendezvous()
            .has_mesh_link_at(lan_address(2)),
        "the dead peer's link is gone from the survivor's table"
    );
}

#[test]
fn rebalance_scenarios_are_deterministic() {
    let run = |seed: u64| -> Vec<Vec<(String, usize)>> {
        let (mut topology, publisher_shard, by_shard) = rebalance_topology(seed);
        let victim = victim_shard(publisher_shard, &by_shard);
        let mut churn = ChurnDriver::new();
        let kill_at = topology.net.now() + SimDuration::from_secs(1);
        churn.kill_at(kill_at, victim);
        churn.run_until(&mut topology.net, kill_at + DEAD_WINDOW);
        topology.publish_tag(0, "late");
        topology.net.run_for(SimDuration::from_secs(10));
        (0..SUBSCRIBERS)
            .map(|i| {
                let mut rows: Vec<(String, usize)> = topology.delivered_counts(i).into_iter().collect();
                rows.sort();
                rows
            })
            .collect()
    };
    assert_eq!(
        run(SEED),
        run(SEED),
        "identical seeds + identical kill scripts must migrate identically"
    );
}

#[test]
fn shard_ring_is_shared_by_every_rendezvous() {
    let (topology, _, _) = rebalance_topology(SEED);
    let rings: Vec<Vec<simnet::SimAddress>> = topology
        .rendezvous
        .iter()
        .map(|&r| topology.net.node_ref::<DeliveryApp>(r).unwrap().peer.shard_ring())
        .collect();
    assert!(rings.iter().all(|ring| ring == &rings[0]), "one ring, every peer");
    assert_eq!(rings[0].len(), SHARDS);
    assert_eq!(
        rings[0][0],
        lan_address(0),
        "ring order is ascending address order"
    );
    let _ = SimTime::ZERO; // keep the import used if assertions above change
}

//! Flyweight edge peers against a real rendezvous mesh: lease acquisition,
//! pipe-filtered exactly-once delivery, shard distribution and ring failover.
//!
//! The rendezvous side runs the full, unmodified [`jxta::JxtaPeer`] stack —
//! a flyweight must be indistinguishable from a leased client on the wire.

mod common;

use common::DeliveryApp;
use jxta::peer::{lan_mesh, PeerConfig};
use jxta::{DisseminationConfig, FlyweightEdge, Message, MessageElement, PeerGroup, PeerId, PipeId};
use simnet::{Network, NetworkBuilder, NodeConfig, NodeId, SimDuration, SubnetId, TransportKind};
use std::collections::HashSet;

/// The pipe every flyweight in these tests subscribes to.
fn delivery_pipe() -> PipeId {
    PeerGroup::for_event_type("Delivery", PeerId::derive("shop-0"))
        .wire_pipe()
        .expect("event-type groups embed a wire pipe")
        .pipe_id
}

struct FlyweightMesh {
    net: Network,
    rendezvous: Vec<NodeId>,
    publisher: NodeId,
    flyweights: Vec<NodeId>,
}

/// `rdv_count` full rendezvous peers meshed over `rdv_count` shards, one
/// full publisher edge, and `flyweights` flyweight subscribers on one LAN.
fn build(rdv_count: usize, flyweights: usize, seed: u64) -> FlyweightMesh {
    let strategy = DisseminationConfig::rendezvous_mesh(rdv_count);
    let mut builder = NetworkBuilder::new(seed);
    let (rdv_configs, rdv_addrs) = lan_mesh(rdv_count, &strategy);
    let rendezvous = rdv_configs
        .into_iter()
        .map(|config| builder.add_node(DeliveryApp::boxed(config), NodeConfig::lan_peer(SubnetId(0))))
        .collect();
    let publisher = builder.add_node(
        DeliveryApp::boxed(
            PeerConfig::edge("shop-0")
                .with_seeds(rdv_addrs.clone())
                .with_dissemination(strategy.clone()),
        ),
        NodeConfig::lan_peer(SubnetId(0)),
    );
    let pipe = delivery_pipe();
    let flyweights = (0..flyweights)
        .map(|i| {
            builder.add_node(
                Box::new(FlyweightEdge::new(
                    format!("skier-{i}"),
                    rdv_addrs.clone(),
                    rdv_count,
                    pipe,
                )),
                // TCP only: a flyweight never joins multicast floods, so the
                // kernel's group scans skip it entirely.
                NodeConfig::lan_peer(SubnetId(0)).with_transports(vec![TransportKind::Tcp]),
            )
        })
        .collect();
    FlyweightMesh {
        net: builder.build(),
        rendezvous,
        publisher,
        flyweights,
    }
}

impl FlyweightMesh {
    fn publish_tag(&mut self, tag: &str) {
        let pipe_id = delivery_pipe();
        let tag = tag.to_owned();
        self.net.invoke::<DeliveryApp, _>(self.publisher, |app, ctx| {
            let mut message = Message::new();
            message.add(MessageElement::text("app", "tag", tag.clone()));
            app.peer
                .wire_send(ctx, pipe_id, &message)
                .expect("publish failed");
        });
    }

    fn flyweight(&self, index: usize) -> &FlyweightEdge {
        self.net
            .node_ref::<FlyweightEdge>(self.flyweights[index])
            .expect("flyweight exists")
    }

    fn rdv_peer_id(&self, index: usize) -> PeerId {
        self.net
            .node_ref::<DeliveryApp>(self.rendezvous[index])
            .expect("rendezvous exists")
            .peer
            .peer_id()
    }
}

#[test]
fn flyweights_lease_and_receive_exactly_once() {
    let mut mesh = build(2, 24, 7);
    mesh.net.run_for(SimDuration::from_secs(2));

    // Every flyweight holds a lease, and the shard hash spreads them over
    // both rendezvous (24 names collapsing onto one shard would defeat the
    // mesh scenario this mode exists for).
    let mut shard_population = vec![0usize; 2];
    for i in 0..24 {
        let lease = mesh.flyweight(i).lease().copied().expect("flyweight is leased");
        let shard = (0..2)
            .find(|&r| mesh.rdv_peer_id(r) == lease.rdv)
            .expect("lease names a known rendezvous");
        shard_population[shard] += 1;
    }
    assert!(
        shard_population.iter().all(|&n| n > 0),
        "both shards must hold clients, got {shard_population:?}"
    );

    mesh.net.invoke::<DeliveryApp, _>(mesh.publisher, |app, ctx| {
        let group = PeerGroup::for_event_type("Delivery", PeerId::derive("shop-0"));
        let pipe = group.wire_pipe().expect("wire pipe").clone();
        app.peer.resolve_wire_output_pipe(ctx, &pipe);
    });
    mesh.net.run_for(SimDuration::from_secs(3));

    for tag in ["quote-1", "quote-2", "quote-3"] {
        mesh.publish_tag(tag);
        mesh.net.run_for(SimDuration::from_secs(2));
    }

    for i in 0..24 {
        let fly = mesh.flyweight(i);
        assert_eq!(
            fly.received_count(),
            3,
            "flyweight {i} mailbox: {:?}",
            fly.mailbox()
        );
        let distinct: HashSet<_> = fly.mailbox().iter().map(|&(_, id)| id).collect();
        assert_eq!(distinct.len(), 3, "flyweight {i} saw a duplicate msg id");
        assert_eq!(fly.duplicates(), 0, "flyweight {i} needed dedup");
    }

    // Exactly-once also means nothing extra arrived after the fact.
    let first = mesh.flyweight(0).mailbox().to_vec();
    mesh.net.run_for(SimDuration::from_secs(5));
    assert_eq!(mesh.flyweight(0).mailbox(), &first[..]);
}

#[test]
fn flyweight_fails_over_when_home_rendezvous_is_down() {
    let mut mesh = build(2, 8, 11);
    // Kill one rendezvous before anything runs: flyweights homed on it get
    // no answer and must walk the shard ring to the survivor.
    let dead = mesh.rendezvous[0];
    mesh.net.shutdown_node(dead);
    let survivor = mesh.rdv_peer_id(1);

    // The first unanswered connect is only retried at the 45 s housekeeping
    // tick, so run past it.
    mesh.net.run_for(SimDuration::from_secs(50));

    for i in 0..8 {
        let fly = mesh.flyweight(i);
        let lease = fly.lease().copied().unwrap_or_else(|| {
            panic!(
                "flyweight {i} never leased (connects sent: {})",
                fly.connects_sent()
            )
        });
        assert_eq!(lease.rdv, survivor, "flyweight {i} leased a dead rendezvous");
    }
}

#[test]
fn flyweight_replays_bit_identically() {
    let run = |seed| {
        let mut mesh = build(2, 12, seed);
        mesh.net.run_for(SimDuration::from_secs(2));
        mesh.net.invoke::<DeliveryApp, _>(mesh.publisher, |app, ctx| {
            let group = PeerGroup::for_event_type("Delivery", PeerId::derive("shop-0"));
            let pipe = group.wire_pipe().expect("wire pipe").clone();
            app.peer.resolve_wire_output_pipe(ctx, &pipe);
        });
        mesh.net.run_for(SimDuration::from_secs(3));
        mesh.publish_tag("replay");
        mesh.net.run_for(SimDuration::from_secs(3));
        let mailboxes: Vec<Vec<_>> = (0..12).map(|i| mesh.flyweight(i).mailbox().to_vec()).collect();
        (mailboxes, mesh.net.total_stats(), mesh.net.events_processed())
    };
    assert_eq!(run(42), run(42));
    let (mailboxes, _, _) = run(42);
    assert!(
        mailboxes.iter().all(|m| m.len() == 1),
        "every flyweight hears the publish exactly once: {mailboxes:?}"
    );
}

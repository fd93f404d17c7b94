//! A remote-published advertisement stays discoverable from every shard for
//! as long as its author runs.
//!
//! A rendezvous keeps a pushed advertisement for `DEFAULT_REMOTE_LIFETIME`
//! (15 minutes) and walks a query it cannot answer to *its own* clients only,
//! never across the mesh. So the author's periodic refresh has to reach every
//! rendezvous, not just its home: otherwise a searcher in another shard finds
//! nothing from minute 15 on, and one in the author's shard pays a walk to
//! every client for each query. These tests search at minutes 20 and 40, off
//! the 30 s housekeeping grid so the only traffic in the window is the query
//! and its answer.

mod common;

use common::{build, DeliveryApp, Topology};
use jxta::{AdvKind, AnyAdvertisement, DisseminationConfig, PeerGroup, SearchFilter};
use simnet::{NodeId, SimDuration, SimTime};

const SHARDS: usize = 2;
const SEARCHERS: usize = 8;
const GROUP_NAME: &str = "ps-OnlyOneAuthor";

fn topology() -> Topology {
    let mut topology = build(
        DisseminationConfig::rendezvous_mesh(SHARDS),
        SHARDS,
        1,
        SEARCHERS,
        707,
    );
    topology.net.run_until(SimTime::from_secs(5));
    topology
}

fn remote_publish_group(topology: &mut Topology, author: NodeId) {
    topology.net.invoke::<DeliveryApp, _>(author, |app, ctx| {
        let group = PeerGroup::for_event_type("OnlyOneAuthor", app.peer.peer_id());
        app.peer
            .remote_publish(ctx, AnyAdvertisement::Group(group.advertisement().clone()));
    });
}

fn holds_group(topology: &mut Topology, node: NodeId) -> bool {
    topology.net.invoke::<DeliveryApp, _>(node, |app, ctx| {
        !app.peer
            .local_advertisements(ctx, AdvKind::Group, &SearchFilter::by_name(GROUP_NAME))
            .is_empty()
    })
}

/// Every searcher forgets its group advertisements and asks again, one after
/// the other; each must find the group with one query and one answer.
fn every_searcher_finds_the_group_in_two_datagrams(topology: &mut Topology, at: SimTime) {
    topology.net.run_until(at);
    let mut shards_searched = std::collections::BTreeSet::new();
    for index in 0..SEARCHERS {
        let searcher = topology.subscribers[index];
        let shard = topology.shard_of(searcher).expect("searcher holds a lease");
        shards_searched.insert(shard);
        let before = topology.net.total_stats().datagrams_sent;
        topology.net.invoke::<DeliveryApp, _>(searcher, |app, ctx| {
            app.peer.flush_advertisements(Some(AdvKind::Group));
            app.peer
                .discover_remote(ctx, AdvKind::Group, SearchFilter::by_name(GROUP_NAME), 10);
        });
        topology.net.run_for(SimDuration::from_secs(1));
        let datagrams = topology.net.total_stats().datagrams_sent - before;
        assert!(
            holds_group(topology, searcher),
            "at {at}: searcher {index} (shard {shard}) did not find {GROUP_NAME}; \
             its query cost {datagrams} datagrams"
        );
        assert_eq!(
            datagrams, 2,
            "at {at}: searcher {index} (shard {shard}) found {GROUP_NAME}, \
             but not from its rendezvous's index (one query, one answer)"
        );
    }
    assert_eq!(
        shards_searched.len(),
        SHARDS,
        "the fixed names of this topology put searchers in every shard"
    );
}

#[test]
fn an_edge_authors_and_every_shard_keeps_finding_it() {
    let mut topology = topology();
    let author = topology.publishers[0];
    remote_publish_group(&mut topology, author);
    // 7 s past the minute: the housekeeping grid is every 30 s from t = 0,
    // and eight one-second searches end before the next tick.
    every_searcher_finds_the_group_in_two_datagrams(&mut topology, SimTime::from_secs(20 * 60 + 7));
    every_searcher_finds_the_group_in_two_datagrams(&mut topology, SimTime::from_secs(40 * 60 + 7));
}

#[test]
fn a_rendezvous_authors_and_refreshes_across_the_mesh_not_down_to_its_clients() {
    let mut topology = topology();
    let author = topology.rendezvous[0];
    remote_publish_group(&mut topology, author);
    // What a client heard of the first push lapses with every other learned
    // advertisement; a refresh that fanned down would keep it alive.
    topology.net.run_until(SimTime::from_secs(19 * 60));
    for index in 0..SEARCHERS {
        let client = topology.subscribers[index];
        assert!(
            !holds_group(&mut topology, client),
            "client {index} still holds {GROUP_NAME} at minute 19: \
             a rendezvous's refresh must not fan down to its clients"
        );
    }
    every_searcher_finds_the_group_in_two_datagrams(&mut topology, SimTime::from_secs(20 * 60 + 7));
    every_searcher_finds_the_group_in_two_datagrams(&mut topology, SimTime::from_secs(40 * 60 + 7));
}

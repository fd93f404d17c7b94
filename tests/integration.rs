//! Cross-crate integration tests: the TPS layer running over the JXTA
//! substrate on the simulated network, exercised end-to-end through the v2
//! session handles (owned `Publisher<T>` / `Subscriber<T>` minted from
//! `TpsEngine::session()`, held *outside* the simulation).

use proptest::prelude::*;
use simnet::{NetworkBuilder, NodeConfig, SimAddress, SimDuration, SubnetId, TransportKind};
use tps::{Criteria, DisseminationConfig, MailboxPolicy, OverflowPolicy, TpsConfig, TpsEvent, TpsHost};

#[derive(Debug, Clone, PartialEq)]
struct Offer {
    shop: String,
    price: f32,
}
impl TpsEvent for Offer {
    const TYPE_NAME: &'static str = "Offer";
    tps::event_fields!(shop, price);
}

#[derive(Debug, Clone, PartialEq)]
struct LastMinuteOffer {
    shop: String,
    price: f32,
    hours_left: u8,
}
impl TpsEvent for LastMinuteOffer {
    const TYPE_NAME: &'static str = "LastMinuteOffer";
    const SUPERTYPES: &'static [&'static str] = &["Offer"];
    tps::event_fields!(shop, price, hours_left);
}

const RDV_TCP: SimAddress = SimAddress::new(TransportKind::Tcp, 0x0A00_0001, 9701);

fn host_with_dissemination(name: &str, dissemination: DisseminationConfig) -> Box<TpsHost> {
    TpsHost::boxed(
        TpsConfig::new(name)
            .with_peer(jxta::PeerConfig::edge(name).with_costs(jxta::CostModel::free()))
            .with_seeds(vec![RDV_TCP])
            .with_dissemination(dissemination),
    )
}

fn rendezvous_host(dissemination: DisseminationConfig) -> Box<TpsHost> {
    TpsHost::boxed(
        TpsConfig::new("rdv")
            .with_peer(jxta::PeerConfig::rendezvous("rdv").with_costs(jxta::CostModel::free()))
            .with_dissemination(dissemination),
    )
}

struct World {
    net: simnet::Network,
    publisher: simnet::NodeId,
    subscriber: simnet::NodeId,
}

fn world(seed: u64) -> World {
    world_with_dissemination(seed, DisseminationConfig::default())
}

fn world_with_dissemination(seed: u64, dissemination: DisseminationConfig) -> World {
    let mut builder = NetworkBuilder::new(seed);
    builder.add_node(
        rendezvous_host(dissemination.clone()),
        NodeConfig::lan_peer(SubnetId(0)),
    );
    let publisher = builder.add_node(
        host_with_dissemination("publisher", dissemination.clone()),
        NodeConfig::lan_peer(SubnetId(0)),
    );
    let subscriber = builder.add_node(
        host_with_dissemination("subscriber", dissemination),
        NodeConfig::lan_peer(SubnetId(0)),
    );
    let mut net = builder.build();
    net.run_for(SimDuration::from_secs(2));
    World {
        net,
        publisher,
        subscriber,
    }
}

impl World {
    fn session(&mut self, node: simnet::NodeId) -> tps::Session {
        self.net.invoke::<TpsHost, _>(node, |host, _| host.session())
    }
}

#[test]
fn typed_publish_subscribe_end_to_end() {
    let mut w = world(1);
    let inbox = w.session(w.subscriber).subscriber::<Offer>();
    let _guard = inbox.subscribe_pull();
    w.net.run_for(SimDuration::from_secs(15));
    let offers = w.session(w.publisher).publisher::<Offer>();
    for i in 0..5 {
        offers
            .publish(&Offer {
                shop: format!("shop-{i}"),
                price: 10.0 + i as f32,
            })
            .unwrap();
        w.net.run_for(SimDuration::from_secs(1));
    }
    w.net.run_for(SimDuration::from_secs(10));
    let received = inbox.drain();
    assert_eq!(received.len(), 5);
    assert_eq!(received[0].shop, "shop-0");
    assert_eq!(
        w.net
            .node_ref::<TpsHost>(w.subscriber)
            .unwrap()
            .engine
            .received_count(),
        5
    );
}

/// A late joiner on a deployment that has been up for a while: the publisher's
/// channel is 35 virtual minutes old — past the 15-minute lifetime of every
/// advertisement anyone learned from it at start-up — when the subscriber
/// handle is minted, and the next publish must still reach it.
#[test]
fn a_subscriber_minted_at_minute_35_receives_the_next_publish() {
    let mut w = world(35);
    let offers = w.session(w.publisher).publisher::<Offer>();
    let early = Offer {
        shop: "early".into(),
        price: 1.0,
    };
    offers.publish(&early).unwrap();
    w.net.run_until(simnet::SimTime::from_secs(35 * 60));
    let inbox = w.session(w.subscriber).subscriber::<Offer>();
    let _guard = inbox.subscribe_pull();
    w.net.run_for(SimDuration::from_secs(15));
    let late = Offer {
        shop: "late".into(),
        price: 2.0,
    };
    offers.publish(&late).unwrap();
    w.net.run_for(SimDuration::from_secs(10));
    assert_eq!(inbox.drain(), vec![late]);
}

/// The acceptance scenario of the v2 redesign: one node simultaneously holds
/// a `Publisher<T>` and two `Subscriber<T>` handles (one pull-mode, one
/// callback-mode) — impossible with the v1 borrow-based facade, whose typed
/// views each exclusively borrow the engine.
#[test]
fn coexisting_publisher_and_subscribers_on_one_node() {
    let mut w = world(7);
    let session = w.session(w.subscriber);
    let outbound = session.publisher::<Offer>();
    let pull_inbox = session.subscriber::<Offer>();
    let push_inbox = session.subscriber::<Offer>();
    let _pull_guard = pull_inbox.subscribe_pull();
    let (callback, sink) = tps::CollectingCallback::<Offer>::new();
    let _push_guard = push_inbox.subscribe(callback, tps::IgnoreExceptions);

    // The far side both subscribes and publishes.
    let far_session = w.session(w.publisher);
    let far_inbox = far_session.subscriber::<Offer>();
    let _far_guard = far_inbox.subscribe_pull();
    let far_offers = far_session.publisher::<Offer>();
    w.net.run_for(SimDuration::from_secs(15));

    far_offers
        .publish(&Offer {
            shop: "remote".into(),
            price: 1.0,
        })
        .unwrap();
    outbound
        .publish(&Offer {
            shop: "local".into(),
            price: 2.0,
        })
        .unwrap();
    w.net.run_for(SimDuration::from_secs(10));

    // Both subscribers on the holding node saw the remote publication...
    let pulled = pull_inbox.drain();
    assert_eq!(pulled.len(), 1, "pull-mode subscriber receives the remote offer");
    assert_eq!(pulled[0].shop, "remote");
    assert_eq!(sink.borrow().len(), 1, "callback subscriber receives it too");
    assert_eq!(sink.borrow()[0].shop, "remote");
    // ...and the same node's publisher reached the far side.
    let far_received = far_inbox.drain();
    assert_eq!(far_received.len(), 1, "the coexisting publisher must work");
    assert_eq!(far_received[0].shop, "local");
}

#[test]
fn subtype_instances_reach_supertype_subscribers() {
    let mut w = world(2);
    let session = w.session(w.subscriber);
    session.register::<LastMinuteOffer>();
    let inbox = session.subscriber::<Offer>();
    let _guard = inbox.subscribe_pull();
    w.net.run_for(SimDuration::from_secs(15));
    let last_minute = w.session(w.publisher).publisher::<LastMinuteOffer>();
    last_minute
        .publish(&LastMinuteOffer {
            shop: "XTremShop".into(),
            price: 5.0,
            hours_left: 3,
        })
        .unwrap();
    w.net.run_for(SimDuration::from_secs(10));
    let as_supertype = inbox.drain();
    assert_eq!(
        as_supertype.len(),
        1,
        "the supertype subscriber must receive the subtype instance"
    );
    assert_eq!(as_supertype[0].shop, "XTremShop");
    assert_eq!(as_supertype[0].price, 5.0);
}

#[test]
fn criteria_filter_events_by_content() {
    let mut w = world(3);
    let inbox = w.session(w.subscriber).subscriber::<Offer>();
    let _guard = inbox.subscribe_pull_with(
        MailboxPolicy::default(),
        Criteria::filter("cheap offers only", |o: &Offer| o.price < 20.0),
    );
    w.net.run_for(SimDuration::from_secs(15));
    let offers = w.session(w.publisher).publisher::<Offer>();
    for price in [10.0_f32, 50.0, 15.0, 99.0] {
        offers
            .publish(&Offer {
                shop: "s".into(),
                price,
            })
            .unwrap();
        w.net.run_for(SimDuration::from_secs(1));
    }
    w.net.run_for(SimDuration::from_secs(10));
    // All four events were received by the engine, but only two passed the
    // criteria into the mailbox.
    let cheap = inbox.drain();
    assert_eq!(cheap.len(), 2);
    assert!(cheap.iter().all(|o| o.price < 20.0));
    let host = w.net.node_ref::<TpsHost>(w.subscriber).unwrap();
    assert_eq!(host.engine.counters().events_received, 4);
    assert_eq!(host.engine.objects_received::<Offer>().len(), 4);
}

#[test]
fn dropping_the_guard_unsubscribes() {
    let mut w = world(4);
    let inbox = w.session(w.subscriber).subscriber::<Offer>();
    let guard = inbox.subscribe_pull();
    w.net.run_for(SimDuration::from_secs(15));
    assert_eq!(
        w.net
            .node_ref::<TpsHost>(w.subscriber)
            .unwrap()
            .engine
            .subscription_count(),
        1
    );
    drop(guard);
    w.net.run_for(SimDuration::from_secs(1));
    assert_eq!(
        w.net
            .node_ref::<TpsHost>(w.subscriber)
            .unwrap()
            .engine
            .subscription_count(),
        0,
        "the dropped guard must unsubscribe at the next tick"
    );
    let offers = w.session(w.publisher).publisher::<Offer>();
    offers
        .publish(&Offer {
            shop: "late".into(),
            price: 1.0,
        })
        .unwrap();
    w.net.run_for(SimDuration::from_secs(10));
    // The event still arrives at the engine (objectsReceived keeps history),
    // but nothing is delivered after the unsubscribe.
    let host = w.net.node_ref::<TpsHost>(w.subscriber).unwrap();
    assert_eq!(host.engine.counters().events_delivered, 0);
    assert_eq!(inbox.pending(), 0);
    assert_eq!(host.engine.received_count(), 1);
}

#[test]
fn pause_and_resume_bound_the_delivery_window() {
    let mut w = world(8);
    let inbox = w.session(w.subscriber).subscriber::<Offer>();
    let guard = inbox.subscribe_pull();
    w.net.run_for(SimDuration::from_secs(15));
    let offers = w.session(w.publisher).publisher::<Offer>();
    let publish = |w: &mut World, shop: &str| {
        offers
            .publish(&Offer {
                shop: shop.into(),
                price: 1.0,
            })
            .unwrap();
        w.net.run_for(SimDuration::from_secs(2));
    };
    publish(&mut w, "before-pause");
    guard.pause();
    w.net.run_for(SimDuration::from_secs(1));
    publish(&mut w, "during-pause-1");
    publish(&mut w, "during-pause-2");
    guard.resume();
    w.net.run_for(SimDuration::from_secs(1));
    publish(&mut w, "after-resume");
    w.net.run_for(SimDuration::from_secs(10));

    let shops: Vec<String> = inbox.drain().into_iter().map(|o| o.shop).collect();
    assert_eq!(
        shops,
        vec!["before-pause".to_owned(), "after-resume".into()],
        "events published during the pause window must not be delivered"
    );
    // The engine still received all four (pause suspends delivery, not receipt).
    assert_eq!(
        w.net
            .node_ref::<TpsHost>(w.subscriber)
            .unwrap()
            .engine
            .received_count(),
        4
    );
    guard.detach();
}

#[test]
fn pull_mailbox_overflow_policies_end_to_end() {
    for (overflow, expect_first) in [
        (OverflowPolicy::DropOldest, "shop-3"),
        (OverflowPolicy::DropNewest, "shop-0"),
    ] {
        let mut w = world(9);
        let inbox = w.session(w.subscriber).subscriber::<Offer>();
        let _guard =
            inbox.subscribe_pull_with(MailboxPolicy::bounded(2).with_overflow(overflow), Criteria::any());
        w.net.run_for(SimDuration::from_secs(15));
        let offers = w.session(w.publisher).publisher::<Offer>();
        for i in 0..5 {
            offers
                .publish(&Offer {
                    shop: format!("shop-{i}"),
                    price: i as f32,
                })
                .unwrap();
            w.net.run_for(SimDuration::from_secs(1));
        }
        w.net.run_for(SimDuration::from_secs(10));
        assert_eq!(inbox.pending(), 2, "{overflow:?}: mailbox stays bounded");
        assert_eq!(
            inbox.overflow_dropped(),
            3,
            "{overflow:?}: three events overflowed"
        );
        let kept = inbox.drain();
        assert_eq!(kept[0].shop, expect_first, "{overflow:?} keeps the wrong half");
    }
}

#[test]
fn exception_handlers_receive_callback_failures() {
    let mut w = world(5);
    let inbox = w.session(w.subscriber).subscriber::<Offer>();
    let (handler, failures) = tps::CountingExceptionHandler::new();
    let _guard = inbox.subscribe(
        tps::CallbackFn(|_offer: Offer| Err(tps::CallBackException::new("gui crashed"))),
        handler,
    );
    w.net.run_for(SimDuration::from_secs(15));
    let offers = w.session(w.publisher).publisher::<Offer>();
    offers
        .publish(&Offer {
            shop: "s".into(),
            price: 2.0,
        })
        .unwrap();
    w.net.run_for(SimDuration::from_secs(10));
    assert_eq!(
        *failures.borrow(),
        1,
        "the exception handler must see the callback failure"
    );
}

#[test]
fn delivery_survives_a_subscriber_address_change() {
    let mut w = world(6);
    let inbox = w.session(w.subscriber).subscriber::<Offer>();
    let _guard = inbox.subscribe_pull();
    w.net.run_for(SimDuration::from_secs(15));
    let offers = w.session(w.publisher).publisher::<Offer>();
    offers
        .publish(&Offer {
            shop: "before".into(),
            price: 1.0,
        })
        .unwrap();
    w.net.run_for(SimDuration::from_secs(5));

    // The skier's laptop changes networks: new addresses, stale bindings.
    w.net.reassign_addresses(w.subscriber);
    // Give the platform time to re-publish its advertisement and for the
    // publisher's finder/PBP machinery to re-resolve the listener.
    w.net.run_for(SimDuration::from_secs(40));

    offers
        .publish(&Offer {
            shop: "after".into(),
            price: 2.0,
        })
        .unwrap();
    w.net.run_for(SimDuration::from_secs(20));
    let shops: Vec<String> = inbox.drain().into_iter().map(|o| o.shop).collect();
    assert!(shops.contains(&"before".to_owned()));
    assert!(
        shops.contains(&"after".to_owned()),
        "the pipe must re-bind to the subscriber's new address (got {shops:?})"
    );
}

// ---------------------------------------------------------------------------
// batching equivalence
// ---------------------------------------------------------------------------

fn strategy_of(index: usize) -> DisseminationConfig {
    match tps::StrategyKind::ALL[index % tps::StrategyKind::ALL.len()] {
        tps::StrategyKind::DirectFanout => DisseminationConfig::direct_fanout(),
        // One rendezvous in this world, so one shard.
        tps::StrategyKind::RendezvousMesh => DisseminationConfig::rendezvous_mesh(1),
        // Fanout 64 >= the three-node neighbourhood: flooding-with-dedup, so
        // delivery is deterministic and the sequences comparable.
        tps::StrategyKind::Gossip => DisseminationConfig::gossip(64, 4),
    }
}

/// Runs one world, publishes `prices` (as one batch or as singles) and
/// returns the sequence the subscriber observed.
fn delivered_sequence(
    seed: u64,
    dissemination: DisseminationConfig,
    prices: &[u32],
    batch: bool,
) -> Vec<Offer> {
    let mut w = world_with_dissemination(seed, dissemination);
    let inbox = w.session(w.subscriber).subscriber::<Offer>();
    let _guard = inbox.subscribe_pull();
    w.net.run_for(SimDuration::from_secs(15));
    let offers = w.session(w.publisher).publisher::<Offer>();
    let events: Vec<Offer> = prices
        .iter()
        .enumerate()
        .map(|(i, p)| Offer {
            shop: format!("shop-{i}"),
            price: *p as f32,
        })
        .collect();
    if batch {
        offers.publish_batch(&events).unwrap();
    } else {
        for event in &events {
            offers.publish(event).unwrap();
        }
    }
    w.net.run_for(SimDuration::from_secs(20));
    inbox.drain()
}

proptest! {
    /// `publish_batch(&events)` and `events.len()` single publishes deliver
    /// identical event sequences to the subscriber, under every
    /// dissemination strategy.
    #[test]
    fn batch_publish_is_equivalent_to_single_publishes(
        strategy_index in 0usize..3,
        prices in proptest::collection::vec(1u32..1000, 1..6),
        seed in 1u64..1_000,
    ) {
        let dissemination = strategy_of(strategy_index);
        let singles = delivered_sequence(seed, dissemination.clone(), &prices, false);
        let batched = delivered_sequence(seed, dissemination.clone(), &prices, true);
        prop_assert_eq!(
            singles.len(), prices.len(),
            "strategy {}: singles run must deliver everything", dissemination.kind
        );
        prop_assert_eq!(
            &singles, &batched,
            "strategy {}: batch and single publishes must deliver the same sequence",
            dissemination.kind
        );
    }
}

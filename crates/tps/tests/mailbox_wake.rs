//! The session mailbox is drained when a command enters it, not on a timer.
//!
//! Handles live outside the simulation, so the engine's node is woken by the
//! kernel (`simnet::Waker`, timer tag `TIMER_MAILBOX`) when the first command
//! enters an empty mailbox. These tests pin what that buys: a command runs at
//! the virtual instant it was issued, whether it came from between two
//! `run_for` calls or from inside a subscriber's callback, and an idle world
//! fires no mailbox timer at all.

use jxta::peer::{trace_handle, CostModel, PeerConfig, SharedTraceCollector};
use jxta::telemetry::trace::{SpanKind, TraceCollector};
use simnet::{
    Network, NetworkBuilder, NodeConfig, NodeId, SimAddress, SimDuration, SubnetId, TraceEvent, TransportKind,
};
use std::cell::RefCell;
use std::rc::Rc;
use tps::{CallbackFn, IgnoreExceptions, Session, TpsConfig, TpsEvent, TpsHost, TIMER_FINDER, TIMER_MAILBOX};

#[derive(Debug, Clone, PartialEq)]
struct Ping {
    seq: u32,
}
impl TpsEvent for Ping {
    const TYPE_NAME: &'static str = "Ping";
    tps::event_fields!(seq);
}

#[derive(Debug, Clone, PartialEq)]
struct Pong {
    seq: u32,
}
impl TpsEvent for Pong {
    const TYPE_NAME: &'static str = "Pong";
    tps::event_fields!(seq);
}

const RDV_TCP: SimAddress = SimAddress::new(TransportKind::Tcp, 0x0A00_0001, 9701);

/// A peer whose every step is free, marshalling included, so a span's
/// instant is the instant its handler was entered.
fn free_config(name: &str, peer: PeerConfig) -> TpsConfig {
    let mut config = TpsConfig::new(name).with_peer(peer.with_costs(CostModel::free()));
    config.marshal_fixed = SimDuration::ZERO;
    config.marshal_per_byte_us = 0;
    config
}

/// One rendezvous and two edge peers, `a` and `b`, with the kernel trace on.
fn world(seed: u64) -> (Network, NodeId, NodeId) {
    let mut builder = NetworkBuilder::new(seed);
    builder.enable_trace(1 << 16);
    builder.add_node(
        TpsHost::boxed(free_config("rdv", PeerConfig::rendezvous("rdv"))),
        NodeConfig::lan_peer(SubnetId(0)),
    );
    let edge =
        |name: &str| TpsHost::boxed(free_config(name, PeerConfig::edge(name)).with_seeds(vec![RDV_TCP]));
    let a = builder.add_node(edge("a"), NodeConfig::lan_peer(SubnetId(0)));
    let b = builder.add_node(edge("b"), NodeConfig::lan_peer(SubnetId(0)));
    let mut net = builder.build();
    net.run_for(SimDuration::from_secs(2));
    (net, a, b)
}

fn session(net: &mut Network, node: NodeId) -> Session {
    net.invoke::<TpsHost, _>(node, |host, _| host.session())
}

/// Installs one shared span collector on every peer of the network.
fn trace_all(net: &mut Network, nodes: &[NodeId]) -> SharedTraceCollector {
    let tracer: SharedTraceCollector = Rc::new(RefCell::new(TraceCollector::with_capacity(4096)));
    for &node in nodes {
        net.invoke::<TpsHost, _>(node, |host, _| {
            host.engine.set_trace_collector(Rc::clone(&tracer));
        });
    }
    tracer
}

fn span_times(tracer: &SharedTraceCollector, peer: &str, wanted: fn(&SpanKind) -> bool) -> Vec<u64> {
    let handle = trace_handle(jxta::PeerId::derive(peer));
    tracer
        .borrow()
        .spans()
        .filter(|span| span.node == handle && wanted(&span.kind))
        .map(|span| span.at_us)
        .collect()
}

#[test]
fn a_publish_between_runs_is_executed_at_the_instant_of_the_call() {
    let (mut net, a, b) = world(3);
    let tracer = trace_all(&mut net, &[a, b]);
    let inbox = session(&mut net, b).subscriber::<Ping>();
    let _guard = inbox.subscribe_pull();
    let pings = session(&mut net, a).publisher::<Ping>();
    net.run_for(SimDuration::from_secs(15));

    let called_at = net.now();
    pings.publish(&Ping { seq: 1 }).unwrap();
    // A zero-length run reaches no new instant: only the wake can execute
    // the publish here.
    net.run_for(SimDuration::ZERO);
    let engine = &net.node_ref::<TpsHost>(a).unwrap().engine;
    assert_eq!(
        engine.counters().events_published,
        1,
        "executed within the same instant"
    );
    assert_eq!(engine.mailbox_depth(), 0);
    assert_eq!(
        span_times(&tracer, "a", |kind| *kind == SpanKind::Published),
        vec![called_at.as_micros()]
    );
    let wire_out = span_times(&tracer, "a", |kind| matches!(kind, SpanKind::WireOut { .. }));
    assert!(!wire_out.is_empty(), "the publish reached the wire");
    assert!(
        wire_out.iter().all(|&at| at == called_at.as_micros()),
        "every copy left at the instant of the call, not on a later poll: {wire_out:?} vs {called_at}"
    );

    net.run_for(SimDuration::from_secs(5));
    assert_eq!(inbox.drain(), vec![Ping { seq: 1 }]);
}

#[test]
fn a_reply_published_from_a_callback_is_executed_at_the_same_instant() {
    let (mut net, a, b) = world(5);
    let tracer = trace_all(&mut net, &[a, b]);
    // `b` answers every Ping with a Pong, from inside its callback: the
    // command is enqueued while the engine drains JXTA events.
    let b_session = session(&mut net, b);
    let pongs = b_session.publisher::<Pong>();
    b_session
        .subscriber::<Ping>()
        .subscribe(
            CallbackFn(move |ping: Ping| {
                pongs.publish(&Pong { seq: ping.seq }).unwrap();
                Ok(())
            }),
            IgnoreExceptions,
        )
        .detach();
    let a_session = session(&mut net, a);
    let replies = a_session.subscriber::<Pong>();
    let _guard = replies.subscribe_pull();
    let pings = a_session.publisher::<Ping>();
    net.run_for(SimDuration::from_secs(15));

    pings.publish(&Ping { seq: 7 }).unwrap();
    net.run_for(SimDuration::from_secs(5));
    assert_eq!(replies.drain(), vec![Pong { seq: 7 }]);

    let delivered = span_times(&tracer, "b", |kind| *kind == SpanKind::Delivered);
    let answered = span_times(&tracer, "b", |kind| *kind == SpanKind::Published);
    assert_eq!(delivered.len(), 1, "b received the one Ping");
    assert_eq!(
        answered, delivered,
        "the Pong is published at the instant the Ping was delivered"
    );
}

#[test]
fn an_idle_world_fires_no_mailbox_timer() {
    let (mut net, a, b) = world(9);
    // Handles minted mid-run wake their engine once, at the instant of the
    // mint, and never again.
    let minted_at = net.now();
    let _pings = session(&mut net, a).publisher::<Ping>();
    let inbox = session(&mut net, b).subscriber::<Ping>();
    let _guard = inbox.subscribe_pull();
    net.run_for(SimDuration::from_secs(60));

    let mut mailbox_wakes = Vec::new();
    let mut idle_tags = Vec::new();
    for record in net.trace().records() {
        if let TraceEvent::TimerFired { node, tag } = record.event {
            if tag == TIMER_MAILBOX {
                mailbox_wakes.push((record.at, node));
            } else if record.at > minted_at {
                idle_tags.push(tag);
            }
        }
    }
    assert_eq!(
        mailbox_wakes[..mailbox_wakes.len().min(4)],
        [(minted_at, a), (minted_at, b)],
        "one wake per engine whose mailbox was fed, at the instant it was fed \
         ({} mailbox timers in all)",
        mailbox_wakes.len()
    );
    assert!(idle_tags.contains(&TIMER_FINDER));
    assert!(idle_tags.contains(&jxta::TIMER_HOUSEKEEPING));
    assert!(
        idle_tags
            .iter()
            .all(|&tag| tag == TIMER_FINDER || tag == jxta::TIMER_HOUSEKEEPING),
        "an idle world fires only finder and housekeeping timers: {idle_tags:x?}"
    );
}

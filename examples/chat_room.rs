//! A small decoupled chat application over TPS: every participant both
//! publishes and subscribes to `ChatMessage`, illustrating the many-to-many
//! (space- and time-decoupled) interaction the paper motivates — and the v2
//! handle model, where one node holds a `Publisher` *and* a `Subscriber`
//! simultaneously (impossible with the v1 borrow-based facade).
//!
//! Run with `cargo run --example chat_room`.

use simnet::{NetworkBuilder, NodeConfig, SimAddress, SimDuration, SubnetId, TransportKind};
use tps::{Publisher, Subscriber, TpsConfig, TpsEvent, TpsHost};

#[derive(Debug, Clone, PartialEq)]
struct ChatMessage {
    from: String,
    body: String,
}
impl TpsEvent for ChatMessage {
    const TYPE_NAME: &'static str = "ChatMessage";
    tps::event_fields!(from, body);
}

fn main() {
    let mut builder = NetworkBuilder::new(5);
    let _rdv = builder.add_node(
        TpsHost::boxed(TpsConfig::new("rdv").with_peer(jxta::PeerConfig::rendezvous("rdv"))),
        NodeConfig::lan_peer(SubnetId(0)),
    );
    let rdv_addr = SimAddress::new(TransportKind::Tcp, 0x0A00_0001, 9701);
    let names = ["alice", "bob", "carol"];
    let peers: Vec<_> = names
        .iter()
        .map(|name| {
            builder.add_node(
                TpsHost::boxed(TpsConfig::new(*name).with_seeds(vec![rdv_addr])),
                NodeConfig::lan_peer(SubnetId(0)),
            )
        })
        .collect();
    let mut net = builder.build();
    net.run_for(SimDuration::from_secs(2));

    // Every participant holds both ends of the room.
    let mut mouths: Vec<Publisher<ChatMessage>> = Vec::new();
    let mut ears: Vec<Subscriber<ChatMessage>> = Vec::new();
    let mut guards = Vec::new();
    for peer in &peers {
        let session = net.invoke::<TpsHost, _>(*peer, |host, _| host.session());
        mouths.push(session.publisher::<ChatMessage>());
        let ear = session.subscriber::<ChatMessage>();
        guards.push(ear.subscribe_pull());
        ears.push(ear);
    }
    net.run_for(SimDuration::from_secs(15));

    // Everyone says hello, straight through the owned handles.
    for (index, mouth) in mouths.iter().enumerate() {
        let from = names[index].to_owned();
        mouth
            .publish(&ChatMessage {
                body: format!("hello from {from}"),
                from,
            })
            .unwrap();
        net.run_for(SimDuration::from_secs(2));
    }
    net.run_for(SimDuration::from_secs(10));

    for (index, ear) in ears.iter().enumerate() {
        let inbox = ear.drain();
        println!("{} received {} messages", names[index], inbox.len());
        // Each participant hears the two others (publishers do not receive
        // their own events, as with a JXTA wire pipe).
        assert_eq!(inbox.len(), 2);
    }
    println!("chat room converged.");
}

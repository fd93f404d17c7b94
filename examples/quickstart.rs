//! Quickstart: the paper's four programming phases (Figure 14) on the v2
//! session handles, in ~40 lines of user code.
//!
//! 1. type definition, 2. initialisation (mint owned handles),
//! 3. subscription (pull mode + guard), 4. publication.
//!
//! The handles do not borrow the engine: they are minted inside the
//! simulation but *held outside it*, enqueueing commands that the engine
//! drains at its next tick. The paper's original borrow-based
//! `TPSInterface` is kept as `TpsEngine::interface::<T>()` for
//! method-by-method fidelity with the published API.
//!
//! Run with `cargo run --example quickstart`.

use simnet::{NetworkBuilder, NodeConfig, SimAddress, SimDuration, SubnetId, TransportKind};
use tps::{TpsConfig, TpsEvent, TpsHost};

// ---- phase 1: type definition ------------------------------------------------
#[derive(Debug, Clone, PartialEq)]
struct SkiRental {
    shop: String,
    price: f32,
    brand: String,
    number_of_days: f32,
}

impl TpsEvent for SkiRental {
    const TYPE_NAME: &'static str = "SkiRental";
    tps::event_fields!(shop, price, brand, number_of_days);
}

fn main() {
    // ---- phase 2: initialisation (one engine per peer, owned handles) --------
    let mut builder = NetworkBuilder::new(42);
    let _rdv = builder.add_node(
        TpsHost::boxed(TpsConfig::new("rdv").with_peer(jxta::PeerConfig::rendezvous("rdv"))),
        NodeConfig::lan_peer(SubnetId(0)),
    );
    let rdv_addr = SimAddress::new(TransportKind::Tcp, 0x0A00_0001, 9701);
    let shop = builder.add_node(
        TpsHost::boxed(TpsConfig::new("XTremShop").with_seeds(vec![rdv_addr])),
        NodeConfig::lan_peer(SubnetId(0)),
    );
    let skier = builder.add_node(
        TpsHost::boxed(TpsConfig::new("skier").with_seeds(vec![rdv_addr])),
        NodeConfig::lan_peer(SubnetId(0)),
    );
    let mut net = builder.build();
    net.run_for(SimDuration::from_secs(2));

    // A publisher handle on the shop, a subscriber handle on the skier. Both
    // are owned values living *outside* the simulated network.
    let offers = net.invoke::<TpsHost, _>(shop, |host, _| host.session().publisher::<SkiRental>());
    let inbox = net.invoke::<TpsHost, _>(skier, |host, _| host.session().subscriber::<SkiRental>());

    // ---- phase 3: subscription (pull mode; the guard owns the subscription) ---
    let guard = inbox.subscribe_pull();
    net.run_for(SimDuration::from_secs(15));

    // ---- phase 4: publication -------------------------------------------------
    offers
        .publish(&SkiRental {
            shop: "XTremShop".into(),
            price: 14.0,
            brand: "Salomon".into(),
            number_of_days: 100.0,
        })
        .expect("publish failed");
    net.run_for(SimDuration::from_secs(10));

    let received = inbox.drain();
    println!("skier received {} offer(s):", received.len());
    for offer in &received {
        println!(
            "  skis that could be rented: {} {} at {} CHF/day",
            offer.shop, offer.brand, offer.price
        );
    }
    assert_eq!(received.len(), 1);

    // Dropping the guard unsubscribes at the skier's next tick.
    drop(guard);
    net.run_for(SimDuration::from_secs(1));
    assert_eq!(
        net.node_ref::<TpsHost>(skier)
            .unwrap()
            .engine
            .subscription_count(),
        0,
        "dropping the guard must unsubscribe"
    );
}

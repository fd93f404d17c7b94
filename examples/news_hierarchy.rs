//! Subtype delivery (the paper's Figure 7): a subscriber to a *supertype*
//! receives instances of every subtype, structurally projected onto the
//! supertype's fields — consumed here through a v2 pull-mode subscriber.
//!
//! Run with `cargo run --example news_hierarchy`.

use simnet::{NetworkBuilder, NodeConfig, SimAddress, SimDuration, SubnetId, TransportKind};
use tps::{TpsConfig, TpsEvent, TpsHost};

/// The root of the hierarchy (type `A` in Figure 7).
#[derive(Debug, Clone, PartialEq)]
struct NewsItem {
    headline: String,
    importance: u8,
}
impl TpsEvent for NewsItem {
    const TYPE_NAME: &'static str = "NewsItem";
    tps::event_fields!(headline, importance);
}

/// A subtype (type `B`): sports news carry a discipline.
#[derive(Debug, Clone, PartialEq)]
struct SportsNews {
    headline: String,
    importance: u8,
    discipline: String,
}
impl TpsEvent for SportsNews {
    const TYPE_NAME: &'static str = "SportsNews";
    const SUPERTYPES: &'static [&'static str] = &["NewsItem"];
    tps::event_fields!(headline, importance, discipline);
}

/// A deeper subtype (type `D`): ski-race results.
#[derive(Debug, Clone, PartialEq)]
struct SkiRaceResult {
    headline: String,
    importance: u8,
    discipline: String,
    winner: String,
}
impl TpsEvent for SkiRaceResult {
    const TYPE_NAME: &'static str = "SkiRaceResult";
    const SUPERTYPES: &'static [&'static str] = &["SportsNews"];
    tps::event_fields!(headline, importance, discipline, winner);
}

fn main() {
    let mut builder = NetworkBuilder::new(11);
    let _rdv = builder.add_node(
        TpsHost::boxed(TpsConfig::new("rdv").with_peer(jxta::PeerConfig::rendezvous("rdv"))),
        NodeConfig::lan_peer(SubnetId(0)),
    );
    let rdv_addr = SimAddress::new(TransportKind::Tcp, 0x0A00_0001, 9701);
    let agency = builder.add_node(
        TpsHost::boxed(TpsConfig::new("agency").with_seeds(vec![rdv_addr])),
        NodeConfig::lan_peer(SubnetId(0)),
    );
    let reader = builder.add_node(
        TpsHost::boxed(TpsConfig::new("reader").with_seeds(vec![rdv_addr])),
        NodeConfig::lan_peer(SubnetId(0)),
    );
    let mut net = builder.build();
    net.run_for(SimDuration::from_secs(2));

    // The reader session registers the whole hierarchy (so the subtype
    // relation is known locally) but subscribes only to the *root* type.
    let reader_session = net.invoke::<TpsHost, _>(reader, |host, _| host.session());
    reader_session.register::<SportsNews>();
    reader_session.register::<SkiRaceResult>();
    let inbox = reader_session.subscriber::<NewsItem>();
    let _guard = inbox.subscribe_pull();
    net.run_for(SimDuration::from_secs(15));

    // The agency holds one publisher handle per hierarchy level — coexisting
    // on the same node, something the v1 borrow-based facade cannot express.
    let agency_session = net.invoke::<TpsHost, _>(agency, |host, _| host.session());
    let news_desk = agency_session.publisher::<NewsItem>();
    let sports_desk = agency_session.publisher::<SportsNews>();
    let race_desk = agency_session.publisher::<SkiRaceResult>();
    news_desk
        .publish(&NewsItem {
            headline: "P2P acclaimed by jury of peers".into(),
            importance: 3,
        })
        .unwrap();
    sports_desk
        .publish(&SportsNews {
            headline: "Ski season opens".into(),
            importance: 5,
            discipline: "alpine".into(),
        })
        .unwrap();
    race_desk
        .publish(&SkiRaceResult {
            headline: "Lauberhorn downhill".into(),
            importance: 9,
            discipline: "downhill".into(),
            winner: "A. Racer".into(),
        })
        .unwrap();
    net.run_for(SimDuration::from_secs(10));

    let items = inbox.drain();
    println!(
        "reader subscribed to NewsItem only and received {} items:",
        items.len()
    );
    for item in &items {
        println!("  [{}] {}", item.importance, item.headline);
    }
    assert_eq!(
        items.len(),
        3,
        "the NewsItem subscriber must see all three publications"
    );
}

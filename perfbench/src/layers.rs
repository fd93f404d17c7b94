//! Per-layer replays: each layer's public functions, called from outside on
//! inputs shaped like the workload's (event type, message size, batch
//! count, lease count, population), timed on the host clock.
//!
//! These are estimates of what a layer costs inside a run, not spans from
//! inside it; `*.est_share` multiplies them by the counts the run's own
//! books give. Spans inside the program are a later change.

use crate::stats::median;
use crate::workloads::{Shape, Workload};
use bytes::Bytes;
use jxta::adv::{Advertisement, PeerAdvertisement};
use jxta::dissem::{adoption_map, NeighborView};
use jxta::endpoint::{WireMessage, WirePacket};
use jxta::services::rendezvous::RendezvousService;
use jxta::xml::XmlElement;
use jxta::{DisseminationConfig, Message, MessageElement, PeerGroupId, PeerId, PipeId, Uuid};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{
    Datagram, NetworkBuilder, NodeConfig, NodeContext, SimAddress, SimDuration, SimNode, SimTime, SubnetId,
    TimerToken, TransportKind,
};
use ski_rental::{OfferGenerator, RentalOffer, SkiRental};
use std::hint::black_box;
use tps::TpsEvent;

/// The TPS engine's message namespace and padded single-event size
/// (`TpsConfig::target_event_size`), reproduced to shape replay inputs.
const TPS_NS: &str = "tps";
const TPS_EVENT_SIZE: usize = 1910;
/// The kernel replay's population cap: enough nodes that the event queue is
/// as deep as a large run's, few enough that the replay takes about a second.
const KERNEL_REPLAY_NODES: usize = 20_000;

/// Host cost of one call into each layer, on this workload's input shape.
#[derive(Debug, Clone, Copy)]
pub struct LayerCosts {
    /// `simnet`: one kernel event (timer or datagram) with no-op nodes.
    pub kernel_ns_per_event: f64,
    /// `simnet`: `NetworkBuilder::add_node` + `build`, per node.
    pub build_ns_per_node: f64,
    /// `jxta`: `WireMessage::to_bytes` on the workload's data message.
    pub wire_encode_ns: f64,
    /// `jxta`: `WireMessage::from_bytes` on the workload's data message.
    pub wire_decode_ns: f64,
    /// `jxta`: `Message::from_bytes` on the data message's payload.
    pub message_decode_ns: f64,
    /// `jxta`: `XmlElement::parse` + `PeerAdvertisement::from_xml` of the
    /// advertisement a `RendezvousConnect` carries.
    pub xml_parse_ns: f64,
    /// `jxta`: `RendezvousService::collect_client_targets`, per lease.
    pub fan_down_ns_per_lease: f64,
    /// `dissem`: the workload's strategy, `plan_publish`.
    pub plan_publish_ns: f64,
    /// `dissem`: the workload's strategy, `plan_forward` at a rendezvous.
    pub plan_forward_ns: f64,
    /// `dissem`: `adoption_map` over the workload's shards, one dead.
    pub adoption_map_ns: f64,
    /// `tps`: `codec::to_vec` of one `SkiRental`.
    pub marshal_ns: f64,
    /// `tps`: `codec::from_slice::<SkiRental>`.
    pub unmarshal_ns: f64,
    /// `tps`: `codec::from_slice::<RentalOffer>` (structural upcast).
    pub upcast_ns: f64,
}

/// Median nanoseconds per call of `op`: batches sized to last a few
/// milliseconds each, seven of them.
fn ns_per_op(mut op: impl FnMut()) -> f64 {
    let mut time_batch = |iterations: u64| {
        let started = crate::clock::now();
        for _ in 0..iterations {
            op();
        }
        started.elapsed().as_secs_f64() * 1e9
    };
    let mut iterations = 1u64;
    while time_batch(iterations) < 4e6 && iterations < 1 << 24 {
        iterations *= 2;
    }
    let samples: Vec<f64> = (0..7)
        .map(|_| time_batch(iterations) / iterations as f64)
        .collect();
    median(&samples)
}

/// A node that does no protocol work: it re-arms a 50 ms timer (the stack's
/// housekeeping cadence is 20 timers per node and virtual second) and sends
/// its neighbour one datagram every eighth tick.
struct Ticker {
    neighbour: SimAddress,
    payload: Bytes,
    ticks: u32,
}

impl SimNode for Ticker {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        ctx.set_timer(SimDuration::from_millis(50), 1);
    }
    fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, datagram: Datagram) {
        black_box(datagram);
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _token: TimerToken, tag: u64) {
        ctx.set_timer(SimDuration::from_millis(50), tag);
        self.ticks += 1;
        if self.ticks.is_multiple_of(8) {
            ctx.send(self.neighbour, self.payload.clone())
                .expect("the neighbour's address resolves");
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// `(build ns per node, kernel ns per event)` for `nodes` tickers exchanging
/// `payload`.
fn kernel_replay(nodes: usize, payload: &Bytes, seed: u64) -> (f64, f64) {
    let config = NodeConfig::lan_peer(SubnetId(0)).with_transports(vec![TransportKind::Tcp]);
    let build_started = crate::clock::now();
    let mut builder = NetworkBuilder::new(seed);
    for index in 0..nodes {
        let neighbour = SimAddress::new(
            TransportKind::Tcp,
            0x0A00_0001 + ((index + 1) % nodes) as u32,
            9701,
        );
        builder.add_node(
            Box::new(Ticker {
                neighbour,
                payload: payload.clone(),
                ticks: 0,
            }),
            config.clone(),
        );
    }
    let mut net = builder.build();
    let build_ns = build_started.elapsed().as_secs_f64() * 1e9;
    // Start events and the first timers are set-up, not steady state.
    net.run_for(SimDuration::from_millis(100));
    let target_events = 400_000u64;
    let per_virtual_second = nodes as u64 * 20 * 9 / 8;
    let run_ms = (target_events * 1000 / per_virtual_second.max(1)).max(400);
    let events_before = net.events_processed();
    let started = crate::clock::now();
    net.run_for(SimDuration::from_millis(run_ms));
    let run_ns = started.elapsed().as_secs_f64() * 1e9;
    let events = net.events_processed() - events_before;
    (build_ns / nodes as f64, run_ns / events.max(1) as f64)
}

/// The TPS message the workload's publishers put on the wire: one padded
/// single event, or `batch` indexed payloads.
fn tps_message(offers: &mut OfferGenerator, batch: usize) -> Message {
    let payloads: Vec<Vec<u8>> = (0..batch)
        .map(|_| tps::codec::to_vec(&offers.next_offer()).expect("SkiRental marshals"))
        .collect();
    let mut message = Message::new();
    message.add(MessageElement::text(TPS_NS, "ActualType", SkiRental::TYPE_NAME));
    message.add(MessageElement::text(TPS_NS, "Supertypes", RentalOffer::TYPE_NAME));
    message.add(MessageElement::text(
        TPS_NS,
        "EventId",
        Uuid::derive("perfbench-event").to_hex(),
    ));
    if let [single] = payloads.as_slice() {
        message.add(MessageElement::binary(TPS_NS, "Payload", single.clone()));
    } else {
        message.add(MessageElement::text(TPS_NS, "Count", payloads.len().to_string()));
        for (index, payload) in payloads.iter().enumerate() {
            message.add(MessageElement::binary(
                TPS_NS,
                format!("Payload{index}"),
                payload.clone(),
            ));
        }
    }
    let size = message.wire_size();
    if size < TPS_EVENT_SIZE {
        message.add(MessageElement::binary(
            TPS_NS,
            "Padding",
            vec![0u8; TPS_EVENT_SIZE - size],
        ));
    }
    message
}

fn peer_id(index: usize) -> PeerId {
    PeerId::derive(&format!("perfbench-peer-{index}"))
}

fn tcp_address(index: usize) -> SimAddress {
    SimAddress::new(TransportKind::Tcp, 0x0A00_0001 + index as u32, 9701)
}

/// Replays every layer on inputs shaped like `workload`'s.
/// `leases_per_shard` is the lease count of the workload's most loaded
/// rendezvous, as its traced rep found it.
pub fn replay(workload: Workload, shape: Shape, leases_per_shard: usize, seed: u64) -> LayerCosts {
    let mut offers = OfferGenerator::new(seed ^ 0x5EED);
    let offer = offers.next_offer();
    let marshalled = tps::codec::to_vec(&offer).expect("SkiRental marshals");

    let payload = tps_message(&mut offers, shape.batch).to_bytes();
    let wire = WireMessage::WireData(WirePacket {
        pipe_id: PipeId::derive(SkiRental::TYPE_NAME),
        msg_id: Uuid::derive("perfbench-message"),
        src_peer: peer_id(0),
        ttl: 4,
        trace_ids: Vec::new(),
        payload: payload.clone(),
    });
    let wire_bytes = wire.to_bytes();

    let advertisement =
        PeerAdvertisement::new(peer_id(1), "skier-1", PeerGroupId::net()).with_endpoints(vec![
            tcp_address(1),
            SimAddress::new(TransportKind::Http, 0x0A00_0002, 9702),
        ]);
    let advertisement_xml = advertisement.to_xml().to_xml();

    let leases = leases_per_shard.max(1);
    let mut rendezvous = RendezvousService::new(true, Vec::new());
    for index in 0..leases {
        rendezvous.register_client(peer_id(index + 1), vec![tcp_address(index + 1)], SimTime::ZERO);
    }
    let mut targets = Vec::with_capacity(leases);

    let dissemination = match workload {
        Workload::PaperDirect | Workload::TypedFlood => DisseminationConfig::direct_fanout(),
        Workload::MeshFanout | Workload::MeshChurn => DisseminationConfig::rendezvous_mesh(shape.shards),
    };
    let mut strategy = dissemination.build::<PeerId>();
    let mut rng = StdRng::seed_from_u64(seed);
    let publisher_view = NeighborView {
        local: peer_id(0),
        is_rendezvous: false,
        rendezvous: Some(peer_id(usize::MAX)),
        clients: Vec::new(),
        mesh_links: Vec::new(),
        listeners: (1..=shape.subscribers).map(peer_id).collect(),
        ttl_budget: 4,
    };
    let rendezvous_view = NeighborView {
        local: peer_id(usize::MAX),
        is_rendezvous: true,
        rendezvous: None,
        clients: (1..=leases).map(peer_id).collect(),
        mesh_links: (0..shape.shards.saturating_sub(1))
            .map(|i| peer_id(usize::MAX - 1 - i))
            .collect(),
        listeners: Vec::new(),
        ttl_budget: 4,
    };
    let mut alive = vec![true; shape.shards];
    if shape.shards > 1 {
        alive[shape.shards / 2] = false;
    }

    let population = (shape.shards + shape.publishers + shape.subscribers).min(KERNEL_REPLAY_NODES);
    let (build_ns_per_node, kernel_ns_per_event) = kernel_replay(population, &wire_bytes, seed);

    LayerCosts {
        kernel_ns_per_event,
        build_ns_per_node,
        wire_encode_ns: ns_per_op(|| {
            black_box(black_box(&wire).to_bytes());
        }),
        wire_decode_ns: ns_per_op(|| {
            black_box(WireMessage::from_bytes(black_box(&wire_bytes)).expect("round trip"));
        }),
        message_decode_ns: ns_per_op(|| {
            black_box(Message::from_bytes(black_box(&payload)).expect("round trip"));
        }),
        xml_parse_ns: ns_per_op(|| {
            let xml = XmlElement::parse(black_box(&advertisement_xml)).expect("round trip");
            black_box(PeerAdvertisement::from_xml(&xml).expect("round trip"));
        }),
        fan_down_ns_per_lease: ns_per_op(|| {
            rendezvous.collect_client_targets(&[TransportKind::Tcp], &mut targets);
            black_box(&targets);
        }) / leases as f64,
        plan_publish_ns: ns_per_op(|| {
            black_box(strategy.plan_publish(black_box(&publisher_view), &mut rng));
        }),
        plan_forward_ns: ns_per_op(|| {
            black_box(strategy.plan_forward(black_box(&rendezvous_view), peer_id(0), 4, &mut rng));
        }),
        adoption_map_ns: ns_per_op(|| {
            black_box(adoption_map(black_box(&alive)));
        }),
        marshal_ns: ns_per_op(|| {
            black_box(tps::codec::to_vec(black_box(&offer)).expect("SkiRental marshals"));
        }),
        unmarshal_ns: ns_per_op(|| {
            black_box(tps::codec::from_slice::<SkiRental>(black_box(&marshalled)).expect("round trip"));
        }),
        upcast_ns: ns_per_op(|| {
            black_box(tps::codec::from_slice::<RentalOffer>(black_box(&marshalled)).expect("upcast"));
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_inputs_have_the_engine_s_message_shape() {
        let mut offers = OfferGenerator::new(7);
        let single = tps_message(&mut offers, 1);
        // As in the engine, the padding element's own framing comes on top.
        assert!((TPS_EVENT_SIZE..TPS_EVENT_SIZE + 64).contains(&single.wire_size()));
        assert!(single.element(TPS_NS, "Payload").is_some());
        let batch = tps_message(&mut offers, 64);
        assert_eq!(batch.element_text(TPS_NS, "Count").as_deref(), Some("64"));
        assert!(batch.element(TPS_NS, "Payload63").is_some());
        assert!(batch.wire_size() > TPS_EVENT_SIZE);
    }

    #[test]
    fn kernel_replay_counts_timers_and_datagrams() {
        let (build_ns, event_ns) = kernel_replay(16, &Bytes::from_static(b"x"), 1);
        assert!(build_ns > 0.0 && event_ns > 0.0);
    }
}

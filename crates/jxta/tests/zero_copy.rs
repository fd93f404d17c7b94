//! The receive path shares the datagram's storage and, for untraced wire
//! data, never calls the allocator; a parsed XML tree is views of its text
//! and allocates its child lists and the text it had to unescape, no more.
//!
//! This binary installs its own counting allocator, so it holds these tests
//! only. Counts are per thread: the test harness runs tests on parallel
//! threads and their allocations must not leak into one another's books.

use bytes::Bytes;
use jxta::endpoint::{WireMessage, WirePacket};
use jxta::message::{Message, MessageElement};
use jxta::protocols::pdp::DiscoveryResponse;
use jxta::protocols::prp::{ResolverQuery, ResolverResponse};
use jxta::protocols::{handlers, ProtocolPayload};
use jxta::xml::XmlElement;
use jxta::{
    AdvKind, Advertisement, PeerAdvertisement, PeerGroup, PeerGroupId, PeerId, PipeId, QueryId, Uuid,
};
use simnet::{SimAddress, TransportKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;
use std::ops::Range;

thread_local! {
    // Const-initialised and without a destructor, so touching it from inside
    // the allocator cannot itself allocate or run during thread teardown.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note_call() {
    CALLS.with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counter never influences what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_call();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_call();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_call();
        // SAFETY: `ptr`/`layout` describe a live block of this allocator and
        // the caller vouched for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) this thread makes
/// while `f` runs.
fn allocator_calls<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

fn inside(inner: &[u8], outer: Range<*const u8>) -> bool {
    let inner = inner.as_ptr_range();
    outer.start <= inner.start && inner.end <= outer.end
}

fn wire_data(trace_ids: Vec<jxta::telemetry::trace::TraceId>) -> WireMessage {
    let event = Message::new()
        .with(MessageElement::text("tps", "ActualType", "SkiRental"))
        .with(MessageElement::binary("tps", "Payload", vec![7u8; 1800]));
    WireMessage::WireData(WirePacket {
        pipe_id: PipeId::derive("ski"),
        msg_id: Uuid::derive("m1"),
        src_peer: PeerId::derive("pub"),
        ttl: 3,
        trace_ids,
        payload: event.to_bytes(),
    })
}

#[test]
fn the_counter_sees_allocations() {
    let (calls, v) = allocator_calls(|| Vec::<u8>::with_capacity(64));
    assert_eq!(calls, 1, "a counter that reads 0 for everything proves nothing");
    drop(v);
}

#[test]
fn untraced_wire_data_decodes_without_allocating() {
    let datagram = wire_data(Vec::new()).to_bytes();
    let (calls, decoded) = allocator_calls(|| WireMessage::from_bytes(&datagram));
    let WireMessage::WireData(packet) = decoded.unwrap() else {
        panic!("wire data decodes as wire data");
    };
    assert_eq!(calls, 0);
    assert!(inside(&packet.payload, datagram.as_ptr_range()));
}

#[test]
fn decoded_payloads_and_bodies_point_into_the_datagram() {
    let traced = vec![jxta::telemetry::trace::TraceId { origin: 0xAB, seq: 1 }];
    for message in [wire_data(Vec::new()), wire_data(traced)] {
        let datagram = message.to_bytes();
        let WireMessage::WireData(packet) = WireMessage::from_bytes(&datagram).unwrap() else {
            panic!("wire data decodes as wire data");
        };
        assert!(inside(&packet.payload, datagram.as_ptr_range()));
        // The event message inside the payload is decoded in place too: its
        // bodies are views of a view, still of the one datagram buffer.
        let event = Message::from_bytes(&packet.payload).unwrap();
        assert_eq!(event.len(), 2);
        for element in event.elements() {
            assert!(inside(&element.body, packet.payload.as_ptr_range()));
            assert!(inside(&element.body, datagram.as_ptr_range()));
        }
    }

    // A relay envelope hands its inner message on as a view as well.
    let inner = wire_data(Vec::new()).to_bytes();
    let envelope = WireMessage::Relay {
        dest: PeerId::derive("carol"),
        inner: inner.clone(),
    }
    .to_bytes();
    let WireMessage::Relay { inner: decoded, .. } = WireMessage::from_bytes(&envelope).unwrap() else {
        panic!("a relay decodes as a relay");
    };
    assert_eq!(decoded, inner);
    assert!(inside(&decoded, envelope.as_ptr_range()));

    // Keeping a view keeps the bytes: the datagram handle itself may go.
    let payload = {
        let datagram: Bytes = wire_data(Vec::new()).to_bytes();
        let WireMessage::WireData(packet) = WireMessage::from_bytes(&datagram).unwrap() else {
            panic!("wire data decodes as wire data");
        };
        packet.payload
    };
    assert!(Message::from_bytes(&payload).is_ok());
}

fn peer_adv(name: &str) -> PeerAdvertisement {
    PeerAdvertisement::new(PeerId::derive(name), name, PeerGroupId::world()).with_endpoints(vec![
        SimAddress::new(TransportKind::Tcp, 0x0A00_0001, 9701),
        SimAddress::new(TransportKind::Http, 0x0A00_0001, 9702),
    ])
}

/// What a parse has to allocate for.
#[derive(Debug, Default, PartialEq)]
struct Shape {
    elements: u64,
    child_lists: u64,
    /// Texts that held an entity, so could not stay views.
    unescaped_texts: u64,
    attribute_lists: u64,
}

impl Shape {
    fn add(&mut self, element: &XmlElement<'_>) {
        self.elements += 1;
        self.child_lists += u64::from(!element.children.is_empty());
        self.unescaped_texts += u64::from(matches!(element.text, Cow::Owned(_)));
        self.attribute_lists += u64::from(!element.attributes.is_empty());
        for child in &element.children {
            self.add(child);
        }
    }
}

#[test]
fn an_entity_free_advertisement_parses_into_views_of_its_text() {
    let text = peer_adv("alice").to_xml().to_xml();
    let (calls, tree) = allocator_calls(|| XmlElement::parse(&text).unwrap());
    // Seven leaves under the root and its <Endpoints>: two child lists and
    // not one string (the owned-`String` parser made 53 calls here).
    let mut shape = Shape::default();
    shape.add(&tree);
    assert_eq!(
        shape,
        Shape {
            elements: 9,
            child_lists: 2,
            unescaped_texts: 0,
            attribute_lists: 0
        }
    );
    assert_eq!(calls, 2);
    fn all_views(element: &XmlElement<'_>, text: &str) -> bool {
        inside(element.name.as_bytes(), text.as_bytes().as_ptr_range())
            && matches!(element.text, Cow::Borrowed(t) if t.is_empty() || inside(t.as_bytes(), text.as_bytes().as_ptr_range()))
            && element.children.iter().all(|child| all_views(child, text))
    }
    assert!(all_views(&tree, &text));
    assert_eq!(PeerAdvertisement::from_xml(&tree).unwrap(), peer_adv("alice"));
}

/// The answer to a finder round, `ResolverResponse` ⊃ escaped
/// `DiscoveryResponse` ⊃ escaped `PeerGroupAdvertisement`, parsed through all
/// three levels: one allocator call per element that has children and one per
/// text that held an entity — 13 for 47 elements (the owned-`String` parser
/// this replaced made 250).
#[test]
fn the_three_level_discovery_response_parses_within_its_allocation_bound() {
    let group = PeerGroup::for_event_type("SkiRental", PeerId::derive("creator"));
    let discovery = DiscoveryResponse::new(
        AdvKind::Group,
        vec![group.advertisement().clone().into()],
        peer_adv("rdv-0"),
    );
    let query = ResolverQuery::new(handlers::PDP, QueryId(41), PeerId::derive("alice"), String::new());
    let response = ResolverResponse::answering(&query, PeerId::derive("rdv-0"), discovery.to_xml_string());
    let text = response.to_xml_string();

    let (calls, shape) = allocator_calls(|| {
        let envelope = XmlElement::parse(&text).unwrap();
        let discovery = XmlElement::parse(&envelope.first_child("Body").unwrap().text).unwrap();
        let advs = discovery.first_child("Advs").unwrap();
        let group = XmlElement::parse(&advs.children[0].text).unwrap();
        let mut shape = Shape::default();
        for level in [&envelope, &discovery, &group] {
            shape.add(level);
        }
        shape
    });
    assert_eq!(
        shape,
        Shape {
            elements: 47,
            child_lists: 11,
            unescaped_texts: 2,
            attribute_lists: 0
        }
    );
    assert_eq!(
        calls,
        shape.child_lists + shape.unescaped_texts + shape.attribute_lists
    );
}

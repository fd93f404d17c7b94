//! The endpoint layer: transport-level framing of JXTA traffic and the
//! per-peer route table.
//!
//! Everything a peer puts on the simulated network is one [`WireMessage`]
//! encoded into a [`Message`] and then into bytes. The [`EndpointService`]
//! keeps what the peer has learned about how to reach other peers (from peer
//! advertisements and pipe-binding responses) and picks the best address for
//! a destination; the peer falls back to relaying via a rendezvous when no
//! direct route exists.

use crate::adv::{Advertisement, PeerAdvertisement};
use crate::error::JxtaError;
use crate::id::{PeerId, PipeId, Uuid};
use crate::message::{ElementReader, Message, MessageElement};
use crate::protocols::prp::{ResolverQuery, ResolverResponse};
use crate::protocols::ProtocolPayload;
use crate::xml::XmlElement;
use bytes::Bytes;
use simnet::{SimAddress, TransportKind};
use std::borrow::Cow;
use std::collections::HashMap;

/// Namespace for endpoint-layer message elements.
pub const NAMESPACE: &str = "jxta";
/// Element carrying the wire message discriminator.
pub const TYPE_ELEMENT: &str = "MsgType";

/// A packet travelling on a many-to-many ("wire") pipe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePacket {
    /// The pipe this packet belongs to.
    pub pipe_id: PipeId,
    /// Unique id used for duplicate suppression during propagation.
    pub msg_id: Uuid,
    /// The peer that originally published the packet.
    pub src_peer: PeerId,
    /// Remaining propagation hops.
    pub ttl: u8,
    /// Trace ids of the events packed inside `payload`, one per event (a
    /// batched publish carries several). Empty when tracing is disabled —
    /// the wire envelope then carries no trace element at all.
    pub trace_ids: Vec<telemetry::trace::TraceId>,
    /// The encoded application [`Message`].
    pub payload: Bytes,
}

/// Everything a peer can put on the network, classified.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// A resolver query (PRP), carrying a PDP or PBP body.
    ResolverQuery(ResolverQuery),
    /// A resolver response (PRP).
    ResolverResponse(ResolverResponse),
    /// A client asking a rendezvous for a lease.
    RendezvousConnect {
        /// The connecting peer's advertisement (id + endpoints).
        peer: PeerAdvertisement,
    },
    /// A rendezvous granting (or refusing) a lease.
    RendezvousLease {
        /// The rendezvous peer granting the lease.
        rdv: PeerId,
        /// Whether the lease was granted.
        granted: bool,
        /// Lease duration in virtual milliseconds.
        lease_ms: u64,
    },
    /// A rendezvous announcing itself to a fellow rendezvous, establishing
    /// (or refreshing) a rendezvous-to-rendezvous mesh link for sharded
    /// deployments. `ack` breaks the hello ping-pong: a hello (`ack: false`)
    /// is answered with the receiver's own announcement (`ack: true`), which
    /// is never answered again.
    MeshLink {
        /// The announcing rendezvous peer's advertisement (id + endpoints).
        peer: PeerAdvertisement,
        /// Whether this announcement answers a received hello.
        ack: bool,
    },
    /// An unsolicited advertisement push (`remotePublish`).
    Publish {
        /// The advertisement being pushed, as XML.
        adv_xml: String,
        /// The publishing peer.
        src_peer: PeerId,
    },
    /// A compact load report, piggybacked on the housekeeping tick: edge
    /// peers send theirs to their rendezvous; rendezvous peers gossip their
    /// own across the mesh links, building the per-shard load table the
    /// rebalancing controller decides from.
    LoadReport {
        /// The reporting peer.
        peer: PeerId,
        /// The load record.
        report: telemetry::LoadReport,
    },
    /// Data on a many-to-many wire pipe.
    WireData(WirePacket),
    /// A relay envelope: "please forward `inner` to `dest`", sent through a
    /// rendezvous when no direct address for `dest` is known.
    Relay {
        /// The peer the inner message is destined for.
        dest: PeerId,
        /// The encoded inner [`Message`].
        inner: Bytes,
    },
}

impl WireMessage {
    fn type_tag(&self) -> &'static str {
        match self {
            WireMessage::ResolverQuery(_) => "resolver-query",
            WireMessage::ResolverResponse(_) => "resolver-response",
            WireMessage::RendezvousConnect { .. } => "rdv-connect",
            WireMessage::RendezvousLease { .. } => "rdv-lease",
            WireMessage::MeshLink { .. } => "mesh-link",
            WireMessage::Publish { .. } => "publish",
            WireMessage::LoadReport { .. } => "load-report",
            WireMessage::WireData(_) => "wire-data",
            WireMessage::Relay { .. } => "relay",
        }
    }

    /// Encodes into a transport [`Message`].
    pub fn to_message(&self) -> Message {
        let mut msg = Message::new();
        msg.add(MessageElement::text(NAMESPACE, TYPE_ELEMENT, self.type_tag()));
        match self {
            WireMessage::ResolverQuery(q) => {
                msg.add(MessageElement::xml(NAMESPACE, "ResolverQuery", q.to_xml_string()));
            }
            WireMessage::ResolverResponse(r) => {
                msg.add(MessageElement::xml(
                    NAMESPACE,
                    "ResolverResponse",
                    r.to_xml_string(),
                ));
            }
            WireMessage::RendezvousConnect { peer } => {
                msg.add(MessageElement::xml(NAMESPACE, "PeerAdv", peer.to_xml().to_xml()));
            }
            WireMessage::MeshLink { peer, ack } => {
                msg.add(MessageElement::xml(NAMESPACE, "PeerAdv", peer.to_xml().to_xml()));
                msg.add(MessageElement::text(
                    NAMESPACE,
                    "Ack",
                    if *ack { "true" } else { "false" },
                ));
            }
            WireMessage::RendezvousLease {
                rdv,
                granted,
                lease_ms,
            } => {
                msg.add(MessageElement::text(NAMESPACE, "Rdv", rdv.to_string()));
                msg.add(MessageElement::text(
                    NAMESPACE,
                    "Granted",
                    if *granted { "true" } else { "false" },
                ));
                msg.add(MessageElement::text(NAMESPACE, "LeaseMs", lease_ms.to_string()));
            }
            WireMessage::Publish { adv_xml, src_peer } => {
                msg.add(MessageElement::xml(NAMESPACE, "Adv", adv_xml.clone()));
                msg.add(MessageElement::text(NAMESPACE, "SrcPeer", src_peer.to_string()));
            }
            WireMessage::LoadReport { peer, report } => {
                msg.add(MessageElement::text(NAMESPACE, "Peer", peer.to_string()));
                msg.add(MessageElement::text(
                    NAMESPACE,
                    "Load",
                    format!(
                        "{},{},{},{}",
                        report.events_relayed, report.fan_out, report.mailbox_depth, report.lease_count
                    ),
                ));
            }
            WireMessage::WireData(packet) => {
                msg.add(MessageElement::text(
                    NAMESPACE,
                    "PipeId",
                    packet.pipe_id.to_string(),
                ));
                msg.add(MessageElement::text(NAMESPACE, "MsgId", packet.msg_id.to_hex()));
                msg.add(MessageElement::text(
                    NAMESPACE,
                    "SrcPeer",
                    packet.src_peer.to_string(),
                ));
                msg.add(MessageElement::text(NAMESPACE, "Ttl", packet.ttl.to_string()));
                if !packet.trace_ids.is_empty() {
                    msg.add(MessageElement::text(
                        NAMESPACE,
                        "Trace",
                        telemetry::trace::TraceId::encode_list(&packet.trace_ids),
                    ));
                }
                msg.add(MessageElement::binary(
                    NAMESPACE,
                    "Payload",
                    packet.payload.clone(),
                ));
            }
            WireMessage::Relay { dest, inner } => {
                msg.add(MessageElement::text(NAMESPACE, "Dest", dest.to_string()));
                msg.add(MessageElement::binary(NAMESPACE, "Inner", inner.clone()));
            }
        }
        msg
    }

    /// Encodes straight to bytes (the datagram payload).
    pub fn to_bytes(&self) -> Bytes {
        self.to_message().to_bytes()
    }

    /// Decodes from raw datagram bytes in one pass over the encoded elements,
    /// without building a [`Message`]: the fields of the variant are parsed
    /// from borrowed element bodies, and the two opaque ones — a
    /// [`WirePacket::payload`] and a relay's `inner` — are returned as views
    /// into `bytes`. Decoding an untraced [`WireMessage::WireData`] allocates
    /// nothing.
    ///
    /// Only `jxta`-namespace elements are looked at, the first of each name
    /// wins, and text bodies are read as lossy UTF-8.
    ///
    /// # Errors
    ///
    /// Returns [`JxtaError::BadMessage`] on a framing error anywhere in the
    /// buffer; otherwise [`JxtaError`] if the discriminator or any required
    /// element is missing or malformed.
    pub fn from_bytes(bytes: &Bytes) -> Result<WireMessage, JxtaError> {
        let mut fields = WireFields::default();
        let mut reader = ElementReader::new(bytes)?;
        while let Some(element) = reader.next_element()? {
            if element.namespace == NAMESPACE {
                fields.note(element.name, element.body);
            }
        }
        let text = |name| fields.text(name);
        let peer_adv = || -> Result<PeerAdvertisement, JxtaError> {
            let adv = text("PeerAdv")?;
            Ok(PeerAdvertisement::from_xml(&XmlElement::parse(&adv)?)?)
        };
        let tag = text(TYPE_ELEMENT)?;
        match &*tag {
            "resolver-query" => Ok(WireMessage::ResolverQuery(ResolverQuery::from_xml_string(
                &text("ResolverQuery")?,
            )?)),
            "resolver-response" => Ok(WireMessage::ResolverResponse(ResolverResponse::from_xml_string(
                &text("ResolverResponse")?,
            )?)),
            "rdv-connect" => Ok(WireMessage::RendezvousConnect { peer: peer_adv()? }),
            "mesh-link" => Ok(WireMessage::MeshLink {
                peer: peer_adv()?,
                ack: text("Ack")? == "true",
            }),
            "rdv-lease" => Ok(WireMessage::RendezvousLease {
                rdv: text("Rdv")?
                    .parse()
                    .map_err(|e| JxtaError::BadXml(format!("bad rdv id: {e}")))?,
                granted: text("Granted")? == "true",
                lease_ms: text("LeaseMs")?
                    .parse()
                    .map_err(|_| JxtaError::BadXml("bad lease".into()))?,
            }),
            "publish" => Ok(WireMessage::Publish {
                adv_xml: text("Adv")?.into_owned(),
                src_peer: text("SrcPeer")?
                    .parse()
                    .map_err(|e| JxtaError::BadXml(format!("bad src peer: {e}")))?,
            }),
            "load-report" => {
                let load = text("Load")?;
                let mut parts = load.split(',');
                let mut next = || -> Result<u64, JxtaError> {
                    parts
                        .next()
                        .and_then(|f| f.parse().ok())
                        .ok_or_else(|| JxtaError::BadXml(format!("bad load report: {load}")))
                };
                Ok(WireMessage::LoadReport {
                    peer: text("Peer")?
                        .parse()
                        .map_err(|e| JxtaError::BadXml(format!("bad peer: {e}")))?,
                    report: telemetry::LoadReport {
                        events_relayed: next()?,
                        fan_out: next()? as u32,
                        mailbox_depth: next()? as u32,
                        lease_count: next()? as u32,
                    },
                })
            }
            "wire-data" => {
                let payload = bytes.slice_ref(fields.body("Payload")?);
                Ok(WireMessage::WireData(WirePacket {
                    pipe_id: text("PipeId")?
                        .parse()
                        .map_err(|e| JxtaError::BadXml(format!("bad pipe id: {e}")))?,
                    msg_id: Uuid::from_hex(&text("MsgId")?)
                        .map_err(|e| JxtaError::BadXml(format!("bad msg id: {e}")))?,
                    src_peer: text("SrcPeer")?
                        .parse()
                        .map_err(|e| JxtaError::BadXml(format!("bad src peer: {e}")))?,
                    ttl: text("Ttl")?
                        .parse()
                        .map_err(|_| JxtaError::BadXml("bad ttl".into()))?,
                    // Tolerant: packets from untraced senders carry no Trace
                    // element; a malformed one degrades to no ids.
                    trace_ids: fields
                        .get("Trace")
                        .map(|t| telemetry::trace::TraceId::decode_list(&String::from_utf8_lossy(t)))
                        .unwrap_or_default(),
                    payload,
                }))
            }
            "relay" => Ok(WireMessage::Relay {
                dest: text("Dest")?
                    .parse()
                    .map_err(|e| JxtaError::BadXml(format!("bad dest: {e}")))?,
                inner: bytes.slice_ref(fields.body("Inner")?),
            }),
            other => Err(JxtaError::BadXml(format!("unknown wire message type {other}"))),
        }
    }
}

/// Every element name a [`WireMessage`] variant reads, across all variants.
const FIELD_NAMES: [&str; 19] = [
    TYPE_ELEMENT,
    "ResolverQuery",
    "ResolverResponse",
    "PeerAdv",
    "Ack",
    "Rdv",
    "Granted",
    "LeaseMs",
    "Adv",
    "SrcPeer",
    "Peer",
    "Load",
    "PipeId",
    "MsgId",
    "Ttl",
    "Trace",
    "Payload",
    "Dest",
    "Inner",
];

/// The body of the first `jxta` element of each name in [`FIELD_NAMES`],
/// borrowed from the datagram: what one pass over the encoded elements
/// leaves for [`WireMessage::from_bytes`] to build a variant from.
#[derive(Default)]
struct WireFields<'a> {
    bodies: [Option<&'a [u8]>; FIELD_NAMES.len()],
}

impl<'a> WireFields<'a> {
    fn slot(name: &str) -> Option<usize> {
        FIELD_NAMES.iter().position(|field| *field == name)
    }

    fn note(&mut self, name: &str, body: &'a [u8]) {
        if let Some(slot) = Self::slot(name) {
            self.bodies[slot].get_or_insert(body);
        }
    }

    fn get(&self, name: &str) -> Option<&'a [u8]> {
        let slot = Self::slot(name);
        debug_assert!(slot.is_some(), "{name} is not listed in FIELD_NAMES");
        slot.and_then(|slot| self.bodies[slot])
    }

    fn body(&self, name: &str) -> Result<&'a [u8], JxtaError> {
        self.get(name)
            .ok_or_else(|| JxtaError::MissingElement(name.to_owned()))
    }

    /// The body as text: borrowed when it is valid UTF-8, so the well-formed
    /// path allocates nothing.
    fn text(&self, name: &str) -> Result<Cow<'a, str>, JxtaError> {
        self.body(name).map(String::from_utf8_lossy)
    }
}

/// The first of `endpoints` (in the owner's preference order) reachable over
/// one of `local_transports`.
pub(crate) fn first_local(
    endpoints: &[SimAddress],
    local_transports: &[TransportKind],
) -> Option<SimAddress> {
    endpoints
        .iter()
        .copied()
        .find(|addr| local_transports.contains(&addr.transport))
}

/// The per-peer route table: each known peer's endpoint addresses, in the
/// peer's own preference order.
#[derive(Debug, Default)]
pub struct EndpointService {
    routes: HashMap<PeerId, Vec<SimAddress>>,
}

impl EndpointService {
    /// Creates an empty route table.
    pub fn new() -> Self {
        EndpointService::default()
    }

    /// Records (or refreshes) a peer's endpoints from its advertisement.
    pub fn learn_from_peer_adv(&mut self, adv: &PeerAdvertisement) {
        self.learn_endpoints(adv.peer_id, adv.endpoints.clone());
    }

    /// Records endpoints learned from a pipe-binding response or rendezvous
    /// connect.
    pub fn learn_endpoints(&mut self, peer: PeerId, endpoints: Vec<SimAddress>) {
        self.routes.insert(peer, endpoints);
    }

    /// The best direct address for a peer, given the transports available
    /// locally: first matching endpoint in the peer's preference order.
    pub fn best_address(&self, peer: PeerId, local_transports: &[TransportKind]) -> Option<SimAddress> {
        first_local(self.routes.get(&peer)?, local_transports)
    }

    /// Whether anything at all is known about the peer.
    pub fn knows(&self, peer: PeerId) -> bool {
        self.routes.contains_key(&peer)
    }

    /// Number of peers with known routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the route table is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::PeerGroupId;

    fn adv(name: &str, addrs: Vec<SimAddress>) -> PeerAdvertisement {
        PeerAdvertisement::new(PeerId::derive(name), name, PeerGroupId::world()).with_endpoints(addrs)
    }

    #[test]
    fn wire_messages_roundtrip() {
        let samples = vec![
            WireMessage::RendezvousConnect {
                peer: adv("alice", vec![SimAddress::new(TransportKind::Tcp, 1, 9701)]),
            },
            WireMessage::RendezvousLease { rdv: PeerId::derive("rdv"), granted: true, lease_ms: 30_000 },
            WireMessage::MeshLink {
                peer: adv("rdv-1", vec![SimAddress::new(TransportKind::Tcp, 2, 9701)]),
                ack: true,
            },
            WireMessage::Publish { adv_xml: "<jxta:PipeAdvertisement><Id>urn:jxta:pipe-00000000000000000000000000000000</Id><Type>JxtaWire</Type><Name>x</Name></jxta:PipeAdvertisement>".into(), src_peer: PeerId::derive("p") },
            WireMessage::WireData(WirePacket {
                pipe_id: PipeId::derive("ski"),
                msg_id: Uuid::derive("m1"),
                src_peer: PeerId::derive("pub"),
                ttl: 3,
                trace_ids: Vec::new(),
                payload: Bytes::from_static(b"event bytes"),
            }),
            WireMessage::WireData(WirePacket {
                pipe_id: PipeId::derive("ski"),
                msg_id: Uuid::derive("m2"),
                src_peer: PeerId::derive("pub"),
                ttl: 3,
                trace_ids: vec![
                    telemetry::trace::TraceId { origin: 0xAB, seq: 1 },
                    telemetry::trace::TraceId { origin: 0xAB, seq: 2 },
                ],
                payload: Bytes::from_static(b"batched events"),
            }),
            WireMessage::Relay { dest: PeerId::derive("carol"), inner: Bytes::from_static(b"inner") },
            WireMessage::LoadReport {
                peer: PeerId::derive("rdv-2"),
                report: telemetry::LoadReport {
                    events_relayed: 1234,
                    fan_out: 17,
                    mailbox_depth: 3,
                    lease_count: 9,
                },
            },
        ];
        for sample in samples {
            let decoded = WireMessage::from_bytes(&sample.to_bytes()).unwrap();
            assert_eq!(decoded, sample);
        }
    }

    #[test]
    fn untraced_packets_carry_no_trace_element() {
        let packet = WirePacket {
            pipe_id: PipeId::derive("ski"),
            msg_id: Uuid::derive("m1"),
            src_peer: PeerId::derive("pub"),
            ttl: 3,
            trace_ids: Vec::new(),
            payload: Bytes::from_static(b"event bytes"),
        };
        let msg = WireMessage::WireData(packet).to_message();
        assert!(
            msg.element_text(NAMESPACE, "Trace").is_none(),
            "tracing disabled must add zero bytes to the wire envelope"
        );
    }

    #[test]
    fn resolver_messages_roundtrip_through_wire() {
        let q = ResolverQuery::new(
            "urn:jxta:handler-PDP",
            crate::id::QueryId(3),
            PeerId::derive("a"),
            "<Q/>".into(),
        );
        let wrapped = WireMessage::ResolverQuery(q.clone());
        match WireMessage::from_bytes(&wrapped.to_bytes()).unwrap() {
            WireMessage::ResolverQuery(decoded) => assert_eq!(decoded, q),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_unknown_and_missing() {
        let mut msg = Message::new();
        msg.add(MessageElement::text(
            NAMESPACE,
            TYPE_ELEMENT,
            "quantum-entanglement",
        ));
        assert!(WireMessage::from_bytes(&msg.to_bytes()).is_err());
        assert!(WireMessage::from_bytes(&Message::new().to_bytes()).is_err());
        assert!(WireMessage::from_bytes(&Bytes::from_static(b"garbage")).is_err());
    }

    #[test]
    fn endpoint_service_prefers_usable_transports() {
        let mut es = EndpointService::new();
        let peer = PeerId::derive("bob");
        es.learn_endpoints(
            peer,
            vec![
                SimAddress::new(TransportKind::Http, 5, 9702),
                SimAddress::new(TransportKind::Tcp, 5, 9701),
            ],
        );
        // Preference order is the peer's own: http first here.
        assert_eq!(
            es.best_address(peer, &[TransportKind::Tcp, TransportKind::Http])
                .unwrap()
                .transport,
            TransportKind::Http
        );
        // If we only have TCP locally, fall back to the TCP endpoint.
        assert_eq!(
            es.best_address(peer, &[TransportKind::Tcp]).unwrap().transport,
            TransportKind::Tcp
        );
        // No usable transport in common.
        assert_eq!(es.best_address(peer, &[TransportKind::Bluetooth]), None);
    }

    #[test]
    fn endpoint_service_learns_and_forgets() {
        let mut es = EndpointService::new();
        let alice = adv("alice", vec![SimAddress::new(TransportKind::Tcp, 1, 9701)]);
        es.learn_from_peer_adv(&alice);
        assert!(es.knows(alice.peer_id));
        assert_eq!(es.len(), 1);
        assert!(es.best_address(alice.peer_id, &[TransportKind::Tcp]).is_some());
    }
}

//! Never-panic and differential tests of the two datagram decoders.
//!
//! `Message::from_bytes` and `WireMessage::from_bytes` parse borrowed views
//! of the datagram. The oracle in [`reference`] is the decoder they replaced,
//! kept here in its original shape: it copies every string and body into
//! owned values, builds the whole element list, and only then looks fields
//! up by name. On every input — valid encodings of all nine `WireMessage`
//! variants, their truncations, bit flips and length-field edits, and
//! arbitrary bytes — the live decoders must return what the oracle returns,
//! value for value and error for error.

use bytes::Bytes;
use jxta::endpoint::{WireMessage, WirePacket, NAMESPACE, TYPE_ELEMENT};
use jxta::error::JxtaError;
use jxta::message::{Message, MessageDecodeError, MessageElement};
use jxta::protocols::prp::{ResolverQuery, ResolverResponse};
use jxta::telemetry::trace::TraceId;
use jxta::{PeerAdvertisement, PeerGroupId, PeerId, PipeId, QueryId, Uuid};
use proptest::prelude::*;
use simnet::{SimAddress, TransportKind};

/// The owned, copying decode algorithm, as the oracle.
mod reference {
    use jxta::endpoint::{WireMessage, WirePacket, NAMESPACE, TYPE_ELEMENT};
    use jxta::error::JxtaError;
    use jxta::message::MessageDecodeError;
    use jxta::protocols::prp::{ResolverQuery, ResolverResponse};
    use jxta::protocols::ProtocolPayload;
    use jxta::telemetry::trace::TraceId;
    use jxta::xml::XmlElement;
    use jxta::{Advertisement, PeerAdvertisement, Uuid};

    #[derive(Debug, PartialEq, Eq)]
    pub struct Element {
        pub namespace: String,
        pub name: String,
        pub mime_type: String,
        pub body: Vec<u8>,
    }

    struct Cursor<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        fn take(&mut self, n: usize) -> Result<&'a [u8], MessageDecodeError> {
            if n > self.buf.len() - self.pos {
                return Err(MessageDecodeError::Truncated);
            }
            let slice = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(slice)
        }

        fn read_u32(&mut self) -> Result<u32, MessageDecodeError> {
            let bytes = self.take(4)?;
            Ok(u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
        }

        fn read_string(&mut self) -> Result<String, MessageDecodeError> {
            let len = self.read_u32()? as usize;
            let bytes = self.take(len)?;
            String::from_utf8(bytes.to_vec()).map_err(|_| MessageDecodeError::BadUtf8)
        }
    }

    pub fn message(bytes: &[u8]) -> Result<Vec<Element>, MessageDecodeError> {
        let mut cursor = Cursor { buf: bytes, pos: 0 };
        if cursor.take(4)? != b"JXM1" {
            return Err(MessageDecodeError::BadMagic);
        }
        let count = cursor.read_u32()? as usize;
        if count > 0xFFFF {
            return Err(MessageDecodeError::TooManyElements(count));
        }
        let mut elements = Vec::new();
        for _ in 0..count {
            let namespace = cursor.read_string()?;
            let name = cursor.read_string()?;
            let mime_type = cursor.read_string()?;
            let len = cursor.read_u32()? as usize;
            let body = cursor.take(len)?.to_vec();
            elements.push(Element {
                namespace,
                name,
                mime_type,
                body,
            });
        }
        if cursor.pos != bytes.len() {
            return Err(MessageDecodeError::TrailingBytes);
        }
        Ok(elements)
    }

    pub fn wire(bytes: &[u8]) -> Result<WireMessage, JxtaError> {
        let elements = message(bytes)?;
        let element = |name: &str| {
            elements
                .iter()
                .find(|e| e.namespace == NAMESPACE && e.name == name)
        };
        let element_text = |name: &str| element(name).map(|e| String::from_utf8_lossy(&e.body).into_owned());
        let text = |name: &str| element_text(name).ok_or_else(|| JxtaError::MissingElement(name.to_owned()));
        let tag = text(TYPE_ELEMENT)?;
        match tag.as_str() {
            "resolver-query" => Ok(WireMessage::ResolverQuery(ResolverQuery::from_xml_string(
                &text("ResolverQuery")?,
            )?)),
            "resolver-response" => Ok(WireMessage::ResolverResponse(ResolverResponse::from_xml_string(
                &text("ResolverResponse")?,
            )?)),
            "rdv-connect" => {
                let adv = text("PeerAdv")?;
                let xml = XmlElement::parse(&adv)?;
                Ok(WireMessage::RendezvousConnect {
                    peer: PeerAdvertisement::from_xml(&xml)?,
                })
            }
            "mesh-link" => {
                let adv = text("PeerAdv")?;
                let xml = XmlElement::parse(&adv)?;
                Ok(WireMessage::MeshLink {
                    peer: PeerAdvertisement::from_xml(&xml)?,
                    ack: text("Ack")? == "true",
                })
            }
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
                adv_xml: text("Adv")?,
                src_peer: text("SrcPeer")?
                    .parse()
                    .map_err(|e| JxtaError::BadXml(format!("bad src peer: {e}")))?,
            }),
            "load-report" => {
                let load = text("Load")?;
                let mut fields = load.split(',');
                let mut next = || -> Result<u64, JxtaError> {
                    fields
                        .next()
                        .and_then(|f| f.parse().ok())
                        .ok_or_else(|| JxtaError::BadXml(format!("bad load report: {load}")))
                };
                Ok(WireMessage::LoadReport {
                    peer: text("Peer")?
                        .parse()
                        .map_err(|e| JxtaError::BadXml(format!("bad peer: {e}")))?,
                    report: jxta::LoadReport {
                        events_relayed: next()?,
                        fan_out: next()? as u32,
                        mailbox_depth: next()? as u32,
                        lease_count: next()? as u32,
                    },
                })
            }
            "wire-data" => {
                let payload = element("Payload")
                    .ok_or_else(|| JxtaError::MissingElement("Payload".to_owned()))?
                    .body
                    .clone();
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
                    trace_ids: element_text("Trace")
                        .map(|t| TraceId::decode_list(&t))
                        .unwrap_or_default(),
                    payload: payload.into(),
                }))
            }
            "relay" => Ok(WireMessage::Relay {
                dest: text("Dest")?
                    .parse()
                    .map_err(|e| JxtaError::BadXml(format!("bad dest: {e}")))?,
                inner: element("Inner")
                    .ok_or_else(|| JxtaError::MissingElement("Inner".to_owned()))?
                    .body
                    .clone()
                    .into(),
            }),
            other => Err(JxtaError::BadXml(format!("unknown wire message type {other}"))),
        }
    }
}

/// Holds both live decoders against the oracle on one input.
fn assert_agrees(input: &[u8]) {
    let bytes = Bytes::copy_from_slice(input);
    let live = Message::from_bytes(&bytes).map(|message| {
        message
            .elements()
            .iter()
            .map(|e| reference::Element {
                namespace: e.namespace.clone(),
                name: e.name.clone(),
                mime_type: e.mime_type.clone(),
                body: e.body.to_vec(),
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(
        live,
        reference::message(input),
        "Message::from_bytes on {input:?}"
    );
    assert_eq!(
        WireMessage::from_bytes(&bytes),
        reference::wire(input),
        "WireMessage::from_bytes on {input:?}"
    );
}

fn adv(name: &str, host: u32) -> PeerAdvertisement {
    PeerAdvertisement::new(PeerId::derive(name), name, PeerGroupId::world())
        .with_endpoints(vec![SimAddress::new(TransportKind::Tcp, host, 9701)])
}

fn packet(msg: &str, trace_ids: Vec<TraceId>) -> WirePacket {
    let inner = Message::new()
        .with(MessageElement::text("tps", "ActualType", "SkiRental"))
        .with(MessageElement::binary(
            "tps",
            "Payload",
            vec![0u8, 1, 2, 0xFF, 0xFE],
        ));
    WirePacket {
        pipe_id: PipeId::derive("ski"),
        msg_id: Uuid::derive(msg),
        src_peer: PeerId::derive("pub"),
        ttl: 3,
        trace_ids,
        payload: inner.to_bytes(),
    }
}

/// One of each `WireMessage` variant (wire data both untraced and traced).
fn samples() -> Vec<WireMessage> {
    let query = ResolverQuery::new(
        "urn:jxta:handler-PDP",
        QueryId(3),
        PeerId::derive("a"),
        "<Q/>".into(),
    );
    vec![
        WireMessage::ResolverResponse(ResolverResponse::answering(
            &query,
            PeerId::derive("b"),
            "<R>found</R>".into(),
        )),
        WireMessage::ResolverQuery(query),
        WireMessage::RendezvousConnect {
            peer: adv("alice", 1),
        },
        WireMessage::RendezvousLease {
            rdv: PeerId::derive("rdv"),
            granted: true,
            lease_ms: 30_000,
        },
        WireMessage::MeshLink {
            peer: adv("rdv-1", 2),
            ack: true,
        },
        WireMessage::Publish {
            adv_xml: "<jxta:PipeAdvertisement><Id>urn:jxta:pipe-00000000000000000000000000000000</Id>\
                      <Type>JxtaWire</Type><Name>x</Name></jxta:PipeAdvertisement>"
                .into(),
            src_peer: PeerId::derive("p"),
        },
        WireMessage::LoadReport {
            peer: PeerId::derive("rdv-2"),
            report: jxta::LoadReport {
                events_relayed: 1234,
                fan_out: 17,
                mailbox_depth: 3,
                lease_count: 9,
            },
        },
        WireMessage::WireData(packet("m1", Vec::new())),
        WireMessage::WireData(packet(
            "m2",
            vec![TraceId { origin: 0xAB, seq: 1 }, TraceId { origin: 0xAB, seq: 2 }],
        )),
        WireMessage::Relay {
            dest: PeerId::derive("carol"),
            inner: WireMessage::WireData(packet("m3", Vec::new())).to_bytes(),
        },
    ]
}

/// Offsets of every `u32` length field of a valid encoding: the element
/// count, then four per element.
fn length_fields(encoded: &[u8]) -> Vec<usize> {
    let read = |at: usize| u32::from_be_bytes(encoded[at..at + 4].try_into().unwrap()) as usize;
    let mut fields = vec![4];
    let mut pos = 8;
    for _ in 0..read(4) {
        for _ in 0..4 {
            fields.push(pos);
            pos += 4 + read(pos);
        }
    }
    assert_eq!(pos, encoded.len());
    fields
}

/// Applies one mutation, chosen and placed by `pick`.
fn mutate(input: &mut Vec<u8>, valid: &[u8], kind: u8, pick: u64, value: u32) {
    match kind % 3 {
        0 => input.truncate(pick as usize % (input.len() + 1)),
        1 if !input.is_empty() => {
            let bit = pick as usize % (input.len() * 8);
            input[bit / 8] ^= 1 << (bit % 8);
        }
        _ => {
            // Rewrite a length field of the original framing, to a nearby
            // value (off by a few either way) or to an arbitrary one.
            let fields = length_fields(valid);
            let at = fields[pick as usize % fields.len()];
            if at + 4 <= input.len() {
                let old = u32::from_be_bytes(input[at..at + 4].try_into().unwrap());
                let new = if value & 1 == 0 {
                    old.wrapping_add(value % 9).wrapping_sub(4)
                } else {
                    value
                };
                input[at..at + 4].copy_from_slice(&new.to_be_bytes());
            }
        }
    }
}

#[test]
fn valid_encodings_decode_to_what_was_encoded() {
    for sample in samples() {
        let encoded = sample.to_bytes();
        assert_agrees(&encoded);
        assert_eq!(WireMessage::from_bytes(&encoded).unwrap(), sample);
    }
}

/// Every truncation and every single-bit flip of every variant: exhaustive,
/// so each verdict class below is certain to have been compared.
#[test]
fn every_truncation_and_bit_flip_agrees_with_the_reference() {
    let mut verdicts = std::collections::BTreeSet::new();
    for sample in samples() {
        let encoded = sample.to_bytes().to_vec();
        for cut in 0..encoded.len() {
            assert_agrees(&encoded[..cut]);
        }
        for bit in 0..encoded.len() * 8 {
            let mut flipped = encoded.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_agrees(&flipped);
            verdicts.insert(match WireMessage::from_bytes(&Bytes::from(flipped)) {
                Ok(_) => "ok",
                Err(JxtaError::BadMessage(MessageDecodeError::BadMagic)) => "bad-magic",
                Err(JxtaError::BadMessage(MessageDecodeError::Truncated)) => "truncated",
                Err(JxtaError::BadMessage(MessageDecodeError::BadUtf8)) => "bad-utf8",
                Err(JxtaError::BadMessage(MessageDecodeError::TooManyElements(_))) => "too-many",
                Err(JxtaError::BadMessage(MessageDecodeError::TrailingBytes)) => "trailing",
                Err(JxtaError::MissingElement(_)) => "missing-element",
                Err(JxtaError::BadXml(_)) => "bad-xml",
                Err(JxtaError::BadAdvertisement(_)) => "bad-advertisement",
                Err(other) => panic!("a decoder cannot fail with {other:?}"),
            });
        }
    }
    let expected = [
        "bad-advertisement",
        "bad-magic",
        "bad-utf8",
        "bad-xml",
        "missing-element",
        "ok",
        "too-many",
        "trailing",
        "truncated",
    ];
    assert_eq!(verdicts.into_iter().collect::<Vec<_>>(), expected);
}

proptest! {
    /// Arbitrary bytes, bare and behind a valid header so that the element
    /// loop is reached: neither decoder panics, both agree with the oracle.
    #[test]
    fn arbitrary_bytes_never_panic_and_agree(
        noise in proptest::collection::vec(any::<u8>(), 0..192),
        count in 0u32..6,
    ) {
        assert_agrees(&noise);
        let mut framed = b"JXM1".to_vec();
        framed.extend_from_slice(&count.to_be_bytes());
        framed.extend_from_slice(&noise);
        assert_agrees(&framed);
    }

    /// One to three stacked mutations (truncation, bit flip, length-field
    /// edit) of every variant's valid encoding.
    #[test]
    fn stacked_mutations_never_panic_and_agree(
        mutations in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u32>()), 1..4),
    ) {
        for sample in samples() {
            let valid = sample.to_bytes().to_vec();
            let mut input = valid.clone();
            for &(kind, pick, value) in &mutations {
                mutate(&mut input, &valid, kind, pick, value);
            }
            assert_agrees(&input);
        }
    }
}

fn wire_data_elements() -> Vec<MessageElement> {
    WireMessage::WireData(packet("m1", Vec::new()))
        .to_message()
        .elements()
        .to_vec()
}

fn message_of(elements: impl IntoIterator<Item = MessageElement>) -> Message {
    let mut message = Message::new();
    for element in elements {
        message.add(element);
    }
    message
}

#[test]
fn first_element_of_a_name_wins() {
    // A second Ttl and a second Payload after the genuine ones, and
    // look-alikes in a foreign namespace before them, change nothing.
    let mut elements = vec![
        MessageElement::text("other", TYPE_ELEMENT, "relay"),
        MessageElement::text("other", "Ttl", "9"),
    ];
    elements.extend(wire_data_elements());
    elements.push(MessageElement::text(NAMESPACE, "Ttl", "200"));
    elements.push(MessageElement::binary(NAMESPACE, "Payload", vec![0xEE]));
    let message = message_of(elements);
    assert_eq!(message.element_text(NAMESPACE, "Ttl").unwrap(), "3");
    let encoded = message.to_bytes();
    assert_agrees(&encoded);
    assert_eq!(
        WireMessage::from_bytes(&encoded).unwrap(),
        WireMessage::WireData(packet("m1", Vec::new()))
    );
}

#[test]
fn text_bodies_are_read_as_lossy_utf8() {
    let element = MessageElement::binary(NAMESPACE, "Adv", vec![b'<', 0xFF, b'>']);
    assert_eq!(element.body_text(), "<\u{FFFD}>");
    let publish = message_of([
        MessageElement::text(NAMESPACE, TYPE_ELEMENT, "publish"),
        element,
        MessageElement::text(NAMESPACE, "SrcPeer", PeerId::derive("p").to_string()),
    ])
    .to_bytes();
    assert_agrees(&publish);
    assert_eq!(
        WireMessage::from_bytes(&publish).unwrap(),
        WireMessage::Publish {
            adv_xml: "<\u{FFFD}>".into(),
            src_peer: PeerId::derive("p"),
        }
    );
    // Bodies are not names: invalid UTF-8 in a body is never `BadUtf8`.
    let tag = message_of([MessageElement::binary(NAMESPACE, TYPE_ELEMENT, vec![0xC0])]).to_bytes();
    assert_agrees(&tag);
    assert_eq!(
        WireMessage::from_bytes(&tag),
        Err(JxtaError::BadXml("unknown wire message type \u{FFFD}".into()))
    );
}

#[test]
fn malformed_trace_element_degrades_to_no_ids() {
    for trace in [&b"not-a-trace-list"[..], &[0xFF, 0xFE], b"ab:1,zz:zz,,cd:2"] {
        let mut elements = wire_data_elements();
        elements.insert(1, MessageElement::binary(NAMESPACE, "Trace", trace.to_vec()));
        let encoded = message_of(elements).to_bytes();
        assert_agrees(&encoded);
        let WireMessage::WireData(decoded) = WireMessage::from_bytes(&encoded).unwrap() else {
            panic!("still wire data");
        };
        // Malformed entries are skipped one by one; the packet survives.
        let expected: Vec<TraceId> = if trace.starts_with(b"ab") {
            vec![TraceId { origin: 0xAB, seq: 1 }, TraceId { origin: 0xCD, seq: 2 }]
        } else {
            Vec::new()
        };
        assert_eq!(decoded.trace_ids, expected);
        assert_eq!(decoded.payload, packet("m1", Vec::new()).payload);
    }
}

#[test]
fn unknown_tag_and_missing_elements_keep_their_verdicts() {
    let unknown = message_of([MessageElement::text(
        NAMESPACE,
        TYPE_ELEMENT,
        "quantum-entanglement",
    )])
    .to_bytes();
    assert_agrees(&unknown);
    assert!(matches!(
        WireMessage::from_bytes(&unknown),
        Err(JxtaError::BadXml(_))
    ));

    let empty = Message::new().to_bytes();
    assert_agrees(&empty);
    assert_eq!(
        WireMessage::from_bytes(&empty),
        Err(JxtaError::MissingElement(TYPE_ELEMENT.to_owned()))
    );

    // Wire data without its payload names the payload first, as before,
    // even though other fields are missing too.
    let bare = message_of([MessageElement::text(NAMESPACE, TYPE_ELEMENT, "wire-data")]).to_bytes();
    assert_agrees(&bare);
    assert_eq!(
        WireMessage::from_bytes(&bare),
        Err(JxtaError::MissingElement("Payload".to_owned()))
    );

    // A framing error anywhere outranks what the elements say.
    let mut trailing = unknown.to_vec();
    trailing.push(0);
    assert_agrees(&trailing);
    assert_eq!(
        WireMessage::from_bytes(&Bytes::from(trailing)),
        Err(JxtaError::BadMessage(MessageDecodeError::TrailingBytes))
    );
}

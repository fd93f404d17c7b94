//! Property-based tests of the JXTA substrate's encodings.

use jxta::message::{Message, MessageElement};
use jxta::xml::{escape, unescape, XmlElement};
use jxta::{PeerId, PipeId};
use proptest::prelude::*;

proptest! {
    /// XML escaping round trips for any string.
    #[test]
    fn xml_escaping_roundtrips(s in "\\PC*") {
        let escaped = escape(&s);
        prop_assert_eq!(unescape(&escaped).unwrap(), s);
    }

    /// Any element tree built from sane names/texts survives
    /// serialise-then-parse.
    #[test]
    fn xml_documents_roundtrip(
        name in "[A-Za-z][A-Za-z0-9_:-]{0,12}",
        attrs in proptest::collection::vec(("[A-Za-z][A-Za-z0-9]{0,6}", ".{0,16}"), 0..4),
        children in proptest::collection::vec(("[A-Za-z][A-Za-z0-9]{0,8}", ".{0,24}"), 0..5),
    ) {
        let mut doc = XmlElement::new(&name);
        for (k, v) in &attrs {
            doc = doc.attr(k, v);
        }
        for (tag, text) in &children {
            doc = doc.text_child(tag, text.trim());
        }
        let written = doc.to_xml();
        let parsed = XmlElement::parse(&written).unwrap();
        prop_assert_eq!(parsed, doc);
    }

    /// JXTA messages round trip through their wire encoding for arbitrary
    /// element names and binary bodies.
    #[test]
    fn messages_roundtrip(
        elements in proptest::collection::vec(
            ("[a-z]{1,8}", "[A-Za-z0-9_.-]{1,12}", proptest::collection::vec(any::<u8>(), 0..256)),
            0..6
        )
    ) {
        let mut message = Message::new();
        for (ns, name, body) in elements {
            message.add(MessageElement::binary(ns, name, body));
        }
        let decoded = Message::from_bytes(&message.to_bytes()).unwrap();
        prop_assert_eq!(decoded, message);
    }

    /// Ids render to URNs that parse back to the same id, and the URN tag
    /// keeps id kinds apart.
    #[test]
    fn ids_roundtrip_as_urns(raw in any::<u128>()) {
        let peer = PeerId(jxta::Uuid(raw));
        let pipe = PipeId(jxta::Uuid(raw));
        prop_assert_eq!(peer.to_string().parse::<PeerId>().unwrap(), peer);
        prop_assert_eq!(pipe.to_string().parse::<PipeId>().unwrap(), pipe);
        prop_assert!(peer.to_string().parse::<PipeId>().is_err());
    }

    /// Discovery pattern matching: a prefix pattern accepts exactly the
    /// strings that start with the prefix.
    #[test]
    fn discovery_prefix_matching(prefix in "[a-z]{0,6}", candidate in "[a-z]{0,10}") {
        let pattern = format!("{prefix}*");
        prop_assert_eq!(
            jxta::cm::match_pattern(&pattern, &candidate),
            candidate.starts_with(&prefix)
        );
    }
}

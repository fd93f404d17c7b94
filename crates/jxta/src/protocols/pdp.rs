//! Peer Discovery Protocol (PDP).
//!
//! Discovery queries ask "send me up to `threshold` advertisements of kind K
//! whose attribute matches this pattern"; responders consult their local
//! cache and reply with the matching advertisements. The querying peer embeds
//! its own peer advertisement so that responders know how to reach it even if
//! they have never seen it before (the paper's Figure 1).

use super::{required_child, ProtocolPayload};
use crate::adv::{AdvKind, Advertisement, AnyAdvertisement, PeerAdvertisement};
use crate::cm::SearchFilter;
use crate::error::JxtaError;
use crate::xml::XmlElement;

/// A discovery query.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryQuery {
    /// The category of advertisements requested.
    pub kind: AdvKind,
    /// The attribute/value filter.
    pub filter: SearchFilter,
    /// Maximum number of advertisements the responder should return
    /// (`NUMBER_OF_ADV_PER_PEER` in the paper's `AdvertisementsFinder`).
    pub threshold: usize,
    /// The querying peer's advertisement (so responders can reach it).
    pub requester: PeerAdvertisement,
}

impl DiscoveryQuery {
    /// Creates a query for advertisements of `kind` matching `filter`.
    pub fn new(kind: AdvKind, filter: SearchFilter, threshold: usize, requester: PeerAdvertisement) -> Self {
        DiscoveryQuery {
            kind,
            filter,
            threshold,
            requester,
        }
    }
}

fn kind_to_str(kind: AdvKind) -> &'static str {
    match kind {
        AdvKind::Peer => "PEER",
        AdvKind::Group => "GROUP",
        AdvKind::Adv => "ADV",
    }
}

fn kind_from_str(s: &str) -> Result<AdvKind, JxtaError> {
    match s {
        "PEER" => Ok(AdvKind::Peer),
        "GROUP" => Ok(AdvKind::Group),
        "ADV" => Ok(AdvKind::Adv),
        other => Err(JxtaError::BadXml(format!("unknown advertisement kind {other}"))),
    }
}

impl ProtocolPayload for DiscoveryQuery {
    const ROOT: &'static str = "jxta:DiscoveryQuery";

    fn to_xml(&self) -> XmlElement<'_> {
        let mut root = XmlElement::new(Self::ROOT)
            .text_child("Kind", kind_to_str(self.kind))
            .text_child("Threshold", self.threshold.to_string())
            .text_child("Value", &self.filter.value);
        if let Some(attr) = &self.filter.attribute {
            root.push_child(XmlElement::with_text("Attr", attr));
        }
        root.push_child(self.requester.to_xml());
        root
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, JxtaError> {
        let kind = kind_from_str(required_child(xml, "Kind")?)?;
        let threshold = required_child(xml, "Threshold")?
            .parse()
            .map_err(|_| JxtaError::BadXml("bad threshold".into()))?;
        let filter = SearchFilter {
            attribute: xml.child_text("Attr").map(str::to_owned),
            value: xml.child_text_or_empty("Value").to_owned(),
        };
        let requester_xml = xml
            .first_child(PeerAdvertisement::ROOT)
            .ok_or_else(|| JxtaError::MissingElement(PeerAdvertisement::ROOT.to_owned()))?;
        let requester = PeerAdvertisement::from_xml(requester_xml)?;
        Ok(DiscoveryQuery {
            kind,
            filter,
            threshold,
            requester,
        })
    }
}

/// A discovery response: the advertisements that matched.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryResponse {
    /// The category of the returned advertisements.
    pub kind: AdvKind,
    /// The matching advertisements.
    pub advertisements: Vec<AnyAdvertisement>,
    /// The responder's own peer advertisement (piggy-backed so requesters
    /// passively learn about peers, as JXTA does).
    pub responder: PeerAdvertisement,
}

impl DiscoveryResponse {
    /// Creates a response.
    pub fn new(kind: AdvKind, advertisements: Vec<AnyAdvertisement>, responder: PeerAdvertisement) -> Self {
        DiscoveryResponse {
            kind,
            advertisements,
            responder,
        }
    }
}

impl ProtocolPayload for DiscoveryResponse {
    const ROOT: &'static str = "jxta:DiscoveryResponse";

    fn to_xml(&self) -> XmlElement<'_> {
        let mut root = XmlElement::new(Self::ROOT).text_child("Kind", kind_to_str(self.kind));
        let mut advs = XmlElement::new("Advs");
        for adv in &self.advertisements {
            advs.push_child(XmlElement::with_text("Adv", adv.to_xml_string()));
        }
        root.push_child(advs);
        root.push_child(self.responder.to_xml());
        root
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, JxtaError> {
        let kind = kind_from_str(required_child(xml, "Kind")?)?;
        let mut advertisements = Vec::new();
        if let Some(list) = xml.first_child("Advs") {
            for adv in list.children_named("Adv") {
                advertisements.push(AnyAdvertisement::parse(adv.text.trim())?);
            }
        }
        let responder_xml = xml
            .first_child(PeerAdvertisement::ROOT)
            .ok_or_else(|| JxtaError::MissingElement(PeerAdvertisement::ROOT.to_owned()))?;
        let responder = PeerAdvertisement::from_xml(responder_xml)?;
        Ok(DiscoveryResponse {
            kind,
            advertisements,
            responder,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adv::{PeerGroupAdvertisement, PipeAdvertisement, PipeType};
    use crate::id::{PeerGroupId, PeerId, PipeId};

    fn requester() -> PeerAdvertisement {
        PeerAdvertisement::new(PeerId::derive("alice"), "alice", PeerGroupId::world())
    }

    #[test]
    fn query_roundtrips() {
        let q = DiscoveryQuery::new(AdvKind::Group, SearchFilter::by_name("ps-*"), 10, requester());
        let decoded = DiscoveryQuery::from_xml_string(&q.to_xml_string()).unwrap();
        assert_eq!(decoded, q);
        assert_eq!(decoded.filter.attribute.as_deref(), Some("Name"));
    }

    #[test]
    fn query_without_attribute_matches_everything() {
        let q = DiscoveryQuery::new(AdvKind::Adv, SearchFilter::any(), 5, requester());
        let decoded = DiscoveryQuery::from_xml_string(&q.to_xml_string()).unwrap();
        assert_eq!(decoded.filter, SearchFilter::any());
    }

    #[test]
    fn response_roundtrips_with_nested_advertisements() {
        let group: AnyAdvertisement =
            PeerGroupAdvertisement::new(PeerGroupId::derive("g"), "ps-SkiRental", PeerId::derive("x")).into();
        let pipe: AnyAdvertisement =
            PipeAdvertisement::new(PipeId::derive("p"), "SkiRental", PipeType::JxtaWire).into();
        let r = DiscoveryResponse::new(AdvKind::Group, vec![group, pipe], requester());
        let decoded = DiscoveryResponse::from_xml_string(&r.to_xml_string()).unwrap();
        assert_eq!(decoded, r);
        assert_eq!(decoded.advertisements.len(), 2);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(DiscoveryQuery::from_xml_string("<jxta:DiscoveryQuery/>").is_err());
        let missing_requester = XmlElement::new(DiscoveryQuery::ROOT)
            .text_child("Kind", "GROUP")
            .text_child("Threshold", "3")
            .text_child("Value", "*");
        assert!(DiscoveryQuery::from_xml(&missing_requester).is_err());
        let bad_kind = XmlElement::new(DiscoveryResponse::ROOT).text_child("Kind", "SOMETHING");
        assert!(DiscoveryResponse::from_xml(&bad_kind).is_err());
    }
}

//! Advertisements: the XML documents JXTA peers publish to describe
//! resources (peers, pipes, peer groups, services, routes).
//!
//! Every advertisement can be serialised to XML and parsed back, carries a
//! *unique key* used by caches and by the paper's `findAdvertisement`
//! duplicate check, and is aged out of caches after its lifetime expires.

mod group;
mod peer;
mod pipe;
mod route;
mod service;

pub use group::{MembershipPolicy, PeerGroupAdvertisement};
pub use peer::PeerAdvertisement;
pub use pipe::{PipeAdvertisement, PipeType};
pub use route::RouteAdvertisement;
pub use service::ServiceAdvertisement;

use crate::xml::XmlElement;
use std::fmt;

/// The discovery category an advertisement belongs to, mirroring JXTA's
/// `Discovery.PEER` / `Discovery.GROUP` / `Discovery.ADV` constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AdvKind {
    /// Peer advertisements (`Discovery.PEER`).
    Peer,
    /// Peer group advertisements (`Discovery.GROUP`).
    Group,
    /// Everything else — pipes, services, routes, modules (`Discovery.ADV`).
    Adv,
}

impl fmt::Display for AdvKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AdvKind::Peer => "PEER",
            AdvKind::Group => "GROUP",
            AdvKind::Adv => "ADV",
        };
        f.write_str(s)
    }
}

/// Error returned when an advertisement cannot be parsed from XML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvParseError {
    /// Human-readable description of what was wrong.
    pub reason: String,
}

impl AdvParseError {
    pub(crate) fn new(reason: impl Into<String>) -> Self {
        AdvParseError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for AdvParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid advertisement: {}", self.reason)
    }
}

impl std::error::Error for AdvParseError {}

/// Behaviour common to all advertisement types.
pub trait Advertisement: Sized + Clone {
    /// The XML root element name of this advertisement type.
    const ROOT: &'static str;

    /// The discovery category this advertisement belongs to.
    fn kind(&self) -> AdvKind;

    /// A key that identifies "the same" advertisement across re-publications
    /// (typically the resource id); used for de-duplication in caches.
    fn unique_key(&self) -> String;

    /// The human-readable name carried by the advertisement, if any.
    fn display_name(&self) -> String;

    /// Serialises to an XML element tree.
    fn to_xml(&self) -> XmlElement<'_>;

    /// Parses from an XML element tree.
    ///
    /// # Errors
    ///
    /// Returns [`AdvParseError`] if required children are missing or ids do
    /// not parse.
    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, AdvParseError>;
}

/// A type-erased advertisement, as stored in caches and carried in messages.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyAdvertisement {
    /// A peer advertisement.
    Peer(PeerAdvertisement),
    /// A peer group advertisement.
    Group(PeerGroupAdvertisement),
    /// A pipe advertisement.
    Pipe(PipeAdvertisement),
    /// A service advertisement.
    Service(ServiceAdvertisement),
    /// A route advertisement.
    Route(RouteAdvertisement),
}

impl AnyAdvertisement {
    /// The discovery category of the wrapped advertisement.
    pub fn kind(&self) -> AdvKind {
        match self {
            AnyAdvertisement::Peer(a) => a.kind(),
            AnyAdvertisement::Group(a) => a.kind(),
            AnyAdvertisement::Pipe(a) => a.kind(),
            AnyAdvertisement::Service(a) => a.kind(),
            AnyAdvertisement::Route(a) => a.kind(),
        }
    }

    /// The duplicate-suppression key of the wrapped advertisement.
    pub fn unique_key(&self) -> String {
        match self {
            AnyAdvertisement::Peer(a) => a.unique_key(),
            AnyAdvertisement::Group(a) => a.unique_key(),
            AnyAdvertisement::Pipe(a) => a.unique_key(),
            AnyAdvertisement::Service(a) => a.unique_key(),
            AnyAdvertisement::Route(a) => a.unique_key(),
        }
    }

    /// The display name of the wrapped advertisement.
    pub fn display_name(&self) -> String {
        match self {
            AnyAdvertisement::Peer(a) => a.display_name(),
            AnyAdvertisement::Group(a) => a.display_name(),
            AnyAdvertisement::Pipe(a) => a.display_name(),
            AnyAdvertisement::Service(a) => a.display_name(),
            AnyAdvertisement::Route(a) => a.display_name(),
        }
    }

    /// Serialises the wrapped advertisement to an XML string.
    pub fn to_xml_string(&self) -> String {
        match self {
            AnyAdvertisement::Peer(a) => a.to_xml().to_xml(),
            AnyAdvertisement::Group(a) => a.to_xml().to_xml(),
            AnyAdvertisement::Pipe(a) => a.to_xml().to_xml(),
            AnyAdvertisement::Service(a) => a.to_xml().to_xml(),
            AnyAdvertisement::Route(a) => a.to_xml().to_xml(),
        }
    }

    /// Parses an advertisement of any known type from an XML string,
    /// dispatching on the root element name (the JXTA `AdvertisementFactory`).
    ///
    /// # Errors
    ///
    /// Returns [`AdvParseError`] on malformed XML or an unknown root element.
    pub fn parse(xml_text: &str) -> Result<AnyAdvertisement, AdvParseError> {
        let xml = XmlElement::parse(xml_text).map_err(|e| AdvParseError::new(format!("xml error: {e}")))?;
        Self::from_xml(&xml)
    }

    /// Parses an advertisement of any known type from an XML element.
    pub fn from_xml(xml: &XmlElement<'_>) -> Result<AnyAdvertisement, AdvParseError> {
        match xml.name {
            PeerAdvertisement::ROOT => Ok(AnyAdvertisement::Peer(PeerAdvertisement::from_xml(xml)?)),
            PeerGroupAdvertisement::ROOT => {
                Ok(AnyAdvertisement::Group(PeerGroupAdvertisement::from_xml(xml)?))
            }
            PipeAdvertisement::ROOT => Ok(AnyAdvertisement::Pipe(PipeAdvertisement::from_xml(xml)?)),
            ServiceAdvertisement::ROOT => Ok(AnyAdvertisement::Service(ServiceAdvertisement::from_xml(xml)?)),
            RouteAdvertisement::ROOT => Ok(AnyAdvertisement::Route(RouteAdvertisement::from_xml(xml)?)),
            other => Err(AdvParseError::new(format!(
                "unknown advertisement root <{other}>"
            ))),
        }
    }

    /// Returns the wrapped peer advertisement, if this is one.
    pub fn as_peer(&self) -> Option<&PeerAdvertisement> {
        match self {
            AnyAdvertisement::Peer(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the wrapped peer group advertisement, if this is one.
    pub fn as_group(&self) -> Option<&PeerGroupAdvertisement> {
        match self {
            AnyAdvertisement::Group(a) => Some(a),
            _ => None,
        }
    }
}

impl From<PeerAdvertisement> for AnyAdvertisement {
    fn from(a: PeerAdvertisement) -> Self {
        AnyAdvertisement::Peer(a)
    }
}
impl From<PeerGroupAdvertisement> for AnyAdvertisement {
    fn from(a: PeerGroupAdvertisement) -> Self {
        AnyAdvertisement::Group(a)
    }
}
impl From<PipeAdvertisement> for AnyAdvertisement {
    fn from(a: PipeAdvertisement) -> Self {
        AnyAdvertisement::Pipe(a)
    }
}
impl From<ServiceAdvertisement> for AnyAdvertisement {
    fn from(a: ServiceAdvertisement) -> Self {
        AnyAdvertisement::Service(a)
    }
}
impl From<RouteAdvertisement> for AnyAdvertisement {
    fn from(a: RouteAdvertisement) -> Self {
        AnyAdvertisement::Route(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{PeerGroupId, PeerId, PipeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn factory_dispatches_on_root_element() {
        let mut rng = StdRng::seed_from_u64(1);
        let pipe = PipeAdvertisement::new(PipeId::generate(&mut rng), "SkiRental", PipeType::JxtaWire);
        let any: AnyAdvertisement = pipe.clone().into();
        let text = any.to_xml_string();
        let parsed = AnyAdvertisement::parse(&text).unwrap();
        assert_eq!(parsed, any);
        assert_eq!(parsed.display_name(), "SkiRental");
        assert_eq!(parsed.kind(), AdvKind::Adv);
    }

    #[test]
    fn factory_rejects_unknown_roots() {
        let err = AnyAdvertisement::parse("<Mystery/>").unwrap_err();
        assert!(err.to_string().contains("Mystery"));
        assert!(AnyAdvertisement::parse("<<<").is_err());
    }

    #[test]
    fn unique_keys_differ_between_kinds() {
        let mut rng = StdRng::seed_from_u64(2);
        let peer = PeerAdvertisement::new(PeerId::generate(&mut rng), "alice", PeerGroupId::world());
        let group =
            PeerGroupAdvertisement::new(PeerGroupId::generate(&mut rng), "ps-SkiRental", peer.peer_id);
        let any_peer: AnyAdvertisement = peer.into();
        let any_group: AnyAdvertisement = group.into();
        assert_ne!(any_peer.unique_key(), any_group.unique_key());
        assert_eq!(any_peer.kind(), AdvKind::Peer);
        assert_eq!(any_group.kind(), AdvKind::Group);
        assert!(any_group.as_peer().is_none());
        assert!(any_group.as_group().is_some());
    }

    #[test]
    fn kinds_display_like_jxta_constants() {
        assert_eq!(AdvKind::Peer.to_string(), "PEER");
        assert_eq!(AdvKind::Group.to_string(), "GROUP");
        assert_eq!(AdvKind::Adv.to_string(), "ADV");
    }
}

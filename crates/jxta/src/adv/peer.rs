//! Peer advertisements.

use super::{AdvKind, AdvParseError, Advertisement};
use crate::id::{PeerGroupId, PeerId};
use crate::xml::XmlElement;
use simnet::SimAddress;

/// Advertises a peer: its id, name, group membership, current transport
/// endpoints and whether it offers rendezvous service.
///
/// The endpoint list is what the Pipe Binding Protocol and the Endpoint
/// Routing Protocol consult to reach the peer; re-publishing the
/// advertisement after an address change is how peers stay reachable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerAdvertisement {
    /// The peer's stable identifier.
    pub peer_id: PeerId,
    /// A human-readable peer name.
    pub name: String,
    /// The peer group this advertisement was published in.
    pub group_id: PeerGroupId,
    /// The peer's current transport addresses.
    pub endpoints: Vec<SimAddress>,
    /// Whether this peer acts as a rendezvous (and relay/router).
    pub is_rendezvous: bool,
    /// Free-form description.
    pub description: String,
}

impl PeerAdvertisement {
    /// Creates a peer advertisement with no endpoints.
    pub fn new(peer_id: PeerId, name: impl Into<String>, group_id: PeerGroupId) -> Self {
        PeerAdvertisement {
            peer_id,
            name: name.into(),
            group_id,
            endpoints: Vec::new(),
            is_rendezvous: false,
            description: String::new(),
        }
    }

    /// Builder-style endpoint list override.
    pub fn with_endpoints(mut self, endpoints: Vec<SimAddress>) -> Self {
        self.endpoints = endpoints;
        self
    }

    /// Builder-style rendezvous flag.
    pub fn with_rendezvous(mut self, is_rendezvous: bool) -> Self {
        self.is_rendezvous = is_rendezvous;
        self
    }
}

impl Advertisement for PeerAdvertisement {
    const ROOT: &'static str = "jxta:PeerAdvertisement";

    fn kind(&self) -> AdvKind {
        AdvKind::Peer
    }

    fn unique_key(&self) -> String {
        self.peer_id.to_string()
    }

    fn display_name(&self) -> String {
        self.name.clone()
    }

    fn to_xml(&self) -> XmlElement<'_> {
        let mut root = XmlElement::new(Self::ROOT)
            .text_child("Pid", self.peer_id.to_string())
            .text_child("Name", &self.name)
            .text_child("Gid", self.group_id.to_string())
            .text_child("Rdv", if self.is_rendezvous { "true" } else { "false" })
            .text_child("Desc", &self.description);
        let mut endpoints = XmlElement::new("Endpoints");
        for addr in &self.endpoints {
            endpoints.push_child(XmlElement::with_text("Addr", addr.to_string()));
        }
        root.push_child(endpoints);
        root
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, AdvParseError> {
        if xml.name != Self::ROOT {
            return Err(AdvParseError::new(format!("expected {} root", Self::ROOT)));
        }
        let peer_id = xml
            .child_text("Pid")
            .ok_or_else(|| AdvParseError::new("peer advertisement missing <Pid>"))?
            .parse()
            .map_err(|e| AdvParseError::new(format!("bad peer id: {e}")))?;
        let group_id = xml
            .child_text("Gid")
            .ok_or_else(|| AdvParseError::new("peer advertisement missing <Gid>"))?
            .parse()
            .map_err(|e| AdvParseError::new(format!("bad group id: {e}")))?;
        let name = xml.child_text_or_empty("Name").to_owned();
        let description = xml.child_text_or_empty("Desc").to_owned();
        let is_rendezvous = xml.child_text_or_empty("Rdv") == "true";
        let mut endpoints = Vec::new();
        if let Some(eps) = xml.first_child("Endpoints") {
            for addr in eps.children_named("Addr") {
                let parsed: SimAddress = addr
                    .text
                    .trim()
                    .parse()
                    .map_err(|e| AdvParseError::new(format!("bad endpoint address: {e}")))?;
                endpoints.push(parsed);
            }
        }
        Ok(PeerAdvertisement {
            peer_id,
            name,
            group_id,
            endpoints,
            is_rendezvous,
            description,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simnet::TransportKind;

    fn sample() -> PeerAdvertisement {
        let mut rng = StdRng::seed_from_u64(5);
        PeerAdvertisement::new(PeerId::generate(&mut rng), "alice", PeerGroupId::world())
            .with_endpoints(vec![
                SimAddress::new(TransportKind::Tcp, 0x0A000001, 9701),
                SimAddress::new(TransportKind::Http, 0x0A000001, 9702),
            ])
            .with_rendezvous(true)
    }

    #[test]
    fn xml_roundtrip_preserves_endpoints() {
        let adv = sample();
        let parsed = PeerAdvertisement::from_xml(&adv.to_xml()).unwrap();
        assert_eq!(parsed, adv);
        assert_eq!(parsed.endpoints.len(), 2);
        assert!(parsed.is_rendezvous);
    }

    #[test]
    fn parse_rejects_missing_or_bad_fields() {
        let bad = XmlElement::new(PeerAdvertisement::ROOT).text_child("Name", "x");
        assert!(PeerAdvertisement::from_xml(&bad).is_err());
        let sample = sample();
        let mut adv = sample.to_xml();
        // Corrupt the first endpoint address in place.
        let endpoints = adv.children.iter_mut().find(|c| c.name == "Endpoints").unwrap();
        endpoints.children[0].text = "not an address".into();
        assert!(PeerAdvertisement::from_xml(&adv).is_err());
    }

    #[test]
    fn unique_key_is_peer_id() {
        let adv = sample();
        assert_eq!(adv.unique_key(), adv.peer_id.to_string());
        assert_eq!(adv.kind(), AdvKind::Peer);
    }
}

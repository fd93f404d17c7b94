//! Route advertisements (Endpoint Routing Protocol).

use super::{AdvKind, AdvParseError, Advertisement};
use crate::id::PeerId;
use crate::xml::XmlElement;
use simnet::SimAddress;

/// Advertises how to reach a peer: either directly at one of its endpoints,
/// or through a relay peer (a rendezvous/router) when a firewall prevents a
/// direct connection — the scenario of the paper's Figure 6.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteAdvertisement {
    /// The peer this route leads to.
    pub dest: PeerId,
    /// The relay to go through, if the destination is not directly reachable.
    pub relay: Option<PeerId>,
    /// The destination's known endpoints (possibly stale).
    pub endpoints: Vec<SimAddress>,
}

impl RouteAdvertisement {
    /// Creates a direct route (no relay).
    pub fn direct(dest: PeerId, endpoints: Vec<SimAddress>) -> Self {
        RouteAdvertisement {
            dest,
            relay: None,
            endpoints,
        }
    }

    /// Creates a relayed route.
    pub fn via_relay(dest: PeerId, relay: PeerId, endpoints: Vec<SimAddress>) -> Self {
        RouteAdvertisement {
            dest,
            relay: Some(relay),
            endpoints,
        }
    }
}

impl Advertisement for RouteAdvertisement {
    const ROOT: &'static str = "jxta:RouteAdvertisement";

    fn kind(&self) -> AdvKind {
        AdvKind::Adv
    }

    fn unique_key(&self) -> String {
        format!("route:{}", self.dest)
    }

    fn display_name(&self) -> String {
        format!("route to {}", self.dest)
    }

    fn to_xml(&self) -> XmlElement<'_> {
        let mut root = XmlElement::new(Self::ROOT).text_child("Dst", self.dest.to_string());
        if let Some(relay) = &self.relay {
            root.push_child(XmlElement::with_text("Relay", relay.to_string()));
        }
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
        let dest = xml
            .child_text("Dst")
            .ok_or_else(|| AdvParseError::new("route advertisement missing <Dst>"))?
            .parse()
            .map_err(|e| AdvParseError::new(format!("bad destination peer id: {e}")))?;
        let relay = match xml.child_text("Relay") {
            Some(text) => Some(
                text.parse()
                    .map_err(|e| AdvParseError::new(format!("bad relay peer id: {e}")))?,
            ),
            None => None,
        };
        let mut endpoints = Vec::new();
        if let Some(list) = xml.first_child("Endpoints") {
            for addr in list.children_named("Addr") {
                endpoints.push(
                    addr.text
                        .trim()
                        .parse()
                        .map_err(|e| AdvParseError::new(format!("bad route endpoint: {e}")))?,
                );
            }
        }
        Ok(RouteAdvertisement {
            dest,
            relay,
            endpoints,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::TransportKind;

    #[test]
    fn direct_route_roundtrips() {
        let adv = RouteAdvertisement::direct(
            PeerId::derive("bob"),
            vec![SimAddress::new(TransportKind::Tcp, 7, 9701)],
        );
        let parsed = RouteAdvertisement::from_xml(&adv.to_xml()).unwrap();
        assert_eq!(parsed, adv);
        assert!(parsed.relay.is_none());
    }

    #[test]
    fn relayed_route_roundtrips() {
        let adv = RouteAdvertisement::via_relay(PeerId::derive("bob"), PeerId::derive("rdv"), vec![]);
        let parsed = RouteAdvertisement::from_xml(&adv.to_xml()).unwrap();
        assert_eq!(parsed, adv);
        assert!(parsed.relay.is_some());
        assert!(parsed.display_name().contains("route to"));
    }

    #[test]
    fn parse_rejects_bad_ids() {
        let bad = XmlElement::new(RouteAdvertisement::ROOT).text_child("Dst", "not-an-id");
        assert!(RouteAdvertisement::from_xml(&bad).is_err());
    }
}

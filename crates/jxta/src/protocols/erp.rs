//! Endpoint Routing Protocol (ERP).
//!
//! When a peer cannot reach another peer directly (firewalls, missing common
//! transports), it asks the routing infrastructure for a route; rendezvous /
//! router peers answer with a [`RouteAdvertisement`] that may relay through
//! themselves (the paper's Figure 6: `Peer A -> rdv/router -> Peer C`,
//! crossing a firewall via HTTP).

use super::{required_child, ProtocolPayload};
use crate::adv::{Advertisement, RouteAdvertisement};
use crate::error::JxtaError;
use crate::id::PeerId;
use crate::xml::XmlElement;

/// Asks for a route to `dest`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteQuery {
    /// The peer we want to reach.
    pub dest: PeerId,
    /// The peer asking.
    pub requester: PeerId,
}

impl ProtocolPayload for RouteQuery {
    const ROOT: &'static str = "jxta:RouteQuery";

    fn to_xml(&self) -> XmlElement<'_> {
        XmlElement::new(Self::ROOT)
            .text_child("Dst", self.dest.to_string())
            .text_child("Requester", self.requester.to_string())
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, JxtaError> {
        Ok(RouteQuery {
            dest: required_child(xml, "Dst")?
                .parse()
                .map_err(|e| JxtaError::BadXml(format!("bad destination id: {e}")))?,
            requester: required_child(xml, "Requester")?
                .parse()
                .map_err(|e| JxtaError::BadXml(format!("bad requester id: {e}")))?,
        })
    }
}

/// A route answer: the embedded route advertisement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteResponse {
    /// The route to the requested peer.
    pub route: RouteAdvertisement,
}

impl ProtocolPayload for RouteResponse {
    const ROOT: &'static str = "jxta:RouteResponse";

    fn to_xml(&self) -> XmlElement<'_> {
        XmlElement::new(Self::ROOT).child(self.route.to_xml())
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, JxtaError> {
        let route_xml = xml
            .first_child(RouteAdvertisement::ROOT)
            .ok_or_else(|| JxtaError::MissingElement(RouteAdvertisement::ROOT.to_owned()))?;
        Ok(RouteResponse {
            route: RouteAdvertisement::from_xml(route_xml)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SimAddress, TransportKind};

    #[test]
    fn query_roundtrips() {
        let q = RouteQuery {
            dest: PeerId::derive("carol"),
            requester: PeerId::derive("alice"),
        };
        assert_eq!(RouteQuery::from_xml_string(&q.to_xml_string()).unwrap(), q);
    }

    #[test]
    fn response_roundtrips_direct_and_relayed() {
        let direct = RouteResponse {
            route: RouteAdvertisement::direct(
                PeerId::derive("carol"),
                vec![SimAddress::new(TransportKind::Tcp, 9, 9701)],
            ),
        };
        assert_eq!(
            RouteResponse::from_xml_string(&direct.to_xml_string()).unwrap(),
            direct
        );

        let relayed = RouteResponse {
            route: RouteAdvertisement::via_relay(PeerId::derive("carol"), PeerId::derive("rdv"), vec![]),
        };
        let decoded = RouteResponse::from_xml_string(&relayed.to_xml_string()).unwrap();
        assert!(decoded.route.is_relayed());
    }

    #[test]
    fn missing_route_is_rejected() {
        assert!(RouteResponse::from_xml_string("<jxta:RouteResponse/>").is_err());
    }
}

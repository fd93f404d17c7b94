//! Pipe Binding Protocol (PBP).
//!
//! Pipes are bound to peer *ids*, not addresses: "instead of counting upon a
//! fixed IP address, the protocol relies on a fixed UUID for each peer"
//! (the paper's Figure 5). A pipe-bind query asks "who currently has an input
//! pipe for pipe P?", and responders answer with their peer id and current
//! endpoints, allowing output pipes to (re-)resolve after crashes and address
//! changes.

use super::{required_child, ProtocolPayload};
use crate::error::JxtaError;
use crate::id::{PeerId, PipeId};
use crate::xml::XmlElement;
use simnet::SimAddress;

/// Asks which peers host an input pipe for `pipe_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipeBindQuery {
    /// The pipe being resolved.
    pub pipe_id: PipeId,
    /// The peer asking.
    pub requester: PeerId,
}

impl ProtocolPayload for PipeBindQuery {
    const ROOT: &'static str = "jxta:PipeBindQuery";

    fn to_xml(&self) -> XmlElement<'_> {
        XmlElement::new(Self::ROOT)
            .text_child("PipeId", self.pipe_id.to_string())
            .text_child("Requester", self.requester.to_string())
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, JxtaError> {
        Ok(PipeBindQuery {
            pipe_id: required_child(xml, "PipeId")?
                .parse()
                .map_err(|e| JxtaError::BadXml(format!("bad pipe id: {e}")))?,
            requester: required_child(xml, "Requester")?
                .parse()
                .map_err(|e| JxtaError::BadXml(format!("bad requester id: {e}")))?,
        })
    }
}

/// Announces that `peer` hosts an input pipe for `pipe_id`, reachable at
/// `endpoints`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipeBindResponse {
    /// The pipe being resolved.
    pub pipe_id: PipeId,
    /// The peer hosting an input pipe.
    pub peer: PeerId,
    /// The hosting peer's current endpoints.
    pub endpoints: Vec<SimAddress>,
}

impl ProtocolPayload for PipeBindResponse {
    const ROOT: &'static str = "jxta:PipeBindResponse";

    fn to_xml(&self) -> XmlElement<'_> {
        let mut root = XmlElement::new(Self::ROOT)
            .text_child("PipeId", self.pipe_id.to_string())
            .text_child("Peer", self.peer.to_string());
        let mut endpoints = XmlElement::new("Endpoints");
        for addr in &self.endpoints {
            endpoints.push_child(XmlElement::with_text("Addr", addr.to_string()));
        }
        root.push_child(endpoints);
        root
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, JxtaError> {
        let pipe_id = required_child(xml, "PipeId")?
            .parse()
            .map_err(|e| JxtaError::BadXml(format!("bad pipe id: {e}")))?;
        let peer = required_child(xml, "Peer")?
            .parse()
            .map_err(|e| JxtaError::BadXml(format!("bad peer id: {e}")))?;
        let mut endpoints = Vec::new();
        if let Some(list) = xml.first_child("Endpoints") {
            for addr in list.children_named("Addr") {
                endpoints.push(
                    addr.text
                        .trim()
                        .parse()
                        .map_err(|e| JxtaError::BadXml(format!("bad endpoint: {e}")))?,
                );
            }
        }
        Ok(PipeBindResponse {
            pipe_id,
            peer,
            endpoints,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::TransportKind;

    #[test]
    fn query_roundtrips() {
        let q = PipeBindQuery {
            pipe_id: PipeId::derive("ski"),
            requester: PeerId::derive("alice"),
        };
        assert_eq!(PipeBindQuery::from_xml_string(&q.to_xml_string()).unwrap(), q);
    }

    #[test]
    fn response_roundtrips_with_endpoints() {
        let r = PipeBindResponse {
            pipe_id: PipeId::derive("ski"),
            peer: PeerId::derive("bob"),
            endpoints: vec![
                SimAddress::new(TransportKind::Tcp, 42, 9701),
                SimAddress::new(TransportKind::Http, 42, 9702),
            ],
        };
        let decoded = PipeBindResponse::from_xml_string(&r.to_xml_string()).unwrap();
        assert_eq!(decoded, r);
        assert_eq!(decoded.endpoints.len(), 2);
    }

    #[test]
    fn malformed_is_rejected() {
        assert!(PipeBindQuery::from_xml_string("<jxta:PipeBindQuery/>").is_err());
        let bad = XmlElement::new(PipeBindResponse::ROOT)
            .text_child("PipeId", "garbage")
            .text_child("Peer", PeerId::derive("x").to_string());
        assert!(PipeBindResponse::from_xml(&bad).is_err());
    }
}

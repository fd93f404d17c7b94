//! Peer Resolver Protocol (PRP).
//!
//! The resolver is the generic query/response bus of JXTA (the paper's
//! Figure 2): protocols register *handlers* by name, queries carry the
//! handler name plus an opaque XML body, and responses find their way back to
//! the querying peer. "The more handlers are registered with PRP, the more
//! peers a given peer is potentially able to communicate with."

use super::{required_child, ProtocolPayload};
use crate::error::JxtaError;
use crate::id::{PeerId, QueryId};
use crate::message::{Message, MessageElement};
use crate::xml::XmlElement;

/// Namespace used for resolver message elements.
pub const NAMESPACE: &str = "jxta";
/// Message element name carrying a resolver query.
const QUERY_ELEMENT: &str = "ResolverQuery";
/// Message element name carrying a resolver response.
const RESPONSE_ELEMENT: &str = "ResolverResponse";

/// A resolver query: "ask whoever handles `handler` this `body`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolverQuery {
    /// The handler (protocol) this query is for.
    pub handler: String,
    /// Correlates responses with the query.
    pub query_id: QueryId,
    /// The peer that issued the query.
    pub src_peer: PeerId,
    /// Remaining propagation hops (decremented when re-propagated by
    /// rendezvous peers).
    pub hops_left: u8,
    /// The protocol-specific XML body.
    pub body: String,
}

/// The propagation hop budget of resolver queries and wire publishes.
pub const DEFAULT_HOPS: u8 = 3;

impl ResolverQuery {
    /// Creates a query with the default hop budget.
    pub fn new(handler: impl Into<String>, query_id: QueryId, src_peer: PeerId, body: String) -> Self {
        ResolverQuery {
            handler: handler.into(),
            query_id,
            src_peer,
            hops_left: DEFAULT_HOPS,
            body,
        }
    }

    /// Wraps the query into a transport [`Message`].
    pub fn to_message(&self) -> Message {
        Message::new().with(MessageElement::xml(
            NAMESPACE,
            QUERY_ELEMENT,
            self.to_xml_string(),
        ))
    }
}

impl ProtocolPayload for ResolverQuery {
    const ROOT: &'static str = "jxta:ResolverQuery";

    fn to_xml(&self) -> XmlElement<'_> {
        XmlElement::new(Self::ROOT)
            .text_child("Handler", &self.handler)
            .text_child("QueryId", self.query_id.0.to_string())
            .text_child("SrcPeer", self.src_peer.to_string())
            .text_child("Hops", self.hops_left.to_string())
            .text_child("Body", &self.body)
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, JxtaError> {
        Ok(ResolverQuery {
            handler: required_child(xml, "Handler")?.to_owned(),
            query_id: QueryId(
                required_child(xml, "QueryId")?
                    .parse()
                    .map_err(|_| JxtaError::BadXml("bad query id".into()))?,
            ),
            src_peer: required_child(xml, "SrcPeer")?
                .parse()
                .map_err(|e| JxtaError::BadXml(format!("bad src peer: {e}")))?,
            hops_left: required_child(xml, "Hops")?
                .parse()
                .map_err(|_| JxtaError::BadXml("bad hop count".into()))?,
            body: xml.child_text_or_empty("Body").to_owned(),
        })
    }
}

/// A resolver response, sent back to the querying peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolverResponse {
    /// The handler (protocol) that produced the response.
    pub handler: String,
    /// Matches the query's id.
    pub query_id: QueryId,
    /// The peer that produced the response.
    pub src_peer: PeerId,
    /// The protocol-specific XML body.
    pub body: String,
}

impl ResolverResponse {
    /// Creates a response for a given query.
    pub fn answering(query: &ResolverQuery, src_peer: PeerId, body: String) -> Self {
        ResolverResponse {
            handler: query.handler.clone(),
            query_id: query.query_id,
            src_peer,
            body,
        }
    }

    /// Wraps the response into a transport [`Message`].
    pub fn to_message(&self) -> Message {
        Message::new().with(MessageElement::xml(
            NAMESPACE,
            RESPONSE_ELEMENT,
            self.to_xml_string(),
        ))
    }
}

impl ProtocolPayload for ResolverResponse {
    const ROOT: &'static str = "jxta:ResolverResponse";

    fn to_xml(&self) -> XmlElement<'_> {
        XmlElement::new(Self::ROOT)
            .text_child("Handler", &self.handler)
            .text_child("QueryId", self.query_id.0.to_string())
            .text_child("SrcPeer", self.src_peer.to_string())
            .text_child("Body", &self.body)
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, JxtaError> {
        Ok(ResolverResponse {
            handler: required_child(xml, "Handler")?.to_owned(),
            query_id: QueryId(
                required_child(xml, "QueryId")?
                    .parse()
                    .map_err(|_| JxtaError::BadXml("bad query id".into()))?,
            ),
            src_peer: required_child(xml, "SrcPeer")?
                .parse()
                .map_err(|e| JxtaError::BadXml(format!("bad src peer: {e}")))?,
            body: xml.child_text_or_empty("Body").to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::handlers;

    fn query() -> ResolverQuery {
        ResolverQuery::new(
            handlers::PDP,
            QueryId(7),
            PeerId::derive("alice"),
            "<Q/>".to_owned(),
        )
    }

    #[test]
    fn query_roundtrips_through_xml_and_message() {
        let q = query();
        assert_eq!(ResolverQuery::from_xml_string(&q.to_xml_string()).unwrap(), q);
        let msg = q.to_message();
        let body = msg.element(NAMESPACE, QUERY_ELEMENT).unwrap().body_text();
        assert_eq!(ResolverQuery::from_xml_string(&body).unwrap(), q);
        assert!(msg.element(NAMESPACE, RESPONSE_ELEMENT).is_none());
    }

    #[test]
    fn response_roundtrips_and_correlates() {
        let q = query();
        let r = ResolverResponse::answering(&q, PeerId::derive("bob"), "<R/>".to_owned());
        assert_eq!(r.query_id, q.query_id);
        assert_eq!(r.handler, q.handler);
        let decoded = ResolverResponse::from_xml_string(&r.to_xml_string()).unwrap();
        assert_eq!(decoded, r);
        let msg = r.to_message();
        let body = msg.element(NAMESPACE, RESPONSE_ELEMENT).unwrap().body_text();
        assert_eq!(ResolverResponse::from_xml_string(&body).unwrap(), r);
        assert!(msg.element(NAMESPACE, QUERY_ELEMENT).is_none());
    }

    #[test]
    fn malformed_bodies_are_rejected() {
        assert!(ResolverQuery::from_xml_string("<jxta:ResolverQuery/>").is_err());
        assert!(ResolverQuery::from_xml_string("not xml").is_err());
        let missing_peer = XmlElement::new(ResolverQuery::ROOT)
            .text_child("Handler", "h")
            .text_child("QueryId", "1")
            .text_child("Hops", "3");
        assert!(ResolverQuery::from_xml(&missing_peer).is_err());
    }

    #[test]
    fn nested_xml_bodies_survive_escaping() {
        let inner = "<Inner attr=\"a&b\"><Deep>text</Deep></Inner>";
        let q = ResolverQuery::new(handlers::PBP, QueryId(1), PeerId::derive("x"), inner.to_owned());
        let round = ResolverQuery::from_xml_string(&q.to_xml_string()).unwrap();
        assert_eq!(round.body, inner);
    }
}

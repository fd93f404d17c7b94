//! Peer Information Protocol (PIP).
//!
//! Lets a peer query another peer's status: how long it has been up, how much
//! traffic it has handled on its incoming and outgoing channels (the paper's
//! Figure 3).

use super::{required_child, ProtocolPayload};
use crate::error::JxtaError;
use crate::id::PeerId;
use crate::xml::XmlElement;

/// A request for a peer's status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PingQuery {
    /// The peer whose information is requested.
    pub target: PeerId,
}

impl ProtocolPayload for PingQuery {
    const ROOT: &'static str = "jxta:PipQuery";

    fn to_xml(&self) -> XmlElement<'_> {
        XmlElement::new(Self::ROOT).text_child("Target", self.target.to_string())
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, JxtaError> {
        Ok(PingQuery {
            target: required_child(xml, "Target")?
                .parse()
                .map_err(|e| JxtaError::BadXml(format!("bad target peer: {e}")))?,
        })
    }
}

/// A peer's status, as returned by PIP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerInfoResponse {
    /// The peer the information describes.
    pub peer: PeerId,
    /// Time the peer has been up, in virtual milliseconds.
    pub uptime_ms: u64,
    /// Messages sent on outgoing channels.
    pub messages_sent: u64,
    /// Messages received on incoming channels.
    pub messages_received: u64,
    /// Bytes sent on outgoing channels.
    pub bytes_sent: u64,
    /// Bytes received on incoming channels.
    pub bytes_received: u64,
}

impl ProtocolPayload for PeerInfoResponse {
    const ROOT: &'static str = "jxta:PipResponse";

    fn to_xml(&self) -> XmlElement<'_> {
        XmlElement::new(Self::ROOT)
            .text_child("Peer", self.peer.to_string())
            .text_child("Uptime", self.uptime_ms.to_string())
            .text_child("Sent", self.messages_sent.to_string())
            .text_child("Received", self.messages_received.to_string())
            .text_child("BytesSent", self.bytes_sent.to_string())
            .text_child("BytesReceived", self.bytes_received.to_string())
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, JxtaError> {
        let parse_u64 = |name: &str| -> Result<u64, JxtaError> {
            required_child(xml, name)?
                .parse()
                .map_err(|_| JxtaError::BadXml(format!("bad numeric field {name}")))
        };
        Ok(PeerInfoResponse {
            peer: required_child(xml, "Peer")?
                .parse()
                .map_err(|e| JxtaError::BadXml(format!("bad peer id: {e}")))?,
            uptime_ms: parse_u64("Uptime")?,
            messages_sent: parse_u64("Sent")?,
            messages_received: parse_u64("Received")?,
            bytes_sent: parse_u64("BytesSent")?,
            bytes_received: parse_u64("BytesReceived")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrips() {
        let q = PingQuery {
            target: PeerId::derive("bob"),
        };
        assert_eq!(PingQuery::from_xml_string(&q.to_xml_string()).unwrap(), q);
    }

    #[test]
    fn response_roundtrips() {
        let r = PeerInfoResponse {
            peer: PeerId::derive("bob"),
            uptime_ms: 123_456,
            messages_sent: 10,
            messages_received: 20,
            bytes_sent: 1_000,
            bytes_received: 2_000,
        };
        assert_eq!(PeerInfoResponse::from_xml_string(&r.to_xml_string()).unwrap(), r);
    }

    #[test]
    fn rejects_bad_numbers() {
        let bad = XmlElement::new(PeerInfoResponse::ROOT)
            .text_child("Peer", PeerId::derive("bob").to_string())
            .text_child("Uptime", "yesterday");
        assert!(PeerInfoResponse::from_xml(&bad).is_err());
    }
}

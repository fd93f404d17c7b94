//! Error types for the JXTA layer.

use crate::adv::AdvParseError;
use crate::message::MessageDecodeError;
use crate::xml::XmlError;
use std::fmt;

/// Errors surfaced by the JXTA peer and its services.
#[derive(Debug, Clone, PartialEq)]
pub enum JxtaError {
    /// A received datagram could not be decoded as a JXTA message.
    BadMessage(MessageDecodeError),
    /// An embedded XML document could not be parsed.
    BadXml(String),
    /// An advertisement could not be parsed.
    BadAdvertisement(String),
    /// A message was missing a required element.
    MissingElement(String),
    /// The requested pipe is not known / not resolved yet.
    UnknownPipe(String),
    /// A send failed synchronously at the simulated transport.
    Transport(String),
    /// The requested service is not present in the peer group.
    ServiceNotFound(String),
}

impl fmt::Display for JxtaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JxtaError::BadMessage(e) => write!(f, "malformed jxta message: {e}"),
            JxtaError::BadXml(e) => write!(f, "malformed xml: {e}"),
            JxtaError::BadAdvertisement(e) => write!(f, "malformed advertisement: {e}"),
            JxtaError::MissingElement(name) => write!(f, "message is missing element {name}"),
            JxtaError::UnknownPipe(p) => write!(f, "unknown or unresolved pipe {p}"),
            JxtaError::Transport(e) => write!(f, "transport error: {e}"),
            JxtaError::ServiceNotFound(s) => write!(f, "service not found: {s}"),
        }
    }
}

impl std::error::Error for JxtaError {}

impl From<MessageDecodeError> for JxtaError {
    fn from(e: MessageDecodeError) -> Self {
        JxtaError::BadMessage(e)
    }
}

impl From<XmlError> for JxtaError {
    fn from(e: XmlError) -> Self {
        JxtaError::BadXml(e.to_string())
    }
}

impl From<AdvParseError> for JxtaError {
    fn from(e: AdvParseError) -> Self {
        JxtaError::BadAdvertisement(e.to_string())
    }
}

impl From<simnet::SendError> for JxtaError {
    fn from(e: simnet::SendError) -> Self {
        JxtaError::Transport(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_information() {
        let e: JxtaError = MessageDecodeError::BadMagic.into();
        assert!(e.to_string().contains("magic"));
        let e: JxtaError = XmlError::UnexpectedEof.into();
        assert!(e.to_string().contains("xml"));
        let e: JxtaError = AdvParseError::new("nope").into();
        assert!(e.to_string().contains("nope"));
        let e: JxtaError = simnet::SendError::TransportMismatch.into();
        assert!(e.to_string().contains("transport"));
    }

    #[test]
    fn error_messages_are_lowercase_and_concise() {
        let e = JxtaError::UnknownPipe("urn:jxta:pipe-1".into());
        let msg = e.to_string();
        assert!(msg.starts_with("unknown"));
        assert!(!msg.ends_with('.'));
    }
}

//! The JXTA protocols this stack speaks: the ones TPS sends.
//!
//! Mirroring the JXTA specification (and the paper's Section 2.2):
//!
//! * **PRP** — Peer Resolver Protocol ([`prp`]): generic query/response
//!   envelopes dispatched to named handlers; everything below rides on it.
//! * **PDP** — Peer Discovery Protocol ([`pdp`]): find advertisements.
//! * **PBP** — Pipe Binding Protocol ([`pbp`]): bind pipe ids to the peers
//!   and addresses that currently host them.
//!
//! Section 2.2's other three — peer information (PIP), peer membership (PMP)
//! and endpoint routing (ERP) — are omitted, because TPS never sends them.
//! A rendezvous drops a resolver query for any other handler unanswered and
//! unwalked.
//!
//! Each protocol defines plain-data query/response types that serialise to
//! XML; the XML rides inside [`prp`] envelopes, which in turn ride inside
//! [`crate::message::Message`]s on the simulated network.

pub mod pbp;
pub mod pdp;
pub mod prp;

use crate::error::JxtaError;
use crate::xml::XmlElement;

/// Well-known resolver handler names, one per protocol that rides on PRP.
pub mod handlers {
    /// The Peer Discovery Protocol handler.
    pub const PDP: &str = "urn:jxta:handler-PDP";
    /// The Pipe Binding Protocol handler.
    pub const PBP: &str = "urn:jxta:handler-PBP";
}

/// Shared behaviour of protocol payloads: conversion to and from XML.
pub trait ProtocolPayload: Sized {
    /// The XML root element name.
    const ROOT: &'static str;

    /// Serialises the payload to XML.
    fn to_xml(&self) -> XmlElement<'_>;

    /// Parses the payload from XML.
    ///
    /// # Errors
    ///
    /// Returns [`JxtaError`] when required elements are missing or malformed.
    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, JxtaError>;

    /// Serialises to an XML string (convenience for resolver bodies).
    fn to_xml_string(&self) -> String {
        self.to_xml().to_xml()
    }

    /// Parses from an XML string (convenience for resolver bodies).
    ///
    /// # Errors
    ///
    /// Returns [`JxtaError`] when the text is not valid XML or not a valid
    /// payload of this type.
    fn from_xml_string(text: &str) -> Result<Self, JxtaError> {
        let xml = XmlElement::parse(text)?;
        Self::from_xml(&xml)
    }
}

pub(crate) fn required_child<'x>(xml: &'x XmlElement<'_>, name: &str) -> Result<&'x str, JxtaError> {
    xml.child_text(name)
        .ok_or_else(|| JxtaError::MissingElement(name.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handler_names_are_distinct() {
        let all = [handlers::PDP, handlers::PBP];
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn required_child_reports_missing_elements() {
        let xml = XmlElement::new("X").text_child("Present", "yes");
        assert_eq!(required_child(&xml, "Present").unwrap(), "yes");
        let err = required_child(&xml, "Absent").unwrap_err();
        assert!(err.to_string().contains("Absent"));
    }
}

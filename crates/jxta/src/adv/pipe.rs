//! Pipe advertisements.

use super::{AdvKind, AdvParseError, Advertisement};
use crate::id::PipeId;
use crate::xml::XmlElement;
use std::fmt;
use std::str::FromStr;

/// The kind of pipe an advertisement describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipeType {
    /// Asynchronous, unreliable, one-to-one pipe (the JXTA default).
    JxtaUnicast,
    /// One-to-many propagated pipe.
    JxtaPropagate,
    /// The many-to-many "wire" pipe used by the paper's applications.
    JxtaWire,
}

impl PipeType {
    /// The string used in the XML `Type` element.
    pub const fn as_str(self) -> &'static str {
        match self {
            PipeType::JxtaUnicast => "JxtaUnicast",
            PipeType::JxtaPropagate => "JxtaPropagate",
            PipeType::JxtaWire => "JxtaWire",
        }
    }
}

impl fmt::Display for PipeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for PipeType {
    type Err = AdvParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "JxtaUnicast" => Ok(PipeType::JxtaUnicast),
            "JxtaPropagate" => Ok(PipeType::JxtaPropagate),
            "JxtaWire" => Ok(PipeType::JxtaWire),
            other => Err(AdvParseError::new(format!("unknown pipe type {other}"))),
        }
    }
}

/// Advertises a pipe: its id, a human-readable name and its type.
///
/// In the paper's ski-rental application the pipe *name* carries the event
/// type name (`SkiRental`), which is what the TPS advertisement finder
/// searches for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipeAdvertisement {
    /// The pipe's stable identifier.
    pub pipe_id: PipeId,
    /// The human-readable pipe name (searchable through discovery).
    pub name: String,
    /// The pipe type.
    pub pipe_type: PipeType,
}

impl PipeAdvertisement {
    /// Creates a pipe advertisement.
    pub fn new(pipe_id: PipeId, name: impl Into<String>, pipe_type: PipeType) -> Self {
        PipeAdvertisement {
            pipe_id,
            name: name.into(),
            pipe_type,
        }
    }
}

impl Advertisement for PipeAdvertisement {
    const ROOT: &'static str = "jxta:PipeAdvertisement";

    fn kind(&self) -> AdvKind {
        AdvKind::Adv
    }

    fn unique_key(&self) -> String {
        self.pipe_id.to_string()
    }

    fn display_name(&self) -> String {
        self.name.clone()
    }

    fn to_xml(&self) -> XmlElement<'_> {
        XmlElement::new(Self::ROOT)
            .text_child("Id", self.pipe_id.to_string())
            .text_child("Type", self.pipe_type.as_str())
            .text_child("Name", &self.name)
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, AdvParseError> {
        if xml.name != Self::ROOT {
            return Err(AdvParseError::new(format!("expected {} root", Self::ROOT)));
        }
        let pipe_id = xml
            .child_text("Id")
            .ok_or_else(|| AdvParseError::new("pipe advertisement missing <Id>"))?
            .parse()
            .map_err(|e| AdvParseError::new(format!("bad pipe id: {e}")))?;
        let pipe_type = xml
            .child_text("Type")
            .ok_or_else(|| AdvParseError::new("pipe advertisement missing <Type>"))?
            .parse()?;
        let name = xml.child_text_or_empty("Name").to_owned();
        Ok(PipeAdvertisement {
            pipe_id,
            name,
            pipe_type,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xml_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let adv = PipeAdvertisement::new(PipeId::generate(&mut rng), "SkiRental", PipeType::JxtaWire);
        let xml = adv.to_xml();
        assert_eq!(PipeAdvertisement::from_xml(&xml).unwrap(), adv);
        assert_eq!(adv.display_name(), "SkiRental");
        assert_eq!(adv.kind(), AdvKind::Adv);
    }

    #[test]
    fn parse_rejects_missing_fields() {
        let missing_id = XmlElement::new(PipeAdvertisement::ROOT).text_child("Type", "JxtaWire");
        assert!(PipeAdvertisement::from_xml(&missing_id).is_err());
        let bad_root = XmlElement::new("Nope");
        assert!(PipeAdvertisement::from_xml(&bad_root).is_err());
        let bad_type = XmlElement::new(PipeAdvertisement::ROOT)
            .text_child("Id", PipeId::derive("x").to_string())
            .text_child("Type", "JxtaTelepathy");
        assert!(PipeAdvertisement::from_xml(&bad_type).is_err());
    }

    #[test]
    fn pipe_types_roundtrip_as_strings() {
        for ty in [PipeType::JxtaUnicast, PipeType::JxtaPropagate, PipeType::JxtaWire] {
            assert_eq!(ty.as_str().parse::<PipeType>().unwrap(), ty);
        }
    }
}

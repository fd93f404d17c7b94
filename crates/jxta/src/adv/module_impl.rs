//! Module implementation advertisements.

use super::{AdvKind, AdvParseError, Advertisement};
use crate::id::ModuleId;
use crate::xml::XmlElement;

/// Advertises an implementation of a module (a loadable service/"codat"
/// implementation in JXTA terms).
///
/// The reproduction uses this mainly for completeness of the advertisement
/// factory and the `getGroupImpl`/`setGroupImpl` plumbing of the paper's
/// `AdvertisementsCreator`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleImplAdvertisement {
    /// The module's identifier.
    pub module_id: ModuleId,
    /// Human-readable description.
    pub description: String,
    /// A code reference (class/crate name).
    pub code: String,
}

impl ModuleImplAdvertisement {
    /// Creates a module implementation advertisement.
    pub fn new(module_id: ModuleId, description: impl Into<String>, code: impl Into<String>) -> Self {
        ModuleImplAdvertisement {
            module_id,
            description: description.into(),
            code: code.into(),
        }
    }
}

impl Advertisement for ModuleImplAdvertisement {
    const ROOT: &'static str = "jxta:ModuleImplAdvertisement";

    fn kind(&self) -> AdvKind {
        AdvKind::Adv
    }

    fn unique_key(&self) -> String {
        format!("module:{}", self.module_id)
    }

    fn display_name(&self) -> String {
        self.code.clone()
    }

    fn to_xml(&self) -> XmlElement<'_> {
        XmlElement::new(Self::ROOT)
            .text_child("Mid", self.module_id.to_string())
            .text_child("Desc", &self.description)
            .text_child("Code", &self.code)
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, AdvParseError> {
        if xml.name != Self::ROOT {
            return Err(AdvParseError::new(format!("expected {} root", Self::ROOT)));
        }
        let module_id = xml
            .child_text("Mid")
            .ok_or_else(|| AdvParseError::new("module advertisement missing <Mid>"))?
            .parse()
            .map_err(|e| AdvParseError::new(format!("bad module id: {e}")))?;
        Ok(ModuleImplAdvertisement {
            module_id,
            description: xml.child_text_or_empty("Desc").to_owned(),
            code: xml.child_text_or_empty("Code").to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let adv = ModuleImplAdvertisement::new(
            ModuleId::derive("wire"),
            "wire service impl",
            "jxta::services::wire",
        );
        let parsed = ModuleImplAdvertisement::from_xml(&adv.to_xml()).unwrap();
        assert_eq!(parsed, adv);
        assert_eq!(parsed.kind(), AdvKind::Adv);
        assert_eq!(parsed.display_name(), "jxta::services::wire");
    }

    #[test]
    fn rejects_missing_module_id() {
        let bad = XmlElement::new(ModuleImplAdvertisement::ROOT).text_child("Code", "x");
        assert!(ModuleImplAdvertisement::from_xml(&bad).is_err());
    }
}

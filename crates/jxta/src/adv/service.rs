//! Service advertisements.

use super::{AdvKind, AdvParseError, Advertisement, PipeAdvertisement};
use crate::xml::XmlElement;

/// Advertises a service offered inside a peer group (the paper's
/// `ServiceAdvertisement`, lines 27–44 of its `AdvertisementsCreator`).
///
/// The wire service advertisement embeds the [`PipeAdvertisement`] of the
/// many-to-many pipe it communicates over — this is exactly the structure the
/// ski-rental application builds by hand when bypassing TPS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceAdvertisement {
    /// Service name (e.g. `"jxta.service.wire"`).
    pub name: String,
    /// Service version string.
    pub version: String,
    /// Documentation / implementation URI.
    pub uri: String,
    /// Code reference (class name in JXTA; a module name here).
    pub code: String,
    /// Security annotation.
    pub security: String,
    /// Searchable keywords (the paper stores the pipe/type name here).
    pub keywords: String,
    /// Extra string parameters (the resolver service stores peer ids here).
    pub params: Vec<String>,
    /// The pipe the service communicates over, if any.
    pub pipe: Option<PipeAdvertisement>,
}

impl ServiceAdvertisement {
    /// Creates a minimally-populated service advertisement.
    pub fn new(name: impl Into<String>) -> Self {
        ServiceAdvertisement {
            name: name.into(),
            version: "1.0".to_owned(),
            uri: String::new(),
            code: String::new(),
            security: String::new(),
            keywords: String::new(),
            params: Vec::new(),
            pipe: None,
        }
    }

    /// Builder-style pipe advertisement attachment.
    pub fn with_pipe(mut self, pipe: PipeAdvertisement) -> Self {
        self.pipe = Some(pipe);
        self
    }

    /// Builder-style keyword override.
    pub fn with_keywords(mut self, keywords: impl Into<String>) -> Self {
        self.keywords = keywords.into();
        self
    }

    /// Builder-style version override.
    pub fn with_version(mut self, version: impl Into<String>) -> Self {
        self.version = version.into();
        self
    }

    /// Appends a parameter (e.g. the local peer id for the resolver service).
    pub fn push_param(&mut self, param: impl Into<String>) {
        self.params.push(param.into());
    }
}

impl Advertisement for ServiceAdvertisement {
    const ROOT: &'static str = "jxta:ServiceAdvertisement";

    fn kind(&self) -> AdvKind {
        AdvKind::Adv
    }

    fn unique_key(&self) -> String {
        match &self.pipe {
            Some(pipe) => format!("svc:{}:{}", self.name, pipe.pipe_id),
            None => format!("svc:{}", self.name),
        }
    }

    fn display_name(&self) -> String {
        self.name.clone()
    }

    fn to_xml(&self) -> XmlElement<'_> {
        let mut root = XmlElement::new(Self::ROOT)
            .text_child("Name", &self.name)
            .text_child("Version", &self.version)
            .text_child("Uri", &self.uri)
            .text_child("Code", &self.code)
            .text_child("Security", &self.security)
            .text_child("Keywords", &self.keywords);
        let mut params = XmlElement::new("Params");
        for p in &self.params {
            params.push_child(XmlElement::with_text("Param", p));
        }
        root.push_child(params);
        if let Some(pipe) = &self.pipe {
            root.push_child(pipe.to_xml());
        }
        root
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, AdvParseError> {
        if xml.name != Self::ROOT {
            return Err(AdvParseError::new(format!("expected {} root", Self::ROOT)));
        }
        let name = xml
            .child_text("Name")
            .ok_or_else(|| AdvParseError::new("service advertisement missing <Name>"))?
            .to_owned();
        let mut adv = ServiceAdvertisement::new(name);
        adv.version = xml.child_text_or_empty("Version").to_owned();
        adv.uri = xml.child_text_or_empty("Uri").to_owned();
        adv.code = xml.child_text_or_empty("Code").to_owned();
        adv.security = xml.child_text_or_empty("Security").to_owned();
        adv.keywords = xml.child_text_or_empty("Keywords").to_owned();
        if let Some(params) = xml.first_child("Params") {
            for p in params.children_named("Param") {
                adv.params.push(p.text.trim().to_owned());
            }
        }
        if let Some(pipe_xml) = xml.first_child(PipeAdvertisement::ROOT) {
            adv.pipe = Some(PipeAdvertisement::from_xml(pipe_xml)?);
        }
        Ok(adv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adv::PipeType;
    use crate::id::PipeId;

    #[test]
    fn xml_roundtrip_with_embedded_pipe() {
        let pipe = PipeAdvertisement::new(PipeId::derive("ski"), "SkiRental", PipeType::JxtaWire);
        let mut adv = ServiceAdvertisement::new("jxta.service.wire")
            .with_pipe(pipe)
            .with_keywords("SkiRental")
            .with_version("2.0");
        adv.push_param("urn:jxta:peer-deadbeef");
        let parsed = ServiceAdvertisement::from_xml(&adv.to_xml()).unwrap();
        assert_eq!(parsed, adv);
        assert_eq!(parsed.pipe.as_ref().unwrap().name, "SkiRental");
        assert_eq!(parsed.params.len(), 1);
    }

    #[test]
    fn unique_key_differs_with_and_without_pipe() {
        let bare = ServiceAdvertisement::new("jxta.service.resolver");
        let piped = ServiceAdvertisement::new("jxta.service.resolver").with_pipe(PipeAdvertisement::new(
            PipeId::derive("p"),
            "p",
            PipeType::JxtaUnicast,
        ));
        assert_ne!(bare.unique_key(), piped.unique_key());
    }

    #[test]
    fn parse_rejects_missing_name() {
        let bad = XmlElement::new(ServiceAdvertisement::ROOT).text_child("Version", "1.0");
        assert!(ServiceAdvertisement::from_xml(&bad).is_err());
    }
}

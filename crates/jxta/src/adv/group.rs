//! Peer group advertisements.

use super::{AdvKind, AdvParseError, Advertisement, ServiceAdvertisement};
use crate::id::{PeerGroupId, PeerId};
use crate::xml::XmlElement;

/// Membership policy carried inside a peer group advertisement, as the
/// `<Membership>` element of JXTA's group format. This stack has no
/// membership protocol; the policy is carried on the wire, never enforced.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum MembershipPolicy {
    /// Anyone may join (the default).
    #[default]
    Open,
    /// Joining requires presenting this password as a credential.
    Password(String),
}

impl MembershipPolicy {
    fn to_xml(&self) -> XmlElement<'_> {
        match self {
            MembershipPolicy::Open => XmlElement::with_text("Membership", "open"),
            MembershipPolicy::Password(pw) => {
                XmlElement::with_text("Membership", "password").attr("secret", pw)
            }
        }
    }

    fn from_xml(xml: &XmlElement<'_>) -> MembershipPolicy {
        match xml.text.trim() {
            "password" => MembershipPolicy::Password(xml.attribute("secret").unwrap_or("").to_owned()),
            _ => MembershipPolicy::Open,
        }
    }
}

/// Advertises a peer group: its id, creator, name, membership policy and the
/// services available inside it.
///
/// The paper's ski-rental application creates one group advertisement per
/// event type, named `ps-<TypeName>`, and embeds the wire service (with its
/// pipe) inside it — the structure reproduced here.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerGroupAdvertisement {
    /// The group's stable identifier.
    pub group_id: PeerGroupId,
    /// The id of the peer that created/published the group.
    pub creator: PeerId,
    /// The group name (searchable; `ps-SkiRental` in the paper's example).
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Whether the creator offers rendezvous service for the group.
    pub is_rendezvous: bool,
    /// Who may join.
    pub membership: MembershipPolicy,
    /// Services available inside the group, keyed by name.
    pub services: Vec<ServiceAdvertisement>,
}

impl PeerGroupAdvertisement {
    /// Creates a group advertisement with no services and an open membership.
    pub fn new(group_id: PeerGroupId, name: impl Into<String>, creator: PeerId) -> Self {
        PeerGroupAdvertisement {
            group_id,
            creator,
            name: name.into(),
            description: String::new(),
            is_rendezvous: false,
            membership: MembershipPolicy::Open,
            services: Vec::new(),
        }
    }

    /// Builder-style rendezvous flag.
    pub fn with_rendezvous(mut self, is_rendezvous: bool) -> Self {
        self.is_rendezvous = is_rendezvous;
        self
    }

    /// Builder-style membership policy.
    pub fn with_membership(mut self, membership: MembershipPolicy) -> Self {
        self.membership = membership;
        self
    }

    /// Adds (or replaces) a service advertisement, keyed by service name.
    ///
    /// This mirrors the paper's `services.put(WireService.WireName, wireAdv)`.
    pub fn put_service(&mut self, service: ServiceAdvertisement) {
        if let Some(existing) = self.services.iter_mut().find(|s| s.name == service.name) {
            *existing = service;
        } else {
            self.services.push(service);
        }
    }

    /// Looks up a service advertisement by name.
    pub fn service(&self, name: &str) -> Option<&ServiceAdvertisement> {
        self.services.iter().find(|s| s.name == name)
    }
}

impl Advertisement for PeerGroupAdvertisement {
    const ROOT: &'static str = "jxta:PeerGroupAdvertisement";

    fn kind(&self) -> AdvKind {
        AdvKind::Group
    }

    fn unique_key(&self) -> String {
        self.group_id.to_string()
    }

    fn display_name(&self) -> String {
        self.name.clone()
    }

    fn to_xml(&self) -> XmlElement<'_> {
        let mut root = XmlElement::new(Self::ROOT)
            .text_child("Gid", self.group_id.to_string())
            .text_child("Pid", self.creator.to_string())
            .text_child("Name", &self.name)
            .text_child("Desc", &self.description)
            .text_child("Rdv", if self.is_rendezvous { "true" } else { "false" });
        root.push_child(self.membership.to_xml());
        let mut services = XmlElement::new("Services");
        for service in &self.services {
            services.push_child(service.to_xml());
        }
        root.push_child(services);
        root
    }

    fn from_xml(xml: &XmlElement<'_>) -> Result<Self, AdvParseError> {
        if xml.name != Self::ROOT {
            return Err(AdvParseError::new(format!("expected {} root", Self::ROOT)));
        }
        let group_id = xml
            .child_text("Gid")
            .ok_or_else(|| AdvParseError::new("group advertisement missing <Gid>"))?
            .parse()
            .map_err(|e| AdvParseError::new(format!("bad group id: {e}")))?;
        let creator = xml
            .child_text("Pid")
            .ok_or_else(|| AdvParseError::new("group advertisement missing <Pid>"))?
            .parse()
            .map_err(|e| AdvParseError::new(format!("bad creator id: {e}")))?;
        let name = xml.child_text_or_empty("Name").to_owned();
        let description = xml.child_text_or_empty("Desc").to_owned();
        let is_rendezvous = xml.child_text_or_empty("Rdv") == "true";
        let membership = xml
            .first_child("Membership")
            .map(MembershipPolicy::from_xml)
            .unwrap_or_default();
        let mut services = Vec::new();
        if let Some(list) = xml.first_child("Services") {
            for service_xml in list.children_named(ServiceAdvertisement::ROOT) {
                services.push(ServiceAdvertisement::from_xml(service_xml)?);
            }
        }
        Ok(PeerGroupAdvertisement {
            group_id,
            creator,
            name,
            description,
            is_rendezvous,
            membership,
            services,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adv::{PipeAdvertisement, PipeType};
    use crate::id::PipeId;

    fn sample() -> PeerGroupAdvertisement {
        let mut adv = PeerGroupAdvertisement::new(
            PeerGroupId::derive("ps-SkiRental"),
            "ps-SkiRental",
            PeerId::derive("creator"),
        )
        .with_rendezvous(true)
        .with_membership(MembershipPolicy::Password("hunter2".into()));
        adv.put_service(
            ServiceAdvertisement::new("jxta.service.wire")
                .with_pipe(PipeAdvertisement::new(
                    PipeId::derive("ski"),
                    "SkiRental",
                    PipeType::JxtaWire,
                ))
                .with_keywords("SkiRental"),
        );
        adv.put_service(ServiceAdvertisement::new("jxta.service.resolver"));
        adv
    }

    #[test]
    fn xml_roundtrip_preserves_services_and_membership() {
        let adv = sample();
        let parsed = PeerGroupAdvertisement::from_xml(&adv.to_xml()).unwrap();
        assert_eq!(parsed, adv);
        assert_eq!(parsed.services.len(), 2);
        assert!(matches!(parsed.membership, MembershipPolicy::Password(ref p) if p == "hunter2"));
    }

    #[test]
    fn put_service_replaces_by_name() {
        let mut adv = sample();
        let replacement = ServiceAdvertisement::new("jxta.service.wire").with_keywords("Replaced");
        adv.put_service(replacement);
        assert_eq!(adv.services.len(), 2);
        assert_eq!(adv.service("jxta.service.wire").unwrap().keywords, "Replaced");
        assert!(adv.service("jxta.service.cms").is_none());
    }

    #[test]
    fn parse_rejects_missing_gid() {
        let bad = XmlElement::new(PeerGroupAdvertisement::ROOT).text_child("Name", "x");
        assert!(PeerGroupAdvertisement::from_xml(&bad).is_err());
    }

    #[test]
    fn open_membership_is_default() {
        let adv = PeerGroupAdvertisement::new(PeerGroupId::world(), "World", PeerId::derive("x"));
        let parsed = PeerGroupAdvertisement::from_xml(&adv.to_xml()).unwrap();
        assert_eq!(parsed.membership, MembershipPolicy::Open);
    }
}

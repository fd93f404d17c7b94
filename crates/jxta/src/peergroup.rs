//! Peer groups.
//!
//! A peer group scopes resources and services. The reproduction models a
//! group as its advertisement plus lookup helpers, and provides the exact
//! construction the paper's `AdvertisementsCreator` performs: one group per
//! event type, named `ps-<TypeName>`, containing a wire service whose pipe is
//! named after the type.

use crate::adv::{
    MembershipPolicy, PeerGroupAdvertisement, PipeAdvertisement, PipeType, ServiceAdvertisement,
};
use crate::error::JxtaError;
use crate::id::{PeerGroupId, PeerId, PipeId};

/// The prefix prepended to publish/subscribe group names (the paper's
/// `PS_PREFIX`).
pub const PS_PREFIX: &str = "ps-";
/// The well-known name of the wire service inside a group.
const WIRE_SERVICE_NAME: &str = "jxta.service.wire";
/// The well-known name of the resolver service inside a group.
const RESOLVER_SERVICE_NAME: &str = "jxta.service.resolver";

/// A runtime view of a peer group: its advertisement plus service lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerGroup {
    advertisement: PeerGroupAdvertisement,
}

impl PeerGroup {
    /// Wraps an existing group advertisement.
    pub fn from_advertisement(advertisement: PeerGroupAdvertisement) -> Self {
        PeerGroup { advertisement }
    }

    /// Builds the publish/subscribe group for an event type, exactly as the
    /// paper's `AdvertisementsCreator.createPeerGroupAdvertisement` does:
    ///
    /// 1. a [`PipeAdvertisement`] whose *name is the type name*,
    /// 2. a wire [`ServiceAdvertisement`] embedding that pipe,
    /// 3. a resolver service advertisement carrying the creator's peer id,
    /// 4. a [`PeerGroupAdvertisement`] named `ps-<TypeName>` containing both.
    pub fn for_event_type(type_name: &str, creator: PeerId) -> Self {
        let pipe_id = PipeId::derive(type_name);
        let group_id = PeerGroupId::derive(&format!("{PS_PREFIX}{type_name}"));
        let pipe = PipeAdvertisement::new(pipe_id, type_name, PipeType::JxtaWire);

        let wire = ServiceAdvertisement::new(WIRE_SERVICE_NAME)
            .with_pipe(pipe)
            .with_keywords(type_name)
            .with_version("1.0");

        let mut resolver = ServiceAdvertisement::new(RESOLVER_SERVICE_NAME);
        resolver.push_param(creator.to_string());

        let mut advertisement =
            PeerGroupAdvertisement::new(group_id, format!("{PS_PREFIX}{type_name}"), creator)
                .with_rendezvous(true)
                .with_membership(MembershipPolicy::Open);
        advertisement.put_service(wire);
        advertisement.put_service(resolver);
        PeerGroup { advertisement }
    }

    /// The group's advertisement.
    pub fn advertisement(&self) -> &PeerGroupAdvertisement {
        &self.advertisement
    }

    /// The group's id.
    pub fn group_id(&self) -> PeerGroupId {
        self.advertisement.group_id
    }

    /// The group's name.
    pub fn name(&self) -> &str {
        &self.advertisement.name
    }

    /// Looks up a service by name (the paper's `lookupService`).
    ///
    /// # Errors
    ///
    /// Returns [`JxtaError::ServiceNotFound`] when the group advertisement
    /// has no such service.
    fn lookup_service(&self, name: &str) -> Result<&ServiceAdvertisement, JxtaError> {
        self.advertisement
            .service(name)
            .ok_or_else(|| JxtaError::ServiceNotFound(name.to_owned()))
    }

    /// The wire pipe of the group's wire service, if present (the paper's
    /// `WireServiceFinder.getPipeAdvertisement`).
    ///
    /// # Errors
    ///
    /// Returns [`JxtaError::ServiceNotFound`] when the group has no wire
    /// service, or [`JxtaError::UnknownPipe`] when the wire service has no
    /// pipe attached.
    pub fn wire_pipe(&self) -> Result<&PipeAdvertisement, JxtaError> {
        let wire = self.lookup_service(WIRE_SERVICE_NAME)?;
        wire.pipe
            .as_ref()
            .ok_or_else(|| JxtaError::UnknownPipe(format!("wire service of {} has no pipe", self.name())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adv::Advertisement;

    #[test]
    fn event_type_group_has_expected_structure() {
        let group = PeerGroup::for_event_type("SkiRental", PeerId::derive("shop"));
        assert_eq!(group.name(), "ps-SkiRental");
        let pipe = group.wire_pipe().unwrap();
        assert_eq!(pipe.name, "SkiRental");
        assert_eq!(pipe.pipe_type, PipeType::JxtaWire);
        let resolver = group.lookup_service(RESOLVER_SERVICE_NAME).unwrap();
        assert_eq!(resolver.params, vec![PeerId::derive("shop").to_string()]);
    }

    #[test]
    fn group_ids_are_deterministic_per_type() {
        let a = PeerGroup::for_event_type("SkiRental", PeerId::derive("shop-a"));
        let b = PeerGroup::for_event_type("SkiRental", PeerId::derive("shop-b"));
        // Different creators converge on the same group and pipe for a type,
        // which is what lets independently-started publishers and subscribers
        // find each other ("minimisation of the number of advertisements").
        assert_eq!(a.group_id(), b.group_id());
        assert_eq!(a.wire_pipe().unwrap().pipe_id, b.wire_pipe().unwrap().pipe_id);
    }

    #[test]
    fn lookup_of_missing_service_errors() {
        let group = PeerGroup::for_event_type("SkiRental", PeerId::derive("shop"));
        assert!(group.lookup_service("jxta.service.cms").is_err());
    }

    #[test]
    fn wire_pipe_requires_a_pipe() {
        let mut adv = PeerGroup::for_event_type("X", PeerId::derive("c"))
            .advertisement()
            .clone();
        adv.put_service(ServiceAdvertisement::new(WIRE_SERVICE_NAME)); // no pipe
        let group = PeerGroup::from_advertisement(adv);
        assert!(group.wire_pipe().is_err());
    }

    #[test]
    fn group_advertisement_roundtrips_through_xml() {
        let group = PeerGroup::for_event_type("SkiRental", PeerId::derive("shop"));
        let xml = group.advertisement().to_xml();
        let parsed = PeerGroupAdvertisement::from_xml(&xml).unwrap();
        assert_eq!(&parsed, group.advertisement());
    }
}

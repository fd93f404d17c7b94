//! How lookups in the advertisement cache ("cm" — content manager — in JXTA)
//! match. The cache itself, and the one rule for how long an entry lives, are
//! [`crate::services::discovery`]'s; every search of it, local or on behalf
//! of a remote query, goes through [`SearchFilter`] and [`match_pattern`].

use crate::adv::AnyAdvertisement;

/// A search filter for cache lookups: an attribute name and a value pattern.
///
/// Only the attributes JXTA discovery actually uses are supported: `"Name"`
/// (the advertisement's display name) and `"Id"` (its unique key). A trailing
/// `*` in the value makes the match a prefix match, mirroring the paper's
/// `getRemoteAdvertisements(null, GROUP, "Name", prefix + "*", ...)` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchFilter {
    /// The attribute to match (`"Name"` or `"Id"`), or `None` to match all.
    pub attribute: Option<String>,
    /// The value pattern (exact, or prefix if it ends with `*`).
    pub value: String,
}

impl SearchFilter {
    /// Matches every advertisement.
    pub fn any() -> Self {
        SearchFilter {
            attribute: None,
            value: String::new(),
        }
    }

    /// Matches advertisements whose display name matches `pattern`.
    pub fn by_name(pattern: impl Into<String>) -> Self {
        SearchFilter {
            attribute: Some("Name".to_owned()),
            value: pattern.into(),
        }
    }

    /// Whether `adv` satisfies this filter.
    pub fn matches(&self, adv: &AnyAdvertisement) -> bool {
        let Some(attribute) = &self.attribute else {
            return true;
        };
        let candidate = match attribute.as_str() {
            "Name" => adv.display_name(),
            "Id" => adv.unique_key(),
            _ => return false,
        };
        match_pattern(&self.value, &candidate)
    }
}

/// Pattern matching used by discovery: exact match, or prefix match when the
/// pattern ends with `*`, or match-everything for a bare `*`.
pub fn match_pattern(pattern: &str, candidate: &str) -> bool {
    if pattern == "*" || pattern.is_empty() {
        return true;
    }
    if let Some(prefix) = pattern.strip_suffix('*') {
        candidate.starts_with(prefix)
    } else {
        candidate == pattern
    }
}

#[cfg(test)]
mod tests {
    //! The filters are exercised against the live cache in
    //! [`crate::services::DiscoveryService`], the only thing they search.

    use super::*;
    use crate::adv::{AdvKind, PeerGroupAdvertisement, PipeAdvertisement, PipeType};
    use crate::id::{PeerGroupId, PeerId, PipeId};
    use crate::services::discovery::{DiscoveryService, DEFAULT_REMOTE_LIFETIME};
    use simnet::{SimDuration, SimTime};

    fn group(name: &str) -> AnyAdvertisement {
        PeerGroupAdvertisement::new(PeerGroupId::derive(name), name, PeerId::derive("creator")).into()
    }

    fn pipe(name: &str) -> AnyAdvertisement {
        PipeAdvertisement::new(PipeId::derive(name), name, PipeType::JxtaWire).into()
    }

    fn count(cache: &DiscoveryService, kind: AdvKind, now: SimTime) -> usize {
        cache.local(kind, &SearchFilter::any(), now).len()
    }

    #[test]
    fn publish_reports_newness_once() {
        let mut cache = DiscoveryService::new();
        assert!(cache.publish_local(group("ps-SkiRental")));
        assert!(!cache.publish_local(group("ps-SkiRental")));
        assert_eq!(count(&cache, AdvKind::Group, SimTime::ZERO), 1);
    }

    #[test]
    fn search_by_name_prefix() {
        let mut cache = DiscoveryService::new();
        let now = SimTime::ZERO;
        cache.publish_local(group("ps-SkiRental"));
        cache.publish_local(group("ps-Weather"));
        cache.publish_local(group("other"));
        let hits = cache.local(AdvKind::Group, &SearchFilter::by_name("ps-*"), now);
        assert_eq!(hits.len(), 2);
        let exact = cache.local(AdvKind::Group, &SearchFilter::by_name("ps-Weather"), now);
        assert_eq!(exact.len(), 1);
        let all = cache.local(AdvKind::Group, &SearchFilter::any(), now);
        assert_eq!(all.len(), 3);
        let wrong_kind = cache.local(AdvKind::Adv, &SearchFilter::any(), now);
        assert!(wrong_kind.is_empty());
    }

    #[test]
    fn expiration_removes_entries() {
        let mut cache = DiscoveryService::new();
        cache.absorb(vec![pipe("SkiRental")], SimTime::ZERO);
        let later = SimTime::ZERO + DEFAULT_REMOTE_LIFETIME + SimDuration::from_secs(1);
        // A lapsed entry is invisible to a search even before the purge, but
        // only the purge makes hearing it again news.
        assert_eq!(count(&cache, AdvKind::Adv, later), 0);
        assert!(cache.absorb(vec![pipe("SkiRental")], SimTime::ZERO).is_empty());
        cache.housekeep(later);
        assert_eq!(cache.absorb(vec![pipe("SkiRental")], later).len(), 1);
    }

    #[test]
    fn flush_by_kind_and_all() {
        let mut cache = DiscoveryService::new();
        let now = SimTime::ZERO;
        cache.publish_local(group("g"));
        cache.publish_local(pipe("p"));
        cache.flush(Some(AdvKind::Group));
        assert_eq!(count(&cache, AdvKind::Group, now), 0);
        assert_eq!(count(&cache, AdvKind::Adv, now), 1);
        cache.flush(None);
        assert_eq!(count(&cache, AdvKind::Adv, now), 0);
    }

    #[test]
    fn pattern_matching_semantics() {
        assert!(match_pattern("*", "anything"));
        assert!(match_pattern("", "anything"));
        assert!(match_pattern("ps-*", "ps-SkiRental"));
        assert!(!match_pattern("ps-*", "other"));
        assert!(match_pattern("exact", "exact"));
        assert!(!match_pattern("exact", "exactly"));
    }

    #[test]
    fn filter_on_unknown_attribute_matches_nothing() {
        let filter = SearchFilter {
            attribute: Some("Colour".into()),
            value: "*".into(),
        };
        assert!(!filter.matches(&group("g")));
    }
}

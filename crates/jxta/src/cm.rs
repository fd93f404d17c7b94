//! The local advertisement cache ("cm" — content manager — in JXTA).
//!
//! Every peer keeps discovered and locally-published advertisements in this
//! cache. Entries age: each carries an expiration instant, and expired
//! entries are purged lazily on access and periodically by the peer's
//! housekeeping timer, which is how stale advertisements (e.g. a peer's old
//! addresses) eventually disappear — the paper's "age to distinguish stale
//! advertisements from new ones".

use crate::adv::{AdvKind, AnyAdvertisement};
use simnet::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Default lifetime for advertisements published by the local peer.
pub const DEFAULT_LOCAL_LIFETIME: SimDuration = SimDuration::from_secs(60 * 60);
/// Default lifetime for advertisements learned from other peers.
pub const DEFAULT_REMOTE_LIFETIME: SimDuration = SimDuration::from_secs(15 * 60);

#[derive(Debug, Clone)]
struct CachedAdv {
    adv: AnyAdvertisement,
    published_at: SimTime,
    expires_at: SimTime,
}

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

/// The per-peer advertisement cache.
///
/// Both levels are ordered maps: `search`/`expire` walk them, and discovery
/// responses assembled from a walk feed directly into wire traffic — the
/// determinism contract forbids hash order there.
#[derive(Debug, Default)]
pub struct CacheManager {
    entries: BTreeMap<AdvKind, BTreeMap<String, CachedAdv>>,
}

impl CacheManager {
    /// Creates an empty cache.
    pub fn new() -> Self {
        CacheManager::default()
    }

    /// Inserts or refreshes an advertisement with the given lifetime.
    ///
    /// Returns `true` if the advertisement was not previously cached (i.e. it
    /// is "new" from this peer's point of view — the signal the discovery
    /// service uses to raise `AdvertisementDiscovered` events exactly once).
    pub fn publish(&mut self, adv: AnyAdvertisement, now: SimTime, lifetime: SimDuration) -> bool {
        let key = adv.unique_key();
        let kind = adv.kind();
        let slot = self.entries.entry(kind).or_default();
        let is_new = !slot.contains_key(&key);
        slot.insert(
            key,
            CachedAdv {
                adv,
                published_at: now,
                expires_at: now + lifetime,
            },
        );
        is_new
    }

    /// Whether [`publish`](Self::publish) would find `adv` cached already, expired or not.
    pub fn knows(&self, adv: &AnyAdvertisement) -> bool {
        self.entries
            .get(&adv.kind())
            .is_some_and(|slot| slot.contains_key(&adv.unique_key()))
    }

    /// Whether an advertisement with this kind and unique key is cached and
    /// not yet expired.
    pub fn contains(&self, kind: AdvKind, key: &str, now: SimTime) -> bool {
        self.entries
            .get(&kind)
            .and_then(|m| m.get(key))
            .is_some_and(|c| c.expires_at > now)
    }

    /// Returns all live advertisements of `kind` matching `filter`.
    pub fn search(&self, kind: AdvKind, filter: &SearchFilter, now: SimTime) -> Vec<AnyAdvertisement> {
        let Some(slot) = self.entries.get(&kind) else {
            return Vec::new();
        };
        // BTreeMap iteration is already key-ordered — deterministic without
        // an explicit sort.
        slot.values()
            .filter(|c| c.expires_at > now && filter.matches(&c.adv))
            .map(|c| c.adv.clone())
            .collect()
    }

    /// Returns all live advertisements of `kind`.
    pub fn all(&self, kind: AdvKind, now: SimTime) -> Vec<AnyAdvertisement> {
        self.search(kind, &SearchFilter::any(), now)
    }

    /// The age of a cached advertisement, if present.
    pub fn age(&self, kind: AdvKind, key: &str, now: SimTime) -> Option<SimDuration> {
        self.entries
            .get(&kind)
            .and_then(|m| m.get(key))
            .map(|c| now.saturating_since(c.published_at))
    }

    /// Discards every advertisement of `kind`; with `None`, the entire cache
    /// (the paper's `flushAdvertisements(null, ...)` calls).
    pub fn flush(&mut self, kind: Option<AdvKind>) {
        match kind {
            Some(kind) => {
                self.entries.remove(&kind);
            }
            None => self.entries.clear(),
        }
    }

    /// Removes expired entries; returns how many were removed.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let mut removed = 0;
        for slot in self.entries.values_mut() {
            let before = slot.len();
            slot.retain(|_, c| c.expires_at > now);
            removed += before - slot.len();
        }
        removed
    }

    /// The number of live entries of a kind.
    pub fn len(&self, kind: AdvKind, now: SimTime) -> usize {
        self.entries
            .get(&kind)
            .map_or(0, |m| m.values().filter(|c| c.expires_at > now).count())
    }

    /// Whether the cache holds no live entries at all.
    pub fn is_empty(&self, now: SimTime) -> bool {
        AdvKind::ALL.iter().all(|k| self.len(*k, now) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adv::{PeerGroupAdvertisement, PipeAdvertisement, PipeType};
    use crate::id::{PeerGroupId, PeerId, PipeId};

    fn group(name: &str) -> AnyAdvertisement {
        PeerGroupAdvertisement::new(PeerGroupId::derive(name), name, PeerId::derive("creator")).into()
    }

    fn pipe(name: &str) -> AnyAdvertisement {
        PipeAdvertisement::new(PipeId::derive(name), name, PipeType::JxtaWire).into()
    }

    #[test]
    fn publish_reports_newness_once() {
        let mut cm = CacheManager::new();
        let now = SimTime::ZERO;
        assert!(cm.publish(group("ps-SkiRental"), now, DEFAULT_LOCAL_LIFETIME));
        assert!(!cm.publish(group("ps-SkiRental"), now, DEFAULT_LOCAL_LIFETIME));
        assert_eq!(cm.len(AdvKind::Group, now), 1);
    }

    #[test]
    fn search_by_name_prefix() {
        let mut cm = CacheManager::new();
        let now = SimTime::ZERO;
        cm.publish(group("ps-SkiRental"), now, DEFAULT_LOCAL_LIFETIME);
        cm.publish(group("ps-Weather"), now, DEFAULT_LOCAL_LIFETIME);
        cm.publish(group("other"), now, DEFAULT_LOCAL_LIFETIME);
        let hits = cm.search(AdvKind::Group, &SearchFilter::by_name("ps-*"), now);
        assert_eq!(hits.len(), 2);
        let exact = cm.search(AdvKind::Group, &SearchFilter::by_name("ps-Weather"), now);
        assert_eq!(exact.len(), 1);
        let all = cm.search(AdvKind::Group, &SearchFilter::any(), now);
        assert_eq!(all.len(), 3);
        let wrong_kind = cm.search(AdvKind::Adv, &SearchFilter::any(), now);
        assert!(wrong_kind.is_empty());
    }

    #[test]
    fn expiration_removes_entries() {
        let mut cm = CacheManager::new();
        cm.publish(pipe("SkiRental"), SimTime::ZERO, SimDuration::from_secs(10));
        let later = SimTime::from_secs(11);
        assert!(!cm.contains(AdvKind::Adv, &pipe("SkiRental").unique_key(), later));
        assert_eq!(cm.search(AdvKind::Adv, &SearchFilter::any(), later).len(), 0);
        assert_eq!(cm.expire(later), 1);
        assert!(cm.is_empty(later));
    }

    #[test]
    fn age_tracks_publication_time() {
        let mut cm = CacheManager::new();
        let adv = pipe("SkiRental");
        cm.publish(adv.clone(), SimTime::from_secs(5), DEFAULT_LOCAL_LIFETIME);
        let age = cm
            .age(AdvKind::Adv, &adv.unique_key(), SimTime::from_secs(9))
            .unwrap();
        assert_eq!(age, SimDuration::from_secs(4));
        assert!(cm.age(AdvKind::Adv, "missing", SimTime::ZERO).is_none());
    }

    #[test]
    fn flush_by_kind_and_all() {
        let mut cm = CacheManager::new();
        let now = SimTime::ZERO;
        cm.publish(group("g"), now, DEFAULT_LOCAL_LIFETIME);
        cm.publish(pipe("p"), now, DEFAULT_LOCAL_LIFETIME);
        cm.flush(Some(AdvKind::Group));
        assert_eq!(cm.len(AdvKind::Group, now), 0);
        assert_eq!(cm.len(AdvKind::Adv, now), 1);
        cm.flush(None);
        assert!(cm.is_empty(now));
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

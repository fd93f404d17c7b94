//! The discovery service: the peer's advertisement cache and the logic of
//! the Peer Discovery Protocol.
//!
//! `publish` writes to the cache ("stable storage"); `remotePublish`
//! additionally pushes the advertisement to other peers; remote queries ask
//! other peers to search *their* caches. Incoming advertisements are absorbed
//! into the cache and reported upward exactly once each (newness), which is
//! what the paper's `AdvertisementsFinder.handleNewAdvertisement` relies on.
//!
//! # One owner, one clock
//!
//! Every cached advertisement lives here, under the stack's only lifetime
//! rule. What this peer **authored** ([`DiscoveryService::publish_local`],
//! [`DiscoveryService::remote_publish`]: its own peer advertisement, its
//! groups, its pipes) lives as long as the peer runs; only `flush` removes
//! it. What it **learned** ([`DiscoveryService::absorb`]) lapses
//! [`DEFAULT_REMOTE_LIFETIME`] after it was last heard — the paper's "age to
//! distinguish stale advertisements from new ones" — and never replaces or
//! demotes an authored entry with the same key. What it **remote-published**
//! comes due for another push every [`REFRESH_INTERVAL`]: the housekeeping
//! tick collects it ([`DiscoveryService::housekeep`]) and sends it down the
//! push path `remote_publish` used. The schedule is part of the cache entry:
//! there is no second list, and no second copy of any advertisement.

use crate::adv::{AdvKind, AnyAdvertisement};
use crate::cm::SearchFilter;
use crate::protocols::pdp::{DiscoveryQuery, DiscoveryResponse};
use simnet::{SimDuration, SimTime};
use std::collections::btree_map::{BTreeMap, Entry};

/// How long a learned advertisement is kept after it was last heard.
pub const DEFAULT_REMOTE_LIFETIME: SimDuration = SimDuration::from_secs(15 * 60);

/// How often a remote-published advertisement is pushed again: a third of
/// the time its receivers keep it, so two refreshes in a row can be lost.
pub const REFRESH_INTERVAL: SimDuration = SimDuration::from_micros(DEFAULT_REMOTE_LIFETIME.as_micros() / 3);

/// Which half of the lifetime rule an entry is under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Clock {
    /// Heard from another peer; lapses at this instant unless heard again.
    Learned { expires_at: SimTime },
    /// Authored by this peer and kept to itself.
    Authored,
    /// Authored and remote-published; the next push is due at this instant.
    Pushed { due: SimTime },
}

/// One cache entry; it sits inline in the B-tree leaves of every peer's
/// cache, so a test pins its size.
#[derive(Debug)]
struct CachedAdv {
    adv: AnyAdvertisement,
    clock: Clock,
}

impl CachedAdv {
    fn is_live(&self, now: SimTime) -> bool {
        !matches!(self.clock, Clock::Learned { expires_at } if expires_at <= now)
    }
}

/// The per-peer discovery service.
///
/// Both levels of the cache are ordered maps: searches and the refresh walk
/// them, and what they find feeds directly into wire traffic — the
/// determinism contract forbids hash order there.
#[derive(Debug, Default)]
pub struct DiscoveryService {
    entries: BTreeMap<AdvKind, BTreeMap<String, CachedAdv>>,
}

impl DiscoveryService {
    /// Creates a discovery service with an empty cache.
    pub fn new() -> Self {
        DiscoveryService::default()
    }

    fn slot(&mut self, adv: &AnyAdvertisement) -> Entry<'_, String, CachedAdv> {
        self.entries
            .entry(adv.kind())
            .or_default()
            .entry(adv.unique_key())
    }

    /// Caches an advertisement this peer authored, for itself only.
    ///
    /// Returns `true` if nothing was cached under its key before; publishing
    /// again replaces the content and keeps a remote-published entry's
    /// push schedule.
    pub fn publish_local(&mut self, adv: AnyAdvertisement) -> bool {
        match self.slot(&adv) {
            Entry::Vacant(slot) => {
                slot.insert(CachedAdv {
                    adv,
                    clock: Clock::Authored,
                });
                true
            }
            Entry::Occupied(mut slot) => {
                let cached = slot.get_mut();
                cached.adv = adv;
                if let Clock::Learned { .. } = cached.clock {
                    cached.clock = Clock::Authored;
                }
                false
            }
        }
    }

    /// Caches an advertisement this peer authored and is pushing to the
    /// network right now; the next push is due one [`REFRESH_INTERVAL`] on.
    pub fn remote_publish(&mut self, adv: AnyAdvertisement, now: SimTime) {
        let clock = Clock::Pushed {
            due: now + REFRESH_INTERVAL,
        };
        let key = adv.unique_key();
        self.entries
            .entry(adv.kind())
            .or_default()
            .insert(key, CachedAdv { adv, clock });
    }

    /// One housekeeping pass over the cache: learned entries whose lifetime
    /// has lapsed are dropped, and the XML of every remote-published
    /// advertisement whose push is due is returned, in kind-then-key order,
    /// each rescheduled one [`REFRESH_INTERVAL`] on.
    pub fn housekeep(&mut self, now: SimTime) -> Vec<String> {
        let mut due_xml = Vec::new();
        for slot in self.entries.values_mut() {
            slot.retain(|_, cached| {
                if let Clock::Pushed { due } = &mut cached.clock {
                    if *due <= now {
                        *due = now.saturating_add(REFRESH_INTERVAL);
                        due_xml.push(cached.adv.to_xml_string());
                    }
                }
                cached.is_live(now)
            });
        }
        due_xml
    }

    /// Searches the cache (`getLocalAdvertisements`): every live
    /// advertisement of `kind` matching `filter`, in key order.
    pub fn local(&self, kind: AdvKind, filter: &SearchFilter, now: SimTime) -> Vec<AnyAdvertisement> {
        let Some(slot) = self.entries.get(&kind) else {
            return Vec::new();
        };
        slot.values()
            .filter(|c| c.is_live(now) && filter.matches(&c.adv))
            .map(|c| c.adv.clone())
            .collect()
    }

    /// Discards every advertisement of `kind`, authored ones included; with
    /// `None`, the entire cache (the paper's `flushAdvertisements(null, ...)`).
    pub fn flush(&mut self, kind: Option<AdvKind>) {
        match kind {
            Some(kind) => {
                self.entries.remove(&kind);
            }
            None => self.entries.clear(),
        }
    }

    /// Answers a remote discovery query from the cache, honouring the
    /// query's threshold.
    pub fn answer(&self, query: &DiscoveryQuery, now: SimTime) -> Vec<AnyAdvertisement> {
        let mut hits = self.local(query.kind, &query.filter, now);
        hits.truncate(query.threshold);
        hits
    }

    /// Absorbs advertisements from a discovery response or an unsolicited
    /// push; returns only the ones that were new to this peer. A known learned
    /// entry starts its lifetime afresh; an authored one is left as it is.
    pub fn absorb(&mut self, advertisements: Vec<AnyAdvertisement>, now: SimTime) -> Vec<AnyAdvertisement> {
        let clock = Clock::Learned {
            expires_at: now + DEFAULT_REMOTE_LIFETIME,
        };
        let mut fresh = Vec::new();
        for adv in advertisements {
            match self.slot(&adv) {
                // The cache takes the advertisement itself; only one it did
                // not know is copied, for the caller.
                Entry::Vacant(slot) => {
                    fresh.push(adv.clone());
                    slot.insert(CachedAdv { adv, clock });
                }
                Entry::Occupied(mut slot) => {
                    let cached = slot.get_mut();
                    if let Clock::Learned { .. } = cached.clock {
                        *cached = CachedAdv { adv, clock };
                    }
                }
            }
        }
        fresh
    }

    /// Absorbs a full discovery response (advertisements plus the responder's
    /// own peer advertisement).
    pub fn absorb_response(&mut self, response: DiscoveryResponse, now: SimTime) -> Vec<AnyAdvertisement> {
        let mut advs = response.advertisements;
        advs.push(response.responder.into());
        self.absorb(advs, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adv::{PeerAdvertisement, PeerGroupAdvertisement};
    use crate::id::{PeerGroupId, PeerId};

    fn group_by(name: &str, creator: &str) -> AnyAdvertisement {
        PeerGroupAdvertisement::new(PeerGroupId::derive(name), name, PeerId::derive(creator)).into()
    }

    fn group(name: &str) -> AnyAdvertisement {
        group_by(name, "creator")
    }

    fn requester() -> PeerAdvertisement {
        PeerAdvertisement::new(PeerId::derive("req"), "req", PeerGroupId::world())
    }

    fn groups(ds: &DiscoveryService, now: SimTime) -> Vec<AnyAdvertisement> {
        ds.local(AdvKind::Group, &SearchFilter::any(), now)
    }

    /// Entries held, lapsed or not.
    fn held(ds: &DiscoveryService) -> usize {
        ds.entries.values().map(BTreeMap::len).sum()
    }

    /// Keys are derived ids, not names: the order the cache walks them in.
    fn in_key_order(mut advs: Vec<AnyAdvertisement>) -> Vec<AnyAdvertisement> {
        advs.sort_by_key(AnyAdvertisement::unique_key);
        advs
    }

    #[test]
    fn answer_honours_threshold_and_filter() {
        let mut ds = DiscoveryService::new();
        let now = SimTime::ZERO;
        for i in 0..10 {
            ds.publish_local(group(&format!("ps-Group{i}")));
        }
        ds.publish_local(group("unrelated"));
        let query = DiscoveryQuery::new(AdvKind::Group, SearchFilter::by_name("ps-*"), 4, requester());
        let hits = ds.answer(&query, now);
        assert_eq!(hits.len(), 4);
        assert!(hits.iter().all(|a| a.display_name().starts_with("ps-")));
    }

    #[test]
    fn absorb_reports_only_new_advertisements() {
        let mut ds = DiscoveryService::new();
        let now = SimTime::ZERO;
        let fresh = ds.absorb(vec![group("a"), group("b")], now);
        assert_eq!(fresh.len(), 2);
        let again = ds.absorb(vec![group("a"), group("c")], now);
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].display_name(), "c");
    }

    #[test]
    fn absorb_response_includes_responder_peer_adv() {
        let mut ds = DiscoveryService::new();
        let now = SimTime::ZERO;
        let response = DiscoveryResponse::new(AdvKind::Group, vec![group("g")], requester());
        let fresh = ds.absorb_response(response, now);
        assert_eq!(fresh.len(), 2);
        assert_eq!(ds.local(AdvKind::Peer, &SearchFilter::any(), now).len(), 1);
    }

    /// Until the cache got one lifetime rule this test asserted that an
    /// *authored* entry expired (after 60 minutes — the cliff a long-running
    /// peer fell off). Now only what was learned expires; `flush` is still
    /// the paper's `flushAdvertisements` and removes authored entries too.
    #[test]
    fn flush_and_expire() {
        let mut ds = DiscoveryService::new();
        let now = SimTime::ZERO;
        ds.publish_local(group("a"));
        ds.flush(Some(AdvKind::Group));
        assert!(groups(&ds, now).is_empty());
        ds.publish_local(group("b"));
        ds.absorb(vec![group("c")], now);
        let far_future = SimTime::from_secs(100_000);
        assert!(ds.housekeep(far_future).is_empty());
        assert_eq!(held(&ds), 1);
        assert_eq!(groups(&ds, far_future), vec![group("b")]);
        ds.flush(None);
        assert!(groups(&ds, far_future).is_empty());
    }

    #[test]
    fn what_a_peer_authored_lives_as_long_as_it_runs() {
        let mut ds = DiscoveryService::new();
        ds.publish_local(group("kept-to-itself"));
        ds.remote_publish(group("pushed"), SimTime::ZERO);
        ds.housekeep(SimTime::from_micros(u64::MAX - 1));
        assert_eq!(held(&ds), 2);
        assert_eq!(groups(&ds, SimTime::MAX).len(), 2);
    }

    #[test]
    fn what_a_peer_learned_lapses_unless_heard_again() {
        let mut ds = DiscoveryService::new();
        ds.absorb(vec![group("heard-once"), group("heard-twice")], SimTime::ZERO);
        let later = SimTime::ZERO + REFRESH_INTERVAL;
        ds.absorb(vec![group("heard-twice")], later);
        let lapse = SimTime::ZERO + DEFAULT_REMOTE_LIFETIME;
        assert_eq!(groups(&ds, lapse), vec![group("heard-twice")]);
        assert_eq!(held(&ds), 2, "lapsed, not yet purged");
        ds.housekeep(lapse);
        assert_eq!(held(&ds), 1);
        ds.housekeep(later + DEFAULT_REMOTE_LIFETIME);
        assert_eq!(held(&ds), 0);
    }

    /// Every TPS peer authors a `ps-<Type>` group under the same key; the
    /// first one it heard from somebody else used to overwrite its own, with
    /// a 15-minute life.
    #[test]
    fn a_learned_copy_neither_replaces_nor_demotes_an_authored_entry() {
        let mut ds = DiscoveryService::new();
        let now = SimTime::ZERO;
        ds.publish_local(group_by("ps-Type", "me"));
        ds.remote_publish(group_by("ps-Other", "me"), now);
        let fresh = ds.absorb(
            vec![
                group_by("ps-Type", "someone-else"),
                group_by("ps-Other", "someone-else"),
            ],
            now,
        );
        assert!(
            fresh.is_empty(),
            "a same-key copy of an authored entry is not news"
        );
        // Still on the push schedule, with the authored content.
        let far_future = SimTime::from_secs(100_000);
        assert_eq!(
            ds.housekeep(far_future),
            vec![group_by("ps-Other", "me").to_xml_string()]
        );
        assert_eq!(
            groups(&ds, far_future),
            in_key_order(vec![group_by("ps-Other", "me"), group_by("ps-Type", "me")])
        );
        // The other way round, authoring takes a learned entry over.
        ds.absorb(vec![group("heard-first")], now);
        assert!(!ds.publish_local(group_by("heard-first", "me")));
        ds.housekeep(far_future);
        assert_eq!(held(&ds), 3);
    }

    #[test]
    fn pushes_come_due_once_per_interval_in_key_order() {
        let mut ds = DiscoveryService::new();
        let start = SimTime::from_secs(7);
        ds.remote_publish(group("b"), start);
        ds.remote_publish(requester().into(), start);
        ds.remote_publish(group("a"), start);
        ds.publish_local(group("never-pushed"));
        ds.absorb(vec![group("learned")], start);
        let due_at = start + REFRESH_INTERVAL;
        assert!(ds
            .housekeep(SimTime::from_micros(due_at.as_micros() - 1))
            .is_empty());
        // Kind order (peers before groups), then key order within a kind.
        let mut expected = vec![AnyAdvertisement::from(requester())];
        expected.extend(in_key_order(vec![group("a"), group("b")]));
        let expected: Vec<String> = expected.iter().map(AnyAdvertisement::to_xml_string).collect();
        let late = due_at + SimDuration::from_secs(30);
        assert_eq!(ds.housekeep(late), expected);
        assert!(ds.housekeep(late).is_empty(), "once per interval");
        assert!(ds
            .housekeep(SimTime::from_micros((late + REFRESH_INTERVAL).as_micros() - 1))
            .is_empty());
        assert_eq!(ds.housekeep(late + REFRESH_INTERVAL), expected);
        // Publishing again locally (new content) keeps the schedule.
        ds.publish_local(group_by("a", "moved"));
        let third = ds.housekeep(late + REFRESH_INTERVAL + REFRESH_INTERVAL);
        assert_eq!(third.len(), 3);
        assert!(third.contains(&group_by("a", "moved").to_xml_string()));
    }

    #[test]
    fn the_refresh_interval_is_a_third_of_the_learned_lifetime() {
        assert_eq!(REFRESH_INTERVAL, SimDuration::from_secs(5 * 60));
        assert_eq!(
            REFRESH_INTERVAL + REFRESH_INTERVAL + REFRESH_INTERVAL,
            DEFAULT_REMOTE_LIFETIME
        );
    }

    /// The entry sits inline, 11 to a B-tree leaf, in every peer's cache:
    /// 240 bytes is what it measured before the push state moved in (an
    /// advertisement plus two instants), and it must not grow.
    #[test]
    fn a_cache_entry_is_no_larger_than_before_it_carried_the_push_state() {
        assert!(std::mem::size_of::<CachedAdv>() <= 240);
        assert_eq!(std::mem::size_of::<Clock>(), 16);
    }
}

//! The discovery service: local advertisement cache plus the logic of the
//! Peer Discovery Protocol.
//!
//! `publish` writes to the local cache ("stable storage"); `remotePublish`
//! additionally pushes the advertisement to other peers; remote queries ask
//! other peers to search *their* caches. Incoming advertisements are absorbed
//! into the cache and reported upward exactly once each (newness), which is
//! what the paper's `AdvertisementsFinder.handleNewAdvertisement` relies on.

use crate::adv::{AdvKind, AnyAdvertisement};
use crate::cm::{CacheManager, SearchFilter, DEFAULT_LOCAL_LIFETIME, DEFAULT_REMOTE_LIFETIME};
use crate::protocols::pdp::{DiscoveryQuery, DiscoveryResponse};
use simnet::{SimDuration, SimTime};

/// The per-peer discovery service.
#[derive(Debug)]
pub struct DiscoveryService {
    cache: CacheManager,
    local_lifetime: SimDuration,
    remote_lifetime: SimDuration,
    queries_sent: u64,
    queries_answered: u64,
    responses_absorbed: u64,
}

impl Default for DiscoveryService {
    fn default() -> Self {
        DiscoveryService::new()
    }
}

impl DiscoveryService {
    /// Creates a discovery service with default advertisement lifetimes.
    pub fn new() -> Self {
        DiscoveryService {
            cache: CacheManager::new(),
            local_lifetime: DEFAULT_LOCAL_LIFETIME,
            remote_lifetime: DEFAULT_REMOTE_LIFETIME,
            queries_sent: 0,
            queries_answered: 0,
            responses_absorbed: 0,
        }
    }

    /// Publishes an advertisement to the local cache only.
    ///
    /// Returns `true` if it was not already cached.
    pub fn publish_local(&mut self, adv: AnyAdvertisement, now: SimTime) -> bool {
        self.cache.publish(adv, now, self.local_lifetime)
    }

    /// Searches the local cache (`getLocalAdvertisements`).
    pub fn local(&self, kind: AdvKind, filter: &SearchFilter, now: SimTime) -> Vec<AnyAdvertisement> {
        self.cache.search(kind, filter, now)
    }

    /// Discards cached advertisements (`flushAdvertisements`).
    pub fn flush(&mut self, kind: Option<AdvKind>) {
        self.cache.flush(kind);
    }

    /// Answers a remote discovery query from the local cache, honouring the
    /// query's threshold.
    pub fn answer(&mut self, query: &DiscoveryQuery, now: SimTime) -> Vec<AnyAdvertisement> {
        self.queries_answered += 1;
        let mut hits = self.cache.search(query.kind, &query.filter, now);
        hits.truncate(query.threshold);
        hits
    }

    /// Absorbs advertisements from a discovery response or an unsolicited
    /// push; returns only the ones that were new to this peer.
    pub fn absorb(&mut self, advertisements: Vec<AnyAdvertisement>, now: SimTime) -> Vec<AnyAdvertisement> {
        self.responses_absorbed += 1;
        let mut fresh = Vec::new();
        for adv in advertisements {
            // The cache takes the advertisement itself; only one it did not
            // know is copied, for the caller.
            if !self.cache.knows(&adv) {
                fresh.push(adv.clone());
            }
            self.cache.publish(adv, now, self.remote_lifetime);
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

    /// Notes that a remote query was issued (statistics only).
    pub fn note_query_sent(&mut self) {
        self.queries_sent += 1;
    }

    /// Removes expired cache entries.
    pub fn expire(&mut self, now: SimTime) -> usize {
        self.cache.expire(now)
    }

    /// Direct read access to the cache (used by tests and the peer platform).
    pub fn cache(&self) -> &CacheManager {
        &self.cache
    }

    /// Counters: `(queries_sent, queries_answered, responses_absorbed)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.queries_sent, self.queries_answered, self.responses_absorbed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adv::{PeerAdvertisement, PeerGroupAdvertisement};
    use crate::id::{PeerGroupId, PeerId};

    fn group(name: &str) -> AnyAdvertisement {
        PeerGroupAdvertisement::new(PeerGroupId::derive(name), name, PeerId::derive("creator")).into()
    }

    fn requester() -> PeerAdvertisement {
        PeerAdvertisement::new(PeerId::derive("req"), "req", PeerGroupId::world())
    }

    #[test]
    fn answer_honours_threshold_and_filter() {
        let mut ds = DiscoveryService::new();
        let now = SimTime::ZERO;
        for i in 0..10 {
            ds.publish_local(group(&format!("ps-Group{i}")), now);
        }
        ds.publish_local(group("unrelated"), now);
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

    #[test]
    fn flush_and_expire() {
        let mut ds = DiscoveryService::new();
        let now = SimTime::ZERO;
        ds.publish_local(group("a"), now);
        ds.flush(Some(AdvKind::Group));
        assert!(ds.local(AdvKind::Group, &SearchFilter::any(), now).is_empty());
        ds.publish_local(group("b"), now);
        let far_future = SimTime::from_secs(100_000);
        assert_eq!(ds.expire(far_future), 1);
    }

    #[test]
    fn counters_track_activity() {
        let mut ds = DiscoveryService::new();
        ds.note_query_sent();
        ds.answer(
            &DiscoveryQuery::new(AdvKind::Adv, SearchFilter::any(), 1, requester()),
            SimTime::ZERO,
        );
        ds.absorb(vec![], SimTime::ZERO);
        assert_eq!(ds.counters(), (1, 1, 1));
    }
}

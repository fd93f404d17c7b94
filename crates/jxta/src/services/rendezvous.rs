//! The rendezvous service.
//!
//! Rendezvous peers "keep track of information about peers that are
//! connected" and "are mainly used to dispatch information and discovery
//! queries between peers" (paper, Section 2.1). Ordinary (edge) peers connect
//! to a rendezvous, obtain a lease, renew it periodically, and use the
//! rendezvous to propagate queries, advertisement pushes and wire traffic
//! beyond their own subnet.

use crate::endpoint::first_local;
use crate::id::{PeerId, Uuid};
use crate::lease::{Lease, LeaseClient, LeasePolicy};
use crate::seen::SeenWindow;
use simnet::{SimAddress, SimDuration, SimTime, TransportKind};
use std::collections::BTreeMap;
use telemetry::LoadReport;

/// Default lease granted to connected clients.
const DEFAULT_LEASE: SimDuration = SimDuration::from_secs(120);
/// How many ids the duplicate-suppression window remembers.
pub const SEEN_WINDOW: usize = 4096;

/// A client registered with a rendezvous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientLease {
    /// The client's endpoints at connect time.
    pub endpoints: Vec<SimAddress>,
    /// When the lease expires unless renewed.
    pub expires_at: SimTime,
}

/// One row of a rendezvous peer's shard load table: the latest
/// [`LoadReport`] gossiped by a fellow rendezvous over a mesh link, with
/// when and where it was heard. Entries survive mesh-link removal so the
/// rebalancing layer can still name (and re-probe) a dead shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoadEntry {
    /// The reported load.
    pub report: LoadReport,
    /// When the report arrived.
    pub last_heard: SimTime,
    /// The address the reporting rendezvous was reachable at.
    pub address: SimAddress,
}

/// Per-peer rendezvous state (both roles: edge client and rendezvous).
#[derive(Debug)]
pub struct RendezvousService {
    is_rendezvous: bool,
    /// The edge half of the lease protocol. Its seed list doubles as the
    /// fellow-rendezvous list in the rendezvous role.
    lease: LeaseClient,
    clients: BTreeMap<PeerId, ClientLease>,
    mesh_links: BTreeMap<PeerId, SimAddress>,
    seen: SeenWindow,
    propagated: u64,
    duplicates_dropped: u64,
    load_table: BTreeMap<PeerId, ShardLoadEntry>,
    client_reports: BTreeMap<PeerId, LoadReport>,
    mesh_hellos_sent: u64,
}

impl RendezvousService {
    /// Creates the service. `is_rendezvous` selects the role; edge peers pass
    /// the addresses of seed rendezvous peers they should connect to. The
    /// edge lease follows the default (direct fan-out) policy.
    pub fn new(is_rendezvous: bool, seed_addresses: Vec<SimAddress>) -> Self {
        let policy = LeasePolicy::full_peer(&dissem::DisseminationConfig::default());
        Self::with_lease_policy(is_rendezvous, seed_addresses, policy)
    }

    /// Creates the service with an explicit edge lease policy.
    pub fn with_lease_policy(
        is_rendezvous: bool,
        seed_addresses: Vec<SimAddress>,
        policy: LeasePolicy,
    ) -> Self {
        RendezvousService {
            is_rendezvous,
            lease: LeaseClient::new(seed_addresses, policy),
            clients: BTreeMap::new(),
            mesh_links: BTreeMap::new(),
            seen: SeenWindow::new(SEEN_WINDOW),
            propagated: 0,
            duplicates_dropped: 0,
            load_table: BTreeMap::new(),
            client_reports: BTreeMap::new(),
            mesh_hellos_sent: 0,
        }
    }

    /// Whether this peer offers rendezvous service.
    pub fn is_rendezvous(&self) -> bool {
        self.is_rendezvous
    }

    /// The seed rendezvous addresses this edge peer should connect to.
    pub fn seed_addresses(&self) -> &[SimAddress] {
        self.lease.seeds()
    }

    /// The edge-side lease state machine (read access).
    pub fn lease(&self) -> &LeaseClient {
        &self.lease
    }

    /// The edge-side lease state machine, for the owning peer to drive.
    pub fn lease_mut(&mut self) -> &mut LeaseClient {
        &mut self.lease
    }

    /// The rendezvous this edge peer is connected to, if any.
    pub fn connection(&self) -> Option<&Lease> {
        self.lease.lease()
    }

    /// Registers (or refreshes) a client lease; returns the lease duration.
    pub fn register_client(&mut self, peer: PeerId, endpoints: Vec<SimAddress>, now: SimTime) -> SimDuration {
        self.clients.insert(
            peer,
            ClientLease {
                endpoints,
                expires_at: now + DEFAULT_LEASE,
            },
        );
        DEFAULT_LEASE
    }

    /// Fills `out` with each client's forwarding target — its first endpoint
    /// matching one of `transports` — in deterministic (peer-id) order,
    /// skipping clients with no usable endpoint. The buffer is cleared
    /// first; callers keep a reusable scratch so the per-event fan-down of a
    /// 100k-client lease table allocates nothing and never clones a lease's
    /// endpoint list.
    pub fn collect_client_targets(&self, transports: &[TransportKind], out: &mut Vec<(PeerId, SimAddress)>) {
        out.clear();
        out.extend(
            self.clients
                .iter()
                .filter_map(|(peer, lease)| Some((*peer, first_local(&lease.endpoints, transports)?))),
        );
    }

    /// The ids of the currently connected clients, in deterministic
    /// (peer-id) order; the lease table is ordered, so this is a plain
    /// collect.
    pub fn client_ids(&self) -> Vec<PeerId> {
        self.clients.keys().copied().collect()
    }

    /// Whether `peer` currently holds a client lease.
    pub fn has_client(&self, peer: PeerId) -> bool {
        self.clients.contains_key(&peer)
    }

    /// The endpoints a connected client registered, if it is connected.
    pub fn client_endpoints(&self, peer: PeerId) -> Option<&[SimAddress]> {
        self.clients.get(&peer).map(|l| l.endpoints.as_slice())
    }

    // ------------------------------------------------------------------
    // rendezvous-to-rendezvous mesh links (sharded deployments)
    // ------------------------------------------------------------------

    /// Records (or refreshes) a mesh link to a fellow rendezvous peer.
    /// Returns `true` the first time the peer is seen. Mesh links are
    /// address-scoped, not leased: they are refreshed by the periodic mesh
    /// hello and only dropped explicitly ([`RendezvousService::remove_mesh_link`]).
    pub fn add_mesh_link(&mut self, peer: PeerId, address: SimAddress) -> bool {
        self.mesh_links.insert(peer, address).is_none()
    }

    /// Drops a mesh link (fault handling, topology change).
    pub fn remove_mesh_link(&mut self, peer: PeerId) {
        self.mesh_links.remove(&peer);
    }

    /// The ids of the rendezvous peers this peer keeps mesh links with, in
    /// deterministic (peer-id) order.
    pub fn mesh_link_ids(&self) -> Vec<PeerId> {
        self.mesh_links.keys().copied().collect()
    }

    /// Every mesh link as `(peer, address)`, in deterministic (peer-id)
    /// order.
    pub fn mesh_links(&self) -> Vec<(PeerId, SimAddress)> {
        self.mesh_links
            .iter()
            .map(|(peer, addr)| (*peer, *addr))
            .collect()
    }

    /// The address a mesh-linked rendezvous peer is reached at.
    pub fn mesh_link_address(&self, peer: PeerId) -> Option<SimAddress> {
        self.mesh_links.get(&peer).copied()
    }

    /// Whether `peer` is a mesh-linked rendezvous.
    pub fn has_mesh_link(&self, peer: PeerId) -> bool {
        self.mesh_links.contains_key(&peer)
    }

    /// Number of live mesh links.
    pub fn mesh_degree(&self) -> usize {
        self.mesh_links.len()
    }

    /// Whether a mesh link to the given address is already established —
    /// the housekeeping tick only re-announces to seed addresses that are
    /// *not*, which is what keeps steady-state mesh chatter down.
    pub fn has_mesh_link_at(&self, address: SimAddress) -> bool {
        self.mesh_links.values().any(|&a| a == address)
    }

    /// Counts one outgoing mesh hello (link announcement).
    pub fn note_mesh_hello(&mut self) {
        self.mesh_hellos_sent += 1;
    }

    /// Total mesh hellos sent since boot. The throttling test pins this
    /// down: once every link is established, the counter stops growing.
    pub fn mesh_hellos_sent(&self) -> u64 {
        self.mesh_hellos_sent
    }

    // ------------------------------------------------------------------
    // the load-report plane (rendezvous role)
    // ------------------------------------------------------------------

    /// Records a load report gossiped by a fellow rendezvous (including this
    /// peer's own entry, recorded locally every tick).
    pub fn record_shard_load(&mut self, peer: PeerId, address: SimAddress, report: LoadReport, now: SimTime) {
        self.load_table.insert(
            peer,
            ShardLoadEntry {
                report,
                last_heard: now,
                address,
            },
        );
    }

    /// Records a load report received from a lease client; aggregated into
    /// this shard's own report by [`RendezvousService::own_load`].
    pub fn record_client_load(&mut self, peer: PeerId, report: LoadReport) {
        self.client_reports.insert(peer, report);
    }

    /// The per-shard load table, in deterministic (peer-id) order.
    pub fn load_table(&self) -> Vec<(PeerId, ShardLoadEntry)> {
        self.load_table.iter().map(|(p, e)| (*p, *e)).collect()
    }

    /// The load-table entry for one rendezvous, if it ever reported.
    pub fn shard_load(&self, peer: PeerId) -> Option<&ShardLoadEntry> {
        self.load_table.get(&peer)
    }

    /// This peer's own load report: relay counter and lease fan-out, with
    /// the client-reported figures folded in (mailbox depth aggregates as a
    /// maximum so one backed-up client is visible shard-wide).
    pub fn own_load(&self, mailbox_depth: u32, wire_relayed: u64) -> LoadReport {
        let mut load = LoadReport {
            events_relayed: self.propagated + wire_relayed,
            fan_out: (self.clients.len() + self.mesh_links.len()) as u32,
            mailbox_depth,
            lease_count: self.clients.len() as u32,
        };
        for report in self.client_reports.values() {
            load.mailbox_depth = load.mailbox_depth.max(report.mailbox_depth);
        }
        load
    }

    /// Removes expired client leases (and their load reports); returns how
    /// many were dropped.
    pub fn prune(&mut self, now: SimTime) -> usize {
        let before = self.clients.len();
        self.clients.retain(|_, lease| lease.expires_at > now);
        let clients = &self.clients;
        self.client_reports.retain(|peer, _| clients.contains_key(peer));
        before - self.clients.len()
    }

    /// Duplicate suppression for propagated messages: returns `true` when the
    /// id has already been seen (and counts it), `false` the first time.
    pub fn seen_before(&mut self, id: Uuid) -> bool {
        let duplicate = !self.seen.insert(id);
        self.duplicates_dropped += u64::from(duplicate);
        duplicate
    }

    /// Counts a propagation.
    pub fn note_propagated(&mut self) {
        self.propagated += 1;
    }

    /// Counters: `(propagated, duplicates_dropped, connected_clients)`.
    pub fn counters(&self) -> (u64, u64, usize) {
        (self.propagated, self.duplicates_dropped, self.clients.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::TransportKind;

    fn addr(host: u32) -> SimAddress {
        SimAddress::new(TransportKind::Tcp, host, 9701)
    }

    #[test]
    fn client_leases_register_and_expire() {
        let mut rdv = RendezvousService::new(true, vec![]);
        let lease = rdv.register_client(PeerId::derive("a"), vec![addr(1)], SimTime::ZERO);
        assert_eq!(lease, DEFAULT_LEASE);
        assert!(rdv.has_client(PeerId::derive("a")));
        assert_eq!(rdv.client_endpoints(PeerId::derive("a")).unwrap().len(), 1);
        assert_eq!(rdv.prune(SimTime::from_secs(60)), 0);
        assert_eq!(rdv.prune(SimTime::from_secs(121)), 1);
        assert!(!rdv.has_client(PeerId::derive("a")));
    }

    #[test]
    fn duplicate_suppression_window() {
        let mut rdv = RendezvousService::new(true, vec![]);
        let id = Uuid::derive("msg-1");
        assert!(!rdv.seen_before(id));
        assert!(rdv.seen_before(id));
        let (_, dups, _) = rdv.counters();
        assert_eq!(dups, 1);
    }

    #[test]
    fn seen_window_remembers_exactly_its_capacity() {
        let mut rdv = RendezvousService::new(true, vec![]);
        for i in 0..=SEEN_WINDOW {
            rdv.seen_before(Uuid::derive(&format!("m{i}")));
        }
        assert!(rdv.seen_before(Uuid::derive("m1")), "the newest 4096 stay");
        assert!(!rdv.seen_before(Uuid::derive("m0")), "the oldest is forgotten");
    }

    #[test]
    fn mesh_links_register_refresh_and_drop() {
        let mut rdv = RendezvousService::new(true, vec![]);
        let peer = PeerId::derive("rdv-2");
        assert!(rdv.add_mesh_link(peer, addr(2)));
        assert!(!rdv.add_mesh_link(peer, addr(3)), "refresh is not a new link");
        assert_eq!(rdv.mesh_link_address(peer), Some(addr(3)));
        assert!(rdv.has_mesh_link(peer));
        assert_eq!(rdv.mesh_degree(), 1);
        assert_eq!(rdv.mesh_link_ids(), vec![peer]);
        rdv.remove_mesh_link(peer);
        assert!(!rdv.has_mesh_link(peer));
        assert_eq!(rdv.mesh_degree(), 0);
    }

    #[test]
    fn load_table_records_and_lists_deterministically() {
        let mut rdv = RendezvousService::new(true, vec![]);
        let load = LoadReport {
            events_relayed: 5,
            fan_out: 3,
            mailbox_depth: 0,
            lease_count: 3,
        };
        rdv.record_shard_load(PeerId::derive("rdv-b"), addr(2), load, SimTime::from_secs(1));
        rdv.record_shard_load(PeerId::derive("rdv-a"), addr(3), load, SimTime::from_secs(2));
        let table = rdv.load_table();
        assert_eq!(table.len(), 2);
        assert_eq!(table, rdv.load_table(), "listing is stable");
        let entry = rdv.shard_load(PeerId::derive("rdv-b")).unwrap();
        assert_eq!(entry.last_heard, SimTime::from_secs(1));
        assert_eq!(entry.address, addr(2));
        assert_eq!(entry.report.events_relayed, 5);
        assert!(rdv.shard_load(PeerId::derive("unknown")).is_none());
    }

    #[test]
    fn own_load_reflects_leases_links_and_client_reports() {
        let mut rdv = RendezvousService::new(true, vec![]);
        rdv.register_client(PeerId::derive("a"), vec![addr(1)], SimTime::ZERO);
        rdv.register_client(PeerId::derive("b"), vec![addr(2)], SimTime::ZERO);
        rdv.add_mesh_link(PeerId::derive("rdv-2"), addr(9));
        rdv.note_propagated();
        rdv.note_propagated();
        rdv.record_client_load(
            PeerId::derive("a"),
            LoadReport {
                mailbox_depth: 7,
                ..LoadReport::default()
            },
        );
        let load = rdv.own_load(2, 10);
        assert_eq!(load.events_relayed, 12, "propagated + wire relays");
        assert_eq!(load.fan_out, 3, "2 leases + 1 mesh link");
        assert_eq!(load.lease_count, 2);
        assert_eq!(load.mailbox_depth, 7, "worst client mailbox wins");
        // Pruning an expired client drops its report too.
        rdv.prune(SimTime::from_secs(121));
        assert_eq!(rdv.own_load(0, 0).mailbox_depth, 0);
    }

    #[test]
    fn mesh_hello_accounting_and_address_lookup() {
        let mut rdv = RendezvousService::new(true, vec![]);
        assert_eq!(rdv.mesh_hellos_sent(), 0);
        rdv.note_mesh_hello();
        rdv.note_mesh_hello();
        assert_eq!(rdv.mesh_hellos_sent(), 2);
        assert!(!rdv.has_mesh_link_at(addr(2)));
        rdv.add_mesh_link(PeerId::derive("rdv-2"), addr(2));
        assert!(rdv.has_mesh_link_at(addr(2)));
    }

    #[test]
    fn clients_listing_is_deterministic() {
        let mut rdv = RendezvousService::new(true, vec![]);
        rdv.register_client(PeerId::derive("b"), vec![], SimTime::ZERO);
        rdv.register_client(PeerId::derive("a"), vec![], SimTime::ZERO);
        let mut ascending = vec![PeerId::derive("a"), PeerId::derive("b")];
        ascending.sort();
        assert_eq!(rdv.client_ids(), ascending, "peer-id order, not insertion order");
    }
}

//! The edge half of the rendezvous lease protocol, written once.
//!
//! An edge peer connects to a seed rendezvous, is granted a lease, renews it
//! before it runs out and — where failover is armed — walks the shard ring
//! to the next seed when its home stops answering (dead shards are adopted
//! by the next surviving rendezvous in ring order, see
//! `adopter_of` in `dissem::rebalance`; the edge walks the same ring, so both sides
//! converge without any re-shard map on the wire). [`LeaseClient`] is that
//! state machine, sans I/O: its owner sends a `RendezvousConnect` to the
//! targets it names, feeds it the grants, and ticks it from its housekeeping
//! timer.
//!
//! Both [`crate::JxtaPeer`] (through its
//! [`crate::services::RendezvousService`]) and [`crate::FlyweightEdge`] are
//! thin users. They differ in the four constants of [`LeasePolicy`], and in
//! nothing else:
//!
//! | | [`LeasePolicy::full_peer`] | [`LeasePolicy::flyweight`] | why |
//! |---|---|---|---|
//! | `renew_margin` | 30 s, one housekeeping interval | 60 s | each renews on the last tick before expiry: ticks are 30 s apart on a full peer, 45 s on a flyweight (coarse on purpose, so a 100k population schedules no renewal inside a short run) |
//! | `ring_shards` | `mesh_shards` under `RendezvousMesh`, else every seed | always its shard count | flyweights only exist behind a mesh; a full peer under the other strategies keeps the paper's connect-to-every-seed behaviour, where the last grant wins; at one shard both name the same single seed |
//! | `misses_before_failover` | 2 | 1 | a full peer runs on lossy links too, where one lost datagram is not a dead home; a flyweight's 45 s tick already makes one miss a long silence |
//! | `failover` | `rebalance.enabled` under `RendezvousMesh` | always | with the controller off (the ablation baseline) no rendezvous adopts a dead shard, so walking the ring would lead nowhere; a one-shard ring walks back to the same seed, so there failover drops the dead lease and reconnects to the one rendezvous |

use crate::id::PeerId;
use dissem::{DisseminationConfig, StrategyKind};
use simnet::{SimAddress, SimDuration, SimTime, TransportKind};

/// The lease an edge peer holds with a rendezvous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// The rendezvous that granted the lease.
    pub rdv: PeerId,
    /// The address the grant arrived from — where renewals and relayed
    /// traffic go.
    pub addr: SimAddress,
    /// When the lease lapses unless renewed.
    pub expires_at: SimTime,
}

/// The per-caller constants of a [`LeaseClient`] (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeasePolicy {
    /// Renew once the lease has no more than this long to live.
    pub renew_margin: SimDuration,
    /// `Some(n)`: connect to exactly one seed, the ring slot the peer id
    /// hashes to among the first `n` usable seeds plus the failover offset.
    /// `None`: connect to every usable seed.
    pub ring_shards: Option<u32>,
    /// Consecutive ticks the home must look dead before the ring is walked.
    pub misses_before_failover: u8,
    /// Whether a dead home is ever abandoned.
    pub failover: bool,
}

impl LeasePolicy {
    /// The policy of a full [`crate::JxtaPeer`] running `dissemination`.
    pub fn full_peer(dissemination: &DisseminationConfig) -> Self {
        let mesh = dissemination.kind == StrategyKind::RendezvousMesh;
        LeasePolicy {
            renew_margin: crate::peer::HOUSEKEEPING_INTERVAL,
            ring_shards: mesh.then(|| u32::try_from(dissemination.mesh_shards).unwrap_or(u32::MAX)),
            misses_before_failover: 2,
            failover: mesh && dissemination.rebalance.enabled,
        }
    }

    /// The policy of a [`crate::FlyweightEdge`] behind a `shards`-way mesh.
    pub fn flyweight(shards: usize) -> Self {
        LeasePolicy {
            renew_margin: SimDuration::from_secs(60),
            ring_shards: Some(u32::try_from(shards).unwrap_or(u32::MAX)),
            misses_before_failover: 1,
            failover: true,
        }
    }
}

/// The edge-side lease state machine.
#[derive(Debug)]
pub struct LeaseClient {
    seeds: Box<[SimAddress]>,
    policy: LeasePolicy,
    lease: Option<Lease>,
    /// Ring steps past the hash-assigned home shard (0 = still at home). A
    /// grant deliberately leaves it alone: the current target *is* this
    /// edge's home now, original or adopted.
    failover_attempts: u32,
    /// Consecutive ticks at which the home looked dead.
    misses: u8,
    /// A connect was sent and no grant has answered it yet.
    connect_pending: bool,
}

impl LeaseClient {
    /// A client with no lease yet, connecting to `seeds` under `policy`.
    pub fn new(seeds: Vec<SimAddress>, policy: LeasePolicy) -> Self {
        LeaseClient {
            seeds: seeds.into_boxed_slice(),
            policy,
            lease: None,
            failover_attempts: 0,
            misses: 0,
            connect_pending: false,
        }
    }

    /// The configured seed rendezvous addresses.
    pub fn seeds(&self) -> &[SimAddress] {
        &self.seeds
    }

    /// The seeds reachable over a local transport. Filtering *before* shard
    /// selection keeps mixed-transport deployments working (hashing onto an
    /// unreachable seed would strand the edge).
    pub fn usable_seeds<'a>(
        &'a self,
        is_local: impl Fn(TransportKind) -> bool + 'a,
    ) -> impl Iterator<Item = SimAddress> + 'a {
        self.seeds
            .iter()
            .copied()
            .filter(move |seed| is_local(seed.transport))
    }

    /// The lease currently held, if any (it may already have run out: only
    /// [`LeaseClient::tick`] with failover armed ever drops it).
    pub fn lease(&self) -> Option<&Lease> {
        self.lease.as_ref()
    }

    /// Where the next `RendezvousConnect` of `peer` goes, given which
    /// transports are local. The caller sends one to every address returned;
    /// a non-empty answer leaves a connect pending until the next grant.
    pub fn connect_targets(
        &mut self,
        peer: PeerId,
        is_local: impl Fn(TransportKind) -> bool,
    ) -> Vec<SimAddress> {
        let targets: Vec<SimAddress> = match self.policy.ring_shards {
            None => self.usable_seeds(&is_local).collect(),
            Some(ring) => {
                let shards = self.usable_seeds(&is_local).count().min(ring.max(1) as usize);
                let slot = (dissem::shard_index(peer.0 .0, shards) + self.failover_attempts as usize)
                    .checked_rem(shards);
                slot.and_then(|slot| self.usable_seeds(&is_local).nth(slot))
                    .into_iter()
                    .collect()
            }
        };
        self.connect_pending |= !targets.is_empty();
        targets
    }

    /// A rendezvous granted (or renewed) the lease.
    pub fn granted(&mut self, rdv: PeerId, addr: SimAddress, lease: SimDuration, now: SimTime) {
        self.lease = Some(Lease {
            rdv,
            addr,
            expires_at: now + lease,
        });
        self.connect_pending = false;
        self.misses = 0;
    }

    /// One housekeeping tick. With failover armed, a home that looks dead —
    /// the lease ran out with every renewal unanswered, or a connect got no
    /// grant at all — for `misses_before_failover` consecutive ticks is
    /// abandoned: the lease is dropped and the ring cursor advances, so the
    /// next connect targets the next shard in ring order. Returns whether a
    /// connect (first contact, renewal or failover) is due now.
    pub fn tick(&mut self, now: SimTime) -> bool {
        let expired = self.lease.is_some_and(|lease| lease.expires_at <= now);
        let unanswered = self.lease.is_none() && self.connect_pending;
        if self.policy.failover && (expired || unanswered) {
            self.misses = self.misses.saturating_add(1);
            if self.misses >= self.policy.misses_before_failover {
                self.lease = None;
                self.failover_attempts = self.failover_attempts.wrapping_add(1);
                self.misses = 0;
            }
        }
        match self.lease {
            Some(lease) => lease.expires_at <= now + self.policy.renew_margin,
            None => !self.seeds.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEASE: SimDuration = SimDuration::from_secs(120);

    fn addr(host: u32) -> SimAddress {
        SimAddress::new(TransportKind::Tcp, host, 9701)
    }

    fn mesh(shards: usize) -> LeasePolicy {
        LeasePolicy::full_peer(&DisseminationConfig::rendezvous_mesh(shards))
    }

    fn target(client: &mut LeaseClient, peer: PeerId) -> SimAddress {
        let targets = client.connect_targets(peer, |_| true);
        assert_eq!(targets.len(), 1, "a ring policy names exactly one seed");
        targets[0]
    }

    #[test]
    fn renewal_is_due_without_a_lease_and_inside_the_margin() {
        let mut edge = LeaseClient::new(
            vec![addr(9)],
            LeasePolicy::full_peer(&DisseminationConfig::default()),
        );
        assert!(edge.tick(SimTime::ZERO), "seeds but no lease: connect");
        edge.granted(PeerId::derive("rdv"), addr(9), LEASE, SimTime::ZERO);
        assert!(!edge.tick(SimTime::from_secs(60)));
        assert!(edge.tick(SimTime::from_secs(90)), "30 s margin");
        assert_eq!(edge.lease().unwrap().rdv, PeerId::derive("rdv"));
        let mut fly = LeaseClient::new(vec![addr(9)], LeasePolicy::flyweight(1));
        fly.granted(PeerId::derive("rdv"), addr(9), LEASE, SimTime::ZERO);
        assert!(!fly.tick(SimTime::from_secs(45)));
        assert!(fly.tick(SimTime::from_secs(90)), "60 s margin");
    }

    #[test]
    fn a_peer_without_seeds_never_connects() {
        let mut isolated = LeaseClient::new(vec![], mesh(2));
        assert!(!isolated.tick(SimTime::from_secs(1_000)));
        assert!(isolated.connect_targets(PeerId::derive("a"), |_| true).is_empty());
        assert!(!isolated.connect_pending);
    }

    #[test]
    fn non_mesh_strategies_connect_to_every_usable_seed() {
        let seeds = vec![addr(1), SimAddress::new(TransportKind::Http, 2, 80), addr(3)];
        let mut edge = LeaseClient::new(seeds, LeasePolicy::full_peer(&DisseminationConfig::default()));
        let tcp_only = |t| t == TransportKind::Tcp;
        assert_eq!(
            edge.connect_targets(PeerId::derive("a"), tcp_only),
            vec![addr(1), addr(3)]
        );
        assert!(edge.connect_pending);
    }

    #[test]
    fn the_ring_target_is_the_hashed_home_plus_the_failover_offset() {
        let seeds: Vec<SimAddress> = (1..=4).map(addr).collect();
        let peer = PeerId::derive("skier-7");
        let mut edge = LeaseClient::new(seeds.clone(), mesh(3));
        let home_seed = target(&mut edge, peer);
        let home = seeds.iter().position(|&seed| seed == home_seed).unwrap();
        assert!(
            home < 3,
            "only the first `ring_shards` usable seeds form the ring"
        );
        // Same formula for both policies: same name, same rendezvous.
        let mut fly = LeaseClient::new(seeds.clone(), LeasePolicy::flyweight(3));
        assert_eq!(target(&mut fly, peer), seeds[home]);
        // An unanswered connect walks the ring (flyweight: after one tick).
        assert!(fly.tick(SimTime::from_secs(45)));
        assert_eq!(fly.failover_attempts, 1);
        assert_eq!(target(&mut fly, peer), seeds[(home + 1) % 3]);
    }

    #[test]
    fn a_full_peer_abandons_a_dead_home_after_two_missed_ticks() {
        let mut edge = LeaseClient::new(vec![addr(1), addr(2)], mesh(2));
        let peer = PeerId::derive("a");
        let home = target(&mut edge, peer);
        edge.granted(PeerId::derive("rdv"), home, LEASE, SimTime::ZERO);
        assert!(
            edge.tick(SimTime::from_secs(90)),
            "renewal due, home still trusted"
        );
        assert!(edge.tick(SimTime::from_secs(120)), "lease ran out: first miss");
        assert!(edge.lease().is_some(), "one miss keeps the (stale) lease");
        assert!(edge.tick(SimTime::from_secs(150)), "second miss: fail over");
        assert!(edge.lease().is_none());
        assert_eq!(edge.failover_attempts, 1);
        assert_ne!(target(&mut edge, peer), home);
        // The adopter's grant settles the pending connect and keeps the cursor.
        edge.granted(PeerId::derive("rdv-2"), addr(2), LEASE, SimTime::from_secs(150));
        assert!(!edge.connect_pending);
        assert_eq!(edge.failover_attempts, 1);
        assert!(!edge.tick(SimTime::from_secs(180)));
    }

    #[test]
    fn a_grant_between_misses_resets_the_count() {
        let mut edge = LeaseClient::new(vec![addr(1), addr(2)], mesh(2));
        target(&mut edge, PeerId::derive("a"));
        assert!(
            edge.tick(SimTime::from_secs(30)),
            "unanswered connect: first miss"
        );
        edge.granted(PeerId::derive("rdv"), addr(1), LEASE, SimTime::from_secs(31));
        assert!(
            edge.tick(SimTime::from_secs(151)),
            "lease ran out: a first miss again, not a second"
        );
        assert!(edge.lease().is_some());
        assert_eq!(
            edge.failover_attempts, 0,
            "one lost datagram does not migrate the edge"
        );
    }

    #[test]
    fn without_failover_a_dead_home_is_renewed_forever() {
        let mut direct = LeaseClient::new(
            vec![addr(1)],
            LeasePolicy::full_peer(&DisseminationConfig::direct_fanout()),
        );
        let mut mesh_off = DisseminationConfig::rendezvous_mesh(2);
        mesh_off.rebalance.enabled = false;
        let mut baseline = LeaseClient::new(vec![addr(1), addr(2)], LeasePolicy::full_peer(&mesh_off));
        for edge in [&mut direct, &mut baseline] {
            edge.connect_targets(PeerId::derive("a"), |_| true);
            edge.granted(PeerId::derive("rdv"), addr(1), LEASE, SimTime::ZERO);
            for tick in 3..20 {
                assert!(edge.tick(SimTime::from_secs(30 * tick)));
            }
            assert!(edge.lease().is_some(), "the stale lease still routes traffic");
            assert_eq!(edge.failover_attempts, 0);
        }
    }
}

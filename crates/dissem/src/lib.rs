//! # dissem — pluggable dissemination strategies for TPS propagation
//!
//! The paper's JXTA-WIRE service hard-codes one propagation policy: a
//! publisher keeps one connection per resolved listener and unicasts one copy
//! to each (which is exactly why Figure 18's invocation time grows linearly
//! with the subscriber count). This crate turns that policy into a seam: a
//! [`DisseminationStrategy`] decides, per publish, which copies go to which
//! next hops, and, per received copy, where it is forwarded.
//!
//! Three strategies ship today:
//!
//! * [`DirectFanout`] — the paper-faithful baseline: one unicast per bound
//!   listener; rendezvous peers re-propagate down their client leases.
//! * [`RendezvousMesh`] — edge publishers send **one** copy to their
//!   rendezvous, so publisher-side invocation time is O(1) in the subscriber
//!   count. Subscribers are sharded by peer-id hash across N rendezvous
//!   peers joined by a full mesh of rendezvous-to-rendezvous links; the
//!   publisher's rendezvous forwards once across the mesh before fanning
//!   down its client leases, so the per-rendezvous fan-out shrinks to
//!   ≈ subscribers/N. At one shard there are no mesh links and the
//!   rendezvous fans the copy down its whole lease tree.
//! * [`Gossip`] — probabilistic forwarding with configurable fanout and TTL;
//!   duplicate copies are suppressed by the receivers' existing per-pipe
//!   seen-windows.
//!
//! The crate is deliberately *below* the JXTA substrate in the dependency
//! graph: strategies are generic over the peer-identifier type `P`, know
//! nothing about pipes or messages, and decide purely from a
//! [`NeighborView`] snapshot (local role, rendezvous connection, client
//! leases, bound listeners) that the wire service assembles from the
//! `RendezvousService` state it already keeps.
#![warn(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod rebalance;

pub use rebalance::{
    adopter_of, adoption_map, hot_shards, RebalanceConfig, RebalanceController, RebalanceEvent,
};

use rand::RngCore;
use std::fmt;

/// Which dissemination strategy a peer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StrategyKind {
    /// One unicast per bound listener (paper baseline).
    #[default]
    DirectFanout,
    /// One publisher copy to the rendezvous, which fans it down its lease
    /// tree; with N shards, the trees are joined by rendezvous-to-rendezvous
    /// mesh links and per-rendezvous fan-out is ≈ subscribers/N.
    RendezvousMesh,
    /// Probabilistic forwarding with bounded fanout and TTL.
    Gossip,
}

impl StrategyKind {
    /// All strategies, in ablation order.
    pub const ALL: [StrategyKind; 3] = [
        StrategyKind::DirectFanout,
        StrategyKind::RendezvousMesh,
        StrategyKind::Gossip,
    ];

    /// A short label for reports and tables.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::DirectFanout => "direct-fanout",
            StrategyKind::RendezvousMesh => "rendezvous-mesh",
            StrategyKind::Gossip => "gossip",
        }
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Parses the [`StrategyKind::label`] form back (`direct-fanout`,
/// `rendezvous-mesh`, `gossip`) — the inverse of
/// `Display`, used by serialized fault schedules (crate `dst`).
impl std::str::FromStr for StrategyKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        StrategyKind::ALL
            .into_iter()
            .find(|kind| kind.label() == s)
            .ok_or_else(|| format!("unknown dissemination strategy '{s}'"))
    }
}

/// Static configuration of the dissemination subsystem, threaded through
/// `PeerConfig` and `TpsConfig`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisseminationConfig {
    /// Which strategy to run.
    pub kind: StrategyKind,
    /// Gossip only: how many next hops each peer pushes a copy to. A fanout
    /// at least as large as the neighbourhood degenerates to flooding with
    /// duplicate suppression, which guarantees delivery on connected
    /// topologies.
    pub gossip_fanout: usize,
    /// Gossip only: hop budget of forwarded copies.
    pub gossip_ttl: u8,
    /// RendezvousMesh only: how many rendezvous shards the deployment runs.
    /// Edge peers hash themselves ([`shard_index`]) onto one of the first
    /// `mesh_shards` seed rendezvous addresses they can reach (clamped to
    /// the number of usable seeds); `0` everywhere else.
    pub mesh_shards: usize,
    /// The load-aware rebalancing controller (see [`rebalance`]): dead-shard
    /// detection thresholds, hot-shard ratio, and whether the controller
    /// runs at all. Only consulted by mesh deployments today, but carried
    /// for every strategy so an operator can flip it in one place.
    pub rebalance: RebalanceConfig,
}

impl Default for DisseminationConfig {
    fn default() -> Self {
        DisseminationConfig::direct_fanout()
    }
}

impl DisseminationConfig {
    /// The paper-faithful baseline.
    pub fn direct_fanout() -> Self {
        DisseminationConfig {
            kind: StrategyKind::DirectFanout,
            gossip_fanout: 0,
            gossip_ttl: 0,
            mesh_shards: 0,
            rebalance: RebalanceConfig::default(),
        }
    }

    /// Sharded rendezvous-mesh propagation over `shards` rendezvous peers.
    /// `shards == 1` is a single rendezvous tree: no mesh links, every edge
    /// leased with the one rendezvous.
    pub fn rendezvous_mesh(shards: usize) -> Self {
        DisseminationConfig {
            kind: StrategyKind::RendezvousMesh,
            mesh_shards: shards.max(1),
            ..DisseminationConfig::direct_fanout()
        }
    }

    /// Gossip with the given fanout and TTL.
    pub fn gossip(fanout: usize, ttl: u8) -> Self {
        DisseminationConfig {
            kind: StrategyKind::Gossip,
            gossip_fanout: fanout,
            gossip_ttl: ttl,
            ..DisseminationConfig::direct_fanout()
        }
    }

    /// Builder-style override of the rebalancing-controller configuration
    /// (pass [`RebalanceConfig::disabled`] for the pre-controller mesh
    /// behaviour the `rebalance` section of `reproduce` compares against).
    pub fn with_rebalance(mut self, rebalance: RebalanceConfig) -> Self {
        self.rebalance = rebalance;
        self
    }

    /// A configuration of the given kind for a single-rendezvous deployment:
    /// one mesh shard, gossip defaults (fanout 4, TTL 4). Note the gossip
    /// defaults are a genuinely probabilistic regime: on large
    /// neighbourhoods a small fraction of subscribers can miss an event; use
    /// [`DisseminationConfig::gossip`] with a fanout at least the expected
    /// neighbourhood size when delivery must be guaranteed.
    pub fn of_kind(kind: StrategyKind) -> Self {
        match kind {
            StrategyKind::DirectFanout => DisseminationConfig::direct_fanout(),
            StrategyKind::RendezvousMesh => DisseminationConfig::rendezvous_mesh(1),
            StrategyKind::Gossip => DisseminationConfig::gossip(4, 4),
        }
    }

    /// Builds the strategy instance this configuration describes.
    pub fn build<P: Copy + Eq + Ord + fmt::Debug>(&self) -> Box<dyn DisseminationStrategy<P>> {
        match self.kind {
            StrategyKind::DirectFanout => Box::new(DirectFanout),
            StrategyKind::RendezvousMesh => Box::new(RendezvousMesh),
            StrategyKind::Gossip => Box::new(Gossip {
                fanout: self.gossip_fanout.max(1),
                ttl: self.gossip_ttl,
            }),
        }
    }
}

/// A snapshot of the local peer's overlay neighbourhood, assembled by the
/// wire service from state the rendezvous service already tracks. Strategies
/// decide from this view alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborView<P> {
    /// The local peer.
    pub local: P,
    /// Whether the local peer offers rendezvous service.
    pub is_rendezvous: bool,
    /// The rendezvous an edge peer currently holds a lease with, if any.
    pub rendezvous: Option<P>,
    /// The clients currently holding leases with this peer (rendezvous role),
    /// in deterministic order.
    pub clients: Vec<P>,
    /// The other rendezvous peers this peer keeps mesh links with
    /// (rendezvous role, [`RendezvousMesh`] deployments), in deterministic
    /// order. Empty everywhere else.
    pub mesh_links: Vec<P>,
    /// The listeners bound to the output pipe being published on (publisher
    /// side; empty on pure forwarding hops).
    pub listeners: Vec<P>,
    /// The platform's hop budget (`jxta::protocols::prp::DEFAULT_HOPS`).
    /// Tree-shaped strategies stamp it on outgoing copies; gossip uses its
    /// own configured TTL instead.
    pub ttl_budget: u8,
}

/// What the strategy decided for one `publish` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishPlan<P> {
    /// Peers that receive one unicast copy each. Every copy costs the
    /// publisher one per-connection service charge, so the length of this
    /// list *is* the publisher-side cost profile of the strategy.
    pub unicast: Vec<P>,
    /// Whether to additionally hand one copy to the rendezvous propagation
    /// infrastructure (multicast + lease connections). Strategies set this
    /// when they have no addressed next hop, so early subscribers still hear
    /// publishers whose pipe resolution has not completed.
    pub propagate: bool,
    /// Hop budget stamped on the outgoing copies.
    pub ttl: u8,
}

/// What the strategy decided for one received copy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ForwardPlan<P> {
    /// Peers that receive one forwarded copy each (with the TTL decremented
    /// by the caller). Empty means the copy is only delivered locally.
    pub forward: Vec<P>,
}

impl<P> ForwardPlan<P> {
    /// A plan that forwards nothing.
    pub fn none() -> Self {
        ForwardPlan { forward: Vec::new() }
    }
}

/// A dissemination policy: decides next hops at publish time and at
/// forwarding time.
///
/// Strategies are deterministic state machines except where they draw from
/// the caller-supplied RNG (the simulator's per-node deterministic stream),
/// so simulation runs stay bit-for-bit reproducible.
pub trait DisseminationStrategy<P: Copy + Eq>: fmt::Debug + Send {
    /// Decides where the copies of a freshly published message go.
    fn plan_publish(&mut self, view: &NeighborView<P>, rng: &mut dyn RngCore) -> PublishPlan<P>;

    /// Decides where a copy is forwarded. `origin` is the peer that
    /// *originally published* the copy (stamped in the packet) — the
    /// immediate sender of the datagram is not tracked, so a gossip
    /// re-sample may echo a copy back to the hop it came from; the echo is
    /// harmless (TTL-bounded and absorbed by the seen-window) but burns a
    /// fanout slot. `ttl` is the remaining hop budget carried by the copy.
    fn plan_forward(
        &mut self,
        view: &NeighborView<P>,
        origin: P,
        ttl: u8,
        rng: &mut dyn RngCore,
    ) -> ForwardPlan<P>;

    /// Whether `plan_forward` should also be consulted for copies the local
    /// peer has already seen. Deterministic tree strategies forward only the
    /// first copy; push gossip re-samples a fresh fanout for *every* received
    /// copy (TTL-bounded), which is what spreads a rumour past the first
    /// neighbourhood sample. Delivery to the application stays exactly-once
    /// either way — only the forwarding decision repeats.
    fn forwards_duplicates(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// DirectFanout
// ---------------------------------------------------------------------------

/// The paper baseline: one unicast per resolved listener; rendezvous peers
/// re-propagate received copies down their client leases exactly as JXTA 1.0
/// does.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectFanout;

impl<P: Copy + Eq + Ord + fmt::Debug> DisseminationStrategy<P> for DirectFanout {
    fn plan_publish(&mut self, view: &NeighborView<P>, _rng: &mut dyn RngCore) -> PublishPlan<P> {
        listener_fanout_plan(view)
    }

    fn plan_forward(
        &mut self,
        view: &NeighborView<P>,
        origin: P,
        ttl: u8,
        _rng: &mut dyn RngCore,
    ) -> ForwardPlan<P> {
        fan_down_clients(view, origin, ttl)
    }
}

// ---------------------------------------------------------------------------
// RendezvousMesh
// ---------------------------------------------------------------------------

/// Rendezvous trees, one per shard, joined by a full mesh of
/// rendezvous-to-rendezvous links.
///
/// Subscribers (and publishers) are sharded across N rendezvous peers by a
/// hash of their peer id ([`shard_index`]); each edge holds a lease with
/// exactly one shard. A publish costs the edge publisher **one** copy, to
/// its own rendezvous. The receiving rendezvous recognises the origin as one
/// of its own lease clients and forwards the copy across every mesh link
/// *and* down its local client leases; the other rendezvous peers see an
/// origin that is not their client (the copy arrived over a mesh link) and
/// fan down their local leases only. Redundant mesh copies (full-mesh
/// echoes) are absorbed by the receivers' existing seen-windows. With one
/// shard there are no mesh links: the single rendezvous is the root of a
/// plain lease tree.
///
/// Cost profile per event: publisher O(1); origin's rendezvous
/// ≈ subscribers/N + (N-1) mesh links; every other rendezvous
/// ≈ subscribers/N. Killing one rendezvous loses only its shard's in-flight
/// events — the churn tests drive exactly that scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct RendezvousMesh;

impl<P: Copy + Eq + Ord + fmt::Debug> DisseminationStrategy<P> for RendezvousMesh {
    fn plan_publish(&mut self, view: &NeighborView<P>, _rng: &mut dyn RngCore) -> PublishPlan<P> {
        if view.is_rendezvous {
            // A publishing rendezvous is its own shard's root: one copy per
            // local client plus one per mesh link.
            let mut unicast: Vec<P> = view
                .clients
                .iter()
                .chain(view.mesh_links.iter())
                .copied()
                .filter(|&p| p != view.local)
                .collect();
            unicast.sort();
            unicast.dedup();
            return PublishPlan {
                propagate: unicast.is_empty(),
                ttl: view.ttl_budget,
                unicast,
            };
        }
        match view.rendezvous {
            // One copy to the shard's rendezvous — publisher cost stays O(1)
            // in both the subscriber count and the shard count.
            Some(rendezvous) => PublishPlan {
                unicast: vec![rendezvous],
                propagate: false,
                ttl: view.ttl_budget,
            },
            // Disconnected edge: fall back to the baseline so isolated or
            // multicast-only deployments still deliver.
            None => listener_fanout_plan(view),
        }
    }

    fn plan_forward(
        &mut self,
        view: &NeighborView<P>,
        origin: P,
        ttl: u8,
        _rng: &mut dyn RngCore,
    ) -> ForwardPlan<P> {
        if !view.is_rendezvous || ttl == 0 {
            return ForwardPlan::none();
        }
        let mut forward: Vec<P> = view
            .clients
            .iter()
            .copied()
            .filter(|&p| p != origin && p != view.local)
            .collect();
        // Only the origin's own rendezvous relays across the mesh: a copy
        // whose origin is not a local client arrived *over* a mesh link and
        // fans down the local shard only. This keeps the mesh traffic at
        // N-1 copies per event instead of (N-1)^2 echoes (which the
        // seen-window would drop anyway, at the cost of burnt bandwidth).
        if view.clients.contains(&origin) {
            forward.extend(
                view.mesh_links
                    .iter()
                    .copied()
                    .filter(|&p| p != origin && p != view.local),
            );
            forward.sort();
            forward.dedup();
        }
        ForwardPlan { forward }
    }
}

/// Which of `shards` rendezvous shards a peer with the given id hash belongs
/// to. Deterministic and uniform in the hash; every layer (edge connect-time
/// shard selection, harness topology builder, tests) uses this one function
/// so shard assignment cannot drift between them.
pub fn shard_index(id_hash: u128, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    // Splitmix-style finalizer so that structured ids (derived from
    // sequential names) still spread uniformly.
    let mut z = (id_hash as u64) ^ ((id_hash >> 64) as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

// ---------------------------------------------------------------------------
// Gossip
// ---------------------------------------------------------------------------

/// Probabilistic push gossip: every received copy (duplicates included) is
/// pushed on to at most `fanout` uniformly chosen neighbours until the TTL
/// runs out; the receivers' seen-window dedup keeps *delivery* exactly-once.
/// Coverage is probabilistic — with a fanout at least the neighbourhood size
/// it degenerates to flooding (guaranteed delivery on connected topologies);
/// below that, a small fraction of subscribers can miss a given event, which
/// is the gossip trade-off `jxta`'s `tests/gossip_probability.rs` measures.
#[derive(Debug, Clone, Copy)]
pub struct Gossip {
    /// Copies pushed per hop.
    pub fanout: usize,
    /// Hop budget stamped on published messages.
    pub ttl: u8,
}

impl Gossip {
    /// Uniformly samples `count` peers from `candidates` (all of them when
    /// `count >= candidates.len()`), via a partial Fisher-Yates shuffle.
    fn sample<P: Copy>(candidates: &mut Vec<P>, count: usize, rng: &mut dyn RngCore) -> Vec<P> {
        if candidates.len() <= count {
            return std::mem::take(candidates);
        }
        for i in 0..count {
            let j = i + (rng.next_u64() as usize) % (candidates.len() - i);
            candidates.swap(i, j);
        }
        candidates[..count].to_vec()
    }
}

impl<P: Copy + Eq + Ord + fmt::Debug> DisseminationStrategy<P> for Gossip {
    fn plan_publish(&mut self, view: &NeighborView<P>, rng: &mut dyn RngCore) -> PublishPlan<P> {
        let mut candidates = neighbors(view, None);
        let unicast = Gossip::sample(&mut candidates, self.fanout, rng);
        PublishPlan {
            unicast: unicast.clone(),
            propagate: unicast.is_empty(),
            ttl: self.ttl,
        }
    }

    fn plan_forward(
        &mut self,
        view: &NeighborView<P>,
        origin: P,
        ttl: u8,
        rng: &mut dyn RngCore,
    ) -> ForwardPlan<P> {
        if ttl == 0 {
            return ForwardPlan::none();
        }
        let mut candidates = neighbors(view, Some(origin));
        ForwardPlan {
            forward: Gossip::sample(&mut candidates, self.fanout, rng),
        }
    }

    fn forwards_duplicates(&self) -> bool {
        true
    }
}

/// The deduplicated overlay neighbours of the local peer: bound listeners,
/// the lease clients and mesh links (rendezvous role) and the connected
/// rendezvous (edge role), minus the local peer and `exclude`.
fn neighbors<P: Copy + Eq + Ord>(view: &NeighborView<P>, exclude: Option<P>) -> Vec<P> {
    let mut all: Vec<P> = view
        .listeners
        .iter()
        .chain(view.clients.iter())
        .chain(view.mesh_links.iter())
        .chain(view.rendezvous.iter())
        .copied()
        .filter(|&p| p != view.local && Some(p) != exclude)
        .collect();
    all.sort();
    all.dedup();
    all
}

/// The paper-baseline publish plan: one unicast per bound listener, falling
/// back to rendezvous propagation while nothing is resolved yet. Shared by
/// `DirectFanout` and by `RendezvousMesh`'s disconnected-edge fallback.
fn listener_fanout_plan<P: Copy + Eq>(view: &NeighborView<P>) -> PublishPlan<P> {
    PublishPlan {
        unicast: view
            .listeners
            .iter()
            .copied()
            .filter(|&p| p != view.local)
            .collect(),
        propagate: view.listeners.is_empty(),
        ttl: view.ttl_budget,
    }
}

/// The JXTA 1.0 forwarding rule `DirectFanout` keeps: only rendezvous peers
/// forward, fanning one copy down every client lease except the origin's.
fn fan_down_clients<P: Copy + Eq>(view: &NeighborView<P>, origin: P, ttl: u8) -> ForwardPlan<P> {
    if !view.is_rendezvous || ttl == 0 {
        return ForwardPlan::none();
    }
    ForwardPlan {
        forward: view
            .clients
            .iter()
            .copied()
            .filter(|&p| p != origin && p != view.local)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type Peer = u32;

    fn view(local: Peer, is_rendezvous: bool) -> NeighborView<Peer> {
        NeighborView {
            local,
            is_rendezvous,
            rendezvous: None,
            clients: vec![],
            mesh_links: vec![],
            listeners: vec![],
            ttl_budget: 3,
        }
    }

    #[test]
    fn direct_fanout_unicasts_to_every_listener() {
        let mut strategy = DirectFanout;
        let mut rng = StdRng::seed_from_u64(1);
        let mut v = view(1, false);
        v.listeners = vec![2, 3, 4];
        let plan = strategy.plan_publish(&v, &mut rng);
        assert_eq!(plan.unicast, vec![2, 3, 4]);
        assert!(!plan.propagate);

        v.listeners.clear();
        let plan = strategy.plan_publish(&v, &mut rng);
        assert!(plan.unicast.is_empty());
        assert!(plan.propagate, "no listeners resolved: fall back to propagation");
    }

    #[test]
    fn direct_fanout_forwarding_is_rendezvous_only() {
        let mut strategy = DirectFanout;
        let mut rng = StdRng::seed_from_u64(1);
        let mut v = view(9, true);
        v.clients = vec![2, 3, 7];
        let plan = strategy.plan_forward(&v, 3, 2, &mut rng);
        assert_eq!(plan.forward, vec![2, 7], "origin is excluded from re-propagation");
        let edge_plan = DirectFanout.plan_forward(&view(1, false), 3, 2, &mut rng);
        assert!(edge_plan.forward.is_empty());
        let exhausted = strategy.plan_forward(&v, 3, 0, &mut rng);
        assert!(exhausted.forward.is_empty(), "TTL zero stops forwarding");
    }

    #[test]
    fn mesh_edge_publisher_sends_one_copy_to_its_shard() {
        let mut strategy = RendezvousMesh;
        let mut rng = StdRng::seed_from_u64(1);
        let mut v = view(1, false);
        v.rendezvous = Some(9);
        v.listeners = vec![2, 3, 4, 5, 6, 7, 8];
        let plan = strategy.plan_publish(&v, &mut rng);
        assert_eq!(
            plan.unicast,
            vec![9],
            "publisher cost is O(1) whatever the subscriber or shard count"
        );
        assert!(!plan.propagate);

        // Disconnected edges fall back to the listener baseline.
        v.rendezvous = None;
        let fallback = strategy.plan_publish(&v, &mut rng);
        assert_eq!(fallback.unicast, vec![2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn mesh_origin_rendezvous_relays_to_mesh_and_clients() {
        let mut strategy = RendezvousMesh;
        let mut rng = StdRng::seed_from_u64(1);
        let mut v = view(10, true);
        v.clients = vec![1, 2, 3];
        // One shard: no mesh links, the copy fans down the other leases.
        let plan = strategy.plan_forward(&v, 1, 2, &mut rng);
        assert_eq!(plan.forward, vec![2, 3]);
        v.mesh_links = vec![11, 12];
        // Origin 1 is a local client: this rendezvous is its shard root —
        // relay across the mesh and fan down the other local leases.
        let plan = strategy.plan_forward(&v, 1, 2, &mut rng);
        assert_eq!(plan.forward, vec![2, 3, 11, 12]);
        // Origin 7 is not a local client: the copy arrived over a mesh link
        // — fan down the local shard only, never back into the mesh.
        let plan = strategy.plan_forward(&v, 7, 2, &mut rng);
        assert_eq!(plan.forward, vec![1, 2, 3]);
        // Edge peers and exhausted TTLs never forward.
        assert!(strategy
            .plan_forward(&view(1, false), 1, 2, &mut rng)
            .forward
            .is_empty());
        assert!(strategy.plan_forward(&v, 1, 0, &mut rng).forward.is_empty());
    }

    #[test]
    fn mesh_publishing_rendezvous_covers_clients_and_mesh() {
        let mut strategy = RendezvousMesh;
        let mut rng = StdRng::seed_from_u64(1);
        let mut v = view(10, true);
        v.clients = vec![1, 2];
        for (mesh_links, expected) in [(vec![], vec![1, 2]), (vec![11], vec![1, 2, 11])] {
            v.mesh_links = mesh_links;
            let plan = strategy.plan_publish(&v, &mut rng);
            assert_eq!(plan.unicast, expected);
            assert!(!plan.propagate);
        }
    }

    #[test]
    fn shard_index_is_stable_bounded_and_spread() {
        assert_eq!(shard_index(12345, 1), 0);
        assert_eq!(shard_index(12345, 0), 0);
        for shards in [2usize, 4, 8] {
            let mut counts = vec![0usize; shards];
            for i in 0..1_000u128 {
                let shard = shard_index(i * 0x1_0000_0001, shards);
                assert!(shard < shards);
                assert_eq!(shard, shard_index(i * 0x1_0000_0001, shards), "deterministic");
                counts[shard] += 1;
            }
            let expected = 1_000 / shards;
            assert!(
                counts.iter().all(|&c| c > expected / 2 && c < expected * 2),
                "{shards} shards spread badly: {counts:?}"
            );
        }
    }

    #[test]
    fn gossip_respects_fanout_and_ttl() {
        let mut strategy = Gossip { fanout: 2, ttl: 4 };
        let mut rng = StdRng::seed_from_u64(42);
        let mut v = view(1, false);
        v.rendezvous = Some(9);
        v.listeners = vec![2, 3, 4, 5];
        let plan = strategy.plan_publish(&v, &mut rng);
        assert_eq!(plan.unicast.len(), 2);
        assert_eq!(plan.ttl, 4);
        assert!(plan.unicast.iter().all(|p| [2, 3, 4, 5, 9].contains(p)));

        let forward = strategy.plan_forward(&v, 2, 1, &mut rng);
        assert!(forward.forward.len() <= 2);
        assert!(!forward.forward.contains(&2), "origin never gets a copy back");
        let exhausted = strategy.plan_forward(&v, 2, 0, &mut rng);
        assert!(exhausted.forward.is_empty());
    }

    #[test]
    fn gossip_with_large_fanout_floods_all_neighbors() {
        let mut strategy = Gossip { fanout: 64, ttl: 4 };
        let mut rng = StdRng::seed_from_u64(3);
        let mut v = view(9, true);
        v.clients = vec![1, 2, 3, 4];
        let plan = strategy.plan_publish(&v, &mut rng);
        assert_eq!(plan.unicast, vec![1, 2, 3, 4]);
    }

    #[test]
    fn config_builds_the_matching_strategy() {
        // An edge leased with rendezvous 9 and two bound listeners: each
        // strategy picks a different set of next hops.
        let mut v = view(1, false);
        v.rendezvous = Some(9);
        v.listeners = vec![2, 3];
        let expected = [vec![2, 3], vec![9], vec![2, 3, 9]];
        for (kind, unicast) in StrategyKind::ALL.into_iter().zip(expected) {
            let config = DisseminationConfig::of_kind(kind);
            assert_eq!(config.kind, kind);
            let mut strategy: Box<dyn DisseminationStrategy<Peer>> = config.build();
            let plan = strategy.plan_publish(&v, &mut StdRng::seed_from_u64(1));
            assert_eq!(plan.unicast, unicast, "{kind}");
            assert_eq!(strategy.forwards_duplicates(), kind == StrategyKind::Gossip);
        }
        assert_eq!(
            DisseminationConfig::of_kind(StrategyKind::RendezvousMesh),
            DisseminationConfig::rendezvous_mesh(1),
            "of_kind describes a single-rendezvous deployment"
        );
        assert_eq!(DisseminationConfig::default().kind, StrategyKind::DirectFanout);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(StrategyKind::DirectFanout.to_string(), "direct-fanout");
        assert_eq!(StrategyKind::RendezvousMesh.to_string(), "rendezvous-mesh");
        assert_eq!(StrategyKind::Gossip.to_string(), "gossip");
    }
}

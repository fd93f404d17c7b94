//! The wire service: many-to-many pipes.
//!
//! The paper's applications communicate exclusively through the JXTA-WIRE
//! service: a named pipe that any number of publishers send on and any number
//! of subscribers listen on. An output pipe keeps one connection per resolved
//! listener, and propagated copies are de-duplicated by message id at the
//! receivers.
//!
//! *Which* copies go to which next hops is no longer hard-coded: the service
//! owns a pluggable [`DisseminationStrategy`] (see the `dissem` crate) and
//! delegates copy selection to it, both at publish time ([`WireService::plan_publish`])
//! and when a propagated copy arrives ([`WireService::plan_forward`]). The
//! paper-faithful one-unicast-per-listener policy is the default
//! ([`dissem::DirectFanout`]) — the policy whose linear cost Figure 18
//! measures.

use crate::id::{PeerId, PipeId, Uuid};
use crate::seen::SeenWindow;
use crate::services::rendezvous::RendezvousService;
use dissem::{DisseminationConfig, DisseminationStrategy, ForwardPlan, NeighborView, PublishPlan};
use rand::RngCore;
use simnet::SimAddress;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// How many message ids each input pipe remembers for duplicate suppression.
const DEDUP_WINDOW: usize = 8192;

/// The resolved listeners of one output ("sending") end of a wire pipe.
#[derive(Debug, Clone, Default)]
pub struct OutputPipeState {
    /// Listener peers and the endpoints they were resolved at, in
    /// deterministic (peer-id) order.
    pub listeners: BTreeMap<PeerId, Vec<SimAddress>>,
}

impl OutputPipeState {
    /// Adds or refreshes a listener binding.
    pub fn bind(&mut self, peer: PeerId, endpoints: Vec<SimAddress>) {
        self.listeners.insert(peer, endpoints);
    }

    /// Number of currently bound listeners.
    pub fn len(&self) -> usize {
        self.listeners.len()
    }

    /// Whether no listener is bound.
    pub fn is_empty(&self) -> bool {
        self.listeners.is_empty()
    }
}

/// Per-peer wire service state.
#[derive(Debug)]
pub struct WireService {
    /// Ordered containers (not hash): a pipe's listener map is walked into
    /// every publish plan, which feeds event ordering, and the determinism
    /// contract requires that walk to be independent of hash seeds.
    input_pipes: BTreeSet<PipeId>,
    output_pipes: BTreeMap<PipeId, OutputPipeState>,
    /// Per-pipe dedup state: lookup/insert only, never iterated — hash is
    /// fine here.
    seen: HashMap<PipeId, SeenWindow>,
    strategy: Box<dyn DisseminationStrategy<PeerId>>,
    messages_sent: u64,
    messages_received: u64,
    duplicates_dropped: u64,
    copies_forwarded: u64,
}

impl Default for WireService {
    fn default() -> Self {
        WireService::with_config(&DisseminationConfig::default())
    }
}

impl WireService {
    /// Creates an empty wire service running the paper-baseline
    /// direct-fan-out strategy.
    pub fn new() -> Self {
        WireService::default()
    }

    /// Creates an empty wire service running the configured dissemination
    /// strategy.
    pub fn with_config(config: &DisseminationConfig) -> Self {
        WireService {
            input_pipes: BTreeSet::new(),
            output_pipes: BTreeMap::new(),
            seen: HashMap::new(),
            strategy: config.build(),
            messages_sent: 0,
            messages_received: 0,
            duplicates_dropped: 0,
            copies_forwarded: 0,
        }
    }

    /// Whether the strategy wants a forwarding decision for duplicate copies
    /// too (see [`DisseminationStrategy::forwards_duplicates`]).
    pub fn forwards_duplicates(&self) -> bool {
        self.strategy.forwards_duplicates()
    }

    /// Asks the strategy where the copies of a fresh publish on `pipe` go.
    ///
    /// The neighbourhood view handed to the strategy is assembled from the
    /// pipe's resolved listeners plus the lease state the rendezvous service
    /// already tracks.
    pub fn plan_publish(
        &mut self,
        pipe: PipeId,
        local: PeerId,
        rendezvous: &RendezvousService,
        ttl_budget: u8,
        rng: &mut dyn RngCore,
    ) -> PublishPlan<PeerId> {
        let view = self.neighbor_view(Some(pipe), local, rendezvous, ttl_budget);
        self.strategy.plan_publish(&view, rng)
    }

    /// Asks the strategy where a copy received from `origin` (with `ttl`
    /// hops remaining) is forwarded.
    pub fn plan_forward(
        &mut self,
        local: PeerId,
        rendezvous: &RendezvousService,
        origin: PeerId,
        ttl: u8,
        rng: &mut dyn RngCore,
    ) -> ForwardPlan<PeerId> {
        let view = self.neighbor_view(None, local, rendezvous, ttl);
        self.strategy.plan_forward(&view, origin, ttl, rng)
    }

    fn neighbor_view(
        &self,
        pipe: Option<PipeId>,
        local: PeerId,
        rendezvous: &RendezvousService,
        ttl_budget: u8,
    ) -> NeighborView<PeerId> {
        let listeners = pipe
            .and_then(|p| self.output_pipes.get(&p))
            .map(|state| state.listeners.keys().copied().collect())
            .unwrap_or_default();
        NeighborView {
            local,
            is_rendezvous: rendezvous.is_rendezvous(),
            rendezvous: rendezvous.connection().map(|c| c.rdv),
            clients: rendezvous.client_ids(),
            mesh_links: rendezvous.mesh_link_ids(),
            listeners,
            ttl_budget,
        }
    }

    /// Registers a local input (listening) pipe. Returns `true` if it was not
    /// already registered.
    pub fn create_input_pipe(&mut self, pipe: PipeId) -> bool {
        self.input_pipes.insert(pipe)
    }

    /// Closes a local input pipe.
    pub fn close_input_pipe(&mut self, pipe: PipeId) {
        self.input_pipes.remove(&pipe);
    }

    /// Whether this peer listens on the given pipe.
    pub fn has_input_pipe(&self, pipe: PipeId) -> bool {
        self.input_pipes.contains(&pipe)
    }

    /// Creates (or returns the existing) output pipe for `pipe`.
    pub fn output_pipe_mut(&mut self, pipe: PipeId) -> &mut OutputPipeState {
        self.output_pipes.entry(pipe).or_default()
    }

    /// The output pipe for `pipe`, if one has been created.
    pub fn output_pipe(&self, pipe: PipeId) -> Option<&OutputPipeState> {
        self.output_pipes.get(&pipe)
    }

    /// Duplicate suppression per input pipe: returns `true` if the message id
    /// has already been delivered on that pipe.
    pub fn seen_before(&mut self, pipe: PipeId, msg_id: Uuid) -> bool {
        let window = self
            .seen
            .entry(pipe)
            .or_insert_with(|| SeenWindow::new(DEDUP_WINDOW));
        let duplicate = !window.insert(msg_id);
        self.duplicates_dropped += u64::from(duplicate);
        duplicate
    }

    /// Counts an outgoing wire message (one per publish, not per copy).
    pub fn note_sent(&mut self) {
        self.messages_sent += 1;
    }

    /// Counts a delivered (non-duplicate) wire message.
    pub fn note_received(&mut self) {
        self.messages_received += 1;
    }

    /// Counts `copies` forwarded on behalf of other peers (the relay work a
    /// rendezvous reports on the load-report plane).
    pub fn note_forwarded(&mut self, copies: u64) {
        self.copies_forwarded += copies;
    }

    /// Total copies forwarded on behalf of other peers.
    pub fn forwarded(&self) -> u64 {
        self.copies_forwarded
    }

    /// Counters: `(sent, received, duplicates_dropped)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.messages_sent,
            self.messages_received,
            self.duplicates_dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SimDuration, SimTime, TransportKind};

    fn addr(host: u32) -> SimAddress {
        SimAddress::new(TransportKind::Tcp, host, 9701)
    }

    #[test]
    fn input_pipes_register_once() {
        let mut wire = WireService::new();
        let pipe = PipeId::derive("ski");
        assert!(wire.create_input_pipe(pipe));
        assert!(!wire.create_input_pipe(pipe));
        assert!(wire.has_input_pipe(pipe));
        wire.close_input_pipe(pipe);
        assert!(!wire.has_input_pipe(pipe));
    }

    #[test]
    fn output_pipe_bindings() {
        let mut wire = WireService::new();
        let pipe = PipeId::derive("ski");
        let sub1 = PeerId::derive("sub1");
        let sub2 = PeerId::derive("sub2");
        wire.output_pipe_mut(pipe).bind(sub1, vec![addr(1)]);
        wire.output_pipe_mut(pipe).bind(sub2, vec![addr(2)]);
        wire.output_pipe_mut(pipe).bind(sub1, vec![addr(3)]); // refresh
        assert_eq!(wire.output_pipe(pipe).unwrap().len(), 2);
        assert_eq!(wire.output_pipe(pipe).unwrap().listeners[&sub1], vec![addr(3)]);
        assert!(!wire.output_pipe(pipe).unwrap().is_empty());
    }

    #[test]
    fn duplicate_suppression_is_per_pipe() {
        let mut wire = WireService::new();
        let pipe_a = PipeId::derive("a");
        let pipe_b = PipeId::derive("b");
        let msg = Uuid::derive("m");
        assert!(!wire.seen_before(pipe_a, msg));
        assert!(wire.seen_before(pipe_a, msg));
        assert!(!wire.seen_before(pipe_b, msg));
        assert_eq!(wire.counters().2, 1);
    }

    #[test]
    fn each_pipe_remembers_exactly_dedup_window_ids() {
        let mut wire = WireService::new();
        let pipe = PipeId::derive("a");
        for i in 0..=DEDUP_WINDOW {
            wire.seen_before(pipe, Uuid::derive(&format!("m{i}")));
        }
        assert!(wire.seen_before(pipe, Uuid::derive("m1")), "the newest 8192 stay");
        assert!(
            !wire.seen_before(pipe, Uuid::derive("m0")),
            "the oldest is forgotten"
        );
    }

    #[test]
    fn counters_accumulate() {
        let mut wire = WireService::new();
        wire.note_sent();
        wire.note_sent();
        wire.note_received();
        assert_eq!(wire.counters(), (2, 1, 0));
    }

    #[test]
    fn default_strategy_is_the_paper_baseline() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let pipe = PipeId::derive("ski");
        let mut rendezvous = RendezvousService::new(false, vec![addr(9)]);
        rendezvous.lease_mut().granted(
            PeerId::derive("rdv"),
            addr(9),
            SimDuration::from_secs(120),
            SimTime::ZERO,
        );
        let mut wire = WireService::new();
        wire.output_pipe_mut(pipe)
            .bind(PeerId::derive("sub1"), vec![addr(1)]);
        let plan = wire.plan_publish(pipe, PeerId::derive("pub"), &rendezvous, 3, &mut rng);
        assert_eq!(
            plan.unicast,
            vec![PeerId::derive("sub1")],
            "one copy per listener, none to the rendezvous"
        );
    }

    #[test]
    fn publish_plans_follow_the_configured_strategy() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let local = PeerId::derive("pub");
        let pipe = PipeId::derive("ski");
        let rdv_peer = PeerId::derive("rdv");

        // An edge peer holding a rendezvous lease, with two bound listeners.
        let mut rendezvous = RendezvousService::new(false, vec![addr(9)]);
        rendezvous
            .lease_mut()
            .granted(rdv_peer, addr(9), SimDuration::from_secs(120), SimTime::ZERO);

        let mut direct = WireService::with_config(&DisseminationConfig::direct_fanout());
        direct
            .output_pipe_mut(pipe)
            .bind(PeerId::derive("sub1"), vec![addr(1)]);
        direct
            .output_pipe_mut(pipe)
            .bind(PeerId::derive("sub2"), vec![addr(2)]);
        let plan = direct.plan_publish(pipe, local, &rendezvous, 3, &mut rng);
        assert_eq!(
            plan.unicast.len(),
            2,
            "direct fan-out unicasts one copy per listener"
        );

        let mut mesh = WireService::with_config(&DisseminationConfig::rendezvous_mesh(1));
        mesh.output_pipe_mut(pipe)
            .bind(PeerId::derive("sub1"), vec![addr(1)]);
        mesh.output_pipe_mut(pipe)
            .bind(PeerId::derive("sub2"), vec![addr(2)]);
        let plan = mesh.plan_publish(pipe, local, &rendezvous, 3, &mut rng);
        assert_eq!(
            plan.unicast,
            vec![rdv_peer],
            "the mesh publisher sends one copy to its rendezvous"
        );
    }

    #[test]
    fn forward_plans_reuse_rendezvous_lease_state() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let local = PeerId::derive("rdv");
        let origin = PeerId::derive("pub");
        let mut rendezvous = RendezvousService::new(true, vec![]);
        rendezvous.register_client(origin, vec![addr(1)], SimTime::ZERO);
        rendezvous.register_client(PeerId::derive("sub"), vec![addr(2)], SimTime::ZERO);

        let mut wire = WireService::with_config(&DisseminationConfig::rendezvous_mesh(1));
        let plan = wire.plan_forward(local, &rendezvous, origin, 2, &mut rng);
        assert_eq!(
            plan.forward,
            vec![PeerId::derive("sub")],
            "copies fan down the leases, minus the origin"
        );
    }
}

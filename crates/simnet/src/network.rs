//! The discrete-event simulation kernel: event queue, address resolution,
//! link modelling and node lifecycle.

use crate::address::{SimAddress, TransportKind};
use crate::datagram::Datagram;
use crate::firewall::FirewallPolicy;
use crate::id::{NodeId, SubnetId, TimerToken};
use crate::link::{LinkSpec, LinkTable};
use crate::node::{Command, NodeConfig, NodeContext, SimNode, WakeQueue};
use crate::stats::{DropReason, DropSummary, TrafficStats};
use crate::time::{SimDuration, SimTime};
use crate::trace::{DropLog, DropRecord};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet};
use std::rc::Rc;

/// Default upper bound on a single datagram's payload (1 MiB); JXTA messages
/// in the paper are ~2 KB, so this is generous while still catching runaway
/// serialisation bugs.
pub const DEFAULT_MAX_DATAGRAM: usize = 1 << 20;

/// The first host address the builder hands out (10.0.0.1). Hosts are
/// assigned sequentially from here, which is what lets the kernel resolve
/// a unicast address with an array index instead of a hash lookup.
const HOST_BASE: u32 = 0x0A00_0001;

#[derive(Debug)]
enum EventKind {
    Start {
        node: NodeId,
    },
    Deliver {
        dst: NodeId,
        datagram: Datagram,
    },
    Timer {
        node: NodeId,
        token: TimerToken,
        tag: u64,
    },
}

#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct NodeSlot {
    node: Option<Box<dyn SimNode>>,
    subnet: SubnetId,
    firewall: FirewallPolicy,
    interfaces: Vec<SimAddress>,
    rx_overhead: SimDuration,
    tx_overhead: SimDuration,
    rng: StdRng,
    stats: TrafficStats,
    alive: bool,
}

/// Builds a [`Network`]: nodes, topology, link characteristics and tracing.
///
/// # Examples
///
/// ```
/// use simnet::{NetworkBuilder, NodeConfig, SimNode, NodeContext, Datagram, SubnetId};
///
/// struct Silent;
/// impl SimNode for Silent {
///     fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, _dg: Datagram) {}
///     fn as_any(&self) -> &dyn std::any::Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// }
///
/// let mut builder = NetworkBuilder::new(42);
/// let a = builder.add_node(Box::new(Silent), NodeConfig::lan_peer(SubnetId(0)));
/// let mut net = builder.build();
/// net.run_until_idle();
/// assert!(net.is_alive(a));
/// ```
pub struct NetworkBuilder {
    seed: u64,
    links: LinkTable,
    max_datagram: usize,
    nodes: Vec<(Box<dyn SimNode>, NodeConfig)>,
}

impl NetworkBuilder {
    /// Creates a builder; `seed` drives every random decision of the run
    /// (loss, jitter, per-node RNGs), so equal seeds give equal runs.
    pub fn new(seed: u64) -> Self {
        NetworkBuilder {
            seed,
            links: LinkTable::new(LinkSpec::lan()),
            max_datagram: DEFAULT_MAX_DATAGRAM,
            nodes: Vec::new(),
        }
    }

    /// Adds a node; returns the id it will have in the built network.
    pub fn add_node(&mut self, node: Box<dyn SimNode>, config: NodeConfig) -> NodeId {
        assert!(
            !config.transports.is_empty(),
            "a node needs at least one transport"
        );
        let id = NodeId::from_raw(self.nodes.len() as u32);
        self.nodes.push((node, config));
        id
    }

    /// Sets the link spec between two subnets, both directions.
    pub fn link(&mut self, a: SubnetId, b: SubnetId, spec: LinkSpec) -> &mut Self {
        self.links.set_symmetric(a, b, spec);
        self
    }

    /// Overrides the maximum accepted datagram payload size.
    pub fn max_datagram(&mut self, bytes: usize) -> &mut Self {
        self.max_datagram = bytes;
        self
    }

    /// Finalises the network. Every node's `on_start` is scheduled at time 0
    /// in node-id order.
    pub fn build(self) -> Network {
        let mut addr_table: Vec<Option<NodeId>> = Vec::with_capacity(self.nodes.len());
        let mut mcast_groups: BTreeMap<SubnetId, Vec<NodeId>> = BTreeMap::new();
        let mut slots = Vec::with_capacity(self.nodes.len());
        let mut next_host: u32 = HOST_BASE;
        for (idx, (node, config)) in self.nodes.into_iter().enumerate() {
            let host = next_host;
            next_host += 1;
            addr_table.push(Some(NodeId::from_raw(idx as u32)));
            let mut interfaces = Vec::new();
            for transport in &config.transports {
                let port = match transport {
                    TransportKind::Tcp => 9701,
                    TransportKind::Http => 9702,
                    TransportKind::Multicast => 0,
                    TransportKind::Bluetooth => 9703,
                };
                let addr = SimAddress::new(*transport, host, port);
                if *transport == TransportKind::Multicast {
                    mcast_groups
                        .entry(config.subnet)
                        .or_default()
                        .push(NodeId::from_raw(idx as u32));
                }
                interfaces.push(addr);
            }
            slots.push(NodeSlot {
                node: Some(node),
                subnet: config.subnet,
                firewall: config.firewall,
                interfaces,
                rx_overhead: config.rx_overhead,
                tx_overhead: config.tx_overhead,
                rng: StdRng::seed_from_u64(
                    self.seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(idx as u64),
                ),
                stats: TrafficStats::default(),
                alive: true,
            });
        }
        let mut network = Network {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            slots,
            addr_table,
            mcast_groups,
            mcast_scratch: Vec::new(),
            command_scratch: Vec::new(),
            wakes: Rc::default(),
            wake_scratch: Vec::new(),
            events_processed: 0,
            links: self.links,
            cancelled_timers: HashSet::new(),
            next_timer: 0,
            master_rng: StdRng::seed_from_u64(self.seed),
            drop_log: DropLog::default(),
            drop_counts: [0; DropReason::ALL.len()],
            max_datagram: self.max_datagram,
            next_host,
            blocked_pairs: HashSet::new(),
        };
        for idx in 0..network.slots.len() {
            network.push_event(
                SimTime::ZERO,
                EventKind::Start {
                    node: NodeId::from_raw(idx as u32),
                },
            );
        }
        network
    }
}

/// The simulation kernel.
///
/// Owns the nodes, the virtual clock and the event queue. Drive it with
/// [`Network::run_until`], [`Network::run_for`] or [`Network::run_until_idle`],
/// and interact with node state through [`Network::invoke`] /
/// [`Network::node_ref`].
pub struct Network {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Scheduled>>,
    slots: Vec<NodeSlot>,
    /// Host-indexed address table: `addr_table[host - HOST_BASE]` names the
    /// node that currently owns that host (`None` after the host is
    /// abandoned by a re-assignment). Unicast resolution is an array index
    /// plus an interface check instead of a hash lookup per send.
    addr_table: Vec<Option<NodeId>>,
    /// Per-subnet multicast membership in node-id order, fixed at build time
    /// (a node's transports never change): a multicast send walks its own
    /// subnet's members instead of every slot in the network.
    mcast_groups: BTreeMap<SubnetId, Vec<NodeId>>,
    /// Reusable buffer for the alive-member subset of one multicast fan-out.
    mcast_scratch: Vec<NodeId>,
    /// Reusable command buffer handed to node handlers, so steady-state event
    /// processing allocates nothing per event.
    command_scratch: Vec<Command>,
    /// Wakes raised by every [`crate::Waker`] this kernel handed out, taken
    /// before each event.
    wakes: Rc<WakeQueue>,
    /// The buffer swapped with `wakes` on each take, so steady-state waking
    /// allocates nothing.
    wake_scratch: Vec<(NodeId, u64)>,
    events_processed: u64,
    links: LinkTable,
    cancelled_timers: HashSet<TimerToken>,
    next_timer: u64,
    master_rng: StdRng,
    drop_log: DropLog,
    /// Per-reason drop counters, indexed by [`DropReason::index`]. A dense
    /// array (not a hash map) so summary/export order never depends on
    /// insertion or hash order — see the determinism contract.
    drop_counts: [u64; DropReason::ALL.len()],
    max_datagram: usize,
    next_host: u32,
    blocked_pairs: HashSet<(NodeId, NodeId)>,
}

impl Network {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events processed since construction (starts, deliveries, timer
    /// firings) — what the repo benchmark reports as `simnet.events`.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Whether a node is still running.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.slots.get(node.index()).is_some_and(|s| s.alive)
    }

    /// The node's current interface addresses.
    pub fn addresses_of(&self, node: NodeId) -> &[SimAddress] {
        &self.slots[node.index()].interfaces
    }

    /// Per-node traffic counters.
    pub fn stats_of(&self, node: NodeId) -> TrafficStats {
        self.slots[node.index()].stats
    }

    /// Network-wide traffic counters (sum over nodes).
    pub fn total_stats(&self) -> TrafficStats {
        let mut total = TrafficStats::default();
        for slot in &self.slots {
            total.merge(&slot.stats);
        }
        total
    }

    /// How many datagrams were dropped for `reason`.
    pub fn drops(&self, reason: DropReason) -> u64 {
        self.drop_counts[reason.index()]
    }

    /// Network-wide drop counts broken down by reason — lets fault tests
    /// assert on exact drop causes (`fault_injected`, `node_down`, ...)
    /// instead of aggregate loss. Iterates [`DropReason::ALL`], so the
    /// summary order is a constant of the enum, not of the run.
    pub fn drop_summary(&self) -> DropSummary {
        DropSummary::from_counts(
            DropReason::ALL
                .into_iter()
                .map(|reason| (reason, self.drops(reason))),
        )
    }

    /// Exports the kernel's aggregate counters into a metrics registry
    /// under `simnet.*`: total traffic, per-reason drops, queue depth,
    /// events processed and the live-node count. Deliberately allocates
    /// nothing per node (the live count is one branch-free scan) — this is
    /// the surface the flight recorder samples every cadence tick, and it
    /// must stay cheap at 100k-node scale.
    pub fn export_metrics_aggregate(&self, registry: &mut telemetry::MetricsRegistry) {
        let total = self.total_stats();
        registry.set_counter("simnet.datagrams_sent", total.datagrams_sent);
        registry.set_counter("simnet.datagrams_delivered", total.datagrams_delivered);
        registry.set_counter("simnet.datagrams_dropped", total.datagrams_dropped);
        registry.set_counter("simnet.bytes_sent", total.bytes_sent);
        registry.set_counter("simnet.timers_fired", total.timers_fired);
        registry.set_counter("simnet.events_processed", self.events_processed);
        registry.set_gauge("simnet.queue_len", self.queue.len() as i64);
        registry.set_gauge(
            "simnet.nodes_alive",
            self.slots.iter().filter(|s| s.alive).count() as i64,
        );
        for reason in DropReason::ALL {
            registry.set_counter(format!("simnet.drops.{}", reason.label()), self.drops(reason));
        }
    }

    /// Exports the kernel's counters into a metrics registry under
    /// `simnet.*`: the aggregate figures of
    /// [`Network::export_metrics_aggregate`] plus per-node
    /// sent/delivered/dropped/alive figures. O(nodes) — point-in-time
    /// reports only, never per recorder tick.
    pub fn export_metrics(&self, registry: &mut telemetry::MetricsRegistry) {
        self.export_metrics_aggregate(registry);
        for (index, slot) in self.slots.iter().enumerate() {
            let prefix = format!("simnet.node{index}");
            registry.set_counter(format!("{prefix}.sent"), slot.stats.datagrams_sent);
            registry.set_counter(format!("{prefix}.delivered"), slot.stats.datagrams_delivered);
            registry.set_counter(format!("{prefix}.dropped"), slot.stats.datagrams_dropped);
            registry.set_gauge(format!("{prefix}.alive"), i64::from(slot.alive));
        }
    }

    /// The log of dropped datagrams (empty until
    /// [`Network::enable_drop_log`]).
    pub fn drop_log(&self) -> &DropLog {
        &self.drop_log
    }

    /// Starts logging every dropped datagram, keeping the newest `capacity`
    /// records and replacing any previous log.
    pub fn enable_drop_log(&mut self, capacity: usize) {
        self.drop_log = DropLog::with_capacity(capacity);
    }

    /// Mutable access to the link table, for scenarios that degrade or
    /// partition the network mid-run.
    pub fn links_mut(&mut self) -> &mut LinkTable {
        &mut self.links
    }

    /// Immutable access to the link table.
    pub fn links(&self) -> &LinkTable {
        &self.links
    }

    /// Shuts a node down: pending deliveries and timers addressed to it are
    /// discarded when they come up.
    pub fn shutdown_node(&mut self, node: NodeId) {
        if let Some(slot) = self.slots.get_mut(node.index()) {
            slot.alive = false;
        }
    }

    /// Brings a previously shut-down node back: its `on_start` hook runs
    /// again at the current virtual instant (re-arming timers, re-announcing
    /// itself). The node keeps its addresses and in-memory state — this models
    /// a process that was paused/crashed and restarted on the same host, the
    /// churn scenario of the fault driver. Datagrams and timers that came up
    /// while it was down stay lost. No-op if the node is already alive.
    pub fn revive_node(&mut self, node: NodeId) {
        let slot = &mut self.slots[node.index()];
        if slot.alive {
            return;
        }
        slot.alive = true;
        self.push_event(self.now, EventKind::Start { node });
    }

    /// Blocks all unicast and multicast delivery from `a` to `b` and from `b`
    /// to `a` (an overlay-link cut, e.g. one rendezvous-to-rendezvous mesh
    /// link), counting the casualties as [`DropReason::FaultInjected`].
    pub fn block_pair(&mut self, a: NodeId, b: NodeId) {
        self.blocked_pairs.insert((a, b));
        self.blocked_pairs.insert((b, a));
    }

    /// Restores delivery between two nodes cut by [`Network::block_pair`].
    pub fn unblock_pair(&mut self, a: NodeId, b: NodeId) {
        self.blocked_pairs.remove(&(a, b));
        self.blocked_pairs.remove(&(b, a));
    }

    /// Whether traffic from `from` to `to` is currently fault-blocked.
    pub fn is_pair_blocked(&self, from: NodeId, to: NodeId) -> bool {
        self.blocked_pairs.contains(&(from, to))
    }

    /// Re-assigns fresh host addresses to all unicast interfaces of `node`,
    /// simulating a DHCP change / network move. Datagrams already in flight to
    /// the old addresses, and any future sends to them, are dropped with
    /// [`DropReason::UnknownAddress`]. Returns the new addresses.
    pub fn reassign_addresses(&mut self, node: NodeId) -> Vec<SimAddress> {
        let new_host = self.next_host;
        self.next_host += 1;
        let slot = &mut self.slots[node.index()];
        let mut changes = Vec::new();
        for addr in &mut slot.interfaces {
            if addr.transport == TransportKind::Multicast {
                continue;
            }
            let old = *addr;
            let new = SimAddress::new(old.transport, new_host, old.port);
            *addr = new;
            changes.push((old, new));
        }
        let new_addrs: Vec<SimAddress> = slot.interfaces.clone();
        // Tombstone the abandoned host and claim the fresh one in the table;
        // sends to the old addresses now miss and drop as `UnknownAddress`.
        if let Some(&(old, _)) = changes.first() {
            if let Some(entry) = self
                .addr_table
                .get_mut((old.host.wrapping_sub(HOST_BASE)) as usize)
            {
                *entry = None;
            }
        }
        let new_offset = (new_host - HOST_BASE) as usize;
        if self.addr_table.len() <= new_offset {
            self.addr_table.resize(new_offset + 1, None);
        }
        self.addr_table[new_offset] = Some(node);
        for (old, new) in changes {
            self.dispatch_address_change(node, old, new);
        }
        new_addrs
    }

    /// Runs the event loop until the queue is empty or `horizon` is reached,
    /// whichever comes first. The clock ends at `min(horizon, last event)`.
    pub fn run_until(&mut self, horizon: SimTime) {
        loop {
            // Wakes are due at the current instant: one raised by the last
            // handler before the horizon is dispatched in this run, not the
            // next.
            self.take_wakes();
            match self.queue.peek() {
                Some(Reverse(head)) if head.at <= horizon => self.dispatch_next(),
                _ => break,
            };
        }
        if self.now < horizon {
            self.now = horizon;
        }
    }

    /// Runs for `duration` of virtual time from the current instant.
    pub fn run_for(&mut self, duration: SimDuration) {
        let horizon = self.now + duration;
        self.run_until(horizon);
    }

    /// Runs until no events remain. Returns the number of events processed.
    ///
    /// Protocol layers typically keep periodic timers alive forever, so most
    /// callers want [`Network::run_until`] instead; this is useful for small
    /// unit-test topologies.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut processed = 0;
        while self.step() {
            processed += 1;
        }
        processed
    }

    /// Processes a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.take_wakes();
        self.dispatch_next()
    }

    /// Queues every wake raised since the last call as a zero-delay timer
    /// event at the current instant, in wake order. With no wake pending it
    /// costs one flag test, which is all the per-event path pays; the
    /// scheduling itself stays out of line.
    #[inline]
    fn take_wakes(&mut self) {
        if self.wakes.is_pending() {
            self.schedule_wakes();
        }
    }

    fn schedule_wakes(&mut self) {
        let mut wakes = std::mem::take(&mut self.wake_scratch);
        self.wakes.swap(&mut wakes);
        for (node, tag) in wakes.drain(..) {
            self.next_timer += 1;
            let token = TimerToken(self.next_timer);
            self.push_event(self.now, EventKind::Timer { node, token, tag });
        }
        self.wake_scratch = wakes;
    }

    /// Pops and handles the earliest event. Returns `false` if the queue was
    /// empty.
    fn dispatch_next(&mut self) -> bool {
        let Some(Reverse(event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.at >= self.now, "event queue went backwards");
        self.now = event.at;
        self.events_processed += 1;
        match event.kind {
            EventKind::Start { node } => self.handle_start(node),
            EventKind::Deliver { dst, datagram } => self.handle_deliver(dst, datagram),
            EventKind::Timer { node, token, tag } => self.handle_timer(node, token, tag),
        }
        true
    }

    /// Calls `f` with mutable access to the concrete node `T` and a fresh
    /// [`NodeContext`] at the current virtual time; commands queued by `f`
    /// (sends, timers) are applied as if a handler had run.
    ///
    /// This is how applications and test harnesses drive peers "from the
    /// outside" (e.g. a user clicking *publish*).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist, has been shut down, or is not of
    /// type `T`.
    pub fn invoke<T: SimNode, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T, &mut NodeContext<'_>) -> R,
    ) -> R {
        let slot_alive = self.slots[node.index()].alive;
        assert!(slot_alive, "invoke on a node that has been shut down: {node}");
        let mut boxed = self.slots[node.index()]
            .node
            .take()
            .expect("node is re-entrantly borrowed");
        let scratch = std::mem::take(&mut self.command_scratch);
        let (result, commands, charged) = {
            let slot = &mut self.slots[node.index()];
            let mut ctx = NodeContext {
                node_id: node,
                now: self.now,
                subnet: slot.subnet,
                interfaces: &slot.interfaces,
                rng: &mut slot.rng,
                next_timer: &mut self.next_timer,
                wakes: &self.wakes,
                charged: SimDuration::ZERO,
                commands: scratch,
            };
            let concrete = boxed
                .as_any_mut()
                .downcast_mut::<T>()
                .unwrap_or_else(|| panic!("node {node} is not of the requested concrete type"));
            let result = f(concrete, &mut ctx);
            (result, std::mem::take(&mut ctx.commands), ctx.charged)
        };
        self.slots[node.index()].node = Some(boxed);
        let _ = charged;
        self.apply_commands(node, commands);
        result
    }

    /// Immutable access to the concrete node type, for assertions.
    ///
    /// Returns `None` if the node is of a different type.
    pub fn node_ref<T: SimNode>(&self, node: NodeId) -> Option<&T> {
        self.slots[node.index()]
            .node
            .as_ref()
            .and_then(|n| n.as_any().downcast_ref::<T>())
    }

    /// Mutable access to the concrete node type **without** a context; the
    /// closure cannot send or set timers. Prefer [`Network::invoke`].
    pub fn node_mut<T: SimNode>(&mut self, node: NodeId) -> Option<&mut T> {
        self.slots[node.index()]
            .node
            .as_mut()
            .and_then(|n| n.as_any_mut().downcast_mut::<T>())
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            kind,
        }));
    }

    fn handle_start(&mut self, node: NodeId) {
        if !self.slots[node.index()].alive {
            return;
        }
        let commands = self.run_handler(node, super::node::SimNode::on_start);
        self.apply_commands(node, commands);
    }

    fn handle_deliver(&mut self, dst: NodeId, datagram: Datagram) {
        let slot = &mut self.slots[dst.index()];
        if !slot.alive {
            // The target died while the datagram was in flight. Goes through
            // `record_drop` so the drop log can explain the casualty —
            // drop forensics must never see a silently vanished copy.
            self.record_drop(
                self.now,
                datagram.src_node,
                datagram.dst_addr,
                DropReason::NodeDown,
                Some(dst),
            );
            return;
        }
        slot.stats.datagrams_delivered += 1;
        slot.stats.bytes_delivered += datagram.payload.len() as u64;
        let commands = self.run_handler(dst, |n, ctx| n.on_datagram(ctx, datagram));
        self.apply_commands(dst, commands);
    }

    fn handle_timer(&mut self, node: NodeId, token: TimerToken, tag: u64) {
        if self.cancelled_timers.remove(&token) {
            return;
        }
        if !self.slots[node.index()].alive {
            return;
        }
        self.slots[node.index()].stats.timers_fired += 1;
        let commands = self.run_handler(node, |n, ctx| n.on_timer(ctx, token, tag));
        self.apply_commands(node, commands);
    }

    fn dispatch_address_change(&mut self, node: NodeId, old: SimAddress, new: SimAddress) {
        let commands = self.run_handler(node, |n, ctx| n.on_address_changed(ctx, old, new));
        self.apply_commands(node, commands);
    }

    fn run_handler(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn SimNode, &mut NodeContext<'_>),
    ) -> Vec<Command> {
        let mut boxed = self.slots[node.index()]
            .node
            .take()
            .expect("node is re-entrantly borrowed");
        let scratch = std::mem::take(&mut self.command_scratch);
        let commands = {
            let slot = &mut self.slots[node.index()];
            let mut ctx = NodeContext {
                node_id: node,
                now: self.now,
                subnet: slot.subnet,
                interfaces: &slot.interfaces,
                rng: &mut slot.rng,
                next_timer: &mut self.next_timer,
                wakes: &self.wakes,
                charged: SimDuration::ZERO,
                commands: scratch,
            };
            f(boxed.as_mut(), &mut ctx);
            std::mem::take(&mut ctx.commands)
        };
        self.slots[node.index()].node = Some(boxed);
        commands
    }

    fn apply_commands(&mut self, node: NodeId, mut commands: Vec<Command>) {
        for command in commands.drain(..) {
            match command {
                Command::Send {
                    local_delay,
                    dst,
                    payload,
                } => {
                    self.process_send(node, local_delay, dst, payload);
                }
                Command::SetTimer { token, at, tag } => {
                    self.push_event(at.max(self.now), EventKind::Timer { node, token, tag });
                }
                Command::CancelTimer { token } => {
                    self.cancelled_timers.insert(token);
                }
            }
        }
        // Hand the drained buffer back for the next handler. Nothing in the
        // command loop re-enters a node handler, so the scratch slot is free
        // by the time we get here.
        self.command_scratch = commands;
    }

    /// Resolves a unicast destination to the node that currently owns it: an
    /// array index by host offset, then an exact-interface check so stale
    /// ports/transports (and addresses abandoned by a re-assignment) still
    /// miss, exactly like the old exact-address map.
    fn lookup_unicast(&self, addr: SimAddress) -> Option<NodeId> {
        let offset = addr.host.checked_sub(HOST_BASE)? as usize;
        let node = (*self.addr_table.get(offset)?)?;
        let slot = &self.slots[node.index()];
        if slot.interfaces.contains(&addr) {
            Some(node)
        } else {
            None
        }
    }

    /// Records a drop stamped at `at` — the datagram's effective departure
    /// time for send-path drops (handler entry plus the sender's charged CPU
    /// time), or the delivery instant for in-flight casualties. Stamping at
    /// departure keeps kernel drop records joinable against span traces,
    /// whose timestamps are charge-inclusive.
    fn record_drop(
        &mut self,
        at: SimTime,
        from: NodeId,
        to_addr: SimAddress,
        reason: DropReason,
        dst: Option<NodeId>,
    ) {
        self.drop_counts[reason.index()] += 1;
        if let Some(dst) = dst {
            self.slots[dst.index()].stats.datagrams_dropped += 1;
        }
        self.drop_log.push(DropRecord {
            at,
            from,
            to_addr,
            reason,
        });
    }

    fn process_send(&mut self, from: NodeId, local_delay: SimDuration, dst: SimAddress, payload: Bytes) {
        // The effective departure instant: the sender's handler entry plus
        // the CPU time it had charged when it queued the send.
        let departed = self.now + local_delay;
        if payload.len() > self.max_datagram {
            // Oversized payloads are dropped loudly in the drop log *and*
            // counted under their own reason so `why_missing` can name the
            // cause; real UDP would fragment or fail silently here.
            self.record_drop(departed, from, dst, DropReason::OversizedPayload, None);
            return;
        }
        let src_subnet = self.slots[from.index()].subnet;
        let src_addr = self.slots[from.index()]
            .interfaces
            .iter()
            .copied()
            .find(|a| a.transport == dst.transport)
            .expect("send was validated against local interfaces");
        {
            let stats = &mut self.slots[from.index()].stats;
            stats.datagrams_sent += 1;
            stats.bytes_sent += payload.len() as u64;
        }

        if dst.is_multicast() {
            // Membership is precomputed per subnet (transports are fixed at
            // build time); only the liveness filter runs per send, into a
            // reused scratch buffer.
            let mut members = std::mem::take(&mut self.mcast_scratch);
            members.clear();
            if let Some(group) = self.mcast_groups.get(&src_subnet) {
                members.extend(
                    group
                        .iter()
                        .copied()
                        .filter(|&m| m != from && self.slots[m.index()].alive),
                );
            }
            if members.is_empty() {
                self.record_drop(departed, from, dst, DropReason::EmptyMulticastGroup, None);
            } else {
                for &member in &members {
                    self.deliver_one(from, src_addr, dst, member, local_delay, payload.clone());
                }
            }
            self.mcast_scratch = members;
            return;
        }

        let Some(target) = self.lookup_unicast(dst) else {
            self.record_drop(departed, from, dst, DropReason::UnknownAddress, None);
            return;
        };
        if !self.slots[target.index()].alive {
            self.record_drop(departed, from, dst, DropReason::NodeDown, Some(target));
            return;
        }
        // Bluetooth is short-range: only works within the same subnet.
        if dst.transport == TransportKind::Bluetooth && self.slots[target.index()].subnet != src_subnet {
            self.record_drop(departed, from, dst, DropReason::UnknownAddress, Some(target));
            return;
        }
        // Firewalls filter inbound point-to-point traffic from other subnets.
        if self.slots[target.index()].subnet != src_subnet
            && dst.transport.is_point_to_point()
            && !self.slots[target.index()].firewall.admits_inbound(dst.transport)
        {
            self.record_drop(departed, from, dst, DropReason::Firewall, Some(target));
            return;
        }
        self.deliver_one(from, src_addr, dst, target, local_delay, payload);
    }

    fn deliver_one(
        &mut self,
        from: NodeId,
        src_addr: SimAddress,
        dst_addr: SimAddress,
        target: NodeId,
        local_delay: SimDuration,
        payload: Bytes,
    ) {
        if self.blocked_pairs.contains(&(from, target)) {
            self.record_drop(
                self.now + local_delay,
                from,
                dst_addr,
                DropReason::FaultInjected,
                Some(target),
            );
            return;
        }
        let src_subnet = self.slots[from.index()].subnet;
        let dst_subnet = self.slots[target.index()].subnet;
        let spec = *self.links.spec(src_subnet, dst_subnet);
        if spec.loss_probability > 0.0 && self.master_rng.gen_bool(spec.loss_probability) {
            self.record_drop(
                self.now + local_delay,
                from,
                dst_addr,
                DropReason::RandomLoss,
                Some(target),
            );
            return;
        }
        let jitter = if spec.jitter == SimDuration::ZERO {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(self.master_rng.gen_range(0..=spec.jitter.as_micros()))
        };
        let datagram = Datagram {
            src_node: from,
            src_addr,
            dst_addr,
            transport: dst_addr.transport,
            payload,
        };
        let delay = self.slots[from.index()].tx_overhead
            + local_delay
            + spec.latency
            + jitter
            + spec.transmission_delay(datagram.wire_size())
            + spec.transport_penalty(dst_addr.transport)
            + self.slots[target.index()].rx_overhead;
        let at = self.now + delay;
        self.push_event(
            at,
            EventKind::Deliver {
                dst: target,
                datagram,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node that counts what it receives and can echo datagrams back.
    struct Echo {
        received: Vec<Vec<u8>>,
        echo: bool,
        timer_tags: Vec<u64>,
    }

    impl Echo {
        fn new(echo: bool) -> Self {
            Echo {
                received: Vec::new(),
                echo,
                timer_tags: Vec::new(),
            }
        }
    }

    impl SimNode for Echo {
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dg: Datagram) {
            self.received.push(dg.payload.to_vec());
            if self.echo {
                let _ = ctx.send(dg.src_addr, dg.payload.clone());
            }
        }
        fn on_timer(&mut self, _ctx: &mut NodeContext<'_>, _token: TimerToken, tag: u64) {
            self.timer_tags.push(tag);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn two_node_net(echo: bool) -> (Network, NodeId, NodeId) {
        let mut builder = NetworkBuilder::new(7);
        let a = builder.add_node(Box::new(Echo::new(false)), NodeConfig::lan_peer(SubnetId(0)));
        let b = builder.add_node(Box::new(Echo::new(echo)), NodeConfig::lan_peer(SubnetId(0)));
        let mut net = builder.build();
        net.enable_drop_log(1024);
        (net, a, b)
    }

    #[test]
    fn unicast_delivery_works() {
        let (mut net, a, b) = two_node_net(false);
        let dst = net
            .addresses_of(b)
            .iter()
            .copied()
            .find(|x| x.transport == TransportKind::Tcp)
            .unwrap();
        net.invoke::<Echo, _>(a, |_n, ctx| {
            ctx.send(dst, Bytes::from_static(b"ping")).unwrap();
        });
        net.run_until_idle();
        let echo = net.node_ref::<Echo>(b).unwrap();
        assert_eq!(echo.received, vec![b"ping".to_vec()]);
        assert_eq!(net.stats_of(a).datagrams_sent, 1);
        assert_eq!(net.stats_of(b).datagrams_delivered, 1);
        assert!(net.now() > SimTime::ZERO);
    }

    #[test]
    fn echo_round_trip() {
        let (mut net, a, b) = two_node_net(true);
        let dst = net.addresses_of(b)[0];
        net.invoke::<Echo, _>(a, |_n, ctx| {
            ctx.send(dst, Bytes::from_static(b"hello")).unwrap();
        });
        net.run_until_idle();
        assert_eq!(net.node_ref::<Echo>(a).unwrap().received.len(), 1);
        assert_eq!(net.node_ref::<Echo>(b).unwrap().received.len(), 1);
    }

    #[test]
    fn multicast_reaches_same_subnet_only() {
        let mut builder = NetworkBuilder::new(3);
        let a = builder.add_node(Box::new(Echo::new(false)), NodeConfig::lan_peer(SubnetId(0)));
        let b = builder.add_node(Box::new(Echo::new(false)), NodeConfig::lan_peer(SubnetId(0)));
        let c = builder.add_node(Box::new(Echo::new(false)), NodeConfig::lan_peer(SubnetId(1)));
        let mut net = builder.build();
        net.invoke::<Echo, _>(a, |_n, ctx| {
            ctx.send_multicast(Bytes::from_static(b"disco")).unwrap();
        });
        net.run_until_idle();
        assert_eq!(net.node_ref::<Echo>(b).unwrap().received.len(), 1);
        assert_eq!(net.node_ref::<Echo>(c).unwrap().received.len(), 0);
        let _ = a;
    }

    #[test]
    fn firewall_blocks_cross_subnet_tcp() {
        let mut builder = NetworkBuilder::new(3);
        let a = builder.add_node(Box::new(Echo::new(false)), NodeConfig::lan_peer(SubnetId(0)));
        let b = builder.add_node(
            Box::new(Echo::new(false)),
            NodeConfig::lan_peer(SubnetId(1)).with_firewall(FirewallPolicy::behind_firewall()),
        );
        let mut net = builder.build();
        let tcp = net
            .addresses_of(b)
            .iter()
            .copied()
            .find(|x| x.transport == TransportKind::Tcp)
            .unwrap();
        let http = net
            .addresses_of(b)
            .iter()
            .copied()
            .find(|x| x.transport == TransportKind::Http)
            .unwrap();
        net.invoke::<Echo, _>(a, |_n, ctx| {
            ctx.send(tcp, Bytes::from_static(b"blocked")).unwrap();
            ctx.send(http, Bytes::from_static(b"allowed")).unwrap();
        });
        net.run_until_idle();
        assert_eq!(
            net.node_ref::<Echo>(b).unwrap().received,
            vec![b"allowed".to_vec()]
        );
        assert_eq!(net.drops(DropReason::Firewall), 1);
    }

    #[test]
    fn aggregate_metrics_skip_the_per_node_rows() {
        let (mut net, a, b) = two_node_net(false);
        let dst = net.addresses_of(b)[0];
        net.invoke::<Echo, _>(a, |_n, ctx| {
            ctx.send(dst, Bytes::from_static(b"count me")).unwrap();
        });
        net.run_until_idle();
        net.shutdown_node(b);

        let mut registry = telemetry::MetricsRegistry::new();
        net.export_metrics_aggregate(&mut registry);
        assert_eq!(registry.counter("simnet.datagrams_sent"), 1);
        assert_eq!(
            registry.counter("simnet.events_processed"),
            net.events_processed()
        );
        assert_eq!(registry.gauge("simnet.nodes_alive"), Some(1));
        assert!(
            registry.counters_with_prefix("simnet.node").is_empty(),
            "the recorder-facing export carries no per-node rows"
        );

        let mut full = telemetry::MetricsRegistry::new();
        net.export_metrics(&mut full);
        assert_eq!(full.counter("simnet.node0.sent"), 1);
        assert_eq!(
            full.counter("simnet.datagrams_sent"),
            1,
            "full export embeds the aggregate"
        );
    }

    #[test]
    fn stale_address_after_reassignment_is_dropped() {
        let (mut net, a, b) = two_node_net(false);
        let old = net.addresses_of(b)[0];
        let new_addrs = net.reassign_addresses(b);
        assert!(!new_addrs.contains(&old));
        net.invoke::<Echo, _>(a, |_n, ctx| {
            ctx.send(old, Bytes::from_static(b"stale")).unwrap();
        });
        net.run_until_idle();
        assert_eq!(net.node_ref::<Echo>(b).unwrap().received.len(), 0);
        assert_eq!(net.drops(DropReason::UnknownAddress), 1);

        // The new address works.
        let fresh = net.addresses_of(b)[0];
        net.invoke::<Echo, _>(a, |_n, ctx| {
            ctx.send(fresh, Bytes::from_static(b"fresh")).unwrap();
        });
        net.run_until_idle();
        assert_eq!(net.node_ref::<Echo>(b).unwrap().received.len(), 1);
    }

    #[test]
    fn oversized_payload_drop_is_counted_under_its_own_reason() {
        let mut builder = NetworkBuilder::new(5);
        builder.max_datagram(8);
        let a = builder.add_node(Box::new(Echo::new(false)), NodeConfig::lan_peer(SubnetId(0)));
        let b = builder.add_node(Box::new(Echo::new(false)), NodeConfig::lan_peer(SubnetId(0)));
        let mut net = builder.build();
        net.enable_drop_log(64);
        let dst = net.addresses_of(b)[0];
        net.invoke::<Echo, _>(a, |_n, ctx| {
            ctx.send(dst, Bytes::from_static(b"way past the limit")).unwrap();
        });
        net.run_until_idle();
        assert_eq!(net.node_ref::<Echo>(b).unwrap().received.len(), 0);
        assert_eq!(net.drops(DropReason::OversizedPayload), 1);
        assert_eq!(net.drops(DropReason::UnknownAddress), 0, "must not masquerade");
        assert_eq!(net.drop_summary().to_string(), "oversized_payload=1");
        // The drop log carries the same verdict for drop forensics.
        assert!(net
            .drop_log()
            .records()
            .iter()
            .any(|r| r.reason == DropReason::OversizedPayload));
        let _ = a;
    }

    #[test]
    fn events_processed_counts_every_step() {
        let (mut net, a, b) = two_node_net(true);
        let after_start = net.run_until_idle();
        assert_eq!(net.events_processed(), after_start);
        let dst = net.addresses_of(b)[0];
        net.invoke::<Echo, _>(a, |_n, ctx| {
            ctx.send(dst, Bytes::from_static(b"ping")).unwrap();
        });
        let more = net.run_until_idle();
        assert_eq!(more, 2, "echo round trip is two deliveries");
        assert_eq!(net.events_processed(), after_start + more);
    }

    #[test]
    fn multicast_skips_dead_members_and_detects_empty_groups() {
        let mut builder = NetworkBuilder::new(9);
        let a = builder.add_node(Box::new(Echo::new(false)), NodeConfig::lan_peer(SubnetId(0)));
        let b = builder.add_node(Box::new(Echo::new(false)), NodeConfig::lan_peer(SubnetId(0)));
        let c = builder.add_node(Box::new(Echo::new(false)), NodeConfig::lan_peer(SubnetId(0)));
        let mut net = builder.build();
        net.run_until_idle();
        net.shutdown_node(b);
        net.invoke::<Echo, _>(a, |_n, ctx| {
            ctx.send_multicast(Bytes::from_static(b"who's there")).unwrap();
        });
        net.run_until_idle();
        assert_eq!(net.node_ref::<Echo>(c).unwrap().received.len(), 1);
        assert_eq!(net.drops(DropReason::EmptyMulticastGroup), 0);
        net.shutdown_node(c);
        net.invoke::<Echo, _>(a, |_n, ctx| {
            ctx.send_multicast(Bytes::from_static(b"anyone")).unwrap();
        });
        net.run_until_idle();
        assert_eq!(net.drops(DropReason::EmptyMulticastGroup), 1);
    }

    #[test]
    fn timers_fire_and_cancel() {
        let (mut net, a, _b) = two_node_net(false);
        let token = net.invoke::<Echo, _>(a, |_n, ctx| {
            ctx.set_timer(SimDuration::from_millis(5), 1);
            ctx.set_timer(SimDuration::from_millis(10), 2)
        });
        net.invoke::<Echo, _>(a, |_n, ctx| ctx.cancel_timer(token));
        net.run_until_idle();
        assert_eq!(net.node_ref::<Echo>(a).unwrap().timer_tags, vec![1]);
    }

    #[test]
    fn shutdown_stops_delivery() {
        let (mut net, a, b) = two_node_net(false);
        let dst = net.addresses_of(b)[0];
        net.shutdown_node(b);
        net.invoke::<Echo, _>(a, |_n, ctx| {
            ctx.send(dst, Bytes::from_static(b"dead letter")).unwrap();
        });
        net.run_until_idle();
        assert!(!net.is_alive(b));
        assert_eq!(net.drops(DropReason::NodeDown), 1);
        let summary = net.drop_summary();
        assert_eq!(summary.of(DropReason::NodeDown), 1);
        assert_eq!(summary.total(), 1);
        assert_eq!(summary.to_string(), "node_down=1");
    }

    #[test]
    fn metrics_export_covers_traffic_drops_and_liveness() {
        let (mut net, a, b) = two_node_net(false);
        let dst = net.addresses_of(b)[0];
        net.invoke::<Echo, _>(a, |_n, ctx| {
            ctx.send(dst, Bytes::from_static(b"ping")).unwrap();
        });
        net.run_until_idle();
        net.shutdown_node(b);
        net.invoke::<Echo, _>(a, |_n, ctx| {
            ctx.send(dst, Bytes::from_static(b"lost")).unwrap();
        });
        net.run_until_idle();

        let mut registry = telemetry::MetricsRegistry::new();
        net.export_metrics(&mut registry);
        assert_eq!(registry.counter("simnet.datagrams_sent"), 2);
        assert_eq!(registry.counter("simnet.datagrams_delivered"), 1);
        assert_eq!(registry.counter("simnet.drops.node_down"), 1);
        assert_eq!(registry.counter("simnet.drops.fault_injected"), 0);
        assert_eq!(registry.counter("simnet.node0.sent"), 2);
        assert_eq!(registry.gauge("simnet.node0.alive"), Some(1));
        assert_eq!(registry.gauge("simnet.node1.alive"), Some(0));
        assert_eq!(registry.gauge("simnet.queue_len"), Some(0));
    }

    #[test]
    fn lossy_links_drop_some_datagrams() {
        let mut builder = NetworkBuilder::new(11);
        let a = builder.add_node(Box::new(Echo::new(false)), NodeConfig::lan_peer(SubnetId(0)));
        let b = builder.add_node(Box::new(Echo::new(false)), NodeConfig::lan_peer(SubnetId(0)));
        let mut net = builder.build();
        net.links_mut().set_default(LinkSpec::lan().with_loss(0.5));
        let dst = net.addresses_of(b)[0];
        for _ in 0..200 {
            net.invoke::<Echo, _>(a, |_n, ctx| {
                ctx.send(dst, Bytes::from_static(b"x")).unwrap();
            });
        }
        net.run_until_idle();
        let received = net.node_ref::<Echo>(b).unwrap().received.len();
        assert!(
            received > 50 && received < 150,
            "loss should be roughly half, got {received}"
        );
        assert_eq!(net.drops(DropReason::RandomLoss) as usize + received, 200);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| -> (u64, u64) {
            let mut builder = NetworkBuilder::new(seed);
            let a = builder.add_node(Box::new(Echo::new(false)), NodeConfig::lan_peer(SubnetId(0)));
            let b = builder.add_node(Box::new(Echo::new(true)), NodeConfig::lan_peer(SubnetId(0)));
            let mut net = builder.build();
            net.links_mut().set_default(LinkSpec::lan().with_loss(0.3));
            let dst = net.addresses_of(b)[0];
            for _ in 0..50 {
                net.invoke::<Echo, _>(a, |_n, ctx| {
                    ctx.send(dst, Bytes::from_static(b"determinism")).unwrap();
                });
            }
            net.run_until_idle();
            (net.now().as_micros(), net.total_stats().datagrams_delivered)
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn run_until_advances_clock_to_horizon() {
        let (mut net, _a, _b) = two_node_net(false);
        net.run_until(SimTime::from_secs(5));
        assert_eq!(net.now(), SimTime::from_secs(5));
    }

    /// Records every timer it sees with its instant; on the timer tagged
    /// `RELAY` it wakes whatever waker it holds.
    #[derive(Default)]
    struct Woken {
        fired: Vec<(SimTime, u64)>,
        relay: Option<crate::Waker>,
    }

    const RELAY: u64 = 100;

    impl SimNode for Woken {
        fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, _dg: Datagram) {}
        fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _token: TimerToken, tag: u64) {
            self.fired.push((ctx.now(), tag));
            if tag == RELAY {
                if let Some(waker) = &self.relay {
                    waker.wake();
                }
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn woken_net() -> (Network, NodeId) {
        let mut builder = NetworkBuilder::new(13);
        let a = builder.add_node(Box::<Woken>::default(), NodeConfig::lan_peer(SubnetId(0)));
        let mut net = builder.build();
        net.run_until_idle();
        (net, a)
    }

    #[test]
    fn a_wake_between_runs_fires_once_at_the_current_instant_in_wake_order() {
        let (mut net, a) = woken_net();
        let wakers: Vec<crate::Waker> =
            net.invoke::<Woken, _>(a, |_n, ctx| (1..=3).map(|tag| ctx.waker(tag)).collect());
        net.run_for(SimDuration::from_secs(2));
        let at = net.now();
        wakers[1].wake();
        wakers[0].wake();
        wakers[2].wake();
        net.run_for(SimDuration::from_secs(1));
        assert_eq!(
            net.node_ref::<Woken>(a).unwrap().fired,
            vec![(at, 2), (at, 1), (at, 3)],
            "each wake fires once, at the instant it was raised, in wake order"
        );
        assert_eq!(net.stats_of(a).timers_fired, 3);
        net.run_for(SimDuration::from_secs(1));
        assert_eq!(
            net.node_ref::<Woken>(a).unwrap().fired.len(),
            3,
            "a wake fires once"
        );
    }

    #[test]
    fn a_wake_raised_at_the_horizon_is_dispatched_before_run_until_returns() {
        let (mut net, a) = woken_net();
        let horizon = SimTime::from_secs(5);
        net.invoke::<Woken, _>(a, |n, ctx| {
            n.relay = Some(ctx.waker(7));
            ctx.set_timer(horizon - ctx.now(), RELAY);
        });
        net.run_until(horizon);
        assert_eq!(
            net.node_ref::<Woken>(a).unwrap().fired,
            vec![(horizon, RELAY), (horizon, 7)],
            "the handler's wake must not slip into the next run"
        );
        assert_eq!(net.now(), horizon);
    }

    #[test]
    fn a_wake_for_a_shut_down_node_fires_nothing() {
        let (mut net, a) = woken_net();
        let waker = net.invoke::<Woken, _>(a, |_n, ctx| ctx.waker(1));
        net.shutdown_node(a);
        waker.wake();
        net.run_until_idle();
        assert!(net.node_ref::<Woken>(a).unwrap().fired.is_empty());
        assert_eq!(
            net.stats_of(a).timers_fired,
            0,
            "a dropped wake is not a fired timer"
        );
    }

    #[test]
    fn charge_delays_departure() {
        let (mut net, a, b) = two_node_net(false);
        let dst = net.addresses_of(b)[0];
        net.invoke::<Echo, _>(a, |_n, ctx| {
            ctx.charge(SimDuration::from_millis(500));
            ctx.send(dst, Bytes::from_static(b"late")).unwrap();
        });
        net.run_until_idle();
        assert!(net.now() >= SimTime::from_millis(500));
        assert_eq!(net.node_ref::<Echo>(b).unwrap().received.len(), 1);
    }
}

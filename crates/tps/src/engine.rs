//! The TPS engine: the paper's `TPSEngine` / `JxtaTPSEngine` plus its four
//! building blocks (Figure 10).
//!
//! * **TPSEngine** — collects publications and subscriptions and dispatches
//!   them (this type).
//! * **Advertisements** — one advertisement per type: created eagerly
//!   (`AdvertisementsCreator`), and a periodic finder keeps searching for
//!   advertisements other peers created for the same type
//!   (`TPSAdvertisementsFinder` + listeners).
//! * **Interface Repository** — stores the call-back objects and exception
//!   handlers of every subscription (`TPSSubscriberManager`).
//! * **Connections** — input/output wire pipes and readers, managed through
//!   the underlying [`JxtaPeer`] (`TPSWireServiceFinder`, `TPSMyInputPipe`,
//!   `TPSMyOutputPipe`, `TPSPipeReader`).
//!
//! Programs normally drive the engine through the v2 session handles
//! ([`TpsEngine::session`] → [`crate::session::Publisher`] /
//! [`crate::session::Subscriber`]); the commands those handles enqueue are
//! drained by [`TpsEngine::pump`] at every lifecycle hook, and the first
//! command into an empty mailbox wakes the node ([`TIMER_MAILBOX`]) so it is
//! drained at the instant it was enqueued. No timer polls the mailbox. The
//! v1 facade ([`crate::interface::TpsInterface`]) calls the same core
//! operations synchronously, preserving the paper's exact API.

use crate::callback::{TpsCallBack, TpsExceptionHandler};
use crate::codec;
use crate::criteria::Criteria;
use crate::error::PsException;
use crate::event::{TpsEvent, TypeRegistry};
use crate::session::{DeliveryFn, Session, SessionCommand, SessionShared};
use jxta::peer::{is_jxta_timer, record_spans, trace_handle, PeerConfig, SharedTraceCollector};
use jxta::telemetry::trace::{DropCause, SpanKind, TraceId};
use jxta::{
    AdvKind, AnyAdvertisement, Bytes, JxtaEvent, JxtaPeer, Message, MessageElement, PeerGroup, PeerId,
    PipeAdvertisement, PipeId, SearchFilter, SeenWindow, Uuid,
};
use simnet::{Datagram, NodeContext, SimAddress, SimDuration, SimTime};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::rc::Rc;

/// Timer tag of the periodic advertisement finder.
pub const TIMER_FINDER: u64 = 0x5450_0001;

/// Timer tag of the session-mailbox wake: the engine's `simnet::Waker`
/// fires it when a command enters an empty mailbox, and the handler drains
/// the mailbox. It is never armed as a periodic timer.
pub const TIMER_MAILBOX: u64 = 0x5450_0002;

/// How often the advertisement finder re-queries the network (the
/// `SLEEPING_TIME` of the paper's `AdvertisementsFinder`).
const FINDER_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// How many advertisements each remote peer is asked for
/// (`NUMBER_OF_ADV_PER_PEER`).
const ADV_THRESHOLD: usize = 10;

/// Events smaller than this are padded up to it, so that wire messages match
/// the paper's 1910-byte message size.
const TARGET_EVENT_SIZE: usize = 1910;

/// Events kept in each of the sent/received histories backing
/// `objects_received` / `objects_sent`; the oldest are evicted first.
const HISTORY_LIMIT: usize = 1024;

/// Size of the sliding event-id window used for duplicate suppression
/// (oldest ids are forgotten first; a forgotten id arriving again would be
/// re-delivered, as with the wire service's bounded dedup).
const DEDUP_WINDOW: usize = 8192;

/// Namespace of TPS message elements.
const TPS_NS: &str = "tps";

/// Identifies one registered subscription (one call-back / exception-handler
/// pair). The paper unsubscribes by passing the call-back object again; in
/// Rust the id returned by `subscribe` (or carried by a
/// [`crate::session::SubscriptionGuard`]) plays that role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

/// Configuration of a TPS engine.
#[derive(Debug, Clone)]
pub struct TpsConfig {
    /// Configuration of the underlying JXTA peer.
    pub peer: PeerConfig,
    /// Fixed virtual CPU cost of marshalling one wire message.
    pub marshal_fixed: SimDuration,
    /// Additional marshalling cost per payload byte, in microseconds.
    pub marshal_per_byte_us: u64,
}

impl TpsConfig {
    /// Default configuration for a peer with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TpsConfig {
            peer: PeerConfig::edge(name),
            marshal_fixed: SimDuration::from_millis(2),
            marshal_per_byte_us: 1,
        }
    }

    /// Builder-style override of the JXTA peer configuration.
    pub fn with_peer(mut self, peer: PeerConfig) -> Self {
        self.peer = peer;
        self
    }

    /// Builder-style override of the seed rendezvous addresses.
    pub fn with_seeds(mut self, seeds: Vec<SimAddress>) -> Self {
        self.peer.seed_rendezvous = seeds;
        self
    }

    /// Builder-style selection of the dissemination strategy the underlying
    /// wire service runs (direct fan-out, rendezvous mesh or gossip).
    pub fn with_dissemination(mut self, dissemination: jxta::DisseminationConfig) -> Self {
        self.peer.dissemination = dissemination;
        self
    }
}

struct Subscription {
    id: SubscriptionId,
    type_name: &'static str,
    paused: bool,
    deliver: DeliveryFn,
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("id", &self.id)
            .field("type_name", &self.type_name)
            .field("paused", &self.paused)
            .finish()
    }
}

#[derive(Debug)]
struct TypeChannel {
    pipes: Vec<PipeAdvertisement>,
    input_open: bool,
    output_open: bool,
}

/// Counters exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TpsCounters {
    /// Events handed to `publish` (batched events count individually).
    pub events_published: u64,
    /// Wire messages sent per type channel (a batch is one message).
    pub messages_sent: u64,
    /// Event deliveries to local call-backs (one per matching subscription).
    pub events_delivered: u64,
    /// Events received from the network (after duplicate suppression).
    pub events_received: u64,
    /// Duplicate events dropped by the engine.
    pub duplicates_dropped: u64,
}

/// A bounded event history: `(actual type name, marshalled event)`. The name
/// is shared by every event of a message and the payload is a view of the
/// buffer the event arrived in (or was sent from), so recording an event
/// copies neither.
type History = VecDeque<(Rc<str>, Bytes)>;

/// The Type-based Publish/Subscribe engine bound to one JXTA peer.
#[derive(Debug)]
pub struct TpsEngine {
    config: TpsConfig,
    peer: JxtaPeer,
    registry: TypeRegistry,
    /// Ordered by type name: `run_finder` walks this map to issue discovery
    /// queries, so its order is part of the deterministic event schedule. A
    /// hash map here once leaked the process-random hash seed into query
    /// send order (breaking cross-process same-seed runs).
    channels: BTreeMap<String, TypeChannel>,
    pipe_to_type: BTreeMap<PipeId, String>,
    subscriptions: Vec<Subscription>,
    next_subscription: u64,
    session: Rc<SessionShared>,
    received: History,
    sent: History,
    seen_events: SeenWindow,
    publishers_seen: HashSet<PeerId>,
    counters: TpsCounters,
    tracer: Option<SharedTraceCollector>,
}

impl TpsEngine {
    /// Creates an engine (and its JXTA peer) from a configuration.
    pub fn new(config: TpsConfig) -> Self {
        let peer = JxtaPeer::new(config.peer.clone());
        TpsEngine {
            seen_events: SeenWindow::new(DEDUP_WINDOW),
            config,
            peer,
            registry: TypeRegistry::new(),
            channels: BTreeMap::new(),
            pipe_to_type: BTreeMap::new(),
            subscriptions: Vec::new(),
            next_subscription: 0,
            session: SessionShared::new(),
            received: VecDeque::new(),
            sent: VecDeque::new(),
            publishers_seen: HashSet::new(),
            counters: TpsCounters::default(),
            tracer: None,
        }
    }

    /// Installs a shared trace collector on the engine *and* its JXTA peer.
    ///
    /// The peer records the transport-level spans (`WireOut`/`WireIn`/mesh
    /// hops) but defers the terminal verdicts to this engine: TPS runs its
    /// own cross-pipe event-id dedup, so only the engine knows whether an
    /// arriving copy became a subscriber delivery or died as a duplicate.
    pub fn set_trace_collector(&mut self, tracer: SharedTraceCollector) {
        self.peer.set_trace_collector(Rc::clone(&tracer), true);
        self.tracer = Some(tracer);
    }

    /// Records one engine-side span per traced event id, if tracing is on.
    fn record_spans(&self, now: SimTime, ids: &[TraceId], kind: SpanKind) {
        if let Some(tracer) = &self.tracer {
            record_spans(tracer, self.peer.peer_id(), now, ids, kind);
        }
    }

    /// The underlying JXTA peer (read access).
    pub fn peer(&self) -> &JxtaPeer {
        &self.peer
    }

    /// The engine's configuration.
    pub fn config(&self) -> &TpsConfig {
        &self.config
    }

    /// The nominal type registry (read access).
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    /// Activity counters.
    pub fn counters(&self) -> TpsCounters {
        self.counters
    }

    /// A cloneable session from which owned [`crate::session::Publisher`] and
    /// [`crate::session::Subscriber`] handles are minted. Handles enqueue
    /// commands into this engine's mailbox; the engine drains it at every
    /// lifecycle hook, on the [`TIMER_MAILBOX`] wake the first command into
    /// an empty mailbox raises (at that command's virtual instant), and
    /// whenever [`TpsEngine::pump`] is called explicitly.
    pub fn session(&self) -> Session {
        Session::new(Rc::clone(&self.session))
    }

    /// The number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.len()
    }

    /// Total events received from the network so far (after duplicate
    /// suppression) — a counter, unlike `objects_received` which clones a
    /// bounded history.
    pub fn received_count(&self) -> u64 {
        self.counters.events_received
    }

    /// How many distinct publishers have delivered events to this engine so
    /// far (one "incoming connection" per publisher, in the paper's terms).
    pub fn distinct_publishers(&self) -> usize {
        self.publishers_seen.len()
    }

    /// Commands currently waiting in the session mailbox — the figure the
    /// flight recorder samples for its mailbox-depth SLO without paying for
    /// a full metrics export.
    pub fn mailbox_depth(&self) -> usize {
        self.session.pending()
    }

    /// Registers an event type (and its supertype edges) without subscribing
    /// or publishing. Publishing/subscribing registers types implicitly.
    pub fn register_type<T: TpsEvent>(&mut self) {
        self.registry.register::<T>();
    }

    /// Exports the engine's counters and gauges into a metrics registry
    /// under `<prefix>.*`, and the underlying JXTA peer's under
    /// `<prefix>.jxta.*` — one call gives the full per-node telemetry view.
    pub fn export_metrics(&self, registry: &mut telemetry::MetricsRegistry, prefix: &str) {
        registry.set_counter(
            format!("{prefix}.events_published"),
            self.counters.events_published,
        );
        registry.set_counter(format!("{prefix}.events_received"), self.counters.events_received);
        registry.set_counter(
            format!("{prefix}.events_delivered"),
            self.counters.events_delivered,
        );
        registry.set_counter(format!("{prefix}.messages_sent"), self.counters.messages_sent);
        registry.set_counter(
            format!("{prefix}.duplicates_dropped"),
            self.counters.duplicates_dropped,
        );
        registry.set_gauge(format!("{prefix}.subscriptions"), self.subscriptions.len() as i64);
        registry.set_gauge(format!("{prefix}.mailbox_depth"), self.session.pending() as i64);
        registry.set_gauge(format!("{prefix}.type_channels"), self.channels.len() as i64);
        registry.set_gauge(
            format!("{prefix}.distinct_publishers"),
            self.publishers_seen.len() as i64,
        );
        self.peer.export_metrics(registry, &format!("{prefix}.jxta"));
    }

    // ------------------------------------------------------------------
    // lifecycle (forwarded from the owning SimNode)
    // ------------------------------------------------------------------

    /// Forwarded from the owning node's `on_start`.
    pub fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        self.peer.on_start(ctx);
        ctx.set_timer(FINDER_INTERVAL, TIMER_FINDER);
        // Handles live outside the simulation and hold no context, so the
        // kernel wakes the node for them. Commands enqueued before start are
        // drained by the pump below.
        self.session.set_waker(ctx.waker(TIMER_MAILBOX));
        self.pump(ctx);
    }

    /// Forwarded from the owning node's `on_datagram`.
    pub fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, datagram: &Datagram) {
        self.peer.on_datagram(ctx, datagram);
        self.pump(ctx);
    }

    /// Forwarded from the owning node's `on_timer`. Returns `true` if the tag
    /// belonged to the TPS or JXTA layers.
    pub fn on_timer(&mut self, ctx: &mut NodeContext<'_>, tag: u64) -> bool {
        let consumed = if is_jxta_timer(tag) {
            self.peer.on_timer(ctx, tag)
        } else if tag == TIMER_FINDER {
            self.run_finder(ctx);
            ctx.set_timer(FINDER_INTERVAL, TIMER_FINDER);
            true
        } else {
            // The mailbox wake has no work of its own: the pump below is it.
            tag == TIMER_MAILBOX
        };
        self.pump(ctx);
        consumed
    }

    /// Forwarded from the owning node's `on_address_changed`.
    pub fn on_address_changed(&mut self, ctx: &mut NodeContext<'_>, old: SimAddress, new: SimAddress) {
        self.peer.on_address_changed(ctx, old, new);
        self.pump(ctx);
    }

    // ------------------------------------------------------------------
    // session-command mailbox
    // ------------------------------------------------------------------

    /// Drains the session-command mailbox (publishes, subscriptions, guard
    /// drops, pause/resume) and the underlying JXTA event queue. Called from
    /// every lifecycle hook; call it directly to execute pending handle
    /// commands at a precise virtual instant (e.g. to measure the publisher's
    /// invocation time through `ctx.charged()`).
    pub fn pump(&mut self, ctx: &mut NodeContext<'_>) {
        // Report the pre-drain backlog to the peer's load plane: it is the
        // mailbox depth the next outgoing LoadReport carries, and a backlog
        // that keeps growing between pumps is the earliest overload signal.
        self.peer
            .set_mailbox_depth(self.session.pending().min(u32::MAX as usize) as u32);
        let commands = self.session.take_commands();
        for command in commands {
            self.execute(ctx, command);
        }
        self.drain_jxta(ctx);
    }

    fn execute(&mut self, ctx: &mut NodeContext<'_>, command: SessionCommand) {
        match command {
            SessionCommand::RegisterType {
                type_name,
                supertypes,
            } => {
                self.registry.register_raw(
                    type_name,
                    supertypes.iter().map(std::string::ToString::to_string).collect(),
                );
            }
            SessionCommand::PreparePublisher { type_name } => {
                // Publishes go out on the type's channel *and* every ancestor
                // channel, so eager preparation must cover all of them (the
                // handle's RegisterType command precedes this one, so the
                // registry already knows the supertype edges).
                for ancestor in self.registry.ancestors_of(type_name) {
                    self.prepare_publisher_channel(ctx, &ancestor);
                }
            }
            SessionCommand::Publish { type_name, payloads } => {
                if let Err(error) = self.core_publish(ctx, type_name, payloads) {
                    self.session.record_error(error);
                }
            }
            SessionCommand::Subscribe {
                id,
                type_name,
                deliver,
            } => {
                self.core_subscribe(ctx, id, type_name, deliver);
            }
            SessionCommand::Unsubscribe { id } => {
                // A second drop of a cloned handle's guard cannot happen
                // (guards are not Clone), but a detach-then-engine-restart
                // might replay; ignore unknown ids.
                let _ = self.unsubscribe(id);
            }
            SessionCommand::Pause { id } => self.set_paused(id, true),
            SessionCommand::Resume { id } => self.set_paused(id, false),
        }
    }

    fn set_paused(&mut self, id: SubscriptionId, paused: bool) {
        if let Some(subscription) = self.subscriptions.iter_mut().find(|s| s.id == id) {
            subscription.paused = paused;
        }
    }

    // ------------------------------------------------------------------
    // the TPS core (used by the session handles and the v1 facade)
    // ------------------------------------------------------------------

    /// Publishes an event; subscribers of the event's type *and of any of its
    /// supertypes* receive it (Figure 7 semantics). This is the v1 immediate
    /// path; session publishers route through the same internal core.
    ///
    /// # Errors
    ///
    /// Returns [`PsException`] if the event cannot be marshalled or the
    /// underlying pipes cannot be used.
    pub fn publish<T: TpsEvent>(&mut self, ctx: &mut NodeContext<'_>, event: &T) -> Result<(), PsException> {
        self.registry.register::<T>();
        let payload = codec::to_vec(event).map_err(|e| PsException::Marshal(e.to_string()))?;
        self.core_publish(ctx, T::TYPE_NAME, vec![payload])
    }

    /// Sends `payloads` (already marshalled events of `type_name`) as one
    /// wire message per type channel: the single shared publish path of the
    /// v1 facade, the session publisher and the batch publisher.
    fn core_publish(
        &mut self,
        ctx: &mut NodeContext<'_>,
        type_name: &str,
        payloads: Vec<Vec<u8>>,
    ) -> Result<(), PsException> {
        if payloads.is_empty() {
            return Ok(());
        }
        let payloads: Vec<Bytes> = payloads.into_iter().map(Bytes::from).collect();
        let payload_bytes: usize = payloads.iter().map(Bytes::len).sum();
        let marshal_cost = self.config.marshal_fixed
            + SimDuration::from_micros(self.config.marshal_per_byte_us * payload_bytes as u64);
        ctx.charge(marshal_cost);

        let ancestors = self.registry.ancestors_of(type_name);
        let event_id = Uuid::generate(ctx.rng());
        // One trace id per packed event: a batched publish is one wire
        // message, but every event inside it keeps its own causal trace.
        let trace_ids: Vec<TraceId> = match &self.tracer {
            Some(tracer) => {
                let origin = trace_handle(self.peer.peer_id());
                let mut tracer = tracer.borrow_mut();
                payloads.iter().map(|_| tracer.allocate(origin)).collect()
            }
            None => Vec::new(),
        };
        self.record_spans(ctx.now(), &trace_ids, SpanKind::Published);
        let message = self.build_message(type_name, &ancestors, event_id, &payloads, &trace_ids);

        for ancestor in &ancestors {
            self.prepare_publisher_channel(ctx, ancestor);
            let pipes: Vec<PipeId> = self.channels[ancestor].pipes.iter().map(|p| p.pipe_id).collect();
            for pipe_id in pipes {
                self.peer
                    .wire_send_traced(ctx, pipe_id, &message, trace_ids.clone())
                    .map_err(PsException::from)?;
            }
            self.counters.messages_sent += 1;
        }
        let type_name: Rc<str> = Rc::from(type_name);
        for payload in payloads {
            self.push_history(HistoryLog::Sent, Rc::clone(&type_name), payload);
            self.counters.events_published += 1;
        }
        Ok(())
    }

    /// Eagerly creates the advertisement/channel for `type_name` and
    /// launches output pipe resolution, so that the first `publish` already
    /// has resolved listeners. The paper's publisher performs exactly this
    /// work during its initialisation phase, before the GUI is shown.
    fn prepare_publisher_channel(&mut self, ctx: &mut NodeContext<'_>, type_name: &str) {
        self.ensure_channel(ctx, type_name);
        let channel = self.channels.get_mut(type_name).expect("channel just ensured");
        if !channel.output_open {
            channel.output_open = true;
            let pipes = channel.pipes.clone();
            for pipe in &pipes {
                self.peer.resolve_wire_output_pipe(ctx, pipe);
            }
        }
    }

    /// Subscribes to events of type `T` (and its subtypes) with a call-back
    /// object, an exception handler and a content filter (the v1 immediate
    /// path; session subscribers route through the same core).
    pub fn subscribe<T: TpsEvent>(
        &mut self,
        ctx: &mut NodeContext<'_>,
        callback: impl TpsCallBack<T>,
        exception_handler: impl TpsExceptionHandler<T>,
        criteria: Criteria<T>,
    ) -> SubscriptionId {
        self.registry.register::<T>();
        self.next_subscription += 1;
        let id = SubscriptionId(self.next_subscription);
        let mut callback = callback;
        let mut exception_handler = exception_handler;
        let deliver = Box::new(
            move |_actual: &str, payload: &[u8]| match codec::from_slice::<T>(payload) {
                Ok(event) => {
                    if criteria.accepts(&event) {
                        if let Err(e) = callback.handle(event) {
                            exception_handler.handle(&PsException::Callback(e));
                        }
                    }
                }
                Err(e) => exception_handler.handle(&PsException::Unmarshal(e.to_string())),
            },
        );
        self.core_subscribe(ctx, id, T::TYPE_NAME, deliver);
        id
    }

    /// Installs a subscription under a caller-chosen id: opens the input
    /// channel of `type_name` and stores the delivery closure.
    fn core_subscribe(
        &mut self,
        ctx: &mut NodeContext<'_>,
        id: SubscriptionId,
        type_name: &'static str,
        deliver: DeliveryFn,
    ) {
        self.open_input_channel(ctx, type_name);
        self.subscriptions.push(Subscription {
            id,
            type_name,
            paused: false,
            deliver,
        });
    }

    /// Removes one subscription; the paper's `unsubscribe(cb, exh)`.
    ///
    /// # Errors
    ///
    /// Returns [`PsException::UnknownSubscription`] if the id is not live.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), PsException> {
        let before = self.subscriptions.len();
        self.subscriptions.retain(|s| s.id != id);
        if self.subscriptions.len() == before {
            return Err(PsException::UnknownSubscription(id.0));
        }
        Ok(())
    }

    /// Removes every subscription of one event type.
    pub fn unsubscribe_type<T: TpsEvent>(&mut self) {
        self.subscriptions.retain(|s| s.type_name != T::TYPE_NAME);
    }

    /// Every event in the (bounded, 1 024 events) receive history that is of type `T` (or a subtype), decoded as `T` — the
    /// paper's `objectsReceived()`. Prefer [`TpsEngine::received_count`] when
    /// only the number matters.
    pub fn objects_received<T: TpsEvent>(&self) -> Vec<T> {
        self.project::<T>(&self.received)
    }

    /// Every event in the (bounded) send history that is of type `T` (or a
    /// subtype), decoded as `T` — the paper's `objectsSent()`.
    pub fn objects_sent<T: TpsEvent>(&self) -> Vec<T> {
        self.project::<T>(&self.sent)
    }

    fn project<T: TpsEvent>(&self, log: &History) -> Vec<T> {
        log.iter()
            .filter(|(actual, _)| self.registry.is_subtype_of(actual, T::TYPE_NAME))
            .filter_map(|(_, payload)| codec::from_slice::<T>(payload).ok())
            .collect()
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn push_history(&mut self, log: HistoryLog, type_name: Rc<str>, payload: Bytes) {
        let log = match log {
            HistoryLog::Sent => &mut self.sent,
            HistoryLog::Received => &mut self.received,
        };
        log.push_back((type_name, payload));
        while log.len() > HISTORY_LIMIT {
            log.pop_front();
        }
    }

    fn build_message(
        &self,
        actual: &str,
        ancestors: &[String],
        event_id: Uuid,
        payloads: &[Bytes],
        trace_ids: &[TraceId],
    ) -> Message {
        let mut message = Message::new();
        message.add(MessageElement::text(TPS_NS, "ActualType", actual));
        message.add(MessageElement::text(TPS_NS, "Supertypes", ancestors.join(",")));
        message.add(MessageElement::text(TPS_NS, "EventId", event_id.to_hex()));
        if !trace_ids.is_empty() {
            // One id per payload, in payload order, so the subscriber edge
            // can close each event's trace individually. The padding element
            // below absorbs the extra bytes: the wire size stays at
            // `TARGET_EVENT_SIZE` whether tracing is on or off.
            message.add(MessageElement::text(
                TPS_NS,
                "TraceIds",
                TraceId::encode_list(trace_ids),
            ));
        }
        if payloads.len() == 1 {
            // Paper-identical single-event layout.
            message.add(MessageElement::binary(TPS_NS, "Payload", payloads[0].clone()));
        } else {
            // Batched layout: a count plus one indexed payload per event,
            // unwrapped back into individual events at the subscriber edge.
            message.add(MessageElement::text(TPS_NS, "Count", payloads.len().to_string()));
            for (index, payload) in payloads.iter().enumerate() {
                message.add(MessageElement::binary(
                    TPS_NS,
                    format!("Payload{index}"),
                    payload.clone(),
                ));
            }
        }
        let current = message.wire_size();
        if current < TARGET_EVENT_SIZE {
            let padding = vec![0u8; TARGET_EVENT_SIZE - current];
            message.add(MessageElement::binary(TPS_NS, "Padding", padding));
        }
        message
    }

    /// The payloads carried by a TPS wire message, as views of the message's
    /// element bodies: the single `Payload` element if there is one, else the
    /// indexed `Payload0..Count` elements of a batch in index order (indexes
    /// the message lacks are skipped; the first element of a name wins).
    fn message_payloads(message: &Message) -> Vec<Bytes> {
        let mut count = None;
        let mut indexed: Vec<(usize, &Bytes)> = Vec::new();
        for element in message.elements() {
            if element.namespace != TPS_NS {
                continue;
            }
            match element.name.strip_prefix("Payload") {
                Some("") => return vec![element.body.clone()],
                Some(suffix) => {
                    if let Some(index) = batch_index(suffix) {
                        indexed.push((index, &element.body));
                    }
                }
                None => {
                    if element.name == "Count" && count.is_none() {
                        let declared = std::str::from_utf8(&element.body).ok();
                        count = Some(declared.and_then(|c| c.parse::<usize>().ok()).unwrap_or(0));
                    }
                }
            }
        }
        let count = count.unwrap_or(0);
        // A publisher writes the batch in index order, which the stable sort
        // passes over in one comparison per element.
        indexed.sort_by_key(|&(index, _)| index);
        indexed.dedup_by_key(|&mut (index, _)| index);
        indexed
            .into_iter()
            .take_while(|&(index, _)| index < count)
            .map(|(_, body)| body.clone())
            .collect()
    }

    fn open_input_channel(&mut self, ctx: &mut NodeContext<'_>, type_name: &str) {
        self.ensure_channel(ctx, type_name);
        let channel = self.channels.get_mut(type_name).expect("channel just ensured");
        channel.input_open = true;
        let pipes = channel.pipes.clone();
        for pipe in &pipes {
            self.peer.create_wire_input_pipe(ctx, pipe);
        }
    }

    fn ensure_channel(&mut self, ctx: &mut NodeContext<'_>, type_name: &str) {
        if self.channels.contains_key(type_name) {
            return;
        }
        // AdvertisementsCreator: build the ps-<Type> group (deterministic ids
        // mean independently-started peers converge on the same pipe), publish
        // it, and keep looking for advertisements others may have created.
        let group = PeerGroup::for_event_type(type_name, self.peer.peer_id());
        let pipe = group
            .wire_pipe()
            .expect("for_event_type always embeds a wire pipe")
            .clone();
        self.peer
            .remote_publish(ctx, AnyAdvertisement::Group(group.advertisement().clone()));
        self.peer.publish_local(ctx, AnyAdvertisement::Pipe(pipe.clone()));
        self.pipe_to_type.insert(pipe.pipe_id, type_name.to_owned());
        self.channels.insert(
            type_name.to_owned(),
            TypeChannel {
                pipes: vec![pipe],
                input_open: false,
                output_open: false,
            },
        );
        // TPSAdvertisementsFinder: immediately search for advertisements of
        // this type created by other peers.
        self.peer.discover_remote(
            ctx,
            AdvKind::Group,
            SearchFilter::by_name(format!("{}{}*", jxta::PS_PREFIX, type_name)),
            ADV_THRESHOLD,
        );
    }

    fn run_finder(&mut self, ctx: &mut NodeContext<'_>) {
        let type_names: Vec<String> = self.channels.keys().cloned().collect();
        for type_name in type_names {
            self.peer.discover_remote(
                ctx,
                AdvKind::Group,
                SearchFilter::by_name(format!("{}{}*", jxta::PS_PREFIX, type_name)),
                ADV_THRESHOLD,
            );
            // Re-launch output-pipe resolution for open publisher channels.
            // Resolutions are additive (new responders bind on top of the
            // already-bound listeners) and the initial attempt races listener
            // start-up: a subscriber whose rendezvous lease was not yet
            // granted cannot be reached by the resolution walk, so under
            // direct fan-out it would otherwise never be bound.
            let open_pipes = self
                .channels
                .get(&type_name)
                .filter(|channel| channel.output_open)
                .map(|channel| channel.pipes.clone())
                .unwrap_or_default();
            for pipe in &open_pipes {
                self.peer.resolve_wire_output_pipe(ctx, pipe);
            }
        }
    }

    fn drain_jxta(&mut self, ctx: &mut NodeContext<'_>) {
        let events = self.peer.take_events();
        for event in events {
            match event {
                JxtaEvent::AdvertisementDiscovered { adv, .. } => self.handle_discovered(ctx, adv),
                JxtaEvent::WireMessageReceived {
                    pipe_id,
                    src_peer,
                    message,
                } => {
                    self.handle_wire_message(pipe_id, src_peer, &message, ctx.now());
                }
                _ => {}
            }
        }
    }

    fn handle_discovered(&mut self, ctx: &mut NodeContext<'_>, adv: AnyAdvertisement) {
        let Some(group_adv) = adv.as_group() else { return };
        let Some(type_name) = group_adv.name.strip_prefix(jxta::PS_PREFIX).map(str::to_owned) else {
            return;
        };
        if !self.channels.contains_key(&type_name) {
            return;
        }
        let group = PeerGroup::from_advertisement(group_adv.clone());
        let Ok(pipe) = group.wire_pipe().cloned() else {
            return;
        };
        let channel = self.channels.get_mut(&type_name).expect("checked above");
        if channel.pipes.iter().any(|p| p.pipe_id == pipe.pipe_id) {
            return;
        }
        // "Management of multiple advertisements at the same time": another
        // peer advertised a different pipe for the same type; open it too.
        channel.pipes.push(pipe.clone());
        let (input_open, output_open) = (channel.input_open, channel.output_open);
        self.pipe_to_type.insert(pipe.pipe_id, type_name.clone());
        if input_open {
            self.peer.create_wire_input_pipe(ctx, &pipe);
        }
        if output_open {
            self.peer.resolve_wire_output_pipe(ctx, &pipe);
        }
    }

    fn handle_wire_message(&mut self, pipe_id: PipeId, src_peer: PeerId, message: &Message, now: SimTime) {
        if !self.pipe_to_type.contains_key(&pipe_id) {
            return;
        }
        self.publishers_seen.insert(src_peer);
        let Some(actual) = message.element_text(TPS_NS, "ActualType") else {
            return;
        };
        let actual: Rc<str> = Rc::from(actual);
        let payloads = Self::message_payloads(message);
        if payloads.is_empty() {
            return;
        }
        let trace_ids: Vec<TraceId> = message
            .element_text(TPS_NS, "TraceIds")
            .map(|t| TraceId::decode_list(&t))
            .unwrap_or_default();
        // Learn the hierarchy the publisher declared, so that objects_received
        // and subtype matching work even for types not linked locally.
        if let Some(supertypes) = message.element_text(TPS_NS, "Supertypes") {
            let ancestors: Vec<String> = supertypes
                .split(',')
                .filter(|s| !s.is_empty() && *s != &*actual)
                .map(str::to_owned)
                .collect();
            self.registry.register_raw(&actual, ancestors);
        }
        // Duplicate suppression by event id (the message may arrive on several
        // of the type's pipes, or through several propagation paths; a batch
        // is suppressed as a unit).
        if let Some(id_hex) = message.element_text(TPS_NS, "EventId") {
            if let Ok(id) = Uuid::from_hex(&id_hex) {
                if !self.seen_events.insert(id) {
                    self.counters.duplicates_dropped += payloads.len() as u64;
                    // The whole batch dies in the TPS dedup window: one
                    // terminal drop span per packed event.
                    self.record_spans(
                        now,
                        &trace_ids,
                        SpanKind::Dropped {
                            cause: DropCause::Duplicate,
                        },
                    );
                    return;
                }
            }
        }
        // Unwrap the (possibly batched) message into individual events at
        // the subscriber edge. Each event closes its own trace: one
        // `Delivered` span per packed trace id.
        self.record_spans(now, &trace_ids, SpanKind::Delivered);
        for payload in payloads {
            self.counters.events_received += 1;
            self.push_history(HistoryLog::Received, Rc::clone(&actual), payload.clone());
            for subscription in &mut self.subscriptions {
                if !subscription.paused && self.registry.is_subtype_of(&actual, subscription.type_name) {
                    (subscription.deliver)(&actual, &payload);
                    self.counters.events_delivered += 1;
                }
            }
        }
    }
}

/// Parses the `N` of a batch element name `PayloadN`, accepting only the
/// spelling a publisher writes (decimal, no sign, no leading zeros).
fn batch_index(suffix: &str) -> Option<usize> {
    let canonical = suffix.bytes().all(|b| b.is_ascii_digit()) && (suffix == "0" || !suffix.starts_with('0'));
    if canonical {
        suffix.parse().ok()
    } else {
        None
    }
}

/// Which bounded history [`TpsEngine::push_history`] appends to.
enum HistoryLog {
    Sent,
    Received,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callback::{CollectingCallback, IgnoreExceptions};

    #[derive(Debug, Clone, PartialEq)]
    struct SkiRental {
        shop: String,
        price: f32,
    }
    impl TpsEvent for SkiRental {
        const TYPE_NAME: &'static str = "SkiRental";
        crate::event_fields!(shop, price);
    }

    fn marshalled(event: &SkiRental) -> Bytes {
        Bytes::from(codec::to_vec(event).unwrap())
    }

    #[test]
    fn configuration_defaults_match_the_paper() {
        assert_eq!(TARGET_EVENT_SIZE, 1910);
        assert_eq!(ADV_THRESHOLD, 10);
        assert_eq!(FINDER_INTERVAL, SimDuration::from_secs(10));
        assert_eq!(HISTORY_LIMIT, 1024);
    }

    #[test]
    fn engine_construction_and_type_registration() {
        let mut engine = TpsEngine::new(TpsConfig::new("alice"));
        engine.register_type::<SkiRental>();
        assert!(engine.registry().knows("SkiRental"));
        assert_eq!(engine.subscription_count(), 0);
        assert_eq!(engine.counters(), TpsCounters::default());
        assert_eq!(engine.received_count(), 0);
        assert_eq!(engine.peer().peer_id(), jxta::PeerId::derive("alice"));
    }

    #[test]
    fn dissemination_strategy_threads_through_to_the_wire_service() {
        let sharded =
            TpsConfig::new("alice").with_dissemination(jxta::DisseminationConfig::rendezvous_mesh(4));
        assert_eq!(
            TpsEngine::new(sharded).peer().config().dissemination,
            jxta::DisseminationConfig::rendezvous_mesh(4)
        );
        let bob = TpsEngine::new(TpsConfig::new("bob"));
        assert_eq!(
            bob.peer().config().dissemination,
            jxta::DisseminationConfig::direct_fanout(),
            "the paper baseline stays the default"
        );
        assert!(!bob.peer().wire().forwards_duplicates());
        let gossip = TpsConfig::new("carol").with_dissemination(jxta::DisseminationConfig::gossip(4, 4));
        assert!(
            TpsEngine::new(gossip).peer().wire().forwards_duplicates(),
            "the wire service runs the configured strategy"
        );
    }

    #[test]
    fn metrics_export_surfaces_counters_and_mailbox_depth() {
        let mut engine = TpsEngine::new(TpsConfig::new("alice"));
        engine.counters.events_published = 4;
        engine.counters.events_received = 2;
        let session = engine.session();
        let publisher = session.publisher::<SkiRental>();
        publisher
            .publish(&SkiRental {
                shop: "s".into(),
                price: 1.0,
            })
            .unwrap();
        let mut registry = telemetry::MetricsRegistry::new();
        engine.export_metrics(&mut registry, "tps");
        assert_eq!(registry.counter("tps.events_published"), 4);
        assert_eq!(registry.counter("tps.events_received"), 2);
        assert_eq!(registry.gauge("tps.subscriptions"), Some(0));
        assert!(
            registry.gauge("tps.mailbox_depth").unwrap() > 0,
            "the un-pumped publish sits in the mailbox"
        );
        assert_eq!(
            registry.counter("tps.jxta.wire.sent"),
            0,
            "the peer's metrics ride along under the jxta prefix"
        );
    }

    #[test]
    fn unsubscribe_unknown_id_errors() {
        let mut engine = TpsEngine::new(TpsConfig::new("alice"));
        assert!(matches!(
            engine.unsubscribe(SubscriptionId(99)),
            Err(PsException::UnknownSubscription(99))
        ));
    }

    #[test]
    fn timer_tag_spaces_do_not_overlap() {
        assert_ne!(TIMER_FINDER, TIMER_MAILBOX);
        assert!(!jxta::is_jxta_timer(TIMER_FINDER));
        assert!(!jxta::is_jxta_timer(TIMER_MAILBOX));
        assert_ne!(TIMER_FINDER >> 16, jxta::TIMER_HOUSEKEEPING >> 16);
    }

    #[test]
    fn padding_brings_messages_to_target_size() {
        let engine = TpsEngine::new(TpsConfig::new("alice"));
        let payload = marshalled(&SkiRental {
            shop: "x".into(),
            price: 1.0,
        });
        let message = engine.build_message(
            "SkiRental",
            &["SkiRental".to_owned()],
            Uuid::derive("e"),
            std::slice::from_ref(&payload),
            &[],
        );
        assert!(message.wire_size() >= 1910);
        assert!(message.wire_size() < 1910 + 64);
    }

    #[test]
    fn batch_messages_round_trip_their_payloads() {
        let engine = TpsEngine::new(TpsConfig::new("alice"));
        let payloads: Vec<Bytes> = (0..5)
            .map(|i| {
                marshalled(&SkiRental {
                    shop: format!("shop-{i}"),
                    price: i as f32,
                })
            })
            .collect();
        let message = engine.build_message(
            "SkiRental",
            &["SkiRental".to_owned()],
            Uuid::derive("batch"),
            &payloads,
            &[],
        );
        assert_eq!(TpsEngine::message_payloads(&message), payloads);
        // Single-event messages keep the paper's layout.
        let single = engine.build_message(
            "SkiRental",
            &["SkiRental".to_owned()],
            Uuid::derive("one"),
            &payloads[..1],
            &[],
        );
        assert!(single.element(TPS_NS, "Payload").is_some());
        assert_eq!(TpsEngine::message_payloads(&single), payloads[..1].to_vec());
    }

    #[test]
    fn batch_unpack_keeps_index_order_gaps_and_single_precedence() {
        let body = |i: usize| vec![i as u8; 3];
        let indexed = |i: usize| MessageElement::binary(TPS_NS, format!("Payload{i}"), body(i));
        let count = |n: usize| MessageElement::text(TPS_NS, "Count", n.to_string());

        // A 64-event batch comes out in index order, each payload a view of
        // the element body it came from.
        let mut full = Message::new().with(count(64));
        for i in 0..64 {
            full.add(indexed(i));
        }
        let unpacked = TpsEngine::message_payloads(&full);
        assert_eq!(unpacked, (0..64).map(body).collect::<Vec<_>>());
        for (payload, element) in unpacked.iter().zip(&full.elements()[1..]) {
            assert_eq!(payload.as_ptr(), element.body.as_ptr());
        }

        // Index order, not element order; indexes the message lacks are
        // skipped; indexes at or past Count, foreign namespaces and
        // non-canonical spellings are not part of the batch; the first
        // element of a name wins, for Count as for payloads.
        let scrambled = Message::new()
            .with(indexed(3))
            .with(MessageElement::binary("other", "Payload1", vec![0xEE]))
            .with(MessageElement::binary(TPS_NS, "Payload01", vec![0xEE]))
            .with(MessageElement::binary(TPS_NS, "Payload+1", vec![0xEE]))
            .with(count(5))
            .with(count(64))
            .with(indexed(0))
            .with(MessageElement::binary(TPS_NS, "Payload0", vec![0xEE]))
            .with(indexed(5))
            .with(indexed(4));
        assert_eq!(
            TpsEngine::message_payloads(&scrambled),
            vec![body(0), body(3), body(4)]
        );

        // A single `Payload` element wins over a batch wherever it sits.
        let both = Message::new()
            .with(count(2))
            .with(indexed(0))
            .with(indexed(1))
            .with(MessageElement::binary(TPS_NS, "Payload", vec![7u8]));
        assert_eq!(TpsEngine::message_payloads(&both), vec![vec![7u8]]);

        // No Count, or an unreadable one, means an empty batch.
        assert!(TpsEngine::message_payloads(&Message::new().with(indexed(0))).is_empty());
        let unreadable = Message::new()
            .with(MessageElement::text(TPS_NS, "Count", "many"))
            .with(indexed(0));
        assert!(TpsEngine::message_payloads(&unreadable).is_empty());
    }

    #[test]
    fn history_limit_bounds_the_event_logs() {
        let mut engine = TpsEngine::new(TpsConfig::new("alice"));
        for i in 0..HISTORY_LIMIT + 3 {
            let payload = marshalled(&SkiRental {
                shop: format!("s{i}"),
                price: i as f32,
            });
            engine.push_history(HistoryLog::Received, Rc::from("SkiRental"), payload);
            engine.push_history(HistoryLog::Sent, Rc::from("SkiRental"), Bytes::from(vec![1]));
        }
        engine.registry.register::<SkiRental>();
        let view = engine.objects_received::<SkiRental>();
        assert_eq!(view.len(), 1024, "history must be capped at the limit");
        assert_eq!(view[0].shop, "s3", "oldest entries are evicted first");
        assert_eq!(engine.sent.len(), 1024, "both logs share the cap");
    }

    // The callback type-checking below is a compile-time property: the engine
    // only accepts callbacks whose event type matches the subscription type.
    #[test]
    fn local_delivery_path_decodes_and_filters() {
        let mut engine = TpsEngine::new(TpsConfig::new("alice"));
        // Bypass the network: exercise handle_wire_message directly.
        let (cb, sink) = CollectingCallback::<SkiRental>::new();
        engine.registry.register::<SkiRental>();
        engine.next_subscription += 1;
        let id = SubscriptionId(engine.next_subscription);
        let criteria = Criteria::filter("cheap", |e: &SkiRental| e.price < 20.0);
        let mut callback = cb;
        let mut handler = IgnoreExceptions;
        engine.subscriptions.push(Subscription {
            id,
            type_name: SkiRental::TYPE_NAME,
            paused: false,
            deliver: Box::new(move |_a, p| match codec::from_slice::<SkiRental>(p) {
                Ok(ev) => {
                    if criteria.accepts(&ev) {
                        if let Err(e) = callback.handle(ev) {
                            TpsExceptionHandler::<SkiRental>::handle(&mut handler, &PsException::Callback(e));
                        }
                    }
                }
                Err(e) => TpsExceptionHandler::<SkiRental>::handle(
                    &mut handler,
                    &PsException::Unmarshal(e.to_string()),
                ),
            }),
        });
        let pipe = PeerGroup::for_event_type("SkiRental", jxta::PeerId::derive("x"))
            .wire_pipe()
            .unwrap()
            .clone();
        engine.pipe_to_type.insert(pipe.pipe_id, "SkiRental".to_owned());

        let cheap = marshalled(&SkiRental {
            shop: "a".into(),
            price: 10.0,
        });
        let pricey = marshalled(&SkiRental {
            shop: "b".into(),
            price: 99.0,
        });
        let msg1 = engine.build_message(
            "SkiRental",
            &["SkiRental".to_owned()],
            Uuid::derive("e1"),
            std::slice::from_ref(&cheap),
            &[],
        );
        let msg2 = engine.build_message(
            "SkiRental",
            &["SkiRental".to_owned()],
            Uuid::derive("e2"),
            std::slice::from_ref(&pricey),
            &[],
        );
        let publisher = jxta::PeerId::derive("remote-shop");
        engine.handle_wire_message(pipe.pipe_id, publisher, &msg1, SimTime::ZERO);
        engine.handle_wire_message(pipe.pipe_id, publisher, &msg2, SimTime::ZERO);
        engine.handle_wire_message(pipe.pipe_id, publisher, &msg1, SimTime::ZERO); // duplicate

        assert_eq!(
            sink.borrow().len(),
            1,
            "criteria should filter the expensive offer"
        );
        assert_eq!(sink.borrow()[0].shop, "a");
        assert_eq!(engine.counters().events_received, 2);
        assert_eq!(engine.counters().duplicates_dropped, 1);
        assert_eq!(engine.objects_received::<SkiRental>().len(), 2);
        assert_eq!(engine.received_count(), 2);
        assert_eq!(engine.distinct_publishers(), 1);
    }

    #[test]
    fn batched_wire_message_delivers_every_event_and_dedups_as_a_unit() {
        let mut engine = TpsEngine::new(TpsConfig::new("alice"));
        engine.registry.register::<SkiRental>();
        let (cb, sink) = CollectingCallback::<SkiRental>::new();
        let mut callback = cb;
        engine.subscriptions.push(Subscription {
            id: SubscriptionId(1),
            type_name: SkiRental::TYPE_NAME,
            paused: false,
            deliver: Box::new(move |_a, p| {
                if let Ok(ev) = codec::from_slice::<SkiRental>(p) {
                    let _ = callback.handle(ev);
                }
            }),
        });
        let pipe = PeerGroup::for_event_type("SkiRental", jxta::PeerId::derive("x"))
            .wire_pipe()
            .unwrap()
            .clone();
        engine.pipe_to_type.insert(pipe.pipe_id, "SkiRental".to_owned());
        let payloads: Vec<Bytes> = (0..4)
            .map(|i| {
                marshalled(&SkiRental {
                    shop: format!("s{i}"),
                    price: i as f32,
                })
            })
            .collect();
        let batch = engine.build_message(
            "SkiRental",
            &["SkiRental".to_owned()],
            Uuid::derive("batch"),
            &payloads,
            &[],
        );
        let publisher = jxta::PeerId::derive("remote-shop");
        engine.handle_wire_message(pipe.pipe_id, publisher, &batch, SimTime::ZERO);
        engine.handle_wire_message(pipe.pipe_id, publisher, &batch, SimTime::ZERO); // duplicate batch

        assert_eq!(sink.borrow().len(), 4, "each batched event is delivered once");
        assert_eq!(engine.counters().events_received, 4);
        assert_eq!(engine.counters().duplicates_dropped, 4);
        let order: Vec<String> = sink.borrow().iter().map(|e| e.shop.clone()).collect();
        assert_eq!(order, vec!["s0", "s1", "s2", "s3"], "batch order is preserved");
    }

    #[test]
    fn batched_publish_unpacks_one_trace_id_per_event() {
        use jxta::telemetry::trace::TraceCollector;
        use std::cell::RefCell;

        let mut engine = TpsEngine::new(TpsConfig::new("skier"));
        let tracer: SharedTraceCollector = Rc::new(RefCell::new(TraceCollector::with_capacity(256)));
        engine.set_trace_collector(Rc::clone(&tracer));
        engine.registry.register::<SkiRental>();
        let pipe = PeerGroup::for_event_type("SkiRental", jxta::PeerId::derive("x"))
            .wire_pipe()
            .unwrap()
            .clone();
        engine.pipe_to_type.insert(pipe.pipe_id, "SkiRental".to_owned());
        let payloads: Vec<Bytes> = (0..3)
            .map(|i| {
                marshalled(&SkiRental {
                    shop: format!("s{i}"),
                    price: i as f32,
                })
            })
            .collect();
        // One trace id per packed event, as core_publish would allocate.
        let origin = 0xAB;
        let ids: Vec<TraceId> = payloads
            .iter()
            .map(|_| tracer.borrow_mut().allocate(origin))
            .collect();
        let batch = engine.build_message(
            "SkiRental",
            &["SkiRental".to_owned()],
            Uuid::derive("batch"),
            &payloads,
            &ids,
        );
        let publisher = jxta::PeerId::derive("remote-shop");
        engine.handle_wire_message(pipe.pipe_id, publisher, &batch, SimTime::from_millis(7));

        let collector = tracer.borrow();
        for id in &ids {
            let delivered: Vec<_> = collector
                .trace_of(*id)
                .into_iter()
                .filter(|s| s.kind == SpanKind::Delivered)
                .collect();
            assert_eq!(delivered.len(), 1, "one Delivered span per batched event");
            assert_eq!(delivered[0].at_us, SimTime::from_millis(7).as_micros());
        }
        drop(collector);

        // A duplicate copy of the whole batch dies in the TPS dedup window:
        // exactly one Dropped{Duplicate} span per packed event.
        engine.handle_wire_message(pipe.pipe_id, publisher, &batch, SimTime::from_millis(9));
        let collector = tracer.borrow();
        for id in &ids {
            let drops = collector
                .trace_of(*id)
                .into_iter()
                .filter(|s| {
                    s.kind
                        == SpanKind::Dropped {
                            cause: DropCause::Duplicate,
                        }
                })
                .count();
            assert_eq!(drops, 1, "exactly one duplicate-drop span per event");
        }
    }

    #[test]
    fn dedup_window_is_bounded_and_slides() {
        let mut engine = TpsEngine::new(TpsConfig::new("alice"));
        engine.registry.register::<SkiRental>();
        let pipe = PeerGroup::for_event_type("SkiRental", jxta::PeerId::derive("x"))
            .wire_pipe()
            .unwrap()
            .clone();
        engine.pipe_to_type.insert(pipe.pipe_id, "SkiRental".to_owned());
        let payload = marshalled(&SkiRental {
            shop: "a".into(),
            price: 1.0,
        });
        let publisher = jxta::PeerId::derive("remote-shop");
        let msg = |engine: &TpsEngine, tag: &str| {
            engine.build_message(
                "SkiRental",
                &["SkiRental".to_owned()],
                Uuid::derive(tag),
                std::slice::from_ref(&payload),
                &[],
            )
        };
        let e1 = msg(&engine, "e1");
        engine.handle_wire_message(pipe.pipe_id, publisher, &e1, SimTime::ZERO);
        engine.handle_wire_message(pipe.pipe_id, publisher, &e1, SimTime::ZERO); // in-window dup
        assert_eq!(engine.counters().duplicates_dropped, 1);
        for n in 2..=DEDUP_WINDOW + 1 {
            let tag = format!("e{n}");
            engine.handle_wire_message(pipe.pipe_id, publisher, &msg(&engine, &tag), SimTime::ZERO);
        }
        assert_eq!(
            engine.seen_events.len(),
            8192,
            "the window holds exactly its capacity"
        );
        // e1 slid out of the window: replaying it is no longer suppressed.
        engine.handle_wire_message(pipe.pipe_id, publisher, &e1, SimTime::ZERO);
        assert_eq!(engine.counters().duplicates_dropped, 1);
        assert_eq!(engine.counters().events_received, 8194);
    }

    #[test]
    fn paused_subscriptions_skip_delivery_but_keep_history() {
        let mut engine = TpsEngine::new(TpsConfig::new("alice"));
        engine.registry.register::<SkiRental>();
        let (cb, sink) = CollectingCallback::<SkiRental>::new();
        let mut callback = cb;
        engine.subscriptions.push(Subscription {
            id: SubscriptionId(1),
            type_name: SkiRental::TYPE_NAME,
            paused: false,
            deliver: Box::new(move |_a, p| {
                if let Ok(ev) = codec::from_slice::<SkiRental>(p) {
                    let _ = callback.handle(ev);
                }
            }),
        });
        let pipe = PeerGroup::for_event_type("SkiRental", jxta::PeerId::derive("x"))
            .wire_pipe()
            .unwrap()
            .clone();
        engine.pipe_to_type.insert(pipe.pipe_id, "SkiRental".to_owned());
        let payload = marshalled(&SkiRental {
            shop: "a".into(),
            price: 1.0,
        });
        let publisher = jxta::PeerId::derive("remote-shop");
        let send = |engine: &mut TpsEngine, tag: &str| {
            let msg = engine.build_message(
                "SkiRental",
                &["SkiRental".to_owned()],
                Uuid::derive(tag),
                std::slice::from_ref(&payload),
                &[],
            );
            engine.handle_wire_message(pipe.pipe_id, publisher, &msg, SimTime::ZERO);
        };
        send(&mut engine, "e1");
        engine.set_paused(SubscriptionId(1), true);
        send(&mut engine, "e2");
        send(&mut engine, "e3");
        engine.set_paused(SubscriptionId(1), false);
        send(&mut engine, "e4");
        assert_eq!(sink.borrow().len(), 2, "paused window events are not delivered");
        assert_eq!(engine.received_count(), 4, "the engine still receives everything");
        assert_eq!(engine.objects_received::<SkiRental>().len(), 4);
    }
}

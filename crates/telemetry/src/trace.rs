//! Causal event tracing: end-to-end delivery spans, latency accounting and
//! drop forensics.
//!
//! The metrics plane (the crate root) says *how much* happened; this module
//! says *what happened to one event*. Every published event is stamped with a
//! compact [`TraceId`] (origin peer + per-origin sequence number) that rides
//! inside the wire envelope, so it survives rendezvous relay, mesh relay,
//! batching and fan-down. Each layer that touches a copy of the event records
//! a typed [`TraceSpan`] into a shared [`TraceCollector`]:
//!
//! | span                    | recorded by                 | meaning |
//! |-------------------------|-----------------------------|---------|
//! | [`SpanKind::Published`] | publisher                   | the event entered the stack |
//! | [`SpanKind::WireOut`]   | any peer                    | one unicast copy left for `to` |
//! | [`SpanKind::MeshRelay`] | rendezvous                  | a copy crossed a rendezvous-to-rendezvous mesh link |
//! | [`SpanKind::FanDown`]   | rendezvous                  | a copy fanned down a client lease |
//! | [`SpanKind::WireIn`]    | any peer                    | a copy arrived from `from` |
//! | [`SpanKind::Delivered`] | subscriber                  | the copy reached the local listener/mailbox |
//! | [`SpanKind::Dropped`]   | any peer                    | the copy died here, with a [`DropCause`] |
//!
//! Tracing is **off by default and zero-cost when disabled**: no collector
//! installed means no ids are allocated, no wire element is added and no span
//! is recorded — the hot paths only pay an `Option` check. The collector is a
//! bounded ring buffer (oldest spans evicted first), so trace-enabled long
//! runs cannot grow memory without bound.
//!
//! # What a query costs
//!
//! Recording a span is O(1). The first query after a `record` or `clear`
//! sorts the ring's positions by id into an index, once: O(n log n) for `n`
//! retained spans, one `u32` per span. From then on [`TraceCollector::trace_of`]
//! and [`TraceCollector::why_missing`] cost O(log n) to find the event plus
//! O(k log k) in its `k` spans, whatever the ring holds, so a sweep of one
//! verdict per (subscriber, event) is linear in the spans it reads.
//!
//! # Debugging a lost event
//!
//! The forensics entry point is [`TraceCollector::why_missing`]: given a
//! subscriber and a [`TraceId`], it replays the event's recorded spans and
//! returns a [`DeliveryVerdict`] naming the exact hop where the subscriber's
//! copy died:
//!
//! 1. Find the id of the missing event (the publisher's `Published` span, or
//!    the application's own send history).
//! 2. `trace_of(id)` shows the ordered hop list — who forwarded what, when.
//! 3. `why_missing(subscriber, id)` classifies the loss:
//!    [`DeliveryVerdict::LostOnWire`] points at the send span whose target
//!    never recorded a `WireIn` (join its sender, target and timestamp
//!    against the simulation kernel's own drop log to get the
//!    transport-level drop reason);
//!    [`DeliveryVerdict::DroppedAt`] points at an explicit `Dropped` span
//!    (duplicate suppression, TTL exhaustion, no route).
//!
//! Timestamps are plain `u64` microseconds of the caller's (virtual) clock;
//! node identities are plain `u64` handles registered with
//! [`TraceCollector::register_node`], which keeps this crate dependency-free.

use crate::WindowedHistogram;
use std::cell::OnceCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// The `to`/`from` handle used when a copy was sent to no single peer
/// (multicast/broadcast fallback paths). [`TraceSpan::send_target`] returns
/// `None` for it, so forensics never blames a broadcast for a missing copy.
pub const BROADCAST: u64 = 0;

/// Default number of spans a [`TraceCollector`] retains.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

// ---------------------------------------------------------------------------
// TraceId
// ---------------------------------------------------------------------------

/// The compact per-event trace identity stamped into the wire envelope:
/// the originating peer's trace handle plus a per-origin sequence number.
/// Allocation is deterministic (a per-origin counter), so same-seed runs
/// produce bit-identical ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId {
    /// Trace handle of the publishing peer.
    pub origin: u64,
    /// Sequence number of the event at its origin (starts at 1).
    pub seq: u64,
}

impl TraceId {
    /// Renders the id in its wire form (`origin:seq`, both hex).
    fn to_wire(self) -> String {
        format!("{:x}:{:x}", self.origin, self.seq)
    }

    /// Parses the wire form produced by [`TraceId::to_wire`].
    fn from_wire(s: &str) -> Option<TraceId> {
        let (origin, seq) = s.split_once(':')?;
        Some(TraceId {
            origin: u64::from_str_radix(origin, 16).ok()?,
            seq: u64::from_str_radix(seq, 16).ok()?,
        })
    }

    /// Renders a list of ids as one comma-separated wire string.
    pub fn encode_list(ids: &[TraceId]) -> String {
        ids.iter().map(|id| id.to_wire()).collect::<Vec<_>>().join(",")
    }

    /// Parses a comma-separated wire string back into ids; malformed entries
    /// are skipped (a traced peer must interoperate with untraced senders).
    pub fn decode_list(s: &str) -> Vec<TraceId> {
        s.split(',').filter_map(TraceId::from_wire).collect()
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}:{}", self.origin, self.seq)
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Why a copy of an event died where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// Duplicate suppression: an identical copy had already been seen (wire
    /// message-id window or TPS event-id window).
    Duplicate,
    /// The copy's hop budget reached zero at a peer that was not a listener.
    TtlExhausted,
    /// No next hop could be resolved for the copy.
    NoRoute,
}

impl fmt::Display for DropCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DropCause::Duplicate => "duplicate",
            DropCause::TtlExhausted => "ttl-exhausted",
            DropCause::NoRoute => "no-route",
        })
    }
}

/// What happened to a copy of an event at one hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The event entered the stack at its publisher.
    Published,
    /// One unicast copy left this peer for `to` ([`BROADCAST`] when the copy
    /// went out on a multicast/propagate fallback instead of a single peer).
    WireOut {
        /// Trace handle of the receiving peer.
        to: u64,
    },
    /// A copy arrived at this peer from `from`.
    WireIn {
        /// Trace handle of the sending peer.
        from: u64,
    },
    /// A rendezvous relayed a copy across a mesh link to another rendezvous.
    MeshRelay {
        /// Trace handle of the receiving rendezvous.
        to: u64,
    },
    /// A rendezvous fanned a copy down a client lease.
    FanDown {
        /// Trace handle of the leased client.
        to: u64,
    },
    /// The copy reached this peer's local listener / subscriber mailbox.
    Delivered,
    /// The copy died at this peer.
    Dropped {
        /// Why it died.
        cause: DropCause,
    },
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanKind::Published => f.write_str("published"),
            SpanKind::WireOut { to } => write!(f, "wire-out -> {to:x}"),
            SpanKind::WireIn { from } => write!(f, "wire-in <- {from:x}"),
            SpanKind::MeshRelay { to } => write!(f, "mesh-relay -> {to:x}"),
            SpanKind::FanDown { to } => write!(f, "fan-down -> {to:x}"),
            SpanKind::Delivered => f.write_str("delivered"),
            SpanKind::Dropped { cause } => write!(f, "dropped ({cause})"),
        }
    }
}

/// One timestamped hop record of one event copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// Which event this span belongs to.
    pub id: TraceId,
    /// When it happened, in microseconds of the caller's (virtual) clock.
    pub at_us: u64,
    /// Trace handle of the peer the span happened at.
    pub node: u64,
    /// What happened.
    pub kind: SpanKind,
}

impl TraceSpan {
    /// The single peer this span sent a copy to, if it is a send span
    /// (`None` for non-send spans and for [`BROADCAST`] sends).
    pub fn send_target(&self) -> Option<u64> {
        match self.kind {
            SpanKind::WireOut { to } | SpanKind::MeshRelay { to } | SpanKind::FanDown { to } => {
                (to != BROADCAST).then_some(to)
            }
            _ => None,
        }
    }
}

impl fmt::Display for TraceSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10.3}ms] {} @{:x} {}",
            self.at_us as f64 / 1_000.0,
            self.id,
            self.node,
            self.kind
        )
    }
}

// ---------------------------------------------------------------------------
// Verdicts
// ---------------------------------------------------------------------------

/// The outcome of [`TraceCollector::why_missing`]: where a subscriber's copy
/// of an event ended up, reconstructed from the recorded spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryVerdict {
    /// The event *was* delivered to the subscriber.
    Delivered {
        /// Delivery instant in microseconds.
        at_us: u64,
    },
    /// The copy died at an instrumented hop which recorded an explicit
    /// `Dropped` span (duplicate suppression, TTL exhaustion, no route).
    DroppedAt {
        /// The drop span.
        span: TraceSpan,
    },
    /// A copy was put on the wire (`last_send`) but its target never recorded
    /// a `WireIn`: it died in the network kernel. Join its node, target and
    /// `at_us` against the kernel's own drop log for the transport-level
    /// reason.
    LostOnWire {
        /// The last send span whose copy vanished.
        last_send: TraceSpan,
    },
    /// The event was published but no copy was ever routed toward the
    /// subscriber (and none was lost on the wire) — the dissemination plan
    /// simply never covered it. `last_span` is the trace's final hop.
    NeverRouted {
        /// The last span recorded for the event.
        last_span: TraceSpan,
    },
    /// No span exists for the id at all (it was never published, or the
    /// collector has already evicted its spans).
    NeverPublished,
}

impl DeliveryVerdict {
    /// Whether the verdict says the subscriber actually got the event.
    pub fn is_delivered(&self) -> bool {
        matches!(self, DeliveryVerdict::Delivered { .. })
    }
}

impl fmt::Display for DeliveryVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliveryVerdict::Delivered { at_us } => {
                write!(f, "delivered at {:.3}ms", *at_us as f64 / 1_000.0)
            }
            DeliveryVerdict::DroppedAt { span } => write!(f, "dropped at hop: {span}"),
            DeliveryVerdict::LostOnWire { last_send } => {
                write!(f, "lost on the wire after: {last_send}")
            }
            DeliveryVerdict::NeverRouted { last_span } => {
                write!(
                    f,
                    "never routed toward the subscriber; trace ends at: {last_span}"
                )
            }
            DeliveryVerdict::NeverPublished => f.write_str("no trace recorded for this id"),
        }
    }
}

// ---------------------------------------------------------------------------
// TraceCollector
// ---------------------------------------------------------------------------

/// The bounded span sink shared by every instrumented layer of one
/// simulation. Also the [`TraceId`] allocator: ids come from deterministic
/// per-origin counters, so a given seed always yields the same ids.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCollector {
    capacity: usize,
    spans: VecDeque<TraceSpan>,
    names: BTreeMap<u64, String>,
    next_seq: BTreeMap<u64, u64>,
    by_id: IdIndex,
}

/// Every ring position of [`TraceCollector::spans`], sorted by
/// `(TraceId, position)`: one event's spans are a contiguous run, in
/// recording order. Built by the first query after a mutation and dropped by
/// the next mutation. A cache, so it takes no part in equality.
#[derive(Debug, Clone, Default)]
struct IdIndex(OnceCell<Vec<u32>>);

impl PartialEq for IdIndex {
    fn eq(&self, _: &IdIndex) -> bool {
        true
    }
}

impl TraceCollector {
    /// Creates a collector retaining at most `capacity` spans (a zero
    /// capacity is promoted to 1). Oldest spans are evicted first.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceCollector {
            capacity: capacity.max(1),
            spans: VecDeque::new(),
            names: BTreeMap::new(),
            next_seq: BTreeMap::new(),
            by_id: IdIndex::default(),
        }
    }

    /// Allocates the next [`TraceId`] for events published by `origin`.
    pub fn allocate(&mut self, origin: u64) -> TraceId {
        let seq = self.next_seq.entry(origin).or_insert(0);
        *seq += 1;
        TraceId { origin, seq: *seq }
    }

    /// Records one span, evicting the oldest if the ring is full.
    pub fn record(&mut self, span: TraceSpan) {
        self.by_id = IdIndex::default();
        if self.spans.len() >= self.capacity {
            self.spans.pop_front();
        }
        self.spans.push_back(span);
    }

    /// Registers a human-readable name for a trace handle, used by the text
    /// timeline.
    pub fn register_node(&mut self, node: u64, name: impl Into<String>) {
        self.names.insert(node, name.into());
    }

    /// The registered name of a handle, or `peer-<hex>` if unregistered.
    fn node_name(&self, node: u64) -> String {
        self.names
            .get(&node)
            .cloned()
            .unwrap_or_else(|| format!("peer-{node:x}"))
    }

    /// Every span currently retained, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &TraceSpan> {
        self.spans.iter()
    }

    /// Number of spans currently retained.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span is retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Removes all spans (names and sequence counters are kept).
    pub fn clear(&mut self) {
        self.by_id = IdIndex::default();
        self.spans.clear();
    }

    /// The id index, built on the first call after a mutation.
    fn index(&self) -> &[u32] {
        self.by_id.0.get_or_init(|| {
            let len = u32::try_from(self.spans.len()).expect("span ring positions fit in u32");
            let mut index: Vec<u32> = (0..len).collect();
            index.sort_unstable_by_key(|&position| (self.spans[position as usize].id, position));
            index
        })
    }

    /// One event's retained spans, in recording order: two binary searches
    /// over the id index, then a walk of the event's own run.
    fn hops(&self, id: TraceId) -> impl DoubleEndedIterator<Item = &TraceSpan> + ExactSizeIterator + Clone {
        let index = self.index();
        let id_at = |&position: &u32| self.spans[position as usize].id;
        let start = index.partition_point(|p| id_at(p) < id);
        let len = index[start..].partition_point(|p| id_at(p) == id);
        index[start..start + len]
            .iter()
            .map(|&position| &self.spans[position as usize])
    }

    /// The ordered hop list of one event: every retained span carrying `id`,
    /// in recording (= virtual-clock) order. O(log n + k) for `k` such spans
    /// once the id index is built (see the module docs).
    pub fn trace_of(&self, id: TraceId) -> Vec<TraceSpan> {
        self.hops(id).copied().collect()
    }

    /// Every distinct id with at least one retained span, in id order.
    pub fn known_ids(&self) -> Vec<TraceId> {
        let mut ids: Vec<TraceId> = Vec::new();
        for &position in self.index() {
            let id = self.spans[position as usize].id;
            if ids.last() != Some(&id) {
                ids.push(id);
            }
        }
        ids
    }

    /// Drop forensics: where did `subscriber`'s copy of `id` end up?
    ///
    /// The verdict walks the recorded spans: a `Delivered` at the subscriber
    /// wins; otherwise an arrival without delivery points at the local drop;
    /// otherwise the last send targeting the subscriber (or the last send
    /// whose target never recorded an arrival — an upstream wire loss) is
    /// blamed; an explicit `Dropped` anywhere on the path comes next; and a
    /// trace that never sent anything toward the subscriber is
    /// [`DeliveryVerdict::NeverRouted`].
    ///
    /// Costs O(log n + k log k) for the event's `k` spans once the id index
    /// is built. It allocates at most once: the sorted arrival nodes that
    /// the upstream-loss step tests each send target against.
    pub fn why_missing(&self, subscriber: u64, id: TraceId) -> DeliveryVerdict {
        let hops = self.hops(id);
        let Some(last) = hops.clone().next_back().copied() else {
            return DeliveryVerdict::NeverPublished;
        };
        let at_subscriber = hops.clone().filter(|s| s.node == subscriber);
        if let Some(d) = at_subscriber
            .clone()
            .find(|s| matches!(s.kind, SpanKind::Delivered))
        {
            return DeliveryVerdict::Delivered { at_us: d.at_us };
        }
        let arrived = at_subscriber
            .clone()
            .any(|s| matches!(s.kind, SpanKind::WireIn { .. }));
        if arrived {
            let local = at_subscriber
                .clone()
                .rev()
                .find(|s| matches!(s.kind, SpanKind::Dropped { .. }))
                .or_else(|| at_subscriber.clone().next_back())
                .copied()
                .expect("an arrival span exists at the subscriber");
            return DeliveryVerdict::DroppedAt { span: local };
        }
        if let Some(send) = hops.clone().rev().find(|s| s.send_target() == Some(subscriber)) {
            return DeliveryVerdict::LostOnWire { last_send: *send };
        }
        // An upstream copy that left a peer but never arrived anywhere: the
        // network kernel ate it before it could be routed further toward the
        // subscriber.
        let mut arrivals: Vec<u64> = Vec::with_capacity(hops.len());
        arrivals.extend(
            hops.clone()
                .filter(|s| matches!(s.kind, SpanKind::WireIn { .. }))
                .map(|s| s.node),
        );
        arrivals.sort_unstable();
        if let Some(send) = hops.clone().rev().find(|s| {
            s.send_target()
                .is_some_and(|to| arrivals.binary_search(&to).is_err())
        }) {
            return DeliveryVerdict::LostOnWire { last_send: *send };
        }
        if let Some(drop) = hops.rev().find(|s| matches!(s.kind, SpanKind::Dropped { .. })) {
            return DeliveryVerdict::DroppedAt { span: *drop };
        }
        DeliveryVerdict::NeverRouted { last_span: last }
    }

    /// All end-to-end latencies in milliseconds: one sample per `Delivered`
    /// span whose id still has its `Published` span in the ring.
    fn latencies_ms(&self) -> Vec<f64> {
        let mut published: BTreeMap<TraceId, u64> = BTreeMap::new();
        for span in &self.spans {
            if matches!(span.kind, SpanKind::Published) {
                published.entry(span.id).or_insert(span.at_us);
            }
        }
        self.spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Delivered))
            .filter_map(|s| {
                published
                    .get(&s.id)
                    .map(|&t0| s.at_us.saturating_sub(t0) as f64 / 1_000.0)
            })
            .collect()
    }

    /// Feeds every end-to-end latency sample into a fresh
    /// [`WindowedHistogram`] sized to hold them all.
    pub fn latency_histogram(&self) -> WindowedHistogram {
        let samples = self.latencies_ms();
        let mut histogram = WindowedHistogram::with_capacity(samples.len().max(1));
        for sample in samples {
            histogram.record(sample);
        }
        histogram
    }

    /// A human-readable timeline of one event: one line per span, with
    /// registered peer names substituted for raw handles.
    pub fn timeline(&self, id: TraceId) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for span in self.hops(id) {
            let place = self.node_name(span.node);
            let what = match span.kind {
                SpanKind::Published => "published".to_owned(),
                SpanKind::WireOut { to } => format!("wire-out -> {}", self.describe_target(to)),
                SpanKind::WireIn { from } => format!("wire-in <- {}", self.describe_target(from)),
                SpanKind::MeshRelay { to } => format!("mesh-relay -> {}", self.describe_target(to)),
                SpanKind::FanDown { to } => format!("fan-down -> {}", self.describe_target(to)),
                SpanKind::Delivered => "delivered".to_owned(),
                SpanKind::Dropped { cause } => format!("dropped ({cause})"),
            };
            let _ = writeln!(out, "[{:>10.3}ms] {place}: {what}", span.at_us as f64 / 1_000.0);
        }
        out
    }

    fn describe_target(&self, node: u64) -> String {
        if node == BROADCAST {
            "broadcast".to_owned()
        } else {
            self.node_name(node)
        }
    }
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: TraceId, at_us: u64, node: u64, kind: SpanKind) -> TraceSpan {
        TraceSpan {
            id,
            at_us,
            node,
            kind,
        }
    }

    #[test]
    fn trace_ids_roundtrip_the_wire_form() {
        let id = TraceId {
            origin: 0xDEAD_BEEF,
            seq: 42,
        };
        assert_eq!(TraceId::from_wire(&id.to_wire()), Some(id));
        assert_eq!(TraceId::from_wire("nonsense"), None);
        assert_eq!(TraceId::from_wire("12:zz"), None);
        let ids = vec![id, TraceId { origin: 1, seq: 2 }];
        assert_eq!(TraceId::decode_list(&TraceId::encode_list(&ids)), ids);
        assert_eq!(
            TraceId::decode_list("garbage,1:2"),
            vec![TraceId { origin: 1, seq: 2 }]
        );
    }

    #[test]
    fn allocation_is_per_origin_and_sequential() {
        let mut collector = TraceCollector::with_capacity(8);
        assert_eq!(collector.allocate(7), TraceId { origin: 7, seq: 1 });
        assert_eq!(collector.allocate(7), TraceId { origin: 7, seq: 2 });
        assert_eq!(collector.allocate(9), TraceId { origin: 9, seq: 1 });
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut collector = TraceCollector::with_capacity(2);
        let id = TraceId { origin: 1, seq: 1 };
        for at in 0..5u64 {
            collector.record(span(id, at, 1, SpanKind::Published));
        }
        assert_eq!(collector.len(), 2, "five recorded, three evicted");
        let kept: Vec<u64> = collector.spans().map(|s| s.at_us).collect();
        assert_eq!(kept, vec![3, 4], "oldest spans leave first");
        collector.clear();
        assert!(collector.is_empty());
    }

    /// The span ring at a mega-scale record count: a 4096-capacity collector
    /// fed 20 000 spans holds exactly the newest 4096, in order.
    #[test]
    fn ring_stays_bounded_at_twenty_thousand_spans() {
        const CAPACITY: usize = 4_096;
        const TOTAL: u64 = 20_000;
        let mut collector = TraceCollector::with_capacity(CAPACITY);
        let id = TraceId { origin: 1, seq: 1 };
        for at in 0..TOTAL {
            collector.record(span(id, at, 1, SpanKind::Published));
        }
        assert_eq!(collector.len(), CAPACITY);
        let kept: Vec<u64> = collector.spans().map(|s| s.at_us).collect();
        assert_eq!(kept.first().copied(), Some(TOTAL - CAPACITY as u64));
        assert_eq!(kept.last().copied(), Some(TOTAL - 1));
        assert!(
            kept.windows(2).all(|w| w[1] == w[0] + 1),
            "the retained window is contiguous and ordered"
        );
    }

    #[test]
    fn trace_of_reconstructs_the_ordered_path() {
        let mut collector = TraceCollector::with_capacity(64);
        let id = collector.allocate(0xA);
        let other = collector.allocate(0xB);
        collector.record(span(id, 0, 0xA, SpanKind::Published));
        collector.record(span(other, 1, 0xB, SpanKind::Published));
        collector.record(span(id, 2, 0xA, SpanKind::WireOut { to: 0xC }));
        collector.record(span(id, 5, 0xC, SpanKind::WireIn { from: 0xA }));
        collector.record(span(id, 6, 0xC, SpanKind::Delivered));
        let path = collector.trace_of(id);
        assert_eq!(path.len(), 4);
        assert!(path.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert_eq!(collector.known_ids(), vec![id, other]);
    }

    #[test]
    fn why_missing_classifies_delivery_and_wire_loss() {
        let mut collector = TraceCollector::with_capacity(64);
        let id = collector.allocate(0xA);
        collector.record(span(id, 0, 0xA, SpanKind::Published));
        collector.record(span(id, 1, 0xA, SpanKind::WireOut { to: 0xC }));
        collector.record(span(id, 1, 0xA, SpanKind::WireOut { to: 0xD }));
        collector.record(span(id, 4, 0xC, SpanKind::WireIn { from: 0xA }));
        collector.record(span(id, 5, 0xC, SpanKind::Delivered));
        assert!(collector.why_missing(0xC, id).is_delivered());
        // 0xD's copy was sent but never arrived: lost on the wire.
        match collector.why_missing(0xD, id) {
            DeliveryVerdict::LostOnWire { last_send } => {
                assert_eq!(last_send.send_target(), Some(0xD));
            }
            other => panic!("expected LostOnWire, got {other}"),
        }
        // An uninvolved peer is *also* explained by that vanished copy (it
        // could have been the relay hop toward them).
        assert!(matches!(
            collector.why_missing(0xE, id),
            DeliveryVerdict::LostOnWire { .. }
        ));
        // Once 0xD's copy lands too, nothing was lost anywhere: a subscriber
        // the plan never covered gets a NeverRouted verdict.
        collector.record(span(id, 6, 0xD, SpanKind::WireIn { from: 0xA }));
        collector.record(span(id, 7, 0xD, SpanKind::Delivered));
        assert_eq!(
            collector.why_missing(0xE, id),
            DeliveryVerdict::NeverRouted {
                last_span: span(id, 7, 0xD, SpanKind::Delivered)
            }
        );
        assert_eq!(
            collector.why_missing(0xC, TraceId { origin: 9, seq: 9 }),
            DeliveryVerdict::NeverPublished
        );
    }

    #[test]
    fn why_missing_blames_upstream_wire_loss() {
        // publisher -> rendezvous copy vanished; the subscriber never saw a
        // thing, but the verdict still names the exact dead hop.
        let mut collector = TraceCollector::with_capacity(64);
        let id = collector.allocate(0xA);
        collector.record(span(id, 0, 0xA, SpanKind::Published));
        collector.record(span(id, 1, 0xA, SpanKind::WireOut { to: 0xF0 }));
        match collector.why_missing(0x5, id) {
            DeliveryVerdict::LostOnWire { last_send } => {
                assert_eq!(last_send.send_target(), Some(0xF0));
                assert_eq!(last_send.node, 0xA);
            }
            other => panic!("expected LostOnWire, got {other}"),
        }
    }

    #[test]
    fn why_missing_reports_local_drops() {
        let mut collector = TraceCollector::with_capacity(64);
        let id = collector.allocate(0xA);
        collector.record(span(id, 0, 0xA, SpanKind::Published));
        collector.record(span(id, 1, 0xA, SpanKind::WireOut { to: 0xC }));
        collector.record(span(id, 2, 0xC, SpanKind::WireIn { from: 0xA }));
        collector.record(span(
            id,
            2,
            0xC,
            SpanKind::Dropped {
                cause: DropCause::Duplicate,
            },
        ));
        match collector.why_missing(0xC, id) {
            DeliveryVerdict::DroppedAt { span } => {
                assert_eq!(
                    span.kind,
                    SpanKind::Dropped {
                        cause: DropCause::Duplicate
                    }
                );
            }
            other => panic!("expected DroppedAt, got {other}"),
        }
    }

    #[test]
    fn latency_and_hop_accounting() {
        let mut collector = TraceCollector::with_capacity(64);
        let id = collector.allocate(0xA);
        collector.record(span(id, 1_000, 0xA, SpanKind::Published));
        collector.record(span(id, 1_100, 0xA, SpanKind::WireOut { to: 0xB }));
        collector.record(span(id, 2_000, 0xB, SpanKind::WireIn { from: 0xA }));
        collector.record(span(id, 2_200, 0xB, SpanKind::FanDown { to: 0xC }));
        collector.record(span(id, 3_000, 0xC, SpanKind::WireIn { from: 0xB }));
        collector.record(span(id, 3_500, 0xC, SpanKind::Delivered));
        assert_eq!(collector.latencies_ms(), vec![2.5]);
        let histogram = collector.latency_histogram();
        assert_eq!(histogram.len(), 1);
        assert!((histogram.summary().p50 - 2.5).abs() < 1e-9);
    }

    #[test]
    fn timeline_uses_registered_names() {
        let mut collector = TraceCollector::with_capacity(64);
        collector.register_node(0xA, "shop-0");
        collector.register_node(0xB, "rdv-0");
        let id = collector.allocate(0xA);
        collector.record(span(id, 0, 0xA, SpanKind::Published));
        collector.record(span(id, 10, 0xA, SpanKind::WireOut { to: 0xB }));
        let text = collector.timeline(id);
        assert!(text.contains("shop-0: published"));
        assert!(text.contains("wire-out -> rdv-0"));
        assert_eq!(collector.node_name(0xF), "peer-f");
    }
}

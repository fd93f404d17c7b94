//! The indexed span queries against the linear ones they replaced.
//!
//! `TraceCollector::trace_of`, `known_ids` and `why_missing` used to filter
//! the whole span ring on every call. They now read a sorted id index that
//! the first query after a mutation builds. The linear versions live on
//! here, verbatim over `TraceCollector::spans`, as the oracle: on random
//! rings every (subscriber, id) verdict must be the same value, across ring
//! eviction, `clear`, a `record` between two queries, broadcast sends and
//! repeated drops.

use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::BTreeSet;
use telemetry::trace::{DeliveryVerdict, DropCause, SpanKind, TraceCollector, TraceId, TraceSpan, BROADCAST};

// ---------------------------------------------------------------------------
// The oracle: the linear queries, as they were
// ---------------------------------------------------------------------------

fn oracle_trace_of(collector: &TraceCollector, id: TraceId) -> Vec<TraceSpan> {
    collector.spans().filter(|s| s.id == id).copied().collect()
}

fn oracle_known_ids(collector: &TraceCollector) -> Vec<TraceId> {
    let set: BTreeSet<TraceId> = collector.spans().map(|s| s.id).collect();
    set.into_iter().collect()
}

fn oracle_why_missing(collector: &TraceCollector, subscriber: u64, id: TraceId) -> DeliveryVerdict {
    let spans = oracle_trace_of(collector, id);
    let Some(last) = spans.last().copied() else {
        return DeliveryVerdict::NeverPublished;
    };
    if let Some(d) = spans
        .iter()
        .find(|s| s.node == subscriber && matches!(s.kind, SpanKind::Delivered))
    {
        return DeliveryVerdict::Delivered { at_us: d.at_us };
    }
    let arrived = spans
        .iter()
        .any(|s| s.node == subscriber && matches!(s.kind, SpanKind::WireIn { .. }));
    if arrived {
        let local = spans
            .iter()
            .rev()
            .find(|s| s.node == subscriber && matches!(s.kind, SpanKind::Dropped { .. }))
            .or_else(|| spans.iter().rev().find(|s| s.node == subscriber))
            .copied()
            .expect("an arrival span exists at the subscriber");
        return DeliveryVerdict::DroppedAt { span: local };
    }
    if let Some(send) = spans.iter().rev().find(|s| s.send_target() == Some(subscriber)) {
        return DeliveryVerdict::LostOnWire { last_send: *send };
    }
    if let Some(send) = spans.iter().rev().find(|s| match s.send_target() {
        Some(to) => !spans
            .iter()
            .any(|r| r.node == to && matches!(r.kind, SpanKind::WireIn { .. })),
        None => false,
    }) {
        return DeliveryVerdict::LostOnWire { last_send: *send };
    }
    if let Some(drop) = spans
        .iter()
        .rev()
        .find(|s| matches!(s.kind, SpanKind::Dropped { .. }))
    {
        return DeliveryVerdict::DroppedAt { span: *drop };
    }
    DeliveryVerdict::NeverRouted { last_span: last }
}

// ---------------------------------------------------------------------------
// Random rings
// ---------------------------------------------------------------------------

/// Peer handles `0..PEERS`; handle 0 doubles as [`BROADCAST`] in send spans.
const PEERS: u64 = 6;

/// Distinct event ids a script draws from: origins 1 and 2, sequence 1..=3.
const IDS: u64 = 6;

/// One step of a generated script: `(op, id, node, peer)`, with `id` in
/// `0..IDS`.
type Step = (u8, u64, u64, u64);

/// What a script step does: ops 0..=12 record a span, 13 and 14 check every
/// query against the oracle (so later records force an index rebuild), 15
/// clears the ring.
fn apply(collector: &mut TraceCollector, at_us: u64, step: Step) -> bool {
    let (op, id, node, peer) = step;
    let kind = match op {
        0 => SpanKind::Published,
        1 | 2 => SpanKind::WireOut { to: peer },
        3 => SpanKind::WireOut { to: BROADCAST },
        4 | 5 => SpanKind::WireIn { from: peer },
        6 => SpanKind::MeshRelay { to: peer },
        7 => SpanKind::FanDown { to: peer },
        8 => SpanKind::Delivered,
        9 | 10 => SpanKind::Dropped {
            cause: DropCause::Duplicate,
        },
        11 => SpanKind::Dropped {
            cause: DropCause::TtlExhausted,
        },
        12 => SpanKind::Dropped {
            cause: DropCause::NoRoute,
        },
        13 | 14 => return true,
        _ => {
            collector.clear();
            return false;
        }
    };
    collector.record(TraceSpan {
        id: TraceId {
            origin: 1 + id / 3,
            seq: 1 + id % 3,
        },
        at_us,
        node,
        kind,
    });
    false
}

/// Every query of the indexed collector equals the oracle's, for every
/// subscriber handle and every id the ring holds plus one it never saw.
fn check(collector: &TraceCollector) -> Result<(), TestCaseError> {
    let ids = oracle_known_ids(collector);
    prop_assert_eq!(collector.known_ids(), ids.clone());
    let absent = TraceId { origin: 99, seq: 99 };
    for &id in ids.iter().chain([&absent]) {
        prop_assert_eq!(collector.trace_of(id), oracle_trace_of(collector, id));
        for subscriber in 0..=PEERS {
            prop_assert_eq!(
                collector.why_missing(subscriber, id),
                oracle_why_missing(collector, subscriber, id),
                "subscriber {subscriber:x}, id {id}"
            );
        }
    }
    Ok(())
}

fn run_script(capacity: usize, steps: &[Step]) -> Result<TraceCollector, TestCaseError> {
    let mut collector = TraceCollector::with_capacity(capacity);
    for (at_us, &step) in (0u64..).zip(steps) {
        if apply(&mut collector, at_us, step) {
            check(&collector)?;
        }
    }
    check(&collector)?;
    Ok(collector)
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..16, 0..IDS, 0..PEERS, 0..PEERS), 0..160)
}

proptest! {
    /// Small rings wrap many times over: every verdict, hop list and id list
    /// matches the linear oracle at each checkpoint and at the end.
    #[test]
    fn indexed_queries_match_the_linear_oracle(capacity in 1usize..48, script in steps()) {
        run_script(capacity, &script)?;
    }

    /// A ring that never evicts: events with many spans each, so the
    /// upstream-loss step tests many sends against many arrivals.
    #[test]
    fn indexed_queries_match_the_linear_oracle_without_eviction(script in steps()) {
        run_script(1_024, &script)?;
    }

    /// The index is a cache: a collector that answered queries equals one
    /// fed the same spans that never did, and so does a clone of either.
    #[test]
    fn equality_ignores_whether_the_index_is_built(capacity in 1usize..48, script in steps()) {
        let queried = run_script(capacity, &script)?;
        let mut untouched = TraceCollector::with_capacity(capacity);
        for (at_us, &step) in (0u64..).zip(&script) {
            apply(&mut untouched, at_us, step);
        }
        prop_assert_eq!(&queried, &untouched);
        prop_assert_eq!(&queried.clone(), &untouched.clone());
    }
}

/// One hand-built event with a broadcast send, a fan-down, a mesh relay and
/// two duplicate drops: each subscriber's verdict is the oracle's, and the
/// expected one.
#[test]
fn a_hand_built_event_matches_the_oracle() {
    let mut collector = TraceCollector::with_capacity(64);
    let id = collector.allocate(1);
    let record = |collector: &mut TraceCollector, at_us, node, kind| {
        collector.record(TraceSpan {
            id,
            at_us,
            node,
            kind,
        });
    };
    record(&mut collector, 0, 1, SpanKind::Published);
    record(&mut collector, 1, 1, SpanKind::WireOut { to: 2 });
    record(&mut collector, 1, 1, SpanKind::WireOut { to: BROADCAST });
    record(&mut collector, 2, 2, SpanKind::WireIn { from: 1 });
    record(&mut collector, 3, 2, SpanKind::FanDown { to: 3 });
    record(&mut collector, 3, 2, SpanKind::MeshRelay { to: 4 });
    record(&mut collector, 4, 3, SpanKind::WireIn { from: 2 });
    record(&mut collector, 5, 3, SpanKind::Delivered);
    record(&mut collector, 6, 2, SpanKind::WireIn { from: 1 });
    let duplicate = SpanKind::Dropped {
        cause: DropCause::Duplicate,
    };
    record(&mut collector, 6, 2, duplicate);
    record(&mut collector, 7, 2, duplicate);
    for subscriber in 0..=6 {
        let verdict = collector.why_missing(subscriber, id);
        assert_eq!(verdict, oracle_why_missing(&collector, subscriber, id));
        let expected = match subscriber {
            3 => "delivered",
            2 => "dropped at hop",
            // 4's own copy, and for everyone else the copy to 4 upstream.
            _ => "lost on the wire",
        };
        assert!(
            verdict.to_string().starts_with(expected),
            "{subscriber}: {verdict}"
        );
    }
}

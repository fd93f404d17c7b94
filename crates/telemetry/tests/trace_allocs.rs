//! What a forensics query allocates once the span ring's id index is built:
//! a `why_missing` verdict costs at most one allocator call, whatever the
//! ring holds, and building the index costs one.
//!
//! This binary installs its own counting allocator, so it holds these tests
//! only. Counts are per thread: the test harness runs tests on parallel
//! threads and their allocations must not leak into one another's books.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use telemetry::trace::{DeliveryVerdict, DropCause, SpanKind, TraceCollector, TraceId, TraceSpan};

thread_local! {
    // Const-initialised and without a destructor, so touching it from inside
    // the allocator cannot itself allocate or run during thread teardown.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note_call() {
    CALLS.with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counter never influences what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_call();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_call();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_call();
        // SAFETY: `ptr`/`layout` describe a live block of this allocator and
        // the caller vouched for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) this thread makes
/// while `f` runs.
fn allocator_calls<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

/// Subscriber handles of [`churn_ring`]'s events.
const SUBSCRIBERS: std::ops::Range<u64> = 100..164;

/// A mesh-shaped ring: publisher 1 sends each event to rendezvous 2, which
/// relays it to rendezvous 3 and fans it down to the 64 subscribers. Event
/// `seq` loses the relay and the fan-downs to subscribers `99 + seq` and
/// `100 + seq`, and `101 + seq` drops it as a duplicate; the rest deliver.
/// The ring holds more spans than any one event, so a linear query would
/// show up as allocations proportional to the ring.
fn churn_ring(events: u64) -> TraceCollector {
    let mut collector = TraceCollector::with_capacity(1 << 15);
    for seq in 1..=events {
        let id = TraceId { origin: 1, seq };
        let mut at_us = seq * 1_000;
        let mut record = |node, kind| {
            at_us += 1;
            collector.record(TraceSpan {
                id,
                at_us,
                node,
                kind,
            });
        };
        record(1, SpanKind::Published);
        record(1, SpanKind::WireOut { to: 2 });
        record(2, SpanKind::WireIn { from: 1 });
        record(2, SpanKind::MeshRelay { to: 3 });
        for subscriber in SUBSCRIBERS {
            record(2, SpanKind::FanDown { to: subscriber });
            if subscriber == 99 + seq || subscriber == 100 + seq {
                continue;
            }
            record(subscriber, SpanKind::WireIn { from: 2 });
            if subscriber == 101 + seq {
                let cause = DropCause::Duplicate;
                record(subscriber, SpanKind::Dropped { cause });
            } else {
                record(subscriber, SpanKind::Delivered);
            }
        }
    }
    collector
}

#[test]
fn building_the_index_is_one_allocation() {
    let collector = churn_ring(16);
    let id = TraceId { origin: 1, seq: 1 };
    let (calls, verdict) = allocator_calls(|| collector.why_missing(103, id));
    assert!(verdict.is_delivered(), "{verdict}");
    assert_eq!(calls, 1, "the first query sorts one vector of ring positions");
}

#[test]
fn a_verdict_allocates_at_most_once_after_the_index_is_built() {
    let collector = churn_ring(16);
    let _ = collector.known_ids();
    let id = TraceId { origin: 1, seq: 1 };
    // (subscriber, expected verdict, allocator calls): only a verdict that
    // reaches the upstream-loss step gathers the event's arrival nodes.
    let cases = [
        (103, "delivered", 0),
        (102, "dropped at hop", 0),
        (101, "lost on the wire", 0),
        (100, "lost on the wire", 0),
        // No span names handle 3's subscribers, so the lost relay upstream
        // is the answer.
        (7, "lost on the wire", 1),
    ];
    for (subscriber, expected, pinned) in cases {
        let (calls, verdict) = allocator_calls(|| collector.why_missing(subscriber, id));
        assert!(
            verdict.to_string().starts_with(expected),
            "{subscriber}: {verdict}"
        );
        assert_eq!(calls, pinned, "{subscriber}: {verdict}");
    }
    let absent = TraceId { origin: 9, seq: 9 };
    let (calls, verdict) = allocator_calls(|| collector.why_missing(100, absent));
    assert_eq!(verdict, DeliveryVerdict::NeverPublished);
    assert_eq!(calls, 0);
}

/// The bound holds over a whole sweep, every subscriber for every event.
#[test]
fn a_sweep_allocates_at_most_once_per_verdict() {
    let collector = churn_ring(16);
    let ids = collector.known_ids();
    let mut verdicts = 0u64;
    let (calls, ()) = allocator_calls(|| {
        for subscriber in SUBSCRIBERS.chain([7]) {
            for &id in &ids {
                std::hint::black_box(collector.why_missing(subscriber, id));
                verdicts += 1;
            }
        }
    });
    assert_eq!(verdicts, 65 * 16);
    assert!(
        calls <= verdicts,
        "{calls} allocator calls for {verdicts} verdicts"
    );
}

//! The flyweight population's heap ledger: the live bytes a 4-shard mesh
//! holds per flyweight subscriber once every subscriber has leased and
//! received 20 events, rendezvous, publisher and kernel included.
//!
//! This binary installs its own counting allocator, so it holds this test
//! only. Allocation sizes do not depend on the build profile, so the figure
//! is the same in debug and release.

use simnet::SimDuration;
use ski_rental::Scenario;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated and not yet freed, process-wide. A statistic
/// that publishes no other data, hence `Relaxed`.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counter never influences what is returned. The
// default `alloc_zeroed` goes through `alloc`, so it is counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live block of this allocator and
        // the caller vouched for `new_size`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SUBSCRIBERS: usize = 2_000;
const PUBLISHES: usize = 20;

/// Live heap per subscriber, in bytes. A 176-byte node, its 144-byte kernel
/// slot, what the rendezvous keeps per lease and a 32-slot mailbox of
/// 32-byte receipts come to about 2.4 kB. Boxing every flyweight at the size
/// of a full TPS peer, and keeping a second copy of each id in a hash set
/// and a deque, came to 4.9 kB.
const BYTES_PER_SUBSCRIBER_MAX: usize = 2_600;

#[test]
fn a_flyweight_subscriber_holds_at_most_its_budget_of_live_heap() {
    let before = LIVE.load(Ordering::Relaxed);
    let mut scenario = Scenario::build_flyweight_mesh(4, 1, SUBSCRIBERS, 2002);
    scenario.advance(SimDuration::from_secs(8));
    for _ in 0..PUBLISHES {
        scenario.publish_one(0);
        scenario.advance(SimDuration::from_secs(3));
    }
    let live = usize::try_from(LIVE.load(Ordering::Relaxed) - before).expect("the scenario holds heap");
    let per_subscriber = live / SUBSCRIBERS;
    println!("live heap: {live} B, {per_subscriber} B per flyweight subscriber");

    for i in 0..SUBSCRIBERS {
        let fly = scenario
            .flyweight(i)
            .expect("flyweight-mesh subscribers are flyweights");
        assert_eq!(
            fly.received_count(),
            PUBLISHES,
            "flyweight {i} received every event once"
        );
    }
    assert!(
        per_subscriber <= BYTES_PER_SUBSCRIBER_MAX,
        "{per_subscriber} B of live heap per flyweight subscriber, budget {BYTES_PER_SUBSCRIBER_MAX} B"
    );
}

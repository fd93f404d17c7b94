//! The event codec reads a document in place: decoding allocates the
//! `String` fields it keeps and nothing else, and encoding writes into one
//! buffer.
//!
//! This binary installs its own counting allocator, so it holds these tests
//! only. Counts are per thread: the test harness runs tests on parallel
//! threads and their allocations must not leak into one another's books.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tps::codec::{from_slice, to_vec};
use tps::TpsEvent;

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

#[derive(Debug, Clone, PartialEq)]
struct SkiRental {
    shop: String,
    price: f32,
    brand: String,
    number_of_days: f32,
}
impl TpsEvent for SkiRental {
    const TYPE_NAME: &'static str = "SkiRental";
    tps::event_fields!(shop, price, brand, number_of_days);
}

#[derive(Debug, Clone, PartialEq)]
struct RentalOffer {
    shop: String,
    price: f32,
}
impl TpsEvent for RentalOffer {
    const TYPE_NAME: &'static str = "RentalOffer";
    tps::event_fields!(shop, price);
}

/// The paper's offer as the wire carries it (74 bytes).
const PAPER: &[u8] = br#"{"shop":"XTremShop","price":14.0,"brand":"Salomon","number_of_days":100.0}"#;

#[test]
fn decoding_allocates_one_call_per_string_field_kept() {
    assert_eq!(PAPER.len(), 74);
    let (calls, offer) = allocator_calls(|| from_slice::<SkiRental>(PAPER).unwrap());
    assert_eq!(offer.brand, "Salomon");
    assert_eq!(calls, 2, "one per String field");
    // The projection keeps `shop` and skips `brand` without copying it.
    let (calls, offer) = allocator_calls(|| from_slice::<RentalOffer>(PAPER).unwrap());
    assert_eq!(offer.shop, "XTremShop");
    assert_eq!(calls, 1);
}

#[test]
fn encoding_writes_into_one_buffer() {
    let offer = from_slice::<SkiRental>(PAPER).unwrap();
    let (calls, bytes) = allocator_calls(|| to_vec(&offer).unwrap());
    assert_eq!(bytes, PAPER);
    assert!(calls <= 2, "{calls} allocator calls");
}

//! A bounded FIFO id set: the duplicate-suppression window shared by the
//! wire service (per pipe), the rendezvous service and the TPS engine. The
//! flyweight edge keeps none: its mailbox's newest ids are its window.

use crate::id::Uuid;
use std::collections::{HashSet, VecDeque};

/// Remembers the newest `capacity` ids it was shown. Eviction is strictly
/// oldest-first and independent of hash order, so replays are bit-identical;
/// a forgotten id arriving again counts as new.
#[derive(Debug)]
pub struct SeenWindow {
    ids: HashSet<Uuid>,
    order: VecDeque<Uuid>,
    capacity: usize,
}

impl SeenWindow {
    /// An empty window remembering at most `capacity` ids (at least one).
    /// Nothing is allocated until the first id arrives.
    pub fn new(capacity: usize) -> Self {
        SeenWindow {
            ids: HashSet::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Records `id`. Returns `true` the first time an id is shown (or the
    /// first time since it was forgotten), `false` for a duplicate.
    pub fn insert(&mut self, id: Uuid) -> bool {
        if !self.ids.insert(id) {
            return false;
        }
        if self.order.len() == self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.ids.remove(&oldest);
            }
        }
        self.order.push_back(id);
        true
    }

    /// How many ids are currently remembered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no id is remembered.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every capacity in use (rendezvous 4096, wire and TPS 8192), a small
    /// one, and the degenerate ones.
    const CAPACITIES: [usize; 6] = [0, 1, 2, 64, 4096, 8192];

    fn id(i: usize) -> Uuid {
        Uuid(i as u128 + 1)
    }

    #[test]
    fn duplicates_are_rejected_until_forgotten() {
        for capacity in CAPACITIES {
            let mut window = SeenWindow::new(capacity);
            assert!(window.is_empty());
            assert!(window.insert(id(0)));
            assert!(
                !window.insert(id(0)),
                "capacity {capacity}: second sight is a duplicate"
            );
            assert_eq!(window.len(), 1);
        }
    }

    /// Two distinct ids arriving exactly as the window reaches capacity must
    /// evict only the oldest entries — never each other.
    #[test]
    fn at_capacity_the_two_newest_ids_both_survive() {
        for capacity in CAPACITIES.into_iter().filter(|&c| c >= 2) {
            let mut window = SeenWindow::new(capacity);
            for i in 0..capacity - 1 {
                window.insert(id(i));
            }
            let (a, b) = (id(capacity), id(capacity + 1));
            // `a` lands exactly at capacity, `b` one past it (evicting id 0).
            assert!(window.insert(a));
            assert!(window.insert(b));
            assert!(!window.insert(a), "capacity {capacity}: a survives b's arrival");
            assert!(!window.insert(b), "capacity {capacity}: b survives a's re-check");
            assert_eq!(window.len(), capacity);
            if capacity > 2 {
                assert!(!window.insert(id(capacity - 2)), "recent fillers stay");
            }
            assert!(window.insert(id(0)), "only the oldest entries leave the window");
        }
    }

    /// A long id stream leaves memory pinned at exactly `capacity` entries
    /// with strictly oldest-first eviction.
    #[test]
    fn a_long_stream_keeps_exactly_the_newest_capacity_ids() {
        const TOTAL: usize = 20_000;
        for capacity in CAPACITIES {
            let kept = capacity.max(1);
            let mut window = SeenWindow::new(capacity);
            for i in 0..TOTAL {
                assert!(window.insert(id(i)));
            }
            assert_eq!(window.ids.len(), kept, "the id set stays at the bound");
            assert_eq!(window.order.len(), kept, "the FIFO stays at the bound");
            for i in (TOTAL - kept)..TOTAL {
                assert!(
                    !window.insert(id(i)),
                    "capacity {capacity}: id {i} is still remembered"
                );
            }
            assert!(
                window.insert(id(TOTAL - kept - 1)),
                "capacity {capacity}: the id just past the window's edge is forgotten"
            );
        }
    }
}

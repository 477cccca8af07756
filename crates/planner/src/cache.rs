//! The planner's capacity-bounded cache of warm shapes.
//!
//! A planner's platform and topology are fixed for its lifetime, so a plan
//! depends only on `(op, nt, b)`. Planning is cheap next to a factorization
//! but not free (the candidate search walks `O(nt^2)` ownership queries per
//! candidate); a solver serving many requests sees the same shapes over and
//! over, so each shape's plan is memoized here. The graph that executes a
//! plan is not: it is a function of the placement alone, so it lives in the
//! process-wide `sbc_taskgraph::memo`, one graph cache beside this one plan
//! cache.
//!
//! Design:
//! * one `Mutex<HashMap>` from shape to a shared entry; a lookup holds the
//!   lock for one probe, one stamp store and one `Arc` clone;
//! * an entry is a `OnceLock` filled outside the map lock by the first
//!   caller that needs it, so a shape is planned once while it stays
//!   cached, and one cold shape never blocks hits on warm ones;
//! * capacity is **strict**: inserting a shape into a full cache first
//!   evicts the least recently looked-up one — the only lookup that scans.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::candidates::Op;
use crate::planner::Plan;

/// Cache key: the operation, the matrix size in tiles and the tile size.
type Shape = (Op, usize, usize);

/// One warm shape: its plan, once the first caller has searched for it.
pub(crate) type Entry = OnceLock<Plan>;

#[derive(Default)]
struct Slots {
    /// Each shape's entry and the stamp of its latest lookup.
    map: HashMap<Shape, (Arc<Entry>, u64)>,
    clock: u64,
}

/// The planner's bounded LRU cache of warm shapes.
pub struct PlanCache {
    slots: Mutex<Slots>,
    capacity: usize,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` shapes (`capacity` is
    /// rounded up to at least one entry).
    pub(crate) fn new(capacity: usize) -> Self {
        PlanCache {
            slots: Mutex::default(),
            capacity: capacity.max(1),
        }
    }

    /// Configured capacity (never exceeded by [`len`](Self::len)).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached shapes.
    pub fn len(&self) -> usize {
        self.slots().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shape's entry; a shape not cached gets a new empty entry, in
    /// place of the least recently used one when the cache is full.
    pub(crate) fn entry(&self, shape: Shape) -> Arc<Entry> {
        let mut slots = self.slots();
        slots.clock += 1;
        let stamp = slots.clock;
        if let Some((entry, last)) = slots.map.get_mut(&shape) {
            *last = stamp;
            return Arc::clone(entry);
        }
        if slots.map.len() >= self.capacity {
            let victim = slots.map.iter().min_by_key(|(_, (_, last))| *last);
            if let Some(victim) = victim.map(|(k, _)| *k) {
                slots.map.remove(&victim);
            }
        }
        let entry = Arc::new(Entry::default());
        slots.map.insert(shape, (Arc::clone(&entry), stamp));
        entry
    }

    fn slots(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(nt: usize) -> Shape {
        (Op::Potrf, nt, 500)
    }

    #[test]
    fn get_after_insert_round_trips() {
        let cache = PlanCache::new(16);
        assert!(cache.is_empty());
        let first = cache.entry(shape(10));
        assert!(Arc::ptr_eq(&first, &cache.entry(shape(10))));
        assert!(!Arc::ptr_eq(&first, &cache.entry(shape(11))));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_is_strict() {
        let cache = PlanCache::new(5);
        assert_eq!(cache.capacity(), 5);
        for nt in 0..100 {
            cache.entry(shape(nt));
            assert!(
                cache.len() <= 5,
                "len {} after {} inserts",
                cache.len(),
                nt + 1
            );
        }
    }

    #[test]
    fn recently_read_entries_survive_eviction() {
        let cache = PlanCache::new(2);
        let one = cache.entry(shape(1));
        let two = cache.entry(shape(2));
        // reading 1 again leaves 2 the least recently used when 3 arrives
        cache.entry(shape(1));
        cache.entry(shape(3));
        assert_eq!(cache.len(), 2);
        assert!(
            Arc::ptr_eq(&one, &cache.entry(shape(1))),
            "recent entry kept"
        );
        assert!(
            !Arc::ptr_eq(&two, &cache.entry(shape(2))),
            "LRU entry evicted"
        );
    }
}

//! Sharded, capacity-bounded concurrent plan cache.
//!
//! Planning is cheap next to a factorization but not free (the candidate
//! search walks `O(nt^2)` ownership queries per candidate, and an optional
//! simulation refinement walks the whole task graph). A solver serving
//! many requests sees the same `(op, nt, b, P)` shapes over and over, so
//! plans are memoized here.
//!
//! Design:
//! * keys carry a **platform fingerprint** so a cache never serves a plan
//!   computed for different hardware constants;
//! * the map is **sharded** (one `parking_lot::RwLock` per shard, selected
//!   by key hash) so concurrent lookups of different shapes never contend;
//! * the **hit path takes a read lock only**: it clones an `Arc` and
//!   bumps a relaxed per-entry recency stamp — no allocation, no write
//!   lock;
//! * capacity is **strict**: each shard owns a fixed slice of the total
//!   budget and evicts its least-recently-stamped entry before growing
//!   past it, so the whole cache never exceeds the configured capacity.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use sbc_simgrid::Platform;

use crate::candidates::Op;
use crate::planner::Plan;

/// Cache key: the full planning question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Operation being planned.
    pub op: Op,
    /// Matrix size in tiles.
    pub nt: usize,
    /// Tile dimension.
    pub b: usize,
    /// Node budget.
    pub p_nodes: usize,
    /// Fingerprint of the platform constants (see [`fingerprint`]).
    pub platform_fp: u64,
    /// Fingerprint of the network topology the planner priced routes over
    /// (`0` for the flat model), so a topology-aware plan is never served
    /// to a flat planner or vice versa.
    pub topology_fp: u64,
}

impl PlanKey {
    /// Builds the key for planning `op` on `nt x nt` tiles of size `b`
    /// over `platform` with the flat network model (`topology_fp = 0`;
    /// the planner overwrites it when a topology is attached).
    pub fn new(op: Op, nt: usize, b: usize, platform: &Platform) -> Self {
        PlanKey {
            op,
            nt,
            b,
            p_nodes: platform.nodes,
            platform_fp: fingerprint(platform),
            topology_fp: 0,
        }
    }
}

/// FNV-1a over every hardware constant of the platform. Two platforms with
/// the same fingerprint are cost-model-equivalent, so their plans are
/// interchangeable.
pub fn fingerprint(p: &Platform) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in [
        p.nodes as u64,
        p.cores_per_node as u64,
        p.core_gflops.to_bits(),
        p.nic_bandwidth.to_bits(),
        p.nic_latency.to_bits(),
        p.per_message_overhead.to_bits(),
        p.efficiency.gemm.to_bits(),
        p.efficiency.syrk.to_bits(),
        p.efficiency.trsm.to_bits(),
        p.efficiency.potrf.to_bits(),
        p.efficiency.b_half.to_bits(),
    ] {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

struct Entry {
    plan: Arc<Plan>,
    /// Last-touch stamp from the cache-wide clock; highest = most recent.
    stamp: AtomicU64,
}

struct Shard {
    map: RwLock<HashMap<PlanKey, Entry>>,
    capacity: usize,
}

/// The concurrent LRU plan cache.
pub struct PlanCache {
    shards: Vec<Shard>,
    clock: AtomicU64,
}

/// Shard count: enough to keep 8 planning threads out of each other's way.
const SHARDS: usize = 8;

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans in total
    /// (`capacity` is rounded up to at least one entry).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = SHARDS.min(capacity);
        let cache = PlanCache {
            shards: (0..shards)
                .map(|i| Shard {
                    map: RwLock::new(HashMap::new()),
                    // distribute the budget exactly: sum of shard capacities
                    // equals `capacity`
                    capacity: capacity / shards + usize::from(i < capacity % shards),
                })
                .collect(),
            clock: AtomicU64::new(0),
        };
        debug_assert_eq!(cache.capacity(), capacity);
        cache
    }

    /// Total configured capacity (never exceeded by [`len`](Self::len)).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.capacity).sum()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.read().len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a plan. Hit path: one read lock, one relaxed stamp store,
    /// one `Arc` clone — no allocation.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<Plan>> {
        let shard = &self.shards[self.shard_of(key)];
        let map = shard.map.read();
        let entry = map.get(key)?;
        entry.stamp.store(self.tick(), Ordering::Relaxed);
        Some(Arc::clone(&entry.plan))
    }

    /// Inserts (or replaces) a plan, evicting the shard's least-recently
    /// used entry if the shard is at capacity.
    pub fn insert(&self, key: PlanKey, plan: Arc<Plan>) {
        let shard = &self.shards[self.shard_of(&key)];
        let stamp = self.tick();
        let mut map = shard.map.write();
        if let Some(entry) = map.get_mut(&key) {
            entry.plan = plan;
            entry.stamp.store(stamp, Ordering::Relaxed);
            return;
        }
        if map.len() >= shard.capacity {
            if let Some(victim) = map
                .iter()
                .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                .map(|(k, _)| *k)
            {
                map.remove(&victim);
            }
        }
        map.insert(
            key,
            Entry {
                plan,
                stamp: AtomicU64::new(stamp),
            },
        );
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn shard_of(&self, key: &PlanKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::DistChoice;
    use crate::model::CostBreakdown;

    fn dummy_plan(nt: usize) -> Arc<Plan> {
        Arc::new(Plan {
            op: Op::Potrf,
            nt,
            b: 500,
            choice: DistChoice::SbcExtended { r: 8 },
            cost: CostBreakdown {
                messages: 0,
                comm_seconds: 0.0,
                compute_seconds: 0.0,
                imbalance: 1.0,
                cross_boundary_seconds: 0.0,
                total_seconds: 0.0,
            },
            refined_makespan: None,
            cached: false,
        })
    }

    fn key(nt: usize) -> PlanKey {
        PlanKey::new(Op::Potrf, nt, 500, &Platform::bora(28))
    }

    #[test]
    fn get_after_insert_round_trips() {
        let cache = PlanCache::new(16);
        assert!(cache.get(&key(10)).is_none());
        cache.insert(key(10), dummy_plan(10));
        assert_eq!(cache.get(&key(10)).unwrap().nt, 10);
    }

    #[test]
    fn capacity_is_strict() {
        let cache = PlanCache::new(5);
        assert_eq!(cache.capacity(), 5);
        for nt in 0..100 {
            cache.insert(key(nt), dummy_plan(nt));
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
        // One shard of capacity 1..: force a tiny cache so eviction is
        // observable deterministically within a shard.
        let cache = PlanCache::new(1);
        cache.insert(key(1), dummy_plan(1));
        cache.insert(key(2), dummy_plan(2));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(2)).is_some(), "newest entry survives");
    }

    #[test]
    fn different_platforms_do_not_collide() {
        let cache = PlanCache::new(16);
        let k28 = PlanKey::new(Op::Potrf, 10, 500, &Platform::bora(28));
        let k36 = PlanKey::new(Op::Potrf, 10, 500, &Platform::bora(36));
        assert_ne!(k28, k36);
        cache.insert(k28, dummy_plan(10));
        assert!(cache.get(&k36).is_none());
        let slow = PlanKey::new(Op::Potrf, 10, 500, &Platform::bora_slow_network(28, 4.0));
        assert_ne!(k28.platform_fp, slow.platform_fp);
    }

    #[test]
    fn topology_fingerprint_separates_keys() {
        let cache = PlanCache::new(16);
        let flat = PlanKey::new(Op::Potrf, 10, 500, &Platform::bora(28));
        let mut racks = flat;
        racks.topology_fp = Platform::bora(28).rack_topology(2, 8.0).fingerprint();
        assert_ne!(flat, racks);
        cache.insert(flat, dummy_plan(10));
        assert!(cache.get(&racks).is_none());
    }
}

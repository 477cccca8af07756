//! A checkout/return pool of frame buffers: the allocation backstop of the
//! payload hot path.
//!
//! Every stream send encodes its frame into a [`PooledBuf`] checked out of
//! the transport's [`BufferPool`] instead of a fresh `Vec<u8>`. The sending
//! thread writes the buffer to the socket and drops it, returning it to the
//! pool with its capacity intact — so once the pool has warmed up to the
//! run's working set (one buffer per send in progress), a steady-state
//! payload send performs **zero fresh heap allocations**: `encode_into`
//! reuses the returned buffer's capacity.
//!
//! The pool keeps exact counters — [`PoolStats::hits`] (checkout served
//! from a returned buffer), [`PoolStats::misses`] (pool empty, fresh buffer
//! created) and [`PoolStats::outstanding`] (checked out, not yet returned).
//! A run whose `misses` plateau while `hits` grow is provably not
//! allocating on the send path; the `net.pool.*` metrics in `sbc-obs`
//! surface exactly these counters.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Free buffers retained by default; returns beyond this are dropped so a
/// burst cannot pin its high-water memory forever.
pub(crate) const DEFAULT_RETAIN: usize = 256;

/// A snapshot of a pool's checkout accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served by a previously returned buffer (no allocation).
    pub hits: u64,
    /// Checkouts that had to create a fresh buffer (pool was empty).
    pub misses: u64,
    /// Buffers currently checked out and not yet returned.
    pub outstanding: u64,
}

#[derive(Debug)]
struct PoolInner {
    free: Mutex<Vec<Vec<u8>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    outstanding: AtomicU64,
    retain: usize,
}

/// A shared pool of reusable byte buffers. Cloning is cheap and shares the
/// same pool; every [`StreamTransport`](crate::StreamTransport) owns one and
/// checks a buffer out of it per send.
#[derive(Debug, Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl Default for BufferPool {
    fn default() -> BufferPool {
        BufferPool::new(DEFAULT_RETAIN)
    }
}

impl BufferPool {
    /// A pool retaining at most `retain` free buffers.
    pub(crate) fn new(retain: usize) -> BufferPool {
        BufferPool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(Vec::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                outstanding: AtomicU64::new(0),
                retain,
            }),
        }
    }

    /// Checks out an empty buffer: a returned one when available (its
    /// capacity survives the round-trip — this is the zero-allocation
    /// path), otherwise a fresh empty `Vec`.
    pub fn checkout(&self) -> PooledBuf {
        let reused = self
            .inner
            .free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop();
        let buf = match reused {
            Some(mut b) => {
                b.clear();
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        };
        self.inner.outstanding.fetch_add(1, Ordering::Relaxed);
        PooledBuf {
            buf: Some(buf),
            pool: Arc::clone(&self.inner),
        }
    }

    /// Current checkout accounting.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            outstanding: self.inner.outstanding.load(Ordering::Relaxed),
        }
    }
}

/// A buffer on loan from a [`BufferPool`]. Dereferences to `Vec<u8>`; on
/// drop the buffer (capacity intact) returns to its pool, up to the pool's
/// retention cap.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Option<Vec<u8>>,
    pool: Arc<PoolInner>,
}

impl Deref for PooledBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        self.buf.as_ref().expect("buffer present until drop")
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.buf.as_mut().expect("buffer present until drop")
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let buf = self.buf.take().expect("dropped once");
        self.pool.outstanding.fetch_sub(1, Ordering::Relaxed);
        let mut free = self
            .pool
            .free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if free.len() < self.pool.retain {
            free.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_return_counts_hits_and_misses() {
        let pool = BufferPool::new(8);
        assert_eq!(pool.stats(), PoolStats::default());

        let mut a = pool.checkout();
        a.extend_from_slice(&[1, 2, 3]);
        assert_eq!(
            pool.stats(),
            PoolStats {
                hits: 0,
                misses: 1,
                outstanding: 1
            }
        );
        drop(a);
        assert_eq!(pool.stats().outstanding, 0);

        // the returned buffer comes back empty but with its capacity
        let b = pool.checkout();
        assert!(b.is_empty());
        assert!(b.capacity() >= 3, "capacity must survive the round-trip");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.outstanding), (1, 1, 1));
    }

    #[test]
    fn retention_cap_drops_excess_buffers() {
        let pool = BufferPool::new(2);
        let bufs: Vec<PooledBuf> = (0..5).map(|_| pool.checkout()).collect();
        assert_eq!(pool.stats().misses, 5);
        drop(bufs);
        // only two came back; the next three checkouts split 2 hits / 1 miss
        let _k: Vec<PooledBuf> = (0..3).map(|_| pool.checkout()).collect();
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (2, 6));
    }

    #[test]
    fn clones_share_one_pool() {
        let pool = BufferPool::new(8);
        let alias = pool.clone();
        drop(pool.checkout());
        let b = alias.checkout();
        assert_eq!(alias.stats().hits, 1);
        drop(b);
        assert_eq!(pool.stats().outstanding, 0);
    }

    /// The default retention cap evicts exactly at the 256 boundary: of a
    /// burst one past the cap, 256 buffers survive the round-trip and the
    /// 257th is freed, so re-checking out the burst splits 256 hits to
    /// 1 miss.
    #[test]
    fn default_retain_evicts_exactly_at_the_256_boundary() {
        let pool = BufferPool::default();
        let burst = DEFAULT_RETAIN + 1;
        let bufs: Vec<PooledBuf> = (0..burst).map(|_| pool.checkout()).collect();
        assert_eq!(pool.stats().misses, burst as u64);
        assert_eq!(pool.stats().outstanding, burst as u64);
        drop(bufs);
        assert_eq!(pool.stats().outstanding, 0);
        let again: Vec<PooledBuf> = (0..burst).map(|_| pool.checkout()).collect();
        let s = pool.stats();
        assert_eq!(
            s.hits, DEFAULT_RETAIN as u64,
            "every retained buffer must be reused"
        );
        assert_eq!(
            s.misses,
            burst as u64 + 1,
            "exactly the evicted one is re-created"
        );
        drop(again);
        // the free list is already at the cap: a full return cannot grow it
        let refill: Vec<PooledBuf> = (0..burst).map(|_| pool.checkout()).collect();
        let s = pool.stats();
        assert_eq!(s.hits, 2 * DEFAULT_RETAIN as u64);
        assert_eq!(s.misses, burst as u64 + 2);
        drop(refill);
    }

    /// Hammering one pool from many threads keeps the counters exact:
    /// every checkout is a hit or a miss, and once all loans are dropped
    /// nothing is outstanding.
    #[test]
    fn concurrent_checkout_and_drop_keep_counters_consistent() {
        let pool = BufferPool::new(4);
        const THREADS: usize = 8;
        const PER_THREAD: usize = 200;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let pool = pool.clone();
                s.spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..PER_THREAD {
                        let mut b = pool.checkout();
                        b.push(t as u8);
                        // vary the loan lifetime so returns interleave
                        // with checkouts on other threads
                        if i % 3 == 0 {
                            held.push(b);
                        }
                        if held.len() > 4 {
                            held.clear();
                        }
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.outstanding, 0, "all loans were dropped");
        assert_eq!(s.hits + s.misses, (THREADS * PER_THREAD) as u64);
        assert!(s.hits > 0, "concurrent returns must be reused");
    }
}

//! A lock-free sliding-window event rate.
//!
//! `Service::jobs_per_sec` used to divide completed jobs by wall-clock
//! since start, so a service idle overnight reported a near-zero rate
//! forever. [`RateWindow`] instead remembers the timestamps of the newest
//! `slots` events in a fixed ring of atomics and reports
//! `events-in-window / window`, so the rate decays to zero a window after
//! traffic stops and recovers instantly when it resumes. Both
//! [`RateWindow::record`] and [`RateWindow::rate`] are a handful of relaxed
//! atomic operations — no lock is shared with anything.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sentinel for a ring slot that has never held an event.
const EMPTY: u64 = u64::MAX;

/// A fixed ring of event timestamps supporting lock-free windowed rates.
///
/// The ring holds the newest `slots` events; a window that saw more events
/// than `slots` under-counts (the rate saturates at `slots / window`), so
/// size the ring for the highest rate worth distinguishing.
pub struct RateWindow {
    started: Instant,
    head: AtomicU64,
    ring: Vec<AtomicU64>,
}

impl RateWindow {
    /// A window remembering the newest `slots` events (`slots >= 1`).
    pub fn new(slots: usize) -> RateWindow {
        RateWindow {
            started: Instant::now(),
            head: AtomicU64::new(0),
            ring: (0..slots.max(1)).map(|_| AtomicU64::new(EMPTY)).collect(),
        }
    }

    fn now_nanos(&self) -> u64 {
        // ~584 years of range: no wrap concern
        self.started.elapsed().as_nanos() as u64
    }

    /// Records one event now.
    pub fn record(&self) {
        self.record_at(self.now_nanos());
    }

    fn record_at(&self, t: u64) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.ring.len();
        self.ring[idx].store(t, Ordering::Relaxed);
    }

    fn count_at(&self, now: u64, window: u64) -> u64 {
        let cutoff = now.saturating_sub(window);
        self.ring
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|&t| t != EMPTY && t >= cutoff && t <= now)
            .count() as u64
    }

    /// Events per second over the trailing `window`. Early in the window's
    /// life — before a full `window` has elapsed — the divisor is the time
    /// since creation, so a burst right after start is not diluted.
    pub fn rate(&self, window: Duration) -> f64 {
        self.rate_at(self.now_nanos(), window.as_nanos() as u64)
    }

    fn rate_at(&self, now: u64, window: u64) -> f64 {
        let span = now.min(window);
        if span == 0 {
            return 0.0;
        }
        self.count_at(now, window) as f64 / (span as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn rate_counts_only_events_inside_the_window() {
        let w = RateWindow::new(16);
        for t in [1, 2, 3, 10, 11] {
            w.record_at(t * SEC);
        }
        // at t = 12s with a 3s window only t = 10, 11 qualify
        assert_eq!(w.count_at(12 * SEC, 3 * SEC), 2);
        let r = w.rate_at(12 * SEC, 3 * SEC);
        assert!((r - 2.0 / 3.0).abs() < 1e-12, "{r}");
        // a window after the last event the rate is zero
        assert_eq!(w.rate_at(30 * SEC, 3 * SEC), 0.0);
        assert_eq!(w.head.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn young_window_divides_by_elapsed_not_window() {
        let w = RateWindow::new(8);
        w.record_at(SEC / 2);
        w.record_at(SEC);
        // 2 events in the first second of a 30s window: 2/s, not 2/30
        let r = w.rate_at(SEC, 30 * SEC);
        assert!((r - 2.0).abs() < 1e-12, "{r}");
        // and exactly at t = 0 there is nothing to divide by
        assert_eq!(RateWindow::new(4).rate_at(0, SEC), 0.0);
    }

    #[test]
    fn ring_saturates_at_slot_count() {
        let w = RateWindow::new(4);
        for t in 1..=10u64 {
            w.record_at(t);
        }
        assert_eq!(w.count_at(10, SEC), 4, "only the newest 4 survive");
        assert_eq!(w.head.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn live_clock_path_works() {
        let w = RateWindow::new(32);
        for _ in 0..5 {
            w.record();
        }
        assert_eq!(w.count_at(w.now_nanos(), 3600 * SEC), 5);
        assert!(w.rate(Duration::from_secs(3600)) > 0.0);
    }

    #[test]
    fn concurrent_records_all_land() {
        let w = RateWindow::new(1024);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        w.record();
                    }
                });
            }
        });
        assert_eq!(w.head.load(Ordering::Relaxed), 400);
        assert_eq!(w.count_at(w.now_nanos(), 3600 * SEC), 400);
    }
}

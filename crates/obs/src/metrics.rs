//! A small metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! Instruments are handed out as `Arc`s by the [`Metrics`] registry;
//! registration takes a lock, updates are lock-free atomics, and
//! [`Metrics::snapshot`] freezes everything into a plain
//! [`MetricsSnapshot`] that renders as an aligned text report. No external
//! dependency, no background thread, no global state.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An `f64` stored in an `AtomicU64` (bit-cast), updated with CAS loops.
#[derive(Debug, Default)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }
    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
    fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }
    fn update(&self, f: impl Fn(f64) -> f64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some(f(f64::from_bits(bits)).to_bits())
            });
    }
}

/// A monotonically increasing integer.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }
    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins floating-point sample that also remembers its maximum.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicF64,
    max: AtomicF64,
}

impl Gauge {
    /// Sets the current value (and raises the running maximum).
    pub fn set(&self, v: f64) {
        self.value.set(v);
        self.max.update(|m| m.max(v));
    }
    /// Last set value.
    pub(crate) fn get(&self) -> f64 {
        self.value.get()
    }
    /// Largest value ever set.
    pub(crate) fn max(&self) -> f64 {
        self.max.get()
    }
}

/// A histogram with fixed bucket upper bounds (plus an overflow bucket).
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing. A value `v` lands in
    /// the first bucket with `v <= bound`, or in the overflow bucket.
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicF64,
    min: AtomicF64,
    max: AtomicF64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicF64::new(0.0),
            min: AtomicF64::new(f64::INFINITY),
            max: AtomicF64::new(f64::NEG_INFINITY),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.update(|s| s + v);
        self.min.update(|m| m.min(v));
        self.max.update(|m| m.max(v));
    }

    /// Number of observations so far.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Plain-data copy of the current state.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count,
            sum: self.sum.get(),
            min: if count == 0 { 0.0 } else { self.min.get() },
            max: if count == 0 { 0.0 } else { self.max.get() },
        }
    }
}

/// Frozen histogram state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (the final bucket is the overflow `> last`).
    pub bounds: Vec<f64>,
    /// Observation count per bucket (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The registry: names to instruments. Get-or-register semantics, so two
/// components asking for the same name share the instrument.
#[derive(Default)]
pub struct Metrics {
    by_name: Mutex<BTreeMap<String, Instrument>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter `name`, registering it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different instrument
    /// kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.by_name.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::default())))
        {
            Instrument::Counter(c) => c.clone(),
            _ => panic!("metric '{name}' is not a counter"),
        }
    }

    /// The gauge `name`, registering it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different instrument
    /// kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.by_name.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::default())))
        {
            Instrument::Gauge(g) => g.clone(),
            _ => panic!("metric '{name}' is not a gauge"),
        }
    }

    /// The histogram `name` with the given bucket bounds, registering it on
    /// first use (later calls may pass any bounds; the first registration
    /// wins).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different instrument
    /// kind, or if `bounds` is not strictly increasing.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = self.by_name.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Instrument::Histogram(h) => h.clone(),
            _ => panic!("metric '{name}' is not a histogram"),
        }
    }

    /// Freezes every instrument into a plain snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.by_name.lock();
        let mut snap = MetricsSnapshot::default();
        for (name, inst) in map.iter() {
            match inst {
                Instrument::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Instrument::Gauge(g) => snap.gauges.push((name.clone(), g.get(), g.max())),
                Instrument::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap
    }
}

/// Frozen registry state: plain data, cheap to clone, easy to assert on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, last, max)` for every gauge, name-sorted.
    pub gauges: Vec<(String, f64, f64)>,
    /// `(name, state)` for every histogram, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Snapshot of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The change from `earlier` to `self`, for rate computation between
    /// two scrapes.
    ///
    /// Counters and histogram buckets/counts/sums are differenced
    /// (saturating at zero, so a restarted registry reads as a fresh
    /// start rather than a negative rate); a counter absent from `earlier`
    /// contributes its full value. Gauges are instantaneous, not
    /// cumulative, so the newer last/max pass through unchanged. Histogram
    /// `min`/`max` likewise pass through (the registry does not remember
    /// per-interval extrema). A histogram whose bucket layout changed
    /// between the snapshots also passes through unchanged.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (name, v) in &mut out.counters {
            if let Some(prev) = earlier.counter(name) {
                *v = v.saturating_sub(prev);
            }
        }
        for (name, h) in &mut out.histograms {
            let Some(prev) = earlier.histogram(name) else {
                continue;
            };
            if prev.bounds != h.bounds || prev.buckets.len() != h.buckets.len() {
                continue;
            }
            for (b, pb) in h.buckets.iter_mut().zip(&prev.buckets) {
                *b = b.saturating_sub(*pb);
            }
            h.count = h.count.saturating_sub(prev.count);
            h.sum = (h.sum - prev.sum).max(0.0);
        }
        out
    }

    /// Renders the snapshot as an aligned text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<32} {v:>12}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges (last / max):\n");
            for (name, last, max) in &self.gauges {
                out.push_str(&format!("  {name:<32} {last:>12.3} / {max:.3}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<32} count = {:<8} mean = {:<12.3e} min = {:<12.3e} max = {:.3e}\n",
                    h.count,
                    h.mean(),
                    h.min,
                    h.max
                ));
                let peak = h.buckets.iter().copied().max().unwrap_or(0);
                if peak == 0 {
                    continue;
                }
                for (i, &c) in h.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    let label = if i < h.bounds.len() {
                        format!("<= {:.1e}", h.bounds[i])
                    } else {
                        format!("> {:.1e}", h.bounds.last().copied().unwrap_or(0.0))
                    };
                    let bar = "#".repeat((c * 40).div_ceil(peak) as usize);
                    out.push_str(&format!("    {label:<12} {c:>10} {bar}\n"));
                }
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics registered)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let m = Metrics::new();
        m.counter("msgs").add(3);
        m.counter("msgs").inc();
        m.gauge("depth").set(5.0);
        m.gauge("depth").set(2.0);
        let s = m.snapshot();
        assert_eq!(s.counter("msgs"), Some(4));
        assert_eq!(s.gauges, vec![("depth".to_string(), 2.0, 5.0)]);
        assert_eq!(s.counter("absent"), None);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let m = Metrics::new();
        let h = m.histogram("lat", &[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        let s = m.snapshot();
        let hs = s.histogram("lat").unwrap();
        assert_eq!(hs.buckets, vec![1, 2, 1, 1]);
        assert_eq!(hs.count, 5);
        assert_eq!(hs.min, 0.5);
        assert_eq!(hs.max, 500.0);
        assert!((hs.mean() - 112.1).abs() < 1e-9);
        let report = s.render();
        assert!(report.contains("lat"), "{report}");
        assert!(report.contains("count = 5"), "{report}");
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let m = Metrics::new();
        let h = m.histogram("h", &[0.5]);
        let c = m.counter("c");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        h.observe((i % 2) as f64);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        let hs = h.snapshot();
        assert_eq!(hs.count, 4000);
        assert_eq!(hs.buckets, vec![2000, 2000]);
        assert_eq!(hs.sum, 2000.0);
    }

    #[test]
    fn delta_differences_counters_and_histograms() {
        let m = Metrics::new();
        let c = m.counter("jobs");
        let h = m.histogram("lat", &[1.0, 10.0]);
        c.add(3);
        h.observe(0.5);
        h.observe(5.0);
        m.gauge("depth").set(7.0);
        let before = m.snapshot();
        c.add(4);
        h.observe(0.5);
        h.observe(50.0);
        m.gauge("depth").set(2.0);
        m.counter("fresh").inc();
        let after = m.snapshot();

        let d = after.delta(&before);
        assert_eq!(d.counter("jobs"), Some(4));
        assert_eq!(d.counter("fresh"), Some(1), "new counters pass through");
        let dh = d.histogram("lat").unwrap();
        assert_eq!(dh.buckets, vec![1, 0, 1]);
        assert_eq!(dh.count, 2);
        assert!((dh.sum - 50.5).abs() < 1e-9);
        // gauges are instantaneous: the newer values pass through
        assert_eq!(d.gauges, vec![("depth".to_string(), 2.0, 7.0)]);
        // a "shrinking" counter (registry restart) saturates at zero
        assert_eq!(before.delta(&after).counter("jobs"), Some(0));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn mismatched_kind_panics() {
        let m = Metrics::new();
        m.gauge("x");
        m.counter("x");
    }
}

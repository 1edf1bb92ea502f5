//! Metric instruments keyed by static name + label set, behind a
//! lock-cheap sharded registry.
//!
//! * [`Counter`] / [`Gauge`] are lock-free atomics once obtained — clone
//!   the handle into `hfl-parallel` workers and increment freely.
//! * [`Histogram`] stores exact samples behind a short mutex, so
//!   percentiles are exact and deterministic (no bucket approximation;
//!   the workloads observe thousands of samples per run, not millions).
//! * [`Registry::snapshot`] returns samples sorted by `(name, labels)`,
//!   making every export byte-deterministic regardless of registration
//!   or hashing order.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// Number of independently locked registry shards.
const SHARDS: usize = 16;

/// Identity of an instrument: a static name plus an ordered label set.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (static: instrumentation sites name metrics in code).
    pub name: &'static str,
    /// Label pairs, in the order given at registration.
    pub labels: Vec<(&'static str, String)>,
}

impl MetricKey {
    fn new(name: &'static str, labels: &[(&'static str, &str)]) -> Self {
        Self {
            name,
            labels: labels.iter().map(|(k, v)| (*k, v.to_string())).collect(),
        }
    }

    /// Renders the label set as `k1=v1,k2=v2` (empty string when bare).
    pub fn labels_string(&self) -> String {
        self.labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// A monotone counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    pub fn inc(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins float gauge.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Default)]
struct HistogramInner {
    samples: Vec<f64>,
}

/// An exact-sample histogram.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<Mutex<HistogramInner>>);

impl Histogram {
    /// The sample store. Like every lock in this module it recovers a
    /// poisoned guard: the data behind it is only ever pushed to or
    /// read, so a worker that panicked while holding the lock leaves it
    /// valid, and must not take the registry down with it.
    fn inner(&self) -> MutexGuard<'_, HistogramInner> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one observation (NaN is rejected: it would poison every
    /// percentile silently).
    pub fn observe(&self, v: f64) {
        assert!(!v.is_nan(), "histogram observation must not be NaN");
        self.inner().samples.push(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner().samples.len() as u64
    }

    /// Sum of observations (0 when empty).
    pub fn sum(&self) -> f64 {
        self.inner().samples.iter().sum()
    }

    /// The `p`-th percentile (nearest-rank over the sorted samples), or
    /// `None` when empty.
    ///
    /// # Panics
    /// If `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        let inner = self.inner();
        if inner.samples.is_empty() {
            return None;
        }
        let mut sorted = inner.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN rejected at observe"));
        // Nearest-rank: the smallest sample with at least ⌈p/100·n⌉
        // samples at or below it.
        let n = sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(sorted[rank.max(1) - 1])
    }

    /// `(count, sum, min, max, p50, p90, p99)` in one lock acquisition —
    /// the snapshot shape exported to manifests.
    pub fn stats(&self) -> HistogramStats {
        let inner = self.inner();
        if inner.samples.is_empty() {
            return HistogramStats::default();
        }
        let mut sorted = inner.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN rejected at observe"));
        let n = sorted.len();
        let rank = |p: f64| sorted[(((p / 100.0) * n as f64).ceil() as usize).max(1) - 1];
        HistogramStats {
            count: n as u64,
            sum: sorted.iter().sum(),
            min: sorted[0],
            max: sorted[n - 1],
            p50: rank(50.0),
            p90: rank(90.0),
            p99: rank(99.0),
        }
    }
}

/// Summary statistics of a histogram at snapshot time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramStats {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Minimum observation (0 when empty).
    pub min: f64,
    /// Maximum observation (0 when empty).
    pub max: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

#[derive(Clone, Debug)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// The value of one metric at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram summary.
    Histogram(HistogramStats),
}

/// One `(name, labels, value)` row of a registry snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSample {
    /// Metric name.
    pub name: String,
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// The observed value.
    pub value: MetricValue,
}

/// The sharded instrument registry. Lookup takes one shard read-lock in
/// the common (already-registered) case; the returned handles are then
/// entirely lock-free (counters/gauges) or single-mutex (histograms).
#[derive(Debug, Default)]
pub struct Registry {
    shards: Vec<RwLock<HashMap<MetricKey, Slot>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &MetricKey) -> &RwLock<HashMap<MetricKey, Slot>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn get_or_insert(&self, key: MetricKey, make: impl FnOnce() -> Slot) -> Slot {
        let shard = self.shard(&key);
        if let Some(slot) = shard
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return slot.clone();
        }
        let mut map = shard.write().unwrap_or_else(PoisonError::into_inner);
        map.entry(key).or_insert_with(make).clone()
    }

    /// The counter named `name` with `labels`, registering it on first
    /// use.
    ///
    /// # Panics
    /// If the key is already registered as a different instrument kind.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        match self.get_or_insert(key, || {
            Slot::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Slot::Counter(c) => c,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// The gauge named `name` with `labels`, registering it on first use.
    ///
    /// # Panics
    /// If the key is already registered as a different instrument kind.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        match self.get_or_insert(key, || {
            Slot::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
        }) {
            Slot::Gauge(g) => g,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// The histogram named `name` with `labels`, registering it on first
    /// use.
    ///
    /// # Panics
    /// If the key is already registered as a different instrument kind.
    pub fn histogram(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Histogram {
        let key = MetricKey::new(name, labels);
        match self.get_or_insert(key, || {
            Slot::Histogram(Histogram(Arc::new(Mutex::new(HistogramInner::default()))))
        }) {
            Slot::Histogram(h) => h,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Every registered metric, sorted by `(name, labels)` — the
    /// deterministic export order.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let mut rows: Vec<(MetricKey, Slot)> = Vec::new();
        for shard in &self.shards {
            for (key, slot) in shard.read().unwrap_or_else(PoisonError::into_inner).iter() {
                rows.push((key.clone(), slot.clone()));
            }
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows.into_iter()
            .map(|(key, slot)| MetricSample {
                name: key.name.to_string(),
                labels: key
                    .labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
                value: match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.get()),
                    Slot::Gauge(g) => MetricValue::Gauge(g.get()),
                    Slot::Histogram(h) => MetricValue::Histogram(h.stats()),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let r = Registry::new();
        let a = r.counter("msgs_total", &[("level", "1")]);
        let b = r.counter("msgs_total", &[("level", "1")]);
        a.inc(3);
        b.inc(4);
        assert_eq!(a.get(), 7);
        // Different label set = different instrument.
        let c = r.counter("msgs_total", &[("level", "2")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_last_write_wins() {
        let r = Registry::new();
        let g = r.gauge("accuracy", &[]);
        g.set(0.5);
        g.set(0.9);
        assert_eq!(g.get(), 0.9);
    }

    #[test]
    fn histogram_percentiles_are_exact() {
        let r = Registry::new();
        let h = r.histogram("latency_us", &[]);
        // 1..=100 in scrambled order: percentiles are exactly the ranks.
        for i in (1..=100u32).rev() {
            h.observe(f64::from(i));
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(50.0), Some(50.0));
        assert_eq!(h.percentile(90.0), Some(90.0));
        assert_eq!(h.percentile(99.0), Some(99.0));
        assert_eq!(h.percentile(100.0), Some(100.0));
        assert_eq!(h.percentile(0.0), Some(1.0));
        let s = h.stats();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50.0);
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let r = Registry::new();
        let h = r.histogram("empty", &[]);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.stats(), HistogramStats::default());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_collision_panics() {
        let r = Registry::new();
        r.counter("x", &[]);
        r.gauge("x", &[]);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("z_total", &[]).inc(1);
        r.counter("a_total", &[("k", "v")]).inc(2);
        r.gauge("m_gauge", &[]).set(1.5);
        r.histogram("h_hist", &[]).observe(2.0);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a_total", "h_hist", "m_gauge", "z_total"]);
        assert_eq!(snap[0].value, MetricValue::Counter(2));
        assert_eq!(snap[0].labels, vec![("k".to_string(), "v".to_string())]);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let r = std::sync::Arc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    let c = r.counter("spin_total", &[]);
                    for _ in 0..10_000 {
                        c.inc(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("spin_total", &[]).get(), 80_000);
    }
}

//! The metrics registry: monotonic counters, gauges and log₂-bucketed
//! histograms addressed by [`MetricId`]s.
//!
//! Metrics are the *always-on* half of the observability substrate (spans
//! and events — the [`trace`](crate::trace) half — are gated behind the
//! [`Recorder`](crate::trace::Recorder)): an update is one or two relaxed
//! atomic operations, cheap enough to live on the dynamic decomposer's
//! per-update fast path. The registry replaces the bespoke stats structs
//! that used to be smeared across the workspace (`PipelineStats` timing
//! fields, `OocStats` residency accounting, `BuildStats` phase nanos, the
//! server's per-tenant counters): the structs remain as report-carried
//! values, but every quantity is now also a typed, queryable metric.
//!
//! Instrumentation sites address metrics through the `Lazy*` handles,
//! which register on first touch and cache the resolved handle — the hot
//! path never takes the registry lock:
//!
//! ```
//! use forest_obs::metrics::LazyCounter;
//! static SPILLS: LazyCounter = LazyCounter::new("extsort.spilled_runs_total");
//! SPILLS.add(3);
//! assert!(SPILLS.value() >= 3);
//! ```
//!
//! Naming scheme: `layer.quantity[_unit][_total]`, lowercase, dot-separated
//! layers — e.g. `ooc.peak_resident_bytes`, `dynamic.apply_nanos`,
//! `serve.requests_total`. Exports sanitize the dots for prometheus.
//!
//! Snapshots are deterministic: [`Registry::snapshot`] lists metrics in
//! name order (a `BTreeMap` index — never hash-iteration order), and
//! [`HistogramSnapshot::merge`] is associative and commutative, so
//! shard-local observations can be combined in any grouping (proptested).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Number of log₂ buckets a histogram carries: bucket 0 counts zero
/// observations, bucket `i ≥ 1` counts values in `[2^(i-1), 2^i)`, with
/// the top bucket absorbing everything above.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// What a metric is. The kind is fixed at registration; re-registering a
/// name with a different kind panics (an instrumentation bug, not input).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing `u64`.
    Counter,
    /// Last-write-wins `u64`.
    Gauge,
    /// log₂-bucketed distribution with count and sum.
    Histogram,
}

/// A registry-scoped metric handle: the index of the metric in its
/// registry, stable for the registry's lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId(u32);

impl MetricId {
    /// The raw index (dense from 0 in registration order).
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// The shared storage behind one metric.
#[derive(Debug)]
struct MetricCore {
    name: &'static str,
    kind: MetricKind,
    id: MetricId,
    /// Counter/gauge value; histograms keep it 0.
    value: AtomicU64,
    /// Histogram state; `None` for counters and gauges.
    hist: Option<HistogramCore>,
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The log₂ bucket a value lands in.
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        let b = 64 - value.leading_zeros() as usize;
        b.min(HISTOGRAM_BUCKETS - 1)
    }
}

/// A monotonic counter handle (cheap to clone; all clones share storage).
#[derive(Clone, Debug)]
pub struct Counter(Arc<MetricCore>);

impl Counter {
    /// Adds `delta` (relaxed; counters only ever grow).
    pub fn add(&self, delta: u64) {
        self.0.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// This counter's id in its registry.
    pub fn id(&self) -> MetricId {
        self.0.id
    }
}

/// A gauge handle.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<MetricCore>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: u64) {
        self.0.value.store(value, Ordering::Relaxed);
    }

    /// Raises the gauge to `value` if it is higher than the current
    /// reading (a high-watermark update, e.g. peak resident bytes).
    pub fn set_max(&self, value: u64) {
        self.0.value.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// This gauge's id in its registry.
    pub fn id(&self) -> MetricId {
        self.0.id
    }
}

/// A histogram handle.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<MetricCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let h = self.0.hist.as_ref().expect("histogram core present");
        h.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the current state (buckets are read
    /// individually; concurrent observers may land between reads — fine
    /// for observability).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = self.0.hist.as_ref().expect("histogram core present");
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
            count: h.count.load(Ordering::Relaxed),
            sum: h.sum.load(Ordering::Relaxed),
        }
    }

    /// This histogram's id in its registry.
    pub fn id(&self) -> MetricId {
        self.0.id
    }
}

/// An owned copy of a histogram's state — the mergeable value type
/// cross-thread and cross-shard aggregation works over.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_of`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Merges `other` into `self`. Associative and commutative (bucket-wise
    /// addition), so any grouping of per-thread snapshots agrees —
    /// proptested in the crate tests.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.wrapping_add(*o);
        }
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One metric's state at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSnapshot {
    /// The registered name.
    pub name: &'static str,
    /// The registered id.
    pub id: MetricId,
    /// Counter or gauge reading; for histograms, the sum.
    pub value: u64,
    /// The kind, with histogram detail.
    pub detail: MetricDetail,
}

/// Kind-specific snapshot detail.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricDetail {
    /// A counter reading.
    Counter,
    /// A gauge reading.
    Gauge,
    /// A histogram's full state (boxed: the bucket array dwarfs the
    /// dataless counter/gauge variants).
    Histogram(Box<HistogramSnapshot>),
}

impl MetricSnapshot {
    /// The metric's kind.
    pub fn kind(&self) -> MetricKind {
        match self.detail {
            MetricDetail::Counter => MetricKind::Counter,
            MetricDetail::Gauge => MetricKind::Gauge,
            MetricDetail::Histogram(_) => MetricKind::Histogram,
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    metrics: Vec<Arc<MetricCore>>,
    by_name: BTreeMap<&'static str, u32>,
}

/// A metrics registry. Instantiable (the server keeps per-tenant
/// instances); most instrumentation uses the process-global one through
/// the `Lazy*` handles.
#[derive(Debug, Default)]
pub struct Registry {
    inner: RwLock<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-global registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn register(&self, name: &'static str, kind: MetricKind) -> Arc<MetricCore> {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&idx) = inner.by_name.get(name) {
            let existing = Arc::clone(&inner.metrics[idx as usize]);
            assert_eq!(
                existing.kind, kind,
                "metric `{name}` registered twice with different kinds"
            );
            return existing;
        }
        let idx = u32::try_from(inner.metrics.len()).expect("fewer than 2^32 metrics");
        let core = Arc::new(MetricCore {
            name,
            kind,
            id: MetricId(idx),
            value: AtomicU64::new(0),
            hist: matches!(kind, MetricKind::Histogram).then(HistogramCore::new),
        });
        inner.metrics.push(Arc::clone(&core));
        inner.by_name.insert(name, idx);
        core
    }

    /// Registers (or finds) a counter.
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter(self.register(name, MetricKind::Counter))
    }

    /// Registers (or finds) a gauge.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        Gauge(self.register(name, MetricKind::Gauge))
    }

    /// Registers (or finds) a histogram.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        Histogram(self.register(name, MetricKind::Histogram))
    }

    /// `true` if `id` names a registered metric.
    pub fn contains(&self, id: MetricId) -> bool {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        id.index() < inner.metrics.len()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        inner.metrics.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of the metric named `name`, if registered (counter/gauge
    /// reading; histogram sum).
    #[cfg(test)]
    fn value_of(&self, name: &str) -> Option<u64> {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let &idx = inner.by_name.get(name)?;
        let core = &inner.metrics[idx as usize];
        Some(match &core.hist {
            Some(h) => h.sum.load(Ordering::Relaxed),
            None => core.value.load(Ordering::Relaxed),
        })
    }

    /// Every metric's current state, in **name order** (deterministic — the
    /// index is a `BTreeMap`, never a hash map).
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        inner
            .by_name
            .values()
            .map(|&idx| {
                let core = &inner.metrics[idx as usize];
                match &core.hist {
                    Some(h) => {
                        let snap = HistogramSnapshot {
                            buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
                            count: h.count.load(Ordering::Relaxed),
                            sum: h.sum.load(Ordering::Relaxed),
                        };
                        MetricSnapshot {
                            name: core.name,
                            id: core.id,
                            value: snap.sum,
                            detail: MetricDetail::Histogram(Box::new(snap)),
                        }
                    }
                    None => MetricSnapshot {
                        name: core.name,
                        id: core.id,
                        value: core.value.load(Ordering::Relaxed),
                        detail: match core.kind {
                            MetricKind::Counter => MetricDetail::Counter,
                            _ => MetricDetail::Gauge,
                        },
                    },
                }
            })
            .collect()
    }
}

/// A lazily-registered counter for `static` instrumentation sites: the
/// first touch registers against the global registry; after that the hot
/// path is one `OnceLock` load plus the atomic add.
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Counter>,
}

impl LazyCounter {
    /// A handle for `name` (registers on first use).
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The resolved handle.
    pub fn get(&self) -> &Counter {
        self.cell
            .get_or_init(|| Registry::global().counter(self.name))
    }

    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.get().add(delta);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.get().inc();
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.get().value()
    }

    /// The registered id.
    pub fn id(&self) -> MetricId {
        self.get().id()
    }
}

/// [`LazyCounter`], for gauges.
#[derive(Debug)]
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<Gauge>,
}

impl LazyGauge {
    /// A handle for `name` (registers on first use).
    pub const fn new(name: &'static str) -> LazyGauge {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The resolved handle.
    pub fn get(&self) -> &Gauge {
        self.cell
            .get_or_init(|| Registry::global().gauge(self.name))
    }

    /// Sets the gauge.
    pub fn set(&self, value: u64) {
        self.get().set(value);
    }

    /// High-watermark update.
    pub fn set_max(&self, value: u64) {
        self.get().set_max(value);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.get().value()
    }

    /// The registered id.
    pub fn id(&self) -> MetricId {
        self.get().id()
    }
}

/// [`LazyCounter`], for histograms.
#[derive(Debug)]
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<Histogram>,
}

impl LazyHistogram {
    /// A handle for `name` (registers on first use).
    pub const fn new(name: &'static str) -> LazyHistogram {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The resolved handle.
    pub fn get(&self) -> &Histogram {
        self.cell
            .get_or_init(|| Registry::global().histogram(self.name))
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.get().observe(value);
    }

    /// The registered id.
    pub fn id(&self) -> MetricId {
        self.get().id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once() {
        let reg = Registry::new();
        let a = reg.counter("t.counter");
        let b = reg.counter("t.counter");
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
        assert_eq!(a.id(), b.id());
        let g = reg.gauge("t.gauge");
        g.set(7);
        g.set_max(3);
        assert_eq!(g.value(), 7);
        g.set_max(11);
        assert_eq!(g.value(), 11);
        assert_eq!(reg.len(), 2);
        assert!(reg.contains(a.id()));
        assert_eq!(reg.value_of("t.counter"), Some(5));
        assert_eq!(reg.value_of("t.missing"), None);
    }

    #[test]
    fn snapshot_is_name_ordered() {
        let reg = Registry::new();
        reg.counter("z.last");
        reg.counter("a.first");
        reg.histogram("m.mid");
        let names: Vec<_> = reg.snapshot().iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let reg = Registry::new();
        let h = reg.histogram("t.hist");
        for v in [0u64, 1, 3, 1024] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 1028);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[2], 1);
        assert_eq!(snap.buckets[11], 1);
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        reg.counter("t.conflict");
        reg.gauge("t.conflict");
    }

    #[test]
    fn lazy_handles_share_the_global_registry() {
        static C: LazyCounter = LazyCounter::new("test.metrics.lazy_total");
        C.inc();
        C.add(4);
        assert!(C.value() >= 5);
        assert!(Registry::global().contains(C.id()));
        assert_eq!(
            Registry::global().value_of("test.metrics.lazy_total"),
            Some(C.value())
        );
    }
}

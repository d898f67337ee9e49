#![warn(missing_docs)]

//! Unified observability for the KIFF stack: atomic instruments, phase
//! timers, and machine-readable exporters — with no external
//! dependencies.
//!
//! The paper's central claims are *cost-accounting* claims (KIFF wins
//! because it evaluates fewer similarities per unit of recall), and the
//! serving-oriented layers add latency claims on top. This crate gives
//! every layer one shared vocabulary for both:
//!
//! * [`Counter`] — a monotonically increasing `u64` (relaxed atomics).
//! * [`Gauge`] — a settable `i64` level (queue depths, shard sizes).
//! * [`Histogram`] — a log-scaled fixed-bucket latency/size distribution
//!   with lock-free recording and `p50`/`p95`/`p99`/`max` readout.
//! * [`Span`] — an RAII phase timer recording wall-clock nanoseconds
//!   into a histogram on drop.
//! * [`Registry`] — a thread-safe, cloneable collection of named
//!   instruments with a [`Registry::snapshot`] readout feeding the
//!   [`export`] module (JSON / Prometheus text) and the pretty-printed
//!   [`TelemetryReport`].
//!
//! # Cost model
//!
//! Recording is wait-free: one relaxed load of the registry's enabled
//! flag, then (when enabled) one or two relaxed RMW operations. A
//! *disabled* registry costs exactly the one relaxed load per record
//! call, so instrumented hot loops can stay instrumented in release
//! builds. Instrument *lookup* ([`Registry::counter`] and friends) takes
//! a mutex: resolve handles once, outside the loop, and clone them into
//! workers (handles share their cells through `Arc`).
//!
//! ```
//! use kiff_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let sims = registry.counter("core.refine.sims");
//! let lat = registry.histogram("online.repair_ns");
//! sims.add(3);
//! lat.record(1_500);
//! {
//!     let _span = lat.span(); // records elapsed nanos on drop
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("core.refine.sims"), Some(3));
//! assert_eq!(snap.histogram("online.repair_ns").unwrap().count, 2);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod export;
mod report;

pub use export::MetricsFormat;
pub use report::TelemetryReport;

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i - 1]`, up to bucket 64 for the top of
/// the `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket a value lands in (`0` for `0`, else `64 - leading_zeros`).
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest value bucket `index` covers (its inclusive upper bound);
/// quantile readouts report this bound, so an estimate is never below
/// the exact quantile's bucket.
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A monotonically increasing counter.
///
/// Cloning shares the underlying cell; all operations are relaxed
/// atomics. A detached counter ([`Counter::default`]) is permanently
/// disabled and drops every increment.
#[derive(Debug, Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    cell: Arc<AtomicU64>,
}

impl Default for Counter {
    fn default() -> Self {
        Self {
            enabled: Arc::new(AtomicBool::new(false)),
            cell: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Counter {
    /// Adds `n` (dropped while the owning registry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A settable level (may go up or down): queue depths, shard sizes.
#[derive(Debug, Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    cell: Arc<AtomicI64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            enabled: Arc::new(AtomicBool::new(false)),
            cell: Arc::new(AtomicI64::new(0)),
        }
    }
}

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, value: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.store(value, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Raises the gauge by `delta` and returns a guard that lowers it
    /// back on drop — the RAII form of an `add(d)` / `add(-d)` pair, so
    /// every exit path (early returns, `?`, panics that unwind) restores
    /// the level. Use for occupancy-style gauges (`serve.queue_depth`)
    /// where a leaked increment would read as a phantom stuck request.
    #[inline]
    pub fn raise(&self, delta: i64) -> GaugeGuard {
        self.add(delta);
        GaugeGuard {
            gauge: self.clone(),
            delta,
        }
    }
}

/// Lowers the owning [`Gauge`] by the raised delta on drop; returned by
/// [`Gauge::raise`].
#[derive(Debug)]
pub struct GaugeGuard {
    gauge: Gauge,
    delta: i64,
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.gauge.add(-self.delta);
    }
}

/// Shared cells of one histogram.
#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCells {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log-scaled fixed-bucket distribution.
///
/// Recording is lock-free (three relaxed RMWs plus a `fetch_max`); the
/// quantile readout walks the 65 buckets and reports the inclusive
/// upper bound of the bucket the requested rank falls in, so an
/// estimate is always in the *same* bucket as the exact order
/// statistic. Cloning shares the cells.
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    cells: Arc<HistogramCells>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            enabled: Arc::new(AtomicBool::new(false)),
            cells: Arc::new(HistogramCells::new()),
        }
    }
}

impl Histogram {
    /// Records one observation (dropped while the registry is disabled).
    #[inline]
    pub fn record(&self, value: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let cells = &*self.cells;
        cells.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(value, Ordering::Relaxed);
        cells.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Starts a [`Span`] recording elapsed nanoseconds into this
    /// histogram when dropped. While the registry is disabled the span
    /// is a no-op and never reads the clock.
    #[inline]
    pub fn span(&self) -> Span {
        Span {
            hist: self.clone(),
            start: self.enabled.load(Ordering::Relaxed).then(Instant::now),
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded observation (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.cells.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// The `q`-quantile estimate (`0.0 < q ≤ 1.0`): the upper bound of
    /// the bucket holding the `⌈q·count⌉`-th smallest observation.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (index, bucket) in self.cells.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper_bound(index);
            }
        }
        self.max()
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Per-bucket counts (for tests and custom readouts).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.cells.buckets[i].load(Ordering::Relaxed))
    }
}

/// An RAII phase timer: created by [`Histogram::span`] (or
/// [`Registry::span`]), records the elapsed wall-clock nanoseconds into
/// its histogram when dropped. When the registry was disabled at
/// creation the span holds no start time and drops for free.
#[derive(Debug)]
pub struct Span {
    hist: Histogram,
    start: Option<Instant>,
}

impl Span {
    /// Stops the span early, recording now instead of at drop.
    pub fn finish(mut self) {
        self.record_elapsed();
    }

    fn record_elapsed(&mut self) {
        if let Some(start) = self.start.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hist.record(nanos);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record_elapsed();
    }
}

/// One named instrument held by a registry.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCells>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct RegistryInner {
    enabled: Arc<AtomicBool>,
    instruments: Mutex<BTreeMap<String, Instrument>>,
    /// Name lookups served (see [`Registry::lookups`]).
    lookups: AtomicU64,
}

/// A thread-safe collection of named instruments.
///
/// Cloning is shallow (an `Arc` bump): clones see the same instruments
/// and the same enabled flag, which is how one registry is shared
/// across the build, online, and sharded layers. Instrument names are
/// dotted paths (`"shard.0.repair_ns"`); re-requesting a name returns a
/// handle onto the same cells.
///
/// [`Registry::default`] is **enabled** — recording is cheap enough to
/// leave on — and [`Registry::disabled`] starts the registry in the
/// one-relaxed-load-per-record fast path. The flag can be flipped at
/// any time with [`Registry::enable`] / [`Registry::disable`]; handles
/// observe the flip on their next operation.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let instruments = self.inner.instruments.lock().unwrap();
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .field("instruments", &instruments.len())
            .finish()
    }
}

impl Registry {
    /// An empty, enabled registry.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// An empty registry starting in the disabled fast path: every
    /// record call on its handles costs one relaxed load and nothing
    /// else until [`Registry::enable`] is called.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        Self {
            inner: Arc::new(RegistryInner {
                enabled: Arc::new(AtomicBool::new(enabled)),
                instruments: Mutex::new(BTreeMap::new()),
                lookups: AtomicU64::new(0),
            }),
        }
    }

    /// Whether recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on.
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns recording off (existing values are kept, not reset).
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Relaxed);
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: &str) -> Counter {
        let cell = {
            let mut map = self.lock_for_lookup();
            match map
                .entry(name.to_string())
                .or_insert_with(|| Instrument::Counter(Arc::new(AtomicU64::new(0))))
            {
                Instrument::Counter(cell) => Arc::clone(cell),
                other => panic!("'{name}' is registered as a {}", other.kind()),
            }
        };
        Counter {
            enabled: self.shared_flag(),
            cell,
        }
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let cell = {
            let mut map = self.lock_for_lookup();
            match map
                .entry(name.to_string())
                .or_insert_with(|| Instrument::Gauge(Arc::new(AtomicI64::new(0))))
            {
                Instrument::Gauge(cell) => Arc::clone(cell),
                other => panic!("'{name}' is registered as a {}", other.kind()),
            }
        };
        Gauge {
            enabled: self.shared_flag(),
            cell,
        }
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let cells = {
            let mut map = self.lock_for_lookup();
            match map
                .entry(name.to_string())
                .or_insert_with(|| Instrument::Histogram(Arc::new(HistogramCells::new())))
            {
                Instrument::Histogram(cells) => Arc::clone(cells),
                other => panic!("'{name}' is registered as a {}", other.kind()),
            }
        };
        Histogram {
            enabled: self.shared_flag(),
            cells,
        }
    }

    /// Starts a [`Span`] over the histogram named `name`. Convenience
    /// for cold paths; hot loops should cache the [`Histogram`] handle
    /// and call [`Histogram::span`] to skip the registry lock.
    pub fn span(&self, name: &str) -> Span {
        self.histogram(name).span()
    }

    /// A point-in-time copy of every instrument, sorted by name.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let map = self.inner.instruments.lock().unwrap();
        let mut snap = TelemetrySnapshot {
            enabled: self.is_enabled(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        for (name, instrument) in map.iter() {
            match instrument {
                Instrument::Counter(cell) => snap.counters.push(CounterSnapshot {
                    name: name.clone(),
                    value: cell.load(Ordering::Relaxed),
                }),
                Instrument::Gauge(cell) => snap.gauges.push(GaugeSnapshot {
                    name: name.clone(),
                    value: cell.load(Ordering::Relaxed),
                }),
                Instrument::Histogram(cells) => {
                    let hist = Histogram {
                        enabled: self.shared_flag(),
                        cells: Arc::clone(cells),
                    };
                    snap.histograms.push(HistogramSnapshot {
                        name: name.clone(),
                        count: hist.count(),
                        sum: hist.sum(),
                        max: hist.max(),
                        mean: hist.mean(),
                        p50: hist.p50(),
                        p95: hist.p95(),
                        p99: hist.p99(),
                    });
                }
            }
        }
        snap
    }

    /// Name lookups ([`Registry::counter`], [`Registry::gauge`],
    /// [`Registry::histogram`], [`Registry::span`]) served so far. Each
    /// takes the registry mutex, so a hot path should resolve its handles
    /// once; a test reads this before and after to check that it does.
    pub fn lookups(&self) -> u64 {
        self.inner.lookups.load(Ordering::Relaxed)
    }

    /// The instrument map, locked for one name lookup.
    fn lock_for_lookup(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Instrument>> {
        self.inner.lookups.fetch_add(1, Ordering::Relaxed);
        self.inner.instruments.lock().unwrap()
    }

    /// The registry's enabled flag, shared into a handle.
    fn shared_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.inner.enabled)
    }
}

/// A point-in-time readout of a [`Registry`] (see
/// [`Registry::snapshot`]); the input to the [`export`] functions and
/// [`TelemetryReport`].
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Whether the registry was enabled at snapshot time.
    pub enabled: bool,
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// One counter's value at snapshot time.
#[derive(Debug, Clone)]
pub struct CounterSnapshot {
    /// Instrument name.
    pub name: String,
    /// Total at snapshot time.
    pub value: u64,
}

/// One gauge's level at snapshot time.
#[derive(Debug, Clone)]
pub struct GaugeSnapshot {
    /// Instrument name.
    pub name: String,
    /// Level at snapshot time.
    pub value: i64,
}

/// One histogram's summary statistics at snapshot time.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Exact maximum observation.
    pub max: u64,
    /// Mean observation.
    pub mean: f64,
    /// Median estimate (bucket upper bound).
    pub p50: u64,
    /// p95 estimate (bucket upper bound).
    pub p95: u64,
    /// p99 estimate (bucket upper bound).
    pub p99: u64,
}

impl TelemetrySnapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The level of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The summary of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Sum of every counter whose name starts with `prefix` — the
    /// cross-shard aggregation idiom (`snapshot.counter_sum("shard.")`
    /// style prefixes, or `"shard." + suffix` filters via
    /// [`TelemetrySnapshot::counter_sum_matching`]).
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name.starts_with(prefix))
            .map(|c| c.value)
            .sum()
    }

    /// Sum of every counter whose name starts with `prefix` *and* ends
    /// with `suffix` (e.g. per-shard totals:
    /// `counter_sum_matching("shard.", ".cross_messages")`).
    pub fn counter_sum_matching(&self, prefix: &str, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name.starts_with(prefix) && c.name.ends_with(suffix))
            .map(|c| c.value)
            .sum()
    }

    /// Renders the snapshot as the human-readable [`TelemetryReport`].
    pub fn report(&self) -> TelemetryReport<'_> {
        TelemetryReport::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let registry = Registry::new();
        let c = registry.counter("a.count");
        c.add(5);
        c.incr();
        let g = registry.gauge("a.level");
        g.set(7);
        g.add(-3);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("a.count"), Some(6));
        assert_eq!(snap.gauge("a.level"), Some(4));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn gauge_guard_restores_level_on_every_exit_path() {
        let registry = Registry::new();
        let g = registry.gauge("q.depth");
        {
            let _guard = g.raise(1);
            assert_eq!(g.get(), 1);
            let _second = g.raise(3);
            assert_eq!(g.get(), 4);
        }
        assert_eq!(g.get(), 0, "scope exit lowers the gauge");
        // An unwinding panic still lowers it: the leak the RAII form
        // exists to prevent.
        let g2 = g.clone();
        let result = std::panic::catch_unwind(move || {
            let _guard = g2.raise(1);
            panic!("boom");
        });
        assert!(result.is_err());
        assert_eq!(g.get(), 0, "unwind lowers the gauge");
    }

    #[test]
    fn handles_share_cells() {
        let registry = Registry::new();
        let a = registry.counter("shared");
        let b = registry.counter("shared");
        a.incr();
        b.incr();
        assert_eq!(a.get(), 2);
        // Two lookups; recording through the handles adds none.
        assert_eq!(registry.lookups(), 2);
        let _ = registry.span("shared.ns");
        let _ = registry.gauge("shared.level");
        assert_eq!(registry.lookups(), 4);
    }

    #[test]
    fn disabled_registry_drops_records() {
        let registry = Registry::disabled();
        let c = registry.counter("c");
        let h = registry.histogram("h");
        c.incr();
        h.record(10);
        {
            let _span = h.span();
        }
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        registry.enable();
        c.incr();
        h.record(10);
        assert_eq!(c.get(), 1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn bucket_scheme() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 100, 1 << 40, u64::MAX] {
            assert!(v <= bucket_upper_bound(bucket_of(v)), "{v}");
        }
    }

    #[test]
    fn histogram_quantiles_and_max() {
        let registry = Registry::new();
        let h = registry.histogram("lat");
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        // The exact p50 is 50 (bucket 6, values 32..=63); the estimate
        // must be that bucket's upper bound.
        assert_eq!(h.p50(), 63);
        assert_eq!(h.p99(), 127);
        assert_eq!(h.quantile(1.0), 127);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let registry = Registry::new();
        let h = registry.histogram("empty");
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn span_records_elapsed_nanos() {
        let registry = Registry::new();
        let h = registry.histogram("phase_ns");
        {
            let _span = h.span();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 1_000_000, "slept 1ms, recorded {}", h.sum());
        let span = h.span();
        span.finish();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn clones_share_the_enabled_flag() {
        let registry = Registry::new();
        let clone = registry.clone();
        let c = clone.counter("c");
        registry.disable();
        c.incr();
        assert_eq!(c.get(), 0, "clone's handle saw the disable");
        clone.enable();
        c.incr();
        assert_eq!(c.get(), 1);
    }

    #[test]
    #[should_panic(expected = "registered as a counter")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("x");
        registry.histogram("x");
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let registry = Registry::new();
        registry.counter("b");
        registry.counter("a");
        registry.counter("c");
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn counter_sum_matching_aggregates_shards() {
        let registry = Registry::new();
        registry.counter("shard.0.cross_messages").add(3);
        registry.counter("shard.1.cross_messages").add(4);
        registry.counter("shard.0.repairs").add(9);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_sum_matching("shard.", ".cross_messages"), 7);
        assert_eq!(snap.counter_sum("shard."), 16);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let registry = Registry::new();
        let h = registry.histogram("h");
        let c = registry.counter("c");
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = h.clone();
                let c = c.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * per_thread + i);
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
        assert_eq!(h.count(), threads * per_thread);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), threads * per_thread);
    }
}

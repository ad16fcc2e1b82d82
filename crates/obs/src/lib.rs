//! `sched-obs`: workspace-wide telemetry for the power-scheduling crates.
//!
//! The crate provides three layers:
//!
//! 1. **Primitives** — [`Counter`], [`Gauge`], and [`Histogram`]. All three
//!    record through relaxed atomics, so once a handle is resolved the cost
//!    of a data point is a handful of uncontended atomic adds and recording
//!    is safe from any number of threads.
//! 2. **Registry** — [`Registry`] is a named get-or-create map of the
//!    primitives behind per-kind `RwLock`s. Lookups take the read lock
//!    (shared, cheap); only the first use of a new name takes the write
//!    lock. A [`Registry::snapshot`] freezes everything into the plain-data
//!    [`Snapshot`] for exposition.
//! 3. **Ambient API** — [`counter_add`], [`gauge_add`], [`record_ns`], and
//!    the [`span!`] timer macro record into whichever registry is *active*:
//!    the thread registry installed with [`set_thread`] if present,
//!    otherwise the process-global one installed with [`install_global`],
//!    otherwise nowhere (each helper is a cheap thread-local check and an
//!    early return). Deep library code — the solver hot path, the greedy
//!    loop — uses only the ambient API, so it needs no plumbed-through
//!    handles and costs nothing when no registry is installed.
//! 4. **Tracing** — the [`trace`] module adds the causal timeline the
//!    registry cannot express: an ambiently installed [`trace::Tracer`]
//!    receives a [`trace::TraceEvent`] from every [`span!`] drop and every
//!    explicit decision point, stamped with the thread's trace id, and
//!    exports `trace/v1` JSONL or Chrome trace-event JSON, with the same
//!    thread-shadows-global install rules.
//!
//! # Histogram buckets and percentiles
//!
//! Histograms use a fixed log-linear bucket layout: values below 16 get one
//! exact bucket each; every power-of-two octave `[2^k, 2^(k+1))` above that
//! is split into 8 linear sub-buckets. A reported percentile is the
//! *inclusive upper bound* of the bucket holding the nearest-rank sample
//! (clamped to the exact observed maximum), so percentiles are exact below
//! 16 and within 12.5% relative error above. `count`, `sum`, `min`, and
//! `max` are always exact.
//!
//! All percentile extraction — histogram walks here and sorted-sample
//! statistics elsewhere in the workspace — uses the single nearest-rank
//! rule implemented by [`nearest_rank_index`].
//!
//! # Exposition
//!
//! [`Snapshot`] serializes to the stable `obs/v1` JSON schema (see
//! [`SCHEMA`]) and renders as a human text table via
//! [`Snapshot::render_text`]. Snapshot struct fields are ordered
//! name-first so the compact JSON is greppable (`"name":"x","count":0`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

pub mod trace;

/// Schema tag carried by every serialized [`Snapshot`].
pub const SCHEMA: &str = "obs/v1";

// ---------------------------------------------------------------------------
// Nearest-rank rule
// ---------------------------------------------------------------------------

/// The workspace's single percentile rule: the q-th quantile of n ordered
/// samples is the sample at 1-based rank `ceil(q * n)`, clamped to `[1, n]`.
///
/// Returns the 0-based index into the sorted sample array, or `None` when
/// `n == 0` (callers report 0 for empty populations). Consequences worth
/// spelling out:
///
/// * `n == 1`: every quantile is the single sample.
/// * `n == 2`: p50 is the *lower* sample (`ceil(0.5 * 2) = 1`), p99 the
///   upper.
/// * Quantiles never interpolate; they always return an observed sample.
pub fn nearest_rank_index(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (q * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

// ---------------------------------------------------------------------------
// Histogram bucket layout
// ---------------------------------------------------------------------------

/// One exact bucket per value below this threshold.
const EXACT: u64 = 16;
/// Sub-buckets per power-of-two octave above the exact range.
const SUBS: usize = 8;
/// Total bucket count: 16 exact + 8 per octave for exponents 4..=63.
const NUM_BUCKETS: usize = EXACT as usize + (64 - 4) * SUBS;

/// Maps a value to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v < EXACT {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // 4..=63
        let sub = ((v >> (exp - 3)) & 0x7) as usize;
        EXACT as usize + (exp - 4) * SUBS + sub
    }
}

/// Inclusive upper bound of a bucket; the value reported for percentiles.
fn bucket_bound(idx: usize) -> u64 {
    if idx < EXACT as usize {
        idx as u64
    } else {
        let exp = 4 + (idx - EXACT as usize) / SUBS;
        let sub = (idx - EXACT as usize) % SUBS;
        // [2^exp + sub*2^(exp-3), 2^exp + (sub+1)*2^(exp-3) - 1]; the last
        // bucket's bound is u64::MAX, so compute in u128.
        let hi = (1u128 << exp) + (((sub + 1) as u128) << (exp - 3)) - 1;
        hi.min(u64::MAX as u128) as u64
    }
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `v` to the counter.
    pub fn add(&self, v: u64) {
        self.value.fetch_add(v, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Signed instantaneous level (queue depths, in-flight requests).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket log-linear histogram (see the crate docs for the layout).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Freezes the histogram into its snapshot row.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let count = self.count();
        let max = self.max.load(Ordering::Relaxed);
        let min = if count == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        };
        let quantile = |q: f64| -> u64 {
            let Some(idx0) = nearest_rank_index(count as usize, q) else {
                return 0;
            };
            let rank = idx0 as u64 + 1;
            let mut seen = 0u64;
            for (b, slot) in self.buckets.iter().enumerate() {
                seen += slot.load(Ordering::Relaxed);
                if seen >= rank {
                    return bucket_bound(b).min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: quantile(0.50),
            p99: quantile(0.99),
            p999: quantile(0.999),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Named get-or-create store of [`Counter`]s, [`Gauge`]s, and
/// [`Histogram`]s. Cloneable handles (`Arc`) come out; recording through a
/// handle never touches the registry locks again.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    gauges: RwLock<HashMap<String, Arc<Gauge>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
}

fn get_or_create<T: Default>(map: &RwLock<HashMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(v) = map.read().unwrap().get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().unwrap();
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Freezes every metric into a [`Snapshot`], rows sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: Vec<CounterSnapshot> = self
            .counters
            .read()
            .unwrap()
            .iter()
            .map(|(name, c)| CounterSnapshot {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeSnapshot> = self
            .gauges
            .read()
            .unwrap()
            .iter()
            .map(|(name, g)| GaugeSnapshot {
                name: name.clone(),
                value: g.get(),
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSnapshot> = self
            .histograms
            .read()
            .unwrap()
            .iter()
            .map(|(name, h)| h.snapshot(name))
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot {
            schema: SCHEMA.to_string(),
            counters,
            gauges,
            histograms,
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot (obs/v1)
// ---------------------------------------------------------------------------

/// One counter row. Fields are name-first for greppable compact JSON.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One gauge row.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Gauge level at snapshot time.
    pub value: i64,
}

/// One histogram row: exact count/sum/min/max plus nearest-rank
/// percentiles reported at bucket granularity (exact below 16, within
/// 12.5% above — see the crate docs).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of samples (exact).
    pub count: u64,
    /// Sum of samples (exact).
    pub sum: u64,
    /// Smallest sample (exact; 0 when empty).
    pub min: u64,
    /// Largest sample (exact; 0 when empty).
    pub max: u64,
    /// Median (nearest-rank, bucket upper bound).
    pub p50: u64,
    /// 99th percentile (nearest-rank, bucket upper bound).
    pub p99: u64,
    /// 99.9th percentile (nearest-rank, bucket upper bound).
    pub p999: u64,
}

/// A frozen registry: the `obs/v1` wire and file format.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Always [`SCHEMA`] (`"obs/v1"`).
    pub schema: String,
    /// Counter rows, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Gauge rows, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histogram rows, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            schema: SCHEMA.to_string(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }
}

impl Snapshot {
    /// Merges every row of `other` into `self` under `prefix` (e.g.
    /// `"worker0."`), used to fold per-worker registries into one global
    /// snapshot. Rows stay sorted.
    ///
    /// Name collisions are **kept, not combined**: if a prefixed row lands
    /// on a name `self` already has, both rows survive, with `self`'s row
    /// first (the sort is stable and merged rows are appended). Combining
    /// would silently fabricate totals — histogram percentiles in
    /// particular cannot be merged exactly — so a duplicated name is left
    /// visible for the consumer to notice.
    pub fn merge_prefixed(&mut self, other: &Snapshot, prefix: &str) {
        for c in &other.counters {
            self.counters.push(CounterSnapshot {
                name: format!("{prefix}{}", c.name),
                value: c.value,
            });
        }
        for g in &other.gauges {
            self.gauges.push(GaugeSnapshot {
                name: format!("{prefix}{}", g.name),
                value: g.value,
            });
        }
        for h in &other.histograms {
            let mut h = h.clone();
            h.name = format!("{prefix}{}", h.name);
            self.histograms.push(h);
        }
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        self.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Compact `obs/v1` JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }

    /// Parses `obs/v1` JSON (unknown extra fields are ignored).
    pub fn from_json(s: &str) -> Result<Snapshot, String> {
        let snap: Snapshot = serde_json::from_str(s).map_err(|e| e.to_string())?;
        if snap.schema != SCHEMA {
            return Err(format!(
                "unsupported metrics schema {:?} (want {SCHEMA:?})",
                snap.schema
            ));
        }
        Ok(snap)
    }

    /// Human-readable text table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let w = self.counters.iter().map(|c| c.name.len()).max().unwrap();
            for c in &self.counters {
                out.push_str(&format!("  {:<w$}  {}\n", c.name, c.value, w = w));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            let w = self.gauges.iter().map(|g| g.name.len()).max().unwrap();
            for g in &self.gauges {
                out.push_str(&format!("  {:<w$}  {}\n", g.name, g.value, w = w));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            let w = self
                .histograms
                .iter()
                .map(|h| h.name.len())
                .max()
                .unwrap()
                .max("name".len());
            out.push_str(&format!(
                "  {:<w$}  {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>16}\n",
                "name",
                "count",
                "p50",
                "p99",
                "p999",
                "min",
                "max",
                "sum",
                w = w
            ));
            for h in &self.histograms {
                out.push_str(&format!(
                    "  {:<w$}  {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>16}\n",
                    h.name,
                    h.count,
                    h.p50,
                    h.p99,
                    h.p999,
                    h.min,
                    h.max,
                    h.sum,
                    w = w
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Ambient API
// ---------------------------------------------------------------------------

mod ambient {
    use super::*;
    use std::cell::RefCell;
    use std::sync::OnceLock;

    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

    thread_local! {
        static THREAD: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
    }

    /// Installs the process-global fallback registry. Returns `false` (and
    /// leaves the existing one in place) if one was already installed.
    pub fn install_global(r: Arc<Registry>) -> bool {
        GLOBAL.set(r).is_ok()
    }

    /// The process-global registry, if installed.
    pub fn global() -> Option<Arc<Registry>> {
        GLOBAL.get().cloned()
    }

    /// Sets (or with `None`, clears) this thread's registry. The thread
    /// registry shadows the global one for all ambient recording on this
    /// thread — engine workers use this so solver metrics land per-worker.
    pub fn set_thread(r: Option<Arc<Registry>>) {
        THREAD.with(|t| *t.borrow_mut() = r);
    }

    /// Runs `f` against the active registry (thread, else global), or
    /// returns `None` when neither is installed.
    pub fn with_active<R>(f: impl FnOnce(&Registry) -> R) -> Option<R> {
        THREAD.with(|t| {
            if let Some(r) = t.borrow().as_ref() {
                return Some(f(r));
            }
            GLOBAL.get().map(|r| f(r))
        })
    }

    /// True when any registry would receive ambient records.
    pub fn active() -> bool {
        THREAD.with(|t| t.borrow().is_some()) || GLOBAL.get().is_some()
    }
}

pub use ambient::{active, global, install_global, set_thread, with_active};

/// Adds `v` to the ambient counter `name` (no-op without a registry).
pub fn counter_add(name: &str, v: u64) {
    if v > 0 {
        with_active(|r| r.counter(name).add(v));
    }
}

/// Adds `delta` to the ambient gauge `name` (no-op without a registry).
pub fn gauge_add(name: &str, delta: i64) {
    with_active(|r| r.gauge(name).add(delta));
}

/// Records `ns` into the ambient histogram `name` (no-op without a
/// registry). By convention every duration histogram in the workspace is
/// in nanoseconds and named `*_ns`.
pub fn record_ns(name: &str, ns: u64) {
    with_active(|r| r.histogram(name).record(ns));
}

/// RAII timer from [`span()`] / [`span!`]: on drop, records the elapsed
/// nanoseconds into the ambient histogram it was created for.
#[must_use = "a span records on drop; binding it to _ drops immediately"]
#[derive(Debug)]
pub struct Span {
    armed: Option<(&'static str, Instant)>,
}

/// Starts a span timer for histogram `name`. When neither a registry nor a
/// tracer (see [`trace`]) is active at creation the span is disarmed and
/// drop does nothing (the clock is never read).
pub fn span(name: &'static str) -> Span {
    Span {
        armed: (ambient::active() || trace::enabled()).then(|| (name, Instant::now())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, start)) = self.armed.take() {
            let dur_ns = start.elapsed().as_nanos() as u64;
            record_ns(name, dur_ns);
            trace::emit_span(name, start, dur_ns);
        }
    }
}

/// Starts an RAII span timer recording into the named ambient histogram:
/// `let _span = sched_obs::span!("core.reduction.build_ns");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_edge_cases() {
        // 0 samples: no index, callers report 0.
        assert_eq!(nearest_rank_index(0, 0.5), None);
        assert_eq!(nearest_rank_index(0, 0.999), None);
        // 1 sample: every quantile is that sample.
        assert_eq!(nearest_rank_index(1, 0.0), Some(0));
        assert_eq!(nearest_rank_index(1, 0.5), Some(0));
        assert_eq!(nearest_rank_index(1, 0.999), Some(0));
        // 2 samples: p50 is the lower, p99/p999 the upper.
        assert_eq!(nearest_rank_index(2, 0.5), Some(0));
        assert_eq!(nearest_rank_index(2, 0.99), Some(1));
        assert_eq!(nearest_rank_index(2, 0.999), Some(1));
        // The classic 100-sample case: p50 is sample 50 (1-based), p99
        // sample 99, p999 clamps to sample 100.
        assert_eq!(nearest_rank_index(100, 0.5), Some(49));
        assert_eq!(nearest_rank_index(100, 0.99), Some(98));
        assert_eq!(nearest_rank_index(100, 0.999), Some(99));
    }

    #[test]
    fn bucket_layout_is_monotone_and_tight() {
        // Every value maps into a bucket whose bound is >= the value, and
        // the bound is within 12.5% above the exact range.
        let probes: Vec<u64> = (0..64)
            .flat_map(|e| {
                let base = 1u64 << e;
                [
                    base,
                    base + base / 3,
                    base + base / 2,
                    base.saturating_mul(2).saturating_sub(1),
                ]
            })
            .chain(0..=17)
            .chain([u64::MAX, u64::MAX - 1])
            .collect();
        for &v in &probes {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "index {idx} out of range for {v}");
            let hi = bucket_bound(idx);
            assert!(hi >= v, "bound {hi} below value {v}");
            if v >= EXACT {
                // Relative error of reporting the bound instead of v.
                let err = (hi - v) as f64 / v as f64;
                assert!(err <= 0.125, "error {err} too large for {v}");
            } else {
                assert_eq!(hi, v, "exact range must be exact");
            }
        }
        // Bucket indices are monotone in the value.
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        for pair in sorted.windows(2) {
            assert!(bucket_index(pair[0]) <= bucket_index(pair[1]));
        }
        // The last bucket's bound is u64::MAX exactly.
        assert_eq!(bucket_bound(bucket_index(u64::MAX)), u64::MAX);
    }

    #[test]
    fn histogram_exact_below_sixteen() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        let s = h.snapshot("t");
        assert_eq!(s.count, 10);
        assert_eq!(s.sum, 55);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10);
        assert_eq!(s.p50, 5); // rank ceil(0.5*10)=5 -> sample 5
        assert_eq!(s.p99, 10);
        assert_eq!(s.p999, 10);
    }

    #[test]
    fn histogram_empty_and_singleton() {
        let h = Histogram::default();
        let s = h.snapshot("empty");
        assert_eq!(
            (s.count, s.sum, s.min, s.max, s.p50, s.p99, s.p999),
            (0, 0, 0, 0, 0, 0, 0)
        );
        h.record(1234);
        let s = h.snapshot("one");
        assert_eq!(s.count, 1);
        assert_eq!((s.min, s.max), (1234, 1234));
        // Single sample: all percentiles clamp to the exact max.
        assert_eq!((s.p50, s.p99, s.p999), (1234, 1234, 1234));
    }

    #[test]
    fn histogram_two_samples_follow_nearest_rank() {
        let h = Histogram::default();
        h.record(2);
        h.record(9);
        let s = h.snapshot("two");
        assert_eq!(s.p50, 2, "p50 of two samples is the lower");
        assert_eq!(s.p99, 9, "p99 of two samples is the upper");
    }

    #[test]
    fn histogram_percentile_within_bucket_error() {
        let h = Histogram::default();
        for v in 0..10_000u64 {
            h.record(v * 97); // spread across many octaves
        }
        let s = h.snapshot("wide");
        let exact_p99 = 97 * 9899; // nearest-rank on the exact samples
        assert!(s.p99 >= exact_p99 as u64);
        assert!((s.p99 as f64) <= exact_p99 as f64 * 1.125 + 1.0);
        assert_eq!(s.max, 97 * 9_999);
        assert!(s.p999 <= s.max);
    }

    #[test]
    fn registry_handles_are_shared() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").add(3);
        assert_eq!(r.counter("a").get(), 5);
        r.gauge("g").add(7);
        r.gauge("g").add(-3);
        assert_eq!(r.gauge("g").get(), 4);
        r.histogram("h").record(10);
        assert_eq!(r.histogram("h").count(), 1);
    }

    #[test]
    fn snapshot_json_round_trip_and_schema() {
        let r = Registry::new();
        r.counter("b.count").inc();
        r.counter("a.count").add(41);
        r.gauge("depth").set(3);
        r.histogram("lat_ns").record(100);
        r.histogram("lat_ns").record(200);
        let snap = r.snapshot();
        assert_eq!(snap.schema, SCHEMA);
        // Sorted by name.
        assert_eq!(snap.counters[0].name, "a.count");
        assert_eq!(snap.counters[1].name, "b.count");
        let json = snap.to_json();
        // Greppable, name-first compact encoding.
        assert!(json.contains("\"schema\":\"obs/v1\""), "{json}");
        assert!(json.contains("\"name\":\"a.count\",\"value\":41"), "{json}");
        assert!(json.contains("\"name\":\"lat_ns\",\"count\":2"), "{json}");
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        // Unknown extra fields must be ignored (forward compatibility).
        let extended = json.replacen(
            "\"schema\":\"obs/v1\"",
            "\"schema\":\"obs/v1\",\"future\":{\"x\":1}",
            1,
        );
        assert_eq!(Snapshot::from_json(&extended).unwrap(), snap);
        // Wrong schema rejected.
        assert!(Snapshot::from_json(&json.replacen("obs/v1", "obs/v9", 1)).is_err());
    }

    #[test]
    fn merge_prefixed_keeps_rows_sorted() {
        let a = Registry::new();
        a.counter("x").inc();
        let b = Registry::new();
        b.counter("a").add(2);
        b.histogram("h").record(5);
        let mut snap = a.snapshot();
        snap.merge_prefixed(&b.snapshot(), "worker0.");
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["worker0.a", "x"]);
        assert_eq!(snap.histograms[0].name, "worker0.h");
    }

    #[test]
    fn render_text_mentions_every_metric() {
        let r = Registry::new();
        r.counter("hits").add(9);
        r.gauge("depth").set(-2);
        r.histogram("lat_ns").record(50);
        let text = r.snapshot().render_text();
        assert!(text.contains("hits"), "{text}");
        assert!(text.contains("depth"), "{text}");
        assert!(text.contains("lat_ns"), "{text}");
        assert!(text.contains("p999"), "{text}");
        assert_eq!(Snapshot::default().render_text(), "(no metrics recorded)\n");
    }

    #[test]
    fn ambient_thread_registry_scopes_recording() {
        // Thread registry shadows global; clearing it restores fallback.
        let r = Arc::new(Registry::new());
        set_thread(Some(Arc::clone(&r)));
        counter_add("scoped", 2);
        record_ns("span_ns", 10);
        {
            let _s = span!("timed_ns");
        }
        gauge_add("g", -4);
        set_thread(None);
        assert_eq!(r.counter("scoped").get(), 2);
        assert_eq!(r.gauge("g").get(), -4);
        assert_eq!(r.histogram("span_ns").count(), 1);
        assert_eq!(r.histogram("timed_ns").count(), 1);
    }

    #[test]
    fn spans_are_disarmed_without_a_registry() {
        // No thread registry on this test thread and we never rely on the
        // global: a span created while inactive must not record even if a
        // registry appears before the drop.
        set_thread(None);
        trace::set_thread(None);
        if global().is_some() || trace::global().is_some() {
            return; // another test in the process installed a global sink
        }
        let s = span!("never_ns");
        let r = Arc::new(Registry::new());
        set_thread(Some(Arc::clone(&r)));
        drop(s);
        set_thread(None);
        assert_eq!(r.histogram("never_ns").count(), 0);
    }

    #[test]
    fn merge_prefixed_keeps_both_rows_on_name_collision() {
        // an empty prefix makes every row of `other` collide with `self`
        let a = Registry::new();
        a.counter("reqs").add(3);
        a.gauge("depth").add(1);
        a.histogram("lat_ns").record(10);
        let b = Registry::new();
        b.counter("reqs").add(5);
        b.gauge("depth").add(2);
        b.histogram("lat_ns").record(20);

        let mut snap = a.snapshot();
        snap.merge_prefixed(&b.snapshot(), "");
        // both rows survive — nothing is silently summed or dropped —
        // and the pre-existing row sorts first (stable sort, appended
        // rows come later among equals)
        let reqs: Vec<u64> = snap
            .counters
            .iter()
            .filter(|c| c.name == "reqs")
            .map(|c| c.value)
            .collect();
        assert_eq!(reqs, vec![3, 5]);
        let depths: Vec<i64> = snap
            .gauges
            .iter()
            .filter(|g| g.name == "depth")
            .map(|g| g.value)
            .collect();
        assert_eq!(depths, vec![1, 2]);
        let lats: Vec<u64> = snap
            .histograms
            .iter()
            .filter(|h| h.name == "lat_ns")
            .map(|h| h.sum)
            .collect();
        assert_eq!(lats, vec![10, 20]);
        // rows stay globally sorted by name despite the duplicates
        assert!(snap.counters.windows(2).all(|w| w[0].name <= w[1].name));

        // the same prefix applied twice duplicates deterministically too
        let mut twice = Registry::new().snapshot();
        twice.merge_prefixed(&b.snapshot(), "w0.");
        twice.merge_prefixed(&b.snapshot(), "w0.");
        assert_eq!(
            twice
                .counters
                .iter()
                .filter(|c| c.name == "w0.reqs")
                .count(),
            2
        );
    }

    #[test]
    fn from_json_rejects_malformed_and_truncated_input_without_panicking() {
        let valid = {
            let r = Registry::new();
            r.counter("c").add(1);
            r.snapshot().to_json()
        };
        assert!(Snapshot::from_json(&valid).is_ok());

        // truncations at every length must fail with a nonzero-information
        // error (never a panic, never a silent default)
        for cut in 0..valid.len().min(80) {
            let err =
                Snapshot::from_json(&valid[..cut]).expect_err("truncated snapshot must not parse");
            assert!(!err.is_empty(), "error carries a message at cut {cut}");
        }

        // structurally valid JSON of the wrong shape
        for bad in ["[]", "42", "\"obs/v1\"", "{\"schema\":17}"] {
            let err = Snapshot::from_json(bad).expect_err(bad);
            assert!(!err.is_empty(), "{bad}");
        }

        // right shape, wrong schema tag: the error names both schemas
        let err = Snapshot::from_json(
            "{\"schema\":\"obs/v0\",\"counters\":[],\"gauges\":[],\"histograms\":[]}",
        )
        .expect_err("wrong schema must not parse");
        assert!(err.contains("obs/v0") && err.contains(SCHEMA), "{err}");
    }
}

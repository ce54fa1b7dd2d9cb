//! Lock-cheap metrics: named counters, gauges and fixed-bucket histograms.
//!
//! The hot path is purely atomic — incrementing a [`Counter`] or observing a
//! [`Histogram`] sample touches a handful of `AtomicU64`s and never takes a
//! lock. The [`MetricsRegistry`] itself uses an `RwLock<HashMap>` only for
//! name → handle resolution; callers on hot paths resolve their handles once
//! (an `Arc`) and then record lock-free.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

// ---------------------------------------------------------------------------
// Atomic f64 helpers (CAS loops over the bit pattern)
// ---------------------------------------------------------------------------

fn atomic_f64_add(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

fn atomic_f64_max(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        if f64::from_bits(cur) >= v {
            return;
        }
        match bits.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` — alias of [`Counter::add`] under the conventional
    /// Prometheus-client name.
    ///
    /// ```
    /// use setlearn_obs::Counter;
    ///
    /// let c = Counter::default();
    /// c.inc();
    /// c.inc_by(41);
    /// assert_eq!(c.get(), 42);
    /// ```
    pub fn inc_by(&self, n: u64) {
        self.add(n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge holding one `f64`.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds to the gauge (CAS loop; gauges are rarely hot).
    pub fn add(&self, v: f64) {
        atomic_f64_add(&self.bits, v);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Default latency buckets in seconds: 1 µs … 100 ms, roughly logarithmic.
pub const LATENCY_BOUNDS: &[f64] = &[
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
    2.5e-2, 5e-2, 1e-1,
];

/// Default q-error buckets (q-errors are ≥ 1 by definition).
pub const QERROR_BOUNDS: &[f64] = &[1.0, 1.1, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 50.0, 1000.0];

/// Fixed-bucket histogram with an implicit `+Inf` overflow bucket, an exact
/// running sum/count, and an exact maximum. Observation is lock-free.
#[derive(Debug)]
pub struct Histogram {
    /// Strictly increasing upper bucket bounds (`le` semantics).
    bounds: Vec<f64>,
    /// One slot per bound plus the overflow bucket. The total sample count
    /// is the sum of the slots — not stored separately, to keep `observe`
    /// at the minimum number of atomic RMWs on the serve hot path.
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    /// Creates a histogram over the given upper bounds.
    ///
    /// # Panics
    /// If `bounds` is empty, non-finite, or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one sample. Non-finite samples are dropped (they carry no
    /// usable magnitude and would poison the sum).
    pub fn observe(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self.bounds.partition_point(|b| v > *b);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v);
        atomic_f64_max(&self.max_bits, v);
    }

    /// Records a duration in seconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total samples recorded (sums the buckets; cold-path only).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Consistent-enough point-in-time copy (each field is read atomically;
    /// concurrent writers may skew fields against each other by a sample).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> =
            self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = counts.iter().sum();
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts,
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            max: if count == 0 { 0.0 } else { max },
        }
    }

    /// Merges a previously exported snapshot into this histogram (used to
    /// accumulate run artifacts across processes). Bucket layouts must match;
    /// mismatched snapshots are ignored.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        if snap.bounds != self.bounds || snap.counts.len() != self.buckets.len() {
            return;
        }
        for (slot, &c) in self.buckets.iter().zip(&snap.counts) {
            slot.fetch_add(c, Ordering::Relaxed);
        }
        atomic_f64_add(&self.sum_bits, snap.sum);
        if snap.count > 0 {
            atomic_f64_max(&self.max_bits, snap.max);
        }
    }

    /// Zeroes every bucket, the sum, and the maximum, returning the
    /// histogram to its freshly-constructed state. Not atomic with respect
    /// to concurrent observers: a sample racing the reset may land partially
    /// (count without sum or vice versa). Intended for poll-style consumers
    /// that own the histogram or tolerate a one-sample skew.
    pub fn reset(&self) {
        for slot in &self.buckets {
            slot.store(0, Ordering::Relaxed);
        }
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.max_bits.store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
}

/// Serializable point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds (the overflow bucket is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket sample counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Largest sample seen (`0.0` when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Mean sample value (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Quantile estimate by linear interpolation inside the owning bucket.
    /// The overflow bucket reports the exact maximum. `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target && c > 0 {
                if i >= self.bounds.len() {
                    return self.max;
                }
                let hi = self.bounds[i];
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let frac = (target - (cum - c)) as f64 / c as f64;
                return (lo + (hi - lo) * frac).min(self.max);
            }
        }
        self.max
    }

    /// What happened since `baseline`: per-bucket counts, total count, and
    /// sum are subtracted (saturating, so a reset between snapshots degrades
    /// to an empty or partial delta instead of underflowing).
    /// `max` cannot be un-merged, so the delta keeps this snapshot's
    /// cumulative maximum. Bucket layouts must match; on mismatch the whole
    /// current snapshot is returned (the series was re-registered, so the
    /// baseline is meaningless).
    pub fn delta(&self, baseline: &HistogramSnapshot) -> HistogramSnapshot {
        if baseline.bounds != self.bounds || baseline.counts.len() != self.counts.len() {
            return self.clone();
        }
        let counts: Vec<u64> = self
            .counts
            .iter()
            .zip(&baseline.counts)
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts,
            count,
            sum: if count == 0 { 0.0 } else { (self.sum - baseline.sum).max(0.0) },
            max: if count == 0 { 0.0 } else { self.max },
        }
    }

    /// Adds `other` into this snapshot: counts and sums accumulate, `max`
    /// takes the larger. Bucket layouts must match; a mismatched `other` is
    /// ignored (same contract as [`Histogram::absorb`]).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.bounds != self.bounds || other.counts.len() != self.counts.len() {
            return;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.max = self.max.max(other.max);
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One metric label (`key="value"` in the Prometheus exposition).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Label {
    /// Label name.
    pub key: String,
    /// Label value.
    pub value: String,
}

/// Fully qualified metric identity: family name plus sorted labels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricKey {
    /// Metric family name (e.g. `setlearn_serve_completed_total`).
    pub name: String,
    /// Labels, sorted by key.
    pub labels: Vec<Label>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<Label> = labels
            .iter()
            .map(|(k, v)| Label { key: (*k).to_string(), value: (*v).to_string() })
            .collect();
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }

    /// Renders the key the way Prometheus writes sample lines:
    /// `name` or `name{k="v",k2="v2"}`.
    pub fn render(&self) -> String {
        self.render_with_extra(None)
    }

    /// [`MetricKey::render`] with an optional extra label appended (used for
    /// histogram `le` labels).
    pub fn render_with_extra(&self, extra: Option<(&str, &str)>) -> String {
        if self.labels.is_empty() && extra.is_none() {
            return self.name.clone();
        }
        let mut parts: Vec<String> = self
            .labels
            .iter()
            .map(|l| format!("{}=\"{}\"", l.key, l.value))
            .collect();
        if let Some((k, v)) = extra {
            parts.push(format!("{k}=\"{v}\""));
        }
        format!("{}{{{}}}", self.name, parts.join(","))
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
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

/// Upper bound on distinct label combinations ("series") a single metric
/// family may register. Creation beyond the cap lands on the family's
/// `{overflow="true"}` series instead of a new one (see
/// [`MetricsRegistry::counter_with`]).
pub const MAX_SERIES_PER_FAMILY: usize = 64;

/// Name → handle registry. Handle resolution takes a read lock on the happy
/// path (metric already exists); recording through a resolved handle is
/// entirely lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    slots: RwLock<HashMap<String, (MetricKey, Slot)>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn resolve<T, F, G>(&self, key: MetricKey, extract: F, create: G) -> Arc<T>
    where
        F: Fn(&Slot) -> Option<Arc<T>>,
        G: FnOnce() -> Slot,
    {
        let rendered = key.render();
        let read = self.slots.read().unwrap_or_else(|e| e.into_inner());
        if let Some((_, slot)) = read.get(&rendered) {
            match extract(slot) {
                Some(handle) => return handle,
                None => panic!(
                    "metric '{rendered}' already registered as a {}",
                    slot.kind()
                ),
            }
        }
        drop(read);
        let mut write = self.slots.write().unwrap_or_else(|e| e.into_inner());
        // Label-cardinality guard: creating a series past the per-family cap
        // collapses it into the family's single `{overflow="true"}` series,
        // so an unbounded label value (a per-query string, an attacker-
        // controlled path) cannot grow the registry without bound. Already-
        // registered series are untouched.
        let (key, rendered) = if !write.contains_key(&rendered)
            && write.values().filter(|(k, _)| k.name == key.name).count()
                >= MAX_SERIES_PER_FAMILY
        {
            let collapsed = MetricKey::new(&key.name, &[("overflow", "true")]);
            let r = collapsed.render();
            (collapsed, r)
        } else {
            (key, rendered)
        };
        let (_, slot) = write.entry(rendered.clone()).or_insert_with(|| (key, create()));
        match extract(slot) {
            Some(handle) => handle,
            None => panic!("metric '{rendered}' already registered as a {}", slot.kind()),
        }
    }

    /// Get-or-create a counter with no labels.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Get-or-create a counter with labels.
    ///
    /// # Panics
    /// If the same name+labels is already registered as a different type.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.resolve(
            MetricKey::new(name, labels),
            |s| match s {
                Slot::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || Slot::Counter(Arc::new(Counter::default())),
        )
    }

    /// Get-or-create a gauge with no labels.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Get-or-create a gauge with labels.
    ///
    /// # Panics
    /// If the same name+labels is already registered as a different type.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.resolve(
            MetricKey::new(name, labels),
            |s| match s {
                Slot::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || Slot::Gauge(Arc::new(Gauge::default())),
        )
    }

    /// Get-or-create a histogram with no labels.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, &[], bounds)
    }

    /// Get-or-create a histogram with labels. When the metric already exists
    /// its original bounds win; `bounds` only applies on first registration.
    ///
    /// # Panics
    /// If the same name+labels is already registered as a different type.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        self.resolve(
            MetricKey::new(name, labels),
            |s| match s {
                Slot::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || Slot::Histogram(Arc::new(Histogram::new(bounds))),
        )
    }

    /// Serializable point-in-time copy of every registered metric, sorted by
    /// rendered key for deterministic export.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let read = self.slots.read().unwrap_or_else(|e| e.into_inner());
        let mut snap = RegistrySnapshot::default();
        for (key, slot) in read.values() {
            match slot {
                Slot::Counter(c) => {
                    snap.counters.push(CounterSample { key: key.clone(), value: c.get() })
                }
                Slot::Gauge(g) => {
                    snap.gauges.push(GaugeSample { key: key.clone(), value: g.get() })
                }
                Slot::Histogram(h) => snap
                    .histograms
                    .push(HistogramSample { key: key.clone(), value: h.snapshot() }),
            }
        }
        drop(read);
        snap.counters.sort_by_key(|a| a.key.render());
        snap.gauges.sort_by_key(|a| a.key.render());
        snap.histograms.sort_by_key(|a| a.key.render());
        snap
    }

    /// Merges a previously exported snapshot back into the live registry:
    /// counters accumulate, gauges adopt the stored value, histograms merge
    /// bucket-wise. Lets run artifacts accumulate across CLI invocations.
    pub fn absorb(&self, snap: &RegistrySnapshot) {
        for c in &snap.counters {
            self.counter_by_key(&c.key).add(c.value);
        }
        for g in &snap.gauges {
            self.gauge_by_key(&g.key).set(g.value);
        }
        for h in &snap.histograms {
            self.histogram_by_key(&h.key, &h.value.bounds).absorb(&h.value);
        }
    }

    fn borrowed_labels(key: &MetricKey) -> Vec<(&str, &str)> {
        key.labels.iter().map(|l| (l.key.as_str(), l.value.as_str())).collect()
    }

    fn counter_by_key(&self, key: &MetricKey) -> Arc<Counter> {
        self.counter_with(&key.name, &Self::borrowed_labels(key))
    }

    fn gauge_by_key(&self, key: &MetricKey) -> Arc<Gauge> {
        self.gauge_with(&key.name, &Self::borrowed_labels(key))
    }

    fn histogram_by_key(&self, key: &MetricKey, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(&key.name, &Self::borrowed_labels(key), bounds)
    }
}

/// One counter sample in a [`RegistrySnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric identity.
    pub key: MetricKey,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One gauge sample in a [`RegistrySnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric identity.
    pub key: MetricKey,
    /// Gauge value at snapshot time.
    pub value: f64,
}

/// One histogram sample in a [`RegistrySnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric identity.
    pub key: MetricKey,
    /// Histogram state at snapshot time.
    pub value: HistogramSnapshot,
}

/// Serializable dump of a whole [`MetricsRegistry`] — the "run artifact"
/// the CLI persists next to its Prometheus export.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// All counters, sorted by rendered key.
    pub counters: Vec<CounterSample>,
    /// All gauges, sorted by rendered key.
    pub gauges: Vec<GaugeSample>,
    /// All histograms, sorted by rendered key.
    pub histograms: Vec<HistogramSample>,
}

impl RegistrySnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter value by family name and labels (test/CLI helper).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = MetricKey::new(name, labels);
        self.counters.iter().find(|c| c.key == key).map(|c| c.value)
    }

    /// Looks up a gauge value by family name and labels.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = MetricKey::new(name, labels);
        self.gauges.iter().find(|g| g.key == key).map(|g| g.value)
    }

    /// Looks up a histogram by family name and labels.
    pub fn histogram_value(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&HistogramSnapshot> {
        let key = MetricKey::new(name, labels);
        self.histograms.iter().find(|h| h.key == key).map(|h| &h.value)
    }

    /// What happened since `baseline`: counters subtract (saturating),
    /// histograms subtract bucket-wise via [`HistogramSnapshot::delta`], and
    /// gauges keep their current value (a gauge is a level, not a rate).
    /// Series absent from the baseline pass through whole. This is what the
    /// CLI `watch` poller renders as a per-interval view.
    pub fn delta(&self, baseline: &RegistrySnapshot) -> RegistrySnapshot {
        let mut out = RegistrySnapshot::default();
        for c in &self.counters {
            let then = baseline
                .counters
                .iter()
                .find(|b| b.key == c.key)
                .map(|b| b.value)
                .unwrap_or(0);
            out.counters.push(CounterSample {
                key: c.key.clone(),
                value: c.value.saturating_sub(then),
            });
        }
        out.gauges = self.gauges.clone();
        for h in &self.histograms {
            let value = match baseline.histograms.iter().find(|b| b.key == h.key) {
                Some(b) => h.value.delta(&b.value),
                None => h.value.clone(),
            };
            out.histograms.push(HistogramSample { key: h.key.clone(), value });
        }
        out
    }

    /// Adds `other` into this snapshot: counters accumulate, histograms
    /// merge bucket-wise, and series only present in `other` are inserted.
    /// Gauges keep this snapshot's value when both carry the series (the
    /// caller's snapshot is the fresher level); unseen gauges are adopted.
    /// Output stays sorted by rendered key, like [`MetricsRegistry::snapshot`].
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for c in &other.counters {
            match self.counters.iter_mut().find(|mine| mine.key == c.key) {
                Some(mine) => mine.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        for g in &other.gauges {
            if !self.gauges.iter().any(|mine| mine.key == g.key) {
                self.gauges.push(g.clone());
            }
        }
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|mine| mine.key == h.key) {
                Some(mine) => mine.value.merge(&h.value),
                None => self.histograms.push(h.clone()),
            }
        }
        self.counters.sort_by_key(|a| a.key.render());
        self.gauges.sort_by_key(|a| a.key.render());
        self.histograms.sort_by_key(|a| a.key.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hits_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name resolves to the same underlying counter.
        assert_eq!(reg.counter("hits_total").get(), 5);

        let g = reg.gauge_with("temp", &[("zone", "a")]);
        g.set(1.5);
        g.add(0.25);
        assert_eq!(g.get(), 1.75);
        // Different labels are a different series.
        assert_eq!(reg.gauge_with("temp", &[("zone", "b")]).get(), 0.0);
    }

    #[test]
    fn series_per_family_are_capped_by_the_overflow_guard() {
        let reg = MetricsRegistry::new();
        // Fill the family to the cap with distinct label values.
        for i in 0..MAX_SERIES_PER_FAMILY {
            reg.counter_with("guarded_total", &[("path", &format!("p{i}"))]).inc();
        }
        // Every further distinct label lands on one overflow series instead
        // of growing the registry.
        for i in 0..10 {
            reg.counter_with("guarded_total", &[("path", &format!("extra{i}"))]).inc();
        }
        let snap = reg.snapshot();
        let family: Vec<_> =
            snap.counters.iter().filter(|c| c.key.name == "guarded_total").collect();
        assert_eq!(family.len(), MAX_SERIES_PER_FAMILY + 1, "cap plus the overflow series");
        assert_eq!(
            snap.counter_value("guarded_total", &[("overflow", "true")]),
            Some(10),
            "all overflowing increments share one series"
        );
        // Pre-existing series keep working and keep their identity.
        reg.counter_with("guarded_total", &[("path", "p0")]).inc();
        assert_eq!(reg.counter_with("guarded_total", &[("path", "p0")]).get(), 2);
        // Other families are unaffected by this family's overflow.
        reg.counter_with("other_total", &[("path", "x")]).inc();
        assert_eq!(reg.counter_with("other_total", &[("path", "x")]).get(), 1);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = MetricsRegistry::new();
        reg.counter_with("c", &[("a", "1"), ("b", "2")]).inc();
        assert_eq!(reg.counter_with("c", &[("b", "2"), ("a", "1")]).get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("metric").inc();
        let _ = reg.gauge("metric");
    }

    #[test]
    fn histogram_buckets_quantiles_and_max() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 0.5, 1.5, 3.0, 10.0] {
            h.observe(v);
        }
        h.observe(f64::NAN); // dropped
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 15.5);
        assert_eq!(s.max, 10.0);
        assert_eq!(s.quantile(1.0), 10.0); // overflow bucket → exact max
        // Median sample is 1.5, which lives in the (1, 2] bucket.
        let p50 = s.quantile(0.5);
        assert!(p50 > 1.0 && p50 <= 2.0, "p50 {p50} should fall in (1, 2]");
        assert!((s.mean() - 3.1).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new(&[1.0]).snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.quantile(0.99), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn boundary_samples_land_in_the_le_bucket() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(1.0); // le="1" bucket, Prometheus `le` semantics
        h.observe(2.0);
        let s = h.snapshot();
        assert_eq!(s.counts, vec![1, 1, 0]);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let reg = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    let c = reg.counter("concurrent_total");
                    let h = reg.histogram("concurrent_hist", &[0.25, 0.5, 0.75]);
                    for i in 0..per_thread {
                        c.inc();
                        h.observe((i % 100) as f64 / 100.0);
                        if t == 0 && i % 1000 == 0 {
                            // Exercise the registry lookup path concurrently.
                            reg.gauge("concurrent_gauge").set(i as f64);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thread panicked");
        }
        assert_eq!(reg.counter("concurrent_total").get(), threads * per_thread);
        let s = reg.histogram("concurrent_hist", &[0.25, 0.5, 0.75]).snapshot();
        assert_eq!(s.count, threads * per_thread);
        assert_eq!(s.counts.iter().sum::<u64>(), threads * per_thread);
        // Each thread contributed the same deterministic value stream, so
        // the per-bucket totals are exact, not merely consistent.
        // values 0.00..=0.25 → 26 per 100, 0.26..=0.50 → 25, 0.51..=0.75 → 25,
        // 0.76..=0.99 → 24.
        let per_bucket = [26, 25, 25, 24];
        for (got, want) in s.counts.iter().zip(per_bucket) {
            assert_eq!(*got, want * (threads * per_thread) / 100);
        }
    }

    #[test]
    fn snapshot_roundtrips_through_json_and_absorbs() {
        let reg = MetricsRegistry::new();
        reg.counter_with("c_total", &[("task", "x")]).add(7);
        reg.gauge("g").set(2.5);
        let h = reg.histogram("h_seconds", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);

        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: RegistrySnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.counter_value("c_total", &[("task", "x")]), Some(7));

        // Absorbing into a fresh registry reproduces, absorbing twice doubles
        // counters (counters accumulate, gauges do not).
        let reg2 = MetricsRegistry::new();
        reg2.absorb(&back);
        reg2.absorb(&back);
        let snap2 = reg2.snapshot();
        assert_eq!(snap2.counter_value("c_total", &[("task", "x")]), Some(14));
        let h2 = snap2.histogram_value("h_seconds", &[]).expect("histogram");
        assert_eq!(h2.count, 4);
        assert_eq!(h2.max, 0.5);
        assert_eq!(snap2.gauges[0].value, 2.5);
    }

    #[test]
    fn reset_returns_histogram_to_pristine_state() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.reset();
        let s = h.snapshot();
        assert_eq!(s.counts, vec![0, 0, 0]);
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0.0);
        assert_eq!(s.max, 0.0);
        // The histogram keeps working after a reset.
        h.observe(1.5);
        let s = h.snapshot();
        assert_eq!(s.counts, vec![0, 1, 0]);
        assert_eq!(s.max, 1.5);
    }

    #[test]
    fn histogram_delta_subtracts_at_bucket_boundaries() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(1.0); // exactly on the le="1" bound → first bucket
        let baseline = h.snapshot();
        h.observe(1.0); // same boundary value again, after the baseline
        h.observe(2.0); // le="2" bound
        h.observe(3.0); // overflow
        let d = h.snapshot().delta(&baseline);
        // Only the post-baseline samples remain, each in its `le` bucket.
        assert_eq!(d.counts, vec![1, 1, 1]);
        assert_eq!(d.count, 3);
        assert!((d.sum - 6.0).abs() < 1e-12);
        assert_eq!(d.max, 3.0); // cumulative max: delta cannot un-merge it
    }

    #[test]
    fn histogram_delta_with_no_new_samples_is_empty() {
        let h = Histogram::new(&[1.0]);
        h.observe(0.5);
        let snap = h.snapshot();
        let d = snap.delta(&snap);
        assert_eq!(d.count, 0);
        assert_eq!(d.counts, vec![0, 0]);
        assert_eq!(d.sum, 0.0);
        assert_eq!(d.max, 0.0);
    }

    #[test]
    fn histogram_delta_survives_a_reset_between_snapshots() {
        let h = Histogram::new(&[1.0]);
        for _ in 0..5 {
            h.observe(0.5);
        }
        let baseline = h.snapshot();
        h.reset();
        h.observe(0.5);
        // Counts went backwards; saturating subtraction clamps to zero
        // instead of underflowing to ~u64::MAX garbage.
        let d = h.snapshot().delta(&baseline);
        assert_eq!(d.counts, vec![0, 0]);
        assert_eq!(d.count, 0);
    }

    #[test]
    fn histogram_delta_on_bounds_mismatch_returns_current() {
        let now = Histogram::new(&[1.0, 2.0]);
        now.observe(0.5);
        let other = Histogram::new(&[5.0]).snapshot();
        let d = now.snapshot().delta(&other);
        assert_eq!(d, now.snapshot());
    }

    #[test]
    fn registry_delta_reports_per_interval_rates() {
        let reg = MetricsRegistry::new();
        reg.counter("req_total").add(10);
        reg.gauge("depth").set(3.0);
        reg.histogram("lat", &[1.0]).observe(0.5);
        let baseline = reg.snapshot();
        reg.counter("req_total").add(7);
        reg.gauge("depth").set(9.0);
        reg.histogram("lat", &[1.0]).observe(2.0);
        reg.counter("new_total").inc(); // series born after the baseline
        let d = reg.snapshot().delta(&baseline);
        assert_eq!(d.counter_value("req_total", &[]), Some(7));
        assert_eq!(d.counter_value("new_total", &[]), Some(1));
        assert_eq!(d.gauge_value("depth", &[]), Some(9.0)); // level, not rate
        let lat = d.histogram_value("lat", &[]).expect("histogram");
        assert_eq!(lat.counts, vec![0, 1]);
        assert_eq!(lat.count, 1);
    }

    #[test]
    fn snapshot_merge_accumulates_and_inserts() {
        let a = MetricsRegistry::new();
        a.counter("shared_total").add(3);
        a.gauge("level").set(1.0);
        a.histogram("lat", &[1.0]).observe(0.5);
        let mut merged = a.snapshot();

        let b = MetricsRegistry::new();
        b.counter("shared_total").add(4);
        b.counter("only_b_total").add(2);
        b.gauge("level").set(9.0);
        let hb = b.histogram("lat", &[1.0]);
        hb.observe(0.5);
        hb.observe(7.0);
        merged.merge(&b.snapshot());

        assert_eq!(merged.counter_value("shared_total", &[]), Some(7));
        assert_eq!(merged.counter_value("only_b_total", &[]), Some(2));
        // Self's gauge level wins; it is the fresher reading.
        assert_eq!(merged.gauge_value("level", &[]), Some(1.0));
        let lat = merged.histogram_value("lat", &[]).expect("histogram");
        assert_eq!(lat.counts, vec![2, 1]);
        assert_eq!(lat.count, 3);
        assert_eq!(lat.max, 7.0);
    }

    #[test]
    fn metric_key_rendering() {
        assert_eq!(MetricKey::new("a", &[]).render(), "a");
        assert_eq!(
            MetricKey::new("a", &[("b", "1"), ("a", "2")]).render(),
            "a{a=\"2\",b=\"1\"}"
        );
        assert_eq!(
            MetricKey::new("a", &[("t", "x")]).render_with_extra(Some(("le", "+Inf"))),
            "a{t=\"x\",le=\"+Inf\"}"
        );
    }
}

//! Serve-path telemetry: cached metric handles and recording helpers.
//!
//! Each task head (cardinality, index, bloom) owns one lazily initialized
//! [`ServeTele`] bundle of handles into the global
//! [`setlearn_obs::MetricsRegistry`], resolved once and then recorded
//! through lock-free. Metric families (all labeled `task="…"`):
//!
//! - `setlearn_serve_queries_total` — queries answered (counter)
//! - `setlearn_serve_latency_seconds` — per-query serve latency (histogram;
//!   single-query paths only, batch paths count queries without latency)
//! - `setlearn_serve_fallbacks_total` — guard rejections, additionally
//!   labeled `reason="non_finite"|"out_of_bounds"` (counter)
//! - `setlearn_serve_bound_misses_total` — index scans that exhausted their
//!   local-error window without a hit (counter; `task="index"` only)
//! - `setlearn_infer_precision` — which inference kernel is live, as a
//!   one-hot gauge family labeled `precision="f32"|"f16"|"q8"` (the live
//!   kernel's gauge reads 1, the others 0)
//!
//! Every fallback also emits a `serve_fallback` trace event; at
//! [`setlearn_obs::TelemetryLevel::Full`] each single query additionally
//! records a `serve_query` span.

use crate::hybrid::FallbackReason;
use crate::kernel::Precision;
use setlearn_obs::{Counter, Field, Gauge, Histogram, LATENCY_BOUNDS};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Cached serve-metric handles for one task head.
pub(crate) struct ServeTele {
    task: &'static str,
    queries: Arc<Counter>,
    latency: Arc<Histogram>,
    fallback_non_finite: Arc<Counter>,
    fallback_out_of_bounds: Arc<Counter>,
    bound_misses: Arc<Counter>,
    /// One-hot precision gauges, indexed by [`Precision::to_byte`].
    infer_precision: [Arc<Gauge>; 3],
}

impl ServeTele {
    fn new(task: &'static str) -> Self {
        let m = setlearn_obs::metrics();
        ServeTele {
            task,
            queries: m.counter_with("setlearn_serve_queries_total", &[("task", task)]),
            latency: m.histogram_with(
                "setlearn_serve_latency_seconds",
                &[("task", task)],
                LATENCY_BOUNDS,
            ),
            fallback_non_finite: m.counter_with(
                "setlearn_serve_fallbacks_total",
                &[("task", task), ("reason", "non_finite")],
            ),
            fallback_out_of_bounds: m.counter_with(
                "setlearn_serve_fallbacks_total",
                &[("task", task), ("reason", "out_of_bounds")],
            ),
            bound_misses: m
                .counter_with("setlearn_serve_bound_misses_total", &[("task", task)]),
            infer_precision: [Precision::F32, Precision::F16, Precision::Q8].map(|p| {
                m.gauge_with(
                    "setlearn_infer_precision",
                    &[("task", task), ("precision", precision_str(p))],
                )
            }),
        }
    }

    /// Records a frozen-kernel pass: marks `precision` as the live kernel
    /// (one-hot across the gauge family).
    pub(crate) fn record_kernel(&self, precision: Precision) {
        if !setlearn_obs::metrics_on() {
            return;
        }
        for (i, g) in self.infer_precision.iter().enumerate() {
            g.set(if i == precision.to_byte() as usize { 1.0 } else { 0.0 });
        }
    }

    /// Records one single-query serve: query count, latency, any guard
    /// fallback, and (at `Full`) a `serve_query` span. `start` comes from
    /// [`query_start`]; when telemetry was off at query start this is a
    /// no-op, so a query is never half-recorded.
    pub(crate) fn record_query(&self, start: Option<Instant>, fallback: Option<FallbackReason>) {
        let Some(start) = start else { return };
        let elapsed = start.elapsed();
        self.queries.inc();
        self.latency.observe(elapsed.as_secs_f64());
        if let Some(reason) = fallback {
            self.count_fallback(reason);
        }
        if setlearn_obs::tracing_on() {
            let tracer = setlearn_obs::tracer();
            let dur_us = elapsed.as_micros() as u64;
            let start_us = tracer.now_us().saturating_sub(dur_us);
            let mut fields = vec![Field::text("task", self.task)];
            if let Some(reason) = fallback {
                fields.push(Field::text("fallback", reason_str(reason)));
            }
            tracer.push_span("serve_query", start_us, fields);
        }
    }

    /// Records a batched serve: `n` queries without per-query latency.
    pub(crate) fn record_batch(&self, n: usize, fallbacks: &[FallbackReason]) {
        if !setlearn_obs::metrics_on() {
            return;
        }
        self.queries.add(n as u64);
        for &reason in fallbacks {
            self.count_fallback(reason);
        }
    }

    /// Records an index scan that exhausted its local-error window without
    /// finding the query — either the bound failed to cover the true
    /// position or the subset genuinely does not occur; both are worth
    /// watching because true negatives should be rare for index workloads.
    pub(crate) fn record_bound_miss(&self) {
        if setlearn_obs::metrics_on() {
            self.bound_misses.inc();
        }
    }

    fn count_fallback(&self, reason: FallbackReason) {
        match reason {
            FallbackReason::NonFinite => self.fallback_non_finite.inc(),
            FallbackReason::OutOfBounds => self.fallback_out_of_bounds.inc(),
        }
        // Fallbacks are rare by construction, so the event is recorded at
        // the default Metrics level, not just Full.
        setlearn_obs::tracer().push_event(
            "serve_fallback",
            vec![
                Field::text("task", self.task),
                Field::text("reason", reason_str(reason)),
            ],
        );
    }
}

fn precision_str(p: Precision) -> &'static str {
    match p {
        Precision::F32 => "f32",
        Precision::F16 => "f16",
        Precision::Q8 => "q8",
    }
}

fn reason_str(reason: FallbackReason) -> &'static str {
    match reason {
        FallbackReason::NonFinite => "non_finite",
        FallbackReason::OutOfBounds => "out_of_bounds",
    }
}

/// Starts timing a single query; `None` when telemetry is off so the serve
/// hot path skips the clock read entirely.
pub(crate) fn query_start() -> Option<Instant> {
    if setlearn_obs::metrics_on() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Serve telemetry for the cardinality estimator.
pub(crate) fn cardinality_tele() -> &'static ServeTele {
    static TELE: OnceLock<ServeTele> = OnceLock::new();
    TELE.get_or_init(|| ServeTele::new("cardinality"))
}

/// Serve telemetry for the learned set index.
pub(crate) fn index_tele() -> &'static ServeTele {
    static TELE: OnceLock<ServeTele> = OnceLock::new();
    TELE.get_or_init(|| ServeTele::new("index"))
}

/// Serve telemetry for the learned Bloom filter.
pub(crate) fn bloom_tele() -> &'static ServeTele {
    static TELE: OnceLock<ServeTele> = OnceLock::new();
    TELE.get_or_init(|| ServeTele::new("bloom"))
}

/// Cached WAL metric handles (unlabeled; the WAL is shared across tasks).
///
/// - `setlearn_wal_appends_total` — records durably appended
/// - `setlearn_wal_replayed_records_total` — records replayed at recovery
/// - `setlearn_wal_truncated_tail_total` — damage sites truncated/discarded
/// - `setlearn_wal_segments_sealed_total` — segment rotations
/// - `setlearn_wal_compactions_total` — completed compactions
///
/// Every truncation additionally emits a `wal_truncated_tail` trace event
/// (at the default `Metrics` level — damage is rare and always worth a
/// record); each recovery records a `wal_replay` span.
pub(crate) struct WalTele {
    appends: Arc<Counter>,
    replayed: Arc<Counter>,
    truncated: Arc<Counter>,
    sealed: Arc<Counter>,
    compactions: Arc<Counter>,
}

impl WalTele {
    fn new() -> Self {
        let m = setlearn_obs::metrics();
        WalTele {
            appends: m.counter_with("setlearn_wal_appends_total", &[]),
            replayed: m.counter_with("setlearn_wal_replayed_records_total", &[]),
            truncated: m.counter_with("setlearn_wal_truncated_tail_total", &[]),
            sealed: m.counter_with("setlearn_wal_segments_sealed_total", &[]),
            compactions: m.counter_with("setlearn_wal_compactions_total", &[]),
        }
    }

    /// One record made durable.
    pub(crate) fn record_append(&self) {
        if setlearn_obs::metrics_on() {
            self.appends.inc();
        }
    }

    /// One recovery pass: `replayed` surviving records, plus a `wal_replay`
    /// span when tracing.
    pub(crate) fn record_replay(&self, replayed: usize, truncated: bool, took: std::time::Duration) {
        if !setlearn_obs::metrics_on() {
            return;
        }
        self.replayed.add(replayed as u64);
        if setlearn_obs::tracing_on() {
            let tracer = setlearn_obs::tracer();
            let dur_us = took.as_micros() as u64;
            let start_us = tracer.now_us().saturating_sub(dur_us);
            tracer.push_span(
                "wal_replay",
                start_us,
                vec![
                    Field::num("replayed", replayed as f64),
                    Field::num("truncated", u64::from(truncated) as f64),
                ],
            );
        }
    }

    /// One damage site handled by truncation (or discard). `valid_len` is
    /// the byte length the segment was cut back to (0 when removed).
    pub(crate) fn record_truncated_tail(&self, segment: u64, valid_len: u64, reason: &str) {
        if !setlearn_obs::metrics_on() {
            return;
        }
        self.truncated.inc();
        setlearn_obs::tracer().push_event(
            "wal_truncated_tail",
            vec![
                Field::num("segment", segment as f64),
                Field::num("valid_len", valid_len as f64),
                Field::text("reason", reason),
            ],
        );
    }

    /// One segment rotation.
    pub(crate) fn record_seal(&self) {
        if setlearn_obs::metrics_on() {
            self.sealed.inc();
        }
    }

    /// One completed compaction: `applied` records folded into the new
    /// checkpoint.
    pub(crate) fn record_compaction(&self, applied: u64) {
        if !setlearn_obs::metrics_on() {
            return;
        }
        self.compactions.inc();
        setlearn_obs::tracer().push_event(
            "wal_compaction",
            vec![Field::num("applied_records", applied as f64)],
        );
    }
}

/// WAL telemetry bundle (process-wide; the registry handles are interned so
/// multiple logs share the same counters).
pub(crate) fn wal_tele() -> &'static WalTele {
    static TELE: OnceLock<WalTele> = OnceLock::new();
    TELE.get_or_init(WalTele::new)
}

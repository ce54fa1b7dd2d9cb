//! Serve-path telemetry: cached metric handles and recording helpers.
//!
//! Each task head (cardinality, index, bloom) owns one lazily initialized
//! [`ServeTele`] bundle of handles into the global
//! [`setlearn_obs::MetricsRegistry`], resolved once and then recorded
//! through lock-free. Metric families (all labeled `task="…"`):
//!
//! - `setlearn_serve_queries_total` — queries answered (counter)
//! - `setlearn_serve_fallbacks_total` — guard rejections, additionally
//!   labeled `reason="non_finite"|"out_of_bounds"` (counter)
//! - `setlearn_serve_bound_misses_total` — index scans that exhausted their
//!   local-error window without a hit (counter; `task="index"` only)
//! - `setlearn_infer_precision` — which inference kernel is live, as a
//!   one-hot gauge family labeled `precision="f32"|"q8"` (the live
//!   kernel's gauge reads 1, the other 0)
//!
//! Every answer path is a batch (a single query is a batch of one), so each
//! batch records once; every fallback also emits a `serve_fallback` trace
//! event. Serve latency is the runtime's `setlearn_serve_batch_seconds`.

use crate::hybrid::FallbackReason;
use crate::kernel::Precision;
use setlearn_obs::{Counter, Field, Gauge};
use std::sync::{Arc, OnceLock};

/// Cached serve-metric handles for one task head.
pub(crate) struct ServeTele {
    task: &'static str,
    queries: Arc<Counter>,
    fallback_non_finite: Arc<Counter>,
    fallback_out_of_bounds: Arc<Counter>,
    bound_misses: Arc<Counter>,
    /// One-hot precision gauges, in [`Precision::ALL`] order.
    infer_precision: [Arc<Gauge>; 2],
}

impl ServeTele {
    fn new(task: &'static str) -> Self {
        let m = setlearn_obs::metrics();
        ServeTele {
            task,
            queries: m.counter_with("setlearn_serve_queries_total", &[("task", task)]),
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
            infer_precision: Precision::ALL.map(|p| {
                m.gauge_with(
                    "setlearn_infer_precision",
                    &[("task", task), ("precision", &p.to_string())],
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
        for (p, g) in Precision::ALL.iter().zip(&self.infer_precision) {
            g.set(if *p == precision { 1.0 } else { 0.0 });
        }
    }

    /// Records one answered batch: `n` queries, their guard fallbacks, and
    /// `bound_misses` index scans that exhausted their local-error window
    /// without a hit (the bound did not cover the true position, or the
    /// subset is absent; true negatives should be rare for index workloads).
    pub(crate) fn record_batch(
        &self,
        n: usize,
        fallbacks: impl Iterator<Item = FallbackReason>,
        bound_misses: usize,
    ) {
        if !setlearn_obs::metrics_on() {
            return;
        }
        self.queries.add(n as u64);
        for reason in fallbacks {
            self.count_fallback(reason);
        }
        if bound_misses > 0 {
            self.bound_misses.add(bound_misses as u64);
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

fn reason_str(reason: FallbackReason) -> &'static str {
    match reason {
        FallbackReason::NonFinite => "non_finite",
        FallbackReason::OutOfBounds => "out_of_bounds",
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

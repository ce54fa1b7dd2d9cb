//! WAL telemetry: one lazily initialized bundle of handles into the global
//! [`setlearn_obs::MetricsRegistry`], resolved once and then recorded
//! through lock-free.
//!
//! The serve-path families (`setlearn_serve_fallbacks_total`,
//! `setlearn_serve_bound_misses_total`, `setlearn_infer_precision`) are not
//! here: the serve runtime records each answer's degradation flags once,
//! per collection, off the outcomes it returns, so a structure and its
//! guard count nothing.

use setlearn_obs::{Counter, Field};
use std::sync::{Arc, OnceLock};

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

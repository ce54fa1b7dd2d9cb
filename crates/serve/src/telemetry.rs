//! Runtime telemetry: cached handles into the global
//! [`setlearn_obs::MetricsRegistry`], resolved once per runtime and recorded
//! through lock-free on the batch path.
//!
//! Metric families (all labeled `task="…"`; a registry tenant's runtime
//! additionally carries `collection="…"`):
//!
//! - `setlearn_serve_queue_depth` — requests buffered right after each
//!   batch was taken (gauge)
//! - `setlearn_serve_batch_size` — requests per executed batch (histogram)
//! - `setlearn_serve_queue_wait_seconds` — admission → dequeue wait per
//!   request (histogram)
//! - `setlearn_serve_batch_seconds` — `serve_batch` execution time
//!   (histogram)
//! - `setlearn_serve_completed_total` — requests answered (counter)
//! - `setlearn_serve_fallbacks_total` — answers whose model output the
//!   serve guard rejected, additionally labeled
//!   `reason="non_finite"|"out_of_bounds"` (counter)
//! - `setlearn_serve_bound_misses_total` — index answers whose scan window
//!   was exhausted without a hit (counter)
//! - `setlearn_serve_shed_total` — requests refused at admission (counter)
//! - `setlearn_serve_batches_total` — batches executed (counter)
//! - `setlearn_serve_swaps_total` — retrained models a compaction
//!   installed (counter)
//!
//! The fallback and bound-miss counters are read off the answers the worker
//! returns, so each answer counts once however many shards or overlay parts
//! it folds. A registry tenant also gets `setlearn_infer_precision` — which
//! kernel serves it, as a one-hot gauge labeled `precision="f32"|"q8"` —
//! set once when the tenant becomes resident ([`record_precision`]).
//!
//! At [`setlearn_obs::TelemetryLevel::Full`] every executed batch records a
//! `serve_batch` span (fields: `task`, `batch`); every compaction swap
//! records a `model_swap` event and every fallback a `serve_fallback` event
//! (fields: `task`, `reason`, plus `collection`) at the default `Metrics`
//! level (both are rare and operationally interesting).

use setlearn::hybrid::FallbackReason;
use setlearn::tasks::LearnedSetStructure;
use setlearn::Precision;
use setlearn_obs::{Counter, Field, Gauge, Histogram, Stage, LATENCY_BOUNDS, STAGES, STAGE_COUNT};
use std::sync::Arc;
use std::time::Duration;

/// Batch-size buckets: powers of two up to 512 requests.
pub const BATCH_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0];

/// Cached handles into the `setlearn_request_stage_seconds` histogram
/// family: one series per [`Stage`], labelled `task` + `stage` (plus any
/// extra labels the owner carries, e.g. `collection`). This is the per-stage
/// latency breakdown a live scrape exposes.
pub(crate) struct StageTele {
    handles: [Arc<Histogram>; STAGE_COUNT],
}

impl StageTele {
    pub(crate) fn new(base: &[(&str, &str)]) -> Self {
        let m = setlearn_obs::metrics();
        let handles = STAGES.map(|stage| {
            let mut labels: Vec<(&str, &str)> = base.to_vec();
            labels.push(("stage", stage.label()));
            m.histogram_with("setlearn_request_stage_seconds", &labels, LATENCY_BOUNDS)
        });
        StageTele { handles }
    }

    pub(crate) fn record(&self, stage: Stage, duration: Duration) {
        if setlearn_obs::metrics_on() {
            self.handles[stage as usize].observe_duration(duration);
        }
    }
}

/// Cached metric handles for one serving runtime.
pub(crate) struct RuntimeTele {
    task: &'static str,
    collection: Option<String>,
    queue_depth: Arc<Gauge>,
    batch_size: Arc<Histogram>,
    queue_wait: Arc<Histogram>,
    batch_seconds: Arc<Histogram>,
    completed: Arc<Counter>,
    shed: Arc<Counter>,
    batches: Arc<Counter>,
    swaps: Arc<Counter>,
    /// Guard fallbacks, indexed by `FallbackReason as usize`.
    fallbacks: [Arc<Counter>; 2],
    bound_misses: Arc<Counter>,
    stages: StageTele,
}

/// The `reason` label of each [`FallbackReason`], indexed by `reason as usize`.
const REASON_LABELS: [&str; 2] = ["non_finite", "out_of_bounds"];

impl RuntimeTele {
    pub(crate) fn new(task: &'static str) -> Self {
        Self::build(task, None)
    }

    /// Handles for a runtime serving one named collection in a registry:
    /// every family gains a `collection` label. Cardinality of the label set
    /// is bounded by the registry's resident budget plus the obs registry's
    /// `MAX_SERIES_PER_FAMILY` overflow collapse.
    pub(crate) fn named(task: &'static str, collection: &str) -> Self {
        Self::build(task, Some(collection))
    }

    fn build(task: &'static str, collection: Option<&str>) -> Self {
        let m = setlearn_obs::metrics();
        let mut labels = vec![("task", task)];
        labels.extend(collection.map(|c| ("collection", c)));
        let l = labels.as_slice();
        RuntimeTele {
            task,
            collection: collection.map(str::to_string),
            queue_depth: m.gauge_with("setlearn_serve_queue_depth", l),
            batch_size: m.histogram_with("setlearn_serve_batch_size", l, BATCH_BOUNDS),
            queue_wait: m.histogram_with("setlearn_serve_queue_wait_seconds", l, LATENCY_BOUNDS),
            batch_seconds: m.histogram_with("setlearn_serve_batch_seconds", l, LATENCY_BOUNDS),
            completed: m.counter_with("setlearn_serve_completed_total", l),
            shed: m.counter_with("setlearn_serve_shed_total", l),
            batches: m.counter_with("setlearn_serve_batches_total", l),
            swaps: m.counter_with("setlearn_serve_swaps_total", l),
            fallbacks: REASON_LABELS.map(|reason| {
                let mut with_reason = labels.clone();
                with_reason.push(("reason", reason));
                m.counter_with("setlearn_serve_fallbacks_total", &with_reason)
            }),
            bound_misses: m.counter_with("setlearn_serve_bound_misses_total", l),
            stages: StageTele::new(l),
        }
    }

    /// Records one executed batch: size/depth/wait/duration metrics, the
    /// worker-side stage histograms (queue / batch_wait / inference), plus
    /// (at `Full`) a `serve_batch` span.
    pub(crate) fn record_batch(
        &self,
        batch: usize,
        queue_depth: usize,
        waits: &[Duration],
        batch_wait: Duration,
        duration: Duration,
    ) {
        if !setlearn_obs::metrics_on() {
            return;
        }
        self.batches.inc();
        self.completed.add(batch as u64);
        self.batch_size.observe(batch as f64);
        self.queue_depth.set(queue_depth as f64);
        self.batch_seconds.observe_duration(duration);
        self.stages.record(Stage::BatchWait, batch_wait);
        self.stages.record(Stage::Inference, duration);
        for wait in waits {
            self.queue_wait.observe_duration(*wait);
            self.stages.record(Stage::QueueWait, *wait);
        }
        if setlearn_obs::tracing_on() {
            let tracer = setlearn_obs::tracer();
            let dur_us = duration.as_micros() as u64;
            let start_us = tracer.now_us().saturating_sub(dur_us);
            tracer.push_span(
                "serve_batch",
                start_us,
                vec![
                    Field::text("task", self.task),
                    Field::num("batch", batch as f64),
                ],
            );
        }
    }

    /// Counts one batch's degraded answers, each once: a guard fallback by
    /// reason (plus a `serve_fallback` event) and an exhausted index window.
    pub(crate) fn record_degraded(
        &self,
        flags: impl Iterator<Item = (Option<FallbackReason>, bool)>,
    ) {
        if !setlearn_obs::metrics_on() {
            return;
        }
        for (fallback, bound_miss) in flags {
            if bound_miss {
                self.bound_misses.inc();
            }
            let Some(reason) = fallback else { continue };
            self.fallbacks[reason as usize].inc();
            let label = REASON_LABELS[reason as usize];
            let mut fields = vec![Field::text("task", self.task), Field::text("reason", label)];
            fields.extend(self.collection.as_deref().map(|c| Field::text("collection", c)));
            setlearn_obs::tracer().push_event("serve_fallback", fields);
        }
    }

    /// Records one request refused at admission.
    pub(crate) fn record_shed(&self) {
        if setlearn_obs::metrics_on() {
            self.shed.inc();
        }
    }

    /// Records compaction number `version` installing its retrained model
    /// (rare: event at the default level).
    pub(crate) fn record_swap(&self, version: u64) {
        if !setlearn_obs::metrics_on() {
            return;
        }
        self.swaps.inc();
        setlearn_obs::tracer().push_event(
            "model_swap",
            vec![
                Field::text("task", self.task),
                Field::num("version", version as f64),
                Field::text("reason", "compaction"),
            ],
        );
    }

}

/// Publishes the kernel precision `structure` serves tenant `collection`
/// at: one-hot across `setlearn_infer_precision{task, collection,
/// precision}`. The registry calls it once, as the tenant becomes resident;
/// a compaction retrains at the same precision.
pub(crate) fn record_precision<S: LearnedSetStructure>(collection: &str, structure: &S) {
    let Some(live) = structure.kernel_precision() else { return };
    if !setlearn_obs::metrics_on() {
        return;
    }
    let m = setlearn_obs::metrics();
    for p in Precision::ALL {
        let label = p.to_string();
        let l = [("task", S::NAME), ("collection", collection), ("precision", label.as_str())];
        m.gauge_with("setlearn_infer_precision", &l).set(if p == live { 1.0 } else { 0.0 });
    }
}

/// Cached metric handles for the TCP front-end. Every family carries
/// `transport="tcp"` (plus `task` for the served task), so dashboards can
/// split remote traffic from in-process serving:
///
/// - `setlearn_net_connections` — live client connections (gauge)
/// - `setlearn_net_bytes_in_total` / `setlearn_net_bytes_out_total` —
///   frame bytes read/written, headers included (counters)
/// - `setlearn_net_request_seconds` — frame receipt → response written, per
///   query frame (histogram)
/// - `setlearn_net_ingest_seconds` — frame receipt → ack written, per
///   ingest frame, WAL fsync included (histogram)
/// - `setlearn_net_protocol_errors_total` — malformed/refused frames, with
///   a `code` label naming the [`crate::proto::ErrorCode`] (counter)
pub(crate) struct NetTele {
    task: &'static str,
    collection: Option<String>,
    connections: Arc<Gauge>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    request_seconds: Arc<Histogram>,
    ingest_seconds: Arc<Histogram>,
    stages: StageTele,
}

impl NetTele {
    pub(crate) fn new(task: &'static str) -> Self {
        Self::build(task, None)
    }

    /// Handles scoped to one named collection: every family (and the
    /// per-call protocol-error counter) gains a `collection` label. The
    /// registry builds one of these per resident collection; series growth
    /// is bounded by the obs registry's `MAX_SERIES_PER_FAMILY` collapse.
    pub(crate) fn for_collection(task: &'static str, collection: &str) -> Self {
        Self::build(task, Some(collection.to_string()))
    }

    fn build(task: &'static str, collection: Option<String>) -> Self {
        let m = setlearn_obs::metrics();
        let mut l: Vec<(&str, &str)> = vec![("transport", "tcp"), ("task", task)];
        // Frame-side stages (decode / admission / encode) carry the bare
        // task label, matching the worker-side stage series.
        let mut stage_labels: Vec<(&str, &str)> = vec![("task", task)];
        if let Some(name) = collection.as_deref() {
            l.push(("collection", name));
            stage_labels.push(("collection", name));
        }
        NetTele {
            task,
            connections: m.gauge_with("setlearn_net_connections", &l),
            bytes_in: m.counter_with("setlearn_net_bytes_in_total", &l),
            bytes_out: m.counter_with("setlearn_net_bytes_out_total", &l),
            request_seconds: m.histogram_with("setlearn_net_request_seconds", &l, LATENCY_BOUNDS),
            ingest_seconds: m.histogram_with("setlearn_net_ingest_seconds", &l, LATENCY_BOUNDS),
            stages: StageTele::new(&stage_labels),
            collection,
        }
    }

    /// Records one frame-side stage sample (decode, admission, or encode).
    pub(crate) fn record_stage(&self, stage: Stage, duration: Duration) {
        self.stages.record(stage, duration);
    }

    pub(crate) fn connection_opened(&self) {
        if setlearn_obs::metrics_on() {
            self.connections.add(1.0);
        }
    }

    pub(crate) fn connection_closed(&self) {
        if setlearn_obs::metrics_on() {
            self.connections.add(-1.0);
        }
    }

    pub(crate) fn record_bytes_in(&self, n: usize) {
        if setlearn_obs::metrics_on() {
            self.bytes_in.add(n as u64);
        }
    }

    pub(crate) fn record_bytes_out(&self, n: usize) {
        if setlearn_obs::metrics_on() {
            self.bytes_out.add(n as u64);
        }
    }

    /// Records one answered query frame (receipt → response on the wire).
    pub(crate) fn record_request(&self, task: &str, duration: Duration) {
        if !setlearn_obs::metrics_on() {
            return;
        }
        debug_assert_eq!(task, self.task, "a handler serves exactly one task");
        self.request_seconds.observe_duration(duration);
    }

    /// Records one acknowledged ingest frame (receipt → ack on the wire,
    /// WAL fsync included). Ingest rides the served task's connection, so
    /// it gets its own histogram rather than the query one.
    pub(crate) fn record_ingest(&self, duration: Duration) {
        if setlearn_obs::metrics_on() {
            self.ingest_seconds.observe_duration(duration);
        }
    }

    /// Counts one refused frame under its stable error-code label. Resolved
    /// per call — refusals are rare, and the registry interns handles.
    pub(crate) fn record_protocol_error(&self, code: crate::proto::ErrorCode) {
        if !setlearn_obs::metrics_on() {
            return;
        }
        let mut l: Vec<(&str, &str)> =
            vec![("transport", "tcp"), ("task", self.task), ("code", code.label())];
        if let Some(name) = self.collection.as_deref() {
            l.push(("collection", name));
        }
        setlearn_obs::metrics().counter_with("setlearn_net_protocol_errors_total", &l).inc();
    }
}

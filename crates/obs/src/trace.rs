//! Structured tracing: spans and events with monotonic timestamps, collected
//! into a bounded ring buffer and exportable as JSONL.
//!
//! Every record carries `ts_us` — microseconds since the collector's epoch
//! (an `Instant` captured at construction), so timestamps are monotonic and
//! immune to wall-clock jumps. Records are serialized one JSON object per
//! line; the schema is documented on [`TraceRecord`].

use crate::metrics::MetricsRegistry;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One key/value attached to a trace record. Exactly one of `num`/`text` is
/// set (a struct instead of an enum keeps the JSONL schema flat and easy to
/// grep).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Field {
    /// Field name.
    pub key: String,
    /// Numeric payload, if the field is numeric.
    #[serde(default)]
    pub num: Option<f64>,
    /// Text payload, if the field is textual.
    #[serde(default)]
    pub text: Option<String>,
}

impl Field {
    /// Numeric field.
    pub fn num(key: &str, v: f64) -> Self {
        Field { key: key.to_string(), num: Some(v), text: None }
    }

    /// Text field.
    pub fn text(key: &str, v: &str) -> Self {
        Field { key: key.to_string(), num: None, text: Some(v.to_string()) }
    }
}

/// Record kind discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A timed region with a duration (`dur_us` is set).
    Span,
    /// A point-in-time occurrence (`dur_us` is `None`).
    Event,
}

// Hand-written impls: the trace schema uses lowercase kind strings
// ("span"/"event") and the vendored serde derive has no `rename_all`.
impl Serialize for RecordKind {
    fn serialize(&self) -> serde::Value {
        serde::Value::String(
            match self {
                RecordKind::Span => "span",
                RecordKind::Event => "event",
            }
            .to_string(),
        )
    }
}

impl Deserialize for RecordKind {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        match v.as_str() {
            Some("span") => Ok(RecordKind::Span),
            Some("event") => Ok(RecordKind::Event),
            Some(other) => Err(serde::Error::custom(format!(
                "unknown record kind `{other}` (expected `span` or `event`)"
            ))),
            None => Err(serde::Error::type_mismatch("string", v)),
        }
    }
}

/// One line of the JSONL trace.
///
/// Schema (stable, documented in DESIGN.md):
/// `{"kind":"span"|"event","name":...,"ts_us":...,"dur_us":...?,"fields":[{"key":...,"num":...?,"text":...?},...]}`
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Span or event.
    pub kind: RecordKind,
    /// Record name (e.g. `train_epoch`, `serve_batch`, `serve_fallback`).
    pub name: String,
    /// Microseconds since the collector epoch (monotonic).
    pub ts_us: u64,
    /// Span duration in microseconds; `None` for events.
    #[serde(default)]
    pub dur_us: Option<u64>,
    /// Structured payload.
    #[serde(default)]
    pub fields: Vec<Field>,
}

/// Bounded ring-buffer collector for [`TraceRecord`]s.
///
/// Pushing is a short mutex-protected `VecDeque` operation; when the buffer
/// is full the oldest record is evicted and a drop counter incremented, so a
/// long-running server never grows without bound.
#[derive(Debug)]
pub struct TraceCollector {
    epoch: Instant,
    capacity: usize,
    records: Mutex<VecDeque<TraceRecord>>,
    dropped: AtomicU64,
}

impl TraceCollector {
    /// Creates a collector holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        TraceCollector {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            records: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            dropped: AtomicU64::new(0),
        }
    }

    /// Microseconds since the collector epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn push(&self, rec: TraceRecord) {
        let mut records = self.records.lock().unwrap_or_else(|e| e.into_inner());
        if records.len() >= self.capacity {
            records.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        records.push_back(rec);
    }

    /// Records an instantaneous event.
    pub fn push_event(&self, name: &str, fields: Vec<Field>) {
        let ts_us = self.now_us();
        self.push(TraceRecord {
            kind: RecordKind::Event,
            name: name.to_string(),
            ts_us,
            dur_us: None,
            fields,
        });
    }

    /// Records a completed span given its start timestamp (from
    /// [`TraceCollector::now_us`]).
    pub fn push_span(&self, name: &str, start_us: u64, fields: Vec<Field>) {
        let end = self.now_us();
        self.push(TraceRecord {
            kind: RecordKind::Span,
            name: name.to_string(),
            ts_us: start_us,
            dur_us: Some(end.saturating_sub(start_us)),
            fields,
        });
    }

    /// Starts a span; finish it with [`SpanGuard::finish`] (or let it drop to
    /// record with no extra fields).
    pub fn span<'a>(&'a self, name: &'a str) -> SpanGuard<'a> {
        SpanGuard { collector: self, name, start_us: self.now_us(), fields: Vec::new(), done: false }
    }

    /// Number of records evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the buffered records in arrival order.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Removes and returns all buffered records (used when flushing to a
    /// JSONL sink so the same records are not written twice).
    pub fn drain(&self) -> Vec<TraceRecord> {
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect()
    }
}

impl Default for TraceCollector {
    /// 8192-record collector, the capacity used by the global tracer.
    fn default() -> Self {
        TraceCollector::new(8192)
    }
}

/// RAII handle for an in-flight span. Accumulate fields with
/// [`SpanGuard::field_num`]/[`SpanGuard::field_text`]; the span is recorded
/// on [`SpanGuard::finish`] or on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    collector: &'a TraceCollector,
    name: &'a str,
    start_us: u64,
    fields: Vec<Field>,
    done: bool,
}

impl SpanGuard<'_> {
    /// Attaches a numeric field.
    pub fn field_num(&mut self, key: &str, v: f64) -> &mut Self {
        self.fields.push(Field::num(key, v));
        self
    }

    /// Attaches a text field.
    pub fn field_text(&mut self, key: &str, v: &str) -> &mut Self {
        self.fields.push(Field::text(key, v));
        self
    }

    /// Records the span now instead of at drop.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if !self.done {
            self.done = true;
            self.collector
                .push_span(self.name, self.start_us, std::mem::take(&mut self.fields));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.record();
    }
}

/// Serializes records as JSONL — one JSON object per line, trailing newline.
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        match serde_json::to_string(rec) {
            Ok(line) => {
                out.push_str(&line);
                out.push('\n');
            }
            Err(_) => {
                // A record that fails to serialize is dropped rather than
                // corrupting the sink; serde on these plain structs cannot
                // realistically fail.
            }
        }
    }
    out
}

/// Parses a JSONL trace back into records. Blank lines are skipped; a
/// malformed line yields an error naming its 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: TraceRecord = serde_json::from_str(line)
            .map_err(|e| format!("trace line {}: {}", i + 1, e))?;
        records.push(rec);
    }
    Ok(records)
}

/// Publishes collector health (buffered/dropped record counts) as gauges so
/// trace loss is itself observable.
pub fn publish_collector_metrics(collector: &TraceCollector, registry: &MetricsRegistry) {
    registry.gauge("setlearn_trace_buffered_records").set(collector.len() as f64);
    registry
        .gauge("setlearn_trace_dropped_records")
        .set(collector.dropped() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_and_spans_are_ordered_and_timed() {
        let tc = TraceCollector::new(16);
        tc.push_event("boot", vec![Field::text("mode", "test")]);
        {
            let mut span = tc.span("work");
            span.field_num("items", 3.0);
        } // drop records the span
        let recs = tc.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].kind, RecordKind::Event);
        assert_eq!(recs[0].name, "boot");
        assert!(recs[0].dur_us.is_none());
        assert_eq!(recs[1].kind, RecordKind::Span);
        assert!(recs[1].dur_us.is_some());
        assert!(recs[1].ts_us >= recs[0].ts_us);
        assert_eq!(recs[1].fields[0].key, "items");
        assert_eq!(recs[1].fields[0].num, Some(3.0));
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let tc = TraceCollector::new(3);
        for i in 0..5 {
            tc.push_event(&format!("e{i}"), Vec::new());
        }
        assert_eq!(tc.len(), 3);
        assert_eq!(tc.dropped(), 2);
        let names: Vec<_> = tc.records().into_iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["e2", "e3", "e4"]);
    }

    #[test]
    fn jsonl_roundtrip() {
        let tc = TraceCollector::new(8);
        tc.push_event("fallback", vec![Field::text("reason", "non_finite"), Field::num("q", 2.0)]);
        tc.span("serve_batch").finish();
        let text = to_jsonl(&tc.records());
        assert_eq!(text.lines().count(), 2);
        let back = parse_jsonl(&text).expect("parse");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "fallback");
        assert_eq!(back[0].fields[0].text.as_deref(), Some("non_finite"));
        assert_eq!(back[1].kind, RecordKind::Span);
    }

    #[test]
    fn parse_rejects_malformed_lines_with_position() {
        let err = parse_jsonl("{\"kind\":\"event\",\"name\":\"a\",\"ts_us\":1,\"fields\":[]}\nnot json\n")
            .unwrap_err();
        assert!(err.contains("line 2"), "got: {err}");
    }

    #[test]
    fn drain_empties_the_buffer() {
        let tc = TraceCollector::new(4);
        tc.push_event("a", Vec::new());
        tc.push_event("b", Vec::new());
        let drained = tc.drain();
        assert_eq!(drained.len(), 2);
        assert!(tc.is_empty());
    }

    #[test]
    fn collector_metrics_publish() {
        let tc = TraceCollector::new(1);
        tc.push_event("a", Vec::new());
        tc.push_event("b", Vec::new()); // evicts "a"
        let reg = MetricsRegistry::new();
        publish_collector_metrics(&tc, &reg);
        let snap = reg.snapshot();
        let buffered = snap.gauges.iter().find(|g| g.key.name == "setlearn_trace_buffered_records").unwrap();
        let dropped = snap.gauges.iter().find(|g| g.key.name == "setlearn_trace_dropped_records").unwrap();
        assert_eq!(buffered.value, 1.0);
        assert_eq!(dropped.value, 1.0);
    }
}

//! Slow-query log: a bounded ring of structured records for requests whose
//! total latency crossed a configurable threshold, plus the per-stage
//! taxonomy those records (and the stage-labelled histograms) share.
//!
//! The serving front-end owns one [`SlowQueryLog`] per server; records are
//! retrievable over the wire (the `SLP1` stats frame) and dumpable by the
//! CLI as JSONL. Recording is a threshold compare plus, for the slow
//! minority, one short mutex-guarded ring push — fast-path requests pay a
//! single `u64` load.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The stages a served request passes through, in order. Stage labels name
/// the series of the `setlearn_request_stage_seconds` histogram family and
/// the fields of a [`StageBreakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Wire bytes → decoded, canonicalized query batch.
    Decode = 0,
    /// Admission into the bounded queue (lock + shed decision).
    Admission = 1,
    /// Enqueued → picked up by a worker.
    QueueWait = 2,
    /// Batch head grabbed → batch fully assembled: the one non-blocking
    /// drain of what is already queued (no worker waits for company).
    BatchWait = 3,
    /// `serve_batch` execution.
    Inference = 4,
    /// Response encode + write to the wire.
    Encode = 5,
}

/// Number of stages in [`Stage`].
pub const STAGE_COUNT: usize = 6;

/// All stages, in pipeline order.
pub const STAGES: [Stage; STAGE_COUNT] = [
    Stage::Decode,
    Stage::Admission,
    Stage::QueueWait,
    Stage::BatchWait,
    Stage::Inference,
    Stage::Encode,
];

impl Stage {
    /// Stable label used in metrics, spans, and slow-query records.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Admission => "admission",
            Stage::QueueWait => "queue",
            Stage::BatchWait => "batch_wait",
            Stage::Inference => "inference",
            Stage::Encode => "encode",
        }
    }
}

/// Microseconds spent in each [`Stage`], as measured for one request.
///
/// Stages overlap with wall clock (a request waits in the queue while its
/// batch assembles), so the fields need not sum to the total latency; each
/// answers "where did the time go" for its own stage.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageBreakdown {
    /// Frame bytes → decoded, canonicalized batch.
    pub decode_us: u64,
    /// Admission into the bounded queue.
    pub admission_us: u64,
    /// Enqueued → dequeued by a worker (slowest query of the frame).
    pub queue_us: u64,
    /// Batch head grabbed → batch assembled.
    pub batch_wait_us: u64,
    /// `serve_batch` execution (slowest batch the frame's queries rode).
    pub inference_us: u64,
    /// Response encode + wire write.
    pub encode_us: u64,
}

impl StageBreakdown {
    /// Value for one stage.
    pub fn get(&self, stage: Stage) -> u64 {
        match stage {
            Stage::Decode => self.decode_us,
            Stage::Admission => self.admission_us,
            Stage::QueueWait => self.queue_us,
            Stage::BatchWait => self.batch_wait_us,
            Stage::Inference => self.inference_us,
            Stage::Encode => self.encode_us,
        }
    }

    /// Sets one stage's value.
    pub fn set(&mut self, stage: Stage, us: u64) {
        match stage {
            Stage::Decode => self.decode_us = us,
            Stage::Admission => self.admission_us = us,
            Stage::QueueWait => self.queue_us = us,
            Stage::BatchWait => self.batch_wait_us = us,
            Stage::Inference => self.inference_us = us,
            Stage::Encode => self.encode_us = us,
        }
    }
}

/// One slow request, as retained in the ring and exported as a JSONL line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowQueryRecord {
    /// Request trace id (client-supplied or server-minted).
    pub trace_id: u64,
    /// Served task label (`cardinality` / `index` / `bloom`).
    pub task: String,
    /// Total receipt → response-encoded latency, microseconds.
    pub total_us: u64,
    /// Canonicalized query set size.
    pub set_size: u32,
    /// The model answered via its guard fallback.
    pub fallback: bool,
    /// An index answer fell outside the learned bound (exact-path rescue).
    pub bound_miss: bool,
    /// Per-stage latency breakdown.
    pub stages: StageBreakdown,
}

/// Bounded ring of [`SlowQueryRecord`]s with a configurable latency
/// threshold. `u64::MAX` (the default) disables recording entirely.
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold_us: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<SlowQueryRecord>>,
    dropped: AtomicU64,
}

/// Default ring capacity.
pub const DEFAULT_SLOW_LOG_CAPACITY: usize = 256;

impl Default for SlowQueryLog {
    fn default() -> Self {
        SlowQueryLog::new(DEFAULT_SLOW_LOG_CAPACITY)
    }
}

impl SlowQueryLog {
    /// Creates a disabled log (threshold `u64::MAX`) holding up to
    /// `capacity` records; the oldest record is evicted on overflow.
    pub fn new(capacity: usize) -> Self {
        SlowQueryLog {
            threshold_us: AtomicU64::new(u64::MAX),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Sets the slow threshold in microseconds. `u64::MAX` disables.
    pub fn set_threshold_us(&self, us: u64) {
        self.threshold_us.store(us, Ordering::Relaxed);
    }

    /// Current threshold in microseconds (`u64::MAX` = disabled).
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us.load(Ordering::Relaxed)
    }

    /// Whether a request of `total_us` should be recorded. The fast-path
    /// check: one relaxed load and a compare.
    pub fn is_slow(&self, total_us: u64) -> bool {
        total_us >= self.threshold_us()
    }

    /// Pushes one record, evicting (and counting) the oldest on overflow.
    /// The threshold is *not* re-checked here: callers gate on
    /// [`SlowQueryLog::is_slow`] before building the record.
    pub fn record(&self, record: SlowQueryRecord) {
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Records evicted due to ring overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Buffered record count.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the buffered records, oldest first. Non-destructive, so
    /// repeated scrapes see a sliding window rather than racing each other.
    pub fn records(&self) -> Vec<SlowQueryRecord> {
        self.ring.lock().unwrap_or_else(|p| p.into_inner()).iter().cloned().collect()
    }

    /// Serializes the buffered records as JSONL, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in self.records() {
            if let Ok(line) = serde_json::to_string(&record) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

/// Parses JSONL produced by [`SlowQueryLog::to_jsonl`]; malformed lines are
/// errors (the format is machine-written).
pub fn parse_slow_jsonl(text: &str) -> Result<Vec<SlowQueryRecord>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("bad slow-query line: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(trace_id: u64, total_us: u64) -> SlowQueryRecord {
        SlowQueryRecord {
            trace_id,
            task: "cardinality".to_string(),
            total_us,
            set_size: 3,
            fallback: false,
            bound_miss: false,
            stages: StageBreakdown { queue_us: total_us / 2, ..StageBreakdown::default() },
        }
    }

    #[test]
    fn disabled_by_default_and_threshold_gates() {
        let log = SlowQueryLog::new(4);
        assert!(!log.is_slow(u64::MAX - 1));
        log.set_threshold_us(1000);
        assert!(!log.is_slow(999));
        assert!(log.is_slow(1000));
        assert!(log.is_slow(5000));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let log = SlowQueryLog::new(2);
        log.record(record(1, 10));
        log.record(record(2, 20));
        log.record(record(3, 30));
        assert_eq!(log.dropped(), 1);
        let ids: Vec<u64> = log.records().iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn jsonl_roundtrip_preserves_records() {
        let log = SlowQueryLog::new(8);
        let mut r = record(42, 1500);
        r.fallback = true;
        r.stages.inference_us = 700;
        log.record(r.clone());
        let text = log.to_jsonl();
        assert!(text.contains("\"trace_id\":42"));
        let back = parse_slow_jsonl(&text).expect("parse");
        assert_eq!(back, vec![r]);
    }

    #[test]
    fn stage_labels_are_stable_and_complete() {
        let labels: Vec<&str> = STAGES.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["decode", "admission", "queue", "batch_wait", "inference", "encode"]
        );
        let mut b = StageBreakdown::default();
        for (i, s) in STAGES.iter().enumerate() {
            b.set(*s, i as u64 + 1);
        }
        for (i, s) in STAGES.iter().enumerate() {
            assert_eq!(b.get(*s), i as u64 + 1);
        }
    }
}

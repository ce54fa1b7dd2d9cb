//! Per-request tracing context: a trace id plus a per-[`Stage`] latency
//! breakdown, threaded from frame decode through admission, the bounded
//! queue, batch assembly, `serve_batch`, and response encode.
//!
//! The context is shared (`Arc`) between the connection handler and the
//! worker(s) answering the frame's queries, which may ride different
//! batches; stage slots are atomics written with a max so the breakdown
//! reports the *slowest* query's queue wait and inference time — the one
//! that bounded the frame's latency.

use setlearn_obs::{Stage, StageBreakdown, STAGES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tracing context for one in-flight request.
#[derive(Debug)]
pub struct RequestCtx {
    /// Trace id: client-supplied (propagated from the query frame) or
    /// server-minted at frame decode.
    pub trace_id: u64,
    /// When the request's frame finished decoding.
    pub received_at: Instant,
    stages: [AtomicU64; setlearn_obs::STAGE_COUNT],
}

/// Monotonic source for server-minted trace ids. Odd ids are server-minted
/// (the counter starts at 1 and steps by 2) so they can never collide with
/// a client that derives its ids from an even sequence — and collisions
/// with arbitrary client ids remain the client's choice to avoid.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

impl RequestCtx {
    /// Context carrying a client-supplied trace id.
    pub fn with_trace_id(trace_id: u64) -> Arc<RequestCtx> {
        Arc::new(RequestCtx {
            trace_id,
            received_at: Instant::now(),
            stages: Default::default(),
        })
    }

    /// Context with a fresh server-minted (odd) trace id.
    pub fn mint() -> Arc<RequestCtx> {
        Self::with_trace_id(NEXT_TRACE_ID.fetch_add(2, Ordering::Relaxed))
    }

    /// Records time spent in `stage`, keeping the maximum across repeated
    /// records (per-query observations of the same stage across a frame).
    pub fn record_stage(&self, stage: Stage, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        self.stages[stage as usize].fetch_max(us, Ordering::Relaxed);
    }

    /// Microseconds recorded for one stage.
    pub fn stage_us(&self, stage: Stage) -> u64 {
        self.stages[stage as usize].load(Ordering::Relaxed)
    }

    /// Copies the recorded stages into a serializable breakdown.
    pub fn breakdown(&self) -> StageBreakdown {
        let mut out = StageBreakdown::default();
        for stage in STAGES {
            out.set(stage, self.stage_us(stage));
        }
        out
    }

    /// Microseconds since the frame finished decoding.
    pub fn total_us(&self) -> u64 {
        self.received_at.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_are_odd_and_unique() {
        let a = RequestCtx::mint();
        let b = RequestCtx::mint();
        assert_eq!(a.trace_id % 2, 1);
        assert_eq!(b.trace_id % 2, 1);
        assert_ne!(a.trace_id, b.trace_id);
    }

    #[test]
    fn stage_records_keep_the_maximum() {
        let ctx = RequestCtx::with_trace_id(42);
        assert_eq!(ctx.trace_id, 42);
        ctx.record_stage(Stage::QueueWait, Duration::from_micros(300));
        ctx.record_stage(Stage::QueueWait, Duration::from_micros(100));
        ctx.record_stage(Stage::Inference, Duration::from_micros(50));
        assert_eq!(ctx.stage_us(Stage::QueueWait), 300);
        let b = ctx.breakdown();
        assert_eq!(b.queue_us, 300);
        assert_eq!(b.inference_us, 50);
        assert_eq!(b.decode_us, 0);
    }
}

//! The serving runtime: a worker pool draining the bounded request queue
//! with natural (work-conserving) batching.
//!
//! ## Batching semantics
//!
//! Each worker blocks for the head of a new batch, takes whatever else is
//! already buffered — up to `max_batch` requests in all — in one grab, and
//! serves that batch at once. A batch closes the moment the queue is empty:
//! no worker ever waits for company while it could be serving. At idle a
//! lone request is served as soon as it is popped; under load requests pile
//! up while every worker is busy, so the next grab comes back full and the
//! model's batched forward pass amortizes embedding lookups and matmuls
//! across the whole batch.
//!
//! ## Backpressure
//!
//! Admission control happens at [`ServeRuntime::submit`]: a full queue sheds
//! the request with [`ServeError::Overloaded`] instead of buffering without
//! bound, so memory stays bounded by `queue_capacity` and clients see
//! overload immediately rather than as unbounded latency.
//!
//! ## Shutdown
//!
//! [`ServeRuntime::shutdown`] closes the queue (new submissions fail with
//! [`ServeError::ShuttingDown`]), lets the workers drain every request
//! already admitted, then joins them — admitted requests are never dropped.

use crate::error::ServeError;
use crate::queue::{BoundedQueue, PushError};
use crate::request::RequestCtx;
use crate::task::ServeTask;
use crate::telemetry::RuntimeTele;
use setlearn_obs::Stage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`ServeRuntime`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the queue.
    pub threads: usize,
    /// Maximum requests per batch (1 disables batching).
    pub max_batch: usize,
    /// Unread: a batch closes when the queue is empty, so there is no
    /// batching window left to configure. Kept only because the `benchmark/`
    /// package builds a `ServeConfig` struct literal; delete it with the next
    /// change there.
    pub max_delay: Duration,
    /// Bounded queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 4,
            max_batch: 64,
            max_delay: Duration::ZERO,
            queue_capacity: 1024,
        }
    }
}

impl ServeConfig {
    /// Rejects degenerate configurations.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("threads must be positive".into());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be positive".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be positive".into());
        }
        Ok(())
    }
}

/// Minimal oneshot rendezvous: a mutex-guarded slot plus a condvar, one
/// allocation per request (the `Arc`). On the submit/respond hot path this
/// is measurably cheaper than an `mpsc` channel pair — the per-request
/// dispatch cost is exactly what micro-batching exists to amortize, so the
/// runtime keeps its own floor low too.
struct OneshotSlot<R> {
    value: Mutex<Option<Result<R, ServeError>>>,
    ready: Condvar,
}

impl<R> OneshotSlot<R> {
    fn new() -> Arc<Self> {
        Arc::new(OneshotSlot { value: Mutex::new(None), ready: Condvar::new() })
    }

    /// First fill wins; later fills (e.g. the responder's drop guard after a
    /// successful send raced with nothing — defensive only) are ignored.
    fn fill(&self, result: Result<R, ServeError>) {
        let mut guard = self.value.lock().unwrap_or_else(|p| p.into_inner());
        if guard.is_none() {
            *guard = Some(result);
            drop(guard);
            self.ready.notify_one();
        }
    }
}

/// The worker-side half of a [`Ticket`]'s oneshot. If a worker dies before
/// answering (envelope dropped mid-flight), the drop guard fills
/// [`ServeError::WorkerLost`] so the waiting client never hangs.
struct Responder<R> {
    slot: Option<Arc<OneshotSlot<R>>>,
}

impl<R> Responder<R> {
    fn send(mut self, result: Result<R, ServeError>) {
        if let Some(slot) = self.slot.take() {
            slot.fill(result);
        }
    }
}

impl<R> Drop for Responder<R> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.fill(Err(ServeError::WorkerLost));
        }
    }
}

/// One queued request plus its response slot, admission timestamp, and
/// (for wire requests) its shared tracing context.
struct Envelope<T: ServeTask> {
    request: T::Request,
    enqueued: Instant,
    responder: Responder<T::Response>,
    ctx: Option<Arc<RequestCtx>>,
}

/// Handle to one in-flight request; redeem it with [`Ticket::wait`].
pub struct Ticket<R> {
    slot: Arc<OneshotSlot<R>>,
}

impl<R> std::fmt::Debug for Ticket<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl<R> Ticket<R> {
    /// Blocks until the runtime answers (or fails) this request.
    pub fn wait(self) -> Result<R, ServeError> {
        let mut guard = self.slot.value.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = self.slot.ready.wait(guard).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Runtime-local counters (distinct from the process-global metrics so
/// concurrent runtimes in one process don't blend).
#[derive(Debug, Default)]
pub struct ServeStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    batches: AtomicU64,
    panicked_batches: AtomicU64,
}

impl ServeStats {
    /// Requests admitted into the queue.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Requests answered (successfully or with a task panic error).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Requests refused at admission ([`ServeError::Overloaded`]).
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Batches executed.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Batches whose task panicked (caught; the batch failed with
    /// [`ServeError::TaskPanicked`]).
    pub fn panicked_batches(&self) -> u64 {
        self.panicked_batches.load(Ordering::Relaxed)
    }
}

/// Final accounting returned by [`ServeRuntime::shutdown`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests admitted.
    pub submitted: u64,
    /// Requests answered.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Batches that panicked (caught).
    pub panicked_batches: u64,
}

/// A concurrent serving runtime over one [`ServeTask`], which every worker
/// borrows. A task that changes under load (a mutable collection's
/// compaction) installs the change itself, behind its own lock.
pub struct ServeRuntime<T: ServeTask> {
    queue: Arc<BoundedQueue<Envelope<T>>>,
    task: Arc<T>,
    stats: Arc<ServeStats>,
    tele: Arc<RuntimeTele>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: ServeTask> ServeRuntime<T> {
    /// Starts `config.threads` workers serving `task`.
    ///
    /// # Panics
    /// If the configuration is degenerate (see [`ServeConfig::validate`]).
    pub fn start(task: T, config: ServeConfig) -> Self {
        Self::start_labeled(task, config, None)
    }

    /// [`ServeRuntime::start`] for one named collection in a registry:
    /// every metric this runtime records carries a `collection` label
    /// alongside the task label.
    pub fn start_named(task: T, config: ServeConfig, collection: &str) -> Self {
        Self::start_labeled(task, config, Some(collection))
    }

    /// The constructor behind both `start*`: every metric the runtime
    /// records carries the task label plus `collection` (one registry
    /// tenant) when given.
    fn start_labeled(task: T, config: ServeConfig, collection: Option<&str>) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid serve config: {e}");
        }
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let stats = Arc::new(ServeStats::default());
        let tele = Arc::new(match collection {
            Some(c) => RuntimeTele::named(T::NAME, c),
            None => RuntimeTele::new(T::NAME),
        });
        let task = Arc::new(task);
        let max_batch = config.max_batch;
        let workers = (0..config.threads)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let task = Arc::clone(&task);
                let stats = Arc::clone(&stats);
                let tele = Arc::clone(&tele);
                std::thread::spawn(move || worker_loop(queue, task, stats, tele, max_batch))
            })
            .collect();
        ServeRuntime { queue, task, stats, tele, workers }
    }

    /// Admits a request, returning a [`Ticket`] to redeem for the answer.
    /// Sheds with [`ServeError::Overloaded`] when the queue is full and
    /// [`ServeError::ShuttingDown`] once shutdown began.
    pub fn submit(&self, request: T::Request) -> Result<Ticket<T::Response>, ServeError> {
        let slot = OneshotSlot::new();
        let responder = Responder { slot: Some(Arc::clone(&slot)) };
        let envelope = Envelope { request, enqueued: Instant::now(), responder, ctx: None };
        match self.queue.try_push(envelope) {
            Ok(()) => {
                self.stats.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(Ticket { slot })
            }
            Err(PushError::Full(_)) => {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                self.tele.record_shed();
                Err(ServeError::Overloaded)
            }
            Err(PushError::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Bulk admission: enqueues the whole slice of requests under a single
    /// queue-lock acquisition and one shared admission timestamp, returning
    /// one [`Ticket`] outcome per request in order. Requests beyond the
    /// queue's free capacity are shed ([`ServeError::Overloaded`]); on a
    /// closed queue every request fails with [`ServeError::ShuttingDown`].
    ///
    /// Clients holding a vector of queries should prefer this over repeated
    /// [`ServeRuntime::submit`]: per-request lock round-trips are exactly
    /// the overhead micro-batching amortizes on the worker side, and this is
    /// the producer-side counterpart.
    pub fn submit_many<I>(&self, requests: I) -> Vec<Result<Ticket<T::Response>, ServeError>>
    where
        I: IntoIterator<Item = T::Request>,
    {
        self.submit_many_traced(requests.into_iter().map(|r| (r, None)))
    }

    /// [`ServeRuntime::submit_many`] with a per-request tracing context: the
    /// worker that serves each request records its queue-wait, batch-wait,
    /// and inference stages into the context. Requests without one
    /// (`None`) are served identically, just untraced.
    pub fn submit_many_traced<I>(
        &self,
        requests: I,
    ) -> Vec<Result<Ticket<T::Response>, ServeError>>
    where
        I: IntoIterator<Item = (T::Request, Option<Arc<RequestCtx>>)>,
    {
        let enqueued = Instant::now();
        let mut slots = Vec::new();
        let envelopes: Vec<Envelope<T>> = requests
            .into_iter()
            .map(|(request, ctx)| {
                let slot = OneshotSlot::new();
                slots.push(Arc::clone(&slot));
                Envelope { request, enqueued, responder: Responder { slot: Some(slot) }, ctx }
            })
            .collect();
        let (admitted, closed) = self.queue.try_push_many(envelopes);
        self.stats.submitted.fetch_add(admitted as u64, Ordering::Relaxed);
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                if i < admitted {
                    Ok(Ticket { slot })
                } else if closed {
                    Err(ServeError::ShuttingDown)
                } else {
                    self.stats.shed.fetch_add(1, Ordering::Relaxed);
                    self.tele.record_shed();
                    Err(ServeError::Overloaded)
                }
            })
            .collect()
    }

    /// Submit + wait: the synchronous convenience path.
    pub fn call(&self, request: T::Request) -> Result<T::Response, ServeError> {
        self.submit(request)?.wait()
    }

    /// The served task.
    pub(crate) fn task(&self) -> &T {
        &self.task
    }

    /// Live runtime counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Requests currently buffered.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Admission queue capacity (the shed threshold).
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Graceful drain: refuse new submissions, serve everything already
    /// admitted, join the workers, and return the final accounting.
    pub fn shutdown(mut self) -> ServeReport {
        self.queue.close();
        for worker in self.workers.drain(..) {
            // A worker that panicked outside the caught serve call still
            // must not poison shutdown accounting.
            let _ = worker.join();
        }
        ServeReport {
            submitted: self.stats.submitted(),
            completed: self.stats.completed(),
            shed: self.stats.shed(),
            batches: self.stats.batches(),
            panicked_batches: self.stats.panicked_batches(),
        }
    }
}

impl<T: ServeTask> Drop for ServeRuntime<T> {
    fn drop(&mut self) {
        // `shutdown` drains `workers`; a plain drop still closes the queue
        // and joins so no worker outlives the runtime.
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One worker: collect a batch, serve, respond.
fn worker_loop<T: ServeTask>(
    queue: Arc<BoundedQueue<Envelope<T>>>,
    task: Arc<T>,
    stats: Arc<ServeStats>,
    tele: Arc<RuntimeTele>,
    max_batch: usize,
) {
    // Head of the next batch: wait indefinitely, exit once closed and drained.
    while let Some(head) = queue.pop_blocking() {
        let head_at = Instant::now();
        let mut batch = Vec::with_capacity(max_batch.min(64));
        batch.push(head);
        // Whatever is already buffered joins the batch (one lock per batch);
        // an empty queue closes it, so nothing waits while a worker idles.
        queue.drain_into(&mut batch, max_batch - 1);

        let dequeued = Instant::now();
        let batch_wait = dequeued.duration_since(head_at);
        let waits: Vec<Duration> =
            batch.iter().map(|e| dequeued.duration_since(e.enqueued)).collect();
        let mut requests = Vec::with_capacity(batch.len());
        let mut responders = Vec::with_capacity(batch.len());
        let mut ctxs = Vec::with_capacity(batch.len());
        for e in batch {
            requests.push(e.request);
            responders.push(e.responder);
            ctxs.push(e.ctx);
        }
        for (ctx, wait) in ctxs.iter().zip(&waits) {
            if let Some(ctx) = ctx {
                ctx.record_stage(Stage::QueueWait, *wait);
                ctx.record_stage(Stage::BatchWait, batch_wait);
            }
        }

        let started = Instant::now();
        // A panicking task fails its batch but never kills the worker: the
        // queue keeps draining and other batches are unaffected.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.serve_batch(&requests)));
        let duration = started.elapsed();

        for ctx in ctxs.iter().flatten() {
            ctx.record_stage(Stage::Inference, duration);
        }

        stats.batches.fetch_add(1, Ordering::Relaxed);
        match outcome {
            Ok(responses) if responses.len() == requests.len() => {
                stats.completed.fetch_add(responses.len() as u64, Ordering::Relaxed);
                tele.record_batch(responses.len(), queue.len(), &waits, batch_wait, duration);
                tele.record_degraded(responses.iter().map(T::degradation));
                for (responder, response) in responders.into_iter().zip(responses) {
                    // A caller that dropped its ticket is not an error.
                    responder.send(Ok(response));
                }
            }
            Ok(responses) => {
                // Length contract violated: fail the batch loudly but keep
                // serving. (Counted like a panic — both are task bugs.)
                debug_assert_eq!(responses.len(), requests.len(), "serve_batch length contract");
                stats.panicked_batches.fetch_add(1, Ordering::Relaxed);
                for responder in responders {
                    responder.send(Err(ServeError::TaskPanicked));
                }
            }
            Err(_) => {
                stats.panicked_batches.fetch_add(1, Ordering::Relaxed);
                for responder in responders {
                    responder.send(Err(ServeError::TaskPanicked));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic toy task: doubles the request.
    struct Doubler;
    impl ServeTask for Doubler {
        type Request = u64;
        type Response = u64;
        const NAME: &'static str = "test_doubler";
        fn serve_batch(&self, requests: &[u64]) -> Vec<u64> {
            requests.iter().map(|r| r * 2).collect()
        }
    }

    /// Panics on request 13.
    struct Superstitious;
    impl ServeTask for Superstitious {
        type Request = u64;
        type Response = u64;
        const NAME: &'static str = "test_superstitious";
        fn serve_batch(&self, requests: &[u64]) -> Vec<u64> {
            assert!(!requests.contains(&13), "unlucky batch");
            requests.to_vec()
        }
    }

    fn quick_config() -> ServeConfig {
        ServeConfig { threads: 2, max_batch: 8, queue_capacity: 64, ..ServeConfig::default() }
    }

    #[test]
    fn answers_match_the_task() {
        // Queue sized for the whole burst: this test exercises correctness,
        // not shedding (overload has its own tests).
        let runtime =
            ServeRuntime::start(Doubler, ServeConfig { queue_capacity: 128, ..quick_config() });
        let tickets: Vec<_> = (0..100u64).map(|i| runtime.submit(i).unwrap()).collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.wait().unwrap(), i as u64 * 2);
        }
        let report = runtime.shutdown();
        assert_eq!(report.submitted, 100);
        assert_eq!(report.completed, 100);
        assert_eq!(report.shed, 0);
        assert!(report.batches <= 100);
    }

    #[test]
    fn submit_many_admits_in_order_and_sheds_the_overflow() {
        // One slow-to-start worker, tiny queue: the overflow is deterministic
        // because nothing can drain between admission and the length check.
        let runtime = ServeRuntime::start(
            Doubler,
            ServeConfig { threads: 1, queue_capacity: 4, ..quick_config() },
        );
        let outcomes = runtime.submit_many(0..10u64);
        assert_eq!(outcomes.len(), 10);
        let admitted = outcomes.iter().filter(|o| o.is_ok()).count();
        let shed = outcomes.iter().filter(|o| o.is_err()).count();
        // Admission is one atomic lock acquisition against an empty queue of
        // capacity 4: exactly the first 4 requests get in.
        assert_eq!(admitted, 4);
        assert_eq!(shed, 6);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(ticket) => assert_eq!(ticket.wait().unwrap(), i as u64 * 2),
                Err(e) => assert_eq!(e, ServeError::Overloaded),
            }
        }
        let report = runtime.shutdown();
        assert_eq!(report.shed, shed as u64);
        assert_eq!(report.submitted + report.shed, 10);
    }

    #[test]
    fn submit_many_after_shutdown_fails_every_request_typed() {
        let runtime = ServeRuntime::start(Doubler, quick_config());
        runtime.queue.close();
        for outcome in runtime.submit_many(0..3u64) {
            assert_eq!(outcome.unwrap_err(), ServeError::ShuttingDown);
        }
        runtime.shutdown();
    }

    #[test]
    fn call_is_submit_plus_wait() {
        let runtime = ServeRuntime::start(Doubler, quick_config());
        assert_eq!(runtime.call(21).unwrap(), 42);
        runtime.shutdown();
    }

    #[test]
    fn a_lone_request_is_served_without_waiting_for_company() {
        // Even a configured 5 s window must not delay a request that arrives
        // to an idle pool: the batch closes when the queue is empty.
        let runtime = ServeRuntime::start(
            Doubler,
            ServeConfig { threads: 1, max_delay: Duration::from_secs(5), ..quick_config() },
        );
        let started = Instant::now();
        assert_eq!(runtime.call(21).unwrap(), 42);
        assert!(started.elapsed() < Duration::from_secs(1), "took {:?}", started.elapsed());
        assert_eq!(runtime.shutdown().batches, 1);
    }

    #[test]
    fn a_buffered_burst_is_served_in_full_batches() {
        // One worker, one atomic admission of 24: each grab finds the queue
        // full enough to fill `max_batch`, so 24 requests ride in 3 batches.
        let runtime = ServeRuntime::start(
            Doubler,
            ServeConfig { threads: 1, max_batch: 8, ..quick_config() },
        );
        let outcomes = runtime.submit_many(0..24u64);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            assert_eq!(outcome.unwrap().wait().unwrap(), i as u64 * 2);
        }
        let report = runtime.shutdown();
        assert_eq!(report.completed, 24);
        assert_eq!(report.batches, 3);
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let runtime = ServeRuntime::start(Doubler, quick_config());
        let tickets: Vec<_> = (0..50u64).map(|i| runtime.submit(i).unwrap()).collect();
        let report = runtime.shutdown();
        assert_eq!(report.completed, 50, "every admitted request was served");
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.wait().unwrap(), i as u64 * 2);
        }
    }

    #[test]
    fn submissions_after_shutdown_began_fail_typed() {
        let runtime = ServeRuntime::start(Doubler, quick_config());
        // Close the queue out from under the handle to simulate the race.
        runtime.queue.close();
        assert_eq!(runtime.submit(1).unwrap_err(), ServeError::ShuttingDown);
        runtime.shutdown();
    }

    #[test]
    fn task_panic_fails_the_batch_but_not_the_worker() {
        let runtime = ServeRuntime::start(
            Superstitious,
            ServeConfig { threads: 1, max_batch: 1, ..quick_config() },
        );
        assert_eq!(runtime.call(13).unwrap_err(), ServeError::TaskPanicked);
        // The worker survived and keeps serving.
        assert_eq!(runtime.call(7).unwrap(), 7);
        let report = runtime.shutdown();
        assert_eq!(report.panicked_batches, 1);
        assert_eq!(report.completed, 1);
    }

    #[test]
    #[should_panic(expected = "invalid serve config")]
    fn zero_threads_rejected() {
        let _ = ServeRuntime::start(Doubler, ServeConfig { threads: 0, ..quick_config() });
    }
}

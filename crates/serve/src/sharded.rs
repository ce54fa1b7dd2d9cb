//! Sharded serving: one [`ServeRuntime`] (worker pool + hot-swap slot +
//! shard-labeled telemetry) per shard, with fan-out tickets aggregating
//! per-shard answers.
//!
//! Set-content queries cannot be routed to a single shard — any shard may
//! hold a matching set — so every request fans out to all shards and a
//! caller-supplied aggregator folds the per-shard responses (sum for
//! cardinality, first/last fold for the index, OR for membership; see
//! `setlearn::tasks::sharded` for the canonical aggregators).
//!
//! What sharding buys at serve time is *independent shard lifecycles*:
//! each shard has its own queue, worker pool, and [`HotSwap`] slot, so
//! [`ShardedRuntime::rolling_swap`] replaces models shard-by-shard — at any
//! instant at most one shard is transitioning and in-flight batches finish
//! on their old snapshot. The collection is never paused as a whole.

use crate::error::ServeError;
use crate::hotswap::HotSwap;
use crate::request::RequestCtx;
use crate::runtime::{ServeConfig, ServeReport, ServeRuntime, Ticket};
use crate::task::ServeTask;
use setlearn_obs::Stage;
use std::sync::Arc;
use std::time::Instant;

/// Folds per-shard responses (in shard order) into one client answer.
pub type Aggregator<R> = Arc<dyn Fn(Vec<R>) -> R + Send + Sync>;

/// Handle to one fanned-out request: one [`Ticket`] per shard, redeemed
/// together by [`FanoutTicket::wait`].
pub struct FanoutTicket<R> {
    tickets: Vec<Ticket<R>>,
    aggregate: Aggregator<R>,
    ctx: Option<Arc<RequestCtx>>,
}

impl<R> std::fmt::Debug for FanoutTicket<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutTicket").field("shards", &self.tickets.len()).finish()
    }
}

impl<R> FanoutTicket<R> {
    /// Blocks until every shard answered, then aggregates. The first shard
    /// failure (panicked batch, lost worker) fails the whole request.
    ///
    /// When a tracing context rides the fan-out, the fold itself is timed
    /// into [`Stage::Aggregate`]; each shard's queue wait and inference time
    /// were already recorded into the shared context by the shard workers
    /// (max-folded, so the breakdown names the slowest shard).
    pub fn wait(self) -> Result<R, ServeError> {
        let mut parts = Vec::with_capacity(self.tickets.len());
        for ticket in self.tickets {
            parts.push(ticket.wait()?);
        }
        let started = self.ctx.as_deref().map(|_| Instant::now());
        let answer = (self.aggregate)(parts);
        if let (Some(ctx), Some(started)) = (self.ctx.as_deref(), started) {
            ctx.record_stage(Stage::Aggregate, started.elapsed());
        }
        Ok(answer)
    }
}

/// Final accounting from [`ShardedRuntime::shutdown`], one report per shard.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Per-shard reports, in shard order.
    pub per_shard: Vec<ServeReport>,
}

impl ShardedReport {
    /// Sub-requests admitted across shards.
    pub fn submitted(&self) -> u64 {
        self.per_shard.iter().map(|r| r.submitted).sum()
    }

    /// Sub-requests answered across shards.
    pub fn completed(&self) -> u64 {
        self.per_shard.iter().map(|r| r.completed).sum()
    }

    /// Sub-requests shed at admission across shards.
    pub fn shed(&self) -> u64 {
        self.per_shard.iter().map(|r| r.shed).sum()
    }

    /// Hot-swaps observed across shards.
    pub fn swaps(&self) -> u64 {
        self.per_shard.iter().map(|r| r.swaps).sum()
    }

    /// Batches whose task panicked, across shards.
    pub fn panicked_batches(&self) -> u64 {
        self.per_shard.iter().map(|r| r.panicked_batches).sum()
    }
}

/// A serving runtime over N per-shard tasks: per-shard pools, fan-out
/// submission, rolling hot-swap.
pub struct ShardedRuntime<T: ServeTask> {
    shards: Vec<ServeRuntime<T>>,
    aggregate: Aggregator<T::Response>,
}

impl<T: ServeTask> ShardedRuntime<T>
where
    T::Request: Clone,
{
    /// Starts one worker pool per task in `tasks` (shard order). The
    /// config's thread budget is split evenly across shards (at least one
    /// worker each); every shard keeps the full queue capacity because
    /// fan-out delivers every request to every shard.
    ///
    /// # Panics
    /// If `tasks` is empty or the per-shard configuration is degenerate.
    pub fn start(
        tasks: Vec<T>,
        config: ServeConfig,
        aggregate: impl Fn(Vec<T::Response>) -> T::Response + Send + Sync + 'static,
    ) -> Self {
        Self::start_inner(tasks, config, Arc::new(aggregate), None)
    }

    /// [`ShardedRuntime::start`] for one named collection in a registry:
    /// every per-shard metric additionally carries a `collection` label.
    pub fn start_named(
        tasks: Vec<T>,
        config: ServeConfig,
        aggregate: impl Fn(Vec<T::Response>) -> T::Response + Send + Sync + 'static,
        collection: &str,
    ) -> Self {
        Self::start_inner(tasks, config, Arc::new(aggregate), Some(collection))
    }

    fn start_inner(
        tasks: Vec<T>,
        config: ServeConfig,
        aggregate: Aggregator<T::Response>,
        collection: Option<&str>,
    ) -> Self {
        assert!(!tasks.is_empty(), "need at least one shard task");
        let per_shard =
            ServeConfig { threads: (config.threads / tasks.len()).max(1), ..config };
        let shards = tasks
            .into_iter()
            .enumerate()
            .map(|(s, task)| {
                let slot = Arc::new(HotSwap::new(task));
                ServeRuntime::start_labeled(slot, per_shard.clone(), Some(s), collection)
            })
            .collect();
        ShardedRuntime { shards, aggregate }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s runtime (stats, queue depth, hot-swap slot).
    pub fn shard(&self, s: usize) -> &ServeRuntime<T> {
        &self.shards[s]
    }

    /// Fans one request out to every shard. If any shard sheds or refuses,
    /// the whole submission fails with that error; sub-requests already
    /// admitted still complete on their shards (their tickets are dropped,
    /// not torn), so per-shard accounting stays exact.
    pub fn submit(&self, request: T::Request) -> Result<FanoutTicket<T::Response>, ServeError> {
        let mut tickets = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            tickets.push(shard.submit(request.clone())?);
        }
        Ok(FanoutTicket { tickets, aggregate: Arc::clone(&self.aggregate), ctx: None })
    }

    /// Bulk fan-out: each shard admits the whole slice under one queue-lock
    /// acquisition. Per request, the outcome is a fan-out ticket if every
    /// shard admitted it, else the first shard error (partially admitted
    /// sub-requests still complete on their shards).
    pub fn submit_many(
        &self,
        requests: &[T::Request],
    ) -> Vec<Result<FanoutTicket<T::Response>, ServeError>> {
        self.submit_many_traced(requests.iter().map(|r| (r.clone(), None)))
    }

    /// Bulk fan-out with per-request tracing contexts. Every shard receives
    /// a clone of the request *and* of its `Arc<RequestCtx>`, so the shard
    /// workers max-fold their queue-wait / inference observations into one
    /// shared breakdown; the returned ticket times aggregation on redeem.
    pub fn submit_many_traced<I>(
        &self,
        requests: I,
    ) -> Vec<Result<FanoutTicket<T::Response>, ServeError>>
    where
        I: IntoIterator<Item = (T::Request, Option<Arc<RequestCtx>>)>,
    {
        let requests: Vec<(T::Request, Option<Arc<RequestCtx>>)> =
            requests.into_iter().collect();
        let mut per_shard: Vec<_> = self
            .shards
            .iter()
            .map(|shard| {
                shard
                    .submit_many_traced(
                        requests.iter().map(|(r, ctx)| (r.clone(), ctx.clone())),
                    )
                    .into_iter()
            })
            .collect();
        requests
            .into_iter()
            .map(|(_, ctx)| {
                let mut tickets = Vec::with_capacity(per_shard.len());
                let mut failure = None;
                for outcomes in per_shard.iter_mut() {
                    match outcomes.next().expect("submit_many length contract") {
                        Ok(ticket) => tickets.push(ticket),
                        Err(e) => failure = failure.or(Some(e)),
                    }
                }
                match failure {
                    None => {
                        Ok(FanoutTicket { tickets, aggregate: Arc::clone(&self.aggregate), ctx })
                    }
                    Some(e) => Err(e),
                }
            })
            .collect()
    }

    /// Submit + wait: the synchronous convenience path.
    pub fn call(&self, request: T::Request) -> Result<T::Response, ServeError> {
        self.submit(request)?.wait()
    }

    /// Publishes a new task on one shard; the other shards keep serving
    /// their current versions untouched. Returns the shard's new version.
    pub fn swap_shard(&self, shard: usize, task: T) -> u64 {
        self.shards[shard].swap(task)
    }

    /// Rolling swap: installs `tasks[s]` on shard `s`, one shard at a time
    /// and in shard order. In-flight batches finish on their old snapshots;
    /// at no point is the whole collection paused. Returns the per-shard
    /// versions published.
    ///
    /// # Panics
    /// If `tasks` does not have exactly one task per shard.
    pub fn rolling_swap(&self, tasks: Vec<T>) -> Vec<u64> {
        assert_eq!(tasks.len(), self.shards.len(), "one replacement task per shard");
        tasks
            .into_iter()
            .zip(&self.shards)
            .map(|(task, shard)| shard.swap(task))
            .collect()
    }

    /// Sub-requests currently buffered across all shard queues.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue_depth()).sum()
    }

    /// Total buffer capacity across all shard queues (every shard keeps the
    /// full configured capacity, so this is `shards × queue_capacity`).
    pub fn queue_capacity(&self) -> usize {
        self.shards.iter().map(|s| s.queue_capacity()).sum()
    }

    /// Graceful drain of every shard (in shard order): each refuses new
    /// submissions, serves everything admitted, and joins its workers.
    pub fn shutdown(self) -> ShardedReport {
        ShardedReport {
            per_shard: self.shards.into_iter().map(|s| s.shutdown()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Adds a per-shard offset; aggregation sums, so N shards over offset
    /// base B answer r·N + B·N(N−1)/2 — easy to verify exactly.
    struct Offset(u64);
    impl ServeTask for Offset {
        type Request = u64;
        type Response = u64;
        const NAME: &'static str = "test_offset";
        fn serve_batch(&self, requests: &[u64]) -> Vec<u64> {
            requests.iter().map(|r| r + self.0).collect()
        }
    }

    fn config() -> ServeConfig {
        ServeConfig {
            threads: 2,
            max_batch: 8,
            max_delay: Duration::from_micros(100),
            queue_capacity: 256,
        }
    }

    fn start_offsets(n: u64) -> ShardedRuntime<Offset> {
        ShardedRuntime::start(
            (0..n).map(Offset).collect(),
            config(),
            |parts| parts.into_iter().sum(),
        )
    }

    #[test]
    fn fanout_aggregates_across_all_shards() {
        let runtime = start_offsets(3);
        assert_eq!(runtime.num_shards(), 3);
        // 3 shards: r*3 + (0+1+2).
        assert_eq!(runtime.call(10).unwrap(), 33);
        let tickets: Vec<_> = (0..50u64).map(|r| runtime.submit(r).unwrap()).collect();
        for (r, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.wait().unwrap(), r as u64 * 3 + 3);
        }
        let report = runtime.shutdown();
        assert_eq!(report.completed(), 51 * 3);
        assert_eq!(report.shed(), 0);
        for shard in &report.per_shard {
            assert_eq!(shard.submitted, shard.completed, "admitted sub-requests all served");
        }
    }

    #[test]
    fn submit_many_fans_out_in_order() {
        let runtime = start_offsets(2);
        let requests: Vec<u64> = (0..40).collect();
        let outcomes = runtime.submit_many(&requests);
        assert_eq!(outcomes.len(), 40);
        for (r, outcome) in outcomes.into_iter().enumerate() {
            assert_eq!(outcome.unwrap().wait().unwrap(), r as u64 * 2 + 1);
        }
        runtime.shutdown();
    }

    #[test]
    fn swapping_one_shard_leaves_the_others_serving() {
        let runtime = start_offsets(2);
        assert_eq!(runtime.call(0).unwrap(), 1);
        runtime.swap_shard(1, Offset(100));
        assert_eq!(runtime.call(0).unwrap(), 100);
        let report = runtime.shutdown();
        assert_eq!(report.swaps(), 1);
        assert_eq!(report.per_shard[0].swaps, 0);
        assert_eq!(report.per_shard[1].swaps, 1);
    }

    #[test]
    fn rolling_swap_touches_every_shard_once() {
        let runtime = start_offsets(3);
        let versions = runtime.rolling_swap(vec![Offset(10), Offset(20), Offset(30)]);
        assert_eq!(versions, vec![1, 1, 1]);
        assert_eq!(runtime.call(0).unwrap(), 60);
        let report = runtime.shutdown();
        assert_eq!(report.swaps(), 3);
    }

    #[test]
    fn partial_shed_fails_the_fanout_but_keeps_accounting_exact() {
        // Shard queues of capacity 1 and a single slow worker per shard: a
        // burst must shed somewhere. The invariant under test: every shard's
        // submitted sub-requests are eventually completed (none torn), and
        // shed is only ever counted at admission.
        let runtime = ShardedRuntime::start(
            vec![Offset(0), Offset(1)],
            ServeConfig { threads: 2, queue_capacity: 1, ..config() },
            |parts| parts.into_iter().sum(),
        );
        let outcomes = runtime.submit_many(&(0..64u64).collect::<Vec<_>>());
        let mut served = 0u64;
        for ticket in outcomes.into_iter().flatten() {
            let _ = ticket.wait();
            served += 1;
        }
        let report = runtime.shutdown();
        for shard in &report.per_shard {
            assert_eq!(shard.submitted, shard.completed, "no admitted sub-request lost");
        }
        assert!(report.completed() >= served * 2, "fan-out answers cover every full success");
    }
}

//! # setlearn-serve
//!
//! Concurrent serving runtime for the learned set structures in
//! [`setlearn`]: keeps a model resident and shared across threads, amortizes
//! inference with adaptive micro-batching, refreshes models with zero
//! downtime, and sheds load instead of buffering without bound.
//!
//! ## Architecture
//!
//! ```text
//!  clients ──submit──▶ BoundedQueue ──pop──▶ worker pool (N threads)
//!              │            │                  │  collect ≤ max_batch or
//!    queue full│            │queue_depth       │  wait ≤ max_delay
//!   Overloaded ▼            ▼gauge             ▼
//!      (shed, typed)                 HotSwap<T>::refresh ─▶ serve_batch
//!                                        ▲                     │
//!   WAL delta ──threshold──▶ compactor (retrain+publish)       ▼
//!                                                     Ticket::wait (client)
//! ```
//!
//! * [`queue::BoundedQueue`] — bounded MPMC queue; admission control sheds
//!   with [`ServeError::Overloaded`] when full (backpressure).
//! * [`hotswap::HotSwap`] — mutex-guarded writer, atomically published
//!   `Arc` snapshots for readers; a swap never tears or stalls a batch.
//! * [`runtime::ServeRuntime`] — the worker pool with adaptive
//!   micro-batching and graceful drain on shutdown.
//! * [`compact`] — the one background daemon: folds a mutable collection's
//!   pending WAL delta into a retrained checkpoint and publishes it.
//! * [`registry`] — [`CollectionRegistry`]: the only place a checkpoint on
//!   disk becomes a serving backend.
//! * [`task`] — the [`ServeTask`] trait plus the generic [`StructureTask`]
//!   adapter over any `setlearn::tasks::LearnedSetStructure` (serve-guard
//!   fallbacks included). A sharded collection is one such structure — a
//!   `setlearn::tasks::Sharded<S>`, whose `query_batch` folds the per-shard
//!   answers with `S`'s `Fold` — so it is served by the same runtime as any
//!   other: one queue, one pool, one hot-swap slot.
//!
//! Everything is std-only: threads, mutexes, condvars, atomics, channels.

#![warn(missing_docs)]

pub mod compact;
pub mod error;
pub mod hotswap;
pub mod net;
pub mod proto;
pub mod queue;
pub mod registry;
pub mod request;
pub mod runtime;
pub mod task;
pub(crate) mod telemetry;

pub use compact::{spawn_compactor_named, CompactorConfig, CompactorHandle};
pub use error::ServeError;
pub use net::{MutableBackend, NetClient, NetConfig, NetError, NetServer, WireBackend};
pub use proto::{
    ErrorCode, HealthReport, IngestAck, IngestRequest, ProtoError, StatsFormat, WireOutcome,
};
pub use hotswap::{Cached, HotSwap};
pub use queue::BoundedQueue;
pub use registry::{
    AdminError, CollectionRegistry, QuotaConfig, RegistryConfig, ResolveError, Resident,
};
pub use request::RequestCtx;
pub use runtime::{ServeConfig, ServeReport, ServeRuntime, ServeStats, Ticket};
pub use task::{BloomTask, CardinalityTask, IndexTask, ServeTask, StructureTask};
pub use telemetry::BATCH_BOUNDS;

/// Compile-time assertion that `T` is safe to share across serve workers.
///
/// Every type published through [`HotSwap`] or moved into the worker pool is
/// pinned down in the `const` block below; introducing an `Rc`, `RefCell`,
/// or raw pointer into any of them fails the build right here instead of
/// erupting as a cryptic trait-bound error (or worse, an unsound workaround)
/// at a distant use site.
pub const fn assert_send_sync<T: Send + Sync>() {}

// Everything the runtime shares across threads, checked at compile time.
const _: () = {
    // The served structures themselves.
    assert_send_sync::<setlearn::tasks::LearnedCardinality>();
    assert_send_sync::<setlearn::tasks::LearnedSetIndex>();
    assert_send_sync::<setlearn::tasks::LearnedBloom>();
    assert_send_sync::<setlearn::tasks::IndexStructure>();
    assert_send_sync::<setlearn::tasks::Sharded<setlearn::tasks::LearnedCardinality>>();
    assert_send_sync::<setlearn::tasks::Sharded<setlearn::tasks::LearnedBloom>>();
    assert_send_sync::<setlearn::tasks::Sharded<setlearn::tasks::IndexStructure>>();
    assert_send_sync::<setlearn::model::DeepSets>();
    assert_send_sync::<setlearn::ServeGuard>();
    assert_send_sync::<setlearn::ShardedCollection>();
    assert_send_sync::<setlearn_data::SetCollection>();
    // The task adapters published through HotSwap.
    assert_send_sync::<CardinalityTask>();
    assert_send_sync::<IndexTask>();
    assert_send_sync::<BloomTask>();
    assert_send_sync::<StructureTask<setlearn::tasks::Sharded<setlearn::tasks::IndexStructure>>>();
    // Mutable collections shared by the ingest path, serve workers, and the
    // compaction daemon.
    assert_send_sync::<setlearn::mutable::MutableCollection<setlearn::tasks::LearnedCardinality>>();
    assert_send_sync::<
        StructureTask<
            std::sync::Arc<setlearn::mutable::MutableCollection<setlearn::tasks::LearnedBloom>>,
        >,
    >();
    // The runtime plumbing shared between submitters and workers.
    assert_send_sync::<HotSwap<CardinalityTask>>();
    assert_send_sync::<HotSwap<IndexTask>>();
    assert_send_sync::<HotSwap<BloomTask>>();
    assert_send_sync::<BoundedQueue<u64>>();
    assert_send_sync::<ServeStats>();
    assert_send_sync::<ServeRuntime<CardinalityTask>>();
    assert_send_sync::<ServeRuntime<IndexTask>>();
    assert_send_sync::<ServeRuntime<BloomTask>>();
    assert_send_sync::<
        ServeRuntime<StructureTask<setlearn::tasks::Sharded<setlearn::tasks::LearnedCardinality>>>,
    >();
    assert_send_sync::<
        ServeRuntime<StructureTask<setlearn::tasks::Sharded<setlearn::tasks::LearnedBloom>>>,
    >();
    assert_send_sync::<ServeError>();
    // The multi-tenant registry shared across connection handlers.
    assert_send_sync::<CollectionRegistry>();
    assert_send_sync::<Resident>();
    // Tracing contexts shared between connection handlers and workers.
    assert_send_sync::<RequestCtx>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assertions_are_const_callable() {
        // The const block above is the real check; this pins the helper's
        // const-ness so a signature regression is caught by a test too.
        const OK: () = assert_send_sync::<u64>();
        #[allow(clippy::let_unit_value)]
        let _ = OK;
    }
}

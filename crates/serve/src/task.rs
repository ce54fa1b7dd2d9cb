//! The [`ServeTask`] abstraction and the generic adapter over
//! [`LearnedSetStructure`].
//!
//! A task is the unit the runtime batches over: it consumes a
//! slice of requests and answers all of them in one call, so the model's
//! batched forward pass (one embedding gather + matmul for the whole batch)
//! amortizes per-query overhead.
//!
//! Since the `LearnedSetStructure` redesign, the three per-task adapters
//! (`CardinalityTask` / `IndexTask` / `BloomTask`) are one generic
//! [`StructureTask`] instantiated per structure: every learned structure —
//! sharded or not — serves through `query_batch`, and responses carry the
//! shared [`QueryOutcome`] degradation flags (guard fallbacks, index bound
//! misses) instead of a bare value; the runtime counts those flags.

use setlearn::hybrid::FallbackReason;
use setlearn::tasks::{
    IndexStructure, LearnedBloom, LearnedCardinality, LearnedSetStructure, QueryOutcome,
};
use setlearn_data::ElementSet;

/// A batched, thread-shareable serving workload.
///
/// Implementations must be cheap to call with a small batch (the runtime's
/// batch size adapts to load: under light traffic batches of 1 are normal)
/// and must return exactly one response per request, in request order.
pub trait ServeTask: Send + Sync + 'static {
    /// One unit of work submitted by a client.
    type Request: Send + 'static;
    /// The answer produced for one request.
    type Response: Send + 'static;

    /// Task name used as the `task` label on every serve metric.
    const NAME: &'static str;

    /// Answers every request in the batch, in order.
    fn serve_batch(&self, requests: &[Self::Request]) -> Vec<Self::Response>;

    /// The degradation flags one response carries — the guard's fallback
    /// reason, and whether an index scan window was exhausted — which the
    /// runtime counts per collection. The default is no flags.
    fn degradation(_response: &Self::Response) -> (Option<FallbackReason>, bool) {
        (None, false)
    }
}

/// The one serve adapter: any [`LearnedSetStructure`] becomes a
/// [`ServeTask`] answering canonical query sets with [`QueryOutcome`]s.
/// Serve guards, outlier stores, and backup filters all ride inside the
/// structure, so a retrained model gone bad degrades instead of serving
/// garbage — and the outcome's `fallback` flag says so.
#[derive(Debug, Clone)]
pub struct StructureTask<S> {
    /// The served structure.
    pub structure: S,
}

impl<S> StructureTask<S> {
    /// Wraps a structure for serving.
    pub fn new(structure: S) -> Self {
        StructureTask { structure }
    }
}

impl<S> ServeTask for StructureTask<S>
where
    S: LearnedSetStructure + Send + Sync + 'static,
    S::Output: Send + 'static,
{
    type Request = ElementSet;
    type Response = QueryOutcome<S::Output>;
    const NAME: &'static str = S::NAME;

    fn serve_batch(&self, requests: &[ElementSet]) -> Vec<QueryOutcome<S::Output>> {
        self.structure.query_batch(requests)
    }

    fn degradation(response: &QueryOutcome<S::Output>) -> (Option<FallbackReason>, bool) {
        (response.fallback, response.bound_miss)
    }
}

/// Cardinality estimation over canonical query sets.
pub type CardinalityTask = StructureTask<LearnedCardinality>;

/// Set-index position lookup. [`IndexStructure`] carries the collection in
/// an `Arc`, so replacing the index does not copy the data.
pub type IndexTask = StructureTask<IndexStructure>;

/// Approximate membership.
pub type BloomTask = StructureTask<LearnedBloom>;

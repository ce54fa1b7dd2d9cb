//! The three database tasks of Table 1, each built on the same DeepSets
//! model: regression heads for indexing (§4.1) and cardinality estimation
//! (§4.2), a classification head for membership (§4.3).
//!
//! ## The unified query surface
//!
//! Every learned structure — sharded or not — implements
//! [`LearnedSetStructure`], whose one required method is `query_batch`:
//! one batched forward pass followed by the task's correction tail,
//! returning [`QueryOutcome`]s. A single query is a batch of one (the
//! provided `query`), so serve adapters, the CLI, and benches share one
//! answer path per task instead of hand-rolled per-task signatures.
//! The per-task entry points (`estimate`, `lookup`, `contains`) remain for
//! task-specific ergonomics and answer through the same batch tail.
//!
//! ## The one fold
//!
//! A structure's answer often comes from several disjoint parts of one
//! collection: the shards of a [`Sharded`] structure, and a
//! [`crate::mutable::MutableCollection`]'s model and write overlay. [`Fold`]
//! is the one rule each task combines their answers with — cardinality
//! sums (clamped at 0), the index keeps the first or last position, Bloom
//! ORs — implemented once by [`LearnedCardinality`], [`LearnedBloom`] and
//! [`IndexStructure`].

pub mod bloom;
pub mod cardinality;
pub mod index;
pub mod sharded;

pub use bloom::{BloomBuildReport, BloomConfig, LearnedBloom};
pub use cardinality::{CardinalityBuildReport, CardinalityConfig, LearnedCardinality};
pub use index::{
    IndexBuildReport, IndexConfig, IndexStructure, LearnedSetIndex, LookupProfile, PositionTarget,
};
pub use cardinality::aggregate_cardinality;
pub use sharded::Sharded;

use crate::hybrid::FallbackReason;
use crate::kernel::Precision;
use crate::mutable::OverlayAnswer;

/// The answer to one query through the unified serve surface: the task's
/// value plus the degradation flags every structure shares.
///
/// `fallback` is set when the serve-time [`crate::ServeGuard`] rejected the
/// raw model output (non-finite or out-of-domain) and the answer came from a
/// degraded-but-safe path. `bound_miss` is set by the index task when a
/// bounded scan window was exhausted without a hit (the local error bound
/// did not cover the answer, or the subset is genuinely absent); the other
/// tasks never set it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOutcome<T> {
    /// The task's answer (estimate, position, or membership verdict).
    pub value: T,
    /// Why the model's raw output was rejected, if it was.
    pub fallback: Option<FallbackReason>,
    /// Index task only: the scan window was exhausted without a hit.
    pub bound_miss: bool,
}

impl<T> QueryOutcome<T> {
    /// An outcome served entirely by the healthy model path.
    pub fn clean(value: T) -> Self {
        QueryOutcome { value, fallback: None, bound_miss: false }
    }

    /// Whether any degradation flag is set.
    pub fn degraded(&self) -> bool {
        self.fallback.is_some() || self.bound_miss
    }

    /// Maps the value, keeping the degradation flags.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> QueryOutcome<U> {
        QueryOutcome { value: f(self.value), fallback: self.fallback, bound_miss: self.bound_miss }
    }

    /// `value` with this outcome's and `part`'s flags folded: the first
    /// `fallback` wins, and `bound_miss` is set if either part missed.
    pub(crate) fn folded<U>(&self, part: &QueryOutcome<T>, value: U) -> QueryOutcome<U> {
        QueryOutcome {
            value,
            fallback: self.fallback.or(part.fallback),
            bound_miss: self.bound_miss || part.bound_miss,
        }
    }
}

/// The uniform query API over every learned set structure (paper Table 1),
/// sharded and unsharded alike.
///
/// Implementations answer canonical (sorted, deduplicated) queries and must
/// return exactly one outcome per query, in query order.
///
/// The index task needs the collection to scan, so its implementations live
/// on bound adapters ([`IndexStructure`], `Sharded<IndexStructure>`) that
/// carry the collection alongside the model.
pub trait LearnedSetStructure {
    /// The task's answer type: `f64` (cardinality), `Option<usize>`
    /// (index position), or `bool` (membership).
    type Output;

    /// Task label used on serve metrics (`"cardinality"`, `"index"`,
    /// `"bloom"`); sharded and unsharded variants share it.
    const NAME: &'static str;

    /// Answers every query in one batched forward pass, in order.
    fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<Self::Output>>;

    /// Answers one canonical query: a batch of one.
    fn query(&self, q: &[u32]) -> QueryOutcome<Self::Output> {
        self.query_batch(&[q]).pop().expect("one outcome per query")
    }

    /// The element ids the model embeds are `0..vocab`. Only a non-empty
    /// query inside that range is answerable — the model panics on any
    /// other — so serving refuses the rest before admission. `None` (the
    /// default) claims every query answerable.
    fn vocab(&self) -> Option<u32> {
        None
    }

    /// The precision of the kernel that answers, which serving publishes
    /// per collection. `None` (the default) for a structure with no model.
    fn kernel_precision(&self) -> Option<Precision> {
        None
    }
}

/// The per-task rule for combining answers from disjoint parts of one
/// collection: the shards of a [`Sharded`] structure, and a mutable
/// collection's model and its exact write overlay. The OR is what carries
/// the Bloom filter's no-false-negative guarantee across parts.
pub trait Fold: LearnedSetStructure {
    /// The answer for the union of two disjoint parts, from each part's
    /// answer to the same query. Cardinality sums, clamped at 0; the index
    /// keeps the first or last position by its [`PositionTarget`] and sets
    /// `bound_miss` only when no part hit; Bloom ORs. The first `fallback`
    /// wins.
    fn fold(
        &self,
        acc: QueryOutcome<Self::Output>,
        part: QueryOutcome<Self::Output>,
    ) -> QueryOutcome<Self::Output>;

    /// The write overlay's exact answer, as a part of this task.
    fn overlay(&self, delta: &OverlayAnswer) -> QueryOutcome<Self::Output>;

    /// Lifts an answer from a part's own rows to the whole collection's,
    /// where `rows[local]` is the global row of local row `local`. Only
    /// positions name rows, so only the index overrides the identity.
    fn lift(
        &self,
        part: QueryOutcome<Self::Output>,
        _rows: &[usize],
    ) -> QueryOutcome<Self::Output> {
        part
    }
}

/// Shared handles answer like what they point to, so long-lived structures
/// (e.g. a [`crate::mutable::MutableCollection`] owned jointly by the serve
/// runtime and its compactor) can sit behind an `Arc` and still flow through
/// every generic serve adapter.
impl<S: LearnedSetStructure> LearnedSetStructure for std::sync::Arc<S> {
    type Output = S::Output;
    const NAME: &'static str = S::NAME;

    fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<S::Output>> {
        (**self).query_batch(queries)
    }

    fn vocab(&self) -> Option<u32> {
        (**self).vocab()
    }

    fn kernel_precision(&self) -> Option<Precision> {
        (**self).kernel_precision()
    }
}

/// A selectivity oracle a query optimizer can consult: canonical query set →
/// estimated number of matching rows.
///
/// This is the narrow surface `setlearn-engine`'s cost-based planner needs —
/// one scalar per query, no degradation flags, no batching — implemented by
/// both the single-model and the sharded cardinality estimators so either
/// can be registered on a table unchanged.
pub trait CardinalityEstimator: Send + Sync {
    /// Estimated rows whose set contains every element of the canonical
    /// query `q`.
    fn estimate_rows(&self, q: &[u32]) -> f64;
}

impl CardinalityEstimator for LearnedCardinality {
    fn estimate_rows(&self, q: &[u32]) -> f64 {
        self.estimate(q)
    }
}

impl CardinalityEstimator for Sharded<LearnedCardinality> {
    fn estimate_rows(&self, q: &[u32]) -> f64 {
        self.query(q).value
    }
}

impl<E: CardinalityEstimator> CardinalityEstimator for std::sync::Arc<E> {
    fn estimate_rows(&self, q: &[u32]) -> f64 {
        (**self).estimate_rows(q)
    }
}

/// `structure` loaded back with every weight NaN in its serialized
/// `"model"`, so its kernel is frozen from the poisoned weights. JSON cannot
/// carry NaN; the in-memory [`serde::Value`] can.
#[cfg(test)]
pub(crate) fn with_nan_weights<S: serde::Serialize + serde::Deserialize>(structure: &S) -> S {
    use serde::{Deserialize, Serialize, Value};
    let mut value = structure.serialize();
    let Value::Object(fields) = &mut value else { panic!("a structure is an object") };
    let model = &mut fields.iter_mut().find(|(k, _)| k == "model").expect("a model").1;
    let mut weights = crate::model::DeepSets::deserialize(model).expect("a DeepSets");
    let nan: Vec<_> = weights.weight_buffers().iter().map(|b| vec![f32::NAN; b.len()]).collect();
    weights.load_weight_buffers(&nan).expect("same shapes");
    *model = weights.serialize();
    S::deserialize(&value).expect("the poisoned structure loads")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_helpers() {
        let o = QueryOutcome::clean(7.0);
        assert!(!o.degraded());
        let mapped = o.map(|v| v as u64);
        assert_eq!(mapped.value, 7);
        let degraded = QueryOutcome {
            value: 0.0,
            fallback: Some(FallbackReason::NonFinite),
            bound_miss: false,
        };
        assert!(degraded.degraded());
    }
}

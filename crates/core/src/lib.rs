//! # setlearn
//!
//! A Rust implementation of *Learning over Sets for Databases*
//! (Davitkova, Gjurovski, Michel — EDBT 2024): learned replacements for a
//! set index, a cardinality estimator and a Bloom filter over collections of
//! sets.
//!
//! ## Architecture
//!
//! * [`model::DeepSets`] — the permutation-invariant model (§3.2):
//!   shared element encoder → per-element φ MLP → sum/mean/max pooling →
//!   ρ head with a sigmoid scalar output.
//! * [`compress::CompressionSpec`] — Algorithm 1's per-element lossless
//!   quotient/remainder decomposition; plugging it into the encoder yields
//!   the compressed CLSM variant (§5, Figure 4) whose embedding tables are
//!   orders of magnitude smaller.
//! * [`hybrid`] — guided learning with outlier removal and per-range local
//!   error bounds (§6), which restore exactness guarantees.
//! * [`tasks`] — the three database tasks (Table 1):
//!   [`tasks::LearnedSetIndex`] (§4.1), [`tasks::LearnedCardinality`]
//!   (§4.2), [`tasks::LearnedBloom`] (§4.3).
//! * [`memory`] — the analytic size models behind Figures 3 and 8.
//!
//! ## Quick example
//!
//! ```
//! use setlearn::model::DeepSetsConfig;
//! use setlearn::hybrid::GuidedConfig;
//! use setlearn::tasks::{CardinalityConfig, LearnedCardinality};
//! use setlearn_data::GeneratorConfig;
//!
//! let collection = GeneratorConfig::sd(200, 1).generate();
//! let mut cfg = CardinalityConfig::new(DeepSetsConfig::clsm(collection.num_elements()));
//! cfg.guided = GuidedConfig { warmup_epochs: 5, rounds: 1, epochs_per_round: 2,
//!     percentile: 0.9, batch_size: 64, learning_rate: 5e-3, seed: 1 };
//! cfg.max_subset_size = 2;
//! let (estimator, _report) = LearnedCardinality::build(&collection, &cfg);
//! let q = &collection.get(0)[..1];
//! assert!(estimator.estimate(q) >= 0.0);
//! ```

#![warn(missing_docs)]

pub mod compress;
pub mod encoder;
pub mod hybrid;
pub mod kernel;
pub mod memory;
pub mod model;
pub mod mutable;
pub mod persist;
pub mod settransformer;
pub mod shard;
pub mod tasks;
pub(crate) mod telemetry;
pub mod wal;
pub mod wire;

/// Everything a downstream caller of the unified query API needs, in one
/// import.
///
/// Historically downstream crates (the CLI, benches, the serving adapters)
/// deep-imported `tasks::*` paths; the prelude replaces that with a single
/// surface that is guaranteed to stay importable as modules shuffle:
///
/// ```
/// use setlearn::prelude::*;
/// ```
pub mod prelude {
    pub use crate::hybrid::{FallbackReason, GuidedConfig, LocalErrorBounds, ServeGuard};
    pub use crate::kernel::{FrozenModel, KernelIsa, Precision};
    pub use crate::model::{CompressionKind, DeepSets, DeepSetsConfig, Pooling};
    pub use crate::shard::{ShardBy, ShardError, ShardRouter, ShardSpec, ShardedCollection};
    pub use crate::tasks::{
        BloomConfig, CardinalityConfig, CardinalityEstimator, Fold, IndexConfig, IndexStructure,
        LearnedBloom, LearnedCardinality, LearnedSetIndex, LearnedSetStructure, PositionTarget,
        QueryOutcome, Sharded,
    };
    pub use crate::mutable::{
        MutableCollection, MutableSink, MutateError, MutationAck, RecoveryReport,
    };
    pub use crate::wal::{Wal, WalConfig, WalError, WalOp, WalRecord, WalRecovery};
    pub use crate::wire::{QueryRequest, QueryResponse, QueryValue, WireTask};
}

pub use compress::CompressionSpec;
pub use hybrid::{FallbackReason, GuidedConfig, LocalErrorBounds, ServeGuard};
pub use kernel::{FrozenModel, KernelIsa, Precision};
pub use model::{CompressionKind, DeepSets, DeepSetsConfig, Pooling};
pub use settransformer::{SetTransformer, SetTransformerConfig};
pub use shard::{ShardBy, ShardError, ShardRouter, ShardSpec, ShardedCollection};
pub use tasks::{
    BloomConfig, CardinalityConfig, CardinalityEstimator, IndexConfig, LearnedBloom,
    LearnedCardinality, LearnedSetIndex, LearnedSetStructure, QueryOutcome,
};
pub use mutable::{
    MutableCollection, MutableSink, MutateError, MutationAck, RecoveryReport,
};
pub use wal::{Wal, WalConfig, WalError, WalOp, WalRecord, WalRecovery};
pub use wire::{QueryRequest, QueryResponse, QueryValue, WireTask};
// Task build reports embed the training harness report; re-export its types so
// downstream crates can consume them without depending on `setlearn-nn`.
pub use setlearn_nn::{StopReason, TrainPolicy, TrainReport};

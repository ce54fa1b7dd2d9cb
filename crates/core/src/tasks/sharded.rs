//! Per-shard task models over a [`ShardedCollection`]: one independently
//! trained structure per shard, answers aggregated across shards.
//!
//! Aggregation semantics (all shards are queried — set-content queries
//! cannot be routed to a single shard):
//!
//! * **cardinality** — sum of per-shard estimates. The shards partition the
//!   collection, so exact per-shard counts are additive; model error adds at
//!   most the sum of per-shard errors.
//! * **index** — per-shard local answers are lifted to global positions via
//!   the partition's position maps, then folded (min for
//!   [`PositionTarget::First`], max for [`PositionTarget::Last`]).
//! * **bloom** — logical OR. A stored subset lives in some shard, so the
//!   per-shard no-false-negative guarantee composes to the whole.
//!
//! Degradation flags merge conservatively: the first per-shard fallback is
//! kept, and the index's `bound_miss` survives only when no shard found an
//! answer.

use crate::kernel::Precision;
use crate::shard::{ShardError, ShardSpec, ShardedCollection};
use crate::tasks::{
    BloomBuildReport, BloomConfig, CardinalityBuildReport, CardinalityConfig, IndexBuildReport,
    IndexConfig, IndexStructure, LearnedBloom, LearnedCardinality, LearnedSetIndex,
    LearnedSetStructure, PositionTarget, QueryOutcome,
};
use serde::{Deserialize, Serialize};
use setlearn_data::ElementSet;
use std::sync::Arc;

/// Sum-aggregation for per-shard cardinality outcomes.
pub fn aggregate_cardinality(parts: Vec<QueryOutcome<f64>>) -> QueryOutcome<f64> {
    let value = parts.iter().map(|p| p.value).sum();
    let fallback = parts.iter().find_map(|p| p.fallback);
    QueryOutcome { value, fallback, bound_miss: parts.iter().any(|p| p.bound_miss) }
}

/// Any-aggregation for per-shard membership outcomes.
pub fn aggregate_bloom(parts: Vec<QueryOutcome<bool>>) -> QueryOutcome<bool> {
    let value = parts.iter().any(|p| p.value);
    let fallback = parts.iter().find_map(|p| p.fallback);
    QueryOutcome { value, fallback, bound_miss: parts.iter().any(|p| p.bound_miss) }
}

/// First/last-fold for per-shard index outcomes **already in global
/// coordinates** (see [`ShardedIndexStructure`]). `bound_miss` survives only
/// when no shard produced an answer — a miss in a shard that simply does not
/// hold the subset is expected, not a degradation.
pub fn aggregate_index(
    target: PositionTarget,
    parts: Vec<QueryOutcome<Option<usize>>>,
) -> QueryOutcome<Option<usize>> {
    let positions = parts.iter().filter_map(|p| p.value);
    let value = match target {
        PositionTarget::First => positions.min(),
        PositionTarget::Last => positions.max(),
    };
    let fallback = parts.iter().find_map(|p| p.fallback);
    QueryOutcome {
        value,
        fallback,
        bound_miss: value.is_none() && parts.iter().any(|p| p.bound_miss),
    }
}

/// Runs per-shard batch outcomes column-wise through an aggregator.
fn aggregate_columns<T: Copy>(
    per_shard: Vec<Vec<QueryOutcome<T>>>,
    queries: usize,
    agg: impl Fn(Vec<QueryOutcome<T>>) -> QueryOutcome<T>,
) -> Vec<QueryOutcome<T>> {
    (0..queries).map(|i| agg(per_shard.iter().map(|shard| shard[i]).collect())).collect()
}

fn check_non_empty(collection: &ShardedCollection) -> Result<(), ShardError> {
    // Defense in depth: `partition` already rejects empty shards, but the
    // builders re-check so a hand-rolled partition cannot reach the
    // enumeration panic inside `SubsetIndex`.
    for (s, shard) in collection.shards().iter().enumerate() {
        if shard.is_empty() {
            return Err(ShardError::EmptyShard { shard: s });
        }
    }
    Ok(())
}

/// One [`LearnedCardinality`] per shard; estimates sum across shards.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardedCardinality {
    shards: Vec<LearnedCardinality>,
    /// The partition the shards were trained on; persisted so query/serve
    /// can verify they re-derive the exact same partition.
    spec: ShardSpec,
}

impl ShardedCardinality {
    /// Trains one estimator per shard with the shared config (same seed —
    /// a single range shard reproduces the unsharded build bit-for-bit).
    pub fn build(
        collection: &ShardedCollection,
        cfg: &CardinalityConfig,
    ) -> Result<(Self, Vec<CardinalityBuildReport>), ShardError> {
        check_non_empty(collection)?;
        let mut shards = Vec::with_capacity(collection.num_shards());
        let mut reports = Vec::with_capacity(collection.num_shards());
        for shard in collection.shards() {
            let (model, report) = LearnedCardinality::build(shard, cfg);
            shards.push(model);
            reports.push(report);
        }
        Ok((ShardedCardinality { shards, spec: collection.spec() }, reports))
    }

    /// Sum of per-shard estimates for a canonical query.
    pub fn estimate(&self, q: &[u32]) -> f64 {
        self.query(q).value
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The partition spec the shards were trained on.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The per-shard estimators, in shard order.
    pub fn shards(&self) -> &[LearnedCardinality] {
        &self.shards
    }

    /// Total structure bytes across shards.
    pub fn size_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.size_bytes()).sum()
    }

    /// The serve precision shared by every shard.
    pub fn precision(&self) -> Precision {
        self.shards.first().map(|s| s.precision()).unwrap_or_default()
    }

    /// Selects the serve precision on every shard.
    pub fn set_precision(&mut self, precision: Precision) {
        for shard in &mut self.shards {
            shard.set_precision(precision);
        }
    }
}

impl LearnedSetStructure for ShardedCardinality {
    type Output = f64;
    const NAME: &'static str = "cardinality";

    fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<f64>> {
        let per_shard = self.shards.iter().map(|m| m.query_batch(queries)).collect();
        aggregate_columns(per_shard, queries.len(), aggregate_cardinality)
    }

    fn vocab(&self) -> Option<u32> {
        self.shards.first()?.vocab()
    }
}

/// One [`LearnedBloom`] per shard; membership is the OR across shards.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardedBloom {
    shards: Vec<LearnedBloom>,
    /// The partition the shards were trained on; persisted so query/serve
    /// can verify they re-derive the exact same partition.
    spec: ShardSpec,
}

impl ShardedBloom {
    /// Routes a globally labeled workload to every shard, relabeling each
    /// positive by *shard-level* containment (a global positive is a
    /// negative for shards that do not hold it). Each shard then trains with
    /// its own no-false-negative guarantee, and the OR-aggregation inherits
    /// it for every global positive.
    pub fn build(
        collection: &ShardedCollection,
        workload: &[(ElementSet, bool)],
        cfg: &BloomConfig,
    ) -> Result<(Self, Vec<BloomBuildReport>), ShardError> {
        check_non_empty(collection)?;
        let mut shards = Vec::with_capacity(collection.num_shards());
        let mut reports = Vec::with_capacity(collection.num_shards());
        for (s, shard) in collection.shards().iter().enumerate() {
            let local: Vec<(ElementSet, bool)> = workload
                .iter()
                .map(|(q, label)| (q.clone(), *label && shard.contains_subset(q)))
                .collect();
            if !local.iter().any(|(_, l)| *l) {
                return Err(ShardError::NoPositives { shard: s });
            }
            let (filter, report) = LearnedBloom::build(&local, cfg);
            shards.push(filter);
            reports.push(report);
        }
        Ok((ShardedBloom { shards, spec: collection.spec() }, reports))
    }

    /// Convenience constructor mirroring
    /// [`LearnedBloom::build_from_collection`]: samples a membership
    /// workload per shard, sized proportionally to the shard's share of the
    /// collection.
    pub fn build_from_collection(
        collection: &ShardedCollection,
        n_pos: usize,
        n_neg: usize,
        max_query_size: usize,
        cfg: &BloomConfig,
    ) -> Result<(Self, Vec<BloomBuildReport>), ShardError> {
        check_non_empty(collection)?;
        let total = collection.len().max(1);
        let mut shards = Vec::with_capacity(collection.num_shards());
        let mut reports = Vec::with_capacity(collection.num_shards());
        for shard in collection.shards() {
            let scale = |n: usize| (n * shard.len() / total).max(1);
            let (filter, report) = LearnedBloom::build_from_collection(
                shard,
                scale(n_pos),
                scale(n_neg),
                max_query_size,
                cfg,
            );
            shards.push(filter);
            reports.push(report);
        }
        Ok((ShardedBloom { shards, spec: collection.spec() }, reports))
    }

    /// Membership probe: true iff any shard answers true.
    pub fn contains(&self, q: &[u32]) -> bool {
        self.query(q).value
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The partition spec the shards were trained on.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The per-shard filters, in shard order.
    pub fn shards(&self) -> &[LearnedBloom] {
        &self.shards
    }

    /// Total structure bytes across shards.
    pub fn size_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.size_bytes()).sum()
    }

    /// The serve precision shared by every shard.
    pub fn precision(&self) -> Precision {
        self.shards.first().map(|s| s.precision()).unwrap_or_default()
    }

    /// Selects the serve precision on every shard.
    pub fn set_precision(&mut self, precision: Precision) {
        for shard in &mut self.shards {
            shard.set_precision(precision);
        }
    }
}

impl LearnedSetStructure for ShardedBloom {
    type Output = bool;
    const NAME: &'static str = "bloom";

    fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<bool>> {
        let per_shard = self.shards.iter().map(|m| m.query_batch(queries)).collect();
        aggregate_columns(per_shard, queries.len(), aggregate_bloom)
    }

    fn vocab(&self) -> Option<u32> {
        self.shards.first()?.vocab()
    }
}

/// One [`LearnedSetIndex`] per shard. Lookups need the partitioned
/// collection (to scan, and to lift local positions to global ones), so the
/// trait surface lives on [`ShardedIndexStructure`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardedIndex {
    shards: Vec<LearnedSetIndex>,
    target: PositionTarget,
    /// The partition the shards were trained on; persisted so query/serve
    /// can verify they re-derive the exact same partition.
    spec: ShardSpec,
}

impl ShardedIndex {
    /// Trains one index per shard with the shared config.
    pub fn build(
        collection: &ShardedCollection,
        cfg: &IndexConfig,
    ) -> Result<(Self, Vec<IndexBuildReport>), ShardError> {
        check_non_empty(collection)?;
        let mut shards = Vec::with_capacity(collection.num_shards());
        let mut reports = Vec::with_capacity(collection.num_shards());
        for shard in collection.shards() {
            let (index, report) = LearnedSetIndex::build(shard, cfg);
            shards.push(index);
            reports.push(report);
        }
        Ok((ShardedIndex { shards, target: cfg.target, spec: collection.spec() }, reports))
    }

    /// Global first/last position of `q` across shards.
    pub fn lookup(&self, collection: &ShardedCollection, q: &[u32]) -> Option<usize> {
        let positions = self.shards.iter().enumerate().filter_map(|(s, index)| {
            index
                .lookup(collection.shard(s), q)
                .map(|local| collection.globals(s)[local])
        });
        match self.target {
            PositionTarget::First => positions.min(),
            PositionTarget::Last => positions.max(),
        }
    }

    /// Which occurrence the index targets.
    pub fn target(&self) -> PositionTarget {
        self.target
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The partition spec the shards were trained on.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The per-shard indexes, in shard order.
    pub fn shards(&self) -> &[LearnedSetIndex] {
        &self.shards
    }

    /// Total structure bytes across shards.
    pub fn size_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.size_bytes()).sum()
    }

    /// The serve precision shared by every shard.
    pub fn precision(&self) -> Precision {
        self.shards.first().map(|s| s.precision()).unwrap_or_default()
    }

    /// Selects the serve precision on every shard.
    pub fn set_precision(&mut self, precision: Precision) {
        for shard in &mut self.shards {
            shard.set_precision(precision);
        }
    }
}

/// One shard of a sharded index, bound to its shard collection and the
/// local → global position map: answers arrive in **global** coordinates,
/// so [`aggregate_index`] folds them directly.
#[derive(Debug, Clone)]
struct ShardIndexStructure {
    /// The shard-local index bound to the shard's collection.
    structure: IndexStructure,
    /// Shard-local → global position map.
    globals: Arc<Vec<usize>>,
}

impl LearnedSetStructure for ShardIndexStructure {
    type Output = Option<usize>;
    const NAME: &'static str = "index";

    fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<Option<usize>>> {
        self.structure
            .query_batch(queries)
            .into_iter()
            .map(|o| o.map(|v| v.map(|local| self.globals[local])))
            .collect()
    }
}

/// A [`ShardedIndex`] bound to its partitioned collection — the sharded
/// counterpart of [`IndexStructure`].
#[derive(Debug, Clone)]
pub struct ShardedIndexStructure {
    shards: Vec<ShardIndexStructure>,
    target: PositionTarget,
}

impl ShardedIndexStructure {
    /// Binds per-shard indexes to their shard collections and position maps.
    pub fn new(index: ShardedIndex, collection: &ShardedCollection) -> Self {
        assert_eq!(
            index.shards.len(),
            collection.num_shards(),
            "index shard count does not match the partition"
        );
        let target = index.target;
        let shards = index
            .shards
            .into_iter()
            .enumerate()
            .map(|(s, shard_index)| ShardIndexStructure {
                structure: IndexStructure {
                    index: shard_index,
                    collection: Arc::clone(collection.shard(s)),
                },
                globals: Arc::clone(collection.globals(s)),
            })
            .collect();
        ShardedIndexStructure { shards, target }
    }

    /// Which occurrence the index targets.
    pub fn target(&self) -> PositionTarget {
        self.target
    }
}

impl LearnedSetStructure for ShardedIndexStructure {
    type Output = Option<usize>;
    const NAME: &'static str = "index";

    fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<Option<usize>>> {
        let per_shard = self.shards.iter().map(|s| s.query_batch(queries)).collect();
        aggregate_columns(per_shard, queries.len(), |parts| {
            aggregate_index(self.target, parts)
        })
    }

    fn vocab(&self) -> Option<u32> {
        self.shards.first()?.structure.vocab()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::GuidedConfig;
    use crate::model::DeepSetsConfig;
    use crate::shard::{ShardBy, ShardSpec};
    use setlearn_data::GeneratorConfig;

    fn quick_guided() -> GuidedConfig {
        GuidedConfig {
            warmup_epochs: 4,
            rounds: 1,
            epochs_per_round: 2,
            percentile: 0.9,
            batch_size: 64,
            learning_rate: 5e-3,
            seed: 1,
        }
    }

    fn sharded(n: usize) -> ShardedCollection {
        let c = GeneratorConfig::sd(120, 3).generate();
        ShardedCollection::partition(&c, ShardSpec::new(n, ShardBy::Hash)).unwrap()
    }

    #[test]
    fn sharded_cardinality_sums_shards() {
        let collection = sharded(3);
        let mut cfg = CardinalityConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
        cfg.guided = quick_guided();
        cfg.max_subset_size = 2;
        let (model, reports) = ShardedCardinality::build(&collection, &cfg).unwrap();
        assert_eq!(reports.len(), 3);
        let q = &collection.shard(0).get(0)[..1];
        let direct: f64 = model.shards().iter().map(|m| m.estimate(q)).sum();
        assert_eq!(model.estimate(q), direct);
    }

    #[test]
    fn sharded_bloom_or_composes_no_false_negatives() {
        let whole = GeneratorConfig::sd(120, 3).generate();
        let collection =
            ShardedCollection::partition(&whole, ShardSpec::new(3, ShardBy::Hash)).unwrap();
        let mut cfg = BloomConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
        cfg.epochs = 6;
        let workload =
            setlearn_data::workload::membership_queries(&whole, 150, 150, 2, cfg.seed);
        let (filter, _) = ShardedBloom::build(&collection, &workload, &cfg).unwrap();
        for (q, label) in &workload {
            if *label {
                assert!(filter.contains(q), "false negative on {q:?}");
            }
        }
    }

    #[test]
    fn sharded_index_finds_global_first_positions() {
        let c = GeneratorConfig::rw(150, 21).generate();
        let collection =
            ShardedCollection::partition(&c, ShardSpec::new(2, ShardBy::Hash)).unwrap();
        let mut model = DeepSetsConfig::lsm(c.num_elements());
        model.compression = crate::model::CompressionKind::None;
        let cfg = IndexConfig {
            model,
            guided: GuidedConfig {
                warmup_epochs: 25,
                rounds: 1,
                epochs_per_round: 15,
                percentile: 0.9,
                batch_size: 64,
                learning_rate: 5e-3,
                seed: 5,
            },
            max_subset_size: 2,
            range_length: 16.0,
            target: PositionTarget::First,
        };
        let (index, _) = ShardedIndex::build(&collection, &cfg).unwrap();
        let subsets = setlearn_data::SubsetIndex::build(&c, 2);
        for (s, info) in subsets.iter() {
            assert_eq!(
                index.lookup(&collection, s),
                Some(info.first_pos as usize),
                "subset {s:?}"
            );
        }
        // The bound trait surface agrees with the direct lookup path.
        let structure = ShardedIndexStructure::new(index, &collection);
        let queries: Vec<ElementSet> = subsets.iter().take(40).map(|(s, _)| s.clone()).collect();
        let outcomes = structure.query_batch(&queries);
        for (q, outcome) in queries.iter().zip(outcomes) {
            assert_eq!(outcome.value, structure.query(q).value);
            assert_eq!(outcome.value, subsets.get(q).map(|i| i.first_pos as usize));
        }
    }
}

//! Sharded structures: one independently trained structure per shard of a
//! [`ShardedCollection`], answering as one.
//!
//! A set-content query cannot be routed to a single shard, so every shard
//! answers and [`Sharded`]'s `query_batch` folds each query's per-shard
//! answers with the task's [`Fold`] — the rule a mutable collection merges
//! its write overlay with:
//!
//! * **cardinality** — sum. The shards partition the collection, so exact
//!   per-shard counts are additive; model error adds at most the sum of
//!   per-shard errors.
//! * **index** — per-shard local positions are lifted to global ones through
//!   the partition's position maps, then the first (or last) wins.
//! * **bloom** — OR. A stored subset lives in some shard, so the per-shard
//!   no-false-negative guarantee composes to the whole.

use crate::kernel::Precision;
use crate::shard::{ShardError, ShardSpec, ShardedCollection};
use crate::tasks::{
    BloomBuildReport, BloomConfig, Fold, IndexStructure, LearnedBloom, LearnedSetIndex,
    LearnedSetStructure, QueryOutcome,
};
use serde::{Deserialize, Serialize, Value};
use setlearn_data::{ElementSet, SetCollection};
use std::sync::Arc;

/// One structure per shard, trained on the partition `spec` describes.
///
/// Persisted as `{ "shards": [...], "spec": {...} }`: the partition is
/// re-derived from the collection and the spec, so nothing else is stored.
/// A persisted `Sharded<LearnedSetIndex>` [binds](Sharded::bind) to its
/// partition the way a [`LearnedSetIndex`] binds to an [`IndexStructure`].
#[derive(Debug, Clone)]
pub struct Sharded<S> {
    shards: Vec<S>,
    spec: ShardSpec,
    /// Per shard, the shard-local → global row map its answers are lifted
    /// through; empty unless bound to a partition (the index).
    rows: Vec<Arc<Vec<usize>>>,
}

impl<S> Sharded<S> {
    /// Per-shard structures, in shard order, trained on the partition
    /// `spec` describes. Refuses an empty list and one whose length
    /// disagrees with the spec.
    pub fn new(shards: Vec<S>, spec: ShardSpec) -> Result<Self, ShardError> {
        if shards.is_empty() {
            return Err(ShardError::ZeroShards);
        }
        if shards.len() != spec.shards {
            return Err(ShardError::ShardCount { shards: shards.len(), spec: spec.shards });
        }
        Ok(Sharded { shards, spec, rows: Vec::new() })
    }

    /// Trains one structure per shard, in shard order, with
    /// `build(shard number, shard)`; returns the per-shard reports alongside.
    /// Trained with a shared config (same seed), a single range shard
    /// reproduces the unsharded build bit for bit.
    pub fn build<R>(
        partition: &ShardedCollection,
        mut build: impl FnMut(usize, &SetCollection) -> Result<(S, R), ShardError>,
    ) -> Result<(Self, Vec<R>), ShardError> {
        let mut shards = Vec::with_capacity(partition.num_shards());
        let mut reports = Vec::with_capacity(partition.num_shards());
        for (s, shard) in partition.shards().iter().enumerate() {
            // `partition` already rejects empty shards; re-checked so a
            // hand-rolled partition cannot reach a task build's enumeration panic.
            if shard.is_empty() {
                return Err(ShardError::EmptyShard { shard: s });
            }
            let (structure, report) = build(s, shard)?;
            shards.push(structure);
            reports.push(report);
        }
        Ok((Sharded::new(shards, partition.spec())?, reports))
    }

    /// The partition spec the shards were trained on.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The per-shard structures, in shard order.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }
}

impl Sharded<LearnedBloom> {
    /// Routes a globally labelled workload to every shard, relabelling each
    /// positive by *shard-level* containment (a global positive is a
    /// negative for shards that do not hold it). Each shard then trains with
    /// its own no-false-negative guarantee, and the OR inherits it for every
    /// global positive.
    pub fn build_from_workload(
        partition: &ShardedCollection,
        workload: &[(ElementSet, bool)],
        cfg: &BloomConfig,
    ) -> Result<(Self, Vec<BloomBuildReport>), ShardError> {
        Self::build(partition, |s, shard| {
            let local: Vec<(ElementSet, bool)> = workload
                .iter()
                .map(|(q, label)| (q.clone(), *label && shard.contains_subset(q)))
                .collect();
            if !local.iter().any(|(_, l)| *l) {
                return Err(ShardError::NoPositives { shard: s });
            }
            Ok(LearnedBloom::build(&local, cfg))
        })
    }
}

impl Sharded<LearnedSetIndex> {
    /// Binds each shard's index to its shard of `collection` — partitioned
    /// with the checkpoint's own spec — and its position map, so answers
    /// arrive in the collection's global positions.
    pub fn bind(
        self,
        collection: &SetCollection,
    ) -> Result<Sharded<IndexStructure>, ShardError> {
        let partition = ShardedCollection::partition(collection, self.spec)?;
        let shards = self
            .shards
            .into_iter()
            .zip(partition.shards())
            .map(|(index, shard)| IndexStructure { index, collection: Arc::clone(shard) })
            .collect();
        let rows =
            (0..partition.num_shards()).map(|s| Arc::clone(partition.globals(s))).collect();
        Ok(Sharded { shards, spec: self.spec, rows })
    }
}

impl<S: Fold> LearnedSetStructure for Sharded<S> {
    type Output = S::Output;
    const NAME: &'static str = S::NAME;

    /// Every shard answers the whole batch; each query's column of
    /// per-shard answers, lifted to global rows, folds in shard order.
    fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<S::Output>> {
        let mut columns = self.shards.iter().enumerate().map(|(s, shard)| {
            let answers = shard.query_batch(queries);
            match self.rows.get(s) {
                Some(rows) => answers.into_iter().map(|o| shard.lift(o, rows)).collect(),
                None => answers,
            }
        });
        let first = columns.next().expect("a sharded structure has at least one shard");
        let task = &self.shards[0];
        columns.fold(first, |acc, part| {
            acc.into_iter().zip(part).map(|(a, p)| task.fold(a, p)).collect()
        })
    }

    fn vocab(&self) -> Option<u32> {
        self.shards[0].vocab()
    }

    fn kernel_precision(&self) -> Option<Precision> {
        self.shards[0].kernel_precision()
    }
}

/// Hand-written because the vendored derive takes no generics; the bytes
/// are what the derive writes for `{ shards, spec }`.
impl<S: Serialize> Serialize for Sharded<S> {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("shards".to_string(), self.shards.serialize()),
            ("spec".to_string(), self.spec.serialize()),
        ])
    }
}

/// Refuses a shard array that is empty or disagrees with its spec, which
/// would otherwise serve part of the collection or mispair the partition.
/// Other fields are ignored, so an index checkpoint's old top-level
/// `target` (every shard records its own) still loads.
impl<S: Deserialize> Deserialize for Sharded<S> {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let field = |name| v.get(name).ok_or_else(|| serde::Error::missing_field(name));
        let shards = Vec::deserialize(field("shards")?)?;
        let spec = ShardSpec::deserialize(field("spec")?)?;
        Sharded::new(shards, spec).map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::GuidedConfig;
    use crate::model::DeepSetsConfig;
    use crate::shard::ShardBy;
    use crate::tasks::{CardinalityConfig, IndexConfig, LearnedCardinality, PositionTarget};
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
        let (model, reports) =
            Sharded::build(&collection, |_, shard| Ok(LearnedCardinality::build(shard, &cfg)))
                .unwrap();
        assert_eq!(reports.len(), 3);
        let q = &collection.shard(0).get(0)[..1];
        let direct: f64 = model.shards().iter().map(|m| m.estimate(q)).sum();
        assert_eq!(model.query(q).value, direct);
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
        let (filter, _) = Sharded::build_from_workload(&collection, &workload, &cfg).unwrap();
        for (q, label) in &workload {
            if *label {
                assert!(filter.query(q).value, "false negative on {q:?}");
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
        let (index, _) =
            Sharded::build(&collection, |_, shard| Ok(LearnedSetIndex::build(shard, &cfg)))
                .unwrap();
        let structure = index.bind(&c).unwrap();
        let subsets = setlearn_data::SubsetIndex::build(&c, 2);
        for (s, info) in subsets.iter() {
            assert_eq!(structure.query(s).value, Some(info.first_pos as usize), "subset {s:?}");
        }
        // One batch answers what single queries do.
        let queries: Vec<ElementSet> = subsets.iter().take(40).map(|(s, _)| s.clone()).collect();
        let outcomes = structure.query_batch(&queries);
        for (q, outcome) in queries.iter().zip(outcomes) {
            assert_eq!(outcome.value, structure.query(q).value);
            assert_eq!(outcome.value, subsets.get(q).map(|i| i.first_pos as usize));
        }
    }

    #[test]
    fn checkpoints_load_only_with_the_shards_their_spec_names() {
        let spec = ShardSpec::new(3, ShardBy::Hash);
        assert_eq!(
            Sharded::new(vec![1u8, 2], spec).unwrap_err(),
            ShardError::ShardCount { shards: 2, spec: 3 }
        );
        assert_eq!(Sharded::<u8>::new(Vec::new(), spec).unwrap_err(), ShardError::ZeroShards);
        let whole = Sharded::new(vec![1u8, 2, 3], spec).unwrap();
        let mut value = whole.serialize();
        let Value::Object(fields) = &mut value else { unreachable!() };
        // An index checkpoint written before the one type carries a
        // top-level `target`; it still loads.
        fields.insert(1, ("target".to_string(), Value::String("First".into())));
        assert!(Sharded::<u8>::deserialize(&value).is_ok());
        let Value::Object(fields) = &mut value else { unreachable!() };
        fields[0].1 = vec![1u8, 2].serialize();
        let err = Sharded::<u8>::deserialize(&value).unwrap_err();
        assert!(err.to_string().contains("2 shards"), "{err}");
    }
}

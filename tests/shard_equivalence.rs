//! Shard-equivalence suite: a sharded structure must answer like its
//! unsharded counterpart across shard counts N ∈ {1, 2, 7}.
//!
//! * A single range shard **is** the whole collection, so every task must
//!   reproduce the unsharded build bit-for-bit (same training data, same
//!   seed, same answers).
//! * For N > 1 the aggregation semantics carry the guarantees across the
//!   partition: cardinality errors compose additively (the documented
//!   triangle bound over per-shard errors), index lookups return the same
//!   global first positions, and the bloom OR keeps the per-shard
//!   no-false-negative guarantee for every global positive.
//! * Parallel batch answers must be bit-for-bit the sequential ones at
//!   every shard count.

use setlearn::hybrid::GuidedConfig;
use setlearn::model::{CompressionKind, DeepSetsConfig};
use setlearn::tasks::{
    BloomConfig, CardinalityConfig, IndexConfig, LearnedBloom, LearnedCardinality,
    LearnedSetStructure, PositionTarget, ShardedBloom, ShardedCardinality, ShardedIndex,
    ShardedIndexStructure,
};
use setlearn::{ShardBy, ShardSpec, ShardedCollection};
use setlearn_data::{ElementSet, GeneratorConfig, SetCollection, SubsetIndex};

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

fn collection() -> SetCollection {
    GeneratorConfig::sd(120, 3).generate()
}

fn quick_guided(seed: u64) -> GuidedConfig {
    GuidedConfig {
        warmup_epochs: 4,
        rounds: 1,
        epochs_per_round: 2,
        percentile: 0.9,
        batch_size: 64,
        learning_rate: 5e-3,
        seed,
    }
}

fn cardinality_cfg(vocab: u32) -> CardinalityConfig {
    let mut cfg = CardinalityConfig::new(DeepSetsConfig::lsm(vocab));
    cfg.guided = quick_guided(1);
    cfg.max_subset_size = 2;
    cfg
}

fn trained_subsets(c: &SetCollection) -> Vec<(ElementSet, u64)> {
    SubsetIndex::build(c, 2).iter().map(|(s, i)| (s.clone(), i.count)).collect()
}

#[test]
fn single_range_shard_reproduces_the_unsharded_cardinality_bit_for_bit() {
    let c = collection();
    let cfg = cardinality_cfg(c.num_elements());
    let (unsharded, _) = LearnedCardinality::build(&c, &cfg);
    let one =
        ShardedCollection::partition(&c, ShardSpec::new(1, ShardBy::Range)).unwrap();
    let (sharded, _) = ShardedCardinality::build(&one, &cfg).unwrap();
    let queries: Vec<ElementSet> =
        trained_subsets(&c).into_iter().map(|(s, _)| s).collect();
    // Same training data + same seed ⇒ the same model: f64 equality, not
    // tolerance.
    assert_eq!(sharded.query_batch(&queries), unsharded.query_batch(&queries));
    for q in queries.iter().take(50) {
        assert_eq!(sharded.estimate(q), unsharded.estimate(q), "query {q:?}");
    }
}

#[test]
fn sharded_cardinality_error_composes_additively_across_shard_counts() {
    let c = collection();
    let cfg = cardinality_cfg(c.num_elements());
    let subsets = trained_subsets(&c);
    let queries: Vec<ElementSet> = subsets.iter().map(|(s, _)| s.clone()).collect();
    for n in SHARD_COUNTS {
        for by in [ShardBy::Hash, ShardBy::Range] {
            let sharded_c =
                ShardedCollection::partition(&c, ShardSpec::new(n, by)).unwrap();
            let (model, _) = ShardedCardinality::build(&sharded_c, &cfg).unwrap();
            let shard_subsets: Vec<SubsetIndex> =
                sharded_c.shards().iter().map(|s| SubsetIndex::build(s, 2)).collect();
            let outcomes = model.query_batch(&queries);
            for ((q, truth), outcome) in subsets.iter().zip(&outcomes) {
                // The partition's exact counts are additive…
                let shard_truths: Vec<f64> = shard_subsets
                    .iter()
                    .map(|s| s.get(q).map_or(0.0, |i| i.count as f64))
                    .collect();
                assert_eq!(
                    shard_truths.iter().sum::<f64>(),
                    *truth as f64,
                    "N={n} {by}: partition lost or duplicated sets for {q:?}"
                );
                // …and the aggregate error respects the documented bound:
                // |Σ estimates − truth| ≤ Σ per-shard errors.
                let per_shard_error: f64 = model
                    .shards()
                    .iter()
                    .zip(&shard_truths)
                    .map(|(m, t)| (m.estimate(q) - t).abs())
                    .sum();
                assert!(
                    (outcome.value - *truth as f64).abs() <= per_shard_error + 1e-9,
                    "N={n} {by}: aggregate error exceeds the per-shard sum for {q:?}"
                );
            }
        }
    }
}

fn index_cfg(vocab: u32) -> IndexConfig {
    let mut model = DeepSetsConfig::lsm(vocab);
    model.compression = CompressionKind::None;
    IndexConfig {
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
    }
}

#[test]
fn sharded_index_returns_the_unsharded_global_positions() {
    let c = GeneratorConfig::rw(150, 21).generate();
    let cfg = index_cfg(c.num_elements());
    let subsets = SubsetIndex::build(&c, 2);
    for n in SHARD_COUNTS {
        let sharded_c =
            ShardedCollection::partition(&c, ShardSpec::new(n, ShardBy::Range)).unwrap();
        let (index, _) = ShardedIndex::build(&sharded_c, &cfg).unwrap();
        for (q, info) in subsets.iter() {
            assert_eq!(
                index.lookup(&sharded_c, q),
                Some(info.first_pos as usize),
                "N={n}: wrong global first position for {q:?}"
            );
        }
        // The bound trait surface answers identically.
        let structure = ShardedIndexStructure::new(index, &sharded_c);
        let queries: Vec<ElementSet> =
            subsets.iter().take(60).map(|(s, _)| s.clone()).collect();
        let outcomes = structure.query_batch(&queries);
        for (q, outcome) in queries.iter().zip(&outcomes) {
            assert_eq!(
                outcome.value,
                subsets.get(q).map(|i| i.first_pos as usize),
                "N={n}: trait surface diverged for {q:?}"
            );
        }
    }
}

#[test]
fn sharded_bloom_has_no_false_negatives_at_any_shard_count() {
    let c = collection();
    let mut cfg = BloomConfig::new(DeepSetsConfig::lsm(c.num_elements()));
    cfg.epochs = 6;
    let workload = setlearn_data::workload::membership_queries(&c, 150, 150, 2, cfg.seed);
    let queries: Vec<ElementSet> = workload.iter().map(|(q, _)| q.clone()).collect();

    // N = 1 (range): the relabeling is the identity, so the sharded build is
    // the unsharded one bit-for-bit.
    let (unsharded, _) = LearnedBloom::build(&workload, &cfg);
    let one =
        ShardedCollection::partition(&c, ShardSpec::new(1, ShardBy::Range)).unwrap();
    let (sharded_one, _) = ShardedBloom::build(&one, &workload, &cfg).unwrap();
    assert_eq!(sharded_one.query_batch(&queries), unsharded.query_batch(&queries));

    for n in SHARD_COUNTS {
        let sharded_c =
            ShardedCollection::partition(&c, ShardSpec::new(n, ShardBy::Hash)).unwrap();
        let (filter, _) = ShardedBloom::build(&sharded_c, &workload, &cfg).unwrap();
        for (q, label) in &workload {
            if *label {
                assert!(filter.contains(q), "N={n}: false negative on {q:?}");
            }
        }
    }
}

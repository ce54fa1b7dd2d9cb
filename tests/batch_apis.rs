//! Batched query APIs agree with their one-at-a-time counterparts
//! (including the paper's §9 multi-membership direction), exercised
//! through the unified [`setlearn::tasks::LearnedSetStructure`] surface.

use setlearn::hybrid::GuidedConfig;
use setlearn::model::DeepSetsConfig;
use setlearn::tasks::{
    BloomConfig, CardinalityConfig, IndexConfig, IndexStructure, LearnedBloom,
    LearnedCardinality, LearnedSetIndex, LearnedSetStructure,
};
use setlearn_data::{workload::membership_queries, ElementSet, GeneratorConfig};
use std::sync::Arc;

fn quick_guided() -> GuidedConfig {
    GuidedConfig {
        warmup_epochs: 8,
        rounds: 1,
        epochs_per_round: 4,
        percentile: 0.9,
        batch_size: 64,
        learning_rate: 5e-3,
        seed: 3,
    }
}

#[test]
fn cardinality_batch_equals_singles() {
    let c = GeneratorConfig::rw(400, 7).generate();
    let mut cfg = CardinalityConfig::new(DeepSetsConfig::clsm(c.num_elements()));
    cfg.guided = quick_guided();
    cfg.max_subset_size = 2;
    let (est, _) = LearnedCardinality::build(&c, &cfg);
    let queries: Vec<ElementSet> =
        c.sets().iter().take(50).map(|s| s[..2.min(s.len())].into()).collect();
    let batch = est.query_batch(&queries);
    for (q, b) in queries.iter().zip(batch) {
        assert_eq!(b.value, est.estimate(q), "query {q:?}");
    }
    assert!(est.query_batch::<ElementSet>(&[]).is_empty());
}

#[test]
fn index_batch_equals_singles() {
    let c = GeneratorConfig::rw(300, 9).generate();
    let mut cfg = IndexConfig::new(DeepSetsConfig::lsm(c.num_elements()));
    cfg.guided = quick_guided();
    cfg.max_subset_size = 2;
    let (index, _) = LearnedSetIndex::build(&c, &cfg);
    let queries: Vec<ElementSet> =
        c.sets().iter().take(50).map(|s| s[..2.min(s.len())].into()).collect();
    let singles: Vec<Option<usize>> = queries.iter().map(|q| index.lookup(&c, q)).collect();
    let structure = IndexStructure { index, collection: Arc::new(c) };
    let batch = structure.query_batch(&queries);
    for ((q, b), want) in queries.iter().zip(batch).zip(singles) {
        assert_eq!(b.value, want, "query {q:?}");
    }
}

#[test]
fn bloom_multi_membership_equals_singles_and_keeps_guarantee() {
    let c = GeneratorConfig::rw(400, 5).generate();
    let workload = membership_queries(&c, 300, 300, 4, 11);
    let mut cfg = BloomConfig::new(DeepSetsConfig::clsm(c.num_elements()));
    cfg.epochs = 20;
    let (filter, _) = LearnedBloom::build(&workload, &cfg);
    let queries: Vec<ElementSet> = workload.iter().map(|(q, _)| q.clone()).collect();
    let batch = filter.query_batch(&queries);
    for ((q, label), b) in workload.iter().zip(batch) {
        assert_eq!(b.value, filter.contains(q));
        if *label {
            assert!(b.value, "multi-membership false negative on {q:?}");
        }
    }
}

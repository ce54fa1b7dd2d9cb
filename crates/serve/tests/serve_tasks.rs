//! End-to-end: the three real learned structures served through the
//! runtime, with answers cross-checked against the direct (sequential)
//! serve paths.

use setlearn::hybrid::GuidedConfig;
use setlearn::model::DeepSetsConfig;
use setlearn::tasks::{
    BloomConfig, CardinalityConfig, IndexConfig, IndexStructure, LearnedBloom,
    LearnedCardinality, LearnedSetIndex, LearnedSetStructure,
};
use setlearn_data::{ElementSet, GeneratorConfig, SetCollection, SubsetIndex};
use setlearn_serve::{
    BloomTask, CardinalityTask, IndexTask, ServeConfig, ServeRuntime,
};
use std::sync::Arc;

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

fn small_collection() -> SetCollection {
    GeneratorConfig::sd(200, 11).generate()
}

fn queries(collection: &SetCollection, n: usize) -> Vec<ElementSet> {
    // Small vocabularies yield fewer distinct subsets than requested; callers
    // must size their assertions from the returned length.
    SubsetIndex::build(collection, 2).iter().take(n).map(|(s, _)| s.clone()).collect()
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        threads: 2,
        max_batch: 32,
        queue_capacity: 512,
        ..ServeConfig::default()
    }
}

// The unified query API provides the reference answers here: the runtime
// must agree with direct (unserved) batch queries bit-for-bit.
#[test]
fn cardinality_through_the_runtime_matches_direct_serving() {
    let collection = small_collection();
    let mut cfg = CardinalityConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.guided = quick_guided();
    cfg.max_subset_size = 2;
    let (estimator, _) = LearnedCardinality::build(&collection, &cfg);
    let qs = queries(&collection, 200);
    let expected: Vec<f64> =
        estimator.query_batch(&qs).into_iter().map(|o| o.value).collect();

    let runtime = ServeRuntime::start(CardinalityTask::new(estimator), serve_config());
    let tickets: Vec<_> = qs.iter().map(|q| runtime.submit(q.clone()).unwrap()).collect();
    for (ticket, want) in tickets.into_iter().zip(expected) {
        let got = ticket.wait().unwrap();
        assert!(got.value.is_finite());
        assert_eq!(got.value, want, "runtime answer diverged from direct query_batch");
    }
    let report = runtime.shutdown();
    assert_eq!(report.completed, qs.len() as u64);
    assert_eq!(report.shed, 0);
}

#[test]
fn index_through_the_runtime_matches_direct_serving() {
    let collection = Arc::new(small_collection());
    let cfg = IndexConfig {
        model: DeepSetsConfig::lsm(collection.num_elements()),
        guided: quick_guided(),
        max_subset_size: 2,
        range_length: 50.0,
        target: setlearn::tasks::PositionTarget::First,
    };
    let (index, _) = LearnedSetIndex::build(&collection, &cfg);
    let qs = queries(&collection, 150);
    let expected: Vec<Option<usize>> = index
        .lookup_batch_profiled(&collection, &qs)
        .into_iter()
        .map(|p| p.position)
        .collect();

    let runtime = ServeRuntime::start(
        IndexTask::new(IndexStructure { index, collection: Arc::clone(&collection) }),
        serve_config(),
    );
    let tickets: Vec<_> = qs.iter().map(|q| runtime.submit(q.clone()).unwrap()).collect();
    for (ticket, want) in tickets.into_iter().zip(expected) {
        assert_eq!(ticket.wait().unwrap().value, want);
    }
    let report = runtime.shutdown();
    assert_eq!(report.completed, qs.len() as u64);
}

#[test]
fn bloom_through_the_runtime_matches_direct_serving() {
    let collection = small_collection();
    let mut cfg = BloomConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.epochs = 4;
    let (filter, _) = LearnedBloom::build_from_collection(&collection, 300, 300, 2, &cfg);
    let qs = queries(&collection, 150);
    let expected: Vec<bool> = filter.query_batch(&qs).into_iter().map(|o| o.value).collect();

    let runtime = ServeRuntime::start(BloomTask::new(filter), serve_config());
    let tickets: Vec<_> = qs.iter().map(|q| runtime.submit(q.clone()).unwrap()).collect();
    for (ticket, want) in tickets.into_iter().zip(expected) {
        assert_eq!(ticket.wait().unwrap().value, want);
    }
    let report = runtime.shutdown();
    assert_eq!(report.completed, qs.len() as u64);
    assert!(report.batches > 0);
}

//! §7.2 lifecycle on the path that serves: a deployed estimator absorbs
//! updates in its collection's exact WAL-backed overlay, the pending-op
//! count is what triggers a retrain, and a compaction (snapshot → rebuild →
//! install) restores the baseline.

use setlearn::hybrid::GuidedConfig;
use setlearn::model::DeepSetsConfig;
use setlearn::mutable::MutableCollection;
use setlearn::tasks::{CardinalityConfig, LearnedCardinality, LearnedSetStructure};
use setlearn_data::{ElementSet, GeneratorConfig, SetCollection, SubsetIndex};
use setlearn_nn::q_error;
use std::sync::Arc;

fn build(collection: &SetCollection) -> LearnedCardinality {
    let mut cfg = CardinalityConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.guided = GuidedConfig {
        warmup_epochs: 20,
        rounds: 1,
        epochs_per_round: 10,
        percentile: 0.9,
        batch_size: 64,
        learning_rate: 5e-3,
        seed: 13,
    };
    cfg.max_subset_size = 2;
    LearnedCardinality::build(collection, &cfg).0
}

/// Mean q-error of `structure`'s answers over every subset of at most two
/// elements of `collection`.
fn mean_q_error<S: LearnedSetStructure<Output = f64>>(
    structure: &S,
    collection: &SetCollection,
) -> f64 {
    let subsets = SubsetIndex::build(collection, 2);
    let (queries, truths): (Vec<&ElementSet>, Vec<f64>) =
        subsets.iter().map(|(s, info)| (s, info.count as f64)).unzip();
    let answers = structure.query_batch(&queries);
    let total: f64 = answers.iter().zip(&truths).map(|(a, &t)| q_error(a.value, t, 1.0)).sum();
    total / queries.len() as f64
}

#[test]
fn overlay_absorbs_updates_and_compaction_closes_the_loop() {
    let wal_dir = std::env::temp_dir().join(format!("setlearn-lifecycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Phase 1: build on the initial collection and serve it mutably.
    let initial = Arc::new(GeneratorConfig::sd(500, 21).generate());
    let (collection, _) =
        MutableCollection::open(build(&initial), Arc::clone(&initial), &wal_dir).unwrap();

    // Phase 2: the collection grows — new sets arrive as durable inserts.
    let arrivals = GeneratorConfig::sd(400, 77).generate();
    let mut grown_sets: Vec<Vec<u32>> = initial.sets().iter().map(|s| s.to_vec()).collect();
    for (_, set) in arrivals.iter() {
        // Remap arrivals into the existing vocabulary.
        let remapped: Vec<u32> = set.iter().map(|&e| e % initial.num_elements()).collect();
        let remapped = setlearn_data::normalize(remapped);
        assert!(collection.insert(&remapped).unwrap().applied);
        grown_sets.push(remapped.to_vec());
    }
    let grown = SetCollection::new(grown_sets, initial.num_elements());
    assert_eq!(collection.pending_ops(), 400);

    // The overlay adds the exact count change to the model's estimate.
    let model = collection.structure();
    let singles = SubsetIndex::build(&grown, 1);
    let queries: Vec<&ElementSet> = singles.iter().map(|(s, _)| s).collect();
    let merged = collection.query_batch(&queries);
    for (q, answer) in queries.iter().zip(&merged) {
        let change = grown.cardinality(q) as f64 - initial.cardinality(q) as f64;
        assert_eq!(answer.value, (model.estimate(q) + change).max(0.0), "query {q:?}");
    }
    let drifted = mean_q_error(&collection, &grown);

    // Phase 3: compact — retrain on the merged collection and install it.
    let snapshot = collection.begin_compaction().unwrap().expect("a delta is pending");
    assert_eq!(snapshot.merged.len(), grown.len());
    let rebuilt = build(&snapshot.merged);
    collection.complete_compaction(rebuilt, snapshot).unwrap();
    assert_eq!(collection.pending_ops(), 0);
    let rebuilt_q = mean_q_error(&collection, &grown);
    assert!(
        rebuilt_q <= drifted * 1.5,
        "rebuild should not be worse than the drifted structure: {rebuilt_q} vs {drifted}"
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
}

//! End-to-end fault injection: every failure mode must degrade gracefully —
//! NaN models fall back to exact auxiliary structures, flag each such
//! answer (the serve runtime counts and traces it) and raise a retrain
//! signal, and adversarial training configurations finish with finite
//! weights via the harness recovery loop. Poisoned weights go in the one
//! way weights reach a built structure: through the loader.

use setlearn::hybrid::{FallbackReason, GuidedConfig};
use setlearn::model::{DeepSets, DeepSetsConfig};
use setlearn::monitor::{DriftMonitor, MonitorConfig, RetrainReason};
use setlearn::tasks::{
    CardinalityConfig, IndexConfig, LearnedCardinality, LearnedSetIndex, LearnedSetStructure,
};
use setlearn::TrainPolicy;
use serde::{Deserialize, Serialize};
use setlearn_data::{ElementSet, GeneratorConfig, SubsetIndex};
use setlearn_serve::{ServeConfig, ServeRuntime, StructureTask};

fn quick_guided(seed: u64) -> GuidedConfig {
    GuidedConfig {
        warmup_epochs: 8,
        rounds: 1,
        epochs_per_round: 4,
        percentile: 0.9,
        batch_size: 64,
        learning_rate: 5e-3,
        seed,
    }
}

/// `structure` loaded back with every weight NaN in its serialized
/// `"model"`, so its kernel is frozen from the poisoned weights. JSON cannot
/// carry NaN; the in-memory `serde::Value` can.
fn poisoned<S: Serialize + Deserialize>(structure: &S) -> S {
    let mut value = structure.serialize();
    let serde::Value::Object(fields) = &mut value else { panic!("a structure is an object") };
    let model = &mut fields.iter_mut().find(|(k, _)| k == "model").expect("a model").1;
    let mut weights = DeepSets::deserialize(model).expect("a DeepSets");
    let nan: Vec<_> = weights.weight_buffers().iter().map(|b| vec![f32::NAN; b.len()]).collect();
    weights.load_weight_buffers(&nan).expect("same shapes");
    assert!(weights.has_non_finite_weights());
    *model = weights.serialize();
    S::deserialize(&value).expect("the poisoned structure loads")
}

#[test]
fn nan_cardinality_model_serves_finite_and_requests_retrain() {
    let collection = GeneratorConfig::sd(300, 11).generate();
    let mut cfg = CardinalityConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.guided = quick_guided(3);
    cfg.max_subset_size = 2;
    let (est, _) = LearnedCardinality::build(&collection, &cfg);
    let est = poisoned(&est);

    let mut monitor = DriftMonitor::new(
        1.2,
        MonitorConfig { max_fallbacks: 10, ..MonitorConfig::default() },
    );
    let subsets = SubsetIndex::build(&collection, 2);
    for (s, &truth) in subsets.iter().take(60) {
        let v = est.estimate_monitored(s, &mut monitor);
        assert!(v.is_finite(), "query {s:?} served non-finite {v}");
        assert!(v >= 0.0 && v <= collection.len() as f64 + 1.0, "query {s:?} -> {v}");
        let _ = truth;
    }
    let queries: Vec<&ElementSet> = subsets.iter().take(60).map(|(s, _)| s).collect();
    let flagged = est
        .query_batch(&queries)
        .iter()
        .filter(|o| o.fallback == Some(FallbackReason::NonFinite))
        .count();
    assert!(flagged > 0, "NaN-model answers must be flagged as non-finite fallbacks");
    assert_eq!(monitor.should_retrain(), Some(RetrainReason::ServeFallbacks));
}

#[test]
fn nan_index_model_still_answers_membership_exactly() {
    let collection = GeneratorConfig::sd(250, 13).generate();
    let mut cfg = IndexConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.guided = quick_guided(5);
    cfg.max_subset_size = 2;
    let (index, _) = LearnedSetIndex::build(&collection, &cfg);
    let index = poisoned(&index);

    // Every indexed subset must still resolve (via the guard's full-scan
    // fallback); the answers are checked against the exact subset index.
    let subsets = SubsetIndex::build(&collection, 2);
    let mut fallbacks = 0;
    for (s, _) in subsets.iter().take(40) {
        let profile = index.lookup_profiled(&collection, s);
        assert!(profile.position.is_some(), "subset {s:?} lost under NaN model");
        fallbacks += usize::from(profile.fallback.is_some());
    }
    assert!(fallbacks > 0, "fallback path never engaged");
}

#[test]
fn guard_fallbacks_are_counted_and_traced() {
    let collection = GeneratorConfig::sd(300, 17).generate();
    let mut cfg = CardinalityConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.guided = quick_guided(7);
    cfg.max_subset_size = 2;
    let (est, _) = LearnedCardinality::build(&collection, &cfg);
    let est = poisoned(&est);

    // The registry and tracer are process-global, but no other runtime
    // serves this collection name, so its series and events are this
    // test's alone.
    let tenant = "fault-guard";
    let runtime = ServeRuntime::start_named(
        StructureTask::new(est),
        ServeConfig { threads: 1, ..ServeConfig::default() },
        tenant,
    );
    let fallbacks = || {
        setlearn_obs::metrics()
            .snapshot()
            .counter_value(
                "setlearn_serve_fallbacks_total",
                &[("task", "cardinality"), ("collection", tenant), ("reason", "non_finite")],
            )
            .expect("the runtime registered its counter")
    };
    let before = fallbacks();

    let subsets = SubsetIndex::build(&collection, 2);
    let served: usize = 25;
    let queries: Vec<ElementSet> = subsets.iter().take(served).map(|(s, _)| s.clone()).collect();
    let mut flagged = 0u64;
    for ticket in runtime.submit_many(queries) {
        let outcome = ticket.expect("admitted").wait().expect("answered");
        assert!(outcome.value.is_finite(), "guard must keep serving finite answers");
        assert_ne!(outcome.fallback, Some(FallbackReason::OutOfBounds));
        flagged += u64::from(outcome.fallback.is_some());
    }
    runtime.shutdown();

    // A few queries are answered by the exact auxiliary path without ever
    // invoking the model, so not every query falls back — but the vast
    // majority must, and the runtime counts each flagged answer once.
    assert!(flagged >= served as u64 / 2, "only {flagged} of {served} answers fell back");
    assert_eq!(fallbacks() - before, flagged);

    let trace_fallbacks = setlearn_obs::tracer()
        .records()
        .iter()
        .filter(|r| {
            let has = |key: &str, value: &str| {
                r.fields.iter().any(|f| f.key == key && f.text.as_deref() == Some(value))
            };
            r.kind == setlearn_obs::RecordKind::Event
                && r.name == "serve_fallback"
                && has("task", "cardinality")
                && has("collection", tenant)
                && has("reason", "non_finite")
        })
        .count();
    assert_eq!(trace_fallbacks as u64, flagged, "each fallback emits one serve_fallback event");
}

#[test]
fn adversarial_learning_rate_finishes_finite_through_harness_recovery() {
    let data: Vec<(Vec<u32>, f32)> = (0..160)
        .map(|i| (vec![i % 40, (i * 7) % 40, (i * 13) % 40], (i % 10) as f32 / 10.0))
        .collect();
    let mut cfg = DeepSetsConfig::lsm(40);
    cfg.output_activation = setlearn_nn::Activation::Identity;
    let mut model = DeepSets::new(cfg);
    // A learning rate four orders of magnitude too hot: plain SGD diverges
    // to NaN within a few batches.
    let mut opt = setlearn_nn::Optimizer::Sgd { lr: 5e4, clip: None };
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
    let mut policy = TrainPolicy::epochs(25);
    policy.max_recoveries = 8;
    let report = model.train_with_harness(
        &data,
        setlearn_nn::Loss::Mse,
        &mut opt,
        32,
        &mut rng,
        &policy,
    );
    assert!(report.best_loss.is_finite(), "harness never found a finite epoch");
    assert!(report.recoveries > 0, "the hot learning rate should have tripped recovery");
    assert!(report.final_lr < 5e4, "learning rate was never backed off");
    assert!(!model.has_non_finite_weights(), "restored weights must be finite");
}

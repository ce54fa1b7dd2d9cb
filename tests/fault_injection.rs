//! End-to-end fault injection: every failure mode in ISSUE scope must degrade
//! gracefully — corrupt weight files are rejected with a typed error, NaN
//! models fall back to exact auxiliary structures and raise a retrain signal,
//! and adversarial training configurations finish with finite weights via the
//! harness recovery loop.

use setlearn::hybrid::GuidedConfig;
use setlearn::model::{DeepSets, DeepSetsConfig};
use setlearn::monitor::{DriftMonitor, MonitorConfig, RetrainReason};
use setlearn::persist::{load_weights, save_weights, PersistError};
use setlearn::tasks::{
    CardinalityConfig, IndexConfig, LearnedCardinality, LearnedSetIndex,
};
use setlearn::TrainPolicy;
use setlearn_data::{GeneratorConfig, SubsetIndex};

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

fn poison(model: &mut DeepSets) {
    let poisoned: Vec<Vec<f32>> = model
        .snapshot_weights()
        .into_iter()
        .map(|b| vec![f32::NAN; b.len()])
        .collect();
    model.load_weight_buffers(&poisoned).expect("same shapes");
    assert!(model.has_non_finite_weights());
}

#[test]
fn corrupt_weight_file_yields_typed_error_never_panics() {
    let model = DeepSets::new(DeepSetsConfig::clsm(128));
    let mut path = std::env::temp_dir();
    path.push(format!("setlearn-fault-corrupt-{}.slw", std::process::id()));
    save_weights(&model, &path).expect("save");

    // Flip a byte in the middle of the stored payload.
    let mut bytes = std::fs::read(&path).expect("read back");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("rewrite");

    match load_weights(&path) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(msg.contains("checksum"), "diagnostic should name the check: {msg}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn nan_cardinality_model_serves_finite_and_requests_retrain() {
    let collection = GeneratorConfig::sd(300, 11).generate();
    let mut cfg = CardinalityConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.guided = quick_guided(3);
    cfg.max_subset_size = 2;
    let (mut est, _) = LearnedCardinality::build(&collection, &cfg);
    poison(est.model_mut());

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
    assert!(est.serve_guard().non_finite_fallbacks() > 0);
    assert_eq!(monitor.should_retrain(), Some(RetrainReason::ServeFallbacks));
}

#[test]
fn nan_index_model_still_answers_membership_exactly() {
    let collection = GeneratorConfig::sd(250, 13).generate();
    let mut cfg = IndexConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.guided = quick_guided(5);
    cfg.max_subset_size = 2;
    let (mut index, _) = LearnedSetIndex::build(&collection, &cfg);
    poison(index.model_mut());

    // Every indexed subset must still resolve (via the guard's full-scan
    // fallback); the answers are checked against the exact subset index.
    let subsets = SubsetIndex::build(&collection, 2);
    for (s, _) in subsets.iter().take(40) {
        let profile = index.lookup_profiled(&collection, s);
        assert!(profile.position.is_some(), "subset {s:?} lost under NaN model");
    }
    assert!(index.serve_guard().fallbacks() > 0, "fallback path never engaged");
}

#[test]
fn guard_fallbacks_are_counted_and_traced() {
    let collection = GeneratorConfig::sd(300, 17).generate();
    let mut cfg = CardinalityConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.guided = quick_guided(7);
    cfg.max_subset_size = 2;
    let (mut est, _) = LearnedCardinality::build(&collection, &cfg);
    poison(est.model_mut());

    // The registry and tracer are process-global and other tests in this
    // binary also trigger fallbacks, so assert monotone deltas, not totals.
    let fallback_count = || {
        setlearn_obs::metrics()
            .snapshot()
            .counter_value(
                "setlearn_serve_fallbacks_total",
                &[("task", "cardinality"), ("reason", "non_finite")],
            )
            .unwrap_or(0)
    };
    let before = fallback_count();

    let subsets = SubsetIndex::build(&collection, 2);
    let served: usize = 25;
    for (s, _) in subsets.iter().take(served) {
        let v = est.estimate(s);
        assert!(v.is_finite(), "guard must keep serving finite answers");
    }

    // A few queries are answered by the exact auxiliary path without ever
    // invoking the model, so not every query falls back — but the vast
    // majority must, and each fallback must be counted.
    let after = fallback_count();
    let delta = after - before;
    assert!(
        delta >= served as u64 / 2,
        "NaN-model queries must count non_finite fallbacks: {before} -> {after}"
    );

    let trace_fallbacks = setlearn_obs::tracer()
        .records()
        .iter()
        .filter(|r| {
            r.kind == setlearn_obs::RecordKind::Event
                && r.name == "serve_fallback"
                && r.fields.iter().any(|f| {
                    f.key == "task" && f.text.as_deref() == Some("cardinality")
                })
                && r.fields.iter().any(|f| {
                    f.key == "reason" && f.text.as_deref() == Some("non_finite")
                })
        })
        .count();
    assert!(
        trace_fallbacks as u64 >= delta,
        "each fallback must emit a serve_fallback trace event, saw {trace_fallbacks}"
    );
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

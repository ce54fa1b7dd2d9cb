//! Serialization roundtrips: trained structures keep their answers after a
//! JSON dump/load (the paper persists weight-only model dumps).

use setlearn::hybrid::GuidedConfig;
use setlearn::model::{DeepSets, DeepSetsConfig};
use setlearn::tasks::{CardinalityConfig, LearnedCardinality};
use setlearn_data::{GeneratorConfig, SetCollection};

fn quick_guided() -> GuidedConfig {
    GuidedConfig {
        warmup_epochs: 5,
        rounds: 1,
        epochs_per_round: 3,
        percentile: 0.9,
        batch_size: 64,
        learning_rate: 5e-3,
        seed: 2,
    }
}

#[test]
fn deepsets_roundtrips_through_json() {
    let model = DeepSets::new(DeepSetsConfig::clsm(1_000));
    let json = serde_json::to_string(&model).expect("serialize");
    let back: DeepSets = serde_json::from_str(&json).expect("deserialize");
    for q in [&[1u32, 2][..], &[999u32][..], &[5u32, 50, 500][..]] {
        assert_eq!(model.predict_one(q), back.predict_one(q));
    }
}

#[test]
fn trained_estimator_roundtrips_through_json() {
    let collection = GeneratorConfig::sd(200, 6).generate();
    let mut cfg = CardinalityConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.guided = quick_guided();
    cfg.max_subset_size = 2;
    let (est, _) = LearnedCardinality::build(&collection, &cfg);
    let json = serde_json::to_string(&est).expect("serialize");
    let back: LearnedCardinality = serde_json::from_str(&json).expect("deserialize");
    for (_, set) in collection.iter().take(20) {
        let q = &set[..2.min(set.len())];
        assert_eq!(est.estimate(q), back.estimate(q), "query {q:?}");
    }
}

/// A checkpoint tagged with the retired f16 precision is refused with a
/// message naming the precisions a retrain can pick, not served at another
/// precision.
#[test]
fn checkpoint_tagged_f16_is_refused_with_a_retrain_hint() {
    let collection = GeneratorConfig::sd(200, 6).generate();
    let mut cfg = CardinalityConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.guided = quick_guided();
    cfg.max_subset_size = 2;
    let (est, _) = LearnedCardinality::build(&collection, &cfg);
    let json = serde_json::to_string(&est).expect("serialize");
    let tagged = json.replace("\"precision\":\"F32\"", "\"precision\":\"F16\"");
    assert_ne!(tagged, json, "the checkpoint records its precision");
    let err = serde_json::from_str::<LearnedCardinality>(&tagged)
        .expect_err("an f16 checkpoint deserialized");
    assert!(err.to_string().contains("f32|q8"), "{err}");
}

/// A checkpoint written before the serve precision moved into the model
/// config — `"precision"` beside the model, none inside it — is refused
/// with a retrain hint: its index bounds were computed from f32 scores
/// whatever precision it named, so serving it at q8 could miss trained
/// subsets.
#[test]
fn checkpoint_without_a_model_precision_is_refused_with_a_retrain_hint() {
    use setlearn::tasks::{IndexConfig, LearnedSetIndex};
    let collection = GeneratorConfig::sd(200, 6).generate();
    let mut cfg = IndexConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.guided = quick_guided();
    cfg.max_subset_size = 2;
    let (index, _) = LearnedSetIndex::build(&collection, &cfg);
    let json = serde_json::to_string(&index).expect("serialize");
    let moved = json.replacen(",\"precision\":\"F32\"", "", 1);
    assert_ne!(moved, json, "the model config records its precision");
    let old = moved.replacen('{', "{\"precision\":\"Q8\",", 1);
    let path = std::env::temp_dir()
        .join(format!("setlearn-old-layout-{}.json", std::process::id()));
    std::fs::write(&path, old).expect("write");
    let err = setlearn::persist::load_json::<LearnedSetIndex>(&path)
        .expect_err("an old-layout checkpoint loaded");
    let _ = std::fs::remove_file(&path);
    assert!(err.to_string().contains("retrain with `train --precision f32|q8`"), "{err}");
}

/// Two builds of the same cardinality structure — one model, and two shards —
/// serialize to the same bytes: the hash-keyed outlier store and delta layer
/// are written in key order, not in a per-process random iteration order.
#[test]
fn cardinality_checkpoints_serialize_to_identical_bytes() {
    use setlearn::shard::{ShardBy, ShardSpec, ShardedCollection};
    use setlearn::tasks::Sharded;

    let collection = GeneratorConfig::sd(200, 6).generate();
    let mut cfg = CardinalityConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.guided = quick_guided();
    cfg.max_subset_size = 2;
    let inserted: Vec<u32> = collection.get(0).to_vec();
    let build = || {
        let (mut est, _) = LearnedCardinality::build(&collection, &cfg);
        est.note_inserted_set(&inserted);
        serde_json::to_vec(&est).expect("serialize")
    };
    let first = build();
    let est: LearnedCardinality = serde_json::from_slice(&first).expect("deserialize");
    assert!(est.num_outliers() > 8 && est.pending_updates() > 8, "too few keys to shuffle");
    assert!(first == build(), "one estimator, two byte streams");

    let shards = ShardedCollection::partition(&collection, ShardSpec::new(2, ShardBy::Hash))
        .expect("partition");
    let build_sharded = || {
        let (model, _) =
            Sharded::build(&shards, |_, shard| Ok(LearnedCardinality::build(shard, &cfg)))
                .expect("build");
        serde_json::to_vec(&model).expect("serialize")
    };
    assert!(build_sharded() == build_sharded(), "one sharded estimator, two byte streams");
}

#[test]
fn deserialized_model_can_keep_training() {
    let model = DeepSets::new(DeepSetsConfig::lsm(100));
    let json = serde_json::to_string(&model).unwrap();
    let mut back: DeepSets = serde_json::from_str(&json).unwrap();
    back.zero_grad(); // restores the skipped gradient buffers
    let data = vec![(vec![1u32, 2], 0.7f32), (vec![3u32], 0.2)];
    let mut opt = setlearn_nn::Optimizer::adam(0.01);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let stats = back.train_epoch(&data, setlearn_nn::Loss::Mse, &mut opt, 2, &mut rng);
    assert!(stats.mean_loss.is_finite());
}

/// `persist::load_json` refuses a collection file that breaks one of the
/// collection's rules — a set out of order, an id past the vocabulary, an
/// empty set — naming the set and the rule; a valid file loads unchanged.
#[test]
fn hostile_collection_files_are_refused_on_load() {
    let dir = std::env::temp_dir().join(format!("setlearn-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("collection.json");
    for (body, why) in [
        (r#"{"sets":[[3,2,1],[1,2]],"num_elements":4}"#, "set 0 is not strictly ascending"),
        (r#"{"sets":[[1,2],[4000000000]],"num_elements":4}"#, "set 1 holds id 4000000000"),
        (r#"{"sets":[[1,2],[]],"num_elements":4}"#, "set 1 is empty"),
    ] {
        std::fs::write(&path, body).unwrap();
        let err = setlearn::persist::load_json::<SetCollection>(&path).unwrap_err();
        assert!(err.to_string().contains(why), "{body}: {err}");
    }
    let valid = GeneratorConfig::rw(50, 3).generate();
    setlearn::persist::save_json(&valid, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let back: SetCollection = setlearn::persist::load_json(&path).unwrap();
    assert_eq!(back.sets(), valid.sets());
    assert_eq!(back.signatures(), valid.signatures());
    setlearn::persist::save_json(&back, &path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

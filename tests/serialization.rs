//! Serialization roundtrips: trained structures keep their answers after a
//! JSON dump/load (the paper persists weight-only model dumps).

use setlearn::hybrid::GuidedConfig;
use setlearn::model::{DeepSets, DeepSetsConfig};
use setlearn::tasks::{CardinalityConfig, LearnedCardinality};
use setlearn_data::GeneratorConfig;

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

mod slw2 {
    //! Corruption coverage for the checksummed `SLW2` binary weight format.

    use setlearn::model::{DeepSets, DeepSetsConfig};
    use setlearn::persist::{
        decode_weights, encode_weights, load_weights, save_weights, PersistError,
    };

    fn model() -> DeepSets {
        DeepSets::new(DeepSetsConfig::lsm(64))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("setlearn-slw2-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn binary_weights_roundtrip_through_a_file() {
        let m = model();
        let path = tmp("roundtrip.slw");
        save_weights(&m, &path).expect("save");
        let back = load_weights(&path).expect("load");
        for q in [&[1u32][..], &[2u32, 3][..], &[10u32, 20, 30][..]] {
            assert_eq!(m.predict_one(q), back.predict_one(q));
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn truncated_file_is_corrupt_not_a_panic() {
        let bytes = encode_weights(&model()).expect("encode");
        // Every truncation point must fail cleanly — never panic, never
        // yield a model built from partial data.
        for cut in [4, 5, 9, bytes.len() / 2, bytes.len() - 1] {
            match decode_weights(&bytes[..cut]) {
                Err(PersistError::Corrupt(_)) | Err(PersistError::Format(_)) => {}
                other => panic!("truncation at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_in_the_payload_is_detected() {
        let bytes = encode_weights(&model()).expect("encode");
        // Flip one bit in each of a spread of payload bytes (past the
        // 9-byte header); CRC-32 must catch all single-bit errors.
        let header = 9;
        let step = ((bytes.len() - header) / 50).max(1);
        for i in (header..bytes.len()).step_by(step) {
            let mut evil = bytes.clone();
            evil[i] ^= 0x10;
            match decode_weights(&evil) {
                Err(PersistError::Corrupt(_)) | Err(PersistError::Format(_)) => {}
                other => panic!("bit flip at byte {i} gave {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = encode_weights(&model()).expect("encode");
        bytes[..4].copy_from_slice(b"NOPE");
        assert!(matches!(decode_weights(&bytes), Err(PersistError::Format(_))));
        assert!(matches!(decode_weights(b""), Err(PersistError::Format(_))));
    }
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
    let loss = back.train_epoch(&data, setlearn_nn::Loss::Mse, &mut opt, 2, &mut rng);
    assert!(loss.is_finite());
}

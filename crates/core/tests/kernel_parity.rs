//! Kernel/scalar parity: the frozen f32 kernel must be bit-identical to the
//! scalar forward pass, q8 must stay within its stated tolerances, and
//! both precisions must preserve ServeGuard/fallback semantics through the
//! [`LearnedSetStructure`] trait on every task. A structure built at q8
//! keeps the paper's guarantees at q8: its index bounds and Bloom backup are
//! computed from the q8 kernel, so it finds every trained subset and rejects
//! no trained key.

use rand::rngs::StdRng;
use rand::SeedableRng;
use setlearn::kernel::{detect_kernel_isa, set_kernel_isa, FrozenModel, KernelIsa, Precision};
use setlearn::model::{CompressionKind, DeepSets, DeepSetsConfig, Pooling};
use setlearn::tasks::{
    BloomConfig, CardinalityConfig, IndexConfig, IndexStructure, LearnedBloom,
    LearnedCardinality, LearnedSetIndex, LearnedSetStructure, PositionTarget, QueryOutcome,
};
use setlearn::GuidedConfig;
use setlearn_data::{workload::membership_queries, ElementSet, GeneratorConfig, SubsetIndex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const VOCAB: u32 = 500;

fn model_config(compression: CompressionKind, pooling: Pooling) -> DeepSetsConfig {
    DeepSetsConfig {
        vocab: VOCAB,
        embedding_dim: 8,
        phi_hidden: vec![16],
        rho_hidden: vec![13], // deliberately not a multiple of the block width
        pooling,
        hidden_activation: setlearn_nn::Activation::Relu,
        output_activation: setlearn_nn::Activation::Sigmoid,
        compression,
        seed: 17,
        precision: Precision::F32,
    }
}

/// Queries spanning singleton through 6-element sets, including the maximum
/// valid vocab id on several of them.
fn query_sets() -> Vec<Vec<u32>> {
    let mut sets: Vec<Vec<u32>> = (0..48u32)
        .map(|i| (0..=(i % 6)).map(|j| (i * 37 + j * 11) % VOCAB).collect())
        .collect();
    sets.push(vec![VOCAB - 1]);
    sets.push(vec![0, VOCAB / 2, VOCAB - 1]);
    sets
}

#[test]
fn frozen_f32_is_bit_identical_to_scalar_predict_batch() {
    for compression in [
        CompressionKind::None,
        CompressionKind::Optimal { ns: 2 },
        CompressionKind::Hashed { buckets: 64, num_hashes: 2 },
    ] {
        for pooling in [Pooling::Sum, Pooling::Mean, Pooling::Max] {
            let model = DeepSets::new(model_config(compression.clone(), pooling));
            let frozen = FrozenModel::freeze(&model, Precision::F32);
            let sets = query_sets();
            let scalar = model.predict_batch(&sets);
            assert_eq!(frozen.predict_batch(&sets), scalar, "{compression:?}/{pooling:?}");
            for (s, &want) in sets.iter().zip(scalar.iter()) {
                assert_eq!(frozen.predict_one(s), want, "{compression:?}/{pooling:?} {s:?}");
            }
            // Empty batches are empty on both paths.
            assert!(frozen.predict_batch::<Vec<u32>>(&[]).is_empty());
            assert!(model.predict_batch::<Vec<u32>>(&[]).is_empty());
        }
    }
}

/// Training runs the same ISA-dispatched GEMM as serving, so a few epochs
/// under the portable loops and under the detected ISA must leave identical
/// weights. φ is 80 wide: one register tile plus a leftover-column pass.
#[test]
fn training_is_bit_identical_under_every_isa() {
    let data: Vec<(Vec<u32>, f32)> =
        query_sets().into_iter().enumerate().map(|(i, s)| (s, (i % 7) as f32 / 7.0)).collect();
    let train = |isa: KernelIsa| {
        set_kernel_isa(isa).unwrap();
        let mut config = model_config(CompressionKind::None, Pooling::Max);
        config.phi_hidden = vec![80];
        let mut model = DeepSets::new(config);
        model.zero_grad();
        let mut opt = setlearn_nn::Optimizer::adam(1e-2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..3 {
            model.train_epoch(&data, setlearn_nn::Loss::Mse, &mut opt, 16, &mut rng);
        }
        let bits = |b: &[f32]| b.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        model.weight_buffers().into_iter().map(bits).collect::<Vec<_>>()
    };
    let detected = detect_kernel_isa();
    let generic = train(KernelIsa::Generic);
    let native = train(detected);
    assert_eq!(generic, native, "training under {detected} diverged from generic");
}

#[test]
fn q8_stays_within_tolerance_and_nan_free() {
    for pooling in [Pooling::Sum, Pooling::Mean, Pooling::Max] {
        let model = DeepSets::new(model_config(CompressionKind::None, pooling));
        let reference = FrozenModel::freeze(&model, Precision::F32).predict_batch(&query_sets());
        let tol = 5e-2f32;
        let got = FrozenModel::freeze(&model, Precision::Q8).predict_batch(&query_sets());
        for (a, b) in reference.iter().zip(got.iter()) {
            assert!(b.is_finite(), "q8/{pooling:?}: non-finite score");
            assert!((a - b).abs() <= tol * (1.0 + a.abs()), "q8/{pooling:?}: {a} vs {b}");
        }
    }
}

#[test]
fn empty_sets_are_rejected_identically_on_both_paths() {
    let model = DeepSets::new(model_config(CompressionKind::None, Pooling::Sum));
    let frozen = FrozenModel::freeze(&model, Precision::F32);
    let scalar = catch_unwind(AssertUnwindSafe(|| model.predict_one(&[])));
    let kernel = catch_unwind(AssertUnwindSafe(|| frozen.predict_one(&[])));
    assert!(scalar.is_err(), "scalar path accepted an empty set");
    assert!(kernel.is_err(), "kernel path accepted an empty set");
}

/// query (a batch of one) and query_batch must agree bit-for-bit with each
/// other at every precision.
fn assert_paths_agree<S>(structure: &S, queries: &[ElementSet]) -> Vec<QueryOutcome<S::Output>>
where
    S: LearnedSetStructure,
    S::Output: PartialEq + std::fmt::Debug + Clone,
{
    let batch = structure.query_batch(queries);
    for (q, want) in queries.iter().zip(batch.iter()) {
        assert_eq!(&structure.query(q), want, "{}: single-query path diverged", S::NAME);
    }
    batch
}

fn quick_guided() -> GuidedConfig {
    GuidedConfig {
        warmup_epochs: 25,
        rounds: 1,
        epochs_per_round: 15,
        percentile: 0.9,
        batch_size: 64,
        learning_rate: 5e-3,
        seed: 5,
    }
}

/// Training is f32 and seeded whatever precision a structure serves at, so
/// the f32 and the q8 build of one config hold bit-equal weights.
fn assert_same_weights(a: &DeepSets, b: &DeepSets) {
    let bits = |m: &DeepSets| -> Vec<Vec<u32>> {
        m.snapshot_weights().iter().map(|w| w.iter().map(|x| x.to_bits()).collect()).collect()
    };
    assert!(bits(a) == bits(b), "the q8 build trained different weights");
}

#[test]
fn cardinality_trait_parity_across_precisions() {
    let collection = GeneratorConfig::sd(300, 7).generate();
    let mut model = DeepSetsConfig::lsm(collection.num_elements());
    model.embedding_dim = 8;
    model.phi_hidden = vec![32];
    model.rho_hidden = vec![32];
    let cfg = CardinalityConfig { model, guided: quick_guided(), max_subset_size: 3 };
    let (est, _) = LearnedCardinality::build(&collection, &cfg);
    let queries: Vec<ElementSet> =
        SubsetIndex::build(&collection, 3).iter().map(|(s, _)| s.clone()).collect();

    let baseline = assert_paths_agree(&est, &queries);
    let base_degraded = baseline.iter().filter(|o| o.degraded()).count();

    let (precision, max_qerr) = (Precision::Q8, 2.0);
    let model = DeepSetsConfig { precision, ..cfg.model.clone() };
    let q8_cfg = CardinalityConfig { model, ..cfg.clone() };
    let (alt, _) = LearnedCardinality::build(&collection, &q8_cfg);
    assert_same_weights(est.model(), alt.model());
    assert_eq!(alt.kernel().precision(), precision);
    let outcomes = assert_paths_agree(&alt, &queries);
    let degraded = outcomes.iter().filter(|o| o.degraded()).count();
    let slack = 2.max(queries.len() / 50);
    assert!(
        degraded <= base_degraded + slack,
        "{precision}: {degraded} degraded vs baseline {base_degraded}"
    );
    for (b, o) in baseline.iter().zip(outcomes.iter()) {
        assert!(o.value.is_finite() && o.value > 0.0, "{precision}: bad estimate {}", o.value);
        let qe = setlearn_nn::q_error(o.value, b.value, 1.0);
        assert!(qe <= max_qerr, "{precision}: q-error {qe} ({} vs {})", o.value, b.value);
    }
}

/// On each seed of the collection, the index built at q8 finds every
/// enumerated subset at the position the f32 index finds it. An f32 index
/// switched to q8 after its bounds were computed missed 6, 3 and 4 of
/// them on these three seeds.
#[test]
fn index_trait_parity_across_precisions() {
    for seed in [21, 5, 9] {
        let collection = Arc::new(GeneratorConfig::rw(300, seed).generate());
        let cfg = IndexConfig {
            model: DeepSetsConfig::lsm(collection.num_elements()),
            guided: quick_guided(),
            max_subset_size: 3,
            range_length: 16.0,
            target: PositionTarget::First,
        };
        let queries: Vec<ElementSet> =
            SubsetIndex::build(&collection, 3).iter().map(|(s, _)| s.clone()).collect();
        let build = |cfg: &IndexConfig| {
            let (index, _) = LearnedSetIndex::build(&collection, cfg);
            IndexStructure { index, collection: Arc::clone(&collection) }
        };
        let structure = build(&cfg);
        let baseline = assert_paths_agree(&structure, &queries);
        let base_hits = baseline.iter().filter(|o| o.value.is_some()).count();
        assert_eq!(base_hits, queries.len(), "seed {seed}: f32 must find every trained subset");

        let precision = Precision::Q8;
        let model = DeepSetsConfig { precision, ..cfg.model.clone() };
        let alt = build(&IndexConfig { model, ..cfg.clone() });
        assert_same_weights(structure.index.model(), alt.index.model());
        let outcomes = assert_paths_agree(&alt, &queries);
        for ((q, b), o) in queries.iter().zip(&baseline).zip(&outcomes) {
            assert_eq!(o.value, b.value, "seed {seed}, {precision}: subset {q:?}");
        }
    }
}

#[test]
fn bloom_trait_parity_across_precisions() {
    let collection = GeneratorConfig::rw(400, 31).generate();
    let workload = membership_queries(&collection, 300, 300, 4, 3);
    let mut cfg = BloomConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.epochs = 40;
    cfg.learning_rate = 1e-2;
    let (filter, _) = LearnedBloom::build(&workload, &cfg);
    let queries: Vec<ElementSet> = workload.iter().map(|(q, _)| q.clone()).collect();

    assert_paths_agree(&filter, &queries);

    let precision = Precision::Q8;
    let q8_cfg = BloomConfig { model: DeepSetsConfig { precision, ..cfg.model.clone() }, ..cfg };
    let (alt, _) = LearnedBloom::build(&workload, &q8_cfg);
    assert_same_weights(filter.model(), alt.model());
    let outcomes = assert_paths_agree(&alt, &queries);
    for ((q, present), o) in workload.iter().zip(&outcomes) {
        assert!(!present || o.value, "{precision}: trained key {q:?} rejected");
    }
}

/// Three epochs leave the classifier weak, so the backup filter carries
/// many positives: built at q8, it carries the ones the q8 kernel misses,
/// and no trained key is rejected. Table 9's metric scores the classifier
/// the structure serves: at q8 it is the share of served scores on the
/// right side of τ, not the f32 model's.
#[test]
fn q8_bloom_rejects_no_trained_key_and_scores_its_own_verdicts() {
    let collection = GeneratorConfig::rw(400, 31).generate();
    let workload = membership_queries(&collection, 300, 300, 4, 3);
    let mut cfg = BloomConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.model.precision = Precision::Q8;
    cfg.epochs = 3;
    cfg.learning_rate = 1e-2;
    let (filter, _) = LearnedBloom::build(&workload, &cfg);
    let served = workload
        .iter()
        .filter(|(q, label)| (filter.score(q) >= cfg.threshold) == *label)
        .count();
    assert_eq!(filter.binary_accuracy(&workload), served as f64 / workload.len() as f64);
    for (q, present) in &workload {
        assert!(!present || filter.contains(q), "trained key {q:?} rejected");
    }
}

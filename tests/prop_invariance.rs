//! Property-based tests of the workspace-wide invariants: permutation
//! invariance, compression losslessness through the encoder path, scaling
//! roundtrips, and Bloom-filter guarantees.

use proptest::prelude::*;
use setlearn::compress::CompressionSpec;
use setlearn::model::{CompressionKind, DeepSets, DeepSetsConfig, Pooling};
use setlearn_baselines::BloomFilter;
use setlearn_data::normalize;
use setlearn_nn::{Activation, LogMinMaxScaler};

fn model(vocab: u32, compression: CompressionKind, pooling: Pooling, seed: u64) -> DeepSets {
    DeepSets::new(DeepSetsConfig {
        vocab,
        embedding_dim: 4,
        phi_hidden: vec![8],
        rho_hidden: vec![8],
        pooling,
        hidden_activation: Activation::Tanh,
        output_activation: Activation::Sigmoid,
        compression,
        seed,
        precision: setlearn::Precision::F32,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any permutation of any set produces the identical prediction, for
    /// every encoder and pooling variant.
    #[test]
    fn deepsets_is_permutation_invariant(
        ids in proptest::collection::vec(0u32..500, 1..10),
        perm_seed in 0u64..1000,
        compressed in proptest::bool::ANY,
        pooling_idx in 0usize..3,
    ) {
        let set = normalize(ids);
        prop_assume!(!set.is_empty());
        let pooling = [Pooling::Sum, Pooling::Mean, Pooling::Max][pooling_idx];
        let compression = if compressed {
            CompressionKind::Optimal { ns: 2 }
        } else {
            CompressionKind::None
        };
        let m = model(500, compression, pooling, 9);
        // Deterministic permutation of the canonical set.
        let mut shuffled: Vec<u32> = set.to_vec();
        let n = shuffled.len();
        for i in 0..n {
            let j = ((perm_seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
            shuffled.swap(i, j);
        }
        prop_assert_eq!(m.predict_one(&set), m.predict_one(&shuffled));
    }

    /// Batch prediction equals one-by-one prediction.
    #[test]
    fn batch_and_single_predictions_agree(
        a in proptest::collection::vec(0u32..200, 1..6),
        b in proptest::collection::vec(0u32..200, 1..6),
    ) {
        let (a, b) = (normalize(a), normalize(b));
        prop_assume!(!a.is_empty() && !b.is_empty());
        let m = model(200, CompressionKind::None, Pooling::Sum, 4);
        let batch = m.predict_batch(&[&*a, &*b]);
        prop_assert_eq!(batch[0], m.predict_one(&a));
        prop_assert_eq!(batch[1], m.predict_one(&b));
    }

    /// Compression is lossless for every ns and any divisor >= 2.
    #[test]
    fn compression_roundtrip(
        max_id in 1u32..1_000_000,
        ns in 2usize..5,
        divisor in 2u32..5_000,
        frac in 0.0f64..1.0,
    ) {
        let spec = CompressionSpec::with_divisor(max_id, ns, divisor);
        let elem = (max_id as f64 * frac) as u32;
        prop_assert_eq!(spec.decompress(&spec.compress(elem)), elem);
    }

    /// Log-min-max scaling inverts within tolerance over its fitted range.
    #[test]
    fn scaler_roundtrip(values in proptest::collection::vec(0.0f64..1e9, 2..20), idx in 0usize..20) {
        let scaler = LogMinMaxScaler::fit(&values);
        let v = values[idx % values.len()];
        let back = scaler.unscale(scaler.scale(v));
        // f32 scaling limits precision; allow a relative tolerance.
        prop_assert!((back - v).abs() <= 2e-4 * (v + 1.0), "{v} -> {back}");
    }

    /// The traditional Bloom filter never produces false negatives.
    #[test]
    fn bloom_no_false_negatives(hashes in proptest::collection::vec(proptest::num::u64::ANY, 1..200)) {
        let mut bf = BloomFilter::new(hashes.len(), 0.01);
        for &h in &hashes {
            bf.insert_hash(h);
        }
        for &h in &hashes {
            prop_assert!(bf.contains_hash(h));
        }
    }
}

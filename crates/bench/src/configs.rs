//! Model/training configurations matching the paper's §8.1 settings,
//! scaled for bench-mode epoch counts.

use setlearn::hybrid::GuidedConfig;
use setlearn::model::{CompressionKind, DeepSetsConfig, Pooling};
use setlearn::tasks::{BloomConfig, CardinalityConfig, IndexConfig};
use setlearn_nn::Activation;

/// Model variant labels used throughout the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Non-compressed learned set model.
    Lsm,
    /// Compressed learned set model (`ns = 2`).
    Clsm,
}

impl Variant {
    /// Paper label.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Lsm => "LSM",
            Variant::Clsm => "CLSM",
        }
    }

    /// The encoder kind for this variant.
    pub fn compression(&self) -> CompressionKind {
        match self {
            Variant::Lsm => CompressionKind::None,
            Variant::Clsm => CompressionKind::Optimal { ns: 2 },
        }
    }
}

/// Base DeepSets config for a task. `neurons` is the paper's per-layer
/// width; embedding dims follow §8.1.
pub fn model_config(vocab: u32, embedding_dim: usize, neurons: usize, variant: Variant) -> DeepSetsConfig {
    DeepSetsConfig {
        vocab,
        embedding_dim,
        phi_hidden: vec![neurons],
        rho_hidden: vec![neurons],
        pooling: Pooling::Sum,
        hidden_activation: Activation::Relu,
        output_activation: Activation::Sigmoid,
        compression: variant.compression(),
        seed: 0xC0FFEE,
        precision: setlearn::Precision::F32,
    }
}

/// Guided schedule: bench-mode epoch counts (the paper trains 50–100 epochs;
/// these defaults reach the same qualitative regime in less wall-clock).
pub fn guided(percentile: f64, seed: u64) -> GuidedConfig {
    GuidedConfig {
        warmup_epochs: 15,
        rounds: 1,
        epochs_per_round: 10,
        percentile,
        batch_size: 128,
        learning_rate: 3e-3,
        seed,
    }
}

/// Cardinality-task config (paper: 64–256 neurons).
pub fn cardinality_config(vocab: u32, variant: Variant, percentile: f64) -> CardinalityConfig {
    CardinalityConfig {
        model: model_config(vocab, 8, 64, variant),
        guided: guided(percentile, 17),
        max_subset_size: 3,
    }
}

/// Index-task config (paper: 8–32 neurons, range length 100).
pub fn index_config(vocab: u32, variant: Variant, percentile: f64) -> IndexConfig {
    IndexConfig {
        model: model_config(vocab, 8, 32, variant),
        guided: guided(percentile, 23),
        max_subset_size: 2,
        range_length: 100.0,
        target: setlearn::tasks::PositionTarget::First,
    }
}

/// Bloom-task config (paper §8.4: embedding 2, two 8-neuron layers,
/// 50 epochs).
pub fn bloom_config(vocab: u32, variant: Variant) -> BloomConfig {
    let mut model = model_config(vocab, 2, 8, variant);
    model.phi_hidden = vec![8];
    model.rho_hidden = vec![8];
    BloomConfig {
        model,
        epochs: 30,
        batch_size: 128,
        learning_rate: 5e-3,
        threshold: 0.5,
        backup_fp_rate: 0.01,
        seed: 29,
    }
}

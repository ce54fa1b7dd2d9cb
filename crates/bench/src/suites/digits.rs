//! Digit-sum generalization suite (Figure 7): DeepSets and compressed
//! DeepSets against LSTM and GRU on text-digit summation.

use crate::timing::timed;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use setlearn::model::{CompressionKind, DeepSets, DeepSetsConfig, Pooling};
use setlearn_data::digits::{test_sets, training_sets, SumExample};
use setlearn_nn::{Activation, Dense, Embedding, Gru, Loss, Lstm, Matrix, Optimizer};

/// Which model family a run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigitModel {
    /// Plain DeepSets.
    DeepSets,
    /// Compressed DeepSets (`ns = 2`).
    CDeepSets,
    /// LSTM over the digit sequence.
    Lstm,
    /// GRU over the digit sequence.
    Gru,
}

impl DigitModel {
    /// Figure 7's legend label.
    pub fn name(&self) -> &'static str {
        match self {
            DigitModel::DeepSets => "DeepSets",
            DigitModel::CDeepSets => "CDeepSets",
            DigitModel::Lstm => "LSTM",
            DigitModel::Gru => "GRU",
        }
    }

    /// All four models.
    pub const ALL: [DigitModel; 4] =
        [DigitModel::DeepSets, DigitModel::CDeepSets, DigitModel::Lstm, DigitModel::Gru];
}

/// One model's Figure 7 series.
#[derive(Debug, Clone)]
pub struct DigitRun {
    /// Model family.
    pub model: DigitModel,
    /// `(test set size M, MAE)` series.
    pub mae_by_size: Vec<(usize, f64)>,
    /// Model bytes.
    pub memory_bytes: usize,
    /// Training seconds.
    pub training_secs: f64,
}

/// Suite parameters.
#[derive(Debug, Clone)]
pub struct DigitSuiteConfig {
    /// Largest digit value (10 for Figure 7a, 100 for 7b).
    pub max_value: u32,
    /// Training examples.
    pub n_train: usize,
    /// Maximum training set size (the paper uses 10).
    pub max_train_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Test set sizes M to probe.
    pub test_sizes: Vec<usize>,
    /// Test examples per size.
    pub n_test: usize,
}

impl DigitSuiteConfig {
    /// Bench-scale defaults mirroring the paper's setup.
    pub fn new(max_value: u32) -> Self {
        DigitSuiteConfig {
            max_value,
            n_train: 4_000,
            max_train_size: 10,
            epochs: 12,
            test_sizes: vec![5, 10, 20, 30, 50, 75, 100],
            n_test: 300,
        }
    }
}

/// Target scale: keeps sums in a sigmoid-free but numerically tame range.
fn target_scale(cfg: &DigitSuiteConfig) -> f32 {
    (cfg.max_train_size as f32) * (cfg.max_value as f32)
}

fn deepsets_config(cfg: &DigitSuiteConfig, compressed: bool) -> DeepSetsConfig {
    DeepSetsConfig {
        vocab: cfg.max_value + 1,
        embedding_dim: 16,
        phi_hidden: vec![32],
        rho_hidden: vec![],
        pooling: Pooling::Sum,
        hidden_activation: Activation::Tanh,
        // Identity head: sums grow linearly with set size, and a sigmoid
        // would cap extrapolation at the training range.
        output_activation: Activation::Identity,
        compression: if compressed {
            CompressionKind::Optimal { ns: 2 }
        } else {
            CompressionKind::None
        },
        seed: 3,
        precision: setlearn::Precision::F32,
    }
}

fn eval_deepsets(model: &DeepSets, scale: f32, tests: &[SumExample]) -> f64 {
    let mut mae = 0.0;
    for ex in tests {
        let pred = model.predict_one(&ex.values) as f64 * scale as f64;
        mae += (pred - ex.label).abs();
    }
    mae / tests.len() as f64
}

fn run_deepsets(cfg: &DigitSuiteConfig, compressed: bool, train: &[SumExample]) -> DigitRun {
    let scale = target_scale(cfg);
    let data: Vec<(Vec<u32>, f32)> =
        train.iter().map(|ex| (ex.values.clone(), ex.label as f32 / scale)).collect();
    let mut model = DeepSets::new(deepsets_config(cfg, compressed));
    model.zero_grad();
    let mut opt = Optimizer::adam(3e-3);
    let mut rng = StdRng::seed_from_u64(5);
    let (_, training_secs) = timed(|| {
        for _ in 0..cfg.epochs {
            model.train_epoch(&data, Loss::Mae, &mut opt, 64, &mut rng);
        }
    });
    let mae_by_size = cfg
        .test_sizes
        .iter()
        .map(|&m| {
            let tests = test_sets(cfg.n_test, m, cfg.max_value, 900 + m as u64);
            (m, eval_deepsets(&model, scale, &tests))
        })
        .collect();
    DigitRun {
        model: if compressed { DigitModel::CDeepSets } else { DigitModel::DeepSets },
        mae_by_size,
        memory_bytes: model.size_bytes(),
        training_secs,
    }
}

/// A recurrent regressor: embedding → LSTM/GRU → linear head.
enum Cell {
    Lstm(Lstm),
    Gru(Gru),
}

struct RnnRegressor {
    emb: Embedding,
    cell: Cell,
    head: Dense,
}

impl RnnRegressor {
    fn new(kind: DigitModel, vocab: u32, emb_dim: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let emb = Embedding::new(&mut rng, vocab as usize, emb_dim);
        let cell = match kind {
            DigitModel::Lstm => Cell::Lstm(Lstm::new(&mut rng, emb_dim, hidden)),
            DigitModel::Gru => Cell::Gru(Gru::new(&mut rng, emb_dim, hidden)),
            _ => unreachable!("recurrent kinds only"),
        };
        let head = Dense::new(&mut rng, hidden, 1, Activation::Identity);
        RnnRegressor { emb, cell, head }
    }

    fn zero_grad(&mut self) {
        self.emb.zero_grad();
        match &mut self.cell {
            Cell::Lstm(c) => c.zero_grad(),
            Cell::Gru(c) => c.zero_grad(),
        }
        self.head.zero_grad();
    }

    fn forward(&mut self, values: &[u32]) -> f32 {
        let e = self.emb.forward(values);
        let h = match &mut self.cell {
            Cell::Lstm(c) => c.forward(&e),
            Cell::Gru(c) => c.forward(&e),
        };
        self.head.forward(&h).data()[0]
    }

    fn predict(&self, values: &[u32]) -> f32 {
        let e = self.emb.predict(values);
        let h = match &self.cell {
            Cell::Lstm(c) => c.predict(&e),
            Cell::Gru(c) => c.predict(&e),
        };
        self.head.predict(&h).data()[0]
    }

    fn backward(&mut self, grad: f32) {
        let gh = self.head.backward(&Matrix::from_vec(1, 1, vec![grad]));
        let gx = match &mut self.cell {
            Cell::Lstm(c) => c.backward(&gh),
            Cell::Gru(c) => c.backward(&gh),
        };
        self.emb.backward(&gx);
    }

    fn step(&mut self, opt: &mut Optimizer) {
        opt.begin_step();
        for p in self.emb.params_mut() {
            opt.step(p);
        }
        match &mut self.cell {
            Cell::Lstm(c) => {
                for p in c.params_mut() {
                    opt.step(p);
                }
            }
            Cell::Gru(c) => {
                for p in c.params_mut() {
                    opt.step(p);
                }
            }
        }
        for p in self.head.params_mut() {
            opt.step(p);
        }
    }

    fn num_params(&self) -> usize {
        self.emb.num_params()
            + match &self.cell {
                Cell::Lstm(c) => c.num_params(),
                Cell::Gru(c) => c.num_params(),
            }
            + self.head.num_params()
    }
}

fn run_rnn(cfg: &DigitSuiteConfig, kind: DigitModel, train: &[SumExample]) -> DigitRun {
    let scale = target_scale(cfg);
    let mut model = RnnRegressor::new(kind, cfg.max_value + 1, 16, 32, 9);
    model.zero_grad();
    let mut opt = Optimizer::adam(3e-3);
    let mut rng = StdRng::seed_from_u64(6);
    let mut order: Vec<usize> = (0..train.len()).collect();
    let (_, training_secs) = timed(|| {
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(16) {
                for &i in chunk {
                    let ex = &train[i];
                    let pred = model.forward(&ex.values);
                    let target = ex.label as f32 / scale;
                    // MAE gradient, averaged over the micro-batch.
                    let g = (pred - target).signum() / chunk.len() as f32;
                    model.backward(g);
                }
                model.step(&mut opt);
            }
        }
    });
    let mae_by_size = cfg
        .test_sizes
        .iter()
        .map(|&m| {
            let tests = test_sets(cfg.n_test, m, cfg.max_value, 900 + m as u64);
            let mae = tests
                .iter()
                .map(|ex| (model.predict(&ex.values) as f64 * scale as f64 - ex.label).abs())
                .sum::<f64>()
                / tests.len() as f64;
            (m, mae)
        })
        .collect();
    DigitRun {
        model: kind,
        mae_by_size,
        memory_bytes: model.num_params() * 4,
        training_secs,
    }
}

/// Runs all four models for one digit range.
pub fn run(cfg: &DigitSuiteConfig) -> Vec<DigitRun> {
    let train = training_sets(cfg.n_train, cfg.max_train_size, cfg.max_value, 42);
    vec![
        run_deepsets(cfg, false, &train),
        run_deepsets(cfg, true, &train),
        run_rnn(cfg, DigitModel::Lstm, &train),
        run_rnn(cfg, DigitModel::Gru, &train),
    ]
}

//! Hybrid-structure machinery (paper §6): guided learning with iterative
//! outlier removal, and per-range local error bounds.
//!
//! The hybrid structure combines a learned model trained on the "learnable"
//! part of the data with an auxiliary exact structure holding the outliers
//! the model cannot fit. Task-specific hybrids live in [`crate::tasks`];
//! this module provides the shared training loop and the error-bound table.

use crate::model::DeepSets;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use setlearn_data::ElementSet;
use setlearn_nn::{Loss, Optimizer, TrainHarness, TrainPolicy, TrainReport};

/// Configuration of the guided-learning process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GuidedConfig {
    /// Warm-up epochs before the first outlier sweep.
    pub warmup_epochs: usize,
    /// Outlier-removal iterations after warm-up.
    pub rounds: usize,
    /// Epochs between successive sweeps (and after the last).
    pub epochs_per_round: usize,
    /// Keep-fraction per sweep: samples whose error exceeds this percentile
    /// of the current error distribution move to the auxiliary structure.
    /// `1.0` disables removal (the paper's "No Removal" column).
    pub percentile: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for GuidedConfig {
    fn default() -> Self {
        GuidedConfig {
            warmup_epochs: 20,
            rounds: 1,
            epochs_per_round: 20,
            percentile: 0.90,
            batch_size: 64,
            learning_rate: 1e-3,
            seed: 7,
        }
    }
}

/// Trains `model` on `data` with iterative outlier removal under a
/// [`TrainHarness`]: warm-up, then per round an error sweep that exiles the
/// samples above `cfg.percentile` and a fine-tune on the rest. `data`
/// targets must already be scaled. Returns the indices (into `data`) moved
/// to the auxiliary structure, and the run's report (loss per epoch
/// included).
///
/// The model ends on its final weights when the last epoch was accepted;
/// a run the harness stops on a rejected epoch ends on its best snapshot,
/// and later sweeps score those weights.
pub fn guided_train(
    model: &mut DeepSets,
    data: &[(ElementSet, f32)],
    loss: Loss,
    cfg: &GuidedConfig,
) -> (Vec<usize>, TrainReport) {
    assert!(!data.is_empty(), "guided training needs data");
    assert!(
        (0.0..=1.0).contains(&cfg.percentile),
        "percentile must be within [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Optimizer::adam(cfg.learning_rate);
    model.zero_grad();
    let total_epochs = cfg.warmup_epochs + cfg.rounds * cfg.epochs_per_round;
    let mut harness =
        TrainHarness::new(TrainPolicy::epochs(total_epochs.max(1)), opt.learning_rate());

    // Active sample indices; shrinks as outliers are exiled.
    let mut active: Vec<usize> = (0..data.len()).collect();
    let mut outliers: Vec<usize> = Vec::new();
    let view = |active: &[usize]| -> Vec<(&[u32], f32)> {
        active.iter().map(|&i| (&*data[i].0, data[i].1)).collect()
    };
    let mut epochs = |model: &mut DeepSets, active: &[usize], n: usize| {
        let view = view(active);
        model.train_harnessed(&mut harness, n, &view, loss, &mut opt, cfg.batch_size, &mut rng)
    };

    let mut running = epochs(model, &active, cfg.warmup_epochs);
    for _ in 0..cfg.rounds {
        if cfg.percentile < 1.0 && active.len() > 1 {
            // Error sweep over the active samples.
            let errors = model.per_sample_losses(&view(&active), loss);
            let mut sorted = errors.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let cut_idx = ((sorted.len() as f64 - 1.0) * cfg.percentile).floor() as usize;
            let threshold = sorted[cut_idx];
            let (keep, exile): (Vec<usize>, Vec<usize>) = active
                .iter()
                .zip(errors.iter())
                .partition_map(|(&i, &e)| if e <= threshold { Ok(i) } else { Err(i) });
            outliers.extend(exile);
            // Never empty the training set: the hybrid degenerates to a pure
            // auxiliary structure at the caller level instead.
            if !keep.is_empty() {
                active = keep;
            }
        }
        running = running && epochs(model, &active, cfg.epochs_per_round);
    }

    (outliers, harness.finish())
}

/// Tiny local partition helper (avoids pulling in itertools).
trait PartitionMapExt<T>: Iterator<Item = T> + Sized {
    fn partition_map<A, F: FnMut(T) -> Result<A, A>>(self, mut f: F) -> (Vec<A>, Vec<A>) {
        let mut ok = Vec::new();
        let mut err = Vec::new();
        for item in self {
            match f(item) {
                Ok(a) => ok.push(a),
                Err(a) => err.push(a),
            }
        }
        (ok, err)
    }
}
impl<I: Iterator + Sized> PartitionMapExt<I::Item> for I {}

/// Per-range local error bounds over the prediction domain (paper §6 and
/// §8.3.3 "Local error vs Global error").
///
/// A single global `max_error` forces every lookup to scan the widest
/// mispredicted window; bucketing the prediction domain into equal ranges
/// keeps one large outlier from widening every other search.
///
/// ```
/// use setlearn::hybrid::LocalErrorBounds;
///
/// // Accurate everywhere except one catastrophic estimate near 95.
/// let mut pairs: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, i as f64 + 1.0)).collect();
/// pairs.push((95.0, 500.0));
/// let bounds = LocalErrorBounds::compute(&pairs, 10.0);
/// assert_eq!(bounds.bound_for(5.0), 1.0);       // unaffected bucket
/// assert_eq!(bounds.global_bound(), 405.0);     // what one bound would pay
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalErrorBounds {
    min_val: f64,
    range_length: f64,
    /// Maximum absolute error per bucket.
    errors: Vec<f64>,
}

impl LocalErrorBounds {
    /// Computes bounds from `(estimate, truth)` pairs bucketed by estimate.
    ///
    /// # Panics
    /// If `range_length <= 0` or no pairs are given.
    pub fn compute(pairs: &[(f64, f64)], range_length: f64) -> Self {
        assert!(range_length > 0.0, "range length must be positive");
        assert!(!pairs.is_empty(), "no estimate/truth pairs");
        let min_val = pairs.iter().map(|&(e, _)| e).fold(f64::INFINITY, f64::min);
        let max_val = pairs.iter().map(|&(e, _)| e).fold(f64::NEG_INFINITY, f64::max);
        let buckets = (((max_val - min_val) / range_length).floor() as usize) + 1;
        let mut errors = vec![0.0f64; buckets];
        for &(est, truth) in pairs {
            let b = (((est - min_val) / range_length).floor() as usize).min(buckets - 1);
            errors[b] = errors[b].max((est - truth).abs());
        }
        LocalErrorBounds { min_val, range_length, errors }
    }

    /// The error bound applying to an estimate (Algorithm 2, line 5–6).
    /// Estimates outside the observed domain fall into the edge buckets.
    pub fn bound_for(&self, estimate: f64) -> f64 {
        let b = ((estimate - self.min_val) / self.range_length).floor();
        let idx = if b < 0.0 { 0 } else { (b as usize).min(self.errors.len() - 1) };
        self.errors[idx]
    }

    /// Global maximum error — what a single-bound structure would use.
    pub fn global_bound(&self) -> f64 {
        self.errors.iter().copied().fold(0.0, f64::max)
    }

    /// Mean per-bucket bound — the quantity the paper reports when
    /// contrasting local vs global errors (§8.3.3).
    pub fn mean_bound(&self) -> f64 {
        self.errors.iter().sum::<f64>() / self.errors.len() as f64
    }

    /// Serialized size in bytes (one `f64` per bucket plus the header).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.errors.len() * std::mem::size_of::<f64>()
    }
}

/// Why a served prediction was rejected and answered by the auxiliary
/// (exact) path instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FallbackReason {
    /// The model produced NaN or ±∞.
    NonFinite,
    /// The prediction fell outside the structure's valid output domain.
    OutOfBounds,
}

/// Serve-time prediction guard for hybrid structures.
///
/// A deployed model can go bad — weights corrupted on disk, NaN introduced
/// by a poisoned update, drift pushing predictions far outside the trained
/// domain. The guard checks every model output against the valid domain
/// `[lo, hi]` established at build time and reroutes offenders to the
/// auxiliary exact structure. It counts nothing: the rejection reason rides
/// on the answer's [`crate::tasks::QueryOutcome`], which the serve runtime
/// counts per collection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeGuard {
    lo: f64,
    hi: f64,
}

impl ServeGuard {
    /// Builds a guard for the valid output domain `[lo, hi]`.
    ///
    /// # Panics
    /// If the bounds are NaN or inverted.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "guard bounds must not be NaN");
        assert!(lo <= hi, "inverted guard bounds: [{lo}, {hi}]");
        ServeGuard { lo, hi }
    }

    /// Checks a prediction: `Ok` passes it through, `Err` means the caller
    /// must answer from the auxiliary structure.
    pub fn admit(&self, prediction: f64) -> Result<f64, FallbackReason> {
        if !prediction.is_finite() {
            return Err(FallbackReason::NonFinite);
        }
        if prediction < self.lo || prediction > self.hi {
            return Err(FallbackReason::OutOfBounds);
        }
        Ok(prediction)
    }

    /// Like [`ServeGuard::admit`], but degrades instead of failing: an
    /// out-of-bound prediction is clamped into the domain and a non-finite
    /// one becomes the domain's lower bound. The reason (if any) still
    /// reports the event so the caller can flag the answer.
    pub fn admit_or_clamp(&self, prediction: f64) -> (f64, Option<FallbackReason>) {
        match self.admit(prediction) {
            Ok(p) => (p, None),
            Err(FallbackReason::NonFinite) => {
                (if self.lo.is_finite() { self.lo } else { 0.0 }, Some(FallbackReason::NonFinite))
            }
            Err(FallbackReason::OutOfBounds) => {
                (prediction.clamp(self.lo, self.hi), Some(FallbackReason::OutOfBounds))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CompressionKind, DeepSetsConfig};
    use setlearn_data::normalize;

    #[test]
    fn local_bounds_isolate_outliers() {
        // Accurate everywhere except around estimate ~95.
        let mut pairs: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, i as f64 + 1.0)).collect();
        pairs.push((95.0, 500.0));
        let bounds = LocalErrorBounds::compute(&pairs, 10.0);
        assert_eq!(bounds.global_bound(), 405.0);
        // Buckets far from the outlier keep their small bound.
        assert_eq!(bounds.bound_for(5.0), 1.0);
        assert_eq!(bounds.bound_for(95.0), 405.0);
        assert!(bounds.mean_bound() < bounds.global_bound());
    }

    #[test]
    fn bound_for_clamps_out_of_domain_estimates() {
        let bounds = LocalErrorBounds::compute(&[(0.0, 1.0), (100.0, 100.0)], 10.0);
        assert_eq!(bounds.bound_for(-50.0), bounds.bound_for(0.0));
        assert_eq!(bounds.bound_for(1e9), bounds.bound_for(100.0));
    }

    #[test]
    fn guided_training_exiles_the_hard_samples() {
        // Learnable pattern: target = presence of element 0. Poisoned
        // samples get inverted targets, so they stay high-error.
        let mut data: Vec<(ElementSet, f32)> = Vec::new();
        for i in 1..60u32 {
            data.push((normalize(vec![0, i]), 0.9));
            data.push((normalize(vec![i, i + 64]), 0.1));
        }
        // Four poisoned samples.
        for i in 200..204u32 {
            data.push((normalize(vec![0, i % 60 + 1]), 0.1));
        }
        let cfg = DeepSetsConfig {
            vocab: 256,
            embedding_dim: 4,
            phi_hidden: vec![16],
            rho_hidden: vec![16],
            pooling: crate::model::Pooling::Sum,
            hidden_activation: setlearn_nn::Activation::Tanh,
            output_activation: setlearn_nn::Activation::Sigmoid,
            compression: CompressionKind::None,
            seed: 3,
            precision: crate::kernel::Precision::F32,
        };
        let mut model = DeepSets::new(cfg);
        let gcfg = GuidedConfig {
            warmup_epochs: 30,
            rounds: 1,
            epochs_per_round: 10,
            percentile: 0.95,
            batch_size: 16,
            learning_rate: 0.01,
            seed: 1,
        };
        let (outliers, report) = guided_train(&mut model, &data, Loss::Mse, &gcfg);
        assert!(!outliers.is_empty());
        // The poisoned samples (last four) should be among the exiles.
        let poisoned: Vec<usize> = (data.len() - 4..data.len()).collect();
        let caught = poisoned
            .iter()
            .filter(|i| outliers.contains(i))
            .count();
        assert!(caught >= 3, "caught only {caught} of 4 poisoned samples");
        // Loss history recorded for every epoch.
        assert_eq!(report.loss_history.len(), 40);
    }

    /// FNV-1a over a training run's bits — every weight, every accepted
    /// epoch's loss, every exiled index — one word per step.
    fn trajectory_hash(model: &DeepSets, history: &[f32], outliers: &[usize]) -> u64 {
        let weights = model.weight_buffers().into_iter().flatten().map(|w| w.to_bits() as u64);
        let losses = history.iter().map(|l| l.to_bits() as u64);
        weights
            .chain(losses)
            .chain(outliers.iter().map(|&i| i as u64))
            .fold(0xcbf2_9ce4_8422_2325u64, |h, w| (h ^ w).wrapping_mul(0x100_0000_01b3))
    }

    #[test]
    fn training_trajectories_are_pinned() {
        let mut data: Vec<(ElementSet, f32)> = Vec::new();
        for i in 1..40u32 {
            data.push((normalize(vec![0, i]), 0.9));
            data.push((normalize(vec![i, i + 64]), 0.1));
        }
        let cfg = DeepSetsConfig {
            vocab: 256,
            embedding_dim: 4,
            phi_hidden: vec![16],
            rho_hidden: vec![16],
            pooling: crate::model::Pooling::Sum,
            hidden_activation: setlearn_nn::Activation::Tanh,
            output_activation: setlearn_nn::Activation::Sigmoid,
            compression: CompressionKind::None,
            seed: 3,
            precision: crate::kernel::Precision::F32,
        };
        let gcfg = GuidedConfig {
            warmup_epochs: 10,
            rounds: 1,
            epochs_per_round: 5,
            percentile: 0.9,
            batch_size: 16,
            learning_rate: 0.01,
            seed: 1,
        };
        // Guided learning (cardinality, index): warm-up, one sweep, fine-tune.
        let mut model = DeepSets::new(cfg.clone());
        let (outliers, report) = guided_train(&mut model, &data, Loss::Mse, &gcfg);
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.epochs_run, 15);
        assert_eq!(outliers.len(), 8);
        assert_eq!(
            trajectory_hash(&model, &report.loss_history, &outliers),
            16_945_127_757_615_866_031,
            "guided trajectory moved"
        );

        // Plain harnessed training (Bloom), clean and through recoveries.
        let sets: Vec<(ElementSet, f32)> =
            data.iter().map(|(s, t)| (s.clone(), (*t > 0.5) as u32 as f32)).collect();
        let mut model = DeepSets::new(cfg.clone());
        model.zero_grad();
        let report = model.train_with_harness(
            &sets,
            Loss::BinaryCrossEntropy,
            &mut Optimizer::adam(0.01),
            16,
            &mut StdRng::seed_from_u64(1),
            &TrainPolicy::epochs(20),
        );
        assert_eq!(report.recoveries, 0);
        assert_eq!(
            trajectory_hash(&model, &report.loss_history, &[]),
            14_489_861_128_086_288_154,
            "harness trajectory moved"
        );

        let mut model = DeepSets::new(DeepSetsConfig {
            output_activation: setlearn_nn::Activation::Identity,
            ..cfg
        });
        model.zero_grad();
        let mut policy = TrainPolicy::epochs(25);
        policy.max_recoveries = 20;
        let report = model.train_with_harness(
            &data,
            Loss::Mse,
            &mut Optimizer::Sgd { lr: 5e4, clip: None },
            16,
            &mut StdRng::seed_from_u64(2),
            &policy,
        );
        assert!(report.recoveries > 0, "report: {report}");
        assert_eq!(
            trajectory_hash(&model, &report.loss_history, &[]),
            15_160_220_522_503_942_274,
            "recovering trajectory moved"
        );
    }

    #[test]
    fn diverging_guided_run_ships_weights_that_score_finite() {
        // Adam at an absurd learning rate moves every weight by ~lr per
        // step: one step in, the rest of the epoch's batches go non-finite.
        // Such an epoch is rejected, not kept as the best snapshot, and the
        // sweep and the shipped model never see its weights.
        let data: Vec<(ElementSet, f32)> = (1..120u32)
            .map(|i| (normalize(vec![i % 40, (i * 7) % 40 + 40]), (i % 10) as f32 / 10.0))
            .collect();
        let mut model = DeepSets::new(DeepSetsConfig {
            output_activation: setlearn_nn::Activation::Identity,
            ..DeepSetsConfig::lsm(128)
        });
        let gcfg = GuidedConfig {
            warmup_epochs: 10,
            rounds: 1,
            epochs_per_round: 5,
            percentile: 0.9,
            batch_size: 16,
            learning_rate: 5e4,
            seed: 1,
        };
        let (_, report) = guided_train(&mut model, &data, Loss::Mse, &gcfg);
        let losses = model.per_sample_losses(&data, Loss::Mse);
        let mean = losses.iter().sum::<f32>() / losses.len() as f32;
        assert!(mean.is_finite(), "shipped weights score mean loss {mean}; report: {report}");
    }

    #[test]
    fn serve_guard_admits_in_domain_predictions() {
        let g = ServeGuard::new(0.0, 100.0);
        assert_eq!(g.admit(42.0), Ok(42.0));
        assert_eq!(g.admit(0.0), Ok(0.0));
        assert_eq!(g.admit(100.0), Ok(100.0));
    }

    #[test]
    fn serve_guard_rejects_bad_predictions_by_reason() {
        let g = ServeGuard::new(0.0, 100.0);
        let verdicts: Vec<_> =
            [f64::NAN, f64::INFINITY, -5.0, 1e9, 50.0].map(|p| g.admit(p)).to_vec();
        assert_eq!(
            verdicts,
            [
                Err(FallbackReason::NonFinite),
                Err(FallbackReason::NonFinite),
                Err(FallbackReason::OutOfBounds),
                Err(FallbackReason::OutOfBounds),
                Ok(50.0),
            ]
        );
    }

    #[test]
    fn serve_guard_clamps_when_degrading() {
        let g = ServeGuard::new(1.0, 10.0);
        assert_eq!(g.admit_or_clamp(5.0), (5.0, None));
        assert_eq!(g.admit_or_clamp(-3.0), (1.0, Some(FallbackReason::OutOfBounds)));
        assert_eq!(g.admit_or_clamp(99.0), (10.0, Some(FallbackReason::OutOfBounds)));
        assert_eq!(g.admit_or_clamp(f64::NAN), (1.0, Some(FallbackReason::NonFinite)));
    }

    #[test]
    fn serve_guard_serializes_as_its_bounds() {
        let g = ServeGuard::new(0.0, 1.0);
        let json = serde_json::to_string(&g).unwrap();
        assert_eq!(json, r#"{"lo":0.0,"hi":1.0}"#);
        let back: ServeGuard = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.admit(2.0), Err(FallbackReason::OutOfBounds));
    }

    #[test]
    #[should_panic(expected = "inverted guard bounds")]
    fn serve_guard_rejects_inverted_bounds() {
        let _ = ServeGuard::new(10.0, 0.0);
    }

    #[test]
    fn percentile_one_disables_removal() {
        let data: Vec<(ElementSet, f32)> =
            (1..20u32).map(|i| (normalize(vec![i]), 0.5)).collect();
        let mut model = DeepSets::new(DeepSetsConfig::lsm(64));
        let cfg = GuidedConfig {
            warmup_epochs: 2,
            rounds: 2,
            epochs_per_round: 1,
            percentile: 1.0,
            batch_size: 8,
            learning_rate: 0.01,
            seed: 2,
        };
        let (outliers, _) = guided_train(&mut model, &data, Loss::Mse, &cfg);
        assert!(outliers.is_empty());
    }
}

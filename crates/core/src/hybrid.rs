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
use setlearn_nn::{Decision, Loss, Optimizer, TrainHarness, TrainPolicy, TrainReport};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Outcome of guided training.
#[derive(Debug, Clone)]
pub struct GuidedOutcome {
    /// Indices (into the original training data) moved to the auxiliary
    /// structure.
    pub outlier_indices: Vec<usize>,
    /// Mean training loss after every epoch.
    pub loss_history: Vec<f32>,
}

/// Trains `model` on `data` with iterative outlier removal; returns which
/// samples were exiled. `data` targets must already be scaled.
pub fn guided_train(
    model: &mut DeepSets,
    data: &[(ElementSet, f32)],
    loss: Loss,
    cfg: &GuidedConfig,
) -> GuidedOutcome {
    assert!(!data.is_empty(), "guided training needs data");
    assert!(
        (0.0..=1.0).contains(&cfg.percentile),
        "percentile must be within [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Optimizer::adam(cfg.learning_rate);
    model.zero_grad();

    // Active sample indices; shrinks as outliers are exiled.
    let mut active: Vec<usize> = (0..data.len()).collect();
    let mut outliers: Vec<usize> = Vec::new();
    let mut history = Vec::new();

    let run_epochs = |model: &mut DeepSets,
                          active: &[usize],
                          epochs: usize,
                          history: &mut Vec<f32>,
                          rng: &mut StdRng,
                          opt: &mut Optimizer| {
        let view: Vec<(&[u32], f32)> =
            active.iter().map(|&i| (&*data[i].0, data[i].1)).collect();
        for _ in 0..epochs {
            history.push(model.train_epoch(&view, loss, opt, cfg.batch_size, rng));
        }
    };

    run_epochs(model, &active, cfg.warmup_epochs, &mut history, &mut rng, &mut opt);

    for _ in 0..cfg.rounds {
        if cfg.percentile < 1.0 && active.len() > 1 {
            // Error sweep over the active samples.
            let view: Vec<(&[u32], f32)> =
                active.iter().map(|&i| (&*data[i].0, data[i].1)).collect();
            let errors = model.per_sample_losses(&view, loss);
            let mut sorted = errors.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let cut_idx =
                ((sorted.len() as f64 - 1.0) * cfg.percentile).floor() as usize;
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
        run_epochs(model, &active, cfg.epochs_per_round, &mut history, &mut rng, &mut opt);
    }

    GuidedOutcome { outlier_indices: outliers, loss_history: history }
}

/// Fault-tolerant variant of [`guided_train`]: the same guided-learning
/// schedule (warm-up, outlier sweeps, fine-tuning) driven through a
/// [`TrainHarness`], so non-finite losses/gradients are skipped, divergence
/// restores the last-good snapshot and backs the learning rate off, and the
/// caller gets a structured [`TrainReport`] next to the usual outcome.
///
/// `policy.max_epochs` is overridden with the schedule's total epoch count;
/// every other knob (recovery budget, backoff, patience) is honored. On a
/// clean run the training trajectory is identical to [`guided_train`]'s.
pub fn guided_train_hardened(
    model: &mut DeepSets,
    data: &[(ElementSet, f32)],
    loss: Loss,
    cfg: &GuidedConfig,
    policy: &TrainPolicy,
) -> (GuidedOutcome, TrainReport) {
    assert!(!data.is_empty(), "guided training needs data");
    assert!(
        (0.0..=1.0).contains(&cfg.percentile),
        "percentile must be within [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Optimizer::adam(cfg.learning_rate);
    model.zero_grad();

    let total_epochs = cfg.warmup_epochs + cfg.rounds * cfg.epochs_per_round;
    let mut policy = policy.clone();
    policy.max_epochs = total_epochs.max(1);
    let mut harness = TrainHarness::new(policy, opt.learning_rate());

    let mut active: Vec<usize> = (0..data.len()).collect();
    let mut outliers: Vec<usize> = Vec::new();
    let mut stopped = false;

    let run_epochs = |model: &mut DeepSets,
                          active: &[usize],
                          epochs: usize,
                          harness: &mut TrainHarness,
                          rng: &mut StdRng,
                          opt: &mut Optimizer,
                          stopped: &mut bool| {
        if *stopped {
            return;
        }
        let view: Vec<(&[u32], f32)> =
            active.iter().map(|&i| (&*data[i].0, data[i].1)).collect();
        for _ in 0..epochs {
            opt.set_learning_rate(harness.lr());
            let stats = model.train_epoch_guarded(&view, loss, opt, cfg.batch_size, rng, None);
            match harness.end_epoch(&stats, || model.snapshot_weights()) {
                Decision::Continue => {}
                Decision::Restore(snapshot) => {
                    if !snapshot.is_empty() {
                        model
                            .load_weight_buffers(&snapshot)
                            .expect("snapshot matches model");
                    }
                    model.reset_optimizer_state();
                    model.zero_grad();
                }
                Decision::Stop(_) => {
                    *stopped = true;
                    return;
                }
            }
        }
    };

    run_epochs(model, &active, cfg.warmup_epochs, &mut harness, &mut rng, &mut opt, &mut stopped);

    for _ in 0..cfg.rounds {
        if cfg.percentile < 1.0 && active.len() > 1 {
            let view: Vec<(&[u32], f32)> =
                active.iter().map(|&i| (&*data[i].0, data[i].1)).collect();
            let errors = model.per_sample_losses(&view, loss);
            let mut sorted = errors.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let cut_idx = ((sorted.len() as f64 - 1.0) * cfg.percentile).floor() as usize;
            let threshold = sorted[cut_idx];
            let (keep, exile): (Vec<usize>, Vec<usize>) = active
                .iter()
                .zip(errors.iter())
                .partition_map(|(&i, &e)| if e <= threshold { Ok(i) } else { Err(i) });
            outliers.extend(exile);
            if !keep.is_empty() {
                active = keep;
            }
        }
        run_epochs(
            model,
            &active,
            cfg.epochs_per_round,
            &mut harness,
            &mut rng,
            &mut opt,
            &mut stopped,
        );
    }

    let (report, best) = harness.finish_with_best();
    // Guided learning wants the *final* weights (they reflect the last
    // retained set), but a run whose tail diverged must not ship poisoned
    // weights — fall back to the best snapshot.
    if model.has_non_finite_weights() {
        if let Some(best) = best {
            model.load_weight_buffers(&best).expect("snapshot matches model");
        }
    }
    let history = report.loss_history.clone();
    (GuidedOutcome { outlier_indices: outliers, loss_history: history }, report)
}

/// Automatic outlier-threshold selection (paper §6: "the threshold is guided
/// by a defined error that we want to reach and can be set manually or
/// automatically", targeting a q-error in `[1, 1.4]` for the index task).
///
/// Trains with the warm-up schedule, then — instead of a fixed percentile —
/// finds the *largest* retained fraction whose mean per-sample loss meets
/// `target_mean_loss`, exiles the rest, and fine-tunes on the retained set.
/// Returns the outcome plus the fraction that was kept.
pub fn guided_train_auto(
    model: &mut DeepSets,
    data: &[(ElementSet, f32)],
    loss: Loss,
    cfg: &GuidedConfig,
    target_mean_loss: f32,
) -> (GuidedOutcome, f64) {
    assert!(!data.is_empty(), "guided training needs data");
    assert!(target_mean_loss > 0.0, "target loss must be positive");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Optimizer::adam(cfg.learning_rate);
    model.zero_grad();

    let view: Vec<(&[u32], f32)> = data.iter().map(|(s, t)| (&**s, *t)).collect();
    let mut history = Vec::new();
    for _ in 0..cfg.warmup_epochs {
        history.push(model.train_epoch(&view, loss, &mut opt, cfg.batch_size, &mut rng));
    }

    // One error sweep; sort ascending so prefix means are monotone, then
    // take the longest prefix whose mean meets the target.
    let errors = model.per_sample_losses(&view, loss);
    let mut order: Vec<usize> = (0..errors.len()).collect();
    order.sort_by(|&a, &b| errors[a].total_cmp(&errors[b]));
    let mut keep = 0usize;
    let mut running = 0.0f64;
    for (count, &i) in order.iter().enumerate() {
        running += errors[i] as f64;
        if running / (count + 1) as f64 <= target_mean_loss as f64 {
            keep = count + 1;
        }
    }
    // Never train on nothing; at worst keep the single best sample (the
    // structure then effectively degenerates to its auxiliary part).
    keep = keep.max(1);
    let (kept, exiled) = order.split_at(keep);
    let outliers: Vec<usize> = exiled.to_vec();

    let retained: Vec<(&[u32], f32)> =
        kept.iter().map(|&i| (&*data[i].0, data[i].1)).collect();
    for _ in 0..cfg.epochs_per_round.max(1) * cfg.rounds.max(1) {
        history.push(model.train_epoch(&retained, loss, &mut opt, cfg.batch_size, &mut rng));
    }

    let fraction = keep as f64 / data.len() as f64;
    (GuidedOutcome { outlier_indices: outliers, loss_history: history }, fraction)
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

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.errors.len()
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
/// auxiliary exact structure, counting the events so a [`crate::monitor::DriftMonitor`] can
/// raise the retrain signal when fallbacks pile up.
///
/// Counters are atomic: serving stays `&self` and thread-safe.
#[derive(Debug, Serialize, Deserialize)]
pub struct ServeGuard {
    lo: f64,
    hi: f64,
    #[serde(skip)]
    served: AtomicU64,
    #[serde(skip)]
    non_finite: AtomicU64,
    #[serde(skip)]
    out_of_bounds: AtomicU64,
}

impl Clone for ServeGuard {
    fn clone(&self) -> Self {
        ServeGuard {
            lo: self.lo,
            hi: self.hi,
            served: AtomicU64::new(self.served.load(Ordering::Relaxed)),
            non_finite: AtomicU64::new(self.non_finite.load(Ordering::Relaxed)),
            out_of_bounds: AtomicU64::new(self.out_of_bounds.load(Ordering::Relaxed)),
        }
    }
}

impl Default for ServeGuard {
    /// A permissive guard that only rejects non-finite predictions (used
    /// when deserializing structures persisted before guards existed).
    fn default() -> Self {
        ServeGuard {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            served: AtomicU64::new(0),
            non_finite: AtomicU64::new(0),
            out_of_bounds: AtomicU64::new(0),
        }
    }
}

impl ServeGuard {
    /// Builds a guard for the valid output domain `[lo, hi]`.
    ///
    /// # Panics
    /// If the bounds are NaN or inverted.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "guard bounds must not be NaN");
        assert!(lo <= hi, "inverted guard bounds: [{lo}, {hi}]");
        ServeGuard { lo, hi, ..Self::default() }
    }

    /// Checks a prediction: `Ok` passes it through, `Err` means the caller
    /// must answer from the auxiliary structure. Counts both outcomes.
    pub fn admit(&self, prediction: f64) -> Result<f64, FallbackReason> {
        self.served.fetch_add(1, Ordering::Relaxed);
        if !prediction.is_finite() {
            self.non_finite.fetch_add(1, Ordering::Relaxed);
            return Err(FallbackReason::NonFinite);
        }
        if prediction < self.lo || prediction > self.hi {
            self.out_of_bounds.fetch_add(1, Ordering::Relaxed);
            return Err(FallbackReason::OutOfBounds);
        }
        Ok(prediction)
    }

    /// Like [`ServeGuard::admit`], but degrades instead of failing: an
    /// out-of-bound prediction is clamped into the domain and a non-finite
    /// one becomes the domain's lower bound. The reason (if any) still
    /// reports the event so the caller can feed a monitor.
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

    /// Total predictions checked.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Non-finite rejections.
    pub fn non_finite_fallbacks(&self) -> u64 {
        self.non_finite.load(Ordering::Relaxed)
    }

    /// Out-of-bounds rejections.
    pub fn out_of_bounds_fallbacks(&self) -> u64 {
        self.out_of_bounds.load(Ordering::Relaxed)
    }

    /// Total rejections of either kind.
    pub fn fallbacks(&self) -> u64 {
        self.non_finite_fallbacks() + self.out_of_bounds_fallbacks()
    }

    /// Fraction of served predictions that fell back (`0.0` before any
    /// serve).
    pub fn fallback_fraction(&self) -> f64 {
        let served = self.served();
        if served == 0 {
            return 0.0;
        }
        self.fallbacks() as f64 / served as f64
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
        let outcome = guided_train(&mut model, &data, Loss::Mse, &gcfg);
        assert!(!outcome.outlier_indices.is_empty());
        // The poisoned samples (last four) should be among the exiles.
        let poisoned: Vec<usize> = (data.len() - 4..data.len()).collect();
        let caught = poisoned
            .iter()
            .filter(|i| outcome.outlier_indices.contains(i))
            .count();
        assert!(caught >= 3, "caught only {caught} of 4 poisoned samples");
        // Loss history recorded for every epoch.
        assert_eq!(outcome.loss_history.len(), 40);
    }

    #[test]
    fn auto_threshold_meets_the_target_on_retained_samples() {
        // Mixed data: a learnable rule plus poisoned samples.
        let mut data: Vec<(ElementSet, f32)> = Vec::new();
        for i in 1..50u32 {
            data.push((normalize(vec![0, i]), 0.9));
            data.push((normalize(vec![i, i + 64]), 0.1));
        }
        for i in 0..6u32 {
            data.push((normalize(vec![0, (i * 7) % 49 + 1, 120 + i]), 0.1));
        }
        let mut model = DeepSets::new(DeepSetsConfig {
            vocab: 256,
            embedding_dim: 4,
            phi_hidden: vec![16],
            rho_hidden: vec![16],
            pooling: crate::model::Pooling::Sum,
            hidden_activation: setlearn_nn::Activation::Tanh,
            output_activation: setlearn_nn::Activation::Sigmoid,
            compression: CompressionKind::None,
            seed: 3,
        });
        let cfg = GuidedConfig {
            warmup_epochs: 40,
            rounds: 1,
            epochs_per_round: 15,
            percentile: 0.9, // ignored by the auto variant
            batch_size: 16,
            learning_rate: 0.01,
            seed: 1,
        };
        let target = 0.02; // mean MSE target
        let (outcome, fraction) = guided_train_auto(&mut model, &data, Loss::Mse, &cfg, target);
        assert!(fraction > 0.5, "kept only {fraction}");
        // The retained samples actually meet the target at sweep time.
        let retained: Vec<(ElementSet, f32)> = data
            .iter()
            .enumerate()
            .filter(|(i, _)| !outcome.outlier_indices.contains(i))
            .map(|(_, d)| d.clone())
            .collect();
        let mean: f32 = model
            .per_sample_losses(&retained, Loss::Mse)
            .iter()
            .sum::<f32>()
            / retained.len() as f32;
        // Fine-tuning only improves the retained set; allow slack for drift.
        assert!(mean < target * 2.0, "retained mean loss {mean}");
    }

    #[test]
    fn auto_threshold_with_impossible_target_exiles_almost_everything() {
        let data: Vec<(ElementSet, f32)> =
            (1..40u32).map(|i| (normalize(vec![i]), (i % 2) as f32)).collect();
        let mut model = DeepSets::new(DeepSetsConfig::lsm(64));
        let cfg = GuidedConfig {
            warmup_epochs: 2,
            rounds: 1,
            epochs_per_round: 1,
            percentile: 1.0,
            batch_size: 8,
            learning_rate: 0.01,
            seed: 2,
        };
        let (outcome, fraction) = guided_train_auto(&mut model, &data, Loss::Mse, &cfg, 1e-9);
        assert!(fraction <= 0.1, "fraction {fraction}");
        assert!(outcome.outlier_indices.len() >= data.len() - 2);
    }

    #[test]
    fn hardened_guided_training_matches_plain_on_clean_data() {
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
        let mut plain = DeepSets::new(cfg.clone());
        let plain_outcome = guided_train(&mut plain, &data, Loss::Mse, &gcfg);
        let mut hardened = DeepSets::new(cfg);
        let (outcome, report) = guided_train_hardened(
            &mut hardened,
            &data,
            Loss::Mse,
            &gcfg,
            &setlearn_nn::TrainPolicy::default(),
        );
        // A clean run is bit-identical to the unhardened path.
        assert_eq!(outcome.loss_history, plain_outcome.loss_history);
        assert_eq!(outcome.outlier_indices, plain_outcome.outlier_indices);
        assert_eq!(hardened.weight_buffers(), plain.weight_buffers());
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.epochs_run, 15);
        assert!(report.is_healthy());
    }

    #[test]
    fn serve_guard_admits_in_domain_predictions() {
        let g = ServeGuard::new(0.0, 100.0);
        assert_eq!(g.admit(42.0), Ok(42.0));
        assert_eq!(g.admit(0.0), Ok(0.0));
        assert_eq!(g.admit(100.0), Ok(100.0));
        assert_eq!(g.served(), 3);
        assert_eq!(g.fallbacks(), 0);
        assert_eq!(g.fallback_fraction(), 0.0);
    }

    #[test]
    fn serve_guard_rejects_and_counts_bad_predictions() {
        let g = ServeGuard::new(0.0, 100.0);
        assert_eq!(g.admit(f64::NAN), Err(FallbackReason::NonFinite));
        assert_eq!(g.admit(f64::INFINITY), Err(FallbackReason::NonFinite));
        assert_eq!(g.admit(-5.0), Err(FallbackReason::OutOfBounds));
        assert_eq!(g.admit(1e9), Err(FallbackReason::OutOfBounds));
        assert_eq!(g.admit(50.0), Ok(50.0));
        assert_eq!(g.non_finite_fallbacks(), 2);
        assert_eq!(g.out_of_bounds_fallbacks(), 2);
        assert_eq!(g.fallback_fraction(), 0.8);
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
    fn serve_guard_feeds_the_drift_monitor() {
        use crate::monitor::{MonitorConfig, RetrainReason};
        let g = ServeGuard::new(0.0, 1.0);
        let mut monitor = crate::monitor::DriftMonitor::new(
            1.1,
            MonitorConfig { max_fallbacks: 3, ..MonitorConfig::default() },
        );
        for _ in 0..3 {
            if g.admit_or_clamp(f64::NAN).1.is_some() {
                monitor.record_fallback();
            }
        }
        assert_eq!(monitor.should_retrain(), Some(RetrainReason::ServeFallbacks));
    }

    #[test]
    fn serve_guard_counters_survive_cloning_but_not_serialization() {
        let g = ServeGuard::new(0.0, 1.0);
        let _ = g.admit(f64::NAN);
        let clone = g.clone();
        assert_eq!(clone.fallbacks(), 1);
        let json = serde_json::to_string(&g).unwrap();
        let back: ServeGuard = serde_json::from_str(&json).unwrap();
        // Bounds persist; counters are runtime-only.
        assert_eq!(back.admit(2.0), Err(FallbackReason::OutOfBounds));
        assert_eq!(back.fallbacks(), 1);
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
        let outcome = guided_train(&mut model, &data, Loss::Mse, &cfg);
        assert!(outcome.outlier_indices.is_empty());
    }
}

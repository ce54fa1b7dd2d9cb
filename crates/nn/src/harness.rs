//! Fault-tolerant training harness.
//!
//! Wraps an epoch loop with the guard rails production training needs:
//!
//! * **Non-finite detection** — an epoch reporting NaN/∞ loss, or skipping
//!   at least as many non-finite batches as it stepped, triggers recovery
//!   instead of silently poisoning every later epoch.
//! * **Divergence detection** — a finite loss that explodes past
//!   `divergence_factor × best` is treated the same way.
//! * **Automatic recovery** — restore the last-good weight snapshot, halve
//!   the learning rate (`lr_backoff`), and retry, up to `max_recoveries`
//!   times and never below `min_lr`.
//! * **Best-model tracking** — the harness keeps the weights of the best
//!   epoch seen; a run that stops on a rejected epoch ships them, never the
//!   diverged weights.
//!
//! The harness is model-agnostic: it never touches a network directly. The
//! caller drives it one epoch at a time —
//!
//! ```
//! use setlearn_nn::harness::{Decision, EpochStats, TrainHarness, TrainPolicy};
//!
//! let mut harness = TrainHarness::new(TrainPolicy::default(), 0.05);
//! let mut weights = vec![vec![1.0f32]]; // stand-in for real parameters
//! loop {
//!     let _lr = harness.lr(); // apply to the optimizer
//!     let stats = EpochStats::from_loss(0.1); // run one real epoch here
//!     match harness.end_epoch(&stats, || weights.clone()) {
//!         Decision::Continue => {}
//!         Decision::Restore(snapshot) => weights = snapshot, // reload + lower lr
//!         Decision::Stop(_) => break,
//!     }
//! }
//! let report = harness.finish();
//! assert!(report.best_loss.is_finite());
//! ```
//!
//! and loads `report`/`best_weights` back into the model afterwards.

use serde::{Deserialize, Serialize};
use setlearn_obs::{Counter, Field, Gauge, Histogram};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Weight snapshot: one owned buffer per parameter tensor, in the model's
/// canonical buffer order.
pub type WeightSnapshot = Vec<Vec<f32>>;

/// Guard-rail configuration for [`TrainHarness`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainPolicy {
    /// Hard cap on total epochs (including retried ones).
    pub max_epochs: usize,
    /// How many divergence recoveries to attempt before giving up.
    pub max_recoveries: usize,
    /// Learning-rate multiplier applied on each recovery (e.g. `0.5`).
    pub lr_backoff: f32,
    /// Floor under the backed-off learning rate; reaching it stops training.
    pub min_lr: f32,
    /// A finite loss above `divergence_factor × best_loss` counts as
    /// divergence; `None` limits divergence detection to non-finite losses.
    pub divergence_factor: Option<f32>,
}

impl Default for TrainPolicy {
    fn default() -> Self {
        TrainPolicy {
            max_epochs: 200,
            max_recoveries: 4,
            lr_backoff: 0.5,
            min_lr: 1e-6,
            divergence_factor: Some(1e3),
        }
    }
}

impl TrainPolicy {
    /// Policy running exactly `max_epochs` epochs with the default recovery
    /// budget.
    pub fn epochs(max_epochs: usize) -> Self {
        TrainPolicy { max_epochs, ..Self::default() }
    }

    /// Validates the policy's internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_epochs == 0 {
            return Err("max_epochs must be positive".to_string());
        }
        if !(0.0 < self.lr_backoff && self.lr_backoff < 1.0) {
            return Err(format!("lr_backoff must be in (0, 1), got {}", self.lr_backoff));
        }
        if !self.min_lr.is_finite() || self.min_lr < 0.0 {
            return Err(format!("min_lr must be finite and non-negative, got {}", self.min_lr));
        }
        if let Some(f) = self.divergence_factor {
            if f.is_nan() || f <= 1.0 {
                return Err(format!("divergence_factor must exceed 1, got {f}"));
            }
        }
        Ok(())
    }
}

/// Outcome of one observed epoch, as seen by a guarded epoch runner. An
/// epoch that skipped at least as many batches as it stepped is rejected
/// like a non-finite one: its mean loss covers only the steps before the
/// weights went bad.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EpochStats {
    /// Mean loss over the batches that actually stepped the model. NaN when
    /// every batch was skipped.
    pub mean_loss: f32,
    /// Batches that stepped the model.
    pub batches: usize,
    /// Batches dropped because their loss or gradient was non-finite.
    pub skipped_batches: usize,
    /// Largest global gradient norm observed across the epoch's batches
    /// (`0.0` when the runner does not track gradients).
    #[serde(default)]
    pub max_grad_norm: f32,
}

impl EpochStats {
    /// Stats for an epoch summarized only by its mean loss, one batch and
    /// nothing skipped.
    pub fn from_loss(mean_loss: f32) -> Self {
        EpochStats { mean_loss, batches: 1, ..Self::default() }
    }
}

/// Why the harness stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// `max_epochs` epochs ran.
    MaxEpochs,
    /// Divergence persisted through `max_recoveries` restore attempts.
    RecoveryExhausted,
    /// Backing off the learning rate hit `min_lr`.
    LrFloor,
    /// The caller stopped the loop before any stop condition fired.
    Aborted,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::MaxEpochs => "reached max epochs",
            StopReason::RecoveryExhausted => "recovery budget exhausted",
            StopReason::LrFloor => "learning rate hit its floor",
            StopReason::Aborted => "aborted by caller",
        };
        f.write_str(s)
    }
}

/// What the caller must do after reporting an epoch.
#[derive(Debug, Clone)]
pub enum Decision {
    /// Keep training with the current weights.
    Continue,
    /// The epoch diverged: load this snapshot back into the model (when it
    /// is empty, no epoch was accepted yet: load the starting weights), apply
    /// [`TrainHarness::lr`] (already backed off) to the optimizer, reset any
    /// optimizer moment state, and continue.
    Restore(WeightSnapshot),
    /// Stop training. When the epoch just reported was rejected (its
    /// snapshot was not taken), the model holds diverged weights: load
    /// [`TrainHarness::best_weights`] if present.
    Stop(StopReason),
}

/// Structured summary of a harnessed training run. Task builders surface
/// this through their build reports and the CLI prints it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Epochs observed (including ones that ended in a restore).
    pub epochs_run: usize,
    /// Mean loss of each *accepted* epoch (diverged epochs excluded, so the
    /// history is plottable).
    pub loss_history: Vec<f32>,
    /// Best accepted epoch loss.
    pub best_loss: f32,
    /// Index (into accepted epochs) of the best loss.
    pub best_epoch: usize,
    /// Divergence recoveries performed.
    pub recoveries: usize,
    /// Total batches skipped for non-finite loss/gradients.
    pub skipped_batches: usize,
    /// Final (possibly backed-off) learning rate.
    pub final_lr: f32,
    /// Why training stopped.
    pub stop_reason: StopReason,
}

impl TrainReport {
    /// True when training produced a usable model: at least one accepted
    /// epoch with a finite loss.
    pub fn is_healthy(&self) -> bool {
        self.best_loss.is_finite() && !self.loss_history.is_empty()
    }
}

impl fmt::Display for TrainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} epochs, best loss {:.6} at epoch {}, {} recoveries, \
             {} skipped batches, final lr {:.2e} ({})",
            self.epochs_run,
            self.best_loss,
            self.best_epoch,
            self.recoveries,
            self.skipped_batches,
            self.final_lr,
            self.stop_reason,
        )
    }
}

/// Smallest loss decrease that counts as a new best epoch.
const MIN_DELTA: f32 = 1e-5;

/// Epoch wall-clock histogram bounds in seconds (1 ms … 60 s).
const EPOCH_SECONDS_BOUNDS: &[f64] =
    &[0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0];

/// Cached handles into the global metrics registry so the per-epoch hot path
/// never takes the registry's name-resolution lock.
struct TrainTele {
    epochs: Arc<Counter>,
    recoveries: Arc<Counter>,
    skipped: Arc<Counter>,
    loss: Arc<Gauge>,
    lr: Arc<Gauge>,
    grad_norm: Arc<Gauge>,
    epoch_seconds: Arc<Histogram>,
}

fn train_tele() -> &'static TrainTele {
    static TELE: OnceLock<TrainTele> = OnceLock::new();
    TELE.get_or_init(|| {
        let m = setlearn_obs::metrics();
        TrainTele {
            epochs: m.counter("setlearn_train_epochs_total"),
            recoveries: m.counter("setlearn_train_recoveries_total"),
            skipped: m.counter("setlearn_train_skipped_batches_total"),
            loss: m.gauge("setlearn_train_loss"),
            lr: m.gauge("setlearn_train_lr"),
            grad_norm: m.gauge("setlearn_train_grad_norm"),
            epoch_seconds: m.histogram("setlearn_train_epoch_seconds", EPOCH_SECONDS_BOUNDS),
        }
    })
}

/// Fault-tolerant epoch-loop supervisor. See the module docs for the
/// driving protocol.
#[derive(Debug, Clone)]
pub struct TrainHarness {
    policy: TrainPolicy,
    lr: f32,
    epochs_run: usize,
    history: Vec<f32>,
    best_loss: f32,
    best_epoch: usize,
    best_weights: Option<WeightSnapshot>,
    last_good: Option<WeightSnapshot>,
    recoveries: usize,
    skipped_batches: usize,
    stopped: Option<StopReason>,
    epoch_started: Instant,
}

impl TrainHarness {
    /// Builds a harness from a policy and the optimizer's initial learning
    /// rate.
    ///
    /// # Panics
    /// On an invalid policy or a non-finite/non-positive learning rate; use
    /// [`TrainPolicy::validate`] to check ahead of time.
    pub fn new(policy: TrainPolicy, initial_lr: f32) -> Self {
        if let Err(e) = policy.validate() {
            panic!("invalid train policy: {e}");
        }
        assert!(
            initial_lr.is_finite() && initial_lr > 0.0,
            "initial learning rate must be finite and positive"
        );
        TrainHarness {
            policy,
            lr: initial_lr,
            epochs_run: 0,
            history: Vec::new(),
            best_loss: f32::INFINITY,
            best_epoch: 0,
            best_weights: None,
            last_good: None,
            recoveries: 0,
            skipped_batches: 0,
            stopped: None,
            epoch_started: Instant::now(),
        }
    }

    /// The learning rate the next epoch should train with.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Best weights seen so far (set after the first accepted epoch).
    pub fn best_weights(&self) -> Option<&WeightSnapshot> {
        self.best_weights.as_ref()
    }

    /// Reports one finished epoch. `snapshot` is invoked exactly when the
    /// epoch is accepted, to capture its (healthy) weights.
    pub fn end_epoch<F>(&mut self, stats: &EpochStats, snapshot: F) -> Decision
    where
        F: FnOnce() -> WeightSnapshot,
    {
        if let Some(reason) = self.stopped {
            return Decision::Stop(reason);
        }
        let epoch_dur = self.epoch_started.elapsed();
        self.epoch_started = Instant::now();
        self.epochs_run += 1;
        self.skipped_batches += stats.skipped_batches;

        let loss = stats.mean_loss;
        let diverged = !loss.is_finite()
            || stats.batches <= stats.skipped_batches
            || self
                .policy
                .divergence_factor
                .is_some_and(|f| self.best_loss.is_finite() && loss > self.best_loss * f);

        self.telemetry_epoch(stats, diverged, epoch_dur);

        if diverged {
            return self.recover();
        }

        self.history.push(loss);
        let weights = snapshot();
        // The first accepted epoch always seeds best-tracking.
        if loss < self.best_loss - MIN_DELTA || self.best_weights.is_none() {
            self.best_loss = loss;
            self.best_epoch = self.history.len() - 1;
            self.best_weights = Some(weights.clone());
        }
        self.last_good = Some(weights);

        if self.epochs_run >= self.policy.max_epochs {
            return self.stop(StopReason::MaxEpochs);
        }
        Decision::Continue
    }

    /// Publishes one epoch's metrics and (at `Full` telemetry) a
    /// `train_epoch` span. Diverged epochs keep the previous loss gauge so a
    /// dashboard shows the last *accepted* loss.
    fn telemetry_epoch(&self, stats: &EpochStats, diverged: bool, dur: std::time::Duration) {
        if setlearn_obs::metrics_on() {
            let t = train_tele();
            t.epochs.inc();
            t.skipped.add(stats.skipped_batches as u64);
            t.lr.set(self.lr as f64);
            if !diverged {
                t.loss.set(stats.mean_loss as f64);
            }
            if stats.max_grad_norm.is_finite() && stats.max_grad_norm > 0.0 {
                t.grad_norm.set(stats.max_grad_norm as f64);
            }
            t.epoch_seconds.observe(dur.as_secs_f64());
        }
        if setlearn_obs::tracing_on() {
            let tracer = setlearn_obs::tracer();
            let dur_us = dur.as_micros() as u64;
            let start_us = tracer.now_us().saturating_sub(dur_us);
            tracer.push_span(
                "train_epoch",
                start_us,
                vec![
                    Field::num("epoch", self.epochs_run as f64),
                    Field::num("loss", stats.mean_loss as f64),
                    Field::num("lr", self.lr as f64),
                    Field::num("batches", stats.batches as f64),
                    Field::num("skipped_batches", stats.skipped_batches as f64),
                    Field::num("max_grad_norm", stats.max_grad_norm as f64),
                    Field::text("outcome", if diverged { "diverged" } else { "accepted" }),
                ],
            );
        }
    }

    fn recover(&mut self) -> Decision {
        if self.recoveries >= self.policy.max_recoveries {
            return self.stop(StopReason::RecoveryExhausted);
        }
        let Some(snapshot) = self.last_good.clone().or_else(|| self.best_weights.clone()) else {
            // Divergence before any good epoch: the harness holds no
            // snapshot, so the caller restores the weights it started from
            // and retries at lower lr.
            return self.backoff_or_stop(Vec::new());
        };
        self.backoff_or_stop(snapshot)
    }

    fn backoff_or_stop(&mut self, snapshot: WeightSnapshot) -> Decision {
        let new_lr = self.lr * self.policy.lr_backoff;
        if new_lr < self.policy.min_lr {
            return self.stop(StopReason::LrFloor);
        }
        self.lr = new_lr;
        self.recoveries += 1;
        if setlearn_obs::metrics_on() {
            train_tele().recoveries.inc();
            setlearn_obs::tracer().push_event(
                "train_recovery",
                vec![
                    Field::num("epoch", self.epochs_run as f64),
                    Field::num("lr", self.lr as f64),
                    Field::num("recoveries", self.recoveries as f64),
                ],
            );
        }
        if self.epochs_run >= self.policy.max_epochs {
            return self.stop(StopReason::MaxEpochs);
        }
        Decision::Restore(snapshot)
    }

    fn stop(&mut self, reason: StopReason) -> Decision {
        self.stopped = Some(reason);
        Decision::Stop(reason)
    }

    /// Finalizes the run into a [`TrainReport`]. Callable at any point; a
    /// loop exited without a `Stop` decision reports [`StopReason::Aborted`].
    pub fn finish(self) -> TrainReport {
        TrainReport {
            epochs_run: self.epochs_run,
            best_loss: self.best_loss,
            best_epoch: self.best_epoch,
            recoveries: self.recoveries,
            skipped_batches: self.skipped_batches,
            final_lr: self.lr,
            stop_reason: self.stopped.unwrap_or(StopReason::Aborted),
            loss_history: self.history,
        }
    }

    /// Finalizes the run and hands back the best weights (if any) for the
    /// caller to load into the model.
    pub fn finish_with_best(mut self) -> (TrainReport, Option<WeightSnapshot>) {
        let best = self.best_weights.take();
        (self.finish(), best)
    }
}

/// Global (all-buffer) L2 gradient norm.
pub fn global_grad_norm<'a, I: IntoIterator<Item = &'a [f32]>>(grads: I) -> f32 {
    let sum: f64 = grads
        .into_iter()
        .flat_map(|g| g.iter())
        .map(|&g| (g as f64) * (g as f64))
        .sum();
    sum.sqrt() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: f32) -> WeightSnapshot {
        vec![vec![v]]
    }

    #[test]
    fn clean_run_tracks_best_and_stops_at_max_epochs() {
        let mut h = TrainHarness::new(TrainPolicy::epochs(3), 0.1);
        let losses = [0.5, 0.3, 0.4];
        let mut decisions = Vec::new();
        for (i, &l) in losses.iter().enumerate() {
            decisions.push(h.end_epoch(&EpochStats::from_loss(l), || w(i as f32)));
        }
        assert!(matches!(decisions[0], Decision::Continue));
        assert!(matches!(decisions[1], Decision::Continue));
        assert!(matches!(decisions[2], Decision::Stop(StopReason::MaxEpochs)));
        let (report, best) = h.finish_with_best();
        assert_eq!(report.best_loss, 0.3);
        assert_eq!(report.best_epoch, 1);
        assert_eq!(best.unwrap(), w(1.0));
        assert_eq!(report.loss_history, vec![0.5, 0.3, 0.4]);
        assert!(report.is_healthy());
    }

    #[test]
    fn nan_epoch_restores_last_good_and_halves_lr() {
        let mut h = TrainHarness::new(TrainPolicy::epochs(10), 0.2);
        assert!(matches!(h.end_epoch(&EpochStats::from_loss(0.5), || w(1.0)), Decision::Continue));
        let d = h.end_epoch(&EpochStats::from_loss(f32::NAN), || unreachable!());
        match d {
            Decision::Restore(snap) => assert_eq!(snap, w(1.0)),
            other => panic!("expected restore, got {other:?}"),
        }
        assert_eq!(h.lr(), 0.1);
        let report = h.finish();
        assert_eq!(report.recoveries, 1);
        // The NaN epoch is not part of the plottable history.
        assert_eq!(report.loss_history, vec![0.5]);
    }

    #[test]
    fn divergence_factor_triggers_recovery_on_finite_explosion() {
        let mut policy = TrainPolicy::epochs(10);
        policy.divergence_factor = Some(10.0);
        let mut h = TrainHarness::new(policy, 0.2);
        let _ = h.end_epoch(&EpochStats::from_loss(0.5), || w(1.0));
        assert!(matches!(
            h.end_epoch(&EpochStats::from_loss(50.0), || unreachable!()),
            Decision::Restore(_)
        ));
    }

    #[test]
    fn recovery_budget_exhaustion_stops() {
        let mut policy = TrainPolicy::epochs(100);
        policy.max_recoveries = 2;
        let mut h = TrainHarness::new(policy, 0.2);
        let _ = h.end_epoch(&EpochStats::from_loss(0.5), || w(1.0));
        assert!(matches!(h.end_epoch(&EpochStats::from_loss(f32::NAN), || w(0.0)), Decision::Restore(_)));
        assert!(matches!(h.end_epoch(&EpochStats::from_loss(f32::NAN), || w(0.0)), Decision::Restore(_)));
        let d = h.end_epoch(&EpochStats::from_loss(f32::NAN), || w(0.0));
        assert!(matches!(d, Decision::Stop(StopReason::RecoveryExhausted)));
        let report = h.finish();
        assert_eq!(report.recoveries, 2);
        assert_eq!(report.stop_reason, StopReason::RecoveryExhausted);
        // Best model from before the divergence is still available.
        assert_eq!(report.best_loss, 0.5);
    }

    #[test]
    fn lr_floor_stops_before_budget() {
        let mut policy = TrainPolicy::epochs(100);
        policy.max_recoveries = 50;
        policy.min_lr = 0.06;
        let mut h = TrainHarness::new(policy, 0.2);
        let _ = h.end_epoch(&EpochStats::from_loss(0.5), || w(1.0));
        assert!(matches!(h.end_epoch(&EpochStats::from_loss(f32::NAN), || w(0.0)), Decision::Restore(_)));
        // 0.1 -> 0.05 would cross the 0.06 floor.
        let d = h.end_epoch(&EpochStats::from_loss(f32::NAN), || w(0.0));
        assert!(matches!(d, Decision::Stop(StopReason::LrFloor)));
    }

    #[test]
    fn divergence_before_any_good_epoch_restores_empty_snapshot() {
        let mut h = TrainHarness::new(TrainPolicy::epochs(10), 0.2);
        match h.end_epoch(&EpochStats::from_loss(f32::INFINITY), || unreachable!()) {
            Decision::Restore(snap) => assert!(snap.is_empty()),
            other => panic!("expected restore, got {other:?}"),
        }
        assert_eq!(h.lr(), 0.1);
    }

    #[test]
    fn all_batches_skipped_counts_as_divergence() {
        let mut h = TrainHarness::new(TrainPolicy::epochs(10), 0.2);
        let _ = h.end_epoch(&EpochStats::from_loss(0.5), || w(1.0));
        let stats = EpochStats { mean_loss: 0.0, batches: 0, skipped_batches: 7, ..Default::default() };
        assert!(matches!(h.end_epoch(&stats, || unreachable!()), Decision::Restore(_)));
        // Half skipped: the mean covers only the steps before the weights
        // went bad, so it says nothing about the weights the epoch ended on.
        let half = EpochStats { mean_loss: 0.3, batches: 4, skipped_batches: 4, ..stats };
        assert!(matches!(h.end_epoch(&half, || unreachable!()), Decision::Restore(_)));
        let few = EpochStats { batches: 5, ..half };
        assert!(matches!(h.end_epoch(&few, || w(1.0)), Decision::Continue));
        assert_eq!(h.finish().skipped_batches, 15);
    }

    #[test]
    fn finish_without_stop_reports_aborted() {
        let mut h = TrainHarness::new(TrainPolicy::epochs(10), 0.1);
        let _ = h.end_epoch(&EpochStats::from_loss(0.4), || w(1.0));
        let report = h.finish();
        assert_eq!(report.stop_reason, StopReason::Aborted);
        assert!(report.is_healthy());
    }

    #[test]
    fn global_grad_norm_is_an_l2_norm() {
        let a = [3.0f32];
        let b = [4.0f32];
        assert_eq!(global_grad_norm([&a[..], &b[..]]), 5.0);
        assert_eq!(global_grad_norm(std::iter::empty::<&[f32]>()), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid train policy")]
    fn zero_epoch_policy_rejected() {
        let _ = TrainHarness::new(TrainPolicy::epochs(0), 0.1);
    }

    #[test]
    fn report_serializes() {
        let mut h = TrainHarness::new(TrainPolicy::epochs(1), 0.1);
        let _ = h.end_epoch(&EpochStats::from_loss(0.4), || w(1.0));
        let report = h.finish();
        let json = serde_json::to_string(&report).unwrap();
        let back: TrainReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.best_loss, report.best_loss);
        assert_eq!(back.stop_reason, report.stop_reason);
    }
}

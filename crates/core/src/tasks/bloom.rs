//! Learned set Bloom filter (paper §4.3): a DeepSets classifier over subset
//! membership with a backup Bloom filter eliminating false negatives.

use crate::hybrid::ServeGuard;
use crate::kernel::{FrozenModel, Precision, ServedModel};
use crate::model::{DeepSets, DeepSetsConfig};
use crate::mutable::OverlayAnswer;
use crate::tasks::{Fold, LearnedSetStructure, QueryOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use setlearn_baselines::BloomFilter;
use setlearn_data::{ElementSet, SetCollection};
use setlearn_nn::{Loss, Optimizer, TrainPolicy, TrainReport};

/// Training configuration for the learned Bloom filter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BloomConfig {
    /// DeepSets hyper-parameters (paper §8.4: embedding 2, two 8-neuron
    /// layers).
    pub model: DeepSetsConfig,
    /// Training epochs (paper uses 50).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Classification threshold τ.
    pub threshold: f32,
    /// Backup-filter false-positive rate.
    pub backup_fp_rate: f64,
    /// Shuffling seed.
    pub seed: u64,
}

impl BloomConfig {
    /// The paper's §8.4 setting on the given model.
    pub fn new(mut model: DeepSetsConfig) -> Self {
        model.embedding_dim = 2;
        model.phi_hidden = vec![8];
        model.rho_hidden = vec![8];
        BloomConfig {
            model,
            epochs: 50,
            batch_size: 64,
            learning_rate: 5e-3,
            threshold: 0.5,
            backup_fp_rate: 0.01,
            seed: 11,
        }
    }
}

/// Learned Bloom filter = classifier + backup filter over its false
/// negatives, guaranteeing no false negatives on the trained positives.
///
/// ```
/// use setlearn::model::DeepSetsConfig;
/// use setlearn::tasks::{BloomConfig, LearnedBloom};
/// use setlearn_data::normalize;
///
/// let mut cfg = BloomConfig::new(DeepSetsConfig::clsm(64));
/// cfg.epochs = 5;
/// let workload = vec![
///     (normalize(vec![1, 2]), true),
///     (normalize(vec![3, 4]), true),
///     (normalize(vec![1, 4]), false),
/// ];
/// let (filter, _report) = LearnedBloom::build(&workload, &cfg);
/// assert!(filter.contains(&[1, 2])); // never a false negative on positives
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LearnedBloom {
    model: ServedModel,
    threshold: f32,
    backup: BloomFilter,
    /// Serve-time guard over classifier scores.
    guard: ServeGuard,
}

/// Build artifacts for reporting.
#[derive(Debug, Clone)]
pub struct BloomBuildReport {
    /// Positives the serving kernel misses (inserted into the backup
    /// filter).
    pub false_negatives: usize,
    /// Binary accuracy of the serving kernel over the training workload.
    pub training_accuracy: f64,
    /// Structured summary of the harnessed training run (loss per epoch,
    /// recoveries, skipped batches, stop reason).
    pub train: TrainReport,
}

impl LearnedBloom {
    /// Trains the classifier on a labeled workload of `(query, present)`
    /// pairs, freezes it at `cfg.model.precision` and builds the backup
    /// filter from that kernel's false negatives — so no trained positive is
    /// rejected at the precision the filter serves.
    pub fn build(workload: &[(ElementSet, bool)], cfg: &BloomConfig) -> (Self, BloomBuildReport) {
        assert!(!workload.is_empty(), "empty training workload");
        assert!(workload.iter().any(|(_, l)| *l), "need positive samples");
        let data: Vec<(ElementSet, f32)> = workload
            .iter()
            .map(|(s, l)| (s.clone(), if *l { 1.0 } else { 0.0 }))
            .collect();

        let mut model = DeepSets::new(cfg.model.clone());
        model.zero_grad();
        let mut opt = Optimizer::adam(cfg.learning_rate);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let train = model.train_with_harness(
            &data,
            Loss::BinaryCrossEntropy,
            &mut opt,
            cfg.batch_size,
            &mut rng,
            &TrainPolicy::epochs(cfg.epochs.max(1)),
        );
        let model = ServedModel::new(model);

        // One scoring pass of the serving kernel: back up the positives it
        // misses, count right verdicts.
        let queries: Vec<&ElementSet> = workload.iter().map(|(s, _)| s).collect();
        let scores = model.kernel().predict_batch(&queries);
        let missed: Vec<&ElementSet> = workload
            .iter()
            .zip(&scores)
            .filter(|((_, l), &p)| *l && p < cfg.threshold)
            .map(|((s, _), _)| s)
            .collect();
        let mut backup = BloomFilter::new(missed.len().max(8), cfg.backup_fp_rate);
        for s in &missed {
            backup.insert_set(s);
        }
        let correct = correct_verdicts(workload, &scores, cfg.threshold);
        let report = BloomBuildReport {
            false_negatives: missed.len(),
            training_accuracy: correct as f64 / workload.len() as f64,
            train,
        };
        (
            LearnedBloom {
                model,
                threshold: cfg.threshold,
                backup,
                // Classifier scores are probabilities.
                guard: ServeGuard::new(0.0, 1.0),
            },
            report,
        )
    }

    /// Convenience constructor: builds a workload from the collection
    /// (positive subsets + sampled negatives) and trains on it.
    pub fn build_from_collection(
        collection: &SetCollection,
        n_pos: usize,
        n_neg: usize,
        max_query_size: usize,
        cfg: &BloomConfig,
    ) -> (Self, BloomBuildReport) {
        let workload = setlearn_data::workload::membership_queries(
            collection,
            n_pos,
            n_neg,
            max_query_size,
            cfg.seed,
        );
        Self::build(&workload, cfg)
    }

    /// Membership probe: classifier score, with the backup filter rescuing
    /// model false negatives. A non-finite score is rejected by the serve
    /// guard (and flagged); the probe then degrades to the backup filter
    /// alone, which still guarantees no false negatives on trained
    /// positives that the model had missed.
    pub fn contains(&self, q: &[u32]) -> bool {
        self.query(q).value
    }

    /// The serving kernel, frozen at the model config's precision when the
    /// filter was built or loaded.
    pub fn kernel(&self) -> &FrozenModel {
        self.model.kernel()
    }

    /// The guarded decision over one raw classifier score — the tail of
    /// every probe.
    fn decide(&self, score: f32, q: &[u32]) -> QueryOutcome<bool> {
        let (value, fallback) = match self.guard.admit(score as f64) {
            Ok(s) => (s >= self.threshold as f64 || self.backup.contains_set(q), None),
            Err(reason) => (self.backup.contains_set(q), Some(reason)),
        };
        QueryOutcome { value, fallback, bound_miss: false }
    }

    /// Raw classifier probability (for threshold tuning / diagnostics).
    pub fn score(&self, q: &[u32]) -> f32 {
        self.kernel().predict_one(q)
    }

    /// The underlying model.
    pub fn model(&self) -> &DeepSets {
        self.model.weights()
    }

    /// Model weight bytes (the paper's LSM/CLSM memory columns; the backup
    /// is reported as negligible in §8.4.2 but we count it in
    /// [`LearnedBloom::size_bytes`]).
    pub fn model_size_bytes(&self) -> usize {
        self.model().size_bytes()
    }

    /// Total bytes: model + backup filter.
    pub fn size_bytes(&self) -> usize {
        self.model().size_bytes() + self.backup.size_bytes()
    }

    /// Binary accuracy over a labeled workload (Table 9's metric): classifier
    /// verdicts at the serve precision, before the backup filter.
    pub fn binary_accuracy(&self, workload: &[(ElementSet, bool)]) -> f64 {
        assert!(!workload.is_empty());
        let queries: Vec<&ElementSet> = workload.iter().map(|(s, _)| s).collect();
        let scores = self.kernel().predict_batch(&queries);
        correct_verdicts(workload, &scores, self.threshold) as f64 / workload.len() as f64
    }
}

/// How many labels the scores get right at threshold `threshold`.
fn correct_verdicts(workload: &[(ElementSet, bool)], scores: &[f32], threshold: f32) -> usize {
    workload.iter().zip(scores).filter(|((_, l), &p)| (p >= threshold) == *l).count()
}

impl LearnedSetStructure for LearnedBloom {
    type Output = bool;
    const NAME: &'static str = "bloom";

    fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<bool>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let scores = self.kernel().predict_batch(queries);
        queries.iter().zip(scores).map(|(q, s)| self.decide(s, q.as_ref())).collect()
    }

    fn vocab(&self) -> Option<u32> {
        Some(self.model().config().vocab)
    }

    fn kernel_precision(&self) -> Option<Precision> {
        Some(self.kernel().precision())
    }
}

/// OR: a stored subset lives in some part, so each part's no-false-negative
/// guarantee holds for the whole.
impl Fold for LearnedBloom {
    fn fold(&self, acc: QueryOutcome<bool>, part: QueryOutcome<bool>) -> QueryOutcome<bool> {
        acc.folded(&part, acc.value || part.value)
    }

    fn overlay(&self, delta: &OverlayAnswer) -> QueryOutcome<bool> {
        QueryOutcome::clean(delta.contains)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setlearn_data::{workload::membership_queries, GeneratorConfig};

    fn quick_cfg(vocab: u32) -> BloomConfig {
        let mut cfg = BloomConfig::new(DeepSetsConfig::lsm(vocab));
        cfg.epochs = 40;
        cfg.learning_rate = 1e-2;
        cfg
    }

    #[test]
    fn no_false_negatives_on_trained_positives() {
        let c = GeneratorConfig::rw(500, 31).generate();
        let workload = membership_queries(&c, 400, 400, 4, 3);
        let (filter, _) = LearnedBloom::build(&workload, &quick_cfg(c.num_elements()));
        for (q, label) in &workload {
            if *label {
                assert!(filter.contains(q), "false negative on {q:?}");
            }
        }
    }

    #[test]
    fn accuracy_is_high_on_training_workload() {
        let c = GeneratorConfig::rw(500, 7).generate();
        let workload = membership_queries(&c, 300, 300, 4, 9);
        let (filter, report) = LearnedBloom::build(&workload, &quick_cfg(c.num_elements()));
        assert!(
            report.training_accuracy > 0.8,
            "accuracy {}",
            report.training_accuracy
        );
        assert_eq!(filter.binary_accuracy(&workload), report.training_accuracy);
    }

    #[test]
    fn loss_decreases() {
        let c = GeneratorConfig::rw(300, 2).generate();
        let workload = membership_queries(&c, 200, 200, 4, 5);
        let (_, report) = LearnedBloom::build(&workload, &quick_cfg(c.num_elements()));
        let first = report.train.loss_history[0];
        let last = *report.train.loss_history.last().unwrap();
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn build_from_collection_runs() {
        let c = GeneratorConfig::sd(200, 4).generate();
        let max_query_size = 4;
        let (filter, report) = LearnedBloom::build_from_collection(
            &c,
            150,
            150,
            max_query_size,
            &quick_cfg(c.num_elements()),
        );
        assert!(report.training_accuracy > 0.7, "accuracy {}", report.training_accuracy);
        // Subsets of stored sets are positives by definition; probe within
        // the query-size regime the workload trains on.
        for i in 0..5 {
            let s = c.get(i);
            let q = &s[..max_query_size.min(s.len())];
            assert!(filter.contains(q), "false negative on stored subset {q:?}");
        }
    }

    #[test]
    fn nan_model_degrades_to_backup_filter_and_flags_fallbacks() {
        let c = GeneratorConfig::rw(300, 31).generate();
        let workload = membership_queries(&c, 200, 200, 4, 3);
        let (filter, report) = LearnedBloom::build(&workload, &quick_cfg(c.num_elements()));
        // Remember which positives the backup filter covers (model misses).
        let backup_covered: Vec<ElementSet> = workload
            .iter()
            .filter(|(s, l)| *l && filter.score(s) < filter.threshold)
            .map(|(s, _)| s.clone())
            .collect();
        assert_eq!(backup_covered.len(), report.false_negatives);

        let filter = crate::tasks::with_nan_weights(&filter);

        // Probes must not panic and must still honor the backup filter.
        for s in &backup_covered {
            assert!(filter.contains(s), "backup-covered positive lost");
        }
        let batch_queries: Vec<ElementSet> = workload.iter().map(|(s, _)| s.clone()).collect();
        let outcomes = filter.query_batch(&batch_queries);
        assert!(
            outcomes.iter().all(|o| o.fallback == Some(crate::hybrid::FallbackReason::NonFinite)),
            "every poisoned score must be flagged as a fallback"
        );
    }

    #[test]
    fn batch_membership_equals_single_probes() {
        let c = GeneratorConfig::rw(300, 7).generate();
        let workload = membership_queries(&c, 200, 200, 4, 5);
        let (filter, _) = LearnedBloom::build(&workload, &quick_cfg(c.num_elements()));
        let queries: Vec<ElementSet> = workload.iter().map(|(s, _)| s.clone()).collect();
        let outcomes = filter.query_batch(&queries);
        for (q, outcome) in queries.iter().zip(&outcomes) {
            assert_eq!(outcome.value, filter.contains(q));
        }
    }

    #[test]
    #[should_panic(expected = "need positive samples")]
    fn all_negative_workload_rejected() {
        let cfg = quick_cfg(16);
        let workload = vec![(setlearn_data::normalize(vec![1, 2]), false)];
        let _ = LearnedBloom::build(&workload, &cfg);
    }
}

//! Learned set cardinality estimation (paper §4.2) and its hybrid variant.

use crate::hybrid::{guided_train, GuidedConfig, GuidedOutcome, ServeGuard};
use crate::kernel::{FrozenModel, Precision, ServedModel};
use crate::model::{DeepSets, DeepSetsConfig};
use crate::monitor::DriftMonitor;
use crate::mutable::OverlayAnswer;
use crate::tasks::{Fold, LearnedSetStructure, QueryOutcome};
use serde::{Deserialize, Serialize};
use setlearn_baselines::set_hash;
use setlearn_data::{ElementSet, SetCollection, SubsetIndex};
use setlearn_nn::{Loss, LogMinMaxScaler, TrainReport};
use std::collections::HashMap;

/// Training configuration for the cardinality estimator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CardinalityConfig {
    /// The DeepSets model hyper-parameters.
    pub model: DeepSetsConfig,
    /// Guided-learning schedule. Set `percentile = 1.0` for the pure
    /// (non-hybrid) estimator.
    pub guided: GuidedConfig,
    /// Subset-enumeration cap for training data (paper §7.1.1 uses 6).
    pub max_subset_size: usize,
}

impl CardinalityConfig {
    /// Defaults for a given vocabulary: LSM model, hybrid at the 90th
    /// percentile, subsets up to size 4.
    pub fn new(model: DeepSetsConfig) -> Self {
        CardinalityConfig { model, guided: GuidedConfig::default(), max_subset_size: 4 }
    }
}

/// A learned cardinality estimator with an optional exact outlier store —
/// `LSM`/`CLSM`(`-Hybrid`) depending on the model config and percentile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LearnedCardinality {
    model: ServedModel,
    scaler: LogMinMaxScaler,
    /// Exact counts for exiled outliers, keyed by set hash.
    #[serde(serialize_with = "in_key_order")]
    outliers: HashMap<u64, u64>,
    /// Delta layer absorbing updates until retraining (§7.2).
    #[serde(serialize_with = "in_key_order")]
    deltas: HashMap<u64, i64>,
    max_subset_size: usize,
    /// Serve-time guard over the model's output domain.
    guard: ServeGuard,
}

/// Serialises a hash-keyed map in key order, so one structure always writes
/// the same bytes (a `HashMap` iterates in a per-process random order). The
/// encoding is the plain map's, so either order loads.
fn in_key_order<V: Serialize>(map: &HashMap<u64, V>) -> serde::Value {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort_unstable_by_key(|&(k, _)| *k);
    serde::Value::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v.serialize())).collect())
}

/// Build artifacts useful for reporting (training curves, outlier count).
#[derive(Debug, Clone)]
pub struct CardinalityBuildReport {
    /// Loss per epoch.
    pub loss_history: Vec<f32>,
    /// Number of training subsets enumerated.
    pub training_subsets: usize,
    /// Number of subsets moved to the outlier store.
    pub outliers: usize,
    /// Structured summary of the harnessed training run (recoveries,
    /// skipped batches, stop reason).
    pub train: TrainReport,
}

impl LearnedCardinality {
    /// Enumerates training data from the collection, trains with guided
    /// learning, and stores exact counts for the exiled outliers.
    pub fn build(
        collection: &SetCollection,
        cfg: &CardinalityConfig,
    ) -> (Self, CardinalityBuildReport) {
        let subsets = SubsetIndex::build(collection, cfg.max_subset_size);
        Self::build_from_subsets(&subsets, cfg)
    }

    /// Builds from pre-enumerated subset statistics (lets callers share the
    /// enumeration across tasks).
    pub fn build_from_subsets(
        subsets: &SubsetIndex,
        cfg: &CardinalityConfig,
    ) -> (Self, CardinalityBuildReport) {
        let pairs = subsets.cardinality_pairs();
        assert!(!pairs.is_empty(), "no training subsets enumerated");
        // §4.2: the maximum observed cardinality is always attained by a
        // single element, so the scaler range is [1, max single-element
        // frequency].
        let scaler = LogMinMaxScaler::from_range(1.0, subsets.max_cardinality() as f64);
        let data: Vec<(ElementSet, f32)> =
            pairs.iter().map(|(s, c)| (s.clone(), scaler.scale(*c))).collect();

        let mut model = DeepSets::new(cfg.model.clone());
        let loss = Loss::QError { span: scaler.span() };
        let (GuidedOutcome { outlier_indices, loss_history }, train) =
            guided_train(&mut model, &data, loss, &cfg.guided);

        let outliers: HashMap<u64, u64> = outlier_indices
            .iter()
            .map(|&i| (set_hash(&pairs[i].0), pairs[i].1 as u64))
            .collect();
        let report = CardinalityBuildReport {
            loss_history,
            training_subsets: pairs.len(),
            outliers: outliers.len(),
            train,
        };
        (
            LearnedCardinality {
                model: ServedModel::new(model),
                scaler,
                outliers,
                deltas: HashMap::new(),
                max_subset_size: cfg.max_subset_size,
                // Valid model outputs live in [0, max observed cardinality];
                // anything else degrades to the guard's fallback path.
                guard: ServeGuard::new(0.0, subsets.max_cardinality() as f64),
            },
            report,
        )
    }

    /// Estimates the cardinality of a canonical query set: outlier store
    /// first, then the model (Figure 5's query path), plus any update deltas.
    ///
    /// Model predictions pass through the serve-time [`ServeGuard`]: a
    /// non-finite or out-of-domain prediction is degraded to a clamped
    /// in-domain value (and flagged) instead of propagating garbage.
    pub fn estimate(&self, q: &[u32]) -> f64 {
        self.query(q).value
    }

    /// [`LearnedCardinality::estimate`] that also reports fallback events to
    /// a [`DriftMonitor`], so a model gone bad raises the retrain signal.
    pub fn estimate_monitored(&self, q: &[u32], monitor: &mut DriftMonitor) -> f64 {
        let outcome = self.query(q);
        if outcome.fallback.is_some() {
            monitor.record_fallback();
        }
        outcome.value
    }

    /// Applies the outlier-store / guard / delta-layer corrections to one
    /// raw model score — the tail of every query.
    fn correct_score(&self, q: &[u32], score: f32) -> QueryOutcome<f64> {
        let h = set_hash(q);
        let (base, fallback) = match self.outliers.get(&h) {
            Some(&exact) => (exact as f64, None),
            None => self.guard.admit_or_clamp(self.scaler.unscale(score)),
        };
        let delta = self.deltas.get(&h).copied().unwrap_or(0) as f64;
        QueryOutcome { value: (base + delta).max(0.0), fallback, bound_miss: false }
    }

    /// Model-only estimate, bypassing the outlier store (for ablations).
    pub fn estimate_model_only(&self, q: &[u32]) -> f64 {
        self.scaler.unscale(self.kernel().predict_one(q))
    }

    /// The serving kernel, frozen at the model config's precision when the
    /// estimator was built or loaded.
    pub fn kernel(&self) -> &FrozenModel {
        self.model.kernel()
    }

    /// Registers an inserted set (§7.2): all its subsets gain one occurrence
    /// in the delta layer until the model is retrained.
    pub fn note_inserted_set(&mut self, set: &[u32]) {
        setlearn_data::set::for_each_subset(set, self.max_subset_size, |sub| {
            *self.deltas.entry(set_hash(sub)).or_insert(0) += 1;
        });
    }

    /// Registers a deleted set (§7.2).
    pub fn note_deleted_set(&mut self, set: &[u32]) {
        setlearn_data::set::for_each_subset(set, self.max_subset_size, |sub| {
            *self.deltas.entry(set_hash(sub)).or_insert(0) -= 1;
        });
    }

    /// Number of pending update deltas; large values suggest retraining.
    pub fn pending_updates(&self) -> usize {
        self.deltas.len()
    }

    /// The underlying model.
    pub fn model(&self) -> &DeepSets {
        self.model.weights()
    }

    /// Number of exiled outliers.
    pub fn num_outliers(&self) -> usize {
        self.outliers.len()
    }

    /// Model weight bytes only (the paper's `LSM`/`CLSM` memory columns).
    pub fn model_size_bytes(&self) -> usize {
        self.model().size_bytes()
    }

    /// Total structure bytes: model + outlier store + delta layer (the
    /// `-Hybrid` memory columns).
    pub fn size_bytes(&self) -> usize {
        let map_entry = 8 + 8 + 1; // key + value + control byte
        self.model().size_bytes()
            + (self.outliers.len() as f64 / 0.875) as usize * map_entry
            + (self.deltas.len() as f64 / 0.875) as usize * map_entry
    }
}

impl LearnedSetStructure for LearnedCardinality {
    type Output = f64;
    const NAME: &'static str = "cardinality";

    fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<f64>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let scores = self.kernel().predict_batch(queries);
        queries.iter().zip(scores).map(|(q, s)| self.correct_score(q.as_ref(), s)).collect()
    }

    fn vocab(&self) -> Option<u32> {
        Some(self.model().config().vocab)
    }

    fn kernel_precision(&self) -> Option<Precision> {
        Some(self.kernel().precision())
    }
}

impl Fold for LearnedCardinality {
    fn fold(&self, acc: QueryOutcome<f64>, part: QueryOutcome<f64>) -> QueryOutcome<f64> {
        sum_clamped(acc, part)
    }

    fn overlay(&self, delta: &OverlayAnswer) -> QueryOutcome<f64> {
        QueryOutcome::clean(delta.cardinality_delta as f64)
    }
}

/// Partition counts add. The sum is clamped at 0 because an overlay part
/// that deletes rows is negative, and no count is.
pub(crate) fn sum_clamped(acc: QueryOutcome<f64>, part: QueryOutcome<f64>) -> QueryOutcome<f64> {
    acc.folded(&part, (acc.value + part.value).max(0.0))
}

/// [`LearnedCardinality`]'s fold over a list of parts (0 for none). The
/// workspace folds through [`Fold`]; this name stays for the benchmark
/// package's oracle (`benchmark/src/workload.rs`), which is built against it.
pub fn aggregate_cardinality(parts: Vec<QueryOutcome<f64>>) -> QueryOutcome<f64> {
    parts.into_iter().reduce(sum_clamped).unwrap_or(QueryOutcome::clean(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::FallbackReason;
    use crate::model::CompressionKind;
    use setlearn_data::GeneratorConfig;
    use setlearn_nn::q_error;

    fn quick_cfg(vocab: u32, compression: CompressionKind) -> CardinalityConfig {
        let mut model = DeepSetsConfig::lsm(vocab);
        model.compression = compression;
        model.embedding_dim = 8;
        model.phi_hidden = vec![32];
        model.rho_hidden = vec![32];
        CardinalityConfig {
            model,
            guided: GuidedConfig {
                warmup_epochs: 25,
                rounds: 1,
                epochs_per_round: 15,
                percentile: 0.9,
                batch_size: 64,
                learning_rate: 5e-3,
                seed: 5,
            },
            max_subset_size: 3,
        }
    }

    #[test]
    fn hybrid_estimator_reaches_low_qerror_on_small_collection() {
        let collection = GeneratorConfig::sd(400, 11).generate();
        let (est, report) = LearnedCardinality::build(
            &collection,
            &quick_cfg(collection.num_elements(), CompressionKind::None),
        );
        assert!(report.training_subsets > 100);
        let subsets = SubsetIndex::build(&collection, 3);
        let mut qe = 0.0;
        let mut n = 0;
        for (s, info) in subsets.iter().take(300) {
            qe += q_error(est.estimate(s), info.count as f64, 1.0);
            n += 1;
        }
        let avg = qe / n as f64;
        assert!(avg < 3.0, "avg q-error {avg}");
    }

    #[test]
    fn outliers_answer_exactly() {
        let collection = GeneratorConfig::sd(300, 3).generate();
        let (est, _) = LearnedCardinality::build(
            &collection,
            &quick_cfg(collection.num_elements(), CompressionKind::None),
        );
        assert!(est.num_outliers() > 0);
        // Every outlier must produce its exact stored count.
        let subsets = SubsetIndex::build(&collection, 3);
        let mut checked = 0;
        for (s, info) in subsets.iter() {
            let h = set_hash(s);
            if est.outliers.contains_key(&h) {
                assert_eq!(est.estimate(s), info.count as f64);
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn compressed_variant_trains_and_is_smaller() {
        let collection = GeneratorConfig::rw(400, 4).generate();
        // Use a large declared id space so the embedding-table savings
        // dominate the φ-width overhead (see the paper's SD discussion).
        let vocab = collection.num_elements().max(50_000);
        let (lsm, _) =
            LearnedCardinality::build(&collection, &quick_cfg(vocab, CompressionKind::None));
        let (clsm, _) = LearnedCardinality::build(
            &collection,
            &quick_cfg(vocab, CompressionKind::Optimal { ns: 2 }),
        );
        assert!(clsm.model_size_bytes() < lsm.model_size_bytes());
    }

    #[test]
    fn nan_model_degrades_to_guard_and_raises_retrain_signal() {
        use crate::monitor::{MonitorConfig, RetrainReason};
        let collection = GeneratorConfig::sd(200, 9).generate();
        let (est, _) = LearnedCardinality::build(
            &collection,
            &quick_cfg(collection.num_elements(), CompressionKind::None),
        );
        // Load NaN into every weight buffer (simulating corruption).
        let est = crate::tasks::with_nan_weights(&est);
        assert!(est.model().has_non_finite_weights());

        let mut monitor = DriftMonitor::new(
            1.1,
            MonitorConfig { max_fallbacks: 8, ..MonitorConfig::default() },
        );
        let subsets = SubsetIndex::build(&collection, 2);
        let mut served = 0;
        for (s, _) in subsets.iter().take(50) {
            let v = est.estimate_monitored(s, &mut monitor);
            assert!(v.is_finite(), "guard must never serve a non-finite estimate");
            assert!(v >= 0.0);
            served += 1;
        }
        assert!(served > 8);
        assert_eq!(monitor.should_retrain(), Some(RetrainReason::ServeFallbacks));
        // Outlier-store answers bypass the model, so only model-served
        // queries fall back — but with NaN weights every one does, and each
        // answer says so.
        let queries: Vec<&ElementSet> = subsets.iter().take(50).map(|(s, _)| s).collect();
        let model_served =
            queries.iter().filter(|q| !est.outliers.contains_key(&set_hash(q))).count();
        assert!(model_served > 0);
        let flagged: Vec<_> = est.query_batch(&queries).iter().map(|o| o.fallback).collect();
        assert!(flagged.iter().all(|f| f.is_none() || *f == Some(FallbackReason::NonFinite)));
        assert_eq!(flagged.iter().filter(|f| f.is_some()).count(), model_served);
    }

    #[test]
    fn updates_adjust_estimates() {
        let collection = GeneratorConfig::sd(200, 9).generate();
        let (mut est, _) = LearnedCardinality::build(
            &collection,
            &quick_cfg(collection.num_elements(), CompressionKind::None),
        );
        let q = &collection.get(0)[..2];
        let before = est.estimate(q);
        let inserted: Vec<u32> = q.to_vec();
        est.note_inserted_set(&inserted);
        assert_eq!(est.estimate(q), before + 1.0);
        est.note_deleted_set(&inserted);
        assert_eq!(est.estimate(q), before);
        assert!(est.pending_updates() > 0);
    }
}

//! Learned set index (paper §4.1) with the hybrid search of §6/Algorithm 2.
//!
//! The model regresses a query subset to its first position in the
//! (arbitrarily ordered) collection; per-range local error bounds turn the
//! estimate into a bounded scan window, and an auxiliary B+ tree answers the
//! outliers the model could not fit.

use crate::hybrid::{
    guided_train, FallbackReason, GuidedConfig, GuidedOutcome, LocalErrorBounds,
    ServeGuard,
};
use crate::kernel::{FrozenModel, Precision, ServedModel};
use crate::model::{DeepSets, DeepSetsConfig};
use crate::mutable::OverlayAnswer;
use crate::tasks::{Fold, LearnedSetStructure, QueryOutcome};
use serde::{Deserialize, Serialize};
use setlearn_baselines::{set_hash, BPlusTree};
use setlearn_data::{is_subset, signature, ElementSet, SetCollection, SubsetIndex};
use setlearn_nn::{Loss, LogMinMaxScaler, TrainReport};
use std::ops::Range;
use std::sync::Arc;

/// Which occurrence the index targets (paper §4.1 supports either).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PositionTarget {
    /// The first position containing the query subset.
    #[default]
    First,
    /// The last position containing the query subset.
    Last,
}

/// Training configuration for the learned set index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IndexConfig {
    /// DeepSets hyper-parameters.
    pub model: DeepSetsConfig,
    /// Guided-learning schedule (`percentile = 1.0` = "No Removal").
    pub guided: GuidedConfig,
    /// Subset-enumeration cap. The paper generates *all* subsets for the
    /// index task to guarantee findability; the cap bounds that guarantee to
    /// queries of at most this many elements.
    pub max_subset_size: usize,
    /// Width of the local-error buckets (the paper uses 100).
    pub range_length: f64,
    /// Which occurrence to index.
    pub target: PositionTarget,
}

impl IndexConfig {
    /// Defaults: given model, 90th-percentile hybrid, subsets ≤ 4, range 100.
    pub fn new(model: DeepSetsConfig) -> Self {
        IndexConfig {
            model,
            guided: GuidedConfig::default(),
            max_subset_size: 4,
            range_length: 100.0,
            target: PositionTarget::First,
        }
    }
}

/// Result of a profiled lookup: the answer plus the work done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupProfile {
    /// First matching position, if found.
    pub position: Option<usize>,
    /// Number of collection sets examined during the local scan (0 when the
    /// auxiliary structure answered).
    pub scanned: usize,
    /// Whether the auxiliary structure answered.
    pub from_aux: bool,
    /// Set when the model's estimate was rejected by the serve guard and the
    /// lookup degraded to an exact path (full scan for non-finite estimates,
    /// clamped window for out-of-bound ones).
    pub fallback: Option<FallbackReason>,
}

impl LookupProfile {
    /// A window exhausted without a hit: the local bound did not cover the
    /// answer, or the subset is genuinely absent.
    pub(crate) fn bound_miss(&self) -> bool {
        self.position.is_none() && !self.from_aux
    }
}

/// The hybrid learned set index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LearnedSetIndex {
    model: ServedModel,
    scaler: LogMinMaxScaler,
    /// Outlier subsets (and §7.2 updates), keyed by set hash.
    aux: BPlusTree,
    bounds: LocalErrorBounds,
    max_subset_size: usize,
    target: PositionTarget,
    /// Serve-time guard over position estimates.
    guard: ServeGuard,
}

/// Build artifacts for reporting.
#[derive(Debug, Clone)]
pub struct IndexBuildReport {
    /// Loss per epoch.
    pub loss_history: Vec<f32>,
    /// Number of training subsets.
    pub training_subsets: usize,
    /// Subsets moved to the auxiliary tree.
    pub outliers: usize,
    /// Global max absolute error of the retained model predictions.
    pub global_error: f64,
    /// Mean local bound (what the scan actually pays, §8.3.3).
    pub mean_local_error: f64,
    /// Structured summary of the harnessed training run (recoveries,
    /// skipped batches, stop reason).
    pub train: TrainReport,
}

impl LearnedSetIndex {
    /// Enumerates subsets, trains with guided learning, exiles outliers to a
    /// B+ tree, freezes the model at `cfg.model.precision` and computes local
    /// error bounds from that kernel's estimates of the retained subsets —
    /// so every retained subset is found at the precision the index serves.
    pub fn build(collection: &SetCollection, cfg: &IndexConfig) -> (Self, IndexBuildReport) {
        let subsets = SubsetIndex::build(collection, cfg.max_subset_size);
        Self::build_from_subsets(collection, &subsets, cfg)
    }

    /// Builds from pre-enumerated subset statistics.
    pub fn build_from_subsets(
        collection: &SetCollection,
        subsets: &SubsetIndex,
        cfg: &IndexConfig,
    ) -> (Self, IndexBuildReport) {
        let pairs = match cfg.target {
            PositionTarget::First => subsets.index_pairs(),
            PositionTarget::Last => subsets.index_pairs_last(),
        };
        assert!(!pairs.is_empty(), "no training subsets enumerated");
        let scaler = LogMinMaxScaler::from_range(0.0, collection.len().saturating_sub(1) as f64);
        let data: Vec<(ElementSet, f32)> =
            pairs.iter().map(|(s, p)| (s.clone(), scaler.scale(*p))).collect();

        let mut model = DeepSets::new(cfg.model.clone());
        let loss = Loss::QError { span: scaler.span() };
        let (GuidedOutcome { outlier_indices, loss_history }, train) =
            guided_train(&mut model, &data, loss, &cfg.guided);

        // Exile outliers into the auxiliary B+ tree.
        let mut aux = BPlusTree::new(100);
        let outlier_set: std::collections::HashSet<usize> =
            outlier_indices.iter().copied().collect();
        for &i in &outlier_indices {
            aux.insert(set_hash(&pairs[i].0), pairs[i].1 as u32);
        }

        // Error bounds over the *retained* subsets, from the serving
        // kernel's estimates: outliers are answered by the tree, so they
        // must not widen the scan windows.
        let model = ServedModel::new(model);
        let (kept, truths): (Vec<&ElementSet>, Vec<f64>) = pairs
            .iter()
            .enumerate()
            .filter(|(i, _)| !outlier_set.contains(i))
            .map(|(_, (s, p))| (s, *p))
            .unzip();
        let scores = model.kernel().predict_batch(&kept);
        let retained: Vec<(f64, f64)> =
            scores.iter().zip(truths).map(|(&s, p)| (scaler.unscale(s), p)).collect();
        let bounds = if retained.is_empty() {
            // Degenerate hybrid: everything is in the tree.
            LocalErrorBounds::compute(&[(0.0, 0.0)], cfg.range_length)
        } else {
            LocalErrorBounds::compute(&retained, cfg.range_length)
        };

        let report = IndexBuildReport {
            loss_history,
            training_subsets: pairs.len(),
            outliers: outlier_indices.len(),
            global_error: bounds.global_bound(),
            mean_local_error: bounds.mean_bound(),
            train,
        };
        (
            LearnedSetIndex {
                model,
                scaler,
                aux,
                bounds,
                max_subset_size: cfg.max_subset_size,
                target: cfg.target,
                // Positions live in [0, len-1]; estimates outside are
                // clamped, non-finite ones trigger an exact full scan.
                guard: ServeGuard::new(0.0, collection.len().saturating_sub(1) as f64),
            },
            report,
        )
    }

    /// Algorithm 2: auxiliary structure first, then model estimate + bounded
    /// local scan for the first position containing `q`.
    pub fn lookup(&self, collection: &SetCollection, q: &[u32]) -> Option<usize> {
        self.lookup_profiled(collection, q).position
    }

    fn aux_position(&self, q: &[u32]) -> Option<u32> {
        match self.target {
            PositionTarget::First => self.aux.first_position(set_hash(q)),
            PositionTarget::Last => self.aux.last_position(set_hash(q)),
        }
    }

    /// Scan window for a guarded estimate: the positions to scan (empty when
    /// the bound lies wholly past the collection's end) plus the fallback
    /// reason (if the guard rejected the raw estimate). A non-finite
    /// estimate widens the window to the whole collection — the exact,
    /// model-free degradation; an out-of-bound estimate is clamped into the
    /// position domain first.
    fn scan_window(
        &self,
        collection: &SetCollection,
        raw_est: f64,
    ) -> (Range<usize>, Option<FallbackReason>) {
        let len = collection.len();
        let (est, reason) = self.guard.admit_or_clamp(raw_est);
        if reason == Some(FallbackReason::NonFinite) {
            return (0..len, reason);
        }
        let e_r = self.bounds.bound_for(est);
        let lo = ((est - e_r).floor().max(0.0)) as usize;
        let end = ((est + e_r).ceil() as usize).saturating_add(1).min(len);
        (lo.min(end)..end, reason)
    }

    /// [`LearnedSetIndex::lookup`] with scan-effort accounting: a batch of
    /// one through [`LearnedSetIndex::lookup_batch_profiled`].
    pub fn lookup_profiled(&self, collection: &SetCollection, q: &[u32]) -> LookupProfile {
        self.lookup_batch_profiled(collection, &[q]).pop().expect("one profile per query")
    }

    /// The serving kernel, frozen at the model config's precision when the
    /// index was built or loaded.
    pub fn kernel(&self) -> &FrozenModel {
        self.model.kernel()
    }

    /// The shared tail of every lookup path: auxiliary structure first
    /// (Algorithm 2 line 2), then guarded estimate + bounded local scan
    /// (lines 4–7). `score` is the model's raw (scaled) output for `q`,
    /// which lets the batch paths reuse a batched forward pass.
    fn profile_from_score(
        &self,
        collection: &SetCollection,
        q: &[u32],
        score: f32,
    ) -> LookupProfile {
        if let Some(pos) = self.aux_position(q) {
            return LookupProfile {
                position: Some(pos as usize),
                scanned: 0,
                from_aux: true,
                fallback: None,
            };
        }
        let (window, fallback) = self.scan_window(collection, self.scaler.unscale(score));
        // First-occurrence queries scan the window upward; last-occurrence
        // queries downward. In both directions the first match is the true
        // endpoint whenever it lies inside the window (nothing beyond the
        // endpoint matches, by definition). A set is read only when its
        // signature holds every bit of the query's: `q ⊆ S` implies
        // `sig(q) ⊆ sig(S)`, so the filter drops no match.
        let want = signature(q);
        let lo = window.start;
        let sigs = &collection.signatures()[window.clone()];
        let sets = &collection.sets()[window];
        let hit = |k: &usize| sigs[*k] & want == want && is_subset(q, &sets[*k]);
        let found = match self.target {
            PositionTarget::First => (0..sigs.len()).find(hit),
            PositionTarget::Last => (0..sigs.len()).rev().find(hit),
        };
        // `scanned` counts the window positions passed, filtered or read.
        let scanned = match (found, self.target) {
            (None, _) => sigs.len(),
            (Some(k), PositionTarget::First) => k + 1,
            (Some(k), PositionTarget::Last) => sigs.len() - k,
        };
        LookupProfile { position: found.map(|k| lo + k), scanned, from_aux: false, fallback }
    }

    /// Batched lookup with scan-effort accounting: one model forward pass
    /// for all queries, followed by per-query bounded scans.
    pub fn lookup_batch_profiled<S: AsRef<[u32]>>(
        &self,
        collection: &SetCollection,
        queries: &[S],
    ) -> Vec<LookupProfile> {
        if queries.is_empty() {
            return Vec::new();
        }
        let scores = self.kernel().predict_batch(queries);
        queries
            .iter()
            .zip(scores)
            .map(|(q, s)| self.profile_from_score(collection, q.as_ref(), s))
            .collect()
    }

    /// Raw model estimate of the position (no scan) — for accuracy metrics.
    pub fn estimate_position(&self, q: &[u32]) -> f64 {
        self.model_estimate_or_aux(q)
    }

    fn model_estimate_or_aux(&self, q: &[u32]) -> f64 {
        if let Some(pos) = self.aux_position(q) {
            return pos as f64;
        }
        self.scaler.unscale(self.kernel().predict_one(q))
    }

    /// Registers a §7.2 update: the set now (also) appears at `pos`. Queries
    /// consult the auxiliary tree first, so the new position wins.
    pub fn record_update(&mut self, set: &[u32], pos: usize) {
        setlearn_data::set::for_each_subset(set, self.max_subset_size, |sub| {
            self.aux.insert(set_hash(sub), pos as u32);
        });
    }

    /// Fraction of known subsets served by the auxiliary tree; near 1.0 the
    /// hybrid has degenerated to a traditional index and should be rebuilt.
    pub fn aux_fraction(&self, training_subsets: usize) -> f64 {
        if training_subsets == 0 {
            return 1.0;
        }
        self.aux.len() as f64 / training_subsets as f64
    }

    /// The underlying model.
    pub fn model(&self) -> &DeepSets {
        self.model.weights()
    }

    /// The local error bounds.
    pub fn bounds(&self) -> &LocalErrorBounds {
        &self.bounds
    }

    /// Which occurrence (first/last) this index was trained to return.
    pub fn target(&self) -> PositionTarget {
        self.target
    }

    /// Number of entries in the auxiliary tree.
    pub fn aux_len(&self) -> usize {
        self.aux.len()
    }

    /// Model weight bytes.
    pub fn model_size_bytes(&self) -> usize {
        self.model().size_bytes()
    }

    /// Auxiliary-tree bytes.
    pub fn aux_size_bytes(&self) -> usize {
        self.aux.size_bytes()
    }

    /// Error-bound table bytes.
    pub fn bounds_size_bytes(&self) -> usize {
        self.bounds.size_bytes()
    }

    /// Total structure bytes (Table 7's Model + Aux.Str. + Err).
    pub fn size_bytes(&self) -> usize {
        self.model_size_bytes() + self.aux_size_bytes() + self.bounds_size_bytes()
    }
}

fn outcome_from_profile(p: LookupProfile) -> QueryOutcome<Option<usize>> {
    QueryOutcome { value: p.position, fallback: p.fallback, bound_miss: p.bound_miss() }
}

/// A [`LearnedSetIndex`] bound to its collection. Lookups need the
/// collection to scan, so the [`LearnedSetStructure`] surface lives on this
/// adapter rather than on the bare index.
#[derive(Debug, Clone)]
pub struct IndexStructure {
    /// The hybrid learned index.
    pub index: LearnedSetIndex,
    /// The collection it indexes.
    pub collection: Arc<SetCollection>,
}

impl LearnedSetStructure for IndexStructure {
    type Output = Option<usize>;
    const NAME: &'static str = "index";

    fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<Option<usize>>> {
        self.index
            .lookup_batch_profiled(&self.collection, queries)
            .into_iter()
            .map(outcome_from_profile)
            .collect()
    }

    fn vocab(&self) -> Option<u32> {
        Some(self.index.model().config().vocab)
    }

    fn kernel_precision(&self) -> Option<Precision> {
        Some(self.index.kernel().precision())
    }
}

/// First or last position by the index's [`PositionTarget`]. A part that
/// does not hold the subset misses as expected, so `bound_miss` survives
/// only when no part hit.
impl Fold for IndexStructure {
    fn fold(
        &self,
        acc: QueryOutcome<Option<usize>>,
        part: QueryOutcome<Option<usize>>,
    ) -> QueryOutcome<Option<usize>> {
        fold_positions(self.index.target(), acc, part)
    }

    /// Appended rows sit at `base_len + slot`, already global.
    fn overlay(&self, delta: &OverlayAnswer) -> QueryOutcome<Option<usize>> {
        QueryOutcome::clean(match self.index.target() {
            PositionTarget::First => delta.first,
            PositionTarget::Last => delta.last,
        })
    }

    fn lift(
        &self,
        part: QueryOutcome<Option<usize>>,
        rows: &[usize],
    ) -> QueryOutcome<Option<usize>> {
        part.map(|position| position.map(|local| rows[local]))
    }
}

/// [`IndexStructure`]'s fold, given its target.
pub(crate) fn fold_positions(
    target: PositionTarget,
    acc: QueryOutcome<Option<usize>>,
    part: QueryOutcome<Option<usize>>,
) -> QueryOutcome<Option<usize>> {
    let value = match (acc.value, part.value) {
        (Some(a), Some(b)) => Some(match target {
            PositionTarget::First => a.min(b),
            PositionTarget::Last => a.max(b),
        }),
        (a, b) => a.or(b),
    };
    let folded = acc.folded(&part, value);
    QueryOutcome { bound_miss: folded.bound_miss && value.is_none(), ..folded }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CompressionKind;
    use proptest::prelude::*;
    use setlearn_data::{normalize, GeneratorConfig};

    fn quick_cfg(vocab: u32, compression: CompressionKind) -> IndexConfig {
        let mut model = DeepSetsConfig::lsm(vocab);
        model.compression = compression;
        IndexConfig {
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
            range_length: 16.0,
            target: PositionTarget::First,
        }
    }

    #[test]
    fn every_trained_subset_is_found_at_its_true_first_position() {
        let collection = GeneratorConfig::rw(300, 21).generate();
        let (index, report) =
            LearnedSetIndex::build(&collection, &quick_cfg(collection.num_elements(), CompressionKind::None));
        assert!(report.training_subsets > 0);
        let subsets = SubsetIndex::build(&collection, 3);
        for (s, info) in subsets.iter() {
            let got = index.lookup(&collection, s);
            assert_eq!(
                got,
                Some(info.first_pos as usize),
                "subset {s:?}: expected {} got {got:?}",
                info.first_pos
            );
        }
    }

    #[test]
    fn local_bounds_cut_scanning_versus_global() {
        let collection = GeneratorConfig::rw(400, 2).generate();
        let (_index, report) =
            LearnedSetIndex::build(&collection, &quick_cfg(collection.num_elements(), CompressionKind::None));
        assert!(
            report.mean_local_error <= report.global_error,
            "mean {} vs global {}",
            report.mean_local_error,
            report.global_error
        );
    }

    #[test]
    fn aux_answers_have_zero_scan_cost() {
        let collection = GeneratorConfig::rw(300, 8).generate();
        let (index, _) =
            LearnedSetIndex::build(&collection, &quick_cfg(collection.num_elements(), CompressionKind::None));
        assert!(index.aux_len() > 0, "expected some outliers");
        let subsets = SubsetIndex::build(&collection, 3);
        let mut aux_hits = 0;
        for (s, _) in subsets.iter() {
            let prof = index.lookup_profiled(&collection, s);
            if prof.from_aux {
                assert_eq!(prof.scanned, 0);
                aux_hits += 1;
            }
        }
        assert!(aux_hits > 0);
    }

    #[test]
    fn updates_take_precedence() {
        let collection = GeneratorConfig::rw(200, 5).generate();
        let (mut index, _) =
            LearnedSetIndex::build(&collection, &quick_cfg(collection.num_elements(), CompressionKind::None));
        let q: Vec<u32> = collection.get(50)[..2].to_vec();
        index.record_update(&q, 3);
        let prof = index.lookup_profiled(&collection, &q);
        assert!(prof.from_aux);
        assert_eq!(prof.position, Some(3));
    }

    #[test]
    fn nan_model_lookups_stay_correct_via_full_scan_fallback() {
        let collection = GeneratorConfig::rw(150, 21).generate();
        let (index, _) = LearnedSetIndex::build(
            &collection,
            &quick_cfg(collection.num_elements(), CompressionKind::None),
        );
        let index = crate::tasks::with_nan_weights(&index);

        let subsets = SubsetIndex::build(&collection, 2);
        let (mut fallbacks, mut model_served) = (0, 0);
        for (s, info) in subsets.iter().take(100) {
            let prof = index.lookup_profiled(&collection, s);
            assert_eq!(
                prof.position,
                Some(info.first_pos as usize),
                "subset {s:?} answered wrong under a poisoned model"
            );
            if prof.fallback == Some(FallbackReason::NonFinite) {
                fallbacks += 1;
            }
            model_served += usize::from(!prof.from_aux);
        }
        assert!(fallbacks > 0, "expected non-finite fallbacks from a NaN model");
        // Every lookup the model served fell back, and says so.
        assert_eq!(fallbacks, model_served);
        // Batched lookups degrade identically.
        let queries: Vec<&[u32]> = subsets.iter().take(20).map(|(s, _)| &**s).collect();
        let batch = index.lookup_batch_profiled(&collection, &queries);
        for (q, got) in queries.iter().zip(&batch) {
            assert_eq!(got.position, index.lookup(&collection, q));
        }
    }

    #[test]
    fn trait_batch_lookups_equal_profiled() {
        let collection = GeneratorConfig::rw(300, 21).generate();
        let (index, _) = LearnedSetIndex::build(
            &collection,
            &quick_cfg(collection.num_elements(), CompressionKind::None),
        );
        let subsets = SubsetIndex::build(&collection, 3);
        let queries: Vec<ElementSet> = subsets.iter().map(|(s, _)| s.clone()).collect();
        let profiles = index.lookup_batch_profiled(&collection, &queries);
        // The trait surface agrees with the profiled path, flags included.
        let structure = IndexStructure { index, collection: Arc::new(collection) };
        let outcomes = structure.query_batch(&queries);
        assert_eq!(outcomes, profiles.into_iter().map(outcome_from_profile).collect::<Vec<_>>());
    }

    #[test]
    fn compressed_index_is_smaller_and_still_sound() {
        let collection = GeneratorConfig::rw(250, 13).generate();
        // Compression pays off for large vocabularies (the paper's SD
        // discussion: small vocabularies don't need it). Declare a large id
        // space; the collection only uses a prefix of it.
        let vocab = collection.num_elements().max(50_000);
        let (lsm, _) = LearnedSetIndex::build(&collection, &quick_cfg(vocab, CompressionKind::None));
        let (clsm, _) =
            LearnedSetIndex::build(&collection, &quick_cfg(vocab, CompressionKind::Optimal { ns: 2 }));
        assert!(clsm.model_size_bytes() < lsm.model_size_bytes());
        let subsets = SubsetIndex::build(&collection, 3);
        for (s, info) in subsets.iter() {
            assert_eq!(clsm.lookup(&collection, s), Some(info.first_pos as usize));
        }
    }

    /// The lookup a plain set-by-set merge walk gives over the inclusive
    /// `[lo, hi]` window: the reference the signature-filtered scan must
    /// agree with, profile for profile.
    fn merge_walk_profile(
        index: &LearnedSetIndex,
        collection: &SetCollection,
        q: &[u32],
        score: f32,
    ) -> LookupProfile {
        if let Some(pos) = index.aux_position(q) {
            return LookupProfile {
                position: Some(pos as usize),
                scanned: 0,
                from_aux: true,
                fallback: None,
            };
        }
        let last = collection.len() - 1;
        let (est, fallback) = index.guard.admit_or_clamp(index.scaler.unscale(score));
        let (lo, hi) = if fallback == Some(FallbackReason::NonFinite) {
            (0, last)
        } else {
            let e_r = index.bounds.bound_for(est);
            (((est - e_r).floor().max(0.0)) as usize, ((est + e_r).ceil() as usize).min(last))
        };
        let order: Vec<usize> = match index.target {
            PositionTarget::First => (lo..=hi).collect(),
            PositionTarget::Last => (lo..=hi).rev().collect(),
        };
        let mut scanned = 0;
        for i in order {
            scanned += 1;
            if is_subset(q, collection.get(i)) {
                return LookupProfile { position: Some(i), scanned, from_aux: false, fallback };
            }
        }
        LookupProfile { position: None, scanned, from_aux: false, fallback }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The signature-filtered scan returns the merge walk's profile for
        /// present and absent queries of 1–4 elements, both targets, aux
        /// hits, windows clamped by the guard or cut by the collection's
        /// end, and the full-collection window of a non-finite score. The
        /// index is hand-assembled (untrained model, random bounds, a guard
        /// domain that need not match the collection) because the scan only
        /// sees the score.
        #[test]
        fn signature_scan_equals_a_merge_walk(
            shape in (1u32..200, 1usize..160, 1usize..400),
            raw in proptest::collection::vec(proptest::collection::vec(0u32..u32::MAX, 1..9), 1..300),
            errors in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40),
            picks in proptest::collection::vec(
                (0usize..usize::MAX, proptest::collection::vec(0u32..u32::MAX, 1..5), 0u8..8, -0.25f32..1.25),
                1..24,
            ),
        ) {
            let (vocab, range_length, guard_len) = shape;
            let raw = raw.iter().map(|s| s.iter().map(|e| e % vocab).collect()).collect();
            let collection = SetCollection::new(raw, vocab);
            // Estimates reach 1.5x the guard's domain, so some are clamped.
            let domain = (guard_len - 1) as f64;
            let pairs: Vec<(f64, f64)> =
                errors.iter().map(|&(est, truth)| (est * domain, truth * domain)).collect();
            let mut index = LearnedSetIndex {
                model: ServedModel::new(DeepSets::new(DeepSetsConfig::lsm(vocab))),
                scaler: LogMinMaxScaler::from_range(0.0, 1.5 * domain),
                aux: BPlusTree::new(8),
                bounds: LocalErrorBounds::compute(&pairs, range_length as f64),
                max_subset_size: 4,
                target: PositionTarget::First,
                guard: ServeGuard::new(0.0, domain),
            };
            // kind: even = a subset of a set in the collection, odd = random
            // ids (mostly absent); 0 = NaN score, 1 = +inf, 6 = an aux entry.
            let mut queries = Vec::new();
            for (pick, ids, kind, score) in &picks {
                let set = collection.get(pick % collection.len());
                let q = if kind % 2 == 0 {
                    normalize(ids.iter().map(|&e| set[e as usize % set.len()]).collect())
                } else {
                    normalize(ids.iter().map(|&e| e % vocab).collect())
                };
                let score = match kind {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    _ => *score,
                };
                if *kind == 6 {
                    index.aux.insert(set_hash(&q), (pick % collection.len()) as u32);
                }
                queries.push((q, score));
            }
            for target in [PositionTarget::First, PositionTarget::Last] {
                index.target = target;
                for (q, score) in &queries {
                    prop_assert_eq!(
                        index.profile_from_score(&collection, q, *score),
                        merge_walk_profile(&index, &collection, q, *score)
                    );
                }
            }
        }
    }

    /// FNV-1a over the little-endian bytes of each word.
    fn fnv1a(mut h: u64, words: &[u64]) -> u64 {
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Every profile of a fixed index — position, scan length, aux hit and
    /// fallback — over its whole training enumeration plus 200 absent pairs,
    /// pinned as one hash, so a faster scan that moves any of them fails here.
    #[test]
    fn lookup_profiles_are_pinned() {
        let collection = GeneratorConfig::rw(300, 21).generate();
        let (index, _) = LearnedSetIndex::build(
            &collection,
            &quick_cfg(collection.num_elements(), CompressionKind::None),
        );
        let mut queries: Vec<Vec<u32>> =
            SubsetIndex::build(&collection, 3).iter().map(|(s, _)| s.to_vec()).collect();
        queries.sort();
        let n = collection.num_elements();
        let absent: Vec<Vec<u32>> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| vec![a, b]))
            .filter(|q| !collection.contains_subset(q))
            .take(200)
            .collect();
        assert_eq!(absent.len(), 200);
        queries.extend(absent);
        let profiles = index.lookup_batch_profiled(&collection, &queries);
        let hash = profiles.iter().fold(0xcbf2_9ce4_8422_2325, |h, p| {
            let fallback = match p.fallback {
                None => 0,
                Some(FallbackReason::NonFinite) => 1,
                Some(FallbackReason::OutOfBounds) => 2,
            };
            let position = p.position.map_or(u64::MAX, |i| i as u64);
            fnv1a(h, &[position, p.scanned as u64, u64::from(p.from_aux), fallback])
        });
        let scanned: usize = profiles.iter().map(|p| p.scanned).sum();
        assert_eq!((queries.len(), scanned, hash), (3_748, 345_446, 0x3758_f618_c5d2_a224));
    }
}

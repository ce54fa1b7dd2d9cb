//! The DeepSets model (paper §3.2, Figures 2 and 4): shared element
//! encoder → per-element φ transformation → permutation-invariant pooling →
//! ρ head. Both the plain (LSM) and compressed (CLSM) variants are the same
//! struct with different [`ElementEncoder`]s.

use crate::compress::CompressionSpec;
use crate::encoder::ElementEncoder;
use crate::kernel::Precision;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use setlearn_nn::{
    Activation, Decision, EpochStats, Loss, Matrix, Mlp, Optimizer, TrainHarness, TrainPolicy,
    TrainReport, WeightSnapshot,
};

/// Permutation-invariant pooling over the φ-transformed elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pooling {
    /// Element-wise sum — the paper's choice for the compressed model.
    Sum,
    /// Element-wise mean.
    Mean,
    /// Element-wise maximum.
    Max,
}

/// Pools flat element rows into one row per set — the one pooling routine
/// of training, `predict_batch` and the frozen kernel, so their pooled
/// values agree by construction.
///
/// `h` is `[n x dim]` row-major; set `b` owns rows `offsets[b]..offsets[b+1]`
/// and its pooled row is `out[b*dim..(b+1)*dim]` (every element written).
/// For [`Pooling::Max`], `argmax` (same shape as `out`) receives the flat
/// row index of each winning element when given — training's backward
/// routes each gradient to its winner.
pub(crate) fn pool_rows(
    pooling: Pooling,
    h: &[f32],
    dim: usize,
    offsets: &[usize],
    out: &mut [f32],
    mut argmax: Option<&mut [usize]>,
) {
    for (set_i, row) in out.chunks_exact_mut(dim).enumerate() {
        let range = offsets[set_i]..offsets[set_i + 1];
        match pooling {
            Pooling::Sum | Pooling::Mean => {
                let count = range.len() as f32;
                row.fill(0.0);
                for r in range {
                    for (o, &v) in row.iter_mut().zip(&h[r * dim..(r + 1) * dim]) {
                        *o += v;
                    }
                }
                if pooling == Pooling::Mean {
                    for o in row.iter_mut() {
                        *o /= count;
                    }
                }
            }
            Pooling::Max => {
                let mut am = argmax.as_deref_mut().map(|a| &mut a[set_i * dim..(set_i + 1) * dim]);
                for (k, r) in range.enumerate() {
                    for (j, &v) in h[r * dim..(r + 1) * dim].iter().enumerate() {
                        if k == 0 || v > row[j] {
                            row[j] = v;
                            if let Some(am) = am.as_deref_mut() {
                                am[j] = r;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Which encoder the model uses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompressionKind {
    /// Single shared embedding (LSM).
    None,
    /// Compressed with the optimal divisor for `ns` sub-elements (CLSM).
    Optimal {
        /// Number of sub-elements.
        ns: usize,
    },
    /// Compressed with an explicit divisor (Table 6's tunable spectrum).
    Divisor {
        /// Number of sub-elements.
        ns: usize,
        /// The divisor `sv_d`.
        divisor: u32,
    },
    /// Hashing-trick encoder (lossy alternative; see `abl_hash_encoder`).
    Hashed {
        /// Bucket-table rows.
        buckets: u32,
        /// Hash probes per element.
        num_hashes: usize,
    },
}

/// Hyper-parameters of a DeepSets model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeepSetsConfig {
    /// Vocabulary size: element ids are `0..vocab`.
    pub vocab: u32,
    /// Embedding dimension (per table).
    pub embedding_dim: usize,
    /// Hidden widths of the per-element φ MLP; the last entry is the pooled
    /// feature width. Empty = pool raw encodings (only sensible for LSM —
    /// the compressed encoder *requires* φ to bind sub-element pairs, §5).
    pub phi_hidden: Vec<usize>,
    /// Hidden widths of the ρ head (a final scalar layer is appended).
    pub rho_hidden: Vec<usize>,
    /// Pooling operation.
    pub pooling: Pooling,
    /// Activation for hidden layers.
    pub hidden_activation: Activation,
    /// Activation of the scalar output (sigmoid for every task, Table 1).
    pub output_activation: Activation,
    /// Encoder variant.
    pub compression: CompressionKind,
    /// Weight-initialization seed.
    pub seed: u64,
    /// The precision a structure built on this model serves at (training is
    /// f32 whatever it names). Fixed at build, with the guarantees.
    pub precision: Precision,
}

impl DeepSetsConfig {
    /// A reasonable LSM default for the given vocabulary: embedding 8,
    /// φ = [32], ρ = [32], sum pooling, sigmoid output.
    pub fn lsm(vocab: u32) -> Self {
        DeepSetsConfig {
            vocab,
            embedding_dim: 8,
            phi_hidden: vec![32],
            rho_hidden: vec![32],
            pooling: Pooling::Sum,
            hidden_activation: Activation::Relu,
            output_activation: Activation::Sigmoid,
            compression: CompressionKind::None,
            seed: 42,
            precision: Precision::F32,
        }
    }

    /// The CLSM counterpart with `ns = 2` (the paper's recommended setting).
    pub fn clsm(vocab: u32) -> Self {
        DeepSetsConfig { compression: CompressionKind::Optimal { ns: 2 }, ..Self::lsm(vocab) }
    }
}

/// Cached batch layout for the backward pass.
#[derive(Debug, Clone, Default)]
struct BatchCache {
    /// Per-set element ranges into the flat element batch: set `b` owns
    /// rows `offsets[b]..offsets[b+1]`.
    offsets: Vec<usize>,
    /// For max pooling: flat `[B x h]` indices of the winning element row.
    argmax: Vec<usize>,
}

/// The DeepSets model: encoder → φ → pooling → ρ → scalar.
///
/// ```
/// use setlearn::model::{DeepSets, DeepSetsConfig};
///
/// let model = DeepSets::new(DeepSetsConfig::clsm(10_000));
/// // Permutation invariance is structural, not learned:
/// assert_eq!(model.predict_one(&[3, 17, 9_999]), model.predict_one(&[9_999, 3, 17]));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeepSets {
    config: DeepSetsConfig,
    encoder: ElementEncoder,
    phi: Option<Mlp>,
    rho: Mlp,
    #[serde(skip)]
    cache: Option<BatchCache>,
}

impl DeepSets {
    /// Builds a model from its configuration.
    ///
    /// # Panics
    /// If a compressed encoder is configured without a φ network — pooling
    /// independently encoded sub-elements breaks the model (paper §5) — or
    /// if `vocab == 0`.
    pub fn new(config: DeepSetsConfig) -> Self {
        assert!(config.vocab > 0, "empty vocabulary");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let encoder = match &config.compression {
            CompressionKind::None => {
                ElementEncoder::plain(&mut rng, config.vocab, config.embedding_dim)
            }
            CompressionKind::Optimal { ns } => {
                let spec = CompressionSpec::optimal(config.vocab.saturating_sub(1).max(1), *ns);
                ElementEncoder::compressed(&mut rng, spec, config.embedding_dim)
            }
            CompressionKind::Divisor { ns, divisor } => {
                let spec = CompressionSpec::with_divisor(
                    config.vocab.saturating_sub(1).max(1),
                    *ns,
                    *divisor,
                );
                ElementEncoder::compressed(&mut rng, spec, config.embedding_dim)
            }
            CompressionKind::Hashed { buckets, num_hashes } => {
                ElementEncoder::hashed(&mut rng, *buckets as usize, config.embedding_dim, *num_hashes)
            }
        };
        assert!(
            matches!(config.compression, CompressionKind::None) || !config.phi_hidden.is_empty(),
            "the compressed encoder requires a φ network to preserve the \
             sub-element interconnection (paper §5)"
        );
        let enc_dim = encoder.out_dim();
        let phi = if config.phi_hidden.is_empty() {
            None
        } else {
            let mut dims = vec![enc_dim];
            dims.extend_from_slice(&config.phi_hidden);
            Some(Mlp::new(&mut rng, &dims, config.hidden_activation, config.hidden_activation))
        };
        let pool_dim = config.phi_hidden.last().copied().unwrap_or(enc_dim);
        let mut rho_dims = vec![pool_dim];
        rho_dims.extend_from_slice(&config.rho_hidden);
        rho_dims.push(1);
        let rho =
            Mlp::new(&mut rng, &rho_dims, config.hidden_activation, config.output_activation);
        DeepSets { config, encoder, phi, rho, cache: None }
    }

    /// The model's configuration.
    pub fn config(&self) -> &DeepSetsConfig {
        &self.config
    }

    /// The element encoder — read access for [`crate::kernel`]'s freezing
    /// pass, which re-lays-out the embedding tables for serving.
    pub fn encoder(&self) -> &ElementEncoder {
        &self.encoder
    }

    /// The per-element φ network, if configured.
    pub fn phi(&self) -> Option<&Mlp> {
        self.phi.as_ref()
    }

    /// The ρ head.
    pub fn rho(&self) -> &Mlp {
        &self.rho
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.encoder.num_params()
            + self.phi.as_ref().map_or(0, Mlp::num_params)
            + self.rho.num_params()
    }

    /// Serialized model size in bytes (`f32` weights) — the paper's
    /// weights-only memory measure.
    pub fn size_bytes(&self) -> usize {
        self.num_params() * std::mem::size_of::<f32>()
    }

    fn flatten<S: AsRef<[u32]>>(sets: &[S]) -> (Vec<u32>, Vec<usize>) {
        let total: usize = sets.iter().map(|s| s.as_ref().len()).sum();
        let mut ids = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(sets.len() + 1);
        offsets.push(0);
        for s in sets {
            let s = s.as_ref();
            assert!(!s.is_empty(), "cannot encode an empty set");
            ids.extend_from_slice(s);
            offsets.push(ids.len());
        }
        (ids, offsets)
    }

    fn unpool(&self, grad_pooled: &Matrix, offsets: &[usize], argmax: &[usize], n: usize) -> Matrix {
        let dim = grad_pooled.cols();
        let mut grad_h = Matrix::zeros(n, dim);
        match self.config.pooling {
            Pooling::Sum => {
                for set_i in 0..grad_pooled.rows() {
                    for r in offsets[set_i]..offsets[set_i + 1] {
                        grad_h.row_mut(r).copy_from_slice(grad_pooled.row(set_i));
                    }
                }
            }
            Pooling::Mean => {
                for set_i in 0..grad_pooled.rows() {
                    let count = (offsets[set_i + 1] - offsets[set_i]) as f32;
                    for r in offsets[set_i]..offsets[set_i + 1] {
                        for (o, &g) in
                            grad_h.row_mut(r).iter_mut().zip(grad_pooled.row(set_i).iter())
                        {
                            *o = g / count;
                        }
                    }
                }
            }
            Pooling::Max => {
                for set_i in 0..grad_pooled.rows() {
                    let am = &argmax[set_i * dim..(set_i + 1) * dim];
                    for (j, &g) in grad_pooled.row(set_i).iter().enumerate() {
                        grad_h.set(am[j], j, grad_h.get(am[j], j) + g);
                    }
                }
            }
        }
        grad_h
    }

    /// Training forward pass over a batch of sets; returns the scalar
    /// prediction per set and caches state for [`DeepSets::backward_batch`].
    pub fn forward_batch<S: AsRef<[u32]>>(&mut self, sets: &[S]) -> Vec<f32> {
        let (ids, offsets) = Self::flatten(sets);
        let encoded = self.encoder.forward(&ids);
        let h = match &mut self.phi {
            Some(phi) => phi.forward(&encoded),
            None => encoded,
        };
        let mut pooled = Matrix::zeros(offsets.len() - 1, h.cols());
        let pooling = self.config.pooling;
        let mut argmax = vec![0; if pooling == Pooling::Max { pooled.data().len() } else { 0 }];
        pool_rows(pooling, h.data(), h.cols(), &offsets, pooled.data_mut(), Some(&mut argmax));
        let out = self.rho.forward(&pooled);
        self.cache = Some(BatchCache { offsets, argmax });
        out.into_vec()
    }

    /// Backward pass from `dL/dout` (one gradient per set in the batch).
    pub fn backward_batch(&mut self, grad_out: &[f32]) {
        let cache = self.cache.take().expect("backward before forward");
        let b = cache.offsets.len() - 1;
        assert_eq!(grad_out.len(), b, "gradient count mismatch");
        let n = *cache.offsets.last().expect("non-empty offsets");
        let grad = Matrix::from_vec(b, 1, grad_out.to_vec());
        let grad_pooled = self.rho.backward(&grad);
        let grad_h = self.unpool(&grad_pooled, &cache.offsets, &cache.argmax, n);
        let grad_enc = match &mut self.phi {
            Some(phi) => phi.backward(&grad_h),
            None => grad_h,
        };
        self.encoder.backward(&grad_enc);
    }

    /// Inference over a batch of sets.
    pub fn predict_batch<S: AsRef<[u32]>>(&self, sets: &[S]) -> Vec<f32> {
        let (ids, offsets) = Self::flatten(sets);
        let encoded = self.encoder.predict(&ids);
        let h = match &self.phi {
            Some(phi) => phi.predict(&encoded),
            None => encoded,
        };
        let mut pooled = Matrix::zeros(offsets.len() - 1, h.cols());
        pool_rows(self.config.pooling, h.data(), h.cols(), &offsets, pooled.data_mut(), None);
        self.rho.predict(&pooled).into_vec()
    }

    /// Inference for a single set.
    pub fn predict_one(&self, set: &[u32]) -> f32 {
        self.predict_batch(&[set])[0]
    }

    /// Immutable views of every parameter buffer's values in a stable order
    /// (encoder tables, φ layers, ρ layers) — the binary persistence layout.
    pub fn weight_buffers(&self) -> Vec<&[f32]> {
        let mut out: Vec<&[f32]> =
            self.encoder.params().into_iter().map(|p| p.value.as_slice()).collect();
        if let Some(phi) = &self.phi {
            out.extend(phi.params().into_iter().map(|p| p.value.as_slice()));
        }
        out.extend(self.rho.params().into_iter().map(|p| p.value.as_slice()));
        out
    }

    /// Overwrites every parameter buffer from `bufs` (the order of
    /// [`DeepSets::weight_buffers`]). Fails on count or length mismatch.
    pub fn load_weight_buffers(&mut self, bufs: &[Vec<f32>]) -> Result<(), String> {
        let mut targets: Vec<&mut setlearn_nn::ParamBuf> = self.encoder.params_mut();
        if let Some(phi) = &mut self.phi {
            targets.extend(phi.params_mut());
        }
        targets.extend(self.rho.params_mut());
        if targets.len() != bufs.len() {
            return Err(format!(
                "buffer count mismatch: model has {}, file has {}",
                targets.len(),
                bufs.len()
            ));
        }
        for (i, (t, b)) in targets.into_iter().zip(bufs.iter()).enumerate() {
            if t.value.len() != b.len() {
                return Err(format!(
                    "buffer {i} length mismatch: model {} vs file {}",
                    t.value.len(),
                    b.len()
                ));
            }
            t.value.copy_from_slice(b);
        }
        Ok(())
    }

    /// Zeroes all gradient accumulators (call once before training, and
    /// after deserialization).
    pub fn zero_grad(&mut self) {
        self.encoder.zero_grad();
        if let Some(phi) = &mut self.phi {
            phi.zero_grad();
        }
        self.rho.zero_grad();
    }

    /// Applies one optimizer step to every parameter buffer.
    pub fn step(&mut self, opt: &mut Optimizer) {
        opt.begin_step();
        for p in self.encoder.params_mut() {
            opt.step(p);
        }
        if let Some(phi) = &mut self.phi {
            for p in phi.params_mut() {
                opt.step(p);
            }
        }
        for p in self.rho.params_mut() {
            opt.step(p);
        }
    }

    /// Runs one shuffled mini-batch epoch over `(set, scaled target)` pairs.
    /// A batch whose loss or gradient goes non-finite is skipped instead of
    /// poisoning the weights; the returned stats count it.
    pub fn train_epoch<S: AsRef<[u32]>>(
        &mut self,
        data: &[(S, f32)],
        loss: Loss,
        opt: &mut Optimizer,
        batch_size: usize,
        rng: &mut StdRng,
    ) -> EpochStats {
        assert!(!data.is_empty(), "empty training data");
        assert!(batch_size > 0, "batch size must be positive");
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.shuffle(rng);
        let mut stats = EpochStats::default();
        let mut total = 0.0f64;
        for chunk in order.chunks(batch_size) {
            let sets: Vec<&[u32]> = chunk.iter().map(|&i| data[i].0.as_ref()).collect();
            let targets: Vec<f32> = chunk.iter().map(|&i| data[i].1).collect();
            let pred = self.forward_batch(&sets);
            let (l, grad) = loss.loss_and_grad(&pred, &targets);
            if !l.is_finite() || grad.iter().any(|g| !g.is_finite()) {
                // Don't backprop a poisoned batch; the next forward pass
                // replaces the cache.
                stats.skipped_batches += 1;
                continue;
            }
            self.backward_batch(&grad);
            let norm = self.grad_norm();
            if !norm.is_finite() {
                self.zero_grad();
                stats.skipped_batches += 1;
                continue;
            }
            stats.max_grad_norm = stats.max_grad_norm.max(norm);
            self.step(opt);
            total += l as f64;
            stats.batches += 1;
        }
        stats.mean_loss =
            if stats.batches > 0 { (total / stats.batches as f64) as f32 } else { f32::NAN };
        stats
    }

    /// Global L2 norm over every accumulated gradient buffer.
    pub fn grad_norm(&self) -> f32 {
        let mut grads: Vec<&[f32]> =
            self.encoder.params().into_iter().map(|p| p.grad.as_slice()).collect();
        if let Some(phi) = &self.phi {
            grads.extend(phi.params().into_iter().map(|p| p.grad.as_slice()));
        }
        grads.extend(self.rho.params().into_iter().map(|p| p.grad.as_slice()));
        setlearn_nn::harness::global_grad_norm(grads)
    }

    /// True when any weight is NaN or infinite — the model must not serve
    /// predictions in this state.
    pub fn has_non_finite_weights(&self) -> bool {
        self.weight_buffers().iter().any(|b| b.iter().any(|w| !w.is_finite()))
    }

    /// Owned copy of every weight buffer (a [`setlearn_nn::WeightSnapshot`]
    /// for the training harness).
    pub fn snapshot_weights(&self) -> Vec<Vec<f32>> {
        self.weight_buffers().into_iter().map(<[f32]>::to_vec).collect()
    }

    /// Drops accumulated optimizer moment state (Adam `m`/`v`). Call after
    /// restoring a weight snapshot so stale moments from the diverged
    /// trajectory don't steer the retry.
    pub fn reset_optimizer_state(&mut self) {
        let mut params: Vec<&mut setlearn_nn::ParamBuf> = self.encoder.params_mut();
        if let Some(phi) = &mut self.phi {
            params.extend(phi.params_mut());
        }
        params.extend(self.rho.params_mut());
        for p in params {
            p.m.clear();
            p.v.clear();
        }
    }

    /// Runs up to `epochs` epochs of `data` under `harness` — the one loop
    /// that acts on its decisions. A rejected epoch restores the last-good
    /// snapshot and clears the optimizer's moments; a stop after a rejected
    /// epoch loads the best snapshot at once. Until an epoch is accepted,
    /// the weights this call started from stand in for both. The optimizer
    /// trains at the harness's (possibly backed-off) rate. Returns `false`
    /// once the harness has stopped.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn train_harnessed<S: AsRef<[u32]>>(
        &mut self,
        harness: &mut TrainHarness,
        epochs: usize,
        data: &[(S, f32)],
        loss: Loss,
        opt: &mut Optimizer,
        batch_size: usize,
        rng: &mut StdRng,
    ) -> bool {
        let initial = harness.best_weights().is_none().then(|| self.snapshot_weights());
        let load = |model: &mut Self, snapshot: Option<&WeightSnapshot>| {
            if let Some(snapshot) = snapshot {
                model.load_weight_buffers(snapshot).expect("snapshot matches model");
            }
        };
        for _ in 0..epochs {
            opt.set_learning_rate(harness.lr());
            let stats = self.train_epoch(data, loss, opt, batch_size, rng);
            let mut accepted = false;
            let decision = harness.end_epoch(&stats, || {
                accepted = true;
                self.snapshot_weights()
            });
            match decision {
                Decision::Continue => {}
                Decision::Restore(snapshot) => {
                    load(self, if snapshot.is_empty() { initial.as_ref() } else { Some(&snapshot) });
                    self.reset_optimizer_state();
                    self.zero_grad();
                }
                Decision::Stop(_) => {
                    if !accepted {
                        load(self, harness.best_weights().or(initial.as_ref()));
                    }
                    return false;
                }
            }
        }
        true
    }

    /// Trains `policy.max_epochs` epochs under a [`TrainHarness`] (divergence
    /// recovery, learning-rate backoff) and ends on the best epoch's
    /// weights. The optimizer's learning rate is taken as the starting rate
    /// and is mutated as the harness backs off.
    pub fn train_with_harness<S: AsRef<[u32]>>(
        &mut self,
        data: &[(S, f32)],
        loss: Loss,
        opt: &mut Optimizer,
        batch_size: usize,
        rng: &mut StdRng,
        policy: &TrainPolicy,
    ) -> TrainReport {
        let mut harness = TrainHarness::new(policy.clone(), opt.learning_rate());
        self.train_harnessed(&mut harness, policy.max_epochs, data, loss, opt, batch_size, rng);
        let (report, best) = harness.finish_with_best();
        if let Some(best) = best {
            self.load_weight_buffers(&best).expect("snapshot matches model");
        }
        report
    }

    /// Per-sample losses without updating the model (used by guided
    /// learning to identify outliers).
    pub fn per_sample_losses<S: AsRef<[u32]>>(&self, data: &[(S, f32)], loss: Loss) -> Vec<f32> {
        data.iter()
            .map(|(s, t)| loss.loss(&[self.predict_one(s.as_ref())], &[*t]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(compression: CompressionKind) -> DeepSetsConfig {
        DeepSetsConfig {
            vocab: 100,
            embedding_dim: 4,
            phi_hidden: vec![8],
            rho_hidden: vec![8],
            pooling: Pooling::Sum,
            hidden_activation: Activation::Tanh,
            output_activation: Activation::Sigmoid,
            compression,
            seed: 7,
            precision: Precision::F32,
        }
    }

    #[test]
    fn permutation_invariance_plain() {
        let model = DeepSets::new(tiny_config(CompressionKind::None));
        let a = model.predict_one(&[3, 17, 42]);
        let b = model.predict_one(&[42, 3, 17]);
        let c = model.predict_one(&[17, 42, 3]);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn permutation_invariance_compressed() {
        let model = DeepSets::new(tiny_config(CompressionKind::Optimal { ns: 2 }));
        let a = model.predict_one(&[3, 17, 42]);
        let b = model.predict_one(&[42, 3, 17]);
        assert_eq!(a, b);
    }

    #[test]
    fn variable_set_sizes_supported() {
        let model = DeepSets::new(tiny_config(CompressionKind::None));
        let preds = model.predict_batch(&[&[1u32][..], &[1, 2, 3, 4, 5, 6, 7][..]]);
        assert_eq!(preds.len(), 2);
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn compressed_distinguishes_swapped_pairs() {
        // §5: sets X = {(q1,r1),(q2,r2)} and Z = {(q2,r1),(q1,r2)} must not
        // collapse. With divisor 10: 91=(1,9), 12=(2,1) vs 92=(2,9), 11=(1,1)
        // swap quotient/remainder pairings.
        let model = DeepSets::new(tiny_config(CompressionKind::Optimal { ns: 2 }));
        let x = model.predict_one(&[12, 91]);
        let z = model.predict_one(&[11, 92]);
        assert_ne!(x, z, "φ must keep sub-element pairs distinguishable");
    }

    #[test]
    fn compressed_has_far_fewer_params() {
        let mut cfg = tiny_config(CompressionKind::None);
        cfg.vocab = 100_000;
        let plain = DeepSets::new(cfg.clone());
        cfg.compression = CompressionKind::Optimal { ns: 2 };
        let compressed = DeepSets::new(cfg);
        assert!(
            compressed.num_params() * 10 < plain.num_params(),
            "compressed {} vs plain {}",
            compressed.num_params(),
            plain.num_params()
        );
    }

    #[test]
    fn training_reduces_loss_on_separable_task() {
        // Sets containing element 0 -> 1.0, others -> 0.0.
        let mut model = DeepSets::new(tiny_config(CompressionKind::None));
        model.zero_grad();
        let mut data: Vec<(Vec<u32>, f32)> = Vec::new();
        for i in 1..40u32 {
            data.push((vec![0, i], 1.0));
            data.push((vec![i, i + 40], 0.0));
        }
        let mut opt = Optimizer::adam(0.01);
        let mut rng = StdRng::seed_from_u64(1);
        let mut epoch =
            || model.train_epoch(&data, Loss::BinaryCrossEntropy, &mut opt, 16, &mut rng).mean_loss;
        let first = epoch();
        let mut last = first;
        for _ in 0..30 {
            last = epoch();
        }
        assert!(last < first * 0.5, "loss did not drop: {first} -> {last}");
        assert!(model.predict_one(&[0, 5]) > 0.5);
        assert!(model.predict_one(&[5, 45]) < 0.5);
    }

    #[test]
    fn pooling_variants_run_forward_and_backward() {
        for pooling in [Pooling::Sum, Pooling::Mean, Pooling::Max] {
            let mut cfg = tiny_config(CompressionKind::None);
            cfg.pooling = pooling;
            let mut model = DeepSets::new(cfg);
            model.zero_grad();
            let sets = [&[1u32, 2][..], &[3u32, 4, 5][..]];
            let out = model.forward_batch(&sets);
            assert_eq!(out.len(), 2);
            model.backward_batch(&[1.0, -1.0]);
            // Invariance holds for all poolings.
            let a = model.predict_one(&[9, 8, 7]);
            let b = model.predict_one(&[7, 9, 8]);
            assert_eq!(a, b, "{pooling:?}");
        }
    }

    #[test]
    fn hashed_encoder_runs_and_stays_invariant() {
        let mut cfg = tiny_config(CompressionKind::Hashed { buckets: 32, num_hashes: 2 });
        cfg.vocab = 1_000_000; // huge id space, tiny table
        let mut model = DeepSets::new(cfg);
        model.zero_grad();
        assert_eq!(model.predict_one(&[7, 999_999]), model.predict_one(&[999_999, 7]));
        // Trains without panicking.
        let data = vec![(vec![1u32, 2], 0.8f32), (vec![3u32, 999_999], 0.2)];
        let mut opt = Optimizer::adam(0.01);
        let mut rng = StdRng::seed_from_u64(1);
        let stats = model.train_epoch(&data, Loss::Mse, &mut opt, 2, &mut rng);
        assert!(stats.mean_loss.is_finite());
        // Parameter count is bounded by the bucket table, not the vocab.
        assert!(model.num_params() < 32 * 4 + 10_000);
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let model = DeepSets::new(tiny_config(CompressionKind::Optimal { ns: 2 }));
        let json = serde_json::to_string(&model).unwrap();
        let back: DeepSets = serde_json::from_str(&json).unwrap();
        assert_eq!(model.predict_one(&[1, 2, 3]), back.predict_one(&[1, 2, 3]));
    }

    fn separable_data() -> Vec<(Vec<u32>, f32)> {
        let mut data = Vec::new();
        for i in 1..40u32 {
            data.push((vec![0, i], 1.0));
            data.push((vec![i, i + 40], 0.0));
        }
        data
    }

    #[test]
    fn train_epoch_skips_non_finite_batches() {
        let mut data = separable_data();
        data[0].1 = f32::NAN;
        let mut model = DeepSets::new(tiny_config(CompressionKind::None));
        model.zero_grad();
        let mut opt = Optimizer::adam(0.01);
        let mut rng = StdRng::seed_from_u64(5);
        let stats = model.train_epoch(&data, Loss::Mse, &mut opt, 16, &mut rng);
        assert_eq!(stats.skipped_batches, 1);
        assert_eq!(stats.batches, data.len().div_ceil(16) - 1);
        assert!(stats.mean_loss.is_finite());
        assert!(!model.has_non_finite_weights());
    }

    #[test]
    fn stop_on_a_rejected_epoch_loads_the_best_snapshot() {
        let mut cfg = tiny_config(CompressionKind::None);
        cfg.output_activation = Activation::Identity;
        let mut model = DeepSets::new(cfg);
        model.zero_grad();
        let mut policy = setlearn_nn::TrainPolicy::epochs(10);
        policy.max_recoveries = 0;
        let mut harness = TrainHarness::new(policy, 0.01);
        let mut opt = Optimizer::adam(0.01);
        let mut rng = StdRng::seed_from_u64(4);
        let data = separable_data();
        assert!(model.train_harnessed(&mut harness, 2, &data, Loss::Mse, &mut opt, 16, &mut rng));
        // Targets far outside the range: a finite loss a thousandfold the
        // best, so the harness rejects the epoch after it stepped the model.
        let wild: Vec<(Vec<u32>, f32)> = data.iter().map(|(s, _)| (s.clone(), 1e12)).collect();
        assert!(!model.train_harnessed(&mut harness, 1, &wild, Loss::Mse, &mut opt, 16, &mut rng));
        assert_eq!(Some(&model.snapshot_weights()), harness.best_weights());
        let report = harness.finish();
        assert_eq!(report.stop_reason, setlearn_nn::StopReason::RecoveryExhausted);
        assert_eq!(report.epochs_run, 3);
    }

    #[test]
    fn non_finite_weights_are_detected() {
        let mut model = DeepSets::new(tiny_config(CompressionKind::None));
        assert!(!model.has_non_finite_weights());
        let mut bufs = model.snapshot_weights();
        bufs[0][0] = f32::NAN;
        model.load_weight_buffers(&bufs).unwrap();
        assert!(model.has_non_finite_weights());
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut model = DeepSets::new(tiny_config(CompressionKind::Optimal { ns: 2 }));
        let before = model.snapshot_weights();
        let pred = model.predict_one(&[1, 2, 3]);
        model.zero_grad();
        let data = vec![(vec![1u32, 2], 0.8f32), (vec![3u32, 4], 0.2)];
        let mut opt = Optimizer::adam(0.05);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = model.train_epoch(&data, Loss::Mse, &mut opt, 2, &mut rng);
        assert_ne!(model.predict_one(&[1, 2, 3]), pred);
        model.load_weight_buffers(&before).unwrap();
        assert_eq!(model.predict_one(&[1, 2, 3]), pred);
    }

    #[test]
    fn harness_survives_adversarial_learning_rate() {
        // An absurd learning rate on an unbounded output diverges almost
        // immediately; the harness must recover (restore + lr backoff) and
        // training must end with finite best weights loaded.
        let data = separable_data();
        let mut cfg = tiny_config(CompressionKind::None);
        cfg.output_activation = Activation::Identity;
        let mut model = DeepSets::new(cfg);
        model.zero_grad();
        let mut opt = Optimizer::Sgd { lr: 5e4, clip: None };
        let mut rng = StdRng::seed_from_u64(2);
        let mut policy = setlearn_nn::TrainPolicy::epochs(25);
        policy.max_recoveries = 20;
        let report = model.train_with_harness(
            &data,
            Loss::Mse,
            &mut opt,
            16,
            &mut rng,
            &policy,
        );
        assert!(report.best_loss.is_finite(), "report: {report}");
        assert!(!model.has_non_finite_weights());
        assert!(opt.learning_rate() < 5e4, "lr was never backed off");
        assert!(report.recoveries > 0, "report: {report}");
    }

    #[test]
    fn harness_trains_normally_on_sane_config() {
        let data = separable_data();
        let mut model = DeepSets::new(tiny_config(CompressionKind::None));
        model.zero_grad();
        let mut opt = Optimizer::adam(0.01);
        let mut rng = StdRng::seed_from_u64(1);
        let policy = setlearn_nn::TrainPolicy::epochs(30);
        let report = model.train_with_harness(
            &data,
            Loss::BinaryCrossEntropy,
            &mut opt,
            16,
            &mut rng,
            &policy,
        );
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.epochs_run, 30);
        assert!(report.is_healthy());
        // Best weights were restored: the model scores at its best epoch.
        assert!(model.predict_one(&[0, 5]) > 0.5);
        assert!(model.predict_one(&[5, 45]) < 0.5);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_set_rejected() {
        let model = DeepSets::new(tiny_config(CompressionKind::None));
        let _ = model.predict_one(&[]);
    }

    #[test]
    #[should_panic(expected = "requires a φ network")]
    fn compressed_without_phi_rejected() {
        let mut cfg = tiny_config(CompressionKind::Optimal { ns: 2 });
        cfg.phi_hidden = vec![];
        let _ = DeepSets::new(cfg);
    }
}

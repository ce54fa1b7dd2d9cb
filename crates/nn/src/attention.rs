//! Scaled dot-product attention blocks for the Set Transformer comparison
//! (paper §2/§3.2: Set Transformer is the attention-based alternative to
//! DeepSets; the paper picks DeepSets for speed and size — the ablation
//! bench reproduces that trade-off).
//!
//! The blocks use an *explicit-cache* API: `forward` returns the cache the
//! matching `backward` consumes, so a model can interleave forward passes
//! over many sets before backpropagating them in any order.

use crate::init;
use crate::matrix::Matrix;
use crate::param::ParamBuf;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Row-wise softmax in place.
fn softmax_rows(m: &mut Matrix) {
    let cols = m.cols();
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        debug_assert!(sum > 0.0 && cols > 0);
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Cache of one attention forward pass.
#[derive(Debug, Clone)]
pub struct AttnCache {
    q_in: Matrix,
    x: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    a: Matrix,
}

/// Single-head scaled dot-product attention with square projections
/// (`d -> d`), sized for the small sets this workspace handles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Attention {
    dim: usize,
    wq: ParamBuf,
    wk: ParamBuf,
    wv: ParamBuf,
}

impl Attention {
    /// Creates an attention block over `dim`-wide rows.
    pub fn new(rng: &mut StdRng, dim: usize) -> Self {
        Attention {
            dim,
            wq: ParamBuf::new(init::glorot_uniform(rng, dim, dim)),
            wk: ParamBuf::new(init::glorot_uniform(rng, dim, dim)),
            wv: ParamBuf::new(init::glorot_uniform(rng, dim, dim)),
        }
    }

    /// Feature width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `Attn(q_in, x) = softmax(q kᵀ / √d) v` with `q = q_in·Wq`,
    /// `k = x·Wk`, `v = x·Wv`. Returns `[m x d]` plus the backward cache.
    pub fn forward(&self, q_in: &Matrix, x: &Matrix) -> (Matrix, AttnCache) {
        assert_eq!(q_in.cols(), self.dim, "query width mismatch");
        assert_eq!(x.cols(), self.dim, "key/value width mismatch");
        let q = q_in.matmul(&self.wq.value, self.dim);
        let k = x.matmul(&self.wk.value, self.dim);
        let v = x.matmul(&self.wv.value, self.dim);
        let scale = 1.0 / (self.dim as f32).sqrt();
        let mut scores = q.matmul_nt(k.data(), k.rows());
        for s in scores.data_mut() {
            *s *= scale;
        }
        softmax_rows(&mut scores);
        let out = scores.matmul(v.data(), v.cols());
        (
            out,
            AttnCache { q_in: q_in.clone(), x: x.clone(), q, k, v, a: scores },
        )
    }

    /// Backward pass: returns `(dL/d q_in, dL/d x)` and accumulates the
    /// projection-weight gradients.
    pub fn backward(&mut self, cache: &AttnCache, grad_out: &Matrix) -> (Matrix, Matrix) {
        let scale = 1.0 / (self.dim as f32).sqrt();
        // out = A·v
        let grad_a = grad_out.matmul_nt(cache.v.data(), cache.v.rows());
        let grad_v = cache.a.matmul_tn(grad_out);
        // Softmax backward per row: ds = a ⊙ (da - Σ_j da_j a_j).
        let mut grad_scores = grad_a.clone();
        for r in 0..grad_scores.rows() {
            let a_row = cache.a.row(r);
            let dot: f32 =
                grad_a.row(r).iter().zip(a_row.iter()).map(|(&g, &a)| g * a).sum();
            for (gs, &a) in grad_scores.row_mut(r).iter_mut().zip(a_row.iter()) {
                *gs = a * (*gs - dot);
            }
        }
        for gs in grad_scores.data_mut() {
            *gs *= scale;
        }
        // scores = q·kᵀ (pre-scale)
        let grad_q = grad_scores.matmul(cache.k.data(), cache.k.cols());
        let grad_k = grad_scores.matmul_tn(&cache.q);
        // Projections.
        let add = |buf: &mut ParamBuf, g: &Matrix| {
            for (dst, &src) in buf.grad.iter_mut().zip(g.data().iter()) {
                *dst += src;
            }
        };
        add(&mut self.wq, &cache.q_in.matmul_tn(&grad_q));
        add(&mut self.wk, &cache.x.matmul_tn(&grad_k));
        add(&mut self.wv, &cache.x.matmul_tn(&grad_v));
        let grad_q_in = grad_q.matmul_nt(&self.wq.value, self.dim);
        let grad_x_k = grad_k.matmul_nt(&self.wk.value, self.dim);
        let grad_x_v = grad_v.matmul_nt(&self.wv.value, self.dim);
        let mut grad_x = grad_x_k;
        for (a, &b) in grad_x.data_mut().iter_mut().zip(grad_x_v.data().iter()) {
            *a += b;
        }
        (grad_q_in, grad_x)
    }

    /// Parameter buffers.
    pub fn params_mut(&mut self) -> [&mut ParamBuf; 3] {
        [&mut self.wq, &mut self.wk, &mut self.wv]
    }

    /// Immutable parameter buffers.
    pub fn params(&self) -> [&ParamBuf; 3] {
        [&self.wq, &self.wk, &self.wv]
    }

    /// Scalar parameter count.
    pub fn num_params(&self) -> usize {
        3 * self.dim * self.dim
    }

    /// Zeroes gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.wq.zero_grad();
        self.wk.zero_grad();
        self.wv.zero_grad();
    }
}

/// Cache of one SAB forward pass.
#[derive(Debug, Clone)]
pub struct SabCache {
    attn: AttnCache,
    h: Matrix,
    ff_pre: Matrix,
}

/// Set Attention Block: self-attention with residuals and a row-wise
/// feed-forward, `out = H + ReLU(H·W + b)` where `H = x + Attn(x, x)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sab {
    attn: Attention,
    ff_w: ParamBuf,
    ff_b: ParamBuf,
    dim: usize,
}

impl Sab {
    /// Creates a SAB over `dim`-wide rows.
    pub fn new(rng: &mut StdRng, dim: usize) -> Self {
        Sab {
            attn: Attention::new(rng, dim),
            ff_w: ParamBuf::new(init::he_uniform(rng, dim, dim)),
            ff_b: ParamBuf::new(vec![0.0; dim]),
            dim,
        }
    }

    /// Forward over one set `[n x d] -> [n x d]`.
    pub fn forward(&self, x: &Matrix) -> (Matrix, SabCache) {
        let (a, attn_cache) = self.attn.forward(x, x);
        let mut h = x.clone();
        for (hv, &av) in h.data_mut().iter_mut().zip(a.data().iter()) {
            *hv += av;
        }
        let mut ff_pre = h.matmul(&self.ff_w.value, self.dim);
        ff_pre.add_row_vector(&self.ff_b.value);
        let mut out = h.clone();
        for (o, &p) in out.data_mut().iter_mut().zip(ff_pre.data().iter()) {
            *o += p.max(0.0);
        }
        (out, SabCache { attn: attn_cache, h, ff_pre })
    }

    /// Backward: returns `dL/dx`.
    pub fn backward(&mut self, cache: &SabCache, grad_out: &Matrix) -> Matrix {
        // out = h + relu(ff_pre); ff_pre = h·W + b.
        let mut grad_ff = grad_out.clone();
        for (g, &p) in grad_ff.data_mut().iter_mut().zip(cache.ff_pre.data().iter()) {
            if p <= 0.0 {
                *g = 0.0;
            }
        }
        let grad_w = cache.h.matmul_tn(&grad_ff);
        for (dst, &src) in self.ff_w.grad.iter_mut().zip(grad_w.data().iter()) {
            *dst += src;
        }
        for (dst, src) in self.ff_b.grad.iter_mut().zip(grad_ff.col_sums()) {
            *dst += src;
        }
        let mut grad_h = grad_ff.matmul_nt(&self.ff_w.value, self.dim);
        for (g, &go) in grad_h.data_mut().iter_mut().zip(grad_out.data().iter()) {
            *g += go; // residual path
        }
        // h = x + attn(x, x)
        let (grad_q_in, grad_x_kv) = self.attn.backward(&cache.attn, &grad_h);
        let mut grad_x = grad_h;
        for ((g, &a), &b) in grad_x
            .data_mut()
            .iter_mut()
            .zip(grad_q_in.data().iter())
            .zip(grad_x_kv.data().iter())
        {
            *g += a + b;
        }
        grad_x
    }

    /// Parameter buffers.
    pub fn params_mut(&mut self) -> Vec<&mut ParamBuf> {
        let mut out: Vec<&mut ParamBuf> = self.attn.params_mut().into_iter().collect();
        out.push(&mut self.ff_w);
        out.push(&mut self.ff_b);
        out
    }

    /// Scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.attn.num_params() + self.ff_w.len() + self.ff_b.len()
    }

    /// Zeroes gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.attn.zero_grad();
        self.ff_w.zero_grad();
        self.ff_b.zero_grad();
    }
}

/// Cache of one PMA forward pass.
#[derive(Debug, Clone)]
pub struct PmaCache {
    attn: AttnCache,
}

/// Pooling by Multihead Attention with a single learned seed vector:
/// `PMA(x) = Attn(seed, x)` — the Set Transformer's decoder pooling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PmaPool {
    seed: ParamBuf,
    attn: Attention,
    dim: usize,
}

impl PmaPool {
    /// Creates a PMA pooling block.
    pub fn new(rng: &mut StdRng, dim: usize) -> Self {
        PmaPool {
            seed: ParamBuf::new(init::glorot_uniform(rng, 1, dim)),
            attn: Attention::new(rng, dim),
            dim,
        }
    }

    /// Pools a set `[n x d] -> [1 x d]`.
    pub fn forward(&self, x: &Matrix) -> (Matrix, PmaCache) {
        let seed = Matrix::from_vec(1, self.dim, self.seed.value.clone());
        let (out, attn) = self.attn.forward(&seed, x);
        (out, PmaCache { attn })
    }

    /// Backward: returns `dL/dx` and accumulates seed/attention gradients.
    pub fn backward(&mut self, cache: &PmaCache, grad_out: &Matrix) -> Matrix {
        let (grad_seed, grad_x) = self.attn.backward(&cache.attn, grad_out);
        for (dst, &src) in self.seed.grad.iter_mut().zip(grad_seed.data().iter()) {
            *dst += src;
        }
        grad_x
    }

    /// Parameter buffers.
    pub fn params_mut(&mut self) -> Vec<&mut ParamBuf> {
        let mut out: Vec<&mut ParamBuf> = self.attn.params_mut().into_iter().collect();
        out.push(&mut self.seed);
        out
    }

    /// Scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.attn.num_params() + self.seed.len()
    }

    /// Zeroes gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.attn.zero_grad();
        self.seed.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn softmax_rows_normalize() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        softmax_rows(&mut m);
        for r in 0..2 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(m.row(r).iter().all(|&v| v > 0.0));
        }
        // Monotone in the logits.
        assert!(m.get(0, 2) > m.get(0, 1));
    }

    #[test]
    fn attention_shapes_and_rows_are_convex_combos() {
        let mut rng = StdRng::seed_from_u64(3);
        let attn = Attention::new(&mut rng, 4);
        let x = Matrix::from_vec(3, 4, (0..12).map(|i| i as f32 * 0.1).collect());
        let q = Matrix::from_vec(2, 4, vec![0.5; 8]);
        let (out, _) = attn.forward(&q, &x);
        assert_eq!((out.rows(), out.cols()), (2, 4));
    }

    fn sum_all(attn: &Attention, q: &Matrix, x: &Matrix) -> f32 {
        attn.forward(q, x).0.data().iter().sum()
    }

    #[test]
    fn attention_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut attn = Attention::new(&mut rng, 3);
        attn.zero_grad();
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| ((i * 7) % 5) as f32 * 0.2 - 0.4).collect());
        let q = Matrix::from_vec(2, 3, vec![0.3, -0.1, 0.6, 0.0, 0.4, -0.5]);
        let (out, cache) = attn.forward(&q, &x);
        let ones = Matrix::from_vec(out.rows(), out.cols(), vec![1.0; out.rows() * out.cols()]);
        let (gq, gx) = attn.backward(&cache, &ones);

        let eps = 1e-3f32;
        // Weight gradient (Wk, index 4).
        let orig = attn.params()[1].value[4];
        attn.params_mut()[1].value[4] = orig + eps;
        let plus = sum_all(&attn, &q, &x);
        attn.params_mut()[1].value[4] = orig - eps;
        let minus = sum_all(&attn, &q, &x);
        attn.params_mut()[1].value[4] = orig;
        let numeric = (plus - minus) / (2.0 * eps);
        let analytic = attn.params()[1].grad[4];
        assert!(
            (numeric - analytic).abs() < 5e-2 * (1.0 + numeric.abs()),
            "Wk: numeric {numeric} vs analytic {analytic}"
        );
        // Input gradients.
        let mut x2 = x.clone();
        x2.data_mut()[5] += eps;
        let plus = sum_all(&attn, &q, &x2);
        x2.data_mut()[5] -= 2.0 * eps;
        let minus = sum_all(&attn, &q, &x2);
        let numeric = (plus - minus) / (2.0 * eps);
        assert!(
            (numeric - gx.data()[5]).abs() < 5e-2 * (1.0 + numeric.abs()),
            "x grad: numeric {numeric} vs analytic {}",
            gx.data()[5]
        );
        let mut q2 = q.clone();
        q2.data_mut()[2] += eps;
        let plus = sum_all(&attn, &q2, &x);
        q2.data_mut()[2] -= 2.0 * eps;
        let minus = sum_all(&attn, &q2, &x);
        let numeric = (plus - minus) / (2.0 * eps);
        assert!(
            (numeric - gq.data()[2]).abs() < 5e-2 * (1.0 + numeric.abs()),
            "q grad: numeric {numeric} vs analytic {}",
            gq.data()[2]
        );
    }

    #[test]
    fn sab_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut sab = Sab::new(&mut rng, 3);
        sab.zero_grad();
        let x = Matrix::from_vec(3, 3, vec![0.2, -0.4, 0.6, 0.1, 0.5, -0.3, -0.2, 0.0, 0.4]);
        let (out, cache) = sab.forward(&x);
        let ones = Matrix::from_vec(out.rows(), out.cols(), vec![1.0; 9]);
        let gx = sab.backward(&cache, &ones);

        let eps = 1e-3;
        let mut x2 = x.clone();
        x2.data_mut()[4] += eps;
        let plus: f32 = sab.forward(&x2).0.data().iter().sum();
        x2.data_mut()[4] -= 2.0 * eps;
        let minus: f32 = sab.forward(&x2).0.data().iter().sum();
        let numeric = (plus - minus) / (2.0 * eps);
        assert!(
            (numeric - gx.data()[4]).abs() < 6e-2 * (1.0 + numeric.abs()),
            "numeric {numeric} vs analytic {}",
            gx.data()[4]
        );
    }

    #[test]
    fn pma_pools_to_single_row_and_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut pma = PmaPool::new(&mut rng, 4);
        pma.zero_grad();
        let x = Matrix::from_vec(5, 4, (0..20).map(|i| (i % 3) as f32 * 0.3 - 0.2).collect());
        let (out, cache) = pma.forward(&x);
        assert_eq!((out.rows(), out.cols()), (1, 4));
        let gx = pma.backward(&cache, &Matrix::from_vec(1, 4, vec![1.0; 4]));
        assert_eq!((gx.rows(), gx.cols()), (5, 4));
        // Seed must receive gradient.
        let seed_grad_norm: f32 = pma.params_mut().last().unwrap().grad.iter().map(|g| g * g).sum();
        assert!(seed_grad_norm > 0.0);
    }

    #[test]
    fn pma_is_permutation_invariant() {
        let mut rng = StdRng::seed_from_u64(41);
        let pma = PmaPool::new(&mut rng, 3);
        let x = Matrix::from_vec(3, 3, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]);
        let x_perm =
            Matrix::from_vec(3, 3, vec![0.7, 0.8, 0.9, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        let (a, _) = pma.forward(&x);
        let (b, _) = pma.forward(&x_perm);
        for (va, vb) in a.data().iter().zip(b.data().iter()) {
            assert!((va - vb).abs() < 1e-5, "{va} vs {vb}");
        }
    }
}

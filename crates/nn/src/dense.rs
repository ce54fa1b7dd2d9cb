//! Fully connected layer with manual backprop.

use crate::activation::Activation;
use crate::gemm::gemm;
use crate::init;
use crate::matrix::Matrix;
use crate::param::ParamBuf;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// `Y = act(X·W + b)` with `W: [in x out]`, `b: [out]`.
///
/// The layer caches its last input and output so [`Dense::backward`] can be
/// called immediately after [`Dense::forward`]. Gradients accumulate into the
/// owned [`ParamBuf`]s until the optimizer consumes them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    activation: Activation,
    weight: ParamBuf,
    bias: ParamBuf,
    #[serde(skip)]
    cached_input: Option<Matrix>,
    #[serde(skip)]
    cached_output: Option<Matrix>,
}

impl Dense {
    /// Creates a dense layer with activation-appropriate initialization
    /// (He for ReLU, Glorot otherwise).
    pub fn new(rng: &mut StdRng, in_dim: usize, out_dim: usize, activation: Activation) -> Self {
        let w = match activation {
            Activation::Relu => init::he_uniform(rng, in_dim, out_dim),
            _ => init::glorot_uniform(rng, in_dim, out_dim),
        };
        Dense {
            in_dim,
            out_dim,
            activation,
            weight: ParamBuf::new(w),
            bias: ParamBuf::new(vec![0.0; out_dim]),
            cached_input: None,
            cached_output: None,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Forward pass over a batch `[B x in] -> [B x out]`, caching state for
    /// the backward pass.
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        let out = self.predict(input);
        self.cached_input = Some(input.clone());
        self.cached_output = Some(out.clone());
        out
    }

    /// Inference-only forward pass: no state is cached, `&self`, and the
    /// weight buffer is borrowed rather than cloned per call. One call of
    /// the shared [`gemm`] kernel, bias and activation fused.
    pub fn predict(&self, input: &Matrix) -> Matrix {
        assert_eq!(input.cols(), self.in_dim, "dense input width mismatch");
        let mut out = Matrix::zeros(input.rows(), self.out_dim);
        gemm(
            input.data(),
            &self.weight.value,
            self.out_dim,
            Some(&self.bias.value),
            self.activation,
            out.data_mut(),
        );
        out
    }

    /// Backward pass. `grad_output` is `dL/dY` (post-activation); returns
    /// `dL/dX` and accumulates `dL/dW`, `dL/db`.
    ///
    /// # Panics
    /// If called without a preceding [`Dense::forward`].
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let input = self.cached_input.take().expect("backward before forward");
        let output = self.cached_output.take().expect("backward before forward");
        assert_eq!(grad_output.cols(), self.out_dim);
        assert_eq!(grad_output.rows(), input.rows());

        // dZ = dY ⊙ act'(Z), with act' expressed via the cached output.
        let mut grad_z = grad_output.clone();
        for (gz, &y) in grad_z.data_mut().iter_mut().zip(output.data().iter()) {
            *gz *= self.activation.derivative_from_output(y);
        }

        // dW = Xᵀ·dZ
        let grad_w = input.matmul_tn(&grad_z);
        for (g, &d) in self.weight.grad.iter_mut().zip(grad_w.data().iter()) {
            *g += d;
        }
        // db = colsum(dZ)
        for (g, d) in self.bias.grad.iter_mut().zip(grad_z.col_sums()) {
            *g += d;
        }
        // dX = dZ·Wᵀ
        grad_z.matmul_nt(&self.weight.value, self.in_dim)
    }

    /// Mutable access to the layer's parameter buffers, optimizer-ordered.
    pub fn params_mut(&mut self) -> [&mut ParamBuf; 2] {
        [&mut self.weight, &mut self.bias]
    }

    /// Immutable access to the layer's parameter buffers.
    pub fn params(&self) -> [&ParamBuf; 2] {
        [&self.weight, &self.bias]
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Zeroes gradient accumulators (also restoring them post-deserialize).
    pub fn zero_grad(&mut self) {
        self.weight.zero_grad();
        self.bias.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn finite_diff_check(activation: Activation) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(&mut rng, 3, 2, activation);
        layer.zero_grad();
        let input = Matrix::from_vec(2, 3, vec![0.3, -0.7, 1.1, 0.9, 0.2, -0.4]);
        // Loss = sum(Y); dL/dY = 1.
        let out = layer.forward(&input);
        let ones = Matrix::from_vec(out.rows(), out.cols(), vec![1.0; out.rows() * out.cols()]);
        let grad_in = layer.backward(&ones);

        let eps = 1e-3f32;
        // Check a handful of weight gradients numerically.
        for idx in [0usize, 2, 5] {
            let orig = layer.params()[0].value[idx];
            layer.params_mut()[0].value[idx] = orig + eps;
            let plus: f32 = layer.predict(&input).data().iter().sum();
            layer.params_mut()[0].value[idx] = orig - eps;
            let minus: f32 = layer.predict(&input).data().iter().sum();
            layer.params_mut()[0].value[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = layer.params()[0].grad[idx];
            assert!(
                (numeric - analytic).abs() < 5e-2 * (1.0 + numeric.abs()),
                "{activation:?} weight[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Check one input gradient numerically.
        let mut bumped = input.clone();
        bumped.data_mut()[1] += eps;
        let plus: f32 = layer.predict(&bumped).data().iter().sum();
        bumped.data_mut()[1] -= 2.0 * eps;
        let minus: f32 = layer.predict(&bumped).data().iter().sum();
        let numeric = (plus - minus) / (2.0 * eps);
        assert!(
            (numeric - grad_in.data()[1]).abs() < 5e-2 * (1.0 + numeric.abs()),
            "{activation:?} input grad: numeric {numeric} vs analytic {}",
            grad_in.data()[1]
        );
    }

    #[test]
    fn gradients_match_finite_differences_identity() {
        finite_diff_check(Activation::Identity);
    }

    #[test]
    fn gradients_match_finite_differences_sigmoid() {
        finite_diff_check(Activation::Sigmoid);
    }

    #[test]
    fn gradients_match_finite_differences_tanh() {
        finite_diff_check(Activation::Tanh);
    }

    #[test]
    fn forward_and_predict_agree() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut layer = Dense::new(&mut rng, 4, 3, Activation::Relu);
        let input = Matrix::from_vec(1, 4, vec![1.0, -2.0, 0.5, 0.0]);
        assert_eq!(layer.forward(&input), layer.predict(&input));
    }

    #[test]
    fn serde_roundtrip_preserves_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Dense::new(&mut rng, 2, 2, Activation::Sigmoid);
        let json = serde_json::to_string(&layer).unwrap();
        let mut back: Dense = serde_json::from_str(&json).unwrap();
        back.zero_grad();
        let input = Matrix::from_vec(1, 2, vec![0.1, 0.9]);
        assert_eq!(layer.predict(&input), back.predict(&input));
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Dense::new(&mut rng, 2, 2, Activation::Identity);
        let g = Matrix::zeros(1, 2);
        let _ = layer.backward(&g);
    }
}

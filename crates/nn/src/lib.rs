//! # setlearn-nn
//!
//! A minimal, dependency-light neural-network substrate with manual
//! backpropagation, written for the `setlearn` reproduction of *Learning over
//! Sets for Databases* (EDBT 2024).
//!
//! The paper's models are small — embedding dims 2–32 and one or two dense
//! layers of 8–256 neurons — so this crate favors simplicity and
//! determinism over raw throughput:
//!
//! * [`gemm::gemm`] — the one f32 dense forward GEMM (register-tiled,
//!   ISA-dispatched, bias + activation fused), shared by training and the
//!   frozen serving kernel.
//! * [`matrix::Matrix`] — dense row-major `f32` matrices with one multiply
//!   per transpose case (`AB` through [`gemm::gemm`], `AᵀB`, `ABᵀ`).
//! * [`dense::Dense`] / [`mlp::Mlp`] — fully connected layers with cached
//!   forward state and finite-difference-tested gradients.
//! * [`embedding::Embedding`] — the shared per-element table that gives
//!   DeepSets its permutation invariance.
//! * [`lstm::Lstm`] / [`gru::Gru`] — sequence baselines for the paper's
//!   digit-sum generalization experiment (Figure 7).
//! * [`loss::Loss`] — MSE / MAE / BCE and the paper's q-error training loss.
//! * [`optimizer::Optimizer`] — SGD and Adam over [`param::ParamBuf`]s.
//! * [`scaling::LogMinMaxScaler`] — the log + min-max target transform of
//!   §4.1.
//! * [`harness::TrainHarness`] — fault-tolerant epoch supervision:
//!   non-finite detection, snapshot/restore recovery with learning-rate
//!   backoff and best-model tracking.
//!
//! Every layer follows the same contract: `forward` caches what `backward`
//! needs, `backward` accumulates into `ParamBuf::grad`, and the optimizer
//! consumes and zeroes those gradients.

#![warn(missing_docs)]

pub mod activation;
pub mod attention;
pub mod dense;
pub mod embedding;
pub mod gemm;
pub mod gru;
pub mod harness;
pub mod hash_embedding;
pub mod init;
pub mod loss;
pub mod lstm;
pub mod matrix;
pub mod mlp;
pub mod optimizer;
pub mod param;
mod rnn_util;
pub mod scaling;

pub use activation::Activation;
pub use attention::{Attention, PmaPool, Sab};
pub use dense::Dense;
pub use embedding::Embedding;
pub use gru::Gru;
pub use harness::{
    Decision, EpochStats, StopReason, TrainHarness, TrainPolicy, TrainReport, WeightSnapshot,
};
pub use hash_embedding::HashEmbedding;
pub use loss::{q_error, Loss};
pub use lstm::Lstm;
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use optimizer::Optimizer;
pub use param::ParamBuf;
pub use scaling::LogMinMaxScaler;

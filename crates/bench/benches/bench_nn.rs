//! Microbenchmarks for the NN substrate: GEMM, dense layers, DeepSets
//! forward/backward.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use setlearn::model::{CompressionKind, DeepSets, DeepSetsConfig, Pooling};
use setlearn_nn::{Activation, Dense, Matrix, Mlp};
use std::hint::black_box;

/// The dense layer shapes the ledger workloads train and serve: the default
/// model (embedding 8, φ = ρ = [32]) and `card_kernel*`'s wide one
/// (embedding 128, φ = ρ = [512]).
const LEDGER_SHAPES: [(usize, usize); 6] =
    [(8, 32), (32, 32), (32, 1), (128, 512), (512, 512), (512, 1)];

fn bench_matmul(c: &mut Criterion) {
    const ROWS: usize = 256;
    for (k, n) in LEDGER_SHAPES {
        // About half the inputs are zero, like post-ReLU activations.
        let x = (0..ROWS * k).map(|i| if i % 2 == 0 { 0.0 } else { (i % 7) as f32 * 0.1 });
        let a = Matrix::from_vec(ROWS, k, x.collect());
        let w: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 * 0.1 - 0.2).collect();
        c.bench_function(&format!("matmul_{ROWS}x{k}x{n}"), |bench| {
            bench.iter(|| black_box(a.matmul(&w, n)));
        });
    }
    let a = Matrix::from_vec(64, 32, (0..64 * 32).map(|i| (i % 7) as f32 * 0.1).collect());
    c.bench_function("matmul_tn_64x32x32", |bench| {
        bench.iter(|| black_box(a.matmul_tn(&a)));
    });
}

fn bench_dense(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut layer = Dense::new(&mut rng, 32, 32, Activation::Relu);
    layer.zero_grad();
    let x = Matrix::from_vec(64, 32, vec![0.1; 64 * 32]);
    c.bench_function("dense_forward_64x32", |bench| {
        bench.iter(|| black_box(layer.predict(&x)));
    });
    let g = Matrix::from_vec(64, 32, vec![0.01; 64 * 32]);
    c.bench_function("dense_forward_backward_64x32", |bench| {
        bench.iter(|| {
            layer.forward(&x);
            black_box(layer.backward(&g));
        });
    });
}

fn bench_mlp(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mlp = Mlp::new(&mut rng, &[16, 64, 64, 1], Activation::Relu, Activation::Sigmoid);
    let x = Matrix::from_vec(128, 16, vec![0.05; 128 * 16]);
    c.bench_function("mlp_predict_128x16_64_64_1", |bench| {
        bench.iter(|| black_box(mlp.predict(&x)));
    });
}

fn bench_deepsets(c: &mut Criterion) {
    let cfg = DeepSetsConfig {
        vocab: 10_000,
        embedding_dim: 8,
        phi_hidden: vec![32],
        rho_hidden: vec![32],
        pooling: Pooling::Sum,
        hidden_activation: Activation::Relu,
        output_activation: Activation::Sigmoid,
        compression: CompressionKind::None,
        seed: 3,
        precision: setlearn::Precision::F32,
    };
    let lsm = DeepSets::new(cfg.clone());
    let clsm = DeepSets::new(DeepSetsConfig {
        compression: CompressionKind::Optimal { ns: 2 },
        ..cfg
    });
    let q = [17u32, 420, 9_001, 123];
    c.bench_function("deepsets_predict_one_lsm", |bench| {
        bench.iter(|| black_box(lsm.predict_one(&q)));
    });
    c.bench_function("deepsets_predict_one_clsm", |bench| {
        bench.iter(|| black_box(clsm.predict_one(&q)));
    });
}

fn bench_attention(c: &mut Criterion) {
    use setlearn_nn::{PmaPool, Sab};
    let mut rng = StdRng::seed_from_u64(9);
    let sab = Sab::new(&mut rng, 16);
    let pma = PmaPool::new(&mut rng, 16);
    let x = Matrix::from_vec(8, 16, (0..128).map(|i| (i % 13) as f32 * 0.07).collect());
    c.bench_function("sab_forward_8x16", |b| {
        b.iter(|| black_box(sab.forward(&x)));
    });
    c.bench_function("pma_forward_8x16", |b| {
        b.iter(|| black_box(pma.forward(&x)));
    });
}

fn bench_rnn(c: &mut Criterion) {
    use setlearn_nn::{Gru, Lstm};
    let mut rng = StdRng::seed_from_u64(10);
    let lstm = Lstm::new(&mut rng, 16, 32);
    let gru = Gru::new(&mut rng, 16, 32);
    let seq = Matrix::from_vec(10, 16, (0..160).map(|i| (i % 11) as f32 * 0.05).collect());
    c.bench_function("lstm_predict_10x16_h32", |b| {
        b.iter(|| black_box(lstm.predict(&seq)));
    });
    c.bench_function("gru_predict_10x16_h32", |b| {
        b.iter(|| black_box(gru.predict(&seq)));
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_matmul, bench_dense, bench_mlp, bench_deepsets, bench_attention, bench_rnn
);
criterion_main!(benches);

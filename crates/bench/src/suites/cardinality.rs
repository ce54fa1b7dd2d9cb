//! Cardinality-estimation experiment suite: Figure 6, Table 3, Table 4.

use crate::configs::{cardinality_config, Variant};
use crate::datasets::BenchDataset;
use crate::metrics::q_error_by_result_size;
use crate::timing::{avg_latency_ms, timed};
use setlearn::tasks::LearnedCardinality;
use setlearn_baselines::CardinalityMap;
use setlearn_data::{Dataset, ElementSet, SubsetIndex};

/// One estimator's results on one dataset.
#[derive(Debug, Clone)]
pub struct EstimatorRun {
    /// Column label (`LSM`, `LSM-Hybrid`, ...).
    pub label: String,
    /// Mean q-error per Figure 6 result-size bucket: `(label, qerr, n)`.
    pub q_error_buckets: Vec<(String, f64, usize)>,
    /// Overall mean q-error.
    pub avg_q_error: f64,
    /// Structure bytes (model only for the pure variants; model + outlier
    /// store for the hybrids).
    pub memory_bytes: usize,
    /// Mean per-query latency (ms).
    pub latency_ms: f64,
    /// Training wall-clock seconds per epoch.
    pub seconds_per_epoch: f64,
}

/// All cardinality results for one dataset.
#[derive(Debug, Clone)]
pub struct CardinalityDatasetResult {
    /// Dataset label.
    pub dataset: &'static str,
    /// LSM, LSM-Hybrid, CLSM, CLSM-Hybrid in order.
    pub runs: Vec<EstimatorRun>,
    /// HashMap competitor bytes.
    pub hashmap_bytes: usize,
    /// HashMap competitor latency (ms).
    pub hashmap_latency_ms: f64,
    /// HashMap build seconds.
    pub hashmap_build_secs: f64,
    /// Number of evaluation queries.
    pub num_queries: usize,
}

/// Deterministic strided sample of `k` evaluation pairs from sorted subset
/// statistics.
pub fn eval_sample(subsets: &SubsetIndex, k: usize) -> Vec<(ElementSet, u64)> {
    let pairs = subsets.cardinality_pairs();
    let stride = (pairs.len() / k.max(1)).max(1);
    pairs
        .iter()
        .step_by(stride)
        .take(k)
        .map(|(s, c)| (s.clone(), *c as u64))
        .collect()
}

/// Runs the suite on one dataset.
pub fn run_dataset(dataset: Dataset, num_queries: usize) -> CardinalityDatasetResult {
    let bench = BenchDataset::load(dataset);
    let collection = &bench.collection;
    let vocab = collection.num_elements();
    let subsets = SubsetIndex::build(collection, 3);
    let eval = eval_sample(&subsets, num_queries);

    let mut runs = Vec::new();
    for variant in [Variant::Lsm, Variant::Clsm] {
        for (hybrid, percentile) in [(false, 1.0), (true, 0.9)] {
            let cfg = cardinality_config(vocab, variant, percentile);
            let ((est, report), secs) =
                timed(|| LearnedCardinality::build_from_subsets(&subsets, &cfg));
            let epochs = report.train.loss_history.len().max(1);
            let pairs: Vec<(f64, f64)> =
                eval.iter().map(|(s, c)| (est.estimate(s), *c as f64)).collect();
            let buckets = q_error_by_result_size(&pairs);
            let avg = crate::metrics::avg_q_error(&pairs);
            let latency = avg_latency_ms(&eval, |(s, _)| {
                std::hint::black_box(est.estimate(s));
            });
            let label =
                if hybrid { format!("{}-Hybrid", variant.name()) } else { variant.name().into() };
            let memory_bytes =
                if hybrid { est.size_bytes() } else { est.model_size_bytes() };
            runs.push(EstimatorRun {
                label,
                q_error_buckets: buckets,
                avg_q_error: avg,
                memory_bytes,
                latency_ms: latency,
                seconds_per_epoch: secs / epochs as f64,
            });
        }
    }

    let (map, build_secs) = timed(|| CardinalityMap::build(collection, 3));
    let hashmap_latency = avg_latency_ms(&eval, |(s, _)| {
        std::hint::black_box(map.cardinality(s));
    });

    CardinalityDatasetResult {
        dataset: bench.name(),
        runs,
        hashmap_bytes: map.size_bytes(),
        hashmap_latency_ms: hashmap_latency,
        hashmap_build_secs: build_secs,
        num_queries: eval.len(),
    }
}

/// Runs the suite over all five datasets.
pub fn run_all(num_queries: usize) -> Vec<CardinalityDatasetResult> {
    Dataset::ALL.iter().map(|&d| run_dataset(d, num_queries)).collect()
}

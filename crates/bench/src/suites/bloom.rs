//! Bloom-filter experiment suite: Tables 9, 10, 11.

use crate::configs::{bloom_config, Variant};
use crate::datasets::BenchDataset;
use crate::timing::{avg_latency_ms, timed};
use setlearn::tasks::LearnedBloom;
use setlearn_baselines::SetMembershipBloom;
use setlearn_data::{workload::membership_queries, Dataset, ElementSet};

/// The traditional filter's fp-rate columns (Tables 10/11).
pub const FP_RATES: [f64; 3] = [0.1, 0.01, 0.001];

/// Bloom-task results for one dataset.
#[derive(Debug, Clone)]
pub struct BloomDatasetResult {
    /// Dataset label.
    pub dataset: &'static str,
    /// `(variant, binary accuracy)` for LSM and CLSM (Table 9).
    pub accuracy: Vec<(String, f64)>,
    /// `(variant, model bytes)` (Table 10's learned columns).
    pub memory: Vec<(String, usize)>,
    /// `(variant, ms)` probe latency (Table 11's learned columns).
    pub latency: Vec<(String, f64)>,
    /// `(fp rate, bytes, ms)` for the traditional filter.
    pub bloom: Vec<(f64, usize, f64)>,
    /// Training seconds per epoch per variant.
    pub seconds_per_epoch: Vec<(String, f64)>,
    /// Size of the labeled workload.
    pub workload_size: usize,
}

/// Runs the Bloom suite on one dataset.
pub fn run_dataset(dataset: Dataset, n_pos: usize, n_neg: usize) -> BloomDatasetResult {
    let bench = BenchDataset::load(dataset);
    let collection = &bench.collection;
    let vocab = collection.num_elements();
    let max_query_size = 4;
    let train = membership_queries(collection, n_pos, n_neg, max_query_size, 101);
    // Held-out probe workload for latency (same distribution, fresh seed).
    let probe: Vec<ElementSet> =
        membership_queries(collection, 500, 500, max_query_size, 202)
            .into_iter()
            .map(|(s, _)| s)
            .collect();

    let mut accuracy = Vec::new();
    let mut memory = Vec::new();
    let mut latency = Vec::new();
    let mut seconds_per_epoch = Vec::new();

    for variant in [Variant::Lsm, Variant::Clsm] {
        let cfg = bloom_config(vocab, variant);
        let ((filter, report), secs) = timed(|| LearnedBloom::build(&train, &cfg));
        accuracy.push((variant.name().into(), report.training_accuracy));
        memory.push((variant.name().into(), filter.model_size_bytes()));
        let ms = avg_latency_ms(&probe, |s| {
            std::hint::black_box(filter.contains(s));
        });
        latency.push((variant.name().into(), ms));
        let epochs = report.train.loss_history.len().max(1);
        seconds_per_epoch.push((variant.name().into(), secs / epochs as f64));
    }

    let bloom = FP_RATES
        .iter()
        .map(|&fp| {
            let (bf, _) = timed(|| SetMembershipBloom::build(collection, max_query_size, fp));
            let ms = avg_latency_ms(&probe, |s| {
                std::hint::black_box(bf.contains(s));
            });
            (fp, bf.size_bytes(), ms)
        })
        .collect();

    BloomDatasetResult {
        dataset: bench.name(),
        accuracy,
        memory,
        latency,
        bloom,
        seconds_per_epoch,
        workload_size: train.len(),
    }
}

/// Runs the Bloom suite over all five datasets.
pub fn run_all(n_pos: usize, n_neg: usize) -> Vec<BloomDatasetResult> {
    Dataset::ALL.iter().map(|&d| run_dataset(d, n_pos, n_neg)).collect()
}

//! Set-index experiment suite: Tables 5, 6, 7, 8 and the §8.3.3
//! local-vs-global error analysis.

use crate::configs::{index_config, Variant};
use crate::datasets::BenchDataset;
use crate::metrics::{avg_abs_error, avg_q_error};
use crate::timing::{avg_latency_ms, timed};
use setlearn::compress::CompressionSpec;
use setlearn::model::CompressionKind;
use setlearn::tasks::LearnedSetIndex;
use setlearn_baselines::{set_hash, BPlusTree};
use setlearn_data::{Dataset, ElementSet, SubsetIndex};

/// The paper's Table 5 percentile columns.
pub const PERCENTILES: [f64; 5] = [0.50, 0.75, 0.90, 0.95, 1.0];

/// Label for a percentile column.
pub fn percentile_label(p: f64) -> String {
    if p >= 1.0 {
        "No Removal".into()
    } else {
        format!("<{}%", (p * 100.0).round() as u32)
    }
}

/// One accuracy cell of Table 5.
#[derive(Debug, Clone)]
pub struct IndexAccuracyCell {
    /// Percentile column label.
    pub percentile: String,
    /// Average q-error of the position estimates.
    pub avg_q_error: f64,
    /// Average absolute position error.
    pub avg_abs_error: f64,
}

/// Table 5 rows for one dataset and one variant.
#[derive(Debug, Clone)]
pub struct IndexAccuracyRow {
    /// Dataset label.
    pub dataset: &'static str,
    /// Variant label (`LSM-Hybrid` / `CLSM-Hybrid`).
    pub variant: String,
    /// One cell per percentile threshold.
    pub cells: Vec<IndexAccuracyCell>,
}

/// Deterministic strided evaluation sample: `(subset, first position)`.
pub fn eval_sample(subsets: &SubsetIndex, k: usize) -> Vec<(ElementSet, u64)> {
    let pairs = subsets.index_pairs();
    let stride = (pairs.len() / k.max(1)).max(1);
    pairs
        .iter()
        .step_by(stride)
        .take(k)
        .map(|(s, p)| (s.clone(), *p as u64))
        .collect()
}

/// Table 5: accuracy per outlier-removal percentile.
pub fn run_accuracy(dataset: Dataset, num_queries: usize) -> Vec<IndexAccuracyRow> {
    let bench = BenchDataset::load(dataset);
    let collection = &bench.collection;
    let vocab = collection.num_elements();
    let subsets = SubsetIndex::build(collection, 2);
    let eval = eval_sample(&subsets, num_queries);

    [Variant::Lsm, Variant::Clsm]
        .iter()
        .map(|&variant| {
            let cells = PERCENTILES
                .iter()
                .map(|&p| {
                    let cfg = index_config(vocab, variant, p);
                    let (index, _) =
                        LearnedSetIndex::build_from_subsets(collection, &subsets, &cfg);
                    let pairs: Vec<(f64, f64)> = eval
                        .iter()
                        .map(|(s, t)| {
                            // Q-error over 1-based positions (the paper's
                            // metric floors at 1).
                            (index.estimate_position(s) + 1.0, *t as f64 + 1.0)
                        })
                        .collect();
                    IndexAccuracyCell {
                        percentile: percentile_label(p),
                        avg_q_error: avg_q_error(&pairs),
                        avg_abs_error: avg_abs_error(&pairs),
                    }
                })
                .collect();
            IndexAccuracyRow {
                dataset: bench.name(),
                variant: format!("{}-Hybrid", variant.name()),
                cells,
            }
        })
        .collect()
}

/// One row of Table 6 (tunable compression on the Tweets dataset).
#[derive(Debug, Clone)]
pub struct CompressionFactorRow {
    /// Divisor label (`full comp.` ... `no comp.`).
    pub label: String,
    /// Average q-error of position estimates.
    pub avg_q_error: f64,
    /// Model bytes.
    pub model_bytes: usize,
    /// Total training seconds.
    pub training_secs: f64,
}

/// Table 6: sweep the compression divisor from maximal compression to none.
///
/// The paper sweeps `sv_d ∈ {full, 500, 1000, 5000, 10000, none}` against a
/// 73k vocabulary; at bench scale the vocabulary is smaller, so the sweep
/// uses multiples of the optimal divisor instead (the same spectrum,
/// relabeled with the actual divisors).
pub fn run_compression_factor(num_queries: usize) -> Vec<CompressionFactorRow> {
    let bench = BenchDataset::load(Dataset::Tweets);
    let collection = &bench.collection;
    let vocab = collection.num_elements();
    let subsets = SubsetIndex::build(collection, 2);
    let eval = eval_sample(&subsets, num_queries);

    let max_id = vocab.saturating_sub(1).max(1);
    let optimal = CompressionSpec::optimal(max_id, 2).divisor;
    let mut settings: Vec<(String, CompressionKind)> = Vec::new();
    settings.push(("full comp.".into(), CompressionKind::Optimal { ns: 2 }));
    for mult in [2u32, 4, 8, 16] {
        let divisor = optimal * mult;
        if (divisor as u64) < vocab as u64 {
            settings.push((
                format!("sv_d={divisor}"),
                CompressionKind::Divisor { ns: 2, divisor },
            ));
        }
    }
    settings.push(("no comp.".into(), CompressionKind::None));

    settings
        .into_iter()
        .map(|(label, compression)| {
            let mut cfg = index_config(vocab, Variant::Lsm, 0.9);
            cfg.model.compression = compression;
            let ((index, _), secs) =
                timed(|| LearnedSetIndex::build_from_subsets(collection, &subsets, &cfg));
            let pairs: Vec<(f64, f64)> = eval
                .iter()
                .map(|(s, t)| (index.estimate_position(s) + 1.0, *t as f64 + 1.0))
                .collect();
            CompressionFactorRow {
                label,
                avg_q_error: avg_q_error(&pairs),
                model_bytes: index.model_size_bytes(),
                training_secs: secs,
            }
        })
        .collect()
}

/// Memory/latency/scan results for one dataset (Tables 7, 8, §8.3.3).
#[derive(Debug, Clone)]
pub struct IndexStructureResult {
    /// Dataset label.
    pub dataset: &'static str,
    /// `(variant, model bytes, aux bytes, err bytes)` per hybrid variant.
    pub hybrid_memory: Vec<(String, usize, usize, usize)>,
    /// `(variant, ms)` lookup latency per hybrid variant.
    pub hybrid_latency: Vec<(String, f64)>,
    /// B+ tree bytes.
    pub btree_bytes: usize,
    /// B+ tree lookup latency (ms).
    pub btree_latency_ms: f64,
    /// B+ tree build seconds.
    pub btree_build_secs: f64,
    /// Mean sets scanned per lookup with local bounds (LSM-Hybrid).
    pub mean_scanned_local: f64,
    /// Mean sets that a single global bound would scan.
    pub mean_scanned_global: f64,
    /// Global max error vs mean local bound (§8.3.3 numbers).
    pub global_error: f64,
    /// Mean local bound.
    pub mean_local_error: f64,
}

/// Tables 7 and 8 (plus the local-vs-global §8.3.3 analysis) per dataset.
pub fn run_index_structure(dataset: Dataset, num_queries: usize, percentile: f64) -> IndexStructureResult {
    let bench = BenchDataset::load(dataset);
    let collection = &bench.collection;
    let vocab = collection.num_elements();
    let subsets = SubsetIndex::build(collection, 2);
    let eval = eval_sample(&subsets, num_queries);

    let mut hybrid_memory = Vec::new();
    let mut hybrid_latency = Vec::new();
    let mut mean_scanned_local = 0.0;
    let mut mean_scanned_global = 0.0;
    let mut global_error = 0.0;
    let mut mean_local_error = 0.0;

    for variant in [Variant::Lsm, Variant::Clsm] {
        let cfg = index_config(vocab, variant, percentile);
        let (index, report) = LearnedSetIndex::build_from_subsets(collection, &subsets, &cfg);
        let label = format!("{}-Hybrid", variant.name());
        hybrid_memory.push((
            label.clone(),
            index.model_size_bytes(),
            index.aux_size_bytes(),
            index.bounds_size_bytes(),
        ));
        let latency = avg_latency_ms(&eval, |(s, _)| {
            std::hint::black_box(index.lookup(collection, s));
        });
        hybrid_latency.push((label, latency));

        if variant == Variant::Lsm {
            // §8.3.3: scanning effort with local bounds vs one global bound.
            let mut local = 0u64;
            let mut n = 0u64;
            for (s, _) in &eval {
                let prof = index.lookup_profiled(collection, s);
                if !prof.from_aux {
                    local += prof.scanned as u64;
                    n += 1;
                }
            }
            mean_scanned_local = if n > 0 { local as f64 / n as f64 } else { 0.0 };
            // A global bound always scans up to 2·max_error + 1 sets in the
            // worst case; the expected scan is half the window on average.
            global_error = report.global_error;
            mean_local_error = report.mean_local_error;
            mean_scanned_global = report.global_error + 1.0;
        }
    }

    // B+ tree over whole-set hashes (equality index, as in §8.1.2).
    let (btree, btree_build_secs) = timed(|| {
        let mut t = BPlusTree::new(100);
        for (pos, set) in collection.iter() {
            t.insert(set_hash(set), pos as u32);
        }
        t
    });
    let full_sets: Vec<ElementSet> =
        collection.sets().iter().take(eval.len().max(1)).cloned().collect();
    let btree_latency = avg_latency_ms(&full_sets, |s| {
        std::hint::black_box(btree.first_position(set_hash(s)));
    });

    IndexStructureResult {
        dataset: bench.name(),
        hybrid_memory,
        hybrid_latency,
        btree_bytes: btree.size_bytes(),
        btree_latency_ms: btree_latency,
        btree_build_secs,
        mean_scanned_local,
        mean_scanned_global,
        global_error,
        mean_local_error,
    }
}

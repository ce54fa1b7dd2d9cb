//! Ablation: weight-precision trade-off — accuracy cost vs weight footprint
//! on trained cardinality models, for the two serving kernels (f32, q8) and
//! for f16 weight rounding.
//!
//! The f16 row is arithmetic, not a file or a kernel: a clone's weights are
//! rounded through IEEE half ([`setlearn_bench::half`]) and served at f32,
//! so its q-error is what f16 storage would cost and its "storable" column
//! is two bytes per parameter. Nothing in the workspace writes such a
//! checkpoint, and the resident kernel stays f32-sized. q8 packs dense
//! weights to one byte each and serves from the pack, so its kernel bytes
//! are also its storable bytes.

use setlearn::kernel::Precision;
use setlearn::tasks::LearnedCardinality;
use setlearn_bench::configs::{cardinality_config, Variant};
use setlearn_bench::datasets::BenchDataset;
use setlearn_bench::half::{f16_size_bytes, round_weights_to_f16};
use setlearn_bench::metrics::avg_q_error;
use setlearn_bench::report::{mb, qe, Table};
use setlearn_bench::suites::cardinality::eval_sample;
use setlearn_data::{Dataset, SubsetIndex};

fn main() {
    let bench = BenchDataset::load(Dataset::Rw200k);
    let collection = &bench.collection;
    let subsets = SubsetIndex::build(collection, 3);
    let eval = eval_sample(&subsets, 2_000);

    let mut t =
        Table::new(vec!["variant", "precision", "avg q-error", "kernel (MB)", "storable (MB)"]);
    for variant in [Variant::Lsm, Variant::Clsm] {
        let cfg = cardinality_config(collection.num_elements(), variant, 1.0);
        let (est, _) = LearnedCardinality::build_from_subsets(&subsets, &cfg);

        let qerr = |est: &LearnedCardinality| {
            let pairs: Vec<(f64, f64)> = eval
                .iter()
                .map(|(s, c)| (est.estimate_model_only(s), *c as f64))
                .collect();
            avg_q_error(&pairs)
        };

        // Each row: label, the structure scored, and its storable bytes
        // (`None`: the kernel's own). Computing the q-error freezes the
        // kernel, so its footprint is available afterwards without a second
        // freeze.
        let mut f16 = est.clone();
        round_weights_to_f16(f16.model_mut());
        let mut q8 = est.clone();
        q8.set_precision(Precision::Q8);
        let rows: [(&str, &LearnedCardinality, Option<usize>); 3] = [
            ("f32", &est, Some(est.model().size_bytes())),
            ("f16", &f16, Some(f16_size_bytes(est.model()))),
            // The q8 pack (i8 codes + per-column scales + f32 biases) is
            // self-contained, so it is also the storable form.
            ("q8", &q8, None),
        ];
        for (label, est, storable) in rows {
            let err = qerr(est);
            let kernel_bytes = est.kernel().size_bytes();
            t.row(vec![
                variant.name().to_string(),
                label.to_string(),
                qe(err),
                mb(kernel_bytes),
                mb(storable.unwrap_or(kernel_bytes)),
            ]);
        }
    }
    t.print("Ablation — serve precision (cardinality, RW-200k shape)");
    println!(
        "f16 storage would halve the storable bytes at near-zero accuracy cost \
         (arithmetic: no f16 kernel or file exists); q8 quarters the resident \
         kernel too, at a still-small q-error premium."
    );
}

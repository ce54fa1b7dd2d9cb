//! Ablation: q-error training loss vs MSE vs MAE on the cardinality task
//! (DESIGN.md §4 — why the paper trains with q-error).

use setlearn::hybrid::{guided_train, GuidedConfig};
use setlearn::model::DeepSets;
use setlearn_bench::configs::{cardinality_config, Variant};
use setlearn_bench::datasets::BenchDataset;
use setlearn_bench::metrics::avg_q_error;
use setlearn_bench::report::{qe, Table};
use setlearn_bench::suites::cardinality::eval_sample;
use setlearn_data::{Dataset, ElementSet, SubsetIndex};
use setlearn_nn::{LogMinMaxScaler, Loss};

fn main() {
    let bench = BenchDataset::load(Dataset::Rw200k);
    let collection = &bench.collection;
    let subsets = SubsetIndex::build(collection, 3);
    let pairs = subsets.cardinality_pairs();
    let scaler = LogMinMaxScaler::from_range(1.0, subsets.max_cardinality() as f64);
    let data: Vec<(ElementSet, f32)> =
        pairs.iter().map(|(s, c)| (s.clone(), scaler.scale(*c))).collect();
    let eval = eval_sample(&subsets, 2_000);

    let losses: Vec<(&str, Loss)> = vec![
        ("q-error", Loss::QError { span: scaler.span() }),
        ("MSE", Loss::Mse),
        ("MAE", Loss::Mae),
    ];
    let mut t = Table::new(vec!["training loss", "avg q-error (eval)"]);
    for (name, loss) in losses {
        let cfg = cardinality_config(collection.num_elements(), Variant::Lsm, 1.0);
        let mut model = DeepSets::new(cfg.model.clone());
        let gcfg = GuidedConfig { percentile: 1.0, ..cfg.guided.clone() };
        let _ = guided_train(&mut model, &data, loss, &gcfg);
        let p: Vec<(f64, f64)> = eval
            .iter()
            .map(|(s, c)| (scaler.unscale(model.predict_one(s)), *c as f64))
            .collect();
        t.row(vec![name.to_string(), qe(avg_q_error(&p))]);
    }
    t.print("Ablation — training loss (cardinality, RW-200k shape)");
}

//! Ablation: local per-range error bounds vs one global bound (paper §8.3.3).

use setlearn_bench::report::Table;
use setlearn_bench::suites::index;
use setlearn_data::Dataset;

fn main() {
    let mut t = Table::new(vec![
        "Datasets",
        "global max error",
        "mean local bound",
        "avg sets scanned (local)",
        "scan window (global)",
    ]);
    for d in Dataset::ALL {
        let r = index::run_index_structure(d, 1_000, 0.9);
        t.row(vec![
            r.dataset.to_string(),
            format!("{:.0}", r.global_error),
            format!("{:.0}", r.mean_local_error),
            format!("{:.1}", r.mean_scanned_local),
            format!("{:.0}", r.mean_scanned_global),
        ]);
    }
    t.print("Ablation — local vs global error bounds (index task)");
}

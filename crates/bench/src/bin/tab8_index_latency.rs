//! Table 8: per-query execution time for the index task, plus the §8.3.3
//! local-vs-global error analysis.

use setlearn_bench::printers::print_tab8;
use setlearn_bench::suites::index;
use setlearn_data::Dataset;

fn main() {
    let results: Vec<_> =
        Dataset::ALL.iter().map(|&d| index::run_index_structure(d, 1_000, 0.9)).collect();
    print_tab8(&results);
}

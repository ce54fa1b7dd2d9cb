//! Table 7: memory consumption for the index task.

use setlearn_bench::printers::print_tab7;
use setlearn_bench::suites::index;
use setlearn_data::Dataset;

fn main() {
    // The paper's Table 7 omits RW-1.5M (its hybrid falls back entirely to
    // the auxiliary structure); we run all five for completeness.
    let results: Vec<_> =
        Dataset::ALL.iter().map(|&d| index::run_index_structure(d, 1_000, 0.9)).collect();
    print_tab7(&results);
}

//! Runs every table and figure of the paper in sequence, sharing work where
//! the paper's tables reuse the same trained models.

use setlearn_bench::printers::*;
use setlearn_bench::suites::{bloom, cardinality, digits, engine, index};
use setlearn_bench::timing::timed;
use setlearn_data::Dataset;

fn main() {
    let (_, total) = timed(|| {
        println!("setlearn — full experiment suite (scale x{})", setlearn_bench::datasets::scale_from_env());

        // Figures 3 and 8 are analytic.
        run_fig3();
        run_fig8();

        // Cardinality: Fig 6 + Tables 3/4 share the trained models.
        let card = cardinality::run_all(2_000);
        print_fig6(&card);
        print_tab3(&card);
        print_tab4(&card);

        // Index: Table 5 (accuracy sweep), Table 6 (divisor sweep),
        // Tables 7/8 (+§8.3.3) share the structure runs.
        let mut tab5 = Vec::new();
        for d in Dataset::ALL {
            tab5.extend(index::run_accuracy(d, 1_000));
        }
        print_tab5(&tab5);
        print_tab6(&index::run_compression_factor(1_000));
        let structures: Vec<_> =
            Dataset::ALL.iter().map(|&d| index::run_index_structure(d, 1_000, 0.9)).collect();
        print_tab7(&structures);
        print_tab8(&structures);

        // Bloom: Tables 9/10/11 share the trained filters.
        let blooms = bloom::run_all(2_000, 2_000);
        print_bloom(&blooms);

        // Figure 7 digit-sum generalization.
        let f7a = digits::run(&digits::DigitSuiteConfig::new(10));
        print_fig7("Figure 7a — digit-sum MAE, values in [1, 10]", &f7a);
        let f7b = digits::run(&digits::DigitSuiteConfig::new(100));
        print_fig7("Figure 7b — digit-sum MAE, values in [1, 100]", &f7b);

        // Table 12 engine integration.
        print_tab12(&engine::run(2_000));

        // Every serve call above went through the instrumented task heads at
        // the default Metrics level, so the suite run doubles as a telemetry
        // smoke check: dump what the registry accumulated.
        print_telemetry_appendix();
    });
    println!("\nTotal suite wall-clock: {total:.1}s");
}

fn print_telemetry_appendix() {
    let snap = setlearn_obs::metrics().snapshot();
    println!("\n== Telemetry appendix — metrics recorded during the suite ==\n");
    println!("{}", setlearn_obs::to_table(&snap));
}

fn run_fig3() {
    use setlearn::memory::fig3_series;
    use setlearn_bench::report::{mb, Table};
    let item_counts = [1_000usize, 10_000, 100_000, 1_000_000];
    let mut t = Table::new(vec!["items", "emb dim=25 MB", "emb dim=100 MB", "bloom 0.1 MB", "bloom 0.001 MB"]);
    let e25 = fig3_series(25, 0.1, &item_counts);
    let e100 = fig3_series(100, 0.1, &item_counts);
    let b1 = fig3_series(25, 0.1, &item_counts);
    let b3 = fig3_series(25, 0.001, &item_counts);
    for i in 0..item_counts.len() {
        t.row(vec![
            item_counts[i].to_string(),
            mb(e25[i].embedding),
            mb(e100[i].embedding),
            mb(b1[i].bloom),
            mb(b3[i].bloom),
        ]);
    }
    t.print("Figure 3 — embedding vs Bloom filter size (condensed)");
}

fn run_fig8() {
    use setlearn::compress::CompressionSpec;
    use setlearn_bench::report::Table;
    let mut t = Table::new(vec!["max elements", "ns=1 (none)", "ns=2", "ns=3", "ns=4"]);
    for max_id in [100_000u32, 1_000_000] {
        let mut row = vec![
            format!("{}", max_id as u64 + 1),
            CompressionSpec::uncompressed_input_dims(max_id).to_string(),
        ];
        for ns in 2..=4usize {
            row.push(CompressionSpec::optimal(max_id, ns).input_dims().to_string());
        }
        t.row(row);
    }
    t.print("Figure 8 — input dimensions vs ns (condensed)");
}

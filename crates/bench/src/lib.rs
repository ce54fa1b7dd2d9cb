//! # setlearn-bench
//!
//! The benchmark harness that regenerates every table and figure of
//! *Learning over Sets for Databases* (EDBT 2024). Each `src/bin/` target
//! prints one table/figure; `all_experiments` runs the full suite. Shared
//! pieces:
//!
//! * [`datasets`] — bench-scale instantiations of the paper's Table 2
//!   datasets (`SETLEARN_SCALE` env var scales them up).
//! * [`configs`] — model/training settings per task (§8.1).
//! * [`metrics`] — q-error aggregation and Figure 6's result-size buckets.
//! * [`half`] — f16 weight rounding, for `abl_quantize` only.
//! * [`timing`] — one-query-at-a-time latency measurement (§8.2.3).
//! * [`report`] — plain-text table rendering.
//! * [`suites`] — the experiment implementations.

#![warn(missing_docs)]

pub mod configs;
pub mod datasets;
pub mod half;
pub mod metrics;
pub mod printers;
pub mod report;
pub mod suites;
pub mod timing;

//! What the ledger prints and stores: the per-run metric table, the
//! contract's result line, `results.json`, and the comparison of two result
//! files against the bounds in `BENCHMARK.json`.

use crate::run::RunRecord;
use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, spread};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// Prints every metric of a run by name, with unit, sample count and bound.
/// Metrics `BENCHMARK.json` does not list (details such as the throughput of
/// a script's first and last quarter) are printed without unit or bound.
pub fn print_run(spec: &Spec, run: &RunRecord) {
    println!(
        "\n== {} · seed {} · {} s · {} ==",
        run.workload,
        run.seed,
        run.seconds,
        if run.traced {
            "traced run (per-layer)"
        } else {
            "untraced run (end-to-end)"
        }
    );
    println!(
        "attempted {} · succeeded {} · failed {}",
        run.attempted,
        run.attempted - run.failed,
        run.failed
    );
    if let Some(failure) = &run.first_failure {
        println!("first failure: {failure}");
    }
    for (name, m) in &run.metrics {
        let (unit, bound) = match spec.metric(name) {
            Some(MetricSpec {
                unit,
                bound: Some(b),
                higher_is_better,
                ..
            }) => (
                unit.as_str(),
                format!(
                    "bound {}{:.0}%",
                    if *higher_is_better { "-" } else { "+" },
                    b * 100.0
                ),
            ),
            Some(MetricSpec { unit, .. }) => (unit.as_str(), "per-layer".to_string()),
            None => ("", "detail".to_string()),
        };
        println!(
            "  {name:<36} {:>16.4} {unit:<8} n={:<9} {bound}",
            m.value, m.samples
        );
    }
}

/// The contract's last line: `correct`, `attempted`, `failed`, and exactly
/// the metrics `BENCHMARK.json` lists for this trace mode.
pub fn contract_line(spec: &Spec, run: &RunRecord) -> Result<String, String> {
    let wanted = if run.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Vec::new();
    for m in wanted {
        // A layer that is not on this workload's path did no work: 0.
        let value = match run.metrics.get(&m.name) {
            Some(measured) => measured.value,
            None if run.traced => 0.0,
            None => return Err(format!("run did not measure end-to-end metric {}", m.name)),
        };
        metrics.push((
            m.name.clone(),
            obj(vec![
                ("value", Value::Float(value)),
                ("unit", text(&m.unit)),
            ]),
        ));
    }
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(run.correct())),
        ("attempted".to_string(), Value::UInt(run.attempted.max(1))),
        ("failed".to_string(), Value::UInt(run.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

fn run_value(run: &RunRecord, set: usize) -> Value {
    obj(vec![
        ("workload", text(&run.workload)),
        ("set", Value::UInt(set as u64)),
        ("seed", Value::UInt(run.seed)),
        ("seconds", Value::UInt(run.seconds)),
        ("trace", Value::UInt(run.traced as u64)),
        ("correct", Value::Bool(run.correct())),
        ("attempted", Value::UInt(run.attempted)),
        ("failed", Value::UInt(run.failed)),
        (
            "metrics",
            Value::Object(
                run.metrics
                    .iter()
                    .map(|(name, m)| {
                        (
                            name.clone(),
                            obj(vec![
                                ("value", Value::Float(m.value)),
                                ("samples", Value::UInt(m.samples)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host a result file was measured on; a result is comparable only with
/// results that carry the same fingerprint.
fn fingerprint(seed: u64) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    obj(vec![
        (
            "nproc",
            Value::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu_model", text(&cpu)),
        (
            "kernel_isa",
            text(&setlearn::kernel::kernel_isa().to_string()),
        ),
        ("rustc", text(&command_line("rustc", &["--version"]))),
        (
            "git_commit",
            text(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::UInt(seed)),
    ])
}

/// Writes a result file: the fingerprint and every run of every set.
pub fn write_results(path: &Path, seed: u64, sets: &[Vec<RunRecord>]) -> Result<(), String> {
    let runs: Vec<Value> = sets
        .iter()
        .enumerate()
        .flat_map(|(i, set)| set.iter().map(move |run| run_value(run, i)))
        .collect();
    let doc = obj(vec![
        ("fingerprint", fingerprint(seed)),
        ("runs", Value::Array(runs)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    }
    let body = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
    std::fs::write(path, body + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

/// (workload, metric) → the values a result file holds for it, untraced
/// runs only.
struct Results {
    values: BTreeMap<(String, String), Vec<f64>>,
}

impl Results {
    fn load(path: &Path) -> Result<Results, String> {
        let body =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc: Value =
            serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))?;
        let runs = doc
            .get("runs")
            .and_then(Value::as_array)
            .ok_or("result file without runs")?;
        let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for run in runs {
            if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
                continue;
            }
            let workload = run
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("run without workload")?;
            for (name, m) in run
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or("run without metrics")?
            {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    values
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
        Ok(Results { values })
    }

    fn get(&self, workload: &str, metric: &str) -> &[f64] {
        self.values
            .get(&(workload.to_string(), metric.to_string()))
            .map_or(&[], Vec::as_slice)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The run-to-run spread is wider than the bound: the two medians cannot
    /// be told apart at this bound.
    Unresolved,
}

/// Compares the medians of one metric. `change` is signed so that positive
/// is worse; `spread` is the wider of the two sides' own spreads, when either
/// side has the two values a spread needs.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let bound = spec.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    let worse_by = if ma == 0.0 {
        0.0
    } else if spec.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let own_spread = [a, b]
        .iter()
        .filter(|v| v.len() >= 2)
        .map(|v| spread(v))
        .fold(0.0, f64::max);
    let verdict = if own_spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (verdict, worse_by)
}

/// `ledger diff A.json B.json`: one row per workload × end-to-end metric.
/// Returns whether B is acceptable against A: no metric worse than its
/// bound, and no workload failing more operations.
pub fn diff(spec: &Spec, a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (Results::load(a_path)?, Results::load(b_path)?);
    let mut acceptable = true;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for (workload, _) in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (a.get(workload, &m.name), b.get(workload, &m.name));
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{workload:<16} {:<16} missing from {}",
                    m.name,
                    if va.is_empty() { "A" } else { "B" }
                );
                acceptable = false;
                continue;
            }
            let (verdict, worse_by) = judge(m, va, vb);
            acceptable &= verdict != Verdict::Worse;
            println!(
                "{workload:<16} {:<16} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}",
                m.name,
                median(va),
                median(vb),
                worse_by * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Better => "better",
                    Verdict::WithinBound => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved (spread wider than bound)",
                }
            );
        }
        // Any increase in the failure rate is a regression.
        let fail = |r: &Results| {
            r.get(workload, "fail_rate")
                .iter()
                .copied()
                .fold(0.0, f64::max)
        };
        let (fa, fb) = (fail(&a), fail(&b));
        println!(
            "{workload:<16} {:<16} {fa:>14.6} {fb:>14.6} {}",
            "fail_rate",
            if fb > fa { " WORSE" } else { " ok" }
        );
        acceptable &= fb <= fa;
    }
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let qps = metric(true, 0.10);
        assert_eq!(judge(&qps, &[100.0], &[85.0]).0, Verdict::Worse);
        assert_eq!(judge(&qps, &[100.0], &[95.0]).0, Verdict::WithinBound);
        assert_eq!(judge(&qps, &[100.0], &[120.0]).0, Verdict::Better);
        let latency = metric(false, 0.10);
        assert_eq!(judge(&latency, &[100.0], &[115.0]).0, Verdict::Worse);
        assert_eq!(judge(&latency, &[100.0], &[80.0]).0, Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let m = metric(false, 0.05);
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&m, &noisy, &[130.0]).0, Verdict::Unresolved);
        let steady = [99.0, 100.0, 101.0, 100.0, 100.0];
        assert_eq!(judge(&m, &steady, &[130.0]).0, Verdict::Worse);
    }
}

//! `BENCHMARK.json`: the one place metric names, units, directions and
//! bounds are fixed. The ledger reads it at start and reports exactly the
//! metrics it lists, so the file and the program cannot drift apart.

use serde::Value;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may get worse;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Reads `BENCHMARK.json` from the current directory (the repo root,
    /// where `run.sh` puts the process).
    pub fn load() -> Result<Spec, String> {
        Spec::load_from(Path::new("BENCHMARK.json"))
    }

    pub fn load_from(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            format!(
                "cannot read {}: {e} (run from the repo root)",
                path.display()
            )
        })?;
        Spec::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or(format!("BENCHMARK.json: no list {key:?}"))
        };
        let text_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: match text_of(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")? as u64,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    /// The committed `BENCHMARK.json` must name the workloads the ledger
    /// runs and stay inside the contract's limits.
    #[test]
    fn committed_file_matches_the_ledger() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Spec::load_from(&path).unwrap();
        let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let ours: Vec<&str> = workload::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ours);
        assert!((1..=60).contains(&spec.run_seconds));
        let setup = spec.metric("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(spec
            .workloads
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    #[test]
    fn malformed_files_are_refused() {
        assert!(Spec::parse("{}").is_err());
        assert!(Spec::parse(r#"{"run_seconds":1,"workloads":[],"end_to_end":[{"name":"a","unit":"s","better":"sideways","bound":0.1}],"per_layer":[]}"#).is_err());
    }
}

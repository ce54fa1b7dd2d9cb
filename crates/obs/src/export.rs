//! Exporters: Prometheus text-exposition format and a human-readable table.

use crate::metrics::{HistogramSnapshot, MetricKey, RegistrySnapshot};

fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        // Render integral values without an exponent so the output is stable
        // and diff-friendly (e.g. `5` rather than `5.0`).
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn fmt_bound(b: f64) -> String {
    fmt_f64(b)
}

/// Renders a snapshot as a JSON document (the same shape the CLI's
/// `--telemetry` writes to `<base>.metrics.json`), for machine consumers
/// that prefer structured data over the Prometheus exposition — e.g. the
/// wire `KIND_STATS` reply in JSON format and the CLI's `watch` mode.
pub fn to_json(snap: &RegistrySnapshot) -> String {
    serde_json::to_string(snap).expect("RegistrySnapshot serializes")
}

/// Parses a JSON document produced by [`to_json`].
pub fn from_json(text: &str) -> Result<RegistrySnapshot, String> {
    serde_json::from_str(text).map_err(|e| format!("bad metrics JSON: {e}"))
}

/// Renders a snapshot in Prometheus text-exposition format (version 0.0.4):
/// one `# TYPE` line per family, `_bucket{le=...}`/`_sum`/`_count` series for
/// histograms. Output is deterministic — families and series are sorted.
pub fn to_prometheus(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut typed: Vec<(String, String)> = Vec::new(); // (family, body) for sorting

    // Counters and gauges grouped by family name for `# TYPE` headers.
    for (kind, keys_values) in [
        (
            "counter",
            snap.counters
                .iter()
                .map(|c| (c.key.clone(), c.value as f64))
                .collect::<Vec<_>>(),
        ),
        (
            "gauge",
            snap.gauges.iter().map(|g| (g.key.clone(), g.value)).collect::<Vec<_>>(),
        ),
    ] {
        let mut i = 0;
        while i < keys_values.len() {
            let family = keys_values[i].0.name.clone();
            let mut body = format!("# TYPE {family} {kind}\n");
            while i < keys_values.len() && keys_values[i].0.name == family {
                let (key, value) = &keys_values[i];
                body.push_str(&format!("{} {}\n", key.render(), fmt_f64(*value)));
                i += 1;
            }
            typed.push((family, body));
        }
    }

    for h in &snap.histograms {
        let family = h.key.name.clone();
        let mut body = format!("# TYPE {family} histogram\n");
        body.push_str(&histogram_series(&h.key, &h.value));
        typed.push((family, body));
    }

    typed.sort_by(|a, b| a.0.cmp(&b.0));
    for (_, body) in typed {
        out.push_str(&body);
    }
    out
}

fn histogram_series(key: &MetricKey, snap: &HistogramSnapshot) -> String {
    let mut out = String::new();
    let bucket_key = MetricKey { name: format!("{}_bucket", key.name), labels: key.labels.clone() };
    let mut cumulative = 0u64;
    for (i, &c) in snap.counts.iter().enumerate() {
        cumulative += c;
        let le = if i < snap.bounds.len() {
            fmt_bound(snap.bounds[i])
        } else {
            "+Inf".to_string()
        };
        out.push_str(&format!(
            "{} {}\n",
            bucket_key.render_with_extra(Some(("le", &le))),
            cumulative
        ));
    }
    let sum_key = MetricKey { name: format!("{}_sum", key.name), labels: key.labels.clone() };
    let count_key = MetricKey { name: format!("{}_count", key.name), labels: key.labels.clone() };
    out.push_str(&format!("{} {}\n", sum_key.render(), fmt_f64(snap.sum)));
    out.push_str(&format!("{} {}\n", count_key.render(), snap.count));
    out
}

/// Renders a snapshot as fixed-width human-readable tables: one section for
/// counters, one for gauges, one row per histogram with p50/p95/p99/max/mean.
pub fn to_table(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    if !snap.counters.is_empty() {
        out.push_str("counters\n");
        let width = snap.counters.iter().map(|c| c.key.render().len()).max().unwrap_or(0);
        for c in &snap.counters {
            out.push_str(&format!("  {:<width$}  {}\n", c.key.render(), c.value));
        }
        out.push('\n');
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges\n");
        let width = snap.gauges.iter().map(|g| g.key.render().len()).max().unwrap_or(0);
        for g in &snap.gauges {
            out.push_str(&format!("  {:<width$}  {}\n", g.key.render(), fmt_f64(g.value)));
        }
        out.push('\n');
    }
    if !snap.histograms.is_empty() {
        out.push_str("histograms (p50 / p95 / p99 / max / mean / count)\n");
        let width = snap.histograms.iter().map(|h| h.key.render().len()).max().unwrap_or(0);
        for h in &snap.histograms {
            let s = &h.value;
            out.push_str(&format!(
                "  {:<width$}  {} / {} / {} / {} / {} / {}\n",
                h.key.render(),
                fmt_f64(s.quantile(0.50)),
                fmt_f64(s.quantile(0.95)),
                fmt_f64(s.quantile(0.99)),
                fmt_f64(s.max),
                fmt_f64(s.mean()),
                s.count,
            ));
        }
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

/// Minimal sanity check that a string parses as Prometheus text exposition:
/// every non-comment line is `name_or_series value` and every series has a
/// preceding `# TYPE` header for its family. Returns the number of sample
/// lines. Used by `cli stats` and the CI smoke test.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut families: Vec<String> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let family = parts
                .next()
                .ok_or_else(|| format!("line {}: empty TYPE header", i + 1))?;
            match parts.next() {
                Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                other => {
                    return Err(format!("line {}: bad metric type {:?}", i + 1, other));
                }
            }
            families.push(family.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or other comment
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: expected 'series value'", i + 1))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("line {}: unparseable sample value {value:?}", i + 1))?;
        let name = series.split('{').next().unwrap_or(series);
        let known = families.iter().any(|f| {
            name == f
                || name == format!("{f}_bucket")
                || name == format!("{f}_sum")
                || name == format!("{f}_count")
        });
        if !known {
            return Err(format!("line {}: series {name:?} has no # TYPE header", i + 1));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples found".to_string());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter_with("setlearn_serve_queries_total", &[("task", "cardinality")]).add(5);
        reg.counter_with(
            "setlearn_serve_fallbacks_total",
            &[("task", "cardinality"), ("reason", "non_finite")],
        )
        .add(2);
        reg.gauge("setlearn_train_loss").set(0.25);
        let h = reg.histogram_with(
            "setlearn_serve_batch_seconds",
            &[("task", "cardinality")],
            &[0.001, 0.01],
        );
        h.observe(0.0005);
        h.observe(0.0005);
        h.observe(0.02);
        reg
    }

    #[test]
    fn golden_prometheus_exposition() {
        let text = to_prometheus(&sample_registry().snapshot());
        let expected = "\
# TYPE setlearn_serve_batch_seconds histogram
setlearn_serve_batch_seconds_bucket{task=\"cardinality\",le=\"0.001\"} 2
setlearn_serve_batch_seconds_bucket{task=\"cardinality\",le=\"0.01\"} 2
setlearn_serve_batch_seconds_bucket{task=\"cardinality\",le=\"+Inf\"} 3
setlearn_serve_batch_seconds_sum{task=\"cardinality\"} 0.021
setlearn_serve_batch_seconds_count{task=\"cardinality\"} 3
# TYPE setlearn_serve_fallbacks_total counter
setlearn_serve_fallbacks_total{reason=\"non_finite\",task=\"cardinality\"} 2
# TYPE setlearn_serve_queries_total counter
setlearn_serve_queries_total{task=\"cardinality\"} 5
# TYPE setlearn_train_loss gauge
setlearn_train_loss 0.25
";
        assert_eq!(text, expected);
    }

    #[test]
    fn exposition_validates() {
        let text = to_prometheus(&sample_registry().snapshot());
        let samples = validate_prometheus(&text).expect("valid exposition");
        assert_eq!(samples, 8);
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("orphan_series 1\n").is_err());
        assert!(validate_prometheus("# TYPE a counter\na notanumber\n").is_err());
        assert!(validate_prometheus("# TYPE a flavor\na 1\n").is_err());
    }

    #[test]
    fn table_lists_quantiles() {
        let text = to_table(&sample_registry().snapshot());
        assert!(text.contains("counters"));
        let queries_row = text
            .lines()
            .find(|l| l.contains("setlearn_serve_queries_total"))
            .expect("queries row");
        assert!(queries_row.trim_end().ends_with(" 5"), "got: {queries_row}");
        assert!(text.contains("histograms"));
        assert!(text.contains("setlearn_serve_batch_seconds"));
        assert!(to_table(&RegistrySnapshot::default()).contains("no metrics recorded"));
    }
}

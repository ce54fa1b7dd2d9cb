//! Reader for the server's Prometheus text scrape (`client --stats`), and
//! the before/after difference the per-layer numbers are read from. The
//! benchmark parses the text a production scraper would see, not the obs
//! crate's snapshot type, so it measures the server from outside.

/// One exposition line: `name{label="value",...} number`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    /// Sorted by label name, so two samples of one series compare equal.
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    pub samples: Vec<Sample>,
}

impl Scrape {
    /// Parses exposition text. Comment and blank lines are skipped; a line
    /// that is neither a comment nor a sample is an error, so a format
    /// change in the server fails the run and is not read as zeros.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut samples = Vec::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            samples.push(parse_line(line).map_err(|e| format!("scrape line {}: {e}", no + 1))?);
        }
        Ok(Scrape { samples })
    }

    /// Sum over every series of `name` whose labels include all of `want`.
    /// A histogram's parts are addressed by their full names
    /// (`…_sum`, `…_count`, `…_bucket`).
    pub fn sum(&self, name: &str, want: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| {
                want.iter()
                    .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .map(|s| s.value)
            .sum()
    }

    /// `self - before`, series by series; a series absent from `before`
    /// counts from zero. Only meaningful for counters and histogram parts.
    pub fn since(&self, before: &Scrape) -> Scrape {
        let samples = self
            .samples
            .iter()
            .map(|s| {
                let base = before
                    .samples
                    .iter()
                    .find(|b| b.name == s.name && b.labels == s.labels)
                    .map_or(0.0, |b| b.value);
                Sample {
                    value: s.value - base,
                    ..s.clone()
                }
            })
            .collect();
        Scrape { samples }
    }

    /// Mean observation of histogram `family` over the matching series:
    /// `Σ_sum / Σ_count`, and the count. `(0, 0)` when nothing was observed.
    pub fn hist_mean(&self, family: &str, want: &[(&str, &str)]) -> (f64, f64) {
        let count = self.sum(&format!("{family}_count"), want);
        if count <= 0.0 {
            return (0.0, 0.0);
        }
        (self.sum(&format!("{family}_sum"), want) / count, count)
    }
}

fn parse_line(line: &str) -> Result<Sample, String> {
    let (head, value) = match line.find('{') {
        Some(open) => {
            let close = line.rfind('}').ok_or("unclosed label set")?;
            let labels = parse_labels(&line[open + 1..close])?;
            ((line[..open].to_string(), labels), line[close + 1..].trim())
        }
        None => {
            let (name, value) = line.split_once(char::is_whitespace).ok_or("no value")?;
            ((name.to_string(), Vec::new()), value.trim())
        }
    };
    // A timestamp may follow the value; the server writes none, accept one.
    let value = value.split_whitespace().next().ok_or("no value")?;
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse::<f64>().map_err(|_| format!("bad number {v:?}"))?,
    };
    let (name, mut labels) = head;
    if name.is_empty() {
        return Err("empty metric name".into());
    }
    labels.sort();
    Ok(Sample {
        name,
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without '='")?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].trim_start();
        let mut chars = after.char_indices();
        if chars.next().map(|(_, c)| c) != Some('"') {
            return Err(format!("label {key} value is not quoted"));
        }
        let mut value = String::new();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, other)) => value.push(other),
                    None => return Err("dangling escape".into()),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                other => value.push(other),
            }
        }
        let end = end.ok_or("unterminated label value")?;
        labels.push((key, value));
        rest = after[end + 1..]
            .trim_start()
            .trim_start_matches(',')
            .trim_start();
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP setlearn_request_stage_seconds per-stage latency
# TYPE setlearn_request_stage_seconds histogram
setlearn_request_stage_seconds_bucket{collection=\"a\",stage=\"decode\",task=\"bloom\",le=\"+Inf\"} 4
setlearn_request_stage_seconds_sum{collection=\"a\",stage=\"decode\",task=\"bloom\"} 0.004
setlearn_request_stage_seconds_count{collection=\"a\",stage=\"decode\",task=\"bloom\"} 4
setlearn_registry_resident 1
";
    const AFTER: &str = "\
setlearn_request_stage_seconds_sum{task=\"bloom\",stage=\"decode\",collection=\"a\"} 0.010
setlearn_request_stage_seconds_count{task=\"bloom\",stage=\"decode\",collection=\"a\"} 7
setlearn_request_stage_seconds_sum{collection=\"b\",stage=\"decode\",task=\"bloom\"} 0.002
setlearn_request_stage_seconds_count{collection=\"b\",stage=\"decode\",task=\"bloom\"} 1
setlearn_request_stage_seconds_sum{collection=\"a\",stage=\"encode\",task=\"bloom\"} 9
setlearn_request_stage_seconds_count{collection=\"a\",stage=\"encode\",task=\"bloom\"} 9
setlearn_registry_resident 2
";

    #[test]
    fn parses_names_labels_values() {
        let s = Scrape::parse(BEFORE).unwrap();
        assert_eq!(s.samples.len(), 4);
        assert_eq!(s.samples[0].value, 4.0);
        assert!(s.samples[0].labels.contains(&("le".into(), "+Inf".into())));
        assert_eq!(s.sum("setlearn_registry_resident", &[]), 1.0);
        assert_eq!(
            s.sum(
                "setlearn_request_stage_seconds_count",
                &[("stage", "decode")]
            ),
            4.0
        );
    }

    #[test]
    fn escaped_quotes_and_commas_stay_inside_a_value() {
        let s = Scrape::parse("m{a=\"x,\\\"y\\\"\",b=\"z\"} 2.5e-3").unwrap();
        assert_eq!(s.samples[0].labels[0], ("a".into(), "x,\"y\"".into()));
        assert_eq!(s.samples[0].labels[1], ("b".into(), "z".into()));
        assert_eq!(s.samples[0].value, 0.0025);
    }

    #[test]
    fn garbage_is_an_error_not_a_zero() {
        assert!(Scrape::parse("metric_without_value").is_err());
        assert!(Scrape::parse("m{a=b} 1").is_err());
        assert!(Scrape::parse("m 1x").is_err());
    }

    #[test]
    fn histogram_diff_is_per_series_and_label_order_blind() {
        let before = Scrape::parse(BEFORE).unwrap();
        let after = Scrape::parse(AFTER).unwrap();
        let d = after.since(&before);
        // Series a: (0.010-0.004)/(7-4); series b is new and counts from 0.
        let (mean, n) = d.hist_mean(
            "setlearn_request_stage_seconds",
            &[("stage", "decode"), ("collection", "a")],
        );
        assert!((mean - 0.002).abs() < 1e-12 && n == 3.0);
        let (mean, n) = d.hist_mean("setlearn_request_stage_seconds", &[("stage", "decode")]);
        assert!((mean - 0.002).abs() < 1e-12 && n == 4.0);
        assert_eq!(
            d.hist_mean("setlearn_request_stage_seconds", &[("stage", "queue")]),
            (0.0, 0.0)
        );
    }
}

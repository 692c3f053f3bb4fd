//! Metric records, the statistics the benchmark reports, and the
//! result line the benchmark prints last.

use emu_telemetry::Json;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `<module>.<metric>` for per-layer metrics, a bare name for
    /// end-to-end ones.
    pub name: String,
    /// The value as measured, all digits kept.
    pub value: f64,
    /// Unit, as in `ms`, `1/s` or `count`.
    pub unit: &'static str,
}

/// An ordered list of metrics with a push shorthand.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// A deterministic value the determinism gate compares exactly.
pub type Fingerprint = Vec<(String, u64)>;

/// Looks a fingerprint value up by name.
pub fn fp(fp: &Fingerprint, name: &str) -> u64 {
    fp.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("fingerprint has no `{name}`"))
}

/// Names the values on which two fingerprints differ.
pub fn diff(a: &Fingerprint, b: &Fingerprint) -> Vec<String> {
    a.iter()
        .zip(b)
        .filter(|(x, y)| x != y)
        .map(|((k, x), (_, y))| format!("{k}: {x} then {y}"))
        .collect()
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations offered: frames on engine workloads, requests on
    /// fabric-chaos.
    pub attempted: u64,
    /// Operations that failed (see each workload for the definition).
    pub failed: u64,
    /// Checker violations plus determinism-gate mismatches, with notes.
    pub errors: Vec<String>,
    /// End-to-end metrics (every run).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Deterministic values of the fixed-length prefix of the run.
    pub fingerprint: Fingerprint,
    /// Free-form report lines (tail percentile, call counts, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    /// True when every output passed its checker and the run repeated
    /// its deterministic values exactly.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// The median of `v` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The value at the highest percentile that still has at least ten
/// samples beyond it: `(percentile, value)`. With fewer than eleven
/// samples this is the maximum at percentile 100.
pub fn tail(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "tail of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 11 {
        return (100.0, s[n - 1]);
    }
    let idx = n - 11;
    (100.0 * (idx + 1) as f64 / n as f64, s[idx])
}

/// The rate sustained in all but the slowest tenth of a run: `samples`
/// are `(work, seconds)` of consecutive steps, grouped into windows of at
/// least `window_s` seconds; the result is the 10th-percentile window
/// rate (nearest rank). On a shared host, fast periods come and go with
/// the neighbours' load while the slow floor repeats from run to run.
pub fn low_rate(samples: &[(f64, f64)], window_s: f64) -> f64 {
    let mut rates = Vec::new();
    let (mut work, mut secs) = (0.0, 0.0);
    for (w, s) in samples {
        work += w;
        secs += s;
        if secs >= window_s {
            rates.push(work / secs);
            (work, secs) = (0.0, 0.0);
        }
    }
    if rates.is_empty() {
        rates.push(work / secs);
    }
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 10]
}

/// Ratio of two numbers, 0 when the denominator is 0 (a layer that did
/// no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: exactly `correct`, `attempted`, `failed` and the
/// metrics named in `names`, each with its value and unit. Each entry
/// pairs the result-line name with the names a workload may have
/// measured it under; the first one measured is used.
///
/// # Panics
///
/// Panics if a correct run lacks a named metric — a benchmark bug,
/// never an input condition. A failed run reports what it measured.
pub fn result_line(outcome: &Outcome, metrics: &Metrics, names: &[(&str, &[&str])]) -> String {
    let mut picked = Vec::new();
    for (name, aliases) in names {
        match aliases.iter().find_map(|a| metrics.get(a)) {
            Some(m) => picked.push((
                *name,
                Json::obj(vec![
                    ("value", Json::from(m.value)),
                    ("unit", Json::from(m.unit)),
                ]),
            )),
            None => assert!(!outcome.correct(), "metric `{name}` was not measured"),
        }
    }
    Json::obj(vec![
        ("correct", Json::from(outcome.correct())),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::obj(picked)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ten samples (91..=100) lie beyond 90.
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(tail(&[5.0, 7.0]), (100.0, 7.0));
    }

    #[test]
    fn low_rate_skips_the_slowest_tenth() {
        // Twenty one-second windows at 100/s, one at 10/s: the slow
        // window is below the 10th percentile.
        let mut s = vec![(100.0, 1.0); 20];
        s.insert(7, (10.0, 1.0));
        assert_eq!(low_rate(&s, 1.0), 100.0);
        // Steps shorter than the window are pooled.
        assert_eq!(low_rate(&[(5.0, 0.5), (15.0, 0.5)], 1.0), 20.0);
        // A run shorter than one window is one window.
        assert_eq!(low_rate(&[(3.0, 0.25)], 1.0), 12.0);
    }
}

//! Summary statistics, the operation ledger behind `attempted`/`failed`,
//! and the one-line JSON result the benchmark prints last.

use std::fmt::Write as _;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every metric, check and operation count of one run.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit, what the value is a median of)`.
    metrics: Vec<(&'static str, f64, &'static str, Option<String>)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit, None));
    }

    /// Records a metric value with the sample count behind it, for the
    /// human-readable summary.
    pub fn measured(&mut self, name: &'static str, value: f64, unit: &'static str, basis: String) {
        self.metrics.push((name, value, unit, Some(basis)));
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{what}: {failed} of {attempted} failed"));
        }
    }

    /// Counts one checked operation; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
        ok
    }

    /// Adds a line to the human-readable summary.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every operation and check so far succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Share of the operations and checks so far that succeeded.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// Writes the summary to stderr and returns the result line:
    /// `{"correct", "attempted", "failed", "metrics"}`.
    pub fn finish(&self) -> String {
        for (name, value, unit, basis) in &self.metrics {
            match basis {
                Some(b) => eprintln!("  {name:<28} {value:>16.6} {unit:<9} {b}"),
                None => eprintln!("  {name:<28} {value:>16.6} {unit}"),
            }
        }
        for line in &self.notes {
            eprintln!("  {line}");
        }
        for line in &self.failures {
            eprintln!("  FAILED {line}");
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit, _)) in self.metrics.iter().enumerate() {
            // JSON has no NaN or infinity; a metric that produced one
            // is reported as 0 and the run as incorrect.
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Marks the run incorrect if a metric is not a finite number.
    pub fn check_finite(&mut self) {
        let bad: Vec<&'static str> = self
            .metrics
            .iter()
            .filter(|m| !m.1.is_finite())
            .map(|m| m.0)
            .collect();
        for name in bad {
            self.check(false, || format!("metric {name} is not a finite number"));
        }
    }
}

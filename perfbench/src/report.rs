//! Metrics, statistics, failure accounting, and the result line.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`,
/// `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Counts operations and their failed checks. An operation fails when
/// any of its checks fails; the first few failure messages go to
/// stderr so a failing run explains itself.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation with the checks that failed on it.
    pub fn record(&mut self, what: &str, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            if self.failed <= 5 {
                for failure in failures {
                    eprintln!("check failed: {what}: {failure}");
                }
            }
        }
    }

    /// Adds another tally's counts (per-thread tallies of one run).
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The median of `values` (the mean of the middle pair for an even
/// count). `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, reported
/// only when at least [`MIN_TAIL_SAMPLES`] samples lie beyond it —
/// a tail percentile read off fewer samples is a guess, not a
/// measurement. Failed operations enter as `f64::INFINITY`, so they
/// count as missing any latency limit.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || rank > n || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Ungated figures, each printed with its base.
    pub derived: Vec<String>,
    pub tally: Tally,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    pub fn derived(&mut self, line: String) {
        self.derived.push(line);
    }

    /// Checks that the metrics are exactly `expected` (name and unit
    /// pairs, as the manifest lists them), in any order.
    ///
    /// # Errors
    ///
    /// Each metric missing, extra, or in another unit: a run that
    /// cannot report what the manifest promises prints no result line.
    pub fn check_metrics(&self, expected: &[(String, String)]) -> Result<(), String> {
        let mut problems = Vec::new();
        for (name, unit) in expected {
            match self.metrics.iter().find(|m| &m.name == name) {
                None => problems.push(format!("{name} missing")),
                Some(m) if m.unit != unit => {
                    problems.push(format!("{name} in {} instead of {unit}", m.unit))
                }
                Some(_) => {}
            }
        }
        for m in &self.metrics {
            if !expected.iter().any(|(name, _)| name == &m.name) {
                problems.push(format!("{} is not in the manifest", m.name));
            }
        }
        match problems.is_empty() {
            true => Ok(()),
            false => Err(format!(
                "metrics do not match the manifest: {}",
                problems.join(", ")
            )),
        }
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    ///
    /// # Errors
    ///
    /// A metric with an invalid name or unit, a repeated name, or a
    /// non-finite value: each is a bug in this benchmark, not a
    /// measurement, so no line is produced.
    pub fn result_line(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_name(&m.name) || !valid_unit(m.unit) {
                return Err(format!(
                    "invalid metric name or unit: {} {}",
                    m.name, m.unit
                ));
            }
            if self.metrics[..i].iter().any(|o| o.name == m.name) {
                return Err(format!("metric {} reported twice", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_charset() {
        for ok in ["setup_s", "sim.ns_per_inst.full", "p99_ms", "0x", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "ns", "MiB", "B/inst"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 of 1000 leaves exactly ten samples beyond it.
        assert_eq!(tail_percentile(&samples, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&samples[..999], 0.99), None);
        assert_eq!(tail_percentile(&samples[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&samples[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn failed_samples_sort_to_the_tail() {
        let mut samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        for s in samples.iter_mut().take(11) {
            *s = f64::INFINITY;
        }
        assert_eq!(tail_percentile(&samples, 0.99), Some(f64::INFINITY));
        assert_eq!(tail_percentile(&samples, 0.5), Some(511.0));
    }

    #[test]
    fn failure_accounting() {
        let mut tally = Tally::default();
        tally.record("ok", &[]);
        tally.record("bad", &["a".into(), "b".into()]);
        tally.record("ok", &[]);
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        let mut total = Tally::default();
        total.absorb(&tally);
        total.absorb(&tally);
        assert_eq!((total.attempted, total.failed), (6, 2));

        let mut outcome = Outcome {
            tally,
            ..Outcome::default()
        };
        outcome.metric("op_ms", 1.5, "ms");
        let line = outcome.result_line().unwrap();
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":3,\"failed\":1,\
             \"metrics\":{\"op_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}"
        );
        outcome.tally.failed = 0;
        assert!(outcome
            .result_line()
            .unwrap()
            .starts_with("{\"correct\":true"));
        outcome.tally = Tally::default();
        assert!(
            outcome
                .result_line()
                .unwrap()
                .starts_with("{\"correct\":false"),
            "a run with no operations is not correct"
        );
    }

    #[test]
    fn result_line_rejects_bad_metrics() {
        let mut outcome = Outcome::default();
        outcome.metric("x", f64::NAN, "ms");
        assert!(outcome.result_line().is_err());
        let mut outcome = Outcome::default();
        outcome.metric("x", 1.0, "ms");
        outcome.metric("x", 2.0, "ms");
        assert!(outcome.result_line().is_err());
        let mut outcome = Outcome::default();
        outcome.metric("bad name", 1.0, "ms");
        assert!(outcome.result_line().is_err());
    }

    #[test]
    fn metrics_must_match_the_manifest_exactly() {
        let expected = vec![
            ("op_ms".to_string(), "ms".to_string()),
            ("setup_s".to_string(), "s".to_string()),
        ];
        let mut outcome = Outcome::default();
        outcome.metric("setup_s", 0.5, "s");
        assert!(outcome.check_metrics(&expected).is_err(), "op_ms missing");
        outcome.metric("op_ms", 1.5, "ms");
        assert_eq!(outcome.check_metrics(&expected), Ok(()));
        outcome.metric("p99_ms", 9.0, "ms");
        assert!(outcome.check_metrics(&expected).is_err(), "p99_ms extra");
        let mut outcome = Outcome::default();
        outcome.metric("setup_s", 0.5, "s");
        outcome.metric("op_ms", 1.5, "s");
        assert!(outcome.check_metrics(&expected).is_err(), "wrong unit");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}

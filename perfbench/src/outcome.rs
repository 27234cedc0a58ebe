//! What one benchmark run reports: named metrics, output checks and the
//! operation counts, rendered as the final JSON line.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Manager operations attempted (responses, or clears).
    pub attempted: u64,
    /// Operations that failed their target.
    pub failed: u64,
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Output checks that failed, one line each.
    pub failures: Vec<String>,
    /// Human-readable context printed before the JSON line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records an output check; a failing one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds a line of context for the human reader.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// `true` when every check passed and every metric is finite.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`. An
    /// incorrect run counts every operation as failed.
    #[must_use]
    pub fn json(&self) -> String {
        let correct = self.correct();
        let attempted = self.attempted.max(1);
        let failed = if correct { self.failed } else { attempted };
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; such a metric already made the
            // run incorrect.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("run_s", 1.25, "s");
        o.metric("cost_ch", 7.0, "ch");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"cost_ch\": {\"value\": 7, \"unit\": \"ch\"}}}"
        );
    }

    #[test]
    fn a_failed_check_fails_every_operation() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        o.check(true, || unreachable!());
        assert!(o.correct());
        o.check(false, || "determinism".into());
        assert!(!o.correct());
        assert!(o
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 10,"));
    }

    #[test]
    fn a_non_finite_metric_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.metric("run_s", f64::NAN, "s");
        assert!(!o.correct());
        assert!(o.json().contains("\"value\": 0,"));
    }
}

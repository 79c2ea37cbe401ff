//! One run's result: the end-to-end metrics (untraced runs), the
//! per-layer metrics with their bases (traced runs), the output checks,
//! and the one-line JSON the benchmark prints last.

use std::fmt::Write as _;

use crate::util::Checks;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// What the value was computed from (sample counts, the two sides of
    /// a difference); printed with the traced run.
    pub base: String,
}

/// A whole run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (queries, ingests, passes' probes …).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics.
    pub per_layer: Vec<Metric>,
    /// Output checks.
    pub checks: Checks,
}

impl Report {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, base: String) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
            base,
        });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, base: String) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
            base,
        });
    }

    /// Prints every metric with its base to stderr, for people.
    pub fn print_human(&self, workload: &str, traced: bool) {
        eprintln!(
            "== {workload} ({}) ==",
            if traced { "traced" } else { "untraced" }
        );
        let list = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        for m in list {
            eprintln!(
                "  {:<36} {:>14.4} {:<8} [{}]",
                m.name, m.value, m.unit, m.base
            );
        }
        eprintln!(
            "  checks: {} passed, {} failed; operations {} attempted, {} failed",
            self.checks.passed(),
            self.checks.failures().len(),
            self.attempted,
            self.failed
        );
        for f in self.checks.failures() {
            eprintln!("  CHECK FAILED: {f}");
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and the
    /// metrics of this kind of run.
    pub fn json_line(&self, traced: bool) -> String {
        let list = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut metrics = String::new();
        for (i, m) in list.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.checks.all_passed() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

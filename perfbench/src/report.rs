//! What one benchmark run reports: named metrics with units, the attempted
//! and failed counts, and notes for the human-readable part of the output.

use crate::stats::Tail;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as registered in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Extra context printed next to the value (sample count, percentile
    /// actually used).
    pub detail: String,
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Every metric, in print order.
    pub metrics: Vec<Metric>,
    /// Selections attempted.
    pub attempted: u64,
    /// Selections refused, errored, lost or mismatched.
    pub failed: u64,
    /// Results that were not bit-identical to the reference.
    pub mismatches: u64,
    /// Free-form lines for the human-readable output.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push_detail(name, value, unit, String::new());
    }

    /// Adds a metric with a detail string.
    pub fn push_detail(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        detail: String,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            detail,
        });
    }

    /// Adds the median and tail of a latency distribution (ms) under the
    /// percentile rule.
    pub fn push_tail(&mut self, p50_name: &str, tail_name: &str, tail: Option<Tail>) {
        match tail {
            Some(t) => {
                self.push_detail(p50_name, t.p50, "ms", format!("n={}", t.n));
                self.push_detail(
                    tail_name,
                    t.value,
                    "ms",
                    format!(
                        "n={} reported p{:.1}{}",
                        t.n,
                        t.q * 100.0,
                        if t.full {
                            ""
                        } else {
                            " (sample too small for the named percentile)"
                        }
                    ),
                );
            }
            None => {
                self.push_detail(p50_name, 0.0, "ms", "no samples".into());
                self.push_detail(tail_name, 0.0, "ms", "no samples".into());
            }
        }
    }

    /// Adds the latency metrics of a phase run in several rounds spread
    /// over the run, from all rounds' samples pooled.
    pub fn push_rounds(
        &mut self,
        p50_name: &str,
        tail_name: &str,
        rounds: &[Vec<f64>],
        target: f64,
    ) {
        let pooled: Vec<f64> = rounds.iter().flatten().copied().collect();
        self.push_tail(p50_name, tail_name, crate::stats::tail(&pooled, target));
    }

    /// The share of attempted selections that failed.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

//! A run's outcome and its printed forms: a human table on stderr and the
//! one-line JSON result on stdout.

use serde::Value;

use crate::catalog::MetricSpec;
use crate::stats::{min_repeats, per_op_best, percentile, sorted, MIN_REPEATS};

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// Metric name (must be in the catalog).
    pub name: String,
    /// The value.
    pub value: f64,
    /// Samples behind it, when it summarizes a sample.
    pub samples: Option<usize>,
}

/// Everything a workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: invalid or infeasible results, failed or shed
    /// responses, transport errors, dropped jobs, failed checks.
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
    /// Reasons the run itself is invalid (generator lag, too few samples).
    pub invalid: Vec<String>,
    /// Measured metrics.
    pub metrics: Vec<Measured>,
}

const MAX_PROBLEMS: usize = 20;

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(problem.into());
        }
    }

    /// Records a failed check that is not itself an operation: it counts as
    /// one more attempted and failed operation.
    pub fn fail_check(&mut self, problem: impl Into<String>) {
        self.attempted += 1;
        self.fail(problem);
    }

    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, samples: Option<usize>) {
        self.metrics.push(Measured {
            name: name.into(),
            value,
            samples,
        });
    }

    /// Records a metric that may be missing for lack of samples; a missing
    /// one makes the run invalid.
    pub fn put_required(&mut self, name: &str, value: Option<(f64, usize)>, needed: &str) {
        match value {
            Some((v, n)) => self.put(name, v, Some(n)),
            None => self
                .invalid
                .push(format!("{name}: too few samples ({needed})")),
        }
    }

    /// Records `latency_us_p50` and `latency_us_p99` over operations, each
    /// operation standing as the best of its repeats (µs).
    pub fn put_latencies(&mut self, repeats_us: &[Vec<f64>]) {
        let fewest = min_repeats(repeats_us);
        if fewest < MIN_REPEATS {
            self.invalid.push(format!(
                "an operation was measured {fewest} times; every one needs {MIN_REPEATS}"
            ));
        }
        let best = sorted(&per_op_best(repeats_us));
        for (name, q) in [("latency_us_p50", 0.5), ("latency_us_p99", 0.99)] {
            let p = percentile(&best, q).map(|v| (v, best.len()));
            self.put_required(name, p, "need 1,000 distinct operations");
        }
    }

    /// Did every check pass and is the run valid?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty() && self.attempted > 0
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Orders the metrics as `specs` lists them. A spec this run did not
    /// measure reads 0 when `absent_is_zero` (a layer the workload never
    /// reaches did no work); otherwise it makes the run invalid. A measured
    /// value outside the catalog, or one that is not finite, is a bug and
    /// also invalidates the run.
    pub fn conform(&mut self, specs: &[MetricSpec], absent_is_zero: bool) {
        let mut ordered = Vec::with_capacity(specs.len());
        for spec in specs {
            match self.metrics.iter().find(|m| m.name == spec.name) {
                Some(m) if m.value.is_finite() => ordered.push(m.clone()),
                Some(m) => self
                    .invalid
                    .push(format!("{} is not finite: {}", m.name, m.value)),
                None if absent_is_zero => ordered.push(Measured {
                    name: spec.name.clone(),
                    value: 0.0,
                    samples: None,
                }),
                None => self.invalid.push(format!("{} was not measured", spec.name)),
            }
        }
        for m in &self.metrics {
            if !specs.iter().any(|s| s.name == m.name) {
                self.invalid
                    .push(format!("{} is not in the catalog", m.name));
            }
        }
        self.metrics = ordered;
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// `metrics` as `{name: {value, unit}}`, values at full precision.
    pub fn json_line(&self, specs: &[MetricSpec]) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let unit = specs
                    .iter()
                    .find(|s| s.name == m.name)
                    .map_or("", |s| s.unit);
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Num(m.value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("conformed metrics are finite")
    }

    /// Human-readable summary: every metric with unit, direction, sample
    /// count and meaning, then the error rate and any problems.
    pub fn table(&self, workload: &str, specs: &[MetricSpec]) -> String {
        let mut out = format!("perfbench {workload}\n");
        for m in &self.metrics {
            let Some(spec) = specs.iter().find(|s| s.name == m.name) else {
                continue;
            };
            let n = m.samples.map_or(String::new(), |n| format!("n={n}"));
            out.push_str(&format!(
                "  {:<40} {:>14.4} {:<8} {:<6} {:>8}  {}\n",
                m.name,
                m.value,
                spec.unit,
                spec.better.as_str(),
                n,
                spec.about
            ));
        }
        let rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        out.push_str(&format!(
            "  error_rate {rate} ({} failed / {} attempted)\n",
            self.failed, self.attempted
        ));
        for p in &self.problems {
            out.push_str(&format!("  FAILED: {p}\n"));
        }
        for p in &self.invalid {
            out.push_str(&format!("  INVALID: {p}\n"));
        }
        out
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Better, MetricSpec};

    fn specs() -> Vec<MetricSpec> {
        ["a_ms", "b"]
            .iter()
            .map(|n| MetricSpec {
                name: n.to_string(),
                unit: "ms",
                better: Better::Lower,
                about: "",
            })
            .collect()
    }

    #[test]
    fn json_line_carries_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.put("b", 0.125, None);
        o.put("a_ms", 1.0 / 3.0, Some(7));
        o.conform(&specs(), false);
        assert!(o.correct());
        let line = o.json_line(&specs());
        let v: Value = serde_json::from_str(&line).unwrap();
        let Value::Object(top) = &v else { panic!() };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Value::Object(metrics) = v.field("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(metrics[0].0, "a_ms", "catalog order");
        // full precision survives the round trip
        assert_eq!(metrics[0].1.field("value").unwrap(), &Value::Num(1.0 / 3.0));
        assert_eq!(
            metrics[0].1.field("unit").unwrap(),
            &Value::Str("ms".into())
        );
    }

    #[test]
    fn conform_flags_missing_unknown_and_non_finite_metrics() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.put("a_ms", f64::NAN, None);
        o.put("zzz", 1.0, None);
        o.conform(&specs(), false);
        assert_eq!(o.invalid.len(), 3, "{:?}", o.invalid);
        assert!(!o.correct());

        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.conform(&specs(), true);
        assert!(o.correct());
        assert_eq!(o.get("a_ms"), Some(0.0));
    }

    #[test]
    fn failures_and_empty_runs_are_not_correct() {
        let mut o = Outcome::default();
        assert!(!o.correct(), "nothing attempted");
        o.attempted = 2;
        o.fail("bad");
        assert!(!o.correct());
        o.fail_check("sample mismatch");
        assert_eq!((o.attempted, o.failed), (3, 2));
    }
}

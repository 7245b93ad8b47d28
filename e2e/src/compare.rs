//! `e2e --compare a.json b.json`: one row per (workload, metric) with the
//! relative change, the metric's bound and a verdict.  The tool for the
//! repeatability check of this benchmark and for every later change.

use crate::metrics::{end_to_end, field, median, spread, Better, MetricDef, RunResult};
use serde::json::Value;
use std::collections::BTreeMap;

/// What a results file records about where and how it was measured.
/// Results from different kernel arms or hosts are never diffed.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    pub seed: u64,
    pub seconds: u64,
    pub nproc: u64,
    pub kernel_arch: String,
    pub qkernel_arch: String,
    pub commit: String,
}

impl Stamp {
    pub fn to_value(&self) -> Value {
        let n = |v: u64| Value::Number(v as f64);
        let s = |v: &str| Value::String(v.to_string());
        Value::Object(vec![
            ("seed".into(), n(self.seed)),
            ("seconds".into(), n(self.seconds)),
            ("nproc".into(), n(self.nproc)),
            ("kernel_arch".into(), s(&self.kernel_arch)),
            ("qkernel_arch".into(), s(&self.qkernel_arch)),
            ("commit".into(), s(&self.commit)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let n = |key: &str| match field(v, key)? {
            Value::Number(n) => Ok(*n as u64),
            other => Err(format!("stamp `{key}` is not a number: {other:?}")),
        };
        let s = |key: &str| match field(v, key)? {
            Value::String(s) => Ok(s.clone()),
            other => Err(format!("stamp `{key}` is not a string: {other:?}")),
        };
        Ok(Self {
            seed: n("seed")?,
            seconds: n("seconds")?,
            nproc: n("nproc")?,
            kernel_arch: s("kernel_arch")?,
            qkernel_arch: s("qkernel_arch")?,
            commit: s("commit")?,
        })
    }

    /// Whether numbers under `other` may be set beside numbers under `self`.
    fn comparable(&self, other: &Self) -> Result<(), String> {
        let same = self.nproc == other.nproc
            && self.kernel_arch == other.kernel_arch
            && self.qkernel_arch == other.qkernel_arch
            && self.seconds == other.seconds;
        if same {
            Ok(())
        } else {
            Err(format!(
                "results were measured under different conditions and are not diffed:\n  \
                 a: {self:?}\n  b: {other:?}"
            ))
        }
    }
}

/// One run of one workload inside a results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: String,
    pub traced: bool,
    pub result: RunResult,
}

/// A results file: what a full run of the benchmark writes.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub stamp: Stamp,
    pub runs: Vec<Run>,
}

impl Results {
    pub fn to_json(&self) -> String {
        let runs = self
            .runs
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("workload".into(), Value::String(r.workload.clone())),
                    ("traced".into(), Value::Bool(r.traced)),
                    ("result".into(), r.result.to_value()),
                ])
            })
            .collect();
        Value::Object(vec![
            ("stamp".into(), self.stamp.to_value()),
            ("runs".into(), Value::Array(runs)),
        ])
        .render()
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let Value::Array(entries) = field(&v, "runs")? else {
            return Err("`runs` is not an array".into());
        };
        let mut runs = Vec::with_capacity(entries.len());
        for entry in entries {
            let (Value::String(workload), Value::Bool(traced)) =
                (field(entry, "workload")?, field(entry, "traced")?)
            else {
                return Err("a run needs a workload name and a traced flag".into());
            };
            runs.push(Run {
                workload: workload.clone(),
                traced: *traced,
                result: RunResult::from_value(field(entry, "result")?)?,
            });
        }
        Ok(Self {
            stamp: Stamp::from_value(field(&v, "stamp")?)?,
            runs,
        })
    }

    /// Values per (workload, metric) over the untraced or traced runs, in
    /// first-seen order.
    fn samples(&self, traced: bool) -> Vec<(Key, Vec<f64>)> {
        let mut out: Vec<(Key, Vec<f64>)> = Vec::new();
        for run in self.runs.iter().filter(|r| r.traced == traced) {
            for (name, value, _) in &run.result.metrics {
                let key = (run.workload.clone(), name.clone());
                match out.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, values)) => values.push(*value),
                    None => out.push((key, vec![*value])),
                }
            }
        }
        out
    }
}

/// (workload, metric).
type Key = (String, String);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The run-to-run spread exceeds the bound and the runs overlap.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub base: f64,
    pub new: f64,
    /// `(new − base) / base`, signed as measured.
    pub change: f64,
    /// The larger of the two sides' interquartile spreads, over the median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judges `b` against the base `a`.  A metric is *worse* when its median
/// worsened by more than the bound, *better* when it improved by more than
/// the base's own spread (by more than the bound when a single base run
/// gives no spread).  When the spread exceeds the bound the runs decide:
/// only if every run of one side beats every run of the other is there a
/// verdict at all.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Row {
    let (base, new) = (median(a), median(b));
    let change = if base == 0.0 {
        0.0
    } else {
        (new - base) / base.abs()
    };
    let worsening = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread_seen = spread(a).max(spread(b));
    let all = |pred: fn(f64, f64) -> bool| a.iter().all(|&x| b.iter().all(|&y| pred(x, y)));
    let (b_beats_a, a_beats_b) = match better {
        Better::Lower => (all(|x, y| y < x), all(|x, y| x < y)),
        Better::Higher => (all(|x, y| y > x), all(|x, y| x > y)),
    };
    let verdict = if spread_seen > bound {
        if b_beats_a {
            Verdict::Better
        } else if a_beats_b && worsening > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound {
        Verdict::Worse
    } else if -worsening > if a.len() >= 2 { spread(a) } else { bound } {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    Row {
        base,
        new,
        change,
        spread: spread_seen,
        verdict,
    }
}

/// Compares two results files; returns the report and whether any
/// end-to-end metric came out worse.
pub fn compare(a: &Results, b: &Results) -> Result<(String, bool), String> {
    a.stamp.comparable(&b.stamp)?;
    let defs: BTreeMap<String, MetricDef> = end_to_end()
        .into_iter()
        .map(|d| (d.name.clone(), d))
        .collect();
    let mut out = format!(
        "base a: commit {} seed {} ({} runs)   new b: commit {} seed {} ({} runs)\n\
         {:<16} {:<18} {:<7} {:>12} {:>12} {:>9} {:>7} {:>7}  verdict\n",
        a.stamp.commit,
        a.stamp.seed,
        a.runs.len(),
        b.stamp.commit,
        b.stamp.seed,
        b.runs.len(),
        "workload",
        "metric",
        "better",
        "a (base)",
        "b",
        "b vs a",
        "spread",
        "bound",
    );
    let mut any_worse = false;
    let b_samples: BTreeMap<_, _> = b.samples(false).into_iter().collect();
    for ((workload, metric), a_values) in a.samples(false) {
        let key = (workload, metric);
        let (Some(b_values), Some(d)) = (b_samples.get(&key), defs.get(&key.1)) else {
            return Err(format!(
                "{} / {} is missing from b or from the metric table",
                key.0, key.1
            ));
        };
        let bound = d.bound.ok_or("end-to-end metrics carry a bound")?;
        let row = judge(&a_values, b_values, d.better, bound);
        any_worse |= row.verdict == Verdict::Worse;
        out.push_str(&format!(
            "{:<16} {:<18} {:<7} {:>12.4} {:>12.4} {:>+8.2}% {:>6.2}% {:>6.0}%  {}\n",
            key.0,
            key.1,
            d.better.label(),
            row.base,
            row.new,
            row.change * 100.0,
            row.spread * 100.0,
            bound * 100.0,
            row.verdict.label(),
        ));
    }
    // Per-layer numbers carry no bound: they explain, they do not gate.
    let b_traced: BTreeMap<_, _> = b.samples(true).into_iter().collect();
    for ((workload, metric), a_values) in a.samples(true) {
        let (base, key) = (median(&a_values), (workload, metric));
        let Some(new) = b_traced.get(&key).map(|v| median(v)) else {
            continue;
        };
        if base == 0.0 && new == 0.0 {
            continue;
        }
        out.push_str(&format!(
            "{:<16} {:<40} {:>12.4} {:>12.4} {:>+8.2}% of a\n",
            key.0,
            key.1,
            base,
            new,
            if base == 0.0 {
                0.0
            } else {
                (new - base) / base.abs() * 100.0
            },
        ));
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_needs_more_than_the_bound() {
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&base, &[104.0, 105.0, 103.0], Better::Lower, 0.05).verdict,
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&base, &[107.0, 108.0, 106.0], Better::Lower, 0.05).verdict,
            Verdict::Worse
        );
        // The same numbers on a higher-is-better metric are an improvement.
        assert_eq!(
            judge(&base, &[107.0, 108.0, 106.0], Better::Higher, 0.05).verdict,
            Verdict::Better
        );
        assert_eq!(
            judge(&base, &[93.0, 94.0, 92.0], Better::Higher, 0.05).verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn better_needs_more_than_the_bases_own_spread() {
        let base = [100.0, 104.0, 96.0, 102.0, 98.0]; // spread 0.06
        assert_eq!(
            judge(&base, &[97.0, 98.0, 96.0], Better::Lower, 0.10).verdict,
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&base, &[91.0, 92.0, 90.0], Better::Lower, 0.10).verdict,
            Verdict::Better
        );
        // A single base run has no spread: the bound stands in for it.
        assert_eq!(
            judge(&[100.0], &[97.0], Better::Lower, 0.05).verdict,
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&[100.0], &[94.0], Better::Lower, 0.05).verdict,
            Verdict::Better
        );
    }

    #[test]
    fn spread_above_the_bound_is_unresolved_unless_every_run_agrees() {
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        let row = judge(
            &noisy,
            &[105.0, 125.0, 85.0, 110.0, 95.0],
            Better::Lower,
            0.10,
        );
        assert!(row.spread > 0.10);
        assert_eq!(row.verdict, Verdict::Unresolved);
        // Every run of b beats every run of a: resolved despite the spread.
        assert_eq!(
            judge(&noisy, &[60.0, 70.0, 50.0], Better::Lower, 0.10).verdict,
            Verdict::Better
        );
        assert_eq!(
            judge(&noisy, &[160.0, 170.0, 150.0], Better::Lower, 0.10).verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn exact_counts_compare_exactly() {
        let row = judge(&[1.0, 1.0], &[1.0, 1.0], Better::Higher, 0.05);
        assert_eq!((row.change, row.verdict), (0.0, Verdict::WithinBound));
    }

    fn results(commit: &str, latency: f64) -> Results {
        let result = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: end_to_end()
                .iter()
                .map(|d| (d.name.clone(), latency, d.unit.to_string()))
                .collect(),
        };
        Results {
            stamp: Stamp {
                seed: 7,
                seconds: 20,
                nproc: 2,
                kernel_arch: "avx512".into(),
                qkernel_arch: "vnni".into(),
                commit: commit.into(),
            },
            runs: vec![Run {
                workload: "tinyvgg_tcp".into(),
                traced: false,
                result,
            }],
        }
    }

    #[test]
    fn results_file_round_trips_and_compares() {
        let a = results("aaaa", 2.5);
        assert_eq!(Results::from_json(&a.to_json()).unwrap(), a);
        let (report, worse) = compare(&a, &results("bbbb", 2.5)).unwrap();
        assert!(!worse, "{report}");
        // Every metric 40 % higher: the lower-is-better ones are worse.
        let (report, worse) = compare(&a, &results("bbbb", 3.5)).unwrap();
        assert!(worse && report.contains("worse"), "{report}");
    }

    #[test]
    fn different_arms_or_hosts_are_never_diffed() {
        let a = results("aaaa", 2.5);
        let mut b = results("bbbb", 2.5);
        b.stamp.kernel_arch = "scalar".into();
        assert!(compare(&a, &b).is_err());
        let mut b = results("bbbb", 2.5);
        b.stamp.nproc = 8;
        assert!(compare(&a, &b).is_err());
    }
}

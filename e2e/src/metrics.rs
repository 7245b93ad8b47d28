//! The metric tables (mirrored by `BENCHMARK.json`), the statistics every
//! reported number goes through, and the result line's JSON schema.

use serde::json::Value;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One row of a metric table.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression; per-layer metrics carry none.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics.  Every workload reports every one of them, so
/// each is defined per *operation*: an image on the serving workloads, one
/// `DistrEdge::plan` call on `plan_vgg16`.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        def("latency_ms_p50", "ms", Lower, Some(0.25)),
        def("throughput_per_s", "1/s", Higher, Some(0.25)),
        def("peak_rss_mb", "MB", Lower, Some(0.25)),
        def("quality", "ratio", Higher, Some(0.25)),
        def("setup_s", "s", Lower, Some(0.25)),
    ]
}

/// Conv layers of the largest served model (VGG-11); shallower models
/// leave the upper indices at 0.
pub const CONV_SLOTS: usize = 8;
/// FC layers of the served models' heads.
pub const FC_SLOTS: usize = 3;
/// Names of the three planning scenarios, as metric suffixes.
pub const SCENARIOS: [&str; 3] = ["DB50", "NC", "LB"];
/// The telemetry critical-path stages reported as `edge-runtime.stage.*`.
pub const STAGES: [&str; 7] = ["scatter", "recv", "compute", "head", "tx", "merge", "wait"];

/// The per-layer metrics of the traced pass.  A metric a workload does not
/// exercise reads 0 there (the contract wants every name on every run).
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut v = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        v.push(def(name, unit, better, None));
    };
    for i in 0..CONV_SLOTS {
        add(&format!("tensor.conv_ms.L{i}"), "ms", Lower);
    }
    for i in 0..CONV_SLOTS {
        add(&format!("tensor.conv_gflops.L{i}"), "GFLOP/s", Higher);
    }
    for i in 0..FC_SLOTS {
        add(&format!("tensor.fc_ms.L{i}"), "ms", Lower);
    }
    add("tensor.pool_ms_sum", "ms", Lower);
    add("tensor.kernel_sum_ms", "ms", Lower);
    add("cnn-model.pack_ms", "ms", Lower);
    add("cnn-model.resident_mb", "MB", Lower);
    add("cnn-model.run_full_packed_ms", "ms", Lower);
    add("cnn-model.exec_self_ms", "ms", Lower);
    add("cnn-model.band_sum_ms", "ms", Lower);
    add("cnn-model.band_critical_ms", "ms", Lower);
    add("cnn-model.halo_recompute_ratio", "ratio", Lower);
    add("cnn-model.head_ms", "ms", Lower);
    add("edge-runtime.deploy_s", "s", Lower);
    add("edge-runtime.submit_us_p50", "us", Lower);
    for codec in ["f32", "q8"] {
        add(&format!("edge-runtime.wire.encode_us.{codec}"), "us", Lower);
        add(&format!("edge-runtime.wire.decode_us.{codec}"), "us", Lower);
    }
    add("edge-runtime.transport.frame_us.chan", "us", Lower);
    add("edge-runtime.transport.frame_us.tcp", "us", Lower);
    add("edge-runtime.frames_per_image", "count", Lower);
    add("edge-runtime.wire_bytes_per_image", "B", Lower);
    for stage in STAGES {
        add(&format!("edge-runtime.stage.{stage}_ms"), "ms", Lower);
    }
    add("edge-runtime.compute_ms_per_image", "ms", Lower);
    add("edge-runtime.compute_inflation", "ratio", Lower);
    add("edge-runtime.band_imbalance", "ratio", Lower);
    add("edge-runtime.apply_plan_ms", "ms", Lower);
    add("edge-runtime.latency_ms_p90", "ms", Lower);
    add("edge-runtime.latency_ms_p99", "ms", Lower);
    add("edge-runtime.output_err_frac", "ratio", Lower);
    add("ledger.residual_ms", "ms", Lower);
    add("ledger.residual_frac", "ratio", Lower);
    add("ledger.dist_over_single", "ratio", Lower);
    add("edgesim.pred_over_meas_ips", "ratio", Higher);
    add("edgesim.simulate_ms", "ms", Lower);
    add("edge-telemetry.overhead_frac", "ratio", Lower);
    add("edge-telemetry.spans_per_image", "count", Lower);
    add("distredge.profiles_collect_ms", "ms", Lower);
    add("distredge.lc_pss_ms", "ms", Lower);
    add("distredge.osds_train_ms", "ms", Lower);
    add("distredge.osds_episodes_per_s", "1/s", Higher);
    add("distredge.mdp_step_us", "us", Lower);
    add("distredge.baselines_plan_ms", "ms", Lower);
    for s in SCENARIOS {
        add(&format!("distredge.plan_s.{s}"), "s", Lower);
    }
    for s in SCENARIOS {
        add(&format!("distredge.quality.{s}"), "ratio", Higher);
    }
    add("neuro.ddpg_update_us", "us", Lower);
    add("neuro.ddpg_act_us", "us", Lower);
    v
}

/// What one workload run produced: named values plus the operation count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// One run as the contract's result line and the results files store it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// Projects an outcome onto a metric table.  An end-to-end metric the
    /// workload did not produce is a bug in the benchmark, not a 0.
    pub fn from_outcome(outcome: &Outcome, table: &[MetricDef]) -> Result<Self, String> {
        let mut metrics = Vec::with_capacity(table.len());
        for d in table {
            let value = match outcome.values.get(&d.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {} is not finite: {v}", d.name)),
                None if d.bound.is_some() => {
                    return Err(format!("workload produced no value for {}", d.name))
                }
                None => 0.0,
            };
            metrics.push((d.name.clone(), value, d.unit.to_string()));
        }
        Ok(Self {
            correct: outcome.failed == 0,
            attempted: outcome.attempted,
            failed: outcome.failed,
            metrics,
        })
    }

    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Value::Object(vec![
                    ("value".to_string(), Value::Number(*value)),
                    ("unit".to_string(), Value::String(unit.clone())),
                ]);
                (name.clone(), entry)
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            (
                "attempted".to_string(),
                Value::Number(self.attempted as f64),
            ),
            ("failed".to_string(), Value::Number(self.failed as f64)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }

    pub fn from_value(v: &Value) -> Result<Self, String> {
        let count = |key: &str| match field(v, key)? {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            other => Err(format!("`{key}` is not a whole number: {other:?}")),
        };
        let correct = match field(v, "correct")? {
            Value::Bool(b) => *b,
            other => return Err(format!("`correct` is not a bool: {other:?}")),
        };
        let Value::Object(entries) = field(v, "metrics")? else {
            return Err("`metrics` is not an object".into());
        };
        let mut metrics = Vec::with_capacity(entries.len());
        for (name, entry) in entries {
            let (Value::Number(value), Value::String(unit)) =
                (field(entry, "value")?, field(entry, "unit")?)
            else {
                return Err(format!("metric {name} needs a numeric value and a unit"));
            };
            metrics.push((name.clone(), *value, unit.clone()));
        }
        Ok(Self {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// Looks up `key` in a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    match v {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key `{key}`")),
        _ => Err(format!("expected an object holding `{key}`")),
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest of repeated timings of one thing.  Other tenants of a shared
/// box only ever add time, so this is the program's own cost.
pub fn calmest(timings: &[f64]) -> f64 {
    timings.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile (`pct` in 0..=100) and the number of samples
/// strictly beyond its rank.
pub fn percentile(values: &[f64], pct: f64) -> (f64, usize) {
    let v = sorted(values);
    if v.is_empty() {
        return (0.0, 0);
    }
    let rank = ((pct / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// The percentile rule: report a percentile only when at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supported(samples: usize, pct: f64) -> bool {
    let rank = ((pct / 100.0 * samples as f64).ceil() as usize).clamp(1, samples.max(1));
    samples >= rank + MIN_BEYOND
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns
/// (exclusive method); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// the contract and `--compare` judge against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 120 samples: p90 is rank 108, twelve beyond; p95 leaves only six.
        assert!(supported(120, 90.0));
        assert!(!supported(120, 95.0));
        // 100 samples: p90 leaves exactly ten.
        assert!(supported(100, 90.0));
        assert!(!supported(99, 90.0));
        assert!(!supported(12, 50.0));
        assert!(supported(20, 50.0));
        assert!(!supported(0, 50.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), (108.0, 12));
        assert_eq!(percentile(&v, 50.0), (60.0, 60));
        assert_eq!(percentile(&v, 100.0), (120.0, 0));
        assert_eq!(percentile(&[], 50.0), (0.0, 0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn result_line_round_trips_through_json() {
        let mut outcome = Outcome {
            attempted: 1234,
            failed: 0,
            ..Outcome::default()
        };
        for (i, d) in end_to_end().iter().enumerate() {
            outcome.set(&d.name, 1.5 + i as f64 * 0.123_456_789);
        }
        let result = RunResult::from_outcome(&outcome, &end_to_end()).unwrap();
        assert!(result.correct);
        let text = result.to_value().render();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(RunResult::from_value(&parsed).unwrap(), result);
        // The contract's exact top-level keys, in order.
        let Value::Object(entries) = &parsed else {
            panic!("result line is not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error_but_per_layer_reads_zero() {
        let outcome = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        assert!(RunResult::from_outcome(&outcome, &end_to_end()).is_err());
        let traced = RunResult::from_outcome(&outcome, &per_layer()).unwrap();
        assert_eq!(traced.metrics.len(), per_layer().len());
        assert!(traced.metrics.iter().all(|(_, v, _)| *v == 0.0));
    }

    #[test]
    fn metric_names_fit_the_contract() {
        let defs: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric names must be unique");
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        for d in &defs {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}

//! Running distribution methods on scenarios and measuring them with the
//! ground-truth simulator — the machinery behind Figs. 5–11 and 15.

use crate::api::{DistrEdge, DistrEdgeConfig};
use crate::baselines::Method;
use crate::profiles::ClusterProfiles;
use crate::strategy::DistributionStrategy;
use crate::Result;
use cnn_model::Model;
use edgesim::sim::simulate_ground_truth;
use edgesim::{Cluster, SimOptions, SimReport};
use serde::{Deserialize, Serialize};

/// The measured outcome of one (method, scenario, model) cell of a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodResult {
    /// Method name.
    pub method: String,
    /// Images per second.
    pub ips: f64,
    /// Mean per-image latency (ms).
    pub mean_latency_ms: f64,
    /// Maximum per-device computing latency (ms) — light bars of Fig. 15.
    pub max_compute_ms: f64,
    /// Maximum per-device transmission latency (ms) — dark bars of Fig. 15.
    pub max_transmission_ms: f64,
    /// Number of layer-volumes the strategy uses.
    pub num_volumes: usize,
}

impl MethodResult {
    fn from_report(method: &str, report: &SimReport, num_volumes: usize) -> Self {
        Self {
            method: method.to_string(),
            ips: report.ips,
            mean_latency_ms: report.mean_latency_ms,
            max_compute_ms: report.max_compute_ms(),
            max_transmission_ms: report.max_transmission_ms(),
            num_volumes,
        }
    }
}

/// Measures a concrete strategy on a cluster with the ground-truth simulator.
pub fn evaluate_strategy(
    model: &Model,
    cluster: &Cluster,
    strategy: &DistributionStrategy,
    options: SimOptions,
) -> Result<SimReport> {
    let plan = strategy.to_plan(model)?;
    plan.validate(model)?;
    Ok(simulate_ground_truth(model, cluster, &plan, options))
}

/// Plans a method (baseline or DistrEdge) on a cluster and measures it.
pub fn evaluate_method(
    method: Method,
    model: &Model,
    cluster: &Cluster,
    config: &DistrEdgeConfig,
    options: SimOptions,
) -> Result<MethodResult> {
    let strategy = plan_method(method, model, cluster, config)?;
    let report = evaluate_strategy(model, cluster, &strategy, options)?;
    Ok(MethodResult::from_report(
        method.name(),
        &report,
        strategy.num_volumes(),
    ))
}

/// Plans a strategy for any method, baselines and DistrEdge alike.
pub fn plan_method(
    method: Method,
    model: &Model,
    cluster: &Cluster,
    config: &DistrEdgeConfig,
) -> Result<DistributionStrategy> {
    match method {
        Method::DistrEdge => Ok(DistrEdge::plan(model, cluster, config)?.strategy),
        baseline => {
            let profiles = ClusterProfiles::collect(model, cluster, &config.profiles);
            let bandwidths = cluster.mean_bandwidths();
            baseline.plan_baseline(model, &profiles, &bandwidths)
        }
    }
}

/// Evaluates every method of `methods` on the same cluster, returning one
/// row per method (a column group of the paper's bar charts).
pub fn compare_methods(
    methods: &[Method],
    model: &Model,
    cluster: &Cluster,
    config: &DistrEdgeConfig,
    options: SimOptions,
) -> Result<Vec<MethodResult>> {
    methods
        .iter()
        .map(|&m| evaluate_method(m, model, cluster, config, options))
        .collect()
}

/// The speed-up of DistrEdge over the best-performing baseline in a set of
/// results (the headline 1.1–3× number).
pub fn distredge_speedup(results: &[MethodResult]) -> Option<f64> {
    let distredge = results.iter().find(|r| r.method == "DistrEdge")?;
    let best_baseline = results
        .iter()
        .filter(|r| r.method != "DistrEdge")
        .map(|r| r.ips)
        .fold(f64::MIN, f64::max);
    if best_baseline <= 0.0 {
        return None;
    }
    Some(distredge.ips / best_baseline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Scenario;
    use cnn_model::{LayerOp, Model};
    use tensor::Shape;

    fn model() -> Model {
        Model::new(
            "t",
            Shape::new(3, 64, 64),
            &[
                LayerOp::conv(24, 3, 1, 1),
                LayerOp::conv(24, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::conv(48, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::fc(10),
            ],
        )
        .unwrap()
    }

    fn tiny_config(n: usize) -> DistrEdgeConfig {
        let mut c = DistrEdgeConfig::fast(n).with_episodes(20).with_seed(11);
        c.lcpss.num_random_splits = 10;
        c.osds.ddpg.actor_hidden = [24, 16, 12];
        c.osds.ddpg.critic_hidden = [24, 16, 12, 12];
        c
    }

    fn options() -> SimOptions {
        SimOptions {
            num_images: 5,
            start_ms: 0.0,
        }
    }

    #[test]
    fn baselines_evaluate_on_a_heterogeneous_cluster() {
        let m = model();
        let cluster = Scenario::group_db(100.0).build_constant();
        let cfg = tiny_config(4);
        for method in [
            Method::Offload,
            Method::DeepThings,
            Method::Aofl,
            Method::CoEdge,
        ] {
            let r = evaluate_method(method, &m, &cluster, &cfg, options()).unwrap();
            assert!(r.ips > 0.0, "{} has zero IPS", r.method);
            assert!(r.mean_latency_ms > 0.0);
        }
    }

    #[test]
    fn coedge_transmits_more_than_deepthings() {
        // Layer-by-layer re-transmission should show up as a larger maximum
        // transmission latency than the fused single volume.
        let m = model();
        let cluster = Scenario::group_db(50.0).build_constant();
        let cfg = tiny_config(4);
        let coedge = evaluate_method(Method::CoEdge, &m, &cluster, &cfg, options()).unwrap();
        let deep = evaluate_method(Method::DeepThings, &m, &cluster, &cfg, options()).unwrap();
        assert!(coedge.max_transmission_ms > deep.max_transmission_ms);
    }

    #[test]
    fn distredge_evaluates_and_compares() {
        let m = model();
        let cluster = Scenario::new(
            "mini",
            vec![
                device_profile::DeviceType::Xavier,
                device_profile::DeviceType::Nano,
            ],
            vec![200.0, 200.0],
        )
        .build_constant();
        let cfg = tiny_config(2);
        let results = compare_methods(
            &[Method::DeepThings, Method::Offload, Method::DistrEdge],
            &m,
            &cluster,
            &cfg,
            options(),
        )
        .unwrap();
        assert_eq!(results.len(), 3);
        let speedup = distredge_speedup(&results).unwrap();
        assert!(speedup > 0.0);
    }

    #[test]
    fn speedup_requires_distredge_row() {
        let rows = vec![MethodResult {
            method: "AOFL".into(),
            ips: 10.0,
            mean_latency_ms: 100.0,
            max_compute_ms: 1.0,
            max_transmission_ms: 1.0,
            num_volumes: 2,
        }];
        assert!(distredge_speedup(&rows).is_none());
    }
}

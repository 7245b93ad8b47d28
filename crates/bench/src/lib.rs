//! Shared harness for the figure-reproduction binaries.
//!
//! Every `fig*` binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation section: it builds the scenario, plans every method,
//! measures it with the ground-truth simulator and prints the same rows /
//! series the paper reports (IPS per method, latency over time, …).  The
//! binaries share the environment-variable knobs below so the whole suite
//! can run in CI-scale or paper-scale mode; with no knob set a binary runs
//! at the CI-scale defaults listed below.
//!
//! Knobs (all optional):
//!
//! * `DISTREDGE_EPISODES` — OSDS training episodes per scenario (default 300).
//! * `DISTREDGE_IMAGES` — images streamed per measurement (default 30).
//! * `DISTREDGE_RANDOM_SPLITS` — LC-PSS |Rrs| (default 40).
//! * `DISTREDGE_SEED` — global seed (default 7).
//! * `DISTREDGE_PAPER_SCALE=1` — use the paper's full hyper-parameters
//!   (4000 episodes, {400,200,100} networks); expect hours of runtime.

use distredge::{DistrEdgeConfig, Method, MethodResult, Scenario};
use edgesim::{Cluster, SimOptions};
use serde::Serialize;
use std::time::Instant;

/// Runtime knobs shared by every figure binary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HarnessConfig {
    /// OSDS episodes for DistrEdge planning.
    pub episodes: usize,
    /// Images streamed per measurement.
    pub images: usize,
    /// LC-PSS random split count.
    pub random_splits: usize,
    /// Global seed.
    pub seed: u64,
    /// Whether the paper-scale hyper-parameters are requested.
    pub paper_scale: bool,
}

impl HarnessConfig {
    /// Reads the configuration from the environment.
    pub fn from_env() -> Self {
        let get = |key: &str, default: usize| -> usize {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        Self {
            episodes: get("DISTREDGE_EPISODES", 300),
            images: get("DISTREDGE_IMAGES", 30),
            random_splits: get("DISTREDGE_RANDOM_SPLITS", 40),
            seed: get("DISTREDGE_SEED", 7) as u64,
            paper_scale: std::env::var("DISTREDGE_PAPER_SCALE")
                .map(|v| v == "1")
                .unwrap_or(false),
        }
    }

    /// The DistrEdge planning configuration for a cluster of `n` devices.
    pub fn distredge_config(&self, n: usize) -> DistrEdgeConfig {
        if self.paper_scale {
            DistrEdgeConfig::paper(n).with_seed(self.seed)
        } else {
            let mut cfg = DistrEdgeConfig::fast(n)
                .with_episodes(self.episodes)
                .with_seed(self.seed);
            cfg.lcpss.num_random_splits = self.random_splits;
            cfg
        }
    }

    /// Simulation options for measurements.
    pub fn sim_options(&self) -> SimOptions {
        SimOptions {
            num_images: self.images,
            start_ms: 0.0,
        }
    }
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            episodes: 300,
            images: 30,
            random_splits: 40,
            seed: 7,
            paper_scale: false,
        }
    }
}

/// One labelled group of method results (one cluster of bars in a figure).
#[derive(Debug, Clone, Serialize)]
pub struct FigureGroup {
    /// Group label (e.g. `"DB @ 50Mbps"`).
    pub label: String,
    /// One result per method.
    pub results: Vec<MethodResult>,
}

impl FigureGroup {
    /// DistrEdge speed-up over the best baseline in this group.
    pub fn speedup(&self) -> Option<f64> {
        distredge::evaluate::distredge_speedup(&self.results)
    }
}

/// Runs every method of `methods` on one scenario cluster.
pub fn run_group(
    label: impl Into<String>,
    methods: &[Method],
    model: &cnn_model::Model,
    cluster: &Cluster,
    harness: &HarnessConfig,
) -> FigureGroup {
    let label = label.into();
    let cfg = harness.distredge_config(cluster.len());
    let started = Instant::now();
    let results =
        distredge::evaluate::compare_methods(methods, model, cluster, &cfg, harness.sim_options())
            .expect("method evaluation failed");
    eprintln!(
        "[group {label}] {} methods in {:.1?}",
        results.len(),
        started.elapsed()
    );
    FigureGroup { label, results }
}

/// Builds the standard heterogeneous cluster of a scenario with shaped WiFi
/// links, seeded from the harness seed.
pub fn build_cluster(scenario: &Scenario, harness: &HarnessConfig) -> Cluster {
    scenario.build(harness.seed)
}

/// Prints a figure as an aligned text table: one row per group, one column
/// per method, IPS in each cell, and a note under it for every row that is
/// a sequential approximation of a branching zoo model.
pub fn print_ips_table(title: &str, groups: &[FigureGroup]) {
    println!("\n=== {title} ===");
    if groups.is_empty() {
        println!("(no data)");
        return;
    }
    let methods: Vec<&str> = groups[0]
        .results
        .iter()
        .map(|r| r.method.as_str())
        .collect();
    print!("{:<18}", "group");
    for m in &methods {
        print!("{m:>14}");
    }
    println!("{:>12}", "speedup");
    for g in groups {
        print!("{:<18}", g.label);
        for r in &g.results {
            print!("{:>14.2}", r.ips);
        }
        match g.speedup() {
            Some(s) => println!("{s:>11.2}x"),
            None => println!("{:>12}", "-"),
        }
    }
    for (name, what) in cnn_model::zoo::SEQUENTIAL_APPROXIMATIONS {
        if groups.iter().any(|g| g.label == *name) {
            println!("note: {name} is a sequential approximation ({what})");
        }
    }
}

/// Prints a latency-breakdown table (Fig. 15): max transmission / compute
/// latency per method.
pub fn print_breakdown_table(title: &str, group: &FigureGroup) {
    println!("\n=== {title} ===");
    println!(
        "{:<16}{:>18}{:>18}{:>12}",
        "method", "max trans (ms)", "max compute (ms)", "IPS"
    );
    for r in &group.results {
        println!(
            "{:<16}{:>18.2}{:>18.2}{:>12.2}",
            r.method, r.max_transmission_ms, r.max_compute_ms, r.ips
        );
    }
}

/// Serialises any result payload to JSON on stdout (after the human-readable
/// table) so downstream tooling can parse the runs.
pub fn print_json<T: Serialize>(tag: &str, value: &T) {
    match serde_json::to_string(value) {
        Ok(json) => println!("\n[json:{tag}] {json}"),
        Err(e) => eprintln!("failed to serialise {tag}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use device_profile::DeviceType;

    #[test]
    fn env_defaults() {
        let h = HarnessConfig::default();
        assert_eq!(h.episodes, 300);
        let cfg = h.distredge_config(4);
        assert_eq!(cfg.osds.max_episodes, 300);
        assert_eq!(cfg.lcpss.num_random_splits, 40);
        assert_eq!(h.sim_options().num_images, 30);
    }

    #[test]
    fn paper_scale_uses_paper_config() {
        let h = HarnessConfig {
            paper_scale: true,
            ..HarnessConfig::default()
        };
        let cfg = h.distredge_config(4);
        assert_eq!(cfg.osds.max_episodes, 4000);
        assert_eq!(cfg.osds.ddpg.actor_hidden, [400, 200, 100]);
    }

    #[test]
    fn group_runs_baselines_end_to_end() {
        // A tiny smoke test of the harness itself with cheap methods only.
        let h = HarnessConfig {
            images: 3,
            ..HarnessConfig::default()
        };
        let model = cnn_model::Model::new(
            "tiny",
            tensor::Shape::new(3, 32, 32),
            &[
                cnn_model::LayerOp::conv(8, 3, 1, 1),
                cnn_model::LayerOp::pool(2, 2),
            ],
        )
        .unwrap();
        let scenario = Scenario::new(
            "T",
            vec![DeviceType::Xavier, DeviceType::Nano],
            vec![100.0, 100.0],
        );
        let cluster = scenario.build_constant();
        let group = run_group(
            "T",
            &[Method::DeepThings, Method::Offload],
            &model,
            &cluster,
            &h,
        );
        assert_eq!(group.results.len(), 2);
        print_ips_table("smoke", std::slice::from_ref(&group));
        print_breakdown_table("smoke", &group);
        print_json("smoke", &group);
    }
}

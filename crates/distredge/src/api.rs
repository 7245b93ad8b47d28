//! The end-to-end DistrEdge planner: profile the devices, partition the
//! model with LC-PSS, then search the vertical splits with OSDS.
//!
//! The planner's only output is a [`DistributionStrategy`]; serving it is
//! `edge-runtime`'s job.  `strategy.to_plan(&model)?` gives the execution
//! plan, and `edge_runtime::Deploy::new(&model, &plan, &weights)` starts the
//! resident session every serving tier composes over — add
//! `.over(&mut ShapedTransport::new(ChannelTransport::new(n), &cluster))` to
//! pace the in-process links with the cluster's bandwidth traces.

use crate::mdp::SplitEnv;
use crate::partitioner::{lc_pss, LcPssConfig};
use crate::profiles::ClusterProfiles;
use crate::splitter::{osds_train, OsdsConfig, OsdsOutcome};
use crate::strategy::DistributionStrategy;
use crate::Result;
use cnn_model::Model;
use device_profile::ProfilingOptions;
use edgesim::Cluster;
use serde::{Deserialize, Serialize};

/// Configuration of a DistrEdge planning run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistrEdgeConfig {
    /// LC-PSS (partitioner) hyper-parameters.
    pub lcpss: LcPssConfig,
    /// OSDS (splitter) hyper-parameters.
    pub osds: OsdsConfig,
    /// Profiling configuration.
    pub profiles: ProfilingOptions,
}

impl DistrEdgeConfig {
    /// The paper's hyper-parameters for a cluster of `num_devices` providers.
    pub fn paper(num_devices: usize) -> Self {
        Self {
            lcpss: LcPssConfig::paper_defaults(num_devices),
            osds: OsdsConfig::paper_defaults(num_devices),
            profiles: ProfilingOptions::default(),
        }
    }

    /// A reduced configuration for CI-scale runs: 40 random split decisions
    /// in LC-PSS (the paper uses 100) and [`OsdsConfig::fast`]'s smaller
    /// networks and episode budget.
    pub fn fast(num_devices: usize) -> Self {
        Self {
            lcpss: LcPssConfig {
                num_random_splits: 40,
                ..LcPssConfig::paper_defaults(num_devices)
            },
            osds: OsdsConfig::fast(num_devices),
            profiles: ProfilingOptions::default(),
        }
    }

    /// Overrides the OSDS episode budget.
    pub fn with_episodes(mut self, episodes: usize) -> Self {
        self.osds.max_episodes = episodes;
        self
    }

    /// Overrides every RNG seed derived from this configuration.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.lcpss.seed = seed;
        self.osds = self.osds.with_seed(seed);
        self.profiles.seed = seed;
        self
    }
}

/// Everything a DistrEdge planning run produces.
#[derive(Debug, Clone)]
pub struct PlanningOutcome {
    /// The distribution strategy to deploy.
    pub strategy: DistributionStrategy,
    /// The OSDS training record (learning curve, trained agent).
    pub osds: OsdsOutcome,
    /// The device profiles the controller collected.
    pub profiles: ClusterProfiles,
}

/// The DistrEdge planner.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistrEdge;

impl DistrEdge {
    /// Plans a distribution strategy for `model` on `cluster`.  OSDS learns
    /// from latencies estimated by the profiles, the paper's default; to
    /// train on another cost source (the ground truth, measured kernel
    /// times), run `osds_train` over `SplitEnv::new(model, cluster,
    /// &compute, &scheme)`.
    pub fn plan(
        model: &Model,
        cluster: &Cluster,
        config: &DistrEdgeConfig,
    ) -> Result<PlanningOutcome> {
        let mut lcpss = config.lcpss;
        lcpss.num_devices = cluster.len();
        let profiles = ClusterProfiles::collect(model, cluster, &config.profiles);
        let scheme = lc_pss(model, &lcpss)?;

        let mut env = SplitEnv::new(model, cluster, &profiles, &scheme);
        let osds_outcome = osds_train(&mut env, &config.osds, None)?;

        let strategy = DistributionStrategy::new(
            "DistrEdge",
            scheme,
            osds_outcome.best_splits.clone(),
            cluster.len(),
        )?;
        Ok(PlanningOutcome {
            strategy,
            osds: osds_outcome,
            profiles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_model::exec::ModelWeights;
    use cnn_model::LayerOp;
    use device_profile::{DeviceSpec, DeviceType};
    use edge_fleet::{FleetConfig, FleetServer, ModelSpec};
    use edge_gateway::{Gateway, GatewayConfig};
    use edge_runtime::{report, Deploy, RuntimeOutcome};
    use edge_telemetry::Telemetry;
    use netsim::LinkConfig;
    use tensor::Shape;

    /// Seed of the deterministic weights every deployment below loads.
    const WEIGHT_SEED: u64 = 7;

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

    fn cluster() -> Cluster {
        Cluster::uniform(
            vec![
                DeviceSpec::new("xavier", DeviceType::Xavier),
                DeviceSpec::new("nano", DeviceType::Nano),
            ],
            LinkConfig::constant(200.0),
        )
    }

    fn tiny_config() -> DistrEdgeConfig {
        let mut c = DistrEdgeConfig::fast(2).with_episodes(25).with_seed(5);
        c.lcpss.num_random_splits = 10;
        c.osds.ddpg.actor_hidden = [24, 16, 12];
        c.osds.ddpg.critic_hidden = [24, 16, 12, 12];
        c
    }

    #[test]
    fn config_builders() {
        let paper = DistrEdgeConfig::paper(4);
        assert_eq!(paper.osds.max_episodes, 4000);
        assert!((paper.lcpss.alpha - 0.75).abs() < 1e-12);
        let fast = DistrEdgeConfig::fast(16).with_episodes(7).with_seed(3);
        assert_eq!(fast.osds.max_episodes, 7);
        assert_eq!(fast.lcpss.seed, 3);
        assert!((fast.osds.sigma_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn plan_produces_deployable_strategy() {
        let m = model();
        let c = cluster();
        let outcome = DistrEdge::plan(&m, &c, &tiny_config()).unwrap();
        assert_eq!(outcome.strategy.method, "DistrEdge");
        assert_eq!(outcome.strategy.num_devices, 2);
        let plan = outcome.strategy.to_plan(&m).unwrap();
        plan.validate(&m).unwrap();
        assert_eq!(outcome.osds.episode_latencies_ms.len(), 25);
        assert_eq!(outcome.profiles.len(), 2);
    }

    #[test]
    fn ground_truth_training_also_works() {
        // OSDS may learn from latencies "directly measured" instead of the
        // profiles (§IV-C1): the same environment over another cost source.
        let m = model();
        let c = cluster();
        let mut cfg = tiny_config();
        cfg.osds.max_episodes = 10;
        let mut lcpss = cfg.lcpss;
        lcpss.num_devices = c.len();
        let scheme = lc_pss(&m, &lcpss).unwrap();
        let compute = c.ground_truth_compute();
        let mut env = SplitEnv::new(&m, &c, &compute, &scheme);
        let outcome = osds_train(&mut env, &cfg.osds, None).unwrap();
        let strategy =
            DistributionStrategy::new("DistrEdge", scheme, outcome.best_splits, c.len()).unwrap();
        strategy.to_plan(&m).unwrap().validate(&m).unwrap();
    }

    #[test]
    fn deploy_executes_planned_strategy_with_real_kernels() {
        use cnn_model::exec::{self, deterministic_input};
        let m = cnn_model::zoo::tiny_vgg();
        let c = cluster();
        let outcome = DistrEdge::plan(&m, &c, &tiny_config()).unwrap();
        let images: Vec<_> = (0..2).map(|i| deterministic_input(&m, 50 + i)).collect();
        let plan = outcome.strategy.to_plan(&m).unwrap();
        let weights = ModelWeights::deterministic(&m, WEIGHT_SEED);
        let RuntimeOutcome { report, outputs } = Deploy::new(&m, &plan, &weights)
            .start()
            .unwrap()
            .run_batch(&images)
            .unwrap();
        let predicted = report::predicted_report(&m, &plan, &report, images.len());
        assert_eq!(outputs.len(), 2);
        // Outputs are bit-exact against single-device execution.
        for (img, out) in images.iter().zip(&outputs) {
            let full = exec::run_full(&m, &weights, img).unwrap();
            assert_eq!(out, full.last().unwrap());
        }
        assert!(report.sim.ips > 0.0);
        assert!(predicted.ips > 0.0);
        assert!(report
            .ips_gap(&predicted)
            .expect("positive prediction")
            .is_finite());
    }

    #[test]
    fn deploy_rejects_empty_batches() {
        use cnn_model::{PartitionScheme, VolumeSplit};
        let m = model();
        let scheme = PartitionScheme::single_volume(&m);
        let split = VolumeSplit::equal(2, m.prefix_output().h);
        let strategy = DistributionStrategy::new("EqualSplit", scheme, vec![split], 2).unwrap();
        let plan = strategy.to_plan(&m).unwrap();
        let weights = ModelWeights::deterministic(&m, WEIGHT_SEED);
        let session = Deploy::new(&m, &plan, &weights).start().unwrap();
        let err = session.run_batch(&[]);
        assert!(err.is_err(), "an empty batch must be rejected");
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = DistrEdgeConfig::fast(3).with_episodes(12).with_seed(4);
        let text = serde_json::to_string(&cfg).unwrap();
        let back: DistrEdgeConfig = serde_json::from_str(&text).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn serve_keeps_the_cluster_resident_between_waves() {
        use cnn_model::exec::{self, deterministic_input};
        let m = cnn_model::zoo::tiny_vgg();
        let c = cluster();
        let outcome = DistrEdge::plan(&m, &c, &tiny_config()).unwrap();
        let plan = outcome.strategy.to_plan(&m).unwrap();
        let weights = ModelWeights::deterministic(&m, WEIGHT_SEED);
        let session = Deploy::new(&m, &plan, &weights).start().unwrap();
        for wave in 0..2u64 {
            let img = deterministic_input(&m, 80 + wave);
            let ticket = session.submit(&img).unwrap();
            let out = session.wait(ticket).unwrap();
            let full = exec::run_full(&m, &weights, &img).unwrap();
            assert_eq!(&out, full.last().unwrap());
        }
        let report = session.shutdown().unwrap();
        assert_eq!(report.images, 2);
    }

    #[test]
    fn serve_gateway_batches_many_clients_over_one_deployment() {
        use cnn_model::exec::{self, deterministic_input};
        let m = cnn_model::zoo::tiny_vgg();
        let c = cluster();
        let outcome = DistrEdge::plan(&m, &c, &tiny_config()).unwrap();
        let config = GatewayConfig::default()
            .with_max_batch(3)
            .with_max_linger(std::time::Duration::from_millis(1));
        let plan = outcome.strategy.to_plan(&m).unwrap();
        let weights = ModelWeights::deterministic(&m, WEIGHT_SEED);
        let session = Deploy::new(&m, &plan, &weights).start().unwrap();
        let gateway = Gateway::over(session, config, &Telemetry::disabled()).unwrap();
        let client = gateway.client();
        let images: Vec<_> = (0..4).map(|i| deterministic_input(&m, 60 + i)).collect();
        let responses: Vec<_> = images.iter().map(|img| client.infer(img)).collect();
        for (img, response) in images.iter().zip(responses) {
            let out = response.wait().unwrap();
            let full = exec::run_full(&m, &weights, img).unwrap();
            assert_eq!(&out, full.last().unwrap());
        }
        let metrics = gateway.shutdown().unwrap();
        assert_eq!(metrics.completed, 4);
        assert_eq!(metrics.session.images, 4);
    }

    #[test]
    fn serve_fleet_replicates_a_planned_strategy() {
        use cnn_model::exec::{self, deterministic_input};
        let m = cnn_model::zoo::tiny_vgg();
        let c = cluster();
        let outcome = DistrEdge::plan(&m, &c, &tiny_config()).unwrap();
        let plan = outcome.strategy.to_plan(&m).unwrap();
        let spec = ModelSpec::new(m.name(), m.clone(), plan)
            .with_replicas(2)
            .with_weight_seed(WEIGHT_SEED);
        let fleet = FleetServer::serve(
            vec![spec],
            FleetConfig::default().with_autoscale(false),
            GatewayConfig::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(fleet.replica_count(m.name()), 2);
        let weights = ModelWeights::deterministic(&m, WEIGHT_SEED);
        let client = fleet.client();
        let responses: Vec<_> = (0..4)
            .map(|i| {
                let img = deterministic_input(&m, 300 + i);
                (img.clone(), client.infer(&img))
            })
            .collect();
        for (img, response) in responses {
            let out = response.wait().unwrap();
            let full = exec::run_full(&m, &weights, &img).unwrap();
            assert_eq!(&out, full.last().unwrap(), "fleet output must be bit-exact");
        }
        let metrics = fleet.shutdown().unwrap();
        assert_eq!(metrics.completed, 4);
    }

    #[test]
    fn planned_strategy_favours_the_much_faster_device() {
        // Xavier vs Pi3: the compute asymmetry is enormous (orders of
        // magnitude), so even a small OSDS budget must learn to keep the Pi3
        // share below the Xavier share.
        let m = model();
        let c = Cluster::uniform(
            vec![
                DeviceSpec::new("xavier", DeviceType::Xavier),
                DeviceSpec::new("pi3", DeviceType::Pi3),
            ],
            LinkConfig::constant(200.0),
        );
        let outcome = DistrEdge::plan(&m, &c, &tiny_config()).unwrap();
        let shares = outcome.strategy.row_shares(&m);
        assert!(
            shares[0] > shares[1],
            "Xavier share {} should exceed Pi3 share {}",
            shares[0],
            shares[1]
        );
    }
}

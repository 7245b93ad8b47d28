//! Online adaptation under highly dynamic networks (paper §V-F, Figs. 12–13).
//!
//! All three network-aware methods (CoEdge, AOFL, DistrEdge) monitor the
//! per-device throughput and adapt their split decisions window by window:
//!
//! * **CoEdge** recomputes its layer-by-layer linear split from the
//!   monitored bandwidths every window (it is cheap, but layer-by-layer).
//! * **AOFL** recomputes its fused-volume linear split, but its brute-force
//!   partition search is slow — the paper measures ~10 minutes on the
//!   controller — so its updated strategy only takes effect with that lag.
//! * **DistrEdge** keeps the trained actor online: every window it rolls the
//!   actor out against the monitored conditions; when the average
//!   throughput changes significantly it re-runs the lightweight LC-PSS and
//!   fine-tunes the actor for a small number of episodes (20–210 s in the
//!   paper), taking effect on the next window.

use crate::api::{DistrEdgeConfig, PlanningOutcome};
use crate::baselines::Method;
use crate::evaluate::evaluate_strategy;
use crate::mdp::SplitEnv;
use crate::partitioner::lc_pss;
use crate::profiles::ClusterProfiles;
use crate::splitter::{greedy_rollout, osds_train};
use crate::strategy::DistributionStrategy;
use crate::{DistrError, Result};
use cnn_model::{Model, PartitionScheme, VolumeSplit};
use device_profile::DeviceSpec;
use edge_runtime::report::MeasuredCompute;
use edge_runtime::{RuntimeReport, Session, SwapReport};
use edge_telemetry::{Recorder, Stage, Telemetry, TraceId, REQUESTER};
use edgesim::{Cluster, ExecutionPlan, SimOptions};
use netsim::LinkConfig;
use neuro::DdpgAgent;
use serde::{Deserialize, Serialize};

/// Configuration of the dynamic-network experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Length of one monitoring / adaptation window, in minutes.
    pub window_minutes: f64,
    /// Total experiment duration, in minutes (the paper plots 60).
    pub duration_minutes: f64,
    /// Images measured per window.
    pub images_per_window: usize,
    /// DistrEdge planning configuration (initial training budget etc.).
    pub distredge: DistrEdgeConfig,
    /// Episodes used when fine-tuning the actor after a significant change.
    pub finetune_episodes: usize,
    /// Relative bandwidth change that counts as "significant" and triggers
    /// re-partitioning + fine-tuning.
    pub significant_change: f64,
    /// Number of windows AOFL's strategy update lags behind (its brute-force
    /// partition search takes ~10 minutes on the controller).
    pub aofl_lag_windows: usize,
    /// RNG seed for the dynamic traces.
    pub seed: u64,
}

impl OnlineConfig {
    /// A small but representative default (used by the Fig. 13 harness).
    pub fn standard(num_devices: usize) -> Self {
        Self {
            window_minutes: 2.0,
            duration_minutes: 60.0,
            images_per_window: 20,
            distredge: DistrEdgeConfig::fast(num_devices),
            finetune_episodes: 40,
            significant_change: 0.2,
            aofl_lag_windows: 5,
            seed: 9,
        }
    }
}

/// Mean per-image latency measured in one window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlinePoint {
    /// Window start, in minutes since the experiment began.
    pub minute: f64,
    /// Mean per-image processing latency in this window (ms).
    pub latency_ms: f64,
}

/// The Fig. 13 series of one method.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineResult {
    /// Method name.
    pub method: String,
    /// One point per window.
    pub points: Vec<OnlinePoint>,
    /// Mean latency over the whole experiment.
    pub mean_latency_ms: f64,
}

impl OnlineResult {
    fn from_points(method: &str, points: Vec<OnlinePoint>) -> Self {
        let mean = if points.is_empty() {
            0.0
        } else {
            points.iter().map(|p| p.latency_ms).sum::<f64>() / points.len() as f64
        };
        Self {
            method: method.to_string(),
            points,
            mean_latency_ms: mean,
        }
    }
}

/// Builds the §V-F testbed: `num_devices` devices of one type, each behind
/// an independent highly dynamic link (Fig. 12).
pub fn dynamic_cluster(devices: &[DeviceSpec], seed: u64) -> Cluster {
    let links: Vec<LinkConfig> = (0..devices.len())
        .map(|i| LinkConfig::dynamic(seed.wrapping_add(i as u64 * 131)))
        .collect();
    Cluster::new(devices.to_vec(), &links)
}

/// Monitored mean bandwidth of every link over a window.
fn monitored_bandwidths(cluster: &Cluster, start_ms: f64, end_ms: f64) -> Vec<f64> {
    (0..cluster.len())
        .map(|i| cluster.link(i).trace().mean_mbps_window(start_ms, end_ms))
        .collect()
}

/// A constant-bandwidth "estimator" view of a cluster, reflecting what the
/// controller believes the network looks like right now.
fn estimator_cluster(cluster: &Cluster, bandwidths: &[f64]) -> Cluster {
    let configs: Vec<LinkConfig> = bandwidths
        .iter()
        .map(|&bw| LinkConfig::constant(bw))
        .collect();
    Cluster::new(cluster.devices().to_vec(), &configs)
}

fn measure_window(
    model: &Model,
    cluster: &Cluster,
    strategy: &DistributionStrategy,
    start_ms: f64,
    images: usize,
) -> Result<f64> {
    let report = evaluate_strategy(
        model,
        cluster,
        strategy,
        SimOptions {
            num_images: images,
            start_ms,
        },
    )?;
    Ok(report.mean_latency_ms)
}

/// DistrEdge's online decision under `env`'s conditions, the one re-plan
/// step of both the simulated experiment and [`AdaptiveSession`].  With
/// `finetune`, the actor first trains on `env` for
/// `config.finetune_episodes` episodes from where it stands.  The splits
/// deployed are then the actor's greedy rollout, unless the latency
/// estimator prefers a degenerate member of the search space that costs
/// nothing to evaluate — the equal split or a single-device offload (ties
/// go to the rollout).  Right after a drastic change (a link collapsing), a
/// few fine-tune episodes may not have moved the actor yet, but the
/// estimator already knows an offload away from the dead link wins; the
/// online decision never deploys worse than the best degenerate candidate.
fn replan(
    env: &mut SplitEnv<'_>,
    agent: &mut DdpgAgent,
    model: &Model,
    scheme: &PartitionScheme,
    config: &OnlineConfig,
    finetune: bool,
) -> Result<DistributionStrategy> {
    if finetune {
        let osds = config
            .distredge
            .osds
            .with_episodes(config.finetune_episodes);
        *agent = osds_train(env, &osds, Some(agent.clone()))?.agent;
    }
    let n = env.num_devices();
    let heights: Vec<usize> = scheme
        .volumes()
        .iter()
        .map(|v| v.last_output_height(model))
        .collect();
    let equal: Vec<VolumeSplit> = heights.iter().map(|&h| VolumeSplit::equal(n, h)).collect();
    let offloads = (0..n).map(|d| {
        heights
            .iter()
            .map(|&h| VolumeSplit::new((0..n - 1).map(|i| if i < d { 0 } else { h }).collect(), h))
            .collect()
    });
    let mut best = greedy_rollout(env, agent)?;
    let mut best_latency = env.evaluate_splits(&best)?;
    for candidate in std::iter::once(equal).chain(offloads) {
        let latency = env.evaluate_splits(&candidate)?;
        if latency < best_latency {
            best = candidate;
            best_latency = latency;
        }
    }
    DistributionStrategy::new("DistrEdge", scheme.clone(), best, n)
}

/// Runs the dynamic-network experiment for CoEdge, AOFL and DistrEdge and
/// returns one latency-over-time series per method.
pub fn run_dynamic_experiment(
    model: &Model,
    cluster: &Cluster,
    config: &OnlineConfig,
) -> Result<Vec<OnlineResult>> {
    let window_ms = config.window_minutes * 60.0 * 1e3;
    let num_windows = (config.duration_minutes / config.window_minutes).ceil() as usize;
    let profiles = ClusterProfiles::collect(model, cluster, &config.distredge.profiles);

    // --- Initial DistrEdge training on the first window's conditions.
    let initial_bw = monitored_bandwidths(cluster, 0.0, window_ms);
    let est0 = estimator_cluster(cluster, &initial_bw);
    let mut lcpss = config.distredge.lcpss;
    lcpss.num_devices = cluster.len();
    let scheme = lc_pss(model, &lcpss)?;
    let mut agent = {
        let mut env = SplitEnv::new(model, &est0, &profiles, &scheme);
        osds_train(&mut env, &config.distredge.osds, None)?.agent
    };
    let mut bw_at_last_replan = initial_bw.clone();

    // --- AOFL keeps a lagging strategy.
    let mut aofl_strategy = Method::Aofl.plan_baseline(model, &profiles, &initial_bw)?;
    let mut aofl_pending: Option<(usize, DistributionStrategy)> = None;

    let mut coedge_points = Vec::with_capacity(num_windows);
    let mut aofl_points = Vec::with_capacity(num_windows);
    let mut distredge_points = Vec::with_capacity(num_windows);

    for w in 0..num_windows {
        let start_ms = w as f64 * window_ms;
        let minute = w as f64 * config.window_minutes;
        // What the controller monitored over the previous window.
        let monitor_start = if w == 0 { 0.0 } else { start_ms - window_ms };
        let bw = monitored_bandwidths(cluster, monitor_start, start_ms.max(window_ms));

        // CoEdge: cheap, recomputed every window.
        let coedge = Method::CoEdge.plan_baseline(model, &profiles, &bw)?;
        coedge_points.push(OnlinePoint {
            minute,
            latency_ms: measure_window(
                model,
                cluster,
                &coedge,
                start_ms,
                config.images_per_window,
            )?,
        });

        // AOFL: schedules an update that lands `aofl_lag_windows` later.
        if aofl_pending.is_none() {
            let updated = Method::Aofl.plan_baseline(model, &profiles, &bw)?;
            aofl_pending = Some((w + config.aofl_lag_windows, updated));
        }
        if let Some((due, strategy)) = &aofl_pending {
            if *due <= w {
                aofl_strategy = strategy.clone();
                aofl_pending = None;
            }
        }
        aofl_points.push(OnlinePoint {
            minute,
            latency_ms: measure_window(
                model,
                cluster,
                &aofl_strategy,
                start_ms,
                config.images_per_window,
            )?,
        });

        // DistrEdge: significant change => fine-tune.  (LC-PSS reads only
        // the model and its own config, so its scheme stands.)
        let changed = bw
            .iter()
            .zip(&bw_at_last_replan)
            .any(|(new, old)| (new - old).abs() / old.max(1.0) > config.significant_change);
        if changed {
            bw_at_last_replan = bw.clone();
        }
        let est = estimator_cluster(cluster, &bw);
        let mut env = SplitEnv::new(model, &est, &profiles, &scheme);
        let strategy = replan(&mut env, &mut agent, model, &scheme, config, changed)?;
        distredge_points.push(OnlinePoint {
            minute,
            latency_ms: measure_window(
                model,
                cluster,
                &strategy,
                start_ms,
                config.images_per_window,
            )?,
        });
    }

    Ok(vec![
        OnlineResult::from_points("CoEdge", coedge_points),
        OnlineResult::from_points("AOFL", aofl_points),
        OnlineResult::from_points("DistrEdge", distredge_points),
    ])
}

/// What one [`AdaptiveSession::adapt`] tick decided.
#[derive(Debug, Serialize)]
pub struct RuntimeReplanDecision {
    /// Images completed since the previous observation.
    pub window_images: usize,
    /// Mean measured latency of this window (ms; `0` for an empty window).
    pub window_mean_latency_ms: f64,
    /// Relative drift vs the baseline window (`0` while calibrating).
    pub drift: f64,
    /// The re-planned strategy, when the drift was significant.
    pub strategy: Option<DistributionStrategy>,
}

/// What one [`AdaptiveSession::adapt`] tick did.
#[derive(Debug, Serialize)]
pub struct AdaptationTick {
    /// The monitoring/re-planning decision of this window.
    pub decision: RuntimeReplanDecision,
    /// The swap measurement, when the decision re-planned and the new plan
    /// was applied in place.
    pub swap: Option<SwapReport>,
}

impl AdaptationTick {
    /// Whether this tick hot-swapped the serving plan.
    pub fn swapped(&self) -> bool {
        self.swap.is_some()
    }
}

/// The closed §V-F loop against a *live* session: it reacts to **measured**
/// drift, not to a simulation.
///
/// Each [`AdaptiveSession::adapt`] call treats the latencies the session
/// completed since the previous call as one monitoring window.  The first
/// non-empty window calibrates the drift baseline.  When a later window's
/// mean latency drifts from it by at least
/// [`OnlineConfig::significant_change`], the trained actor is fine-tuned for
/// [`OnlineConfig::finetune_episodes`] against an OSDS environment whose
/// compute backend is the session's own measured kernel times
/// ([`MeasuredCompute`]) — not a profile — and the re-planned strategy is
/// applied **in place** with [`Session::apply_plan`]: no redeploy, no weight
/// reload, no serving gap beyond the drain window.  The next window starts
/// after the swap and re-calibrates against the new plan alone.
///
/// Call `adapt` once per monitoring window (the paper uses 2-minute windows;
/// tests use waves).  Between calls, submit and wait on
/// [`AdaptiveSession::session`] as usual — the session reference stays
/// valid across swaps, and so do outstanding tickets.  The controller owns
/// the session's plan: swap it only through `adapt`.
pub struct AdaptiveSession {
    session: Session,
    model: Model,
    cluster: Cluster,
    config: OnlineConfig,
    scheme: PartitionScheme,
    agent: DdpgAgent,
    /// Latencies already judged: the current window starts after them.
    images_seen: usize,
    /// The mean latency of the window that calibrated the current plan.
    baseline_latency_ms: Option<f64>,
    /// The controller's trace track (attached with
    /// [`AdaptiveSession::with_telemetry`]).
    rec: Option<Recorder>,
}

impl AdaptiveSession {
    /// Wraps an already-deployed session serving `planning.strategy`, and
    /// adapts it from the planning run's trained actor and partition
    /// scheme under `config`'s drift and fine-tune knobs.  `cluster` is the
    /// controller's current belief about the links — the wire model
    /// re-planning optimises against (update it with
    /// [`AdaptiveSession::update_link_estimates`] as conditions drift).
    pub fn over(
        session: Session,
        model: &Model,
        cluster: &Cluster,
        planning: &PlanningOutcome,
        config: &OnlineConfig,
    ) -> Result<Self> {
        if planning.strategy.num_devices != cluster.len() {
            return Err(DistrError::InvalidConfig(format!(
                "the strategy addresses {} devices, the cluster has {}",
                planning.strategy.num_devices,
                cluster.len()
            )));
        }
        Ok(Self {
            session,
            model: model.clone(),
            cluster: cluster.clone(),
            config: *config,
            scheme: planning.strategy.scheme.clone(),
            agent: planning.osds.agent.clone(),
            images_seen: 0,
            baseline_latency_ms: None,
            rec: None,
        })
    }

    /// Records every adaptation decision on `telemetry`: an
    /// [`Stage::Adapt`] instant per tick (bytes = the window's mean latency
    /// in µs, arg = drift in basis points); the decision itself is the
    /// returned [`AdaptationTick`].  Share the hub with the traced session
    /// deployment to see *why* a plan swap happened next to the swap
    /// itself.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.rec = Some(telemetry.recorder("controller", REQUESTER));
        self
    }

    /// The live session (submit / wait / metrics as usual).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Replaces the controller's link estimates (e.g. from monitored
    /// bandwidths) used by the next re-planning decision.
    pub fn update_link_estimates(&mut self, cluster: Cluster) {
        self.cluster = cluster;
    }

    /// One monitoring tick: snapshot live metrics, decide, and — when the
    /// drift is significant — fine-tune, re-plan and hot-swap the session
    /// to the new strategy in place.
    pub fn adapt(&mut self) -> Result<AdaptationTick> {
        let snapshot = self.session.metrics();
        let (epoch, plan) = self.session.current_plan();
        let decision = self.observe(&snapshot, epoch, &plan)?;
        if let Some(rec) = &mut self.rec {
            // The decision is logged with the snapshot that triggered it:
            // the window's mean latency (µs) and the measured drift (basis
            // points), keyed to the epoch the snapshot was taken under.
            let drift_bp = (decision.drift * 10_000.0).min(f64::from(u32::MAX)) as u32;
            rec.instant(
                Stage::Adapt,
                TraceId::session(snapshot.epoch),
                (decision.window_mean_latency_ms * 1e3) as u64,
                drift_bp,
            );
        }
        let mut swap = None;
        if let Some(strategy) = &decision.strategy {
            swap = Some(self.session.apply_plan(&strategy.to_plan(&self.model)?)?);
            // The swap drained every old-plan image: the next window holds
            // new-plan latencies only and calibrates afresh.
            self.images_seen = self.session.metrics().images;
            self.baseline_latency_ms = None;
        }
        Ok(AdaptationTick { decision, swap })
    }

    /// Judges the window of `snapshot` that follows the latencies already
    /// seen; `plan` is the plan of `epoch`, which keys the kernel-time
    /// lookup by its layer-volumes.
    fn observe(
        &mut self,
        snapshot: &RuntimeReport,
        epoch: u64,
        plan: &ExecutionPlan,
    ) -> Result<RuntimeReplanDecision> {
        let latencies = &snapshot.sim.per_image_latency_ms;
        if snapshot.epoch != epoch {
            // A swap landed between the snapshot and the plan read: the
            // snapshot's kernel times belong to no one plan, so the window
            // restarts empty and the next one re-calibrates.
            self.images_seen = latencies.len();
            self.baseline_latency_ms = None;
        }
        let window = &latencies[self.images_seen..];
        let window_images = window.len();
        self.images_seen = latencies.len();
        let window_mean_latency_ms = if window.is_empty() {
            0.0
        } else {
            window.iter().sum::<f64>() / window_images as f64
        };

        let mut decision = RuntimeReplanDecision {
            window_images,
            window_mean_latency_ms,
            drift: 0.0,
            strategy: None,
        };
        let Some(baseline) = self.baseline_latency_ms else {
            // Calibration: the first measured window becomes the baseline.
            if window_images > 0 {
                self.baseline_latency_ms = Some(window_mean_latency_ms);
            }
            return Ok(decision);
        };
        if window_images == 0 {
            return Ok(decision);
        }
        decision.drift = (window_mean_latency_ms - baseline).abs() / baseline.max(1e-9);
        if decision.drift < self.config.significant_change {
            return Ok(decision);
        }

        // Re-plan against what was actually measured: the runtime's own
        // kernel times are the compute backend of the decision environment.
        let compute = MeasuredCompute::from_report(snapshot, plan);
        let mut env = SplitEnv::new(&self.model, &self.cluster, &compute, &self.scheme);
        decision.strategy = Some(replan(
            &mut env,
            &mut self.agent,
            &self.model,
            &self.scheme,
            &self.config,
            true,
        )?);
        Ok(decision)
    }

    /// Shuts the session down and returns its final report.
    pub fn shutdown(self) -> Result<RuntimeReport> {
        Ok(self.session.shutdown()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_model::LayerOp;
    use device_profile::DeviceType;
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
            ],
        )
        .unwrap()
    }

    fn devices() -> Vec<DeviceSpec> {
        (0..4)
            .map(|i| DeviceSpec::new(format!("nano-{i}"), DeviceType::Nano))
            .collect()
    }

    fn tiny_online_config() -> OnlineConfig {
        let mut distredge = DistrEdgeConfig::fast(4).with_episodes(15).with_seed(2);
        distredge.lcpss.num_random_splits = 8;
        distredge.osds.ddpg.actor_hidden = [24, 16, 12];
        distredge.osds.ddpg.critic_hidden = [24, 16, 12, 12];
        OnlineConfig {
            window_minutes: 2.0,
            duration_minutes: 8.0,
            images_per_window: 3,
            distredge,
            finetune_episodes: 5,
            significant_change: 0.2,
            aofl_lag_windows: 2,
            seed: 4,
        }
    }

    #[test]
    fn dynamic_cluster_has_independent_traces() {
        let c = dynamic_cluster(&devices(), 3);
        let bw = c.mean_bandwidths();
        assert_eq!(bw.len(), 4);
        // Independent seeds -> the traces differ.
        assert!(bw.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9));
    }

    #[test]
    fn experiment_produces_three_series_with_all_windows() {
        let m = model();
        let c = dynamic_cluster(&devices(), 7);
        let cfg = tiny_online_config();
        let results = run_dynamic_experiment(&m, &c, &cfg).unwrap();
        assert_eq!(results.len(), 3);
        let expected_windows = (cfg.duration_minutes / cfg.window_minutes).ceil() as usize;
        for r in &results {
            assert_eq!(r.points.len(), expected_windows, "{}", r.method);
            assert!(r.mean_latency_ms > 0.0);
        }
    }

    #[test]
    fn runtime_adaptation_consumes_live_session_metrics() {
        use crate::api::DistrEdge;
        use cnn_model::exec::{self, deterministic_input, ModelWeights};
        use device_profile::DeviceType;
        use edge_runtime::Deploy;

        let m = model();
        let c = Cluster::uniform(
            vec![
                DeviceSpec::new("xavier", DeviceType::Xavier),
                DeviceSpec::new("nano", DeviceType::Nano),
            ],
            LinkConfig::constant(200.0),
        );
        let mut cfg = DistrEdgeConfig::fast(2).with_episodes(15).with_seed(3);
        cfg.lcpss.num_random_splits = 8;
        cfg.osds.ddpg.actor_hidden = [24, 16, 12];
        cfg.osds.ddpg.critic_hidden = [24, 16, 12, 12];
        let planning = DistrEdge::plan(&m, &c, &cfg).unwrap();
        let plan = planning.strategy.to_plan(&m).unwrap();

        let mut online_cfg = OnlineConfig::standard(2);
        online_cfg.distredge = cfg;
        online_cfg.finetune_episodes = 4;
        online_cfg.significant_change = 0.0; // Any drift triggers a re-plan.

        let weights = ModelWeights::deterministic(&m, 7);
        let session = Deploy::new(&m, &plan, &weights).start().unwrap();
        let mut adaptive = AdaptiveSession::over(session, &m, &c, &planning, &online_cfg).unwrap();
        let serve_wave = |session: &edge_runtime::Session, wave: u64| {
            for i in 0..3u64 {
                let img = deterministic_input(&m, 100 * wave + i);
                let out = session.wait(session.submit(&img).unwrap()).unwrap();
                let full = exec::run_full(&m, &weights, &img).unwrap();
                assert_eq!(&out, full.last().unwrap(), "outputs must stay bit-exact");
            }
        };

        // Wave 1 calibrates the baseline from a live snapshot.
        serve_wave(adaptive.session(), 1);
        let first = adaptive.adapt().unwrap().decision;
        assert_eq!(first.window_images, 3);
        assert!(first.window_mean_latency_ms > 0.0);
        assert!(first.strategy.is_none(), "first window only calibrates");

        // Wave 2 on the same deployment: the zero threshold forces a
        // re-plan from the measured drift.
        serve_wave(adaptive.session(), 2);
        let second = adaptive.adapt().unwrap().decision;
        assert_eq!(second.window_images, 3);
        let strategy = second.strategy.expect("zero threshold must re-plan");
        strategy.to_plan(&m).unwrap().validate(&m).unwrap();

        let report = adaptive.shutdown().unwrap();
        assert_eq!(report.images, 6);
    }

    #[test]
    fn adaptive_session_swaps_in_place_and_resets_its_window() {
        use crate::api::DistrEdge;
        use cnn_model::exec::{self, deterministic_input, ModelWeights};
        use device_profile::DeviceType;
        use edge_runtime::Deploy;

        let m = model();
        let c = Cluster::uniform(
            vec![
                DeviceSpec::new("xavier", DeviceType::Xavier),
                DeviceSpec::new("nano", DeviceType::Nano),
            ],
            LinkConfig::constant(200.0),
        );
        let mut cfg = DistrEdgeConfig::fast(2).with_episodes(15).with_seed(3);
        cfg.lcpss.num_random_splits = 8;
        cfg.osds.ddpg.actor_hidden = [24, 16, 12];
        cfg.osds.ddpg.critic_hidden = [24, 16, 12, 12];
        let planning = DistrEdge::plan(&m, &c, &cfg).unwrap();

        let mut online_cfg = OnlineConfig::standard(2);
        online_cfg.distredge = cfg;
        online_cfg.finetune_episodes = 4;
        online_cfg.significant_change = 0.0; // Any drift triggers a re-plan.

        let telemetry = Telemetry::new();
        let plan = planning.strategy.to_plan(&m).unwrap();
        let weights = ModelWeights::deterministic(&m, 7);
        let session = Deploy::new(&m, &plan, &weights).start().unwrap();
        let mut adaptive = AdaptiveSession::over(session, &m, &c, &planning, &online_cfg)
            .unwrap()
            .with_telemetry(&telemetry);
        let serve_wave = |session: &edge_runtime::Session, wave: u64| {
            for i in 0..3u64 {
                let img = deterministic_input(&m, 100 * wave + i);
                let out = session.wait(session.submit(&img).unwrap()).unwrap();
                let full = exec::run_full(&m, &weights, &img).unwrap();
                assert_eq!(&out, full.last().unwrap(), "outputs must stay bit-exact");
            }
        };

        // Wave 1 calibrates; wave 2's drift (zero threshold) re-plans and
        // hot-swaps the same session in place.
        serve_wave(adaptive.session(), 1);
        let first = adaptive.adapt().unwrap();
        assert!(!first.swapped(), "first window only calibrates");
        serve_wave(adaptive.session(), 2);
        let second = adaptive.adapt().unwrap();
        let swap = second
            .swap
            .as_ref()
            .expect("zero threshold must re-plan and swap");
        assert_eq!(swap.epoch, 1);
        assert_eq!(adaptive.session().epoch(), 1);

        // The swap did not tear the session down: the same handle keeps
        // serving bit-exact under the new plan...
        serve_wave(adaptive.session(), 3);
        // ...and the next observation's window starts after the swap: it
        // holds the new plan's latencies only and re-calibrates on them, so
        // a fresh decision never swaps straight away.
        let third = adaptive.adapt().unwrap();
        assert!(
            !third.swapped(),
            "the first post-swap observation must recalibrate, not swap"
        );
        assert_eq!(third.decision.window_images, 3, "wave 3 alone");

        let report = adaptive.shutdown().unwrap();
        assert_eq!(report.images, 9, "zero loss across the swap");
        assert_eq!(report.epoch, 1);

        // The ticks are the controller's record: three decisions, one
        // re-plan, and no drift judged by a window that (re)calibrates.
        let ticks = [first, second, third];
        let replans = ticks.iter().filter(|t| t.decision.strategy.is_some());
        assert_eq!(replans.count(), 1);
        assert_eq!(ticks[0].decision.drift, 0.0);
        assert_eq!(ticks[2].decision.drift, 0.0);

        // Every tick left one Adapt instant on the trace, carrying the
        // window latency and drift its decision reported.
        let trace = telemetry.collect();
        let adapts: Vec<_> = trace
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.stage == Stage::Adapt)
            .collect();
        assert_eq!(adapts.len(), ticks.len(), "one Adapt instant per tick");
        for (event, tick) in adapts.iter().zip(&ticks) {
            let drift_bp = (tick.decision.drift * 10_000.0) as u32;
            assert_eq!(event.arg, drift_bp);
            let latency_us = (tick.decision.window_mean_latency_ms * 1e3) as u64;
            assert_eq!(event.bytes, latency_us);
        }
    }

    #[test]
    fn layer_by_layer_coedge_is_the_slowest_series() {
        let m = model();
        let c = dynamic_cluster(&devices(), 11);
        let cfg = tiny_online_config();
        let results = run_dynamic_experiment(&m, &c, &cfg).unwrap();
        let get = |name: &str| {
            results
                .iter()
                .find(|r| r.method == name)
                .unwrap()
                .mean_latency_ms
        };
        let coedge = get("CoEdge");
        let aofl = get("AOFL");
        let distredge = get("DistrEdge");
        assert!(
            coedge > aofl,
            "CoEdge {coedge} should be slower than AOFL {aofl}"
        );
        assert!(
            coedge > distredge,
            "CoEdge {coedge} should be slower than DistrEdge {distredge}"
        );
    }
}

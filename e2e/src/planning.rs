//! The planning workload: `DistrEdge::plan` on VGG-16 over three paper
//! scenarios.  No serving code runs here; the planner, DDPG, the MDP
//! stepper and the profiles do all the work.

use crate::metrics::{calmest, median, percentile, Outcome, SCENARIOS};
use crate::serving::{err, peak_rss_mb};
use crate::spans::SpanLog;
use crate::RunOpts;
use cnn_model::{zoo, Model};
use device_profile::DeviceType;
use distredge::mdp::SplitEnv;
use distredge::partitioner::lc_pss;
use distredge::splitter::{osds_train, OsdsOutcome};
use distredge::{
    evaluate_strategy, ClusterProfiles, DistrEdge, DistrEdgeConfig, DistributionStrategy, Method,
    Scenario,
};
use edgesim::{simulate, Cluster, SimOptions};
use neuro::{DdpgAgent, Transition};
use std::time::{Duration, Instant};

/// OSDS episodes per plan: well past the fast configuration's 60-episode
/// exploration phase, and short enough for several repetitions per run.
const EPISODES: usize = 500;
const QUICK_EPISODES: usize = 20;
/// Images the ground-truth simulator streams to score a plan.
const QUALITY_IMAGES: usize = 30;
/// Scenario and cluster builds before planning, and again after it;
/// `setup_s` is the fastest of them all.
const SETUPS: usize = 25;

/// What set-up builds: the model and one cluster per scenario.
struct Setup {
    model: Model,
    clusters: Vec<Cluster>,
}

fn set_up(seed: u64) -> Setup {
    let scenarios = [
        Scenario::group_db(50.0),
        Scenario::group_nc(DeviceType::Nano),
        Scenario::group_lb(),
    ];
    Setup {
        model: zoo::vgg16(),
        clusters: scenarios.iter().map(|s| s.build(seed)).collect(),
    }
}

/// Sets up [`SETUPS`] times, appends each one's seconds to `into`, and
/// returns the last.
fn timed_set_ups(seed: u64, into: &mut Vec<f64>) -> Setup {
    let mut timed = || {
        let t0 = Instant::now();
        let setup = set_up(seed);
        into.push(t0.elapsed().as_secs_f64());
        setup
    };
    (1..SETUPS).for_each(|_| drop(timed()));
    timed()
}

fn config(cluster: &Cluster, opts: &RunOpts) -> DistrEdgeConfig {
    let episodes = if opts.quick { QUICK_EPISODES } else { EPISODES };
    DistrEdgeConfig::fast(cluster.len())
        .with_episodes(episodes)
        .with_seed(opts.seed)
}

fn sim_options() -> SimOptions {
    SimOptions {
        num_images: QUALITY_IMAGES,
        start_ms: 0.0,
    }
}

/// Ground-truth-simulator IPS of the best baseline on `cluster`.
fn best_baseline_ips(
    model: &Model,
    cluster: &Cluster,
    config: &DistrEdgeConfig,
) -> Result<f64, String> {
    let profiles = ClusterProfiles::collect(model, cluster, &config.profiles);
    let bandwidths = cluster.mean_bandwidths();
    let mut best = 0.0f64;
    for method in Method::BASELINES {
        let strategy = method
            .plan_baseline(model, &profiles, &bandwidths)
            .map_err(err)?;
        let report = evaluate_strategy(model, cluster, &strategy, sim_options()).map_err(err)?;
        best = best.max(report.ips);
    }
    Ok(best)
}

/// Ground-truth IPS of `strategy` over the best baseline's.
fn quality(
    model: &Model,
    cluster: &Cluster,
    strategy: &DistributionStrategy,
    baseline_ips: f64,
) -> Result<f64, String> {
    let report = evaluate_strategy(model, cluster, strategy, sim_options()).map_err(err)?;
    Ok(report.ips / baseline_ips)
}

/// What repeated planning produced.
struct Planned {
    /// Per repetition: the latency (ms) of each scenario's plan call.
    reps: Vec<Vec<f64>>,
    /// The strategies of the first repetition; later ones must equal them.
    strategies: Vec<DistributionStrategy>,
    failed: u64,
}

/// Plans every scenario `until` the deadline, at least twice so that
/// repeats of a seed can be compared.
fn plan_repeatedly(setup: &Setup, opts: &RunOpts, until: Instant) -> Result<Planned, String> {
    let mut planned = Planned {
        reps: Vec::new(),
        strategies: Vec::new(),
        failed: 0,
    };
    while planned.reps.len() < 2 || (!opts.quick && Instant::now() < until) {
        let mut call_ms = Vec::with_capacity(setup.clusters.len());
        for (i, cluster) in setup.clusters.iter().enumerate() {
            let config = config(cluster, opts);
            let t0 = Instant::now();
            let outcome = DistrEdge::plan(&setup.model, cluster, &config).map_err(err)?;
            call_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let valid = outcome
                .strategy
                .to_plan(&setup.model)
                .map_err(err)
                .and_then(|p| p.validate(&setup.model).map_err(err));
            if planned.reps.is_empty() {
                planned.strategies.push(outcome.strategy.clone());
            }
            if valid.is_err() || planned.strategies[i] != outcome.strategy {
                println!(
                    "scenario {}: plan invalid or differs from the first repetition",
                    SCENARIOS[i]
                );
                planned.failed += 1;
            }
        }
        planned.reps.push(call_ms);
    }
    Ok(planned)
}

/// The untraced pass: the end-to-end metrics of `plan_vgg16`.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(2 * SETUPS);
    let setup = timed_set_ups(opts.seed, &mut setup_s);

    let planned = plan_repeatedly(
        &setup,
        opts,
        Instant::now() + Duration::from_secs_f64(opts.seconds),
    )?;
    // A process's first 20–100 ms can run a third slower than the rest of
    // it (the vCPU wakes up); set-ups timed only then would show that.
    timed_set_ups(opts.seed, &mut setup_s);
    let mut qualities = Vec::with_capacity(setup.clusters.len());
    for (cluster, strategy) in setup.clusters.iter().zip(&planned.strategies) {
        let baseline = best_baseline_ips(&setup.model, cluster, &config(cluster, opts))?;
        qualities.push(quality(&setup.model, cluster, strategy, baseline)?);
    }
    let geo_mean = (qualities.iter().map(|q| q.ln()).sum::<f64>() / qualities.len() as f64).exp();

    // As on the serving workloads, the calmest measurement stands for the
    // run: per scenario, the fastest of its repeated plan calls.
    let rep_s: Vec<f64> = planned
        .reps
        .iter()
        .map(|r| r.iter().sum::<f64>() / 1e3)
        .collect();
    let fastest: Vec<f64> = (0..setup.clusters.len())
        .map(|i| calmest(&planned.reps.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect();
    let (p50, _) = percentile(&fastest, 50.0);
    let calls = planned.reps.len() * setup.clusters.len();
    println!(
        "plan_vgg16: {calls} plan calls in {} repetitions of {rep_s:.3?} s; calmest call per \
         scenario {fastest:.1?} ms; quality vs best baseline {qualities:.4?}",
        planned.reps.len(),
    );
    let mut outcome = Outcome {
        attempted: calls as u64,
        failed: planned.failed,
        ..Outcome::default()
    };
    outcome.set("latency_ms_p50", p50);
    outcome.set(
        "throughput_per_s",
        fastest.len() as f64 / (fastest.iter().sum::<f64>() / 1e3),
    );
    outcome.set("peak_rss_mb", peak_rss_mb()?);
    outcome.set("quality", geo_mean);
    outcome.set("setup_s", calmest(&setup_s));
    Ok(outcome)
}

/// The planner's stages composed by hand, each inside a span; the result
/// must equal what `DistrEdge::plan` returns for the same configuration.
fn staged_plan(
    model: &Model,
    cluster: &Cluster,
    config: &DistrEdgeConfig,
    log: &mut SpanLog,
) -> Result<(DistributionStrategy, OsdsOutcome, ClusterProfiles), String> {
    let mut lcpss = config.lcpss;
    lcpss.num_devices = cluster.len();
    let profiles = log.scope("distredge.profiles_collect", None, |_| {
        ClusterProfiles::collect(model, cluster, &config.profiles)
    });
    let scheme = log
        .scope("distredge.lc_pss", None, |_| lc_pss(model, &lcpss))
        .map_err(err)?;
    let osds = log
        .scope("distredge.osds_train", None, |_| {
            let mut env = SplitEnv::new(model, cluster, &profiles, &scheme);
            osds_train(&mut env, &config.osds, None)
        })
        .map_err(err)?;
    let strategy =
        DistributionStrategy::new("DistrEdge", scheme, osds.best_splits.clone(), cluster.len())
            .map_err(err)?;
    Ok((strategy, osds, profiles))
}

/// The traced pass: where planning time goes, stage by stage.
pub fn run_traced(opts: &RunOpts, log: &mut SpanLog) -> Result<Outcome, String> {
    let setup = log.scope("e2e.setup", None, |_| set_up(opts.seed));
    let mut outcome = Outcome::default();
    let mut baselines_ms = 0.0;
    let mut episodes = 0;
    let mut last = None;
    for (i, cluster) in setup.clusters.iter().enumerate() {
        let config = config(cluster, opts);
        let t0 = Instant::now();
        let staged = log.scope(&format!("distredge.plan.{}", SCENARIOS[i]), None, |log| {
            staged_plan(&setup.model, cluster, &config, log)
        })?;
        outcome.set(
            &format!("distredge.plan_s.{}", SCENARIOS[i]),
            t0.elapsed().as_secs_f64(),
        );
        let reference = DistrEdge::plan(&setup.model, cluster, &config).map_err(err)?;
        outcome.attempted += 1;
        if reference.strategy != staged.0 {
            println!(
                "scenario {}: the staged plan differs from DistrEdge::plan's",
                SCENARIOS[i]
            );
            outcome.failed += 1;
        }
        let t0 = Instant::now();
        let baseline_ips = log.scope("distredge.baselines_plan", None, |_| {
            best_baseline_ips(&setup.model, cluster, &config)
        })?;
        baselines_ms += t0.elapsed().as_secs_f64() * 1e3;
        outcome.set(
            &format!("distredge.quality.{}", SCENARIOS[i]),
            quality(&setup.model, cluster, &staged.0, baseline_ips)?,
        );
        episodes += staged.1.episode_latencies_ms.len();
        last = Some((i, staged));
    }
    outcome.set("distredge.baselines_plan_ms", baselines_ms);
    let span_total = |log: &SpanLog, span: &str| log.durations_ms(span).iter().sum::<f64>();
    let osds_ms = span_total(log, "distredge.osds_train");
    outcome.set(
        "distredge.profiles_collect_ms",
        span_total(log, "distredge.profiles_collect"),
    );
    outcome.set("distredge.lc_pss_ms", span_total(log, "distredge.lc_pss"));
    outcome.set("distredge.osds_train_ms", osds_ms);
    outcome.set(
        "distredge.osds_episodes_per_s",
        episodes as f64 / (osds_ms / 1e3),
    );

    // Single calls of the inner loops, on the last (16-device) scenario.
    let (i, (strategy, osds, profiles)) = last.ok_or("no scenario was planned")?;
    let cluster = &setup.clusters[i];
    let reps = if opts.quick { 20 } else { 300 };
    let mut env = SplitEnv::new(&setup.model, cluster, &profiles, &strategy.scheme);
    let mut agent: DdpgAgent = osds.agent;
    let mut state = env.reset();
    let mut batch: Vec<Transition> = Vec::new();
    let mut act_us = Vec::with_capacity(reps);
    let mut step_us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let action = log.scope("neuro.ddpg_act", None, |_| agent.act(&state));
        act_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let step = log
            .scope("distredge.mdp_step", None, |_| env.step(&action))
            .map_err(err)?;
        step_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let next_state = if step.done {
            env.reset()
        } else {
            step.next_state.clone()
        };
        batch.push(Transition {
            state: std::mem::replace(&mut state, next_state),
            action,
            reward: step.reward,
            next_state: step.next_state,
            done: step.done,
        });
    }
    outcome.set("neuro.ddpg_act_us", median(&act_us));
    outcome.set("distredge.mdp_step_us", median(&step_us));
    batch.truncate(config(cluster, opts).osds.batch_size);
    let update_us = log.micro_us("neuro.ddpg_update", reps.min(100), || agent.update(&batch));
    outcome.set("neuro.ddpg_update_us", update_us);
    let plan = strategy.to_plan(&setup.model).map_err(err)?;
    let compute = cluster.ground_truth_compute();
    let simulate_us = log.micro_us("edgesim.simulate", reps.min(100), || {
        simulate(&setup.model, cluster, &compute, &plan, sim_options())
    });
    outcome.set("edgesim.simulate_ms", simulate_us / 1e3);
    Ok(outcome)
}

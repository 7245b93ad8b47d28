//! OSDS — Optimal Split Decision Search (paper Algorithm 2).
//!
//! A DDPG agent is trained over the [`SplitEnv`] MDP: at each step it emits
//! raw cut points for the current layer-volume, observes the accumulated
//! device latencies, and at the end of the episode receives the inverse
//! end-to-end latency as reward.  The best split decisions seen during
//! training are returned together with the trained agent (the paper keeps
//! `R*_s`, `Actor*` and `Critic*`).

use crate::mdp::SplitEnv;
use crate::Result;
use cnn_model::VolumeSplit;
use neuro::{DdpgAgent, DdpgConfig, GaussianNoise, ReplayBuffer, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of OSDS (paper §V: Max_ep = 4000, Δε = 1/250,
/// σ² = 0.1 with four providers / 1.0 with sixteen, N_b = 64, γ = 0.99).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OsdsConfig {
    /// Number of training episodes.
    pub max_episodes: usize,
    /// Exploration decay Δε; the exploration probability in episode `e` is
    /// `max(0, 1 − (e · Δε)²)`.
    pub delta_eps: f64,
    /// Variance σ² of the Gaussian exploration noise.
    pub sigma_squared: f64,
    /// Mini-batch size N_b.
    pub batch_size: usize,
    /// Replay buffer capacity.
    pub replay_capacity: usize,
    /// DDPG network / optimiser configuration.
    pub ddpg: DdpgConfig,
    /// RNG seed (exploration decisions and replay sampling).
    pub seed: u64,
}

impl OsdsConfig {
    /// The paper's hyper-parameters for a given provider count.
    pub fn paper_defaults(num_devices: usize) -> Self {
        Self {
            max_episodes: 4000,
            delta_eps: 1.0 / 250.0,
            sigma_squared: if num_devices >= 16 { 1.0 } else { 0.1 },
            batch_size: 64,
            replay_capacity: 100_000,
            ddpg: DdpgConfig::default(),
            seed: 0,
        }
    }

    /// A reduced configuration for CI-scale experiment runs: smaller
    /// networks and 300 episodes instead of 4000.  The learning dynamics
    /// are the same; only the budget shrinks.
    pub fn fast(num_devices: usize) -> Self {
        Self {
            max_episodes: 300,
            delta_eps: 1.0 / 60.0,
            sigma_squared: if num_devices >= 16 { 1.0 } else { 0.15 },
            batch_size: 32,
            replay_capacity: 20_000,
            ddpg: DdpgConfig {
                actor_hidden: [64, 48, 32],
                critic_hidden: [64, 48, 32, 32],
                actor_lr: 1e-3,
                critic_lr: 3e-3,
                ..DdpgConfig::default()
            },
            seed: 0,
        }
    }

    /// Overrides the episode budget.
    pub fn with_episodes(mut self, episodes: usize) -> Self {
        self.max_episodes = episodes;
        self
    }

    /// Overrides the RNG / network seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.ddpg.seed = seed;
        self
    }
}

/// The result of an OSDS run.
#[derive(Debug, Clone)]
pub struct OsdsOutcome {
    /// Best split decisions found (`R*_s`).
    pub best_splits: Vec<VolumeSplit>,
    /// End-to-end latency of the best episode (ms), under the training
    /// latency oracle.
    pub best_latency_ms: f64,
    /// Latency of each training episode (the learning curve).
    pub episode_latencies_ms: Vec<f64>,
    /// The trained agent (`Actor*` / `Critic*` are its parameters at the
    /// best episode; the live networks continue training past it).
    pub agent: DdpgAgent,
    /// Actor parameters snapshot at the best episode.
    pub best_actor_params: Vec<f64>,
}

/// Runs OSDS on an environment, optionally warm-starting from an existing
/// agent (used by the online adaptation of §V-F, where the actor is
/// fine-tuned after the partition locations change).
pub fn osds_train(
    env: &mut SplitEnv<'_>,
    config: &OsdsConfig,
    warm_start: Option<DdpgAgent>,
) -> Result<OsdsOutcome> {
    assert!(
        env.num_devices() >= 2,
        "OSDS needs at least two service providers"
    );
    let state_dim = env.state_dim();
    let action_dim = env.action_dim();
    let mut agent = match warm_start {
        Some(a) => {
            assert_eq!(
                a.state_dim, state_dim,
                "warm-start agent state dim mismatch"
            );
            assert_eq!(
                a.action_dim, action_dim,
                "warm-start agent action dim mismatch"
            );
            a
        }
        None => DdpgAgent::new(state_dim, action_dim, config.ddpg),
    };
    let mut replay = ReplayBuffer::new(config.replay_capacity);
    let mut noise = GaussianNoise::new(config.sigma_squared, config.seed.wrapping_add(101));
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(7));

    let mut best_latency = f64::INFINITY;
    let mut best_splits: Vec<VolumeSplit> = Vec::new();
    let mut best_actor_params = agent.actor_params();
    let mut episode_latencies = Vec::with_capacity(config.max_episodes);

    // Scripted episodes for the special distribution forms (Fig. 1): the
    // equal split and every single-device allocation.  They populate the
    // replay buffer with informative transitions and set the initial
    // best-so-far, so the returned strategy can never be worse than these
    // degenerate members of the search space, even on a small episode
    // budget.
    let n = env.num_devices();
    let mut candidates: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    // Equal split: cut fractions i/n mapped to [-1, 1].
    candidates.push((1..n).map(|i| 2.0 * i as f64 / n as f64 - 1.0).collect());
    // Everything to device d: d leading cuts at -1 (zero rows before d),
    // the rest at +1 (all remaining rows on d).
    for d in 0..n {
        candidates.push((0..n - 1).map(|i| if i < d { -1.0 } else { 1.0 }).collect());
    }
    for raw in candidates {
        let mut state = env.reset();
        loop {
            let outcome = env.step(&raw)?;
            replay.push(Transition {
                state: std::mem::replace(&mut state, outcome.next_state.clone()),
                action: raw.clone(),
                reward: outcome.reward,
                next_state: outcome.next_state,
                done: outcome.done,
            });
            if outcome.done {
                break;
            }
        }
        let latency = env.episode_latency_ms().expect("scripted episode finished");
        if latency < best_latency {
            best_latency = latency;
            best_splits = env.splits().to_vec();
        }
    }

    for episode in 0..config.max_episodes {
        let mut state = env.reset();
        let eps = (1.0 - (episode as f64 * config.delta_eps).powi(2)).max(0.0);
        loop {
            let mut raw = agent.act(&state);
            if rng.gen::<f64>() < eps {
                noise.perturb(&mut raw);
            }
            let outcome = env.step(&raw)?;
            replay.push(Transition {
                state: std::mem::replace(&mut state, outcome.next_state.clone()),
                action: raw,
                reward: outcome.reward,
                next_state: outcome.next_state,
                done: outcome.done,
            });
            let batch = replay.sample(config.batch_size, &mut rng);
            agent.update(&batch);
            if outcome.done {
                break;
            }
        }
        let latency = env.episode_latency_ms().expect("episode finished");
        episode_latencies.push(latency);
        if latency < best_latency {
            best_latency = latency;
            best_splits = env.splits().to_vec();
            best_actor_params = agent.actor_params();
        }
    }

    Ok(OsdsOutcome {
        best_splits,
        best_latency_ms: best_latency,
        episode_latencies_ms: episode_latencies,
        agent,
        best_actor_params,
    })
}

/// Greedy rollout of a trained actor (no exploration): the online decision
/// path of §V-F, where the stored actor runs on the controller to produce
/// split decisions for the current network conditions.
pub fn greedy_rollout(env: &mut SplitEnv<'_>, agent: &mut DdpgAgent) -> Result<Vec<VolumeSplit>> {
    let mut state = env.reset();
    loop {
        let raw = agent.act(&state);
        let outcome = env.step(&raw)?;
        state = outcome.next_state;
        if outcome.done {
            break;
        }
    }
    Ok(env.splits().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_model::{LayerOp, Model, PartitionScheme};
    use device_profile::{DeviceSpec, DeviceType};
    use edgesim::Cluster;
    use netsim::LinkConfig;
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

    fn cluster() -> Cluster {
        Cluster::uniform(
            vec![
                DeviceSpec::new("xavier", DeviceType::Xavier),
                DeviceSpec::new("nano", DeviceType::Nano),
            ],
            LinkConfig::constant(200.0),
        )
    }

    fn tiny_config(episodes: usize) -> OsdsConfig {
        OsdsConfig {
            max_episodes: episodes,
            delta_eps: 1.0 / 20.0,
            sigma_squared: 0.2,
            batch_size: 16,
            replay_capacity: 4096,
            ddpg: neuro::DdpgConfig {
                actor_hidden: [24, 16, 12],
                critic_hidden: [24, 16, 12, 12],
                actor_lr: 1e-3,
                critic_lr: 3e-3,
                ..neuro::DdpgConfig::default()
            },
            seed: 3,
        }
    }

    #[test]
    fn paper_defaults_follow_the_paper() {
        let four = OsdsConfig::paper_defaults(4);
        assert_eq!(four.max_episodes, 4000);
        assert!((four.sigma_squared - 0.1).abs() < 1e-12);
        assert_eq!(four.batch_size, 64);
        let sixteen = OsdsConfig::paper_defaults(16);
        assert!((sixteen.sigma_squared - 1.0).abs() < 1e-12);
        assert_eq!(four.ddpg.actor_hidden, [400, 200, 100]);
        assert_eq!(four.ddpg.critic_hidden, [400, 200, 100, 100]);
    }

    #[test]
    fn config_builders() {
        let c = OsdsConfig::fast(4).with_episodes(10).with_seed(9);
        assert_eq!(c.max_episodes, 10);
        assert_eq!(c.seed, 9);
        assert_eq!(c.ddpg.seed, 9);
    }

    #[test]
    fn training_returns_valid_splits_and_curve() {
        let m = model();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let scheme = PartitionScheme::new(&m, vec![0, 3, 5]).unwrap();
        let mut env = SplitEnv::new(&m, &c, &compute, &scheme);
        let outcome = osds_train(&mut env, &tiny_config(30), None).unwrap();
        assert_eq!(outcome.best_splits.len(), 2);
        assert_eq!(outcome.episode_latencies_ms.len(), 30);
        assert!(outcome.best_latency_ms.is_finite() && outcome.best_latency_ms > 0.0);
        // The best latency can only improve on the training curve (it may
        // come from one of the scripted special-case episodes).
        let min = outcome
            .episode_latencies_ms
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(outcome.best_latency_ms <= min + 1e-9);
        assert!(!outcome.best_actor_params.is_empty());
    }

    #[test]
    fn training_beats_the_worst_static_split() {
        // On a Xavier + Nano pair, giving everything to the Nano is clearly
        // bad; OSDS must find something better than that within a small
        // budget.
        let m = model();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let scheme = PartitionScheme::single_volume(&m);
        let mut env = SplitEnv::new(&m, &c, &compute, &scheme);
        let h = m.prefix_output().h;
        let all_on_nano = env
            .evaluate_splits(&[cnn_model::VolumeSplit::new(vec![0], h)])
            .unwrap();
        let outcome = osds_train(&mut env, &tiny_config(40), None).unwrap();
        assert!(
            outcome.best_latency_ms < all_on_nano,
            "OSDS best {} should beat all-on-Nano {}",
            outcome.best_latency_ms,
            all_on_nano
        );
    }

    #[test]
    fn greedy_rollout_produces_one_split_per_volume() {
        let m = model();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let scheme = PartitionScheme::new(&m, vec![0, 3, 5]).unwrap();
        let mut env = SplitEnv::new(&m, &c, &compute, &scheme);
        let outcome = osds_train(&mut env, &tiny_config(10), None).unwrap();
        let mut agent = outcome.agent;
        let splits = greedy_rollout(&mut env, &mut agent).unwrap();
        assert_eq!(splits.len(), 2);
    }

    #[test]
    fn warm_start_is_accepted() {
        let m = model();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let scheme = PartitionScheme::single_volume(&m);
        let mut env = SplitEnv::new(&m, &c, &compute, &scheme);
        let first = osds_train(&mut env, &tiny_config(10), None).unwrap();
        let second = osds_train(&mut env, &tiny_config(5), Some(first.agent)).unwrap();
        assert_eq!(second.episode_latencies_ms.len(), 5);
    }
}

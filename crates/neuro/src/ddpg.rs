//! Deep Deterministic Policy Gradient (Lillicrap et al.) — the continuous
//! action-space actor-critic algorithm the OSDS splitter trains.  One
//! update is one batched pass per network phase through the fused dense
//! kernel, then one one-division Adam step per trained network and a soft
//! update of each target (numerics: the crate docs' contract).

use crate::adam::Adam;
use crate::kernels::Arm;
use crate::mlp::{ActKind, Mlp};
use crate::replay::Transition;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Hyper-parameters of a DDPG agent.  The defaults follow §V of the paper:
/// actor hidden layers {400, 200, 100}, critic hidden layers
/// {400, 200, 100, 100}, learning rates 1e-4 / 1e-3, γ = 0.99.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DdpgConfig {
    /// Discount factor γ.
    pub gamma: f64,
    /// Soft target-update coefficient τ.
    pub tau: f64,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Actor hidden layer sizes.
    pub actor_hidden: [usize; 3],
    /// Critic hidden layer sizes.
    pub critic_hidden: [usize; 4],
    /// RNG seed for network initialisation.
    pub seed: u64,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            tau: 0.005,
            actor_lr: 1e-4,
            critic_lr: 1e-3,
            actor_hidden: [400, 200, 100],
            critic_hidden: [400, 200, 100, 100],
            seed: 0,
        }
    }
}

/// A DDPG actor-critic agent with target networks.
///
/// Every buffer an update needs lives in the agent's networks and is
/// reused, so a steady-state [`DdpgAgent::update`] allocates nothing; a
/// clone copies parameters and optimiser state and starts with empty
/// buffers.
#[derive(Debug, Clone)]
pub struct DdpgAgent {
    /// State dimensionality.
    pub state_dim: usize,
    /// Action dimensionality.
    pub action_dim: usize,
    config: DdpgConfig,
    actor: Mlp,
    critic: Mlp,
    actor_target: Mlp,
    critic_target: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
}

/// Writes one field of every transition into `dst`, feature-major
/// (`dst[f * batch + s]`).
fn gather<T: Borrow<Transition>>(
    dst: &mut [f64],
    batch: &[T],
    field: impl Fn(&Transition) -> &[f64],
) {
    for (s, t) in batch.iter().enumerate() {
        let values = field(t.borrow());
        assert_eq!(
            values.len() * batch.len(),
            dst.len(),
            "transition of another dimensionality"
        );
        for (f, &v) in values.iter().enumerate() {
            dst[f * batch.len() + s] = v;
        }
    }
}

impl DdpgAgent {
    /// Creates a new agent for the given state/action dimensionalities.
    pub fn new(state_dim: usize, action_dim: usize, config: DdpgConfig) -> Self {
        let a = config.actor_hidden;
        let c = config.critic_hidden;
        let actor_dims = [state_dim, a[0], a[1], a[2], action_dim];
        let critic_dims = [state_dim + action_dim, c[0], c[1], c[2], c[3], 1];
        let actor = Mlp::new(&actor_dims, ActKind::Tanh, config.seed.wrapping_add(1));
        let critic = Mlp::new(&critic_dims, ActKind::Identity, config.seed.wrapping_add(2));
        let actor_target = actor.clone();
        let critic_target = critic.clone();
        let actor_opt = Adam::new(actor.num_params(), config.actor_lr);
        let critic_opt = Adam::new(critic.num_params(), config.critic_lr);
        Self {
            state_dim,
            action_dim,
            config,
            actor,
            critic,
            actor_target,
            critic_target,
            actor_opt,
            critic_opt,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> DdpgConfig {
        self.config
    }

    /// Deterministic policy: actor output in `[-1, 1]^action_dim`.
    pub fn act(&mut self, state: &[f64]) -> Vec<f64> {
        self.actor.forward(state)
    }

    /// Critic value `Q(s, a)`.
    pub fn q_value(&mut self, state: &[f64], action: &[f64]) -> f64 {
        let (s, a) = self.critic.input_mut(1).split_at_mut(self.state_dim);
        s.copy_from_slice(state);
        a.copy_from_slice(action);
        self.critic.forward_batch(Arm::detected())[0]
    }

    /// One DDPG update over a mini-batch (of transitions or of borrows of
    /// them).  Returns `(critic_loss, actor_loss)` for monitoring.
    pub fn update<T: Borrow<Transition>>(&mut self, batch: &[T]) -> (f64, f64) {
        self.update_on(Arm::detected(), batch)
    }

    /// [`DdpgAgent::update`] on a given arm of the dense kernels.
    pub(crate) fn update_on<T: Borrow<Transition>>(&mut self, arm: Arm, batch: &[T]) -> (f64, f64) {
        if batch.is_empty() {
            return (0.0, 0.0);
        }
        let b = batch.len();
        let n = b as f64;
        let gamma = self.config.gamma;
        let states = self.state_dim * b;

        // --- Critic update: minimise (Q(s,a) - y)² with
        //     y = r + γ (1-done) Q'(s', μ'(s')).  The target networks run
        //     over every next state; a terminal transition ignores theirs.
        gather(self.actor_target.input_mut(b), batch, |t| &t.next_state);
        self.actor_target.forward_batch(arm);
        let (s, a) = self.critic_target.input_mut(b).split_at_mut(states);
        s.copy_from_slice(self.actor_target.input());
        a.copy_from_slice(self.actor_target.output());
        self.critic_target.forward_batch(arm);

        let (s, a) = self.critic.input_mut(b).split_at_mut(states);
        gather(s, batch, |t| &t.state);
        gather(a, batch, |t| &t.action);
        self.critic.forward_batch(arm);
        let (q, grad) = self.critic.output_and_grad_mut();
        let next_q = self.critic_target.output();
        let mut critic_loss = 0.0;
        for (((t, &next_q), &q), grad) in batch.iter().zip(next_q).zip(q).zip(grad) {
            let t = t.borrow();
            let y = if t.done {
                t.reward
            } else {
                t.reward + gamma * next_q
            };
            let err = q - y;
            critic_loss += err * err / n;
            *grad = 2.0 * err / n;
        }
        self.critic.backward_batch(arm, true, 0..0);
        self.critic_opt.step(&mut self.critic);

        // --- Actor update: maximise Q(s, μ(s)), i.e. minimise -Q.  The
        //     critic's input still holds the states; only dL/d(action)
        //     leaves it, and its own parameter gradients are not formed.
        self.actor
            .input_mut(b)
            .copy_from_slice(&self.critic.input()[..states]);
        let action = self.actor.forward_batch(arm);
        self.critic.input_mut(b)[states..].copy_from_slice(action);
        let q = self.critic.forward_batch(arm);
        let mut actor_loss = 0.0;
        for q in q {
            actor_loss += -q / n;
        }
        // dL/dQ = -1/n; propagate through the critic to get dL/d(action).
        self.critic.output_grad_mut().fill(-1.0 / n);
        let action_rows = self.state_dim..self.state_dim + self.action_dim;
        let grad_action = self.critic.backward_batch(arm, false, action_rows);
        self.actor.output_grad_mut().copy_from_slice(grad_action);
        self.actor.backward_batch(arm, true, 0..0);
        self.actor_opt.step(&mut self.actor);

        // --- Soft-update target networks.
        self.actor_target
            .soft_update_from(&self.actor, self.config.tau);
        self.critic_target
            .soft_update_from(&self.critic, self.config.tau);

        (critic_loss, actor_loss)
    }

    /// Snapshot of the current actor parameters (used to store `Actor*` in
    /// Algorithm 2).
    pub fn actor_params(&self) -> Vec<f64> {
        self.actor.params_flat()
    }

    /// Restores actor parameters from a snapshot.
    pub fn set_actor_params(&mut self, params: &[f64]) {
        self.actor.set_params_flat(params);
    }

    /// Snapshot of the current critic parameters (Algorithm 2's `Critic*`).
    pub fn critic_params(&self) -> Vec<f64> {
        self.critic.params_flat()
    }

    /// Actor, critic, actor target, critic target.
    #[cfg(test)]
    pub(crate) fn networks(&self) -> [&Mlp; 4] {
        [
            &self.actor,
            &self.critic,
            &self.actor_target,
            &self.critic_target,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{Net, PerSampleAgent};
    use crate::replay::ReplayBuffer;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_config(seed: u64) -> DdpgConfig {
        DdpgConfig {
            actor_hidden: [32, 24, 16],
            critic_hidden: [32, 24, 16, 16],
            actor_lr: 1e-3,
            critic_lr: 3e-3,
            seed,
            ..DdpgConfig::default()
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The batched update against the per-sample one it replaced: every
    /// parameter of all four networks, both optimisers' moments and both
    /// losses, bit for bit, update after update, on every arm this CPU
    /// runs — and `act` / `q_value` against the oracle's forward pass.
    #[test]
    fn batched_update_matches_the_per_sample_oracle_on_every_arm() {
        // The benchmark's two agents (4 and 16 devices, `OsdsConfig::fast`
        // networks), then batches on both sides of every tile width.
        let fast = DdpgConfig {
            actor_hidden: [64, 48, 32],
            critic_hidden: [64, 48, 32, 32],
            ..small_config(0)
        };
        let cases = [
            (8, 3, 32, fast),
            (20, 15, 32, fast),
            (5, 2, 7, small_config(0)),
            (6, 1, 64, small_config(0)),
            (4, 3, 1, small_config(0)),
            (9, 4, 33, small_config(0)),
        ];
        for (case, &(state_dim, action_dim, batch, config)) in cases.iter().enumerate() {
            for arm in Arm::available() {
                let config = DdpgConfig {
                    seed: 40 + case as u64,
                    ..config
                };
                let mut agent = DdpgAgent::new(state_dim, action_dim, config);
                let mut oracle = PerSampleAgent::mirror(&agent);
                let mut rng = StdRng::seed_from_u64(case as u64);
                let mut draw =
                    |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect() };
                for update in 0..20 {
                    let transitions: Vec<Transition> = (0..batch)
                        .map(|s| Transition {
                            state: draw(state_dim),
                            action: draw(action_dim),
                            reward: draw(1)[0],
                            next_state: draw(state_dim),
                            done: (s + update) % 3 == 0,
                        })
                        .collect();
                    let context = format!("case {case} {arm:?} update {update}");
                    let got = agent.update_on(arm, &transitions);
                    let want = oracle.update(&transitions);
                    assert_eq!(
                        (got.0.to_bits(), got.1.to_bits()),
                        (want.0.to_bits(), want.1.to_bits()),
                        "losses, {context}"
                    );
                    let nets = [
                        &oracle.actor,
                        &oracle.critic,
                        &oracle.actor_target,
                        &oracle.critic_target,
                    ];
                    for (i, (got, want)) in agent.networks().into_iter().zip(nets).enumerate() {
                        assert_eq!(
                            bits(&got.params_flat()),
                            bits(&want.params_flat()),
                            "network {i}, {context}"
                        );
                    }
                    let moments = [
                        (&agent.actor_opt, &oracle.actor_opt),
                        (&agent.critic_opt, &oracle.critic_opt),
                    ];
                    for (got, want) in moments {
                        let (m, v) = got.moments();
                        assert_eq!(bits(m), bits(&want.m), "first moments, {context}");
                        assert_eq!(bits(v), bits(&want.v), "second moments, {context}");
                    }
                    let (state, action) = (draw(state_dim), draw(action_dim));
                    assert_eq!(bits(&agent.act(&state)), bits(&oracle.act(&state)));
                    assert_eq!(
                        agent.q_value(&state, &action).to_bits(),
                        oracle.q_value(&state, &action).to_bits()
                    );
                }
            }
        }
    }

    /// The per-sample `forward` / `backward` of an [`Mlp`] are the batch of
    /// one of the same kernels: outputs, input gradient and accumulated
    /// parameter gradients equal the oracle's, over two accumulating
    /// backward passes.
    #[test]
    fn single_sample_passes_match_the_oracle() {
        let dims = [7, 19, 9, 3];
        let mut mlp = Mlp::new(&dims, ActKind::Tanh, 5);
        let mut net = Net::mirror(&mlp, &dims, ActKind::Tanh);
        let mut rng = StdRng::seed_from_u64(6);
        mlp.zero_grad();
        net.zero_grad();
        for _ in 0..2 {
            let x: Vec<f64> = (0..7).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let g: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
            assert_eq!(bits(&mlp.forward(&x)), bits(&net.forward(&x)));
            assert_eq!(bits(&mlp.backward(&g)), bits(&net.backward(&g)));
            assert_eq!(bits(&mlp.grads_flat()), bits(&net.grads_flat()));
        }
    }

    #[test]
    fn act_is_bounded_and_correct_dim() {
        let mut agent = DdpgAgent::new(5, 3, small_config(1));
        let a = agent.act(&[0.1, -0.5, 0.3, 0.0, 0.9]);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn update_on_empty_batch_is_noop() {
        let mut agent = DdpgAgent::new(3, 2, small_config(2));
        let before = agent.actor_params();
        let (cl, al) = agent.update::<Transition>(&[]);
        assert_eq!((cl, al), (0.0, 0.0));
        assert_eq!(agent.actor_params(), before);
    }

    #[test]
    fn critic_loss_decreases_on_fixed_batch() {
        // A fixed supervised-style batch: the critic should fit the targets.
        let mut agent = DdpgAgent::new(2, 1, small_config(3));
        let mut rng = StdRng::seed_from_u64(5);
        let batch: Vec<Transition> = (0..32)
            .map(|_| {
                let s = vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
                let a = vec![rng.gen_range(-1.0..1.0)];
                let r = s[0] + a[0];
                Transition {
                    state: s.clone(),
                    action: a,
                    reward: r,
                    next_state: s,
                    done: true,
                }
            })
            .collect();
        let (first_loss, _) = agent.update(&batch);
        let mut last_loss = first_loss;
        for _ in 0..200 {
            let (l, _) = agent.update(&batch);
            last_loss = l;
        }
        assert!(
            last_loss < first_loss * 0.2,
            "first {first_loss}, last {last_loss}"
        );
    }

    /// A one-step continuous bandit: reward = 1 - (a - 0.6)².  DDPG should
    /// steer the deterministic policy towards a ≈ 0.6.
    #[test]
    fn solves_continuous_bandit() {
        let mut agent = DdpgAgent::new(1, 1, small_config(7));
        let mut buffer = ReplayBuffer::new(4096);
        let mut rng = StdRng::seed_from_u64(11);
        let state = vec![0.5];
        for episode in 0..600 {
            let mut action = agent.act(&state);
            // Exploration noise decaying over time.
            let sigma = if episode < 400 { 0.4 } else { 0.05 };
            action[0] = (action[0] + rng.gen_range(-sigma..sigma)).clamp(-1.0, 1.0);
            let reward = 1.0 - (action[0] - 0.6) * (action[0] - 0.6);
            buffer.push(Transition {
                state: state.clone(),
                action,
                reward,
                next_state: state.clone(),
                done: true,
            });
            let batch = buffer.sample(32, &mut rng);
            agent.update(&batch);
        }
        let final_action = agent.act(&state)[0];
        assert!(
            (final_action - 0.6).abs() < 0.25,
            "policy should approach 0.6, got {final_action}"
        );
    }

    #[test]
    fn actor_param_snapshot_roundtrip() {
        let mut agent = DdpgAgent::new(3, 2, small_config(9));
        let snap = agent.actor_params();
        // Perturb by training on a dummy batch.
        let batch = vec![Transition {
            state: vec![0.1, 0.2, 0.3],
            action: vec![0.0, 0.0],
            reward: 1.0,
            next_state: vec![0.1, 0.2, 0.3],
            done: true,
        }];
        for _ in 0..5 {
            agent.update(&batch);
        }
        assert_ne!(agent.actor_params(), snap);
        agent.set_actor_params(&snap);
        assert_eq!(agent.actor_params(), snap);
        assert!(!agent.critic_params().is_empty());
    }
}

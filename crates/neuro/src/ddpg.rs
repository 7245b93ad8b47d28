//! Deep Deterministic Policy Gradient (Lillicrap et al.) — the continuous
//! action-space actor-critic algorithm the OSDS splitter trains.  One
//! update is one batched pass per network phase through the fused dense
//! kernel, then one one-division Adam step per trained network and a soft
//! update of each target (numerics: the crate docs' contract).  The agent
//! computes in `f32` and speaks `f64`: states, actions and rewards are
//! rounded once on the way in, and values leave widened exactly.

use crate::adam::Adam;
use crate::kernels::Arm;
use crate::mlp::{ActKind, Mlp};
use crate::replay::{Batch, Transition};
use serde::{Deserialize, Serialize};

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

/// Writes one field of the `batch` transitions `picks` into `dst`, rounded
/// to `f32`, feature-major (`dst[f * batch + s]`).
fn gather<'a>(
    dst: &mut [f32],
    batch: usize,
    picks: impl Iterator<Item = &'a Transition>,
    field: impl Fn(&Transition) -> &[f64],
) {
    for (s, t) in picks.enumerate() {
        let values = field(t);
        assert_eq!(
            values.len() * batch,
            dst.len(),
            "transition of another dimensionality"
        );
        for (f, &v) in values.iter().enumerate() {
            dst[f * batch + s] = v as f32;
        }
    }
}

/// The transitions of a batch, in order.
fn transitions<B: Batch + ?Sized>(batch: &B) -> impl Iterator<Item = &Transition> {
    (0..batch.len()).map(move |i| batch.get(i))
}

/// `dst[i] = src[i]` rounded to `f32`.
fn narrow(dst: &mut [f32], src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "a vector of another dimensionality");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s as f32;
    }
}

/// `src`, each value widened to `f64` (exactly).
fn widened(src: &[f32]) -> Vec<f64> {
    src.iter().map(|&v| f64::from(v)).collect()
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
        narrow(self.actor.input_mut(1), state);
        widened(self.actor.forward_batch(Arm::detected()))
    }

    /// Critic value `Q(s, a)`.
    pub fn q_value(&mut self, state: &[f64], action: &[f64]) -> f64 {
        let (s, a) = self.critic.input_mut(1).split_at_mut(self.state_dim);
        narrow(s, state);
        narrow(a, action);
        f64::from(self.critic.forward_batch(Arm::detected())[0])
    }

    /// One DDPG update over a mini-batch: a slice or `Vec` of transitions
    /// or of borrows of them, or a replay [`crate::replay::Sample`].
    /// Returns `(critic_loss, actor_loss)` for monitoring.
    pub fn update<B: Batch + ?Sized>(&mut self, batch: &B) -> (f64, f64) {
        self.update_on(Arm::detected(), batch)
    }

    /// [`DdpgAgent::update`] on a given arm of the vector loops.
    pub(crate) fn update_on<B: Batch + ?Sized>(&mut self, arm: Arm, batch: &B) -> (f64, f64) {
        if batch.is_empty() {
            return (0.0, 0.0);
        }
        let b = batch.len();
        let n = b as f32;
        let gamma = self.config.gamma as f32;
        let states = self.state_dim * b;

        // --- Critic update: minimise (Q(s,a) - y)² with
        //     y = r + γ (1-done) Q'(s', μ'(s')).  The target networks run
        //     over the next states of the non-terminal transitions only,
        //     packed in batch order; a terminal transition's `y` is `r`.
        let live = transitions(batch).filter(|t| !t.done).count();
        if live > 0 {
            let next = transitions(batch).filter(|t| !t.done);
            gather(self.actor_target.input_mut(live), live, next, |t| {
                &t.next_state
            });
            self.actor_target.forward_batch(arm);
            let live_states = self.state_dim * live;
            let (s, a) = self.critic_target.input_mut(live).split_at_mut(live_states);
            s.copy_from_slice(self.actor_target.input());
            a.copy_from_slice(self.actor_target.output());
            self.critic_target.forward_batch(arm);
        }

        let (s, a) = self.critic.input_mut(b).split_at_mut(states);
        gather(s, b, transitions(batch), |t| &t.state);
        gather(a, b, transitions(batch), |t| &t.action);
        self.critic.forward_batch(arm);
        let (q, grad) = self.critic.output_and_grad_mut();
        let mut next_q = match live {
            0 => [].iter(),
            _ => self.critic_target.output().iter(),
        };
        let mut critic_loss = 0.0f32;
        for ((t, &q), grad) in transitions(batch).zip(q).zip(grad) {
            let reward = t.reward as f32;
            let y = if t.done {
                reward
            } else {
                let next_q = next_q.next().expect("one target value per live transition");
                reward + gamma * next_q
            };
            let err = q - y;
            critic_loss += err * err / n;
            *grad = 2.0 * err / n;
        }
        self.critic.backward_batch(arm, true, 0..0);
        self.critic_opt.step_on(arm, &mut self.critic);

        // --- Actor update: maximise Q(s, μ(s)), i.e. minimise -Q.  The
        //     critic's input still holds the states; only dL/d(action)
        //     leaves it, and its own parameter gradients are not formed.
        self.actor
            .input_mut(b)
            .copy_from_slice(&self.critic.input()[..states]);
        let action = self.actor.forward_batch(arm);
        self.critic.input_mut(b)[states..].copy_from_slice(action);
        let q = self.critic.forward_batch(arm);
        let mut actor_loss = 0.0f32;
        for q in q {
            actor_loss += -q / n;
        }
        // dL/dQ = -1/n; propagate through the critic to get dL/d(action).
        self.critic.output_grad_mut().fill(-1.0 / n);
        let action_rows = self.state_dim..self.state_dim + self.action_dim;
        let grad_action = self.critic.backward_batch(arm, false, action_rows);
        self.actor.output_grad_mut().copy_from_slice(grad_action);
        self.actor.backward_batch(arm, true, 0..0);
        self.actor_opt.step_on(arm, &mut self.actor);

        // --- Soft-update target networks.
        let tau = self.config.tau as f32;
        self.actor_target.soft_update_from(&self.actor, tau);
        self.critic_target.soft_update_from(&self.critic, tau);

        (f64::from(critic_loss), f64::from(actor_loss))
    }

    /// Snapshot of the current actor parameters (used to store `Actor*` in
    /// Algorithm 2), widened exactly from `f32`.
    pub fn actor_params(&self) -> Vec<f64> {
        widened(&self.actor.params_flat())
    }

    /// Restores actor parameters from a snapshot, rounding each to `f32` (a
    /// snapshot taken by [`DdpgAgent::actor_params`] comes back exactly).
    pub fn set_actor_params(&mut self, params: &[f64]) {
        let narrowed: Vec<f32> = params.iter().map(|&p| p as f32).collect();
        self.actor.set_params_flat(&narrowed);
    }

    /// Snapshot of the current critic parameters (Algorithm 2's `Critic*`),
    /// widened exactly from `f32`.
    pub fn critic_params(&self) -> Vec<f64> {
        widened(&self.critic.params_flat())
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

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn wide_bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Which transitions of a batch are terminal.
    #[derive(Debug, Clone, Copy)]
    enum Done {
        /// Every third, shifting with the update.
        Mixed,
        All,
        None,
    }

    /// The batched update against the per-sample one it replaced: every
    /// parameter of all four networks, both optimisers' moments and both
    /// losses, bit for bit, update after update, on every arm this CPU
    /// runs — and `act` / `q_value` against the oracle's forward pass.
    #[test]
    fn batched_update_matches_the_per_sample_oracle_on_every_arm() {
        // The benchmark's two agents (4 and 16 devices, `OsdsConfig::fast`
        // networks), batches on both sides of every tile width, batches
        // with no and with every transition terminal (the target networks
        // run over the live ones only), and the paper's networks.
        let fast = DdpgConfig {
            actor_hidden: [64, 48, 32],
            critic_hidden: [64, 48, 32, 32],
            ..small_config(0)
        };
        let paper = DdpgConfig {
            actor_lr: 1e-3,
            critic_lr: 3e-3,
            ..DdpgConfig::default()
        };
        let cases = [
            (8, 3, 32, fast, Done::Mixed, 20),
            (20, 15, 32, fast, Done::Mixed, 20),
            (5, 2, 7, small_config(0), Done::Mixed, 20),
            (6, 1, 64, small_config(0), Done::Mixed, 20),
            (4, 3, 1, small_config(0), Done::Mixed, 20),
            (9, 4, 33, small_config(0), Done::Mixed, 20),
            (8, 3, 17, small_config(0), Done::All, 20),
            (8, 3, 17, small_config(0), Done::None, 20),
            (8, 3, 64, paper, Done::Mixed, 3),
        ];
        for (case, &(state_dim, action_dim, batch, config, done, updates)) in
            cases.iter().enumerate()
        {
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
                for update in 0..updates {
                    let transitions: Vec<Transition> = (0..batch)
                        .map(|s| Transition {
                            state: draw(state_dim),
                            action: draw(action_dim),
                            reward: draw(1)[0],
                            next_state: draw(state_dim),
                            done: match done {
                                Done::Mixed => (s + update) % 3 == 0,
                                Done::All => true,
                                Done::None => false,
                            },
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
                    assert_eq!(
                        wide_bits(&agent.act(&state)),
                        wide_bits(&oracle.act(&state))
                    );
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
            let x: Vec<f32> = (0..7).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let g: Vec<f32> = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
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
        let (cl, al) = agent.update(&Vec::<Transition>::new());
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

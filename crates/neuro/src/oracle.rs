//! The per-sample DDPG update the batched passes replaced, kept as the
//! oracle they are tested against: one sample at a time through
//! `acc = w.mul_add(x, acc)` chains, every parameter round-tripped through
//! flat copies.
//! Slow and allocation-heavy on purpose — it is the plainest statement of
//! the numerical contract, and the batched code must match it bit for bit.

use crate::ddpg::{DdpgAgent, DdpgConfig};
use crate::mlp::{ActKind, Mlp};
use crate::replay::Transition;

fn activate(act: ActKind, x: f64) -> f64 {
    match act {
        ActKind::Identity => x,
        ActKind::Relu => x.max(0.0),
        ActKind::Tanh => x.tanh(),
    }
}

fn derivative_from_output(act: ActKind, y: f64) -> f64 {
    match act {
        ActKind::Identity => 1.0,
        ActKind::Relu => {
            if y > 0.0 {
                1.0
            } else {
                0.0
            }
        }
        ActKind::Tanh => 1.0 - y * y,
    }
}

struct Dense {
    in_dim: usize,
    out_dim: usize,
    act: ActKind,
    /// Row-major `[out][in]`.
    w: Vec<f64>,
    b: Vec<f64>,
    grad_w: Vec<f64>,
    grad_b: Vec<f64>,
    last_input: Vec<f64>,
    last_output: Vec<f64>,
}

impl Dense {
    fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim);
        let mut y = Vec::with_capacity(self.out_dim);
        for o in 0..self.out_dim {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = self.b[o];
            for (w, v) in row.iter().zip(x) {
                acc = w.mul_add(*v, acc);
            }
            y.push(activate(self.act, acc));
        }
        self.last_input = x.to_vec();
        self.last_output = y.clone();
        y
    }

    fn backward(&mut self, grad_out: &[f64]) -> Vec<f64> {
        assert_eq!(grad_out.len(), self.out_dim);
        let mut grad_in = vec![0.0; self.in_dim];
        for (o, g) in grad_out.iter().enumerate() {
            let dz = g * derivative_from_output(self.act, self.last_output[o]);
            self.grad_b[o] += dz;
            let row_w = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let row_g = &mut self.grad_w[o * self.in_dim..(o + 1) * self.in_dim];
            for i in 0..self.in_dim {
                row_g[i] = dz.mul_add(self.last_input[i], row_g[i]);
                grad_in[i] = dz.mul_add(row_w[i], grad_in[i]);
            }
        }
        grad_in
    }
}

/// A per-sample network with the shape and parameters of an [`Mlp`].
pub(crate) struct Net {
    layers: Vec<Dense>,
}

impl Net {
    /// `dims` and `output_act` as given to [`Mlp::new`].
    pub(crate) fn mirror(mlp: &Mlp, dims: &[usize], output_act: ActKind) -> Self {
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, io)| Dense {
                in_dim: io[0],
                out_dim: io[1],
                act: if i == dims.len() - 2 {
                    output_act
                } else {
                    ActKind::Relu
                },
                w: vec![0.0; io[0] * io[1]],
                b: vec![0.0; io[1]],
                grad_w: vec![0.0; io[0] * io[1]],
                grad_b: vec![0.0; io[1]],
                last_input: Vec::new(),
                last_output: Vec::new(),
            })
            .collect();
        let mut net = Self { layers };
        net.set_params_flat(&mlp.params_flat());
        net
    }

    pub(crate) fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        let mut cur = x.to_vec();
        for layer in &mut self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    pub(crate) fn backward(&mut self, grad_out: &[f64]) -> Vec<f64> {
        let mut grad = grad_out.to_vec();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        grad
    }

    pub(crate) fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.grad_w.fill(0.0);
            layer.grad_b.fill(0.0);
        }
    }

    pub(crate) fn params_flat(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for l in &self.layers {
            out.extend_from_slice(&l.w);
            out.extend_from_slice(&l.b);
        }
        out
    }

    pub(crate) fn grads_flat(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for l in &self.layers {
            out.extend_from_slice(&l.grad_w);
            out.extend_from_slice(&l.grad_b);
        }
        out
    }

    fn set_params_flat(&mut self, params: &[f64]) {
        let mut rest = params;
        for l in &mut self.layers {
            let (w, tail) = rest.split_at(l.w.len());
            let (b, tail) = tail.split_at(l.b.len());
            l.w.copy_from_slice(w);
            l.b.copy_from_slice(b);
            rest = tail;
        }
        assert!(rest.is_empty());
    }

    fn soft_update_from(&mut self, source: &Net, tau: f64) {
        let src = source.params_flat();
        let mut dst = self.params_flat();
        for (d, s) in dst.iter_mut().zip(&src) {
            *d = tau * s + (1.0 - tau) * *d;
        }
        self.set_params_flat(&dst);
    }
}

/// Adam over flat copies of a [`Net`]'s parameters and gradients.
pub(crate) struct FlatAdam {
    lr: f64,
    pub(crate) m: Vec<f64>,
    pub(crate) v: Vec<f64>,
    t: u64,
}

impl FlatAdam {
    fn new(num_params: usize, lr: f64) -> Self {
        Self {
            lr,
            m: vec![0.0; num_params],
            v: vec![0.0; num_params],
            t: 0,
        }
    }

    fn step(&mut self, net: &mut Net) {
        let (beta1, beta2, eps) = (0.9, 0.999, 1e-8);
        let grads = net.grads_flat();
        let mut params = net.params_flat();
        self.t += 1;
        let bc1 = 1.0 - f64::powi(beta1, self.t as i32);
        let root_bc2 = (1.0 - f64::powi(beta2, self.t as i32)).sqrt();
        let alpha = self.lr * root_bc2 / bc1;
        let eps_hat = eps * root_bc2;
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * g;
            self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * g * g;
            params[i] -= alpha * self.m[i] / (self.v[i].sqrt() + eps_hat);
        }
        net.set_params_flat(&params);
        net.zero_grad();
    }
}

/// The per-sample agent: same networks, same algorithm, one transition at a
/// time.
pub(crate) struct PerSampleAgent {
    state_dim: usize,
    config: DdpgConfig,
    pub(crate) actor: Net,
    pub(crate) critic: Net,
    pub(crate) actor_target: Net,
    pub(crate) critic_target: Net,
    pub(crate) actor_opt: FlatAdam,
    pub(crate) critic_opt: FlatAdam,
}

impl PerSampleAgent {
    /// Mirrors an agent that has not been updated yet.
    pub(crate) fn mirror(agent: &DdpgAgent) -> Self {
        let config = agent.config();
        let (a, c) = (config.actor_hidden, config.critic_hidden);
        let actor_dims = [agent.state_dim, a[0], a[1], a[2], agent.action_dim];
        let critic_dims = [
            agent.state_dim + agent.action_dim,
            c[0],
            c[1],
            c[2],
            c[3],
            1,
        ];
        let [actor, critic, actor_target, critic_target] = agent.networks();
        Self {
            state_dim: agent.state_dim,
            config,
            actor_opt: FlatAdam::new(actor.num_params(), config.actor_lr),
            critic_opt: FlatAdam::new(critic.num_params(), config.critic_lr),
            actor: Net::mirror(actor, &actor_dims, ActKind::Tanh),
            critic: Net::mirror(critic, &critic_dims, ActKind::Identity),
            actor_target: Net::mirror(actor_target, &actor_dims, ActKind::Tanh),
            critic_target: Net::mirror(critic_target, &critic_dims, ActKind::Identity),
        }
    }

    pub(crate) fn act(&mut self, state: &[f64]) -> Vec<f64> {
        self.actor.forward(state)
    }

    pub(crate) fn q_value(&mut self, state: &[f64], action: &[f64]) -> f64 {
        self.critic.forward(&[state, action].concat())[0]
    }

    pub(crate) fn update(&mut self, batch: &[Transition]) -> (f64, f64) {
        if batch.is_empty() {
            return (0.0, 0.0);
        }
        let n = batch.len() as f64;
        let gamma = self.config.gamma;

        let mut targets = Vec::with_capacity(batch.len());
        for t in batch {
            let y = if t.done {
                t.reward
            } else {
                let next_action = self.actor_target.forward(&t.next_state);
                let mut input = t.next_state.clone();
                input.extend_from_slice(&next_action);
                t.reward + gamma * self.critic_target.forward(&input)[0]
            };
            targets.push(y);
        }
        self.critic.zero_grad();
        let mut critic_loss = 0.0;
        for (t, &y) in batch.iter().zip(&targets) {
            let mut input = t.state.clone();
            input.extend_from_slice(&t.action);
            let q = self.critic.forward(&input)[0];
            let err = q - y;
            critic_loss += err * err / n;
            self.critic.backward(&[2.0 * err / n]);
        }
        self.critic_opt.step(&mut self.critic);

        self.actor.zero_grad();
        let mut actor_loss = 0.0;
        for t in batch {
            let action = self.actor.forward(&t.state);
            let mut input = t.state.clone();
            input.extend_from_slice(&action);
            self.critic.zero_grad();
            let q = self.critic.forward(&input)[0];
            actor_loss += -q / n;
            let grad_input = self.critic.backward(&[-1.0 / n]);
            let grad_action = &grad_input[self.state_dim..];
            self.actor.backward(grad_action);
        }
        self.critic.zero_grad();
        self.actor_opt.step(&mut self.actor);

        self.actor_target
            .soft_update_from(&self.actor, self.config.tau);
        self.critic_target
            .soft_update_from(&self.critic, self.config.tau);

        (critic_loss, actor_loss)
    }
}

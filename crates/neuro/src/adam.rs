//! The Adam optimiser over a network's flat parameter vector, in Kingma &
//! Ba's efficient form (§2 of the Adam paper): the bias corrections are
//! folded into the step size and `ε` once per step, leaving one division
//! and one square root per parameter (numerics: the crate docs' contract).

use crate::kernels::{self, AdamStep, Arm};
use crate::mlp::Mlp;

const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const EPS: f64 = 1e-8;

/// Adam optimiser state for one network.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Creates an optimiser for a network with `num_params` parameters.
    pub fn new(num_params: usize, lr: f64) -> Self {
        Self {
            lr,
            m: vec![0.0; num_params],
            v: vec![0.0; num_params],
            t: 0,
        }
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// Applies one Adam step to `net` using its accumulated gradients, then
    /// clears the gradients.  Parameters and moments are updated where they
    /// live, one element at a time:
    /// `p -= α_t·m / (√v + ε̂)` with `α_t = lr·√(1−β₂ᵗ)/(1−β₁ᵗ)` and
    /// `ε̂ = ε·√(1−β₂ᵗ)`, which is the textbook
    /// `lr·m̂ / (√v̂ + ε)` with the bias corrections moved out of the loop.
    /// `α_t` and `ε̂` are worked out in `f64` and rounded to `f32` once per
    /// step; a moment whose magnitude falls below `2⁻¹⁰⁰` (so below
    /// `f32::MIN_POSITIVE` too) is stored as `+0.0`, which keeps the step
    /// off the subnormals (`kernels::MOMENT_FLOOR`).
    pub fn step(&mut self, net: &mut Mlp) {
        self.step_on(Arm::detected(), net)
    }

    /// [`Adam::step`] on a given arm of the vector loops.
    pub(crate) fn step_on(&mut self, arm: Arm, net: &mut Mlp) {
        assert_eq!(
            net.num_params(),
            self.m.len(),
            "optimiser/network size mismatch"
        );
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let root_bc2 = (1.0 - BETA2.powi(self.t as i32)).sqrt();
        let step = AdamStep {
            beta1: BETA1 as f32,
            beta2: BETA2 as f32,
            alpha: (self.lr * root_bc2 / bc1) as f32,
            eps: (EPS * root_bc2) as f32,
        };
        let (params, grads) = net.params_and_grads_mut();
        kernels::adam(arm, step, params, grads, &mut self.m, &mut self.v);
    }

    /// First and second moment estimates.
    #[cfg(test)]
    pub(crate) fn moments(&self) -> (&[f32], &[f32]) {
        (&self.m, &self.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::ActKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Train y = 2x + 1 with a tiny MLP; Adam should drive the MSE well down.
    #[test]
    fn adam_fits_a_line() {
        let mut net = Mlp::new(&[1, 16, 1], ActKind::Identity, 3);
        let mut opt = Adam::new(net.num_params(), 1e-2);
        let data: Vec<(f32, f32)> = (0..20)
            .map(|i| {
                let x = i as f32 / 10.0 - 1.0;
                (x, 2.0 * x + 1.0)
            })
            .collect();
        let mse = |net: &mut Mlp| -> f32 {
            data.iter()
                .map(|&(x, y)| {
                    let p = net.forward(&[x])[0];
                    (p - y) * (p - y)
                })
                .sum::<f32>()
                / data.len() as f32
        };
        let before = mse(&mut net);
        for _ in 0..500 {
            net.zero_grad();
            for &(x, y) in &data {
                let p = net.forward(&[x])[0];
                // d/dp of (p-y)^2 / N
                net.backward(&[2.0 * (p - y) / data.len() as f32]);
            }
            opt.step(&mut net);
        }
        let after = mse(&mut net);
        assert!(after < before * 0.01, "before {before}, after {after}");
        assert!(after < 0.01, "after {after}");
    }

    /// One step as Kingma & Ba's Algorithm 1 writes it, in the crate's
    /// `f32` and with its flush: bias-corrected moments, then three
    /// divisions and a square root per parameter.
    fn textbook_step(p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], t: i32, lr: f32) {
        let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        for i in 0..p.len() {
            m[i] = kernels::flushed(beta1 * m[i] + (1.0 - beta1) * g[i]);
            v[i] = kernels::flushed(beta2 * v[i] + (1.0 - beta2) * g[i] * g[i]);
            let m_hat = m[i] / (1.0 - beta1.powi(t));
            let v_hat = v[i] / (1.0 - beta2.powi(t));
            p[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    /// The one-division step is the textbook step rearranged: over 1 000
    /// steps of seeded random gradients, each parameter's gradient scale
    /// fixed somewhere in ten decades (down to where `ε` dominates `√v̂`),
    /// every parameter stays within a relative 1e-5 (a few dozen `f32`
    /// ulps, the two forms rounding differently) of the textbook
    /// trajectory, and the moments, which both forms compute alike, are
    /// equal.
    #[test]
    fn one_division_step_tracks_the_textbook_step() {
        let mut net = Mlp::new(&[3, 8, 2], ActKind::Identity, 4);
        let n = net.num_params();
        let mut rng = StdRng::seed_from_u64(29);
        // Parameters in ±[1, 2]: at most 3.2·lr per step, so 1 000 steps
        // cannot carry one near zero, where a relative bound means nothing.
        let start: Vec<f32> = (0..n)
            .map(|_| {
                let u: f32 = rng.gen_range(-1.0..1.0);
                u.signum() * (1.0 + u.abs())
            })
            .collect();
        let scales: Vec<f32> = (0..n)
            .map(|_| 10f32.powf(rng.gen_range(-10.0..0.0)))
            .collect();
        let lr = 1e-4;
        net.set_params_flat(&start);
        let mut opt = Adam::new(n, lr as f64);
        let (mut want, mut m, mut v) = (start, vec![0.0; n], vec![0.0; n]);
        for t in 1..=1000 {
            let g: Vec<f32> = scales
                .iter()
                .map(|s| s * rng.gen_range(-1.0..1.0))
                .collect();
            net.params_and_grads_mut().1.copy_from_slice(&g);
            opt.step(&mut net);
            textbook_step(&mut want, &g, &mut m, &mut v, t, lr);
            for (i, (got, want)) in net.params_flat().iter().zip(&want).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-5 * want.abs(),
                    "step {t}, parameter {i}: {got} vs textbook {want}"
                );
            }
            assert_eq!(opt.moments(), (&m[..], &v[..]), "moments, step {t}");
        }
    }

    /// A parameter whose gradient goes to zero keeps a first moment that
    /// decays ×0.9 per step, past `2⁻¹⁰⁰` and into the subnormals after
    /// ~600 and ~760 steps from 1e-3; the flush stores it as `+0.0`
    /// instead, on every arm.  Hidden unit 0 is killed after 50 live steps
    /// (bias −1, input weight 0), and over 1 200 steps after that every
    /// moment is `0.0` or normal — at least `2⁻¹⁰⁰`, so that `α_t·m` is
    /// normal too — after every step.
    #[test]
    fn moments_of_a_dead_relu_unit_never_go_subnormal() {
        for arm in Arm::available() {
            let mut net = Mlp::new(&[1, 3, 1], ActKind::Identity, 3);
            let mut opt = Adam::new(net.num_params(), 1e-2);
            // Unit 0's parameters: input weight, bias, output weight.
            let dead = [0usize, 3, 6];
            for step in 0..1250 {
                if step == 50 {
                    let mut p = net.params_flat();
                    (p[0], p[3]) = (0.0, -1.0);
                    net.set_params_flat(&p);
                }
                for i in 0..8 {
                    let x = i as f32 / 4.0 - 1.0;
                    let y = net.forward(&[x])[0];
                    net.backward(&[y - (2.0 * x + 1.0)]);
                }
                opt.step_on(arm, &mut net);
                let (m, v) = opt.moments();
                assert!(
                    m.iter().chain(v).all(|x| *x == 0.0 || x.is_normal()),
                    "{arm:?} step {step}: a subnormal moment"
                );
                assert!(
                    m.iter()
                        .chain(v)
                        .all(|x| *x == 0.0 || x.abs() >= kernels::MOMENT_FLOOR),
                    "{arm:?} step {step}: a moment below the floor"
                );
                if step == 50 {
                    assert!(dead.iter().all(|&i| m[i] != 0.0), "unit 0 was live");
                }
            }
            let (m, _) = opt.moments();
            assert!(dead.iter().all(|&i| m[i].to_bits() == 0), "{arm:?}");
        }
    }

    #[test]
    fn step_clears_gradients() {
        let mut net = Mlp::new(&[2, 4, 1], ActKind::Identity, 1);
        let mut opt = Adam::new(net.num_params(), 1e-3);
        let _ = net.forward(&[1.0, -1.0]);
        let _ = net.backward(&[1.0]);
        opt.step(&mut net);
        assert!(net.grads_flat().iter().all(|g| *g == 0.0));
    }

    #[test]
    fn zero_gradient_changes_nothing() {
        let mut net = Mlp::new(&[2, 4, 1], ActKind::Identity, 1);
        let mut opt = Adam::new(net.num_params(), 1e-3);
        let before = net.params_flat();
        net.zero_grad();
        opt.step(&mut net);
        let after = net.params_flat();
        let max_diff = before
            .iter()
            .zip(&after)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert_eq!(max_diff, 0.0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_network_panics() {
        let mut net = Mlp::new(&[2, 4, 1], ActKind::Identity, 1);
        let mut opt = Adam::new(3, 1e-3);
        opt.step(&mut net);
    }

    #[test]
    fn learning_rate_accessor() {
        let opt = Adam::new(10, 5e-4);
        assert_eq!(opt.learning_rate(), 5e-4);
    }
}

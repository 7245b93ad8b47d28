//! The Adam optimiser over a network's flat parameter vector, in Kingma &
//! Ba's efficient form (§2 of the Adam paper): the bias corrections are
//! folded into the step size and `ε` once per step, leaving one division
//! and one square root per parameter (numerics: the crate docs' contract).

use crate::mlp::Mlp;

/// Adam optimiser state for one network.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates an optimiser for a network with `num_params` parameters.
    pub fn new(num_params: usize, lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
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
    pub fn step(&mut self, net: &mut Mlp) {
        assert_eq!(
            net.num_params(),
            self.m.len(),
            "optimiser/network size mismatch"
        );
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let root_bc2 = (1.0 - self.beta2.powi(self.t as i32)).sqrt();
        let alpha = self.lr * root_bc2 / bc1;
        let eps = self.eps * root_bc2;
        let (params, grads) = net.params_and_grads_mut();
        let moments = self.m.iter_mut().zip(&mut self.v);
        for ((p, g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
            *m = self.beta1 * *m + (1.0 - self.beta1) * *g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * *g * *g;
            *p -= alpha * *m / (v.sqrt() + eps);
            *g = 0.0;
        }
    }

    /// First and second moment estimates.
    #[cfg(test)]
    pub(crate) fn moments(&self) -> (&[f64], &[f64]) {
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
        let data: Vec<(f64, f64)> = (0..20)
            .map(|i| {
                let x = i as f64 / 10.0 - 1.0;
                (x, 2.0 * x + 1.0)
            })
            .collect();
        let mse = |net: &mut Mlp| -> f64 {
            data.iter()
                .map(|&(x, y)| {
                    let p = net.forward(&[x])[0];
                    (p - y) * (p - y)
                })
                .sum::<f64>()
                / data.len() as f64
        };
        let before = mse(&mut net);
        for _ in 0..500 {
            net.zero_grad();
            for &(x, y) in &data {
                let p = net.forward(&[x])[0];
                // d/dp of (p-y)^2 / N
                net.backward(&[2.0 * (p - y) / data.len() as f64]);
            }
            opt.step(&mut net);
        }
        let after = mse(&mut net);
        assert!(after < before * 0.01, "before {before}, after {after}");
        assert!(after < 0.01, "after {after}");
    }

    /// One step as Kingma & Ba's Algorithm 1 writes it: bias-corrected
    /// moments, then three divisions and a square root per parameter.
    fn textbook_step(p: &mut [f64], g: &[f64], m: &mut [f64], v: &mut [f64], t: i32, lr: f64) {
        let (beta1, beta2, eps) = (0.9f64, 0.999f64, 1e-8);
        for i in 0..p.len() {
            m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
            v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
            let m_hat = m[i] / (1.0 - beta1.powi(t));
            let v_hat = v[i] / (1.0 - beta2.powi(t));
            p[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    /// The one-division step is the textbook step rearranged: over 1 000
    /// steps of seeded random gradients, each parameter's gradient scale
    /// fixed somewhere in ten decades (down to where `ε` dominates `√v̂`),
    /// every parameter stays within a relative 1e-12 of the textbook
    /// trajectory, and the moments, which both forms compute alike, are
    /// equal.
    #[test]
    fn one_division_step_tracks_the_textbook_step() {
        let mut net = Mlp::new(&[3, 8, 2], ActKind::Identity, 4);
        let n = net.num_params();
        let mut rng = StdRng::seed_from_u64(29);
        // Parameters in ±[1, 2]: at most 3.2·lr per step, so 1 000 steps
        // cannot carry one near zero, where a relative bound means nothing.
        let start: Vec<f64> = (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(-1.0..1.0);
                u.signum() * (1.0 + u.abs())
            })
            .collect();
        let scales: Vec<f64> = (0..n)
            .map(|_| 10f64.powf(rng.gen_range(-10.0..0.0)))
            .collect();
        let lr = 1e-4;
        net.set_params_flat(&start);
        let mut opt = Adam::new(n, lr);
        let (mut want, mut m, mut v) = (start, vec![0.0; n], vec![0.0; n]);
        for t in 1..=1000 {
            let g: Vec<f64> = scales
                .iter()
                .map(|s| s * rng.gen_range(-1.0..1.0))
                .collect();
            net.params_and_grads_mut().1.copy_from_slice(&g);
            opt.step(&mut net);
            textbook_step(&mut want, &g, &mut m, &mut v, t, lr);
            for (i, (got, want)) in net.params_flat().iter().zip(&want).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs(),
                    "step {t}, parameter {i}: {got} vs textbook {want}"
                );
            }
            assert_eq!(opt.moments(), (&m[..], &v[..]), "moments, step {t}");
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
            .fold(0.0f64, f64::max);
        assert!(max_diff < 1e-12);
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

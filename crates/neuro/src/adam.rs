//! The Adam optimiser over a network's flat parameter vector (numerics: the
//! crate docs' contract — the three divisions and the square root per
//! parameter are part of it).

use crate::mlp::Mlp;
use serde::{Deserialize, Serialize};

/// Adam optimiser state for one network.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    /// live, one element at a time.
    pub fn step(&mut self, net: &mut Mlp) {
        assert_eq!(
            net.num_params(),
            self.m.len(),
            "optimiser/network size mismatch"
        );
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (params, grads) = net.params_and_grads_mut();
        let moments = self.m.iter_mut().zip(&mut self.v);
        for ((p, g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
            *m = self.beta1 * *m + (1.0 - self.beta1) * *g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * *g * *g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
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

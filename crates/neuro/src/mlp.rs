//! Multi-layer perceptrons with manual, batched forward/backward passes.
//! Every product — forward, input gradient, weight gradient — is one call
//! of the fused dense kernel (`kernels::mac`); the activations and the bias
//! gradient are plain per-element loops (numerics: the crate docs'
//! contract).

use crate::kernels::{mac, transpose, Arm, Coef, Init};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Activation applied after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActKind {
    /// Identity (used for output layers of critics).
    Identity,
    /// Rectified linear unit (hidden layers).
    Relu,
    /// Hyperbolic tangent (actor output, bounded actions).
    Tanh,
}

impl ActKind {
    fn forward(self, x: f64) -> f64 {
        match self {
            ActKind::Identity => x,
            ActKind::Relu => x.max(0.0),
            ActKind::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed in terms of the activation *output* `y`.
    fn backward_from_output(self, y: f64) -> f64 {
        match self {
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
}

/// One dense layer, `y = act(W x + b)`: its shape and where its
/// parameters sit in [`Mlp`]'s flat vector (`W` row-major `[out][in]`, then
/// `b`).
#[derive(Debug, Clone)]
struct Dense {
    in_dim: usize,
    out_dim: usize,
    act: ActKind,
    offset: usize,
}

impl Dense {
    /// This layer's `(W, b)` inside a flat vector laid out like the
    /// parameters.
    fn split<'a>(&self, flat: &'a [f64]) -> (&'a [f64], &'a [f64]) {
        let weights = self.in_dim * self.out_dim;
        flat[self.offset..self.offset + weights + self.out_dim].split_at(weights)
    }

    fn split_mut<'a>(&self, flat: &'a mut [f64]) -> (&'a mut [f64], &'a mut [f64]) {
        let weights = self.in_dim * self.out_dim;
        flat[self.offset..self.offset + weights + self.out_dim].split_at_mut(weights)
    }
}

/// What a pass through an [`Mlp`] leaves behind: the activations of the
/// most recent forward pass, the gradients of the backward pass after it,
/// and the parameter gradients accumulated since the last optimiser step.
/// Activations and gradients are `dim × batch`, feature-major
/// (`a[f * batch + s]`), so every dense product runs over the samples of
/// one feature at a time.  The buffers only ever grow: alternating between
/// a batch of one (`act`) and a training batch allocates nothing.
#[derive(Debug, Default)]
struct Pass {
    batch: usize,
    /// `acts[0]` is the input, `acts[i + 1]` the output of layer `i`.
    acts: Vec<Vec<f64>>,
    /// `deltas[i]` is the gradient with respect to `acts[i]`.
    deltas: Vec<Vec<f64>>,
    /// Sample-major copy of one layer's input, for its weight gradient.
    transposed: Vec<f64>,
    /// Accumulated parameter gradients, laid out like the parameters; empty
    /// until the first backward pass, which reads as all zero.
    grads: Vec<f64>,
}

/// The first `len` values of `buf`, grown (never shrunk) to hold them.
fn grown(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// A multi-layer perceptron.
///
/// Cloning copies the parameters; the state of the current pass
/// (activations, accumulated gradients) starts empty in the copy.
#[derive(Debug)]
pub struct Mlp {
    layers: Vec<Dense>,
    /// Every parameter, layer by layer, weights then biases.
    params: Vec<f64>,
    pass: Pass,
}

impl Clone for Mlp {
    fn clone(&self) -> Self {
        Self {
            layers: self.layers.clone(),
            params: self.params.clone(),
            pass: Pass::default(),
        }
    }
}

impl Mlp {
    /// Creates an MLP with the given layer sizes.
    ///
    /// `dims = [in, h1, …, out]`; every hidden layer uses ReLU and the output
    /// layer uses `output_act`.
    pub fn new(dims: &[usize], output_act: ActKind, seed: u64) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        let mut params = Vec::new();
        for (i, io) in dims.windows(2).enumerate() {
            let (in_dim, out_dim) = (io[0], io[1]);
            let act = if i == dims.len() - 2 {
                output_act
            } else {
                ActKind::Relu
            };
            layers.push(Dense {
                in_dim,
                out_dim,
                act,
                offset: params.len(),
            });
            // He/Xavier-style scaling keeps tiny MLPs well-conditioned.
            let scale = (2.0 / (in_dim + out_dim) as f64).sqrt();
            params.extend((0..in_dim * out_dim).map(|_| rng.gen_range(-scale..scale)));
            params.resize(params.len() + out_dim, 0.0);
        }
        Self {
            layers,
            params,
            pass: Pass::default(),
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim
    }

    /// Forward pass of one sample (kept for a subsequent backward pass).
    pub fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        self.input_mut(1).copy_from_slice(x);
        self.forward_batch(Arm::detected()).to_vec()
    }

    /// Backward pass from an output gradient of the most recent forward
    /// pass; accumulates parameter gradients and returns the gradient with
    /// respect to the input.
    pub fn backward(&mut self, grad_out: &[f64]) -> Vec<f64> {
        self.output_grad_mut().copy_from_slice(grad_out);
        let inputs = 0..self.input_dim();
        self.backward_batch(Arm::detected(), true, inputs).to_vec()
    }

    /// Starts a pass over `batch` samples: the `input_dim × batch` input,
    /// feature-major, for the caller to fill before
    /// [`Mlp::forward_batch`].  What it held for the same batch size is
    /// still there.
    pub(crate) fn input_mut(&mut self, batch: usize) -> &mut [f64] {
        self.pass.batch = batch;
        self.pass.acts.resize_with(self.layers.len() + 1, Vec::new);
        grown(&mut self.pass.acts[0], self.layers[0].in_dim * batch)
    }

    /// The input of the current pass.
    pub(crate) fn input(&self) -> &[f64] {
        &self.pass.acts[0][..self.layers[0].in_dim * self.pass.batch]
    }

    /// Runs every layer over the batch in [`Mlp::input_mut`]; returns the
    /// `output_dim × batch` output.
    pub(crate) fn forward_batch(&mut self, arm: Arm) -> &[f64] {
        let batch = self.pass.batch;
        for (i, layer) in self.layers.iter().enumerate() {
            let (x, y) = self.pass.acts.split_at_mut(i + 1);
            let x = &x[i][..layer.in_dim * batch];
            let y = grown(&mut y[0], layer.out_dim * batch);
            let (w, b) = layer.split(&self.params);
            let coef = Coef {
                a: w,
                row_stride: layer.in_dim,
                k_stride: 1,
                rows: layer.out_dim,
                depth: layer.in_dim,
            };
            mac(arm, Init::Rows(b), coef, x, batch, y);
            y.iter_mut().for_each(|v| *v = layer.act.forward(*v));
        }
        self.output()
    }

    /// The output of the most recent forward pass.
    pub(crate) fn output(&self) -> &[f64] {
        &self.pass.acts[self.layers.len()][..self.output_dim() * self.pass.batch]
    }

    /// The output of the most recent forward pass, and the
    /// `output_dim × batch` gradient with respect to it for the caller to
    /// fill before [`Mlp::backward_batch`].
    pub(crate) fn output_and_grad_mut(&mut self) -> (&[f64], &mut [f64]) {
        let len = self.output_dim() * self.pass.batch;
        self.pass
            .deltas
            .resize_with(self.layers.len() + 1, Vec::new);
        (
            &self.pass.acts[self.layers.len()][..len],
            grown(&mut self.pass.deltas[self.layers.len()], len),
        )
    }

    /// The gradient half of [`Mlp::output_and_grad_mut`].
    pub(crate) fn output_grad_mut(&mut self) -> &mut [f64] {
        self.output_and_grad_mut().1
    }

    /// Propagates the gradient in [`Mlp::output_grad_mut`] back through
    /// the most recent forward pass.  With `params`, each layer adds its
    /// weight and bias gradients, sample by sample in batch order, to the
    /// accumulated ones; without, only the gradient with respect to
    /// activations is computed.  Returns that gradient for rows
    /// `input_rows` of the input (`input_rows.len() × batch`; pass an empty
    /// range to skip the first layer's share altogether).
    pub(crate) fn backward_batch(
        &mut self,
        arm: Arm,
        params: bool,
        input_rows: Range<usize>,
    ) -> &[f64] {
        let batch = self.pass.batch;
        let pass = &mut self.pass;
        if params {
            grown(&mut pass.grads, self.params.len());
        }
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let (lower, upper) = pass.deltas.split_at_mut(i + 1);
            let dz = &mut upper[0][..layer.out_dim * batch];
            let y = &pass.acts[i + 1][..layer.out_dim * batch];
            // dz = g · act'(y); the identity's factor is exactly one.
            if layer.act != ActKind::Identity {
                for (g, &y) in dz.iter_mut().zip(y) {
                    *g *= layer.act.backward_from_output(y);
                }
            }
            if params {
                let (grad_w, grad_b) = layer.split_mut(&mut pass.grads);
                for (gb, dz) in grad_b.iter_mut().zip(dz.chunks_exact(batch)) {
                    dz.iter().for_each(|d| *gb += d);
                }
                let x = &pass.acts[i][..layer.in_dim * batch];
                let xt = grown(&mut pass.transposed, x.len());
                transpose(x, layer.in_dim, batch, xt);
                let coef = Coef {
                    a: dz,
                    row_stride: batch,
                    k_stride: 1,
                    rows: layer.out_dim,
                    depth: batch,
                };
                mac(arm, Init::Accumulate, coef, xt, layer.in_dim, grad_w);
            }
            let rows = if i == 0 {
                input_rows.clone()
            } else {
                0..layer.in_dim
            };
            if !rows.is_empty() {
                let (w, _) = layer.split(&self.params);
                let coef = Coef {
                    a: &w[rows.start..],
                    row_stride: 1,
                    k_stride: layer.in_dim,
                    rows: rows.len(),
                    depth: layer.out_dim,
                };
                let dx = grown(&mut lower[i], rows.len() * batch);
                mac(arm, Init::Zero, coef, dz, batch, dx);
            }
        }
        &pass.deltas[0][..input_rows.len() * batch]
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.pass.grads.fill(0.0);
    }

    /// Total number of parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Copies all parameters into a flat vector (weights then biases, layer
    /// by layer).
    pub fn params_flat(&self) -> Vec<f64> {
        self.params.clone()
    }

    /// Copies the accumulated gradients into a flat vector (same layout as
    /// [`Mlp::params_flat`]).
    #[cfg(test)]
    pub fn grads_flat(&self) -> Vec<f64> {
        let mut grads = self.pass.grads.clone();
        grads.resize(self.params.len(), 0.0);
        grads
    }

    /// Overwrites the parameters from a flat vector.
    pub fn set_params_flat(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_params());
        self.params.copy_from_slice(params);
    }

    /// The parameters and their accumulated gradients, in the layout of
    /// [`Mlp::params_flat`], for an optimiser to step in place.
    pub(crate) fn params_and_grads_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        let grads = grown(&mut self.pass.grads, self.params.len());
        (&mut self.params, grads)
    }

    /// Soft-updates this network towards `source`:
    /// `θ ← τ·θ_source + (1 − τ)·θ`.
    pub fn soft_update_from(&mut self, source: &Mlp, tau: f64) {
        assert_eq!(self.params.len(), source.params.len());
        for (d, s) in self.params.iter_mut().zip(&source.params) {
            *d = tau * s + (1.0 - tau) * *d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mut mlp = Mlp::new(&[4, 8, 3], ActKind::Tanh, 1);
        assert_eq!(mlp.input_dim(), 4);
        assert_eq!(mlp.output_dim(), 3);
        let y = mlp.forward(&[0.1, -0.2, 0.3, 0.4]);
        assert_eq!(y.len(), 3);
        assert!(y.iter().all(|v| v.abs() <= 1.0), "tanh output is bounded");
    }

    #[test]
    fn num_params_counts_weights_and_biases() {
        let mlp = Mlp::new(&[4, 8, 3], ActKind::Identity, 1);
        assert_eq!(mlp.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn params_roundtrip() {
        let mut mlp = Mlp::new(&[3, 5, 2], ActKind::Identity, 2);
        let p = mlp.params_flat();
        let mut p2 = p.clone();
        p2[0] += 1.0;
        mlp.set_params_flat(&p2);
        assert_eq!(mlp.params_flat(), p2);
    }

    #[test]
    fn deterministic_initialisation() {
        let a = Mlp::new(&[3, 4, 1], ActKind::Identity, 42);
        let b = Mlp::new(&[3, 4, 1], ActKind::Identity, 42);
        assert_eq!(a.params_flat(), b.params_flat());
        let c = Mlp::new(&[3, 4, 1], ActKind::Identity, 43);
        assert_ne!(a.params_flat(), c.params_flat());
    }

    #[test]
    fn numerical_gradient_check() {
        // Finite-difference check of dL/dθ for L = 0.5 * ||y||².
        let mut mlp = Mlp::new(&[3, 6, 2], ActKind::Tanh, 7);
        let x = [0.3, -0.7, 0.5];
        let loss = |m: &mut Mlp| -> f64 {
            let y = m.forward(&x);
            0.5 * y.iter().map(|v| v * v).sum::<f64>()
        };
        // Analytic gradients.
        mlp.zero_grad();
        let y = mlp.forward(&x);
        mlp.backward(&y); // dL/dy = y
        let analytic = mlp.grads_flat();
        // Numeric gradients for a handful of parameters.
        let params = mlp.params_flat();
        let eps = 1e-6;
        for idx in [0usize, 5, 11, params.len() - 1] {
            let mut plus = params.clone();
            plus[idx] += eps;
            let mut minus = params.clone();
            minus[idx] -= eps;
            mlp.set_params_flat(&plus);
            let lp = loss(&mut mlp);
            mlp.set_params_flat(&minus);
            let lm = loss(&mut mlp);
            mlp.set_params_flat(&params);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic[idx]).abs() < 1e-5,
                "param {idx}: numeric {numeric} vs analytic {}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn input_gradient_check() {
        // Finite-difference check of dL/dx.
        let mut mlp = Mlp::new(&[3, 5, 1], ActKind::Identity, 9);
        let x = [0.2, 0.4, -0.1];
        let forward_loss = |m: &mut Mlp, x: &[f64]| -> f64 { m.forward(x)[0] };
        mlp.zero_grad();
        let _ = mlp.forward(&x);
        let grad_in = mlp.backward(&[1.0]);
        let eps = 1e-6;
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let numeric = (forward_loss(&mut mlp, &xp) - forward_loss(&mut mlp, &xm)) / (2.0 * eps);
            assert!((numeric - grad_in[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut mlp = Mlp::new(&[2, 3, 1], ActKind::Identity, 5);
        let _ = mlp.forward(&[1.0, 2.0]);
        let _ = mlp.backward(&[1.0]);
        assert!(mlp.grads_flat().iter().any(|g| g.abs() > 0.0));
        mlp.zero_grad();
        assert!(mlp.grads_flat().iter().all(|g| *g == 0.0));
    }

    #[test]
    fn soft_update_converges_to_source() {
        let source = Mlp::new(&[2, 4, 1], ActKind::Identity, 1);
        let mut target = Mlp::new(&[2, 4, 1], ActKind::Identity, 2);
        for _ in 0..2000 {
            target.soft_update_from(&source, 0.01);
        }
        let max_diff = target
            .params_flat()
            .iter()
            .zip(source.params_flat())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff < 1e-6, "max diff {max_diff}");
    }

    #[test]
    fn soft_update_with_tau_one_copies() {
        let source = Mlp::new(&[2, 3, 1], ActKind::Identity, 1);
        let mut target = Mlp::new(&[2, 3, 1], ActKind::Identity, 2);
        target.soft_update_from(&source, 1.0);
        assert_eq!(target.params_flat(), source.params_flat());
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn too_few_dims_panics() {
        let _ = Mlp::new(&[3], ActKind::Identity, 0);
    }
}

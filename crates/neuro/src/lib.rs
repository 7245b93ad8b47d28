//! A small, self-contained neural-network and deep-reinforcement-learning
//! library: exactly what the OSDS splitter (paper Algorithm 2) needs and
//! nothing more.
//!
//! The paper trains a DDPG agent whose actor is a three-hidden-layer MLP
//! ({400, 200, 100}) and whose critic is a four-hidden-layer MLP
//! ({400, 200, 100, 100}).  The Rust RL ecosystem is thin, so this crate
//! implements the pieces directly:
//!
//! * [`mlp`] — dense layers with manual, batched forward/backward passes,
//! * [`adam`] — the Adam optimiser (one division per parameter),
//! * [`replay`] — a uniform-sampling replay buffer that samples without
//!   allocating,
//! * [`noise`] — Gaussian exploration noise,
//! * [`ddpg`] — the actor-critic agent with target networks and soft
//!   updates (Lillicrap et al., the algorithm the paper cites).
//!
//! # Numerical contract
//!
//! Planning time is `updates × time per update`, so the update runs as
//! vector code — and every plan of every seed is a function of every bit of
//! every update, so the vector code computes exactly what a plain scalar
//! loop would.  Parameters, activations, gradients, Adam moments and the
//! target networks are `f32` (twice the lanes of `f64` per vector
//! instruction); [`DdpgAgent`] speaks `f64` at its boundary, rounding
//! states, actions and rewards to `f32` once on the way in and widening
//! what it returns exactly.  Within the `f32` code:
//!
//! * a dense output is `act(b + Σ_k w_k·x_k)`, bias first, `k` ascending,
//!   one fused multiply-add per step (`acc = w.mul_add(x, acc)`, one
//!   rounding);
//! * an input gradient is `0 + Σ_o dz_o·w_o`, `o` ascending, the same way;
//! * a weight gradient adds its samples' terms `dz·x` to the accumulated
//!   value in batch order, one fused multiply-add each; a bias gradient
//!   adds its samples' `dz` the same way, with plain adds;
//! * Adam is Kingma & Ba's efficient form: `α_t = lr·√(1−β₂ᵗ)/(1−β₁ᵗ)` and
//!   `ε̂ = ε·√(1−β₂ᵗ)` once per step (in `f64`, rounded to `f32` once),
//!   then `p -= α_t·m / (√v + ε̂)` per element — one division and one
//!   square root per parameter;
//! * the moment updates and the soft update evaluate their textbook
//!   expressions per element as written, unfused;
//! * an Adam moment whose magnitude falls below `2⁻¹⁰⁰` is stored as
//!   `+0.0` (so no moment is ever subnormal).  The moments of a parameter
//!   whose gradient stays zero (a dead ReLU unit) decay geometrically, and
//!   every vector instruction that reads or yields a subnormal takes a
//!   microcode assist; the floor sits high enough that the step
//!   `α_t·m / (√v + ε̂)` stays normal too (`kernels::MOMENT_FLOOR`).  The
//!   flush is a compare-and-select in code, the same on every arm; the
//!   MXCSR flush-to-zero mode is never set, as it is thread-global and
//!   would change libm's `tanhf` and `fmaf` too.
//!
//! Vector lanes are always *different outputs* — the samples of a batch, or
//! the inputs of a weight row — so no sum is ever split or reordered; nor
//! does a batch's size, so the target networks run over the non-terminal
//! transitions alone and each column comes out as in the full batch.  A
//! fused multiply-add is correctly rounded wherever it runs: the vector
//! arms use the FMA instruction (an arm is offered only where CPUID reports
//! it), and the baseline arm's `f32::mul_add` is libm's `fmaf` where the
//! hardware has none.  So every instruction-set arm of the dense kernel and
//! of the Adam step, every tile shape and the per-sample loops kept under
//! `#[cfg(test)]` agree bit for bit on every machine.

pub mod adam;
pub mod ddpg;
mod kernels;
pub mod mlp;
pub mod noise;
#[cfg(test)]
mod oracle;
pub mod replay;

pub use adam::Adam;
pub use ddpg::{DdpgAgent, DdpgConfig};
pub use mlp::{ActKind, Mlp};
pub use noise::GaussianNoise;
pub use replay::{Batch, ReplayBuffer, Sample, Transition};

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
//! * [`adam`] — the Adam optimiser,
//! * [`replay`] — a uniform-sampling replay buffer,
//! * [`noise`] — Gaussian exploration noise,
//! * [`ddpg`] — the actor-critic agent with target networks and soft
//!   updates (Lillicrap et al., the algorithm the paper cites).
//!
//! # Numerical contract
//!
//! Planning time is `updates × time per update`, so the update runs as
//! vector code — and every plan of every seed is a function of every bit of
//! every update, so the vector code computes exactly what a plain scalar
//! loop would.  Everything is `f64`, and:
//!
//! * a dense output is `act(b + Σ_k w_k·x_k)`, bias first, `k` ascending,
//!   one rounded multiply then one rounded add per step — never a fused
//!   multiply-add;
//! * an input gradient is `0 + Σ_o dz_o·w_o`, `o` ascending, the same way;
//! * a parameter gradient adds its samples' terms to the accumulated value
//!   in batch order;
//! * Adam and the soft update evaluate their textbook expressions per
//!   element as written (Adam: three divisions and a square root).
//!
//! Vector lanes are always *different outputs* — the samples of a batch, or
//! the inputs of a weight row — so no sum is ever split or reordered, and
//! every instruction-set arm of the dense kernel, every tile shape and the
//! per-sample loops kept under `#[cfg(test)]` agree bit for bit on every
//! machine.  Fusing the multiply-add would be one line in that kernel's
//! body and half its arithmetic instructions; it is left out *here*
//! because it would change every plan of every seed, and the benchmark's
//! `quality` baseline and the golden plans in `distredge`'s tests would
//! have to be recorded again.

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
pub use replay::{ReplayBuffer, Transition};

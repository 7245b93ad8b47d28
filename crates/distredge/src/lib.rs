//! DistrEdge: CNN inference distribution over heterogeneous edge devices.
//!
//! This crate implements the paper's contribution and everything needed to
//! evaluate it:
//!
//! * [`partitioner`] — **LC-PSS** (Algorithm 1): the layer-configuration
//!   based greedy search for the horizontal partition of a model into
//!   layer-volumes, scored by `Cp = α·T + (1 − α)·O` over random split
//!   decisions.
//! * [`mdp`] — the split process modelled as a Markov Decision Process
//!   (§IV-C1): states are accumulated device latencies plus the next
//!   volume's layer configuration, actions are continuous cut points on the
//!   height dimension, the reward is the inverse end-to-end latency.
//! * [`splitter`] — **OSDS** (Algorithm 2): DDPG training over that MDP,
//!   tracking the best split decisions seen.
//! * [`api`] — the end-to-end `DistrEdge` planner combining both modules.
//! * [`baselines`] — the seven comparison methods of §V-B: CoEdge, MoDNN,
//!   MeDNN, DeepThings, DeeperThings, AOFL and single-device Offload.
//! * [`profiles`] — per-device latency profiles (what the controller knows)
//!   wired into the `edgesim` stepper.
//! * [`scenarios`] — the device/bandwidth groups of Tables I–III.
//! * [`evaluate`] — running any method on any scenario and measuring IPS and
//!   latency breakdowns with the ground-truth simulator.
//! * [`online`] — online re-planning under highly dynamic networks (§V-F),
//!   both simulator-driven ([`online::run_dynamic_experiment`]) and against
//!   a live `edge-runtime` session ([`AdaptiveSession`]).

pub mod api;
pub mod baselines;
pub mod error;
pub mod evaluate;
pub mod mdp;
pub mod online;
pub mod partitioner;
pub mod profiles;
pub mod scenarios;
pub mod splitter;
pub mod strategy;

pub use api::{DistrEdge, DistrEdgeConfig, PlanningOutcome};
pub use baselines::Method;
pub use error::DistrError;
pub use evaluate::{evaluate_method, evaluate_strategy, MethodResult};
pub use online::{
    AdaptationTick, AdaptiveSession, OnlineConfig, OnlineResult, RuntimeReplanDecision,
};
pub use partitioner::{LcPssConfig, RandomSplits};
pub use profiles::ClusterProfiles;
pub use scenarios::Scenario;
pub use splitter::{OsdsConfig, OsdsOutcome};
pub use strategy::DistributionStrategy;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, DistrError>;

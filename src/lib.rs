//! Umbrella crate for the DistrEdge reproduction workspace.
//!
//! This crate re-exports every workspace crate under one roof so the
//! examples in `examples/` and the cross-crate integration tests in
//! `tests/` have a single dependency, and so downstream users can depend on
//! `distredge-suite` to pull in the whole stack:
//!
//! * [`tensor`] — dense CHW tensors and conv/pool/linear kernels,
//! * [`cnn_model`] — layer configurations, the Vertical-Splitting Law,
//!   layer-volumes and the model zoo,
//! * [`device_profile`] — non-linear edge-device latency models and the
//!   profiler,
//! * [`netsim`] — bandwidth traces and link models,
//! * [`edgesim`] — the discrete-event distributed-inference simulator,
//! * [`neuro`] — the from-scratch MLP / DDPG library,
//! * [`distredge`] — LC-PSS, OSDS, the baselines and experiment scenarios,
//! * [`edge_runtime`] — the concurrent execution runtime and its serving
//!   session API (the `Deploy` builder → `Session`),
//! * [`edge_gateway`] — the batching, SLO-aware serving front-end,
//! * [`edge_telemetry`] — distributed tracing (Chrome-trace export,
//!   critical-path reports); the tiers' typed reports are the metrics.

pub use cnn_model;
pub use device_profile;
pub use distredge;
pub use edge_gateway;
pub use edge_runtime;
pub use edge_telemetry;
pub use edgesim;
pub use netsim;
pub use neuro;
pub use tensor;

//! Fleet serving: one gateway over many replica sessions.
//!
//! `edge-gateway` batches, prioritises and deadline-checks traffic for one
//! resident [`edge_runtime::Session`]; this crate plugs a whole *fleet* of
//! replica sessions into that same front-end through the gateway's
//! [`edge_gateway::Backend`] seam:
//!
//! * **Least-loaded routing** — each request goes to the replica with the
//!   most free credits, tie-broken by service-time EWMA and queue depth
//!   ([`FleetServer`] routes, the dispatcher stays unchanged).
//! * **Multi-model tenancy** — requests carry a model id
//!   ([`edge_gateway::GatewayClient::with_model`]); a registry maps id →
//!   [`ModelSpec`], and every replica of one model deploys from a single
//!   shared `Arc<cnn_model::exec::PackedModelWeights>`
//!   ([`edge_runtime::WeightSource::Shared`]), so K replicas cost one
//!   packing pass and one resident weight copy.
//! * **Elastic scale** — a monitor thread samples the gateway's queue depth
//!   against [`FleetConfig`]'s watermark: pressure deploys another
//!   replica from the model's spec, sustained idleness drains one through
//!   the session's zero-loss drain protocol ([`FleetConfig`] documents the
//!   knobs).
//! * **Observability** — [`FleetServer::fleet_metrics`] snapshots
//!   per-replica load and per-model tenancy (including how many shards
//!   hold the shared pack's panels); on an enabled telemetry hub, routing
//!   emits `fleet.route` instants and scaling emits `fleet.scale_up` /
//!   `fleet.scale_down` spans on the same clock as the gateway and the
//!   replica sessions.
//!
//! [`PacedTransport`] supports testing all of this on one machine: it gives
//! each replica cluster a finite service rate by pacing device→requester
//! result frames inside the replica's own provider threads, so fleet
//! scaling is measurable without N cores of real compute.
//!
//! # Example
//!
//! ```
//! use cnn_model::{LayerOp, Model};
//! use edge_fleet::{FleetConfig, FleetServer, ModelSpec};
//! use edge_gateway::GatewayConfig;
//! use edge_telemetry::Telemetry;
//! use edgesim::ExecutionPlan;
//! use tensor::Shape;
//!
//! let model = Model::new(
//!     "tiny",
//!     Shape::new(2, 16, 16),
//!     &[LayerOp::conv(4, 3, 1, 1), LayerOp::pool(2, 2), LayerOp::fc(4)],
//! )
//! .unwrap();
//! let plan = ExecutionPlan::offload(&model, 0, 1).unwrap();
//! let spec = ModelSpec::new("tiny", model.clone(), plan).with_replicas(2);
//! let fleet = FleetServer::serve(
//!     vec![spec],
//!     FleetConfig::default().with_autoscale(false),
//!     GatewayConfig::default(),
//!     &Telemetry::disabled(),
//! )
//! .unwrap();
//!
//! let client = fleet.client();
//! let output = client
//!     .infer(&cnn_model::exec::deterministic_input(&model, 1))
//!     .wait()
//!     .unwrap();
//! assert_eq!(output.shape(), [4, 1, 1]);
//! assert_eq!(fleet.replica_count("tiny"), 2);
//! let metrics = fleet.shutdown().unwrap();
//! assert_eq!(metrics.completed, 1);
//! ```

pub mod config;
pub mod fleet;
pub mod pacing;
pub mod spec;

pub use config::FleetConfig;
pub use fleet::{FleetBackend, FleetMetrics, FleetServer, ModelTenancy, ReplicaMetrics};
pub use pacing::PacedTransport;
pub use spec::{ModelSpec, TransportFactory};

use std::fmt;

/// Why a fleet operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The fleet configuration is unusable.
    InvalidConfig(String),
    /// A model id no spec registered.
    UnknownModel(String),
    /// A replica deployment or the serving stack underneath failed.
    Runtime(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::InvalidConfig(m) => write!(f, "invalid fleet configuration: {m}"),
            FleetError::UnknownModel(m) => write!(f, "unknown model: {m}"),
            FleetError::Runtime(m) => write!(f, "fleet runtime failure: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

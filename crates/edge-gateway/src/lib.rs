//! A batching, SLO-aware serving front-end over resident `edge-runtime`
//! sessions.
//!
//! `edge_runtime::Session` gives one client credit-gated access to a
//! deployed cluster; this crate puts a *gateway* in front of it — the
//! dispatch-node shape serving-oriented distributed-inference systems
//! (DEFER, arXiv:2201.06769) use to aggregate heavy multi-client traffic,
//! with the scheduling-over-kernels emphasis LCP (arXiv:2003.06464) argues
//! dominates edge throughput:
//!
//! * [`Gateway::over`] wraps a deployed [`edge_runtime::Session`] — or any
//!   other [`Backend`], which is how a fleet plugs in — and records on the
//!   telemetry hub it is given; [`Gateway::client`] hands out cheap
//!   [`GatewayClient`] handles.
//! * [`GatewayClient::infer`] / [`GatewayClient::infer_with_deadline`]
//!   enqueue work and return a future-like [`Response`] ticket; requests
//!   carry a [`Priority`] class.
//! * A dispatcher thread forms **adaptive batches** under two knobs
//!   ([`GatewayConfig::max_batch`], [`GatewayConfig::max_linger`]), sizes
//!   each wave to the session's free in-flight credits
//!   ([`edge_runtime::Session::available_credits`]), and submits most
//!   urgent class first.
//! * **Deadlines are enforced**: requests whose deadline has passed — or
//!   that the measured service rate says cannot finish in time — are shed
//!   with a typed [`GatewayError::DeadlineExceeded`] instead of occupying
//!   the cluster, and a bounded queue sheds bursts with
//!   [`GatewayError::Overloaded`] (admission control).
//! * [`Gateway::metrics`] publishes [`GatewayMetrics`]: p50/p95/p99 latency
//!   from constant-space [`LatencyHistogram`]s, queue depth, batch
//!   occupancy, shed counts — combined with the live
//!   [`edge_runtime::RuntimeReport`] of the session underneath.
//!
//! # Example
//!
//! ```
//! use cnn_model::exec::{deterministic_input, ModelWeights};
//! use cnn_model::{LayerOp, Model};
//! use edge_gateway::{Gateway, GatewayConfig};
//! use edge_runtime::{Deploy, RuntimeOptions};
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
//! let plan = ExecutionPlan::offload(&model, 0, 2).unwrap();
//! let weights = ModelWeights::deterministic(&model, 7);
//! let session = Deploy::new(&model, &plan, &weights)
//!     .options(RuntimeOptions::default().with_max_in_flight(2))
//!     .start()
//!     .unwrap();
//!
//! // One deployment, many clients: the gateway batches and schedules.
//! let gateway =
//!     Gateway::over(session, GatewayConfig::default(), &Telemetry::disabled()).unwrap();
//! let client = gateway.client();
//! let response = client.infer(&deterministic_input(&model, 1));
//! let output = response.wait().unwrap();
//! assert_eq!(output.shape(), [4, 1, 1]);
//! let metrics = gateway.shutdown().unwrap();
//! assert_eq!(metrics.completed, 1);
//! assert_eq!(metrics.session.images, 1);
//! ```

pub mod backend;
pub mod batcher;
pub mod config;
pub mod gateway;
pub mod metrics;

pub use backend::{Admission, Backend, RouteTicket, SessionBackend};
pub use batcher::{Batcher, Priority};
pub use config::GatewayConfig;
pub use gateway::{Gateway, GatewayClient, Response};
pub use metrics::{GatewayMetrics, LatencyHistogram};

use std::fmt;

/// Why a request (or the gateway itself) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// The gateway configuration is unusable.
    InvalidConfig(String),
    /// The request's deadline passed, or the measured service rate says it
    /// cannot be met; the request was shed without occupying the cluster
    /// (or its late result was withheld).
    DeadlineExceeded,
    /// The admission queue was full; the request was shed immediately.
    Overloaded {
        /// Queue depth observed at admission.
        queue_depth: usize,
    },
    /// The gateway is shut down (or was dropped).
    Closed,
    /// The underlying session failed.
    Runtime(String),
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::InvalidConfig(m) => write!(f, "invalid gateway configuration: {m}"),
            GatewayError::DeadlineExceeded => write!(f, "deadline exceeded; request shed"),
            GatewayError::Overloaded { queue_depth } => {
                write!(f, "gateway overloaded ({queue_depth} requests queued)")
            }
            GatewayError::Closed => write!(f, "gateway is closed"),
            GatewayError::Runtime(m) => write!(f, "runtime failure: {m}"),
        }
    }
}

impl std::error::Error for GatewayError {}

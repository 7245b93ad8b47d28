//! A concurrent execution runtime for DistrEdge execution plans.
//!
//! Where `edgesim` *predicts* what a distribution strategy would do on the
//! paper's testbed, this crate *actually runs it*: one provider worker per
//! device, each running the paper's receive / compute / send pipeline
//! (§V-A), executing real `tensor` conv/pool/linear kernels on the
//! split-parts of each layer-volume and exchanging halo row bands over a
//! [`transport::Transport`].  The receive role is the transport's pump or
//! channel; a provider runs compute and send threads.  The requester
//! streams several images in flight, so pipelining across providers is
//! real concurrency, not a model.
//!
//! * [`wire`] — the length-prefixed binary frame format carrying tensor
//!   slabs plus (image, stage, row range) routing metadata,
//! * [`transport`] — the transport abstraction with an in-process channel
//!   fabric (default), a loopback-TCP fabric, and a token-bucket bandwidth
//!   shaper driven by `netsim` traces,
//! * [`routing`] — the per-epoch routing table derived from an
//!   [`edgesim::ExecutionPlan`] ([`routing::PlanEpoch`]), published to the
//!   workers through an `ArcSwap`-style [`routing::EpochSlot`],
//! * [`provider`] — the provider worker (compute and send threads over the
//!   transport's inbox),
//! * [`session`] — the serving API: the [`Deploy`] builder wires the
//!   cluster up once — fabric, options, telemetry hub and weight source are
//!   values on it, an in-process untraced deployment the default — and
//!   returns a resident [`Session`] with credit-gated `submit`, `wait` /
//!   `wait_timeout` / `try_recv`, mid-stream `metrics()` snapshots, a hot
//!   [`Session::apply_plan`] swap (drain the window, reconfigure with delta
//!   weight shards, flip the epoch — no redeploy), a draining `shutdown()`
//!   and the one-shot [`Session::run_batch`],
//! * [`runtime`] — the streaming options and the one-shot outcome type,
//! * [`report`] — measured metrics plus the [`report::MeasuredCompute`]
//!   bridge that feeds measured kernel times back into the simulator so
//!   predictions can be validated against execution.
//!
//! # Example
//!
//! Deploy once, then serve: submissions are credit-gated by
//! `max_in_flight`, outputs are claimed by ticket, and the cluster stays
//! resident between waves until `shutdown`.
//!
//! ```
//! use cnn_model::exec::{deterministic_input, ModelWeights};
//! use cnn_model::{LayerOp, Model};
//! use edgesim::ExecutionPlan;
//! use edge_runtime::{Deploy, RuntimeOptions};
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
//! let options = RuntimeOptions::default().with_max_in_flight(2);
//!
//! let session = Deploy::new(&model, &plan, &weights)
//!     .options(options)
//!     .start()
//!     .unwrap();
//! // First wave.
//! let ticket = session.submit(&deterministic_input(&model, 1)).unwrap();
//! let output = session.wait(ticket).unwrap();
//! assert_eq!(output.shape(), [4, 1, 1]);
//! // Mid-stream measurement, then a second wave on the same deployment.
//! assert_eq!(session.metrics().images, 1);
//! let ticket = session.submit(&deterministic_input(&model, 2)).unwrap();
//! session.wait(ticket).unwrap();
//! let report = session.shutdown().unwrap();
//! assert_eq!(report.images, 2);
//! ```

pub mod provider;
pub mod report;
pub mod routing;
pub mod runtime;
pub mod session;
pub mod transport;
pub mod wire;

pub use report::{DeviceMetrics, MeasuredCompute, RuntimeReport};
pub use routing::{EpochSlot, PlanEpoch, RouteTable};
pub use runtime::{RuntimeOptions, RuntimeOutcome};
pub use session::{
    Deploy, ResyncReport, Runtime, Session, SessionLoad, SwapReport, Ticket, WeightSource,
};
pub use transport::{ChannelTransport, ShapedTransport, TcpTransport, Transport};
pub use wire::{Frame, FrameKind, ReconfigurePayload, WeightDelta, MAX_FRAME_LEN};

use edgesim::Endpoint;
use std::fmt;

/// What class of transport failure occurred — reconnect logic keys off this
/// to decide whether a retry can possibly help.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportErrorKind {
    /// An I/O operation failed mid-flight (reset, broken pipe, short read).
    Io,
    /// The peer is gone: EOF, refused connection, or a closed channel.
    Disconnected,
    /// A deadline elapsed waiting on the peer.
    Timeout,
    /// The peer sent bytes that violate the wire protocol (bad magic,
    /// oversized length prefix, unknown frame kind, epoch misuse).
    Protocol,
    /// The endpoint/topology itself is wrong (unknown peer, inbox reused).
    Config,
}

/// A structured transport failure: which peer, what class, and detail text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError {
    /// The peer the failure is attributed to, when known.
    pub peer: Option<Endpoint>,
    /// Failure class; drives retry decisions.
    pub kind: TransportErrorKind,
    /// Human-readable detail.
    pub detail: String,
}

impl TransportError {
    /// A new error of `kind` with no peer attribution.
    pub fn new(kind: TransportErrorKind, detail: impl Into<String>) -> Self {
        Self {
            peer: None,
            kind,
            detail: detail.into(),
        }
    }

    /// Attributes the error to `peer`.
    pub fn at(mut self, peer: Endpoint) -> Self {
        self.peer = Some(peer);
        self
    }

    /// Whether reconnecting and retrying can plausibly clear this error.
    /// Protocol violations and topology mistakes are never retryable.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self.kind,
            TransportErrorKind::Io | TransportErrorKind::Disconnected | TransportErrorKind::Timeout
        )
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            TransportErrorKind::Io => "io",
            TransportErrorKind::Disconnected => "disconnected",
            TransportErrorKind::Timeout => "timeout",
            TransportErrorKind::Protocol => "protocol",
            TransportErrorKind::Config => "config",
        };
        match self.peer {
            Some(peer) => write!(f, "[{kind}] {peer:?}: {}", self.detail),
            None => write!(f, "[{kind}] {}", self.detail),
        }
    }
}

/// Errors surfaced by the runtime.
#[derive(Debug)]
pub enum RuntimeError {
    /// A wire frame could not be decoded.
    Wire(String),
    /// The transport failed (peer gone, socket error, ...).
    Transport(TransportError),
    /// The plan and model disagree, or a kernel failed.
    Execution(String),
    /// A worker thread panicked.
    WorkerPanic(String),
}

impl RuntimeError {
    /// An I/O-class transport error (retryable).
    pub fn transport_io(detail: impl Into<String>) -> Self {
        RuntimeError::Transport(TransportError::new(TransportErrorKind::Io, detail))
    }

    /// A peer-gone transport error (retryable).
    pub fn transport_disconnected(detail: impl Into<String>) -> Self {
        RuntimeError::Transport(TransportError::new(
            TransportErrorKind::Disconnected,
            detail,
        ))
    }

    /// A deadline-elapsed transport error (retryable).
    pub fn transport_timeout(detail: impl Into<String>) -> Self {
        RuntimeError::Transport(TransportError::new(TransportErrorKind::Timeout, detail))
    }

    /// A wire-protocol violation (not retryable).
    pub fn transport_protocol(detail: impl Into<String>) -> Self {
        RuntimeError::Transport(TransportError::new(TransportErrorKind::Protocol, detail))
    }

    /// A topology/config mistake (not retryable).
    pub fn transport_config(detail: impl Into<String>) -> Self {
        RuntimeError::Transport(TransportError::new(TransportErrorKind::Config, detail))
    }

    /// The structured transport payload, when this is a transport error.
    pub fn as_transport(&self) -> Option<&TransportError> {
        match self {
            RuntimeError::Transport(t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Wire(m) => write!(f, "wire error: {m}"),
            RuntimeError::Transport(m) => write!(f, "transport error: {m}"),
            RuntimeError::Execution(m) => write!(f, "execution error: {m}"),
            RuntimeError::WorkerPanic(m) => write!(f, "worker panicked: {m}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<cnn_model::ModelError> for RuntimeError {
    fn from(e: cnn_model::ModelError) -> Self {
        RuntimeError::Execution(e.to_string())
    }
}

impl From<tensor::TensorError> for RuntimeError {
    fn from(e: tensor::TensorError) -> Self {
        RuntimeError::Execution(e.to_string())
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, RuntimeError>;

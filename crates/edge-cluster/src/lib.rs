//! Multi-host cluster serving for DistrEdge.
//!
//! Everything below `edge-runtime` runs a cluster *inside one process*:
//! provider workers on threads, frames over channels or loopback TCP.
//! This crate is the missing networking subsystem that turns a set of
//! separate machines (or OS processes) into one serving cluster — the
//! deployment model the paper actually assumes:
//!
//! * [`config`] — peer configuration: a [`NodeConfig`] per node process
//!   and a [`ClusterConfig`] for the coordinator, loadable from JSON or a
//!   small TOML subset,
//! * [`proto`] — the bootstrap handshake: `Hello` ships the model, the
//!   peer table, and an epoch's `ExecutionPlan` + weight shard (reusing
//!   the `Reconfigure` payload codec from `edge-runtime::wire`), `Welcome`
//!   confirms the install,
//! * [`node`] — [`BoundNode`]: the `distredge-node` runloop.  Binds the
//!   listen address and reports the one it got (port 0 lets the OS
//!   choose), bootstraps a provider worker from the first `Hello`, accepts
//!   peer halo links, and survives coordinator reconnects,
//! * [`coordinator`] — [`ClusterSession::serve`]: implements the
//!   `edge-runtime` `Transport` trait over real multi-peer TCP, deploys a
//!   requester-side session over it, and supervises the links — a dropped
//!   connection reconnects with exponential backoff, re-handshakes at the
//!   session's current epoch and plan, and the session re-syncs and
//!   replays in-flight work instead of failing.
//!
//! Both ends send through one reconnecting-link slot (`link.rs`: a socket
//! generation per handshake, senders that wait across outages) and read
//! through `edge-runtime`'s one frame pump, and every re-dial follows one
//! reconnect schedule (`backoff.rs`).
//!
//! [`ClusterSession::session`] is a plain `Session` — the same `submit` /
//! `wait` / `metrics` / `apply_plan` surface as a local one, bit-exact with
//! single-device execution — over real sockets, with real processes dying
//! and rejoining mid-stream.

mod backoff;
pub mod config;
pub mod coordinator;
mod link;
pub mod node;
pub mod proto;

pub use config::{ClusterConfig, NodeConfig, PeerSpec};
pub use coordinator::ClusterSession;
pub use node::BoundNode;
pub use proto::{Hello, Welcome};

use std::fmt;

/// Errors surfaced by cluster bootstrap and supervision.
#[derive(Debug)]
pub enum ClusterError {
    /// A config file could not be read or parsed, or is inconsistent.
    Config(String),
    /// The runtime underneath failed (transport, execution, ...).
    Runtime(edge_runtime::RuntimeError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Config(m) => write!(f, "config error: {m}"),
            ClusterError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<edge_runtime::RuntimeError> for ClusterError {
    fn from(e: edge_runtime::RuntimeError) -> Self {
        ClusterError::Runtime(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ClusterError>;

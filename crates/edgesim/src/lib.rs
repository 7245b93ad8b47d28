//! Discrete-event simulation of distributed CNN inference on edge devices.
//!
//! This crate is the stand-in for the paper's physical testbed (§V-A): a set
//! of service providers connected through shaped WiFi, a service requester
//! streaming images, and split-parts of layer-volumes preloaded onto the
//! providers.  Given a model, a cluster and an execution plan it computes
//! the event times of every compute and transfer in the dependency graph —
//! which is exactly what an event-driven simulator of the receive / compute
//! / send provider runtime produces, because within one image there is no
//! resource contention beyond the data dependencies and the per-link
//! serialisation the transfer model already captures.  (In `edge-runtime`
//! the receive role is the transport's pump or channel; a provider runs
//! compute and send threads.)
//!
//! Outputs mirror the paper's measurements:
//!
//! * images-per-second over a stream of images (the IPS metric of Figs.
//!   5–11),
//! * per-image end-to-end latency over time (Fig. 13),
//! * per-device maximum computing and transmission latency (Fig. 15).
//!
//! The same volume-by-volume stepper that powers the simulator is exposed
//! publicly ([`stepper`]) because the OSDS MDP observes exactly its
//! intermediate state: the accumulated latencies of the devices after each
//! layer-volume.
//!
//! The routing — which rows each device needs, and who sends which rows to
//! whom at each stage — is derived once, from the [`ExecutionPlan`]
//! ([`plan`]: [`ExecutionPlan::transfers`], [`ExecutionPlan::sends`]).
//! The stepper prices those transfers and `edge-runtime` ships them, so a
//! plan the runtime serves moves exactly the rows the planner priced.

pub mod cluster;
pub mod metrics;
pub mod plan;
pub mod sim;
pub mod stepper;

pub use cluster::{Cluster, Endpoint, PartCompute};
pub use metrics::SimReport;
pub use plan::{ExecutionPlan, Transfer, VolumeAssignment};
pub use sim::{simulate, SimOptions};
pub use stepper::{advance_volume, finish_image, ClusterState, VolumeStats};

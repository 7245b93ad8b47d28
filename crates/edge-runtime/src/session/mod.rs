//! The long-lived serving session: a deployed cluster that stays resident
//! and serves a continuous image flow (§V-A's streaming loop as state, not
//! a function body).
//!
//! [`Deploy`] wires the provider workers up once and returns a [`Session`]
//! (`deploy.rs`).  From then on:
//!
//! * [`Session::submit`] scatters one image into the pipeline and returns a
//!   [`Ticket`] (`stream.rs`).  Submission is **credit-gated**: at most
//!   `RuntimeOptions::max_in_flight` images are in the pipeline at once, so
//!   a slow provider throttles submitters instead of growing the provider
//!   inboxes without bound (every in-flight image contributes a bounded
//!   number of frames per inbox, so queue depth is bounded by the window).
//!   [`Session::try_submit`] is the non-blocking variant.
//! * [`Session::wait`] blocks until a ticket's output is ready;
//!   [`Session::wait_timeout`] bounds the wait; [`Session::try_recv`] polls
//!   for *any* ready output.  Results arrive through the gather thread
//!   (`gather.rs`).
//! * [`Session::metrics`] snapshots a [`RuntimeReport`] mid-stream from the
//!   providers' live counters — the hook online re-planning consumes.
//! * [`Session::apply_plan`] **hot-swaps the execution plan** without a
//!   redeploy (`swap.rs`): admission stops at the old epoch, the in-flight
//!   window drains (reusing the credit accounting), every provider receives
//!   a `Reconfigure` frame carrying the new plan plus only the weight
//!   layers it is missing (the delta shard — resident weights are never
//!   re-sent), the epoch flips once every provider acks, and admission
//!   resumes.  The cluster, its worker threads and its resident weights
//!   survive the swap; the returned [`SwapReport`] measures the drain gap
//!   and the bytes shipped.  [`Session::resync_epoch`] runs the same
//!   protocol without the drain to recover a re-joined device.
//! * [`Session::shutdown`] drains whatever is still in flight, halts the
//!   workers, joins every thread and returns the final report;
//!   [`Session::run_batch`] is submit-all / wait-all / shutdown for one-shot
//!   callers.
//!
//! A `Session` is `Sync`: multiple client threads can `submit`/`wait` on a
//! shared reference concurrently (see `examples/serving_session.rs`).

mod deploy;
mod gather;
mod stream;
mod swap;
#[cfg(test)]
mod tests;

pub use deploy::{Deploy, Runtime, WeightSource};
pub use swap::{ResyncReport, SwapReport};

use crate::provider::ProviderHandle;
use crate::report::{DeviceMetrics, RuntimeReport};
use crate::runtime::RuntimeOptions;
use crate::transport::FrameTx;
use crate::wire::Frame;
use crate::{Result, RuntimeError};
use cnn_model::exec::{ModelWeights, QuantSpec};
use cnn_model::Model;
use edge_telemetry::{Recorder, Telemetry, REQUESTER};
use edgesim::ExecutionPlan;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tensor::Tensor;

/// How often the gather thread wakes to check the stop flag and the wedge
/// timer when no frame arrives.
const GATHER_TICK: Duration = Duration::from_millis(25);

/// A point-in-time load snapshot of one session, cheap enough to take per
/// routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionLoad {
    /// Submits that would currently succeed without blocking (0 when the
    /// session has failed, halted, or is mid-swap).
    pub free_credits: usize,
    /// Completed outputs sitting unclaimed in the session — work the
    /// consumer side has not drained yet.
    pub queue_depth: usize,
    /// Images currently in the pipeline.
    pub in_flight: usize,
}

/// A claim on the output of one submitted image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    image: u32,
}

impl Ticket {
    /// The image sequence number this ticket tracks.
    pub fn image(&self) -> u32 {
        self.image
    }
}

/// The image flow's bookkeeping.  Every submitted image is in exactly one
/// of three places: `in_flight`, `outputs`, or claimed — an id below
/// `submitted` that is in neither.
#[derive(Default)]
struct StreamState {
    /// Images submitted so far (the next ticket id).
    submitted: u64,
    /// The images in the pipeline (submitted, not yet completed), in id
    /// order: each one's submit instant and its retained input (bounded by
    /// the credit window), so an epoch re-sync can replay work lost to a
    /// dead device.
    in_flight: BTreeMap<u32, (Instant, Tensor)>,
    /// High-water mark of `in_flight.len()`.
    max_in_flight_observed: usize,
    /// Completed outputs not yet claimed by `wait` / `try_recv`.
    outputs: HashMap<u32, Tensor>,
    /// Per-image latency in completion order.
    latencies_ms: Vec<f64>,
    /// The serving epoch (bumped by `apply_plan`).
    epoch: u64,
    /// A plan swap is in progress: admission is paused, the queue parks.
    swapping: bool,
    /// The epoch a swap is waiting on acks for (`0` when no swap runs —
    /// epoch ids of swaps start at 1).
    swap_target: u64,
    /// Which providers acked `swap_target` so far, one flag per device.
    acked: Vec<bool>,
    /// A stream failure; fatal to the whole session once set.
    failed: Option<String>,
    /// Shutdown has begun; new submissions are rejected.
    halted: bool,
}

/// The session's handle on the telemetry hub and its requester-side control
/// recorder.  The recorder has its own lock, never held together with the
/// state mutex (record after dropping the state guard).
struct SessionTelemetry {
    hub: Telemetry,
    /// Requester-side control events: wait spans, swap-protocol spans.
    rec: Mutex<Recorder>,
}

impl SessionTelemetry {
    fn new(telemetry: &Telemetry) -> Self {
        Self {
            hub: telemetry.clone(),
            rec: Mutex::new(telemetry.recorder("requester", REQUESTER)),
        }
    }

    fn recorder(&self) -> MutexGuard<'_, Recorder> {
        self.rec.lock().expect("telemetry recorder poisoned")
    }
}

struct SessionShared {
    state: Mutex<StreamState>,
    /// Signalled when an output completes (or the session fails).
    results: Condvar,
    /// Signalled when an in-flight credit frees up, an epoch ack arrives,
    /// or the session fails.
    credits: Condvar,
    tel: SessionTelemetry,
}

impl SessionShared {
    fn new(tel: SessionTelemetry) -> Self {
        Self {
            state: Mutex::new(StreamState::default()),
            results: Condvar::new(),
            credits: Condvar::new(),
            tel,
        }
    }

    fn lock(&self) -> MutexGuard<'_, StreamState> {
        self.state.lock().expect("session state poisoned")
    }

    /// Blocks until the in-flight window is empty or the session has
    /// failed.  A wedged cluster is caught by the gather thread's timeout,
    /// which sets `failed` and wakes this wait.
    fn drain<'a>(&self, mut st: MutexGuard<'a, StreamState>) -> MutexGuard<'a, StreamState> {
        while st.failed.is_none() && !st.in_flight.is_empty() {
            st = self
                .credits
                .wait_timeout(st, GATHER_TICK)
                .expect("session state poisoned")
                .0;
        }
        st
    }

    fn fail(&self, err: &RuntimeError) {
        let mut st = self.lock();
        if st.failed.is_none() {
            st.failed = Some(err.to_string());
        }
        self.results.notify_all();
        self.credits.notify_all();
    }
}

struct ScatterState {
    txs: Vec<Box<dyn FrameTx>>,
    scatter_ms: Vec<f64>,
    /// The plan whose first volume the next image is scattered onto —
    /// per-epoch state, replaced by `apply_plan`.
    plan: ExecutionPlan,
    /// Submit-path spans (whole-submit + per-device scatter); single-writer
    /// by virtue of living under the scatter lock.
    rec: Recorder,
}

/// The session's bookkeeping of what each device holds resident — the diff
/// basis of `apply_plan`'s delta shards.
struct PlanState {
    /// The plan of the current epoch.
    plan: ExecutionPlan,
    /// Layers resident on each device (the union of every epoch served so
    /// far — swaps add, never evict, so swapping back is free).
    keep: Vec<HashSet<usize>>,
    /// Weight bytes resident on each device.
    resident_bytes: Vec<usize>,
}

/// A deployed, resident cluster serving a continuous image flow.
pub struct Session {
    shared: Arc<SessionShared>,
    scatter: Mutex<ScatterState>,
    plan_state: Mutex<PlanState>,
    model: Model,
    /// The full weight set, kept for delta-shard computation on swaps.
    weights: Arc<ModelWeights>,
    /// The quantization spec the session serves with (`None` = f32).  It
    /// rides every `Reconfigure` payload so each new epoch re-negotiates
    /// the same kernel routing and q8 wire precision, and switches the
    /// scatter path to q8 input frames.
    quant: Option<QuantSpec>,
    input_shape: [usize; 3],
    options: RuntimeOptions,
    stop: Arc<AtomicBool>,
    gather: Option<JoinHandle<Receiver<Vec<u8>>>>,
    providers: Vec<ProviderHandle>,
    t_start: Instant,
}

impl Session {
    /// Whether the session serves int8 quantized (calibrated kernels plus
    /// q8 activation transfer).
    pub fn quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// The serving epoch: `0` at deploy, bumped by every
    /// [`Session::apply_plan`].
    pub fn epoch(&self) -> u64 {
        self.shared.lock().epoch
    }

    /// The serving epoch and the plan it serves, read together — what a
    /// device that re-joins must be bootstrapped with.  Mid-swap this may
    /// pair the old epoch with the incoming plan ([`Session::apply_plan`]
    /// publishes its plan before the epoch flips), never a newer epoch with
    /// an older plan: a device bootstrapped from it then installs the
    /// incoming epoch from the swap's own `Reconfigure` frame.
    pub fn current_plan(&self) -> (u64, ExecutionPlan) {
        let ps = self.plan_state.lock().expect("plan state poisoned");
        (self.epoch(), ps.plan.clone())
    }

    /// Weight bytes resident on each provider — only the layers a device's
    /// parts (and, on the head device, the FC head) have needed in any
    /// epoch served so far are loaded, so on asymmetric plans these differ
    /// per device and their sum can be far below `num_devices × full model
    /// size`.  Grows when a swap ships delta shards; never shrinks (weights
    /// stay resident so swapping back is free).
    pub fn resident_weight_bytes(&self) -> Vec<usize> {
        self.plan_state
            .lock()
            .expect("plan state poisoned")
            .resident_bytes
            .clone()
    }

    /// Images currently in the pipeline.
    pub fn in_flight(&self) -> usize {
        self.shared.lock().in_flight.len()
    }

    /// Reconstructs the [`Ticket`] of an already-submitted image, for
    /// callers that track claims by image id across several sessions (the
    /// gateway's routing seam).  `None` if no such image was ever
    /// submitted here.
    pub fn ticket_for(&self, image: u32) -> Option<Ticket> {
        (u64::from(image) < self.shared.lock().submitted).then_some(Ticket { image })
    }

    /// The stream failure, if the session has failed.  Once set, every
    /// `submit` / `wait` errors and `shutdown` surfaces the failure; a
    /// monitor thread can poll this to stop waiting on progress.
    pub fn failure(&self) -> Option<String> {
        self.shared.lock().failed.clone()
    }

    /// Snapshots the measurement so far: per-image latencies in completion
    /// order, live per-device counters, throughput over the wall clock,
    /// tagged with the serving epoch.  Counters only grow, so successive
    /// snapshots are monotone.
    pub fn metrics(&self) -> RuntimeReport {
        let (latencies, max_in_flight, epoch) = {
            let st = self.shared.lock();
            (st.latencies_ms.clone(), st.max_in_flight_observed, st.epoch)
        };
        let scatter_ms = {
            let sc = self.scatter.lock().expect("scatter state poisoned");
            sc.scatter_ms.clone()
        };
        let devices = self
            .providers
            .iter()
            .zip(&scatter_ms)
            .map(|(p, &s)| p.stats.snapshot(s))
            .collect();
        RuntimeReport::from_measured(
            latencies,
            devices,
            self.t_start.elapsed().as_secs_f64() * 1e3,
            max_in_flight,
            epoch,
        )
    }

    /// Drains everything still in flight, halts the providers, joins every
    /// worker thread and returns the final measurement.  In-flight images
    /// complete (and count in the report) before the cluster goes down;
    /// unclaimed outputs are dropped.
    pub fn shutdown(mut self) -> Result<RuntimeReport> {
        // 1. Close submissions, then drain the pipeline.
        {
            let mut st = self.shared.lock();
            st.halted = true;
            drop(self.shared.drain(st));
        }
        let wall_ms = self.t_start.elapsed().as_secs_f64() * 1e3;

        // 2. Tear the cluster down (idempotent; `Drop` is a no-op after).
        let (devices, teardown_err) = self.teardown();

        let st = self.shared.lock();
        if let Some(f) = &st.failed {
            return Err(RuntimeError::Execution(format!("session failed: {f}")));
        }
        if let Some(e) = teardown_err {
            return Err(e);
        }
        Ok(RuntimeReport::from_measured(
            st.latencies_ms.clone(),
            devices,
            wall_ms,
            st.max_in_flight_observed,
            st.epoch,
        ))
    }

    /// Stops the gather thread, halts and joins every provider.  Returns
    /// the final per-device metrics and the first teardown error.
    fn teardown(&mut self) -> (Vec<DeviceMetrics>, Option<RuntimeError>) {
        // Stop the gatherer first and recover the requester inbox: it must
        // stay alive until the providers are joined, otherwise a provider
        // still streaming (error paths) would wedge on a dead inbox — over
        // TCP that deadlocks the socket reader threads.
        self.stop.store(true, Ordering::SeqCst);
        let inbox = self.gather.take().map(|g| g.join());

        let mut err: Option<RuntimeError> = None;
        let scatter_ms = {
            let mut sc = self.scatter.lock().expect("scatter state poisoned");
            for tx in &mut sc.txs {
                // Best effort — a dead peer cannot be halted twice.
                if let Err(e) = tx.send(&Frame::halt()) {
                    err.get_or_insert(e);
                }
            }
            sc.scatter_ms.clone()
        };

        let mut devices = Vec::with_capacity(self.providers.len());
        for (d, handle) in self.providers.drain(..).enumerate() {
            let stats = Arc::clone(&handle.stats);
            if let Err(e) = handle.join() {
                err.get_or_insert(e);
            }
            devices.push(stats.snapshot(scatter_ms[d]));
        }
        if let Some(Err(_)) = inbox {
            err.get_or_insert(RuntimeError::WorkerPanic("gather thread".into()));
        }
        drop(inbox);
        (devices, err)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // A session abandoned without `shutdown` (error paths, panics)
        // still halts and joins every thread so nothing outlives it.
        if self.gather.is_some() || !self.providers.is_empty() {
            self.shared.lock().halted = true;
            let _ = self.teardown();
        }
    }
}

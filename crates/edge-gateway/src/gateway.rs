//! The gateway proper: client handles, the response ticket, and the
//! dispatcher thread that turns a many-client request stream into batched,
//! credit-scheduled, deadline-checked session traffic.

use crate::backend::{Backend, RouteTicket};
use crate::batcher::{Batcher, Priority};
use crate::config::GatewayConfig;
use crate::metrics::{GatewayMetrics, LatencyHistogram};
use crate::GatewayError;
use edge_runtime::{RuntimeReport, SwapReport};
use edge_telemetry::{Recorder, Stage, Telemetry, TraceId, REQUESTER};
use edgesim::ExecutionPlan;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tensor::Tensor;

/// How often the dispatcher polls completions while work is outstanding.
const DISPATCH_TICK: Duration = Duration::from_millis(1);
/// How long the dispatcher sleeps when fully idle.
const IDLE_TICK: Duration = Duration::from_millis(5);
/// Smoothing factor of the service-time EWMA the shedding logic uses.
const EWMA_ALPHA: f64 = 0.2;

/// The shared slot a [`Response`] resolves through.
#[derive(Default)]
struct ResponseState {
    slot: Mutex<Option<Result<Tensor, GatewayError>>>,
    ready: Condvar,
}

impl ResponseState {
    /// Resolves the response; the first resolution wins.
    fn fulfil(&self, result: Result<Tensor, GatewayError>) {
        let mut slot = self.slot.lock().expect("response slot poisoned");
        if slot.is_none() {
            *slot = Some(result);
        }
        self.ready.notify_all();
    }
}

/// A future-like claim on one inference result.  Obtained from
/// [`GatewayClient::infer`] / [`GatewayClient::infer_with_deadline`];
/// resolves to the output tensor, or to a typed [`GatewayError`] when the
/// request was shed (deadline, overload) or the gateway went away.
pub struct Response {
    state: Arc<ResponseState>,
}

impl Response {
    /// Blocks until the response resolves and claims it.
    pub fn wait(self) -> Result<Tensor, GatewayError> {
        let mut slot = self.state.slot.lock().expect("response slot poisoned");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.state.ready.wait(slot).expect("response slot poisoned");
        }
    }
}

/// One queued inference request.
struct PendingRequest {
    image: Tensor,
    /// The model id to route by (`None` = the backend's default model).
    model: Option<Arc<str>>,
    deadline: Option<Instant>,
    enqueued: Instant,
    priority: Priority,
    state: Arc<ResponseState>,
}

/// Admitted requests by ticket, each with the trace it was admitted under
/// (the session's epoch at admission, and the image).
type Pending = HashMap<RouteTicket, (PendingRequest, TraceId)>;

/// Front-end counters (behind the state mutex).
#[derive(Default)]
struct Stats {
    histogram: LatencyHistogram,
    completed: u64,
    /// Sheds by reason ([`SHED_DEADLINE`], [`SHED_OVERLOAD`]), each split
    /// by scheduling class in [`Priority::ALL`] order.
    shed: [[u64; 3]; 2],
    dispatched: u64,
    batches: u64,
    est_service_ms: f64,
}

impl Stats {
    /// The deadline-shedding estimate: measured end-to-end service time, or
    /// `None` before the first completion.
    fn estimate(&self) -> Option<Duration> {
        (self.est_service_ms > 0.0).then(|| Duration::from_secs_f64(self.est_service_ms / 1e3))
    }

    fn observe(&mut self, latency_ms: f64) {
        self.histogram.record(latency_ms);
        self.est_service_ms = if self.est_service_ms == 0.0 {
            latency_ms
        } else {
            (1.0 - EWMA_ALPHA) * self.est_service_ms + EWMA_ALPHA * latency_ms
        };
    }
}

struct State {
    batcher: Batcher<PendingRequest>,
    /// Submissions are closed (shutdown or abort has begun).
    closed: bool,
    /// Drop-path teardown: fail outstanding work instead of draining it.
    aborted: bool,
    stats: Stats,
}

/// Shed-reason code: the row of [`Stats::shed`], and the high half of a
/// [`Stage::Shed`] arg (the low half carries the [`Priority::index`]).
const SHED_DEADLINE: u32 = 0;
/// See [`SHED_DEADLINE`].
const SHED_OVERLOAD: u32 = 1;

struct Inner {
    config: GatewayConfig,
    state: Mutex<State>,
    /// Signalled on every enqueue and on close.
    work: Condvar,
    /// The resident serving backend (one session, or a fleet of replica
    /// sessions).  `None` only once `shutdown` has taken it.
    backend: RwLock<Option<Box<dyn Backend>>>,
    hub: Telemetry,
    /// The front-end's span recorder: its own lock, never held together
    /// with the state mutex (always record *after* dropping the guard).
    rec: Mutex<Recorder>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("gateway state poisoned")
    }

    /// Records a point event on the gateway's track, when tracing is on.
    fn instant(&self, stage: Stage, trace: TraceId, arg: u32) {
        if self.hub.is_enabled() {
            let mut rec = self.rec.lock().expect("telemetry recorder poisoned");
            rec.instant(stage, trace, 0, arg);
        }
    }

    /// Counts one shed under the held state guard, releases it, and drops
    /// a [`Stage::Shed`] instant on the trace (arg packs
    /// `class | reason << 16`).
    fn shed(&self, mut st: MutexGuard<'_, State>, priority: Priority, reason: u32) {
        st.stats.shed[reason as usize][priority.index()] += 1;
        drop(st);
        let arg = priority.index() as u32 | (reason << 16);
        self.instant(Stage::Shed, TraceId::session(0), arg);
    }

    /// Runs `f` on the live backend; `None` once the backend was taken.
    fn with_backend<R>(&self, f: impl FnOnce(&dyn Backend) -> R) -> Option<R> {
        let guard = self.backend.read().expect("backend lock poisoned");
        guard.as_deref().map(f)
    }
}

/// A handle for submitting inference requests to a [`Gateway`].  Cheap to
/// clone; every thread of a client application typically holds its own.
#[derive(Clone)]
pub struct GatewayClient {
    inner: Arc<Inner>,
    priority: Priority,
    model: Option<Arc<str>>,
}

impl GatewayClient {
    /// The same handle with a different scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// This handle's scheduling class.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The same handle routing to a specific model id.  A single-session
    /// gateway serves one model and ignores the id; a fleet backend routes
    /// by it and resolves requests for ids it does not serve with a
    /// [`GatewayError::Runtime`] error.
    pub fn with_model(mut self, model: &str) -> Self {
        self.model = Some(Arc::from(model));
        self
    }

    /// The model id this handle routes to (`None` = backend default).
    pub fn model(&self) -> Option<&str> {
        self.model.as_deref()
    }

    /// Submits one image with no deadline; never sheds for time, only for
    /// overload.
    pub fn infer(&self, image: &Tensor) -> Response {
        self.enqueue(image, None)
    }

    /// Submits one image that must complete within `budget` from now.
    /// Requests the gateway cannot serve in time — judged at admission and
    /// again at dispatch against the measured service rate — resolve to
    /// [`GatewayError::DeadlineExceeded`] instead of occupying the cluster.
    pub fn infer_with_deadline(&self, image: &Tensor, budget: Duration) -> Response {
        self.enqueue(image, Some(Instant::now() + budget))
    }

    fn enqueue(&self, image: &Tensor, deadline: Option<Instant>) -> Response {
        let state = Arc::new(ResponseState::default());
        let response = Response {
            state: Arc::clone(&state),
        };
        let now = Instant::now();
        let mut st = self.inner.lock();
        if st.closed {
            drop(st);
            state.fulfil(Err(GatewayError::Closed));
            return response;
        }
        // Admission control: a bounded queue sheds bursts instead of
        // absorbing them into unbounded latency for everyone behind them.
        if st.batcher.len() >= self.inner.config.queue_capacity {
            let queue_depth = st.batcher.len();
            self.inner.shed(st, self.priority, SHED_OVERLOAD);
            state.fulfil(Err(GatewayError::Overloaded { queue_depth }));
            return response;
        }
        // Deadline admission control: when the measured service rate says
        // the deadline cannot be met, shed up front.  Only while requests
        // are actually queued ahead of this one — an idle gateway always
        // admits, so a stale estimate (inflated by an earlier overload's
        // queueing) is re-measured and pulled back down instead of shedding
        // every deadline request forever.
        if let (Some(dl), Some(est)) = (deadline, st.stats.estimate()) {
            if !st.batcher.is_empty() && now + est > dl {
                self.inner.shed(st, self.priority, SHED_DEADLINE);
                state.fulfil(Err(GatewayError::DeadlineExceeded));
                return response;
            }
        }
        st.batcher.push(
            PendingRequest {
                image: image.clone(),
                model: self.model.clone(),
                deadline,
                enqueued: now,
                priority: self.priority,
                state,
            },
            self.priority,
            now,
        );
        drop(st);
        self.inner.work.notify_all();
        response
    }
}

/// A batching, SLO-aware serving front-end over one resident
/// [`edge_runtime::Session`].  See the crate docs for the architecture.
pub struct Gateway {
    inner: Arc<Inner>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Gateway {
    /// Puts the batching / priority / deadline front-end over a serving
    /// backend: a deployed [`edge_runtime::Session`] (it converts into the
    /// single-session backend) or any boxed [`Backend`] — the routing seam
    /// a fleet of replica sessions plugs into.
    ///
    /// The front-end lifecycle is recorded on `telemetry`: queue-wait spans
    /// per admitted image, batch-formation and shed instants; the counts
    /// live in [`Gateway::metrics`].  Deploy the session on the same hub
    /// ([`edge_runtime::Deploy::telemetry`]) to see the full gateway →
    /// device → response path on one clock; pass [`Telemetry::disabled`] to
    /// record nothing.
    pub fn over(
        backend: impl Into<Box<dyn Backend>>,
        config: GatewayConfig,
        telemetry: &Telemetry,
    ) -> Result<Self, GatewayError> {
        config.validate()?;
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                batcher: Batcher::new(config.max_batch, config.max_linger)
                    .with_max_starvation(config.max_starvation),
                closed: false,
                aborted: false,
                stats: Stats::default(),
            }),
            work: Condvar::new(),
            backend: RwLock::new(Some(backend.into())),
            config,
            hub: telemetry.clone(),
            rec: Mutex::new(telemetry.recorder("gateway", REQUESTER)),
        });
        let dispatcher_inner = Arc::clone(&inner);
        let dispatcher = std::thread::Builder::new()
            .name("edge-gw-dispatch".into())
            .spawn(move || dispatch_loop(dispatcher_inner))
            .expect("spawn gateway dispatcher");
        Ok(Self {
            inner,
            dispatcher: Some(dispatcher),
        })
    }

    /// A new client handle (default [`Priority::Normal`], backend-default
    /// model).
    pub fn client(&self) -> GatewayClient {
        GatewayClient {
            inner: Arc::clone(&self.inner),
            priority: Priority::default(),
            model: None,
        }
    }

    /// Hot-swaps the execution plan of the session underneath without
    /// taking the gateway down: admission into the session pauses while the
    /// in-flight window drains, the gateway's queue **parks** (requests
    /// keep their place and their tickets stay valid — nothing is shed for
    /// the swap itself, though deadline SLOs still apply), and dispatch
    /// resumes at the new epoch.
    pub fn apply_plan(&self, plan: &ExecutionPlan) -> Result<SwapReport, GatewayError> {
        self.inner
            .with_backend(|b| b.apply_plan(plan))
            .ok_or(GatewayError::Closed)?
            .map_err(GatewayError::Runtime)
    }

    /// Requests waiting in the batcher right now — the one field of
    /// [`Gateway::metrics`] a monitor polls, without rolling up the session
    /// report underneath.
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().batcher.len()
    }

    /// Snapshots the gateway counters together with the live session
    /// metrics underneath.  Counters only grow, so successive snapshots are
    /// monotone.
    pub fn metrics(&self) -> GatewayMetrics {
        let session = self
            .inner
            .with_backend(|b| b.report())
            .expect("backend resident while the gateway is live");
        let st = self.inner.lock();
        build_metrics(&st.stats, st.batcher.len(), session)
    }

    /// Closes submissions, drains every queued and in-flight request, shuts
    /// the session down and returns the final metrics.
    pub fn shutdown(mut self) -> Result<GatewayMetrics, GatewayError> {
        self.inner.lock().closed = true;
        self.inner.work.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            handle
                .join()
                .map_err(|_| GatewayError::Runtime("dispatcher thread panicked".into()))?;
        }
        let backend = self
            .inner
            .backend
            .write()
            .expect("backend lock poisoned")
            .take()
            .ok_or(GatewayError::Closed)?;
        let report = backend.shutdown().map_err(GatewayError::Runtime)?;
        let st = self.inner.lock();
        Ok(build_metrics(&st.stats, st.batcher.len(), report))
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        // A gateway abandoned without `shutdown` still joins its dispatcher
        // and resolves every outstanding response (with `Closed`), so no
        // client blocks forever and no thread outlives the gateway — the
        // backend is taken out of the shared state and dropped here (a
        // session's own `Drop` halts and joins every worker), so surviving
        // `GatewayClient` handles cannot keep the cluster resident.
        if let Some(handle) = self.dispatcher.take() {
            {
                let mut st = self.inner.lock();
                st.closed = true;
                st.aborted = true;
            }
            self.inner.work.notify_all();
            let _ = handle.join();
            drop(
                self.inner
                    .backend
                    .write()
                    .expect("backend lock poisoned")
                    .take(),
            );
        }
    }
}

fn build_metrics(stats: &Stats, queue_depth: usize, session: RuntimeReport) -> GatewayMetrics {
    GatewayMetrics {
        epoch: session.epoch,
        completed: stats.completed,
        shed_deadline: stats.shed[SHED_DEADLINE as usize].iter().sum(),
        shed_overload: stats.shed[SHED_OVERLOAD as usize].iter().sum(),
        shed_deadline_by_class: stats.shed[SHED_DEADLINE as usize],
        shed_overload_by_class: stats.shed[SHED_OVERLOAD as usize],
        queue_depth,
        dispatched: stats.dispatched,
        batches: stats.batches,
        batch_occupancy: if stats.batches > 0 {
            stats.dispatched as f64 / stats.batches as f64
        } else {
            0.0
        },
        p50_ms: stats.histogram.percentile(0.50),
        p95_ms: stats.histogram.percentile(0.95),
        p99_ms: stats.histogram.percentile(0.99),
        est_service_ms: stats.est_service_ms,
        session,
    }
}

/// The dispatcher: forms waves out of the batcher, sizes them to the
/// session's free credits, submits them, and resolves completions.
fn dispatch_loop(inner: Arc<Inner>) {
    let mut pending = Pending::new();
    loop {
        drain_completions(&inner, &mut pending);

        // A failed backend can never complete what it holds: resolve
        // everything with the failure and close the gateway.
        let failure = inner.with_backend(|b| b.failure()).flatten();
        if let Some(f) = failure {
            let queued = {
                let mut st = inner.lock();
                st.closed = true;
                st.batcher.drain_all()
            };
            let err = GatewayError::Runtime(format!("session failed: {f}"));
            for req in queued {
                req.state.fulfil(Err(err.clone()));
            }
            for (_, (req, _)) in pending.drain() {
                req.state.fulfil(Err(err.clone()));
            }
            return;
        }

        let batch = {
            let mut st = inner.lock();
            if st.aborted {
                for req in st.batcher.drain_all() {
                    req.state.fulfil(Err(GatewayError::Closed));
                }
                drop(st);
                for (_, (req, _)) in pending.drain() {
                    req.state.fulfil(Err(GatewayError::Closed));
                }
                return;
            }
            if st.batcher.is_empty() {
                if st.closed && pending.is_empty() {
                    return; // Fully drained shutdown.
                }
                if let Some(&ticket) = pending.keys().next() {
                    // Work is in flight but nothing is queued: block on an
                    // outstanding ticket with a bounded wait instead of
                    // sleep-polling — any completion wakes the session's
                    // condvar, so results resolve as they land.
                    drop(st);
                    // Anything but a ready output — timeout, backend
                    // failure, a taken backend — is handled by the next
                    // loop iteration's checks.
                    if let Some(Ok(Some(output))) =
                        inner.with_backend(|b| b.wait_timeout(ticket, DISPATCH_TICK))
                    {
                        let (req, trace) = pending.remove(&ticket).expect("ticket is pending");
                        resolve_completion(&inner, req, trace, output);
                    }
                } else {
                    let _ = inner
                        .work
                        .wait_timeout(st, IDLE_TICK)
                        .expect("gateway state poisoned");
                }
                continue;
            }
            let now = Instant::now();
            if !st.batcher.ready(now) && !st.closed {
                // Linger: wait for the wave to fill, but never past its
                // linger expiry and never so long completions go stale.
                let due_in = st.batcher.time_to_ready(now).unwrap_or(DISPATCH_TICK);
                let tick = due_in.clamp(Duration::from_micros(100), DISPATCH_TICK);
                let _ = inner
                    .work
                    .wait_timeout(st, tick)
                    .expect("gateway state poisoned");
                continue;
            }
            // A wave is due.  Size it to the window's free credits (at
            // least one: when the window is saturated the submit path below
            // waits for a credit, which keeps draining completions).
            let credits = inner
                .with_backend(|b| b.available_credits())
                .unwrap_or(0)
                .max(1);
            let batch = st.batcher.take_batch(credits, now);
            if !batch.is_empty() {
                st.stats.batches += 1;
                drop(st);
                inner.instant(Stage::BatchForm, TraceId::session(0), batch.len() as u32);
            }
            batch
        };

        for req in batch {
            submit_one(&inner, req, &mut pending);
        }
    }
}

/// Submits one request, shedding it if its deadline cannot be met, waiting
/// for a free credit (and draining completions) while the window is full —
/// including while a plan swap drains, during which the queue simply parks
/// here until admission reopens at the new epoch.
fn submit_one(inner: &Arc<Inner>, req: PendingRequest, pending: &mut Pending) {
    loop {
        let now = Instant::now();
        if let Some(dl) = req.deadline {
            // An expired deadline always sheds; the service-rate estimate
            // only sheds while other work is in flight ahead of this
            // request (an idle cluster re-measures a stale estimate).
            let est = inner.lock().stats.estimate();
            let doomed = now >= dl || (!pending.is_empty() && est.is_some_and(|e| now + e > dl));
            if doomed {
                inner.shed(inner.lock(), req.priority, SHED_DEADLINE);
                req.state.fulfil(Err(GatewayError::DeadlineExceeded));
                return;
            }
        }
        let submitted = inner.with_backend(|b| b.try_submit(req.model.as_deref(), &req.image));
        match submitted {
            None => {
                req.state.fulfil(Err(GatewayError::Closed));
                return;
            }
            Some(Ok(Some(admission))) => {
                inner.lock().stats.dispatched += 1;
                let trace = TraceId {
                    epoch: admission.epoch,
                    image: admission.ticket.image,
                };
                // The queue-wait span: enqueue → admission into the session.
                if let Some(now) = inner.hub.start() {
                    let mut rec = inner.rec.lock().expect("telemetry recorder poisoned");
                    rec.span_between(
                        Stage::GatewayQueue,
                        trace,
                        req.enqueued,
                        now,
                        0,
                        req.priority.index() as u32,
                    );
                }
                pending.insert(admission.ticket, (req, trace));
                return;
            }
            Some(Ok(None)) => {
                // Window full (or a swap is draining): completions free
                // credits, so collect them first, then block briefly for
                // one.
                drain_completions(inner, pending);
                inner.with_backend(|b| b.wait_for_credit(DISPATCH_TICK));
            }
            Some(Err(e)) => {
                req.state.fulfil(Err(GatewayError::Runtime(e)));
                return;
            }
        }
    }
}

/// Resolves every completion the backend currently has ready.
fn drain_completions(inner: &Arc<Inner>, pending: &mut Pending) {
    loop {
        let Some(Some((ticket, output))) = inner.with_backend(|b| b.try_recv()) else {
            return;
        };
        let Some((req, trace)) = pending.remove(&ticket) else {
            // Not ours (impossible — the gateway owns the backend), drop it.
            continue;
        };
        resolve_completion(inner, req, trace, output);
    }
}

/// Resolves one completed request: records its latency, enforces its
/// deadline, and fulfils the client's response.  The `Respond` instant goes
/// on the trace the request was admitted under.
fn resolve_completion(inner: &Arc<Inner>, req: PendingRequest, trace: TraceId, output: Tensor) {
    let latency_ms = req.enqueued.elapsed().as_secs_f64() * 1e3;
    let late = req.deadline.is_some_and(|dl| Instant::now() > dl);
    let mut st = inner.lock();
    st.stats.observe(latency_ms);
    if late {
        // The SLO is part of the contract: a late result is a shed
        // result, even though the cluster did the work.
        inner.shed(st, req.priority, SHED_DEADLINE);
        req.state.fulfil(Err(GatewayError::DeadlineExceeded));
    } else {
        st.stats.completed += 1;
        drop(st);
        inner.instant(Stage::Respond, trace, 0);
        req.state.fulfil(Ok(output));
    }
}

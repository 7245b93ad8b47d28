//! The long-lived serving session: a deployed cluster that stays resident
//! and serves a continuous image flow (§V-A's streaming loop as state, not
//! a function body).
//!
//! [`Runtime::deploy`] wires the provider workers up once and returns a
//! [`Session`].  From then on:
//!
//! * [`Session::submit`] scatters one image into the pipeline and returns a
//!   [`Ticket`].  Submission is **credit-gated**: at most
//!   `RuntimeOptions::max_in_flight` images are in the pipeline at once, so
//!   a slow provider throttles submitters instead of growing the provider
//!   inboxes without bound (every in-flight image contributes a bounded
//!   number of frames per inbox, so queue depth is bounded by the window).
//!   [`Session::try_submit`] is the non-blocking variant.
//! * [`Session::wait`] blocks until a ticket's output is ready;
//!   [`Session::wait_timeout`] bounds the wait; [`Session::try_recv`] polls
//!   for *any* ready output.
//! * [`Session::metrics`] snapshots a [`RuntimeReport`] mid-stream from the
//!   providers' live counters — the hook online re-planning consumes.
//! * [`Session::apply_plan`] **hot-swaps the execution plan** without a
//!   redeploy: admission stops at the old epoch, the in-flight window
//!   drains (reusing the credit accounting), every provider receives a
//!   `Reconfigure` frame carrying the new plan plus only the weight layers
//!   it is missing (the delta shard — resident weights are never re-sent),
//!   the epoch flips once every provider acks, and admission resumes.  The
//!   cluster, its worker threads and its resident weights survive the swap;
//!   the returned [`SwapReport`] measures the drain gap and the bytes
//!   shipped.
//! * [`Session::shutdown`] drains whatever is still in flight, halts the
//!   workers, joins every thread and returns the final report.
//!
//! A `Session` is `Sync`: multiple client threads can `submit`/`wait` on a
//! shared reference concurrently (see `examples/serving_session.rs`).  The
//! one-shot [`crate::runtime::execute`] entry points are thin wrappers that
//! deploy a session, stream a batch through it and shut it down.

use crate::provider::{spawn_provider, Assembly, ProviderHandle, ProviderWeights, Shared};
use crate::report::RuntimeReport;
use crate::routing::{EpochSlot, PlanEpoch, RouteTable};
use crate::runtime::RuntimeOptions;
use crate::transport::{ChannelTransport, FrameTx, Transport};
use crate::wire::{Frame, FrameKind, ReconfigurePayload, WeightDelta};
use crate::{Result, RuntimeError};
use cnn_model::exec::{ModelWeights, PackedModelWeights, QuantSpec};
use cnn_model::Model;
use edge_telemetry::{Counter, Gauge, Recorder, Stage, Telemetry, TraceId, REQUESTER};
use edgesim::{Endpoint, ExecutionPlan};
use serde::Serialize;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tensor::slice::slice_rows;
use tensor::Tensor;

/// How often the gather thread wakes to check the stop flag and the wedge
/// timer when no frame arrives.
const GATHER_TICK: Duration = Duration::from_millis(25);

/// The deployment entry point of the serving API.
#[derive(Debug, Clone, Copy, Default)]
pub struct Runtime;

/// How a deploy makes weights resident: sharded-per-device raw weights
/// (packed at spawn), or one shared full-model pack.
enum DeployWeights {
    Sharded(Arc<ModelWeights>),
    Prepacked {
        raw: Arc<ModelWeights>,
        packed: Arc<PackedModelWeights>,
    },
}

impl Runtime {
    /// Deploys `plan` onto resident provider workers over `transport` and
    /// returns the live [`Session`].  The transport is only borrowed for
    /// wiring; it must outlive the session only if its links do (the
    /// in-process and shaped fabrics hand out self-contained links, the
    /// TCP fabric's accept threads must stay alive).
    pub fn deploy(
        model: &Model,
        plan: &ExecutionPlan,
        weights: &ModelWeights,
        transport: &mut dyn Transport,
        options: &RuntimeOptions,
    ) -> Result<Session> {
        Self::deploy_traced(
            model,
            plan,
            weights,
            transport,
            options,
            &Telemetry::disabled(),
        )
    }

    /// Like [`Runtime::deploy`], but records every stage of every image's
    /// lifecycle (scatter, per-band compute, wire tx/rx, merge, head, wait)
    /// plus swap-protocol events into `telemetry`'s per-thread rings, and
    /// registers the session's live counters (`session.*`) on its metrics
    /// registry.  Pass [`Telemetry::disabled`] (what `deploy` does) to make
    /// every instrumentation point a single relaxed atomic load.
    pub fn deploy_traced(
        model: &Model,
        plan: &ExecutionPlan,
        weights: &ModelWeights,
        transport: &mut dyn Transport,
        options: &RuntimeOptions,
        telemetry: &Telemetry,
    ) -> Result<Session> {
        // The session's retained set (the delta source of plan swaps) shares
        // the caller's storage: this clone bumps refcounts, it copies no
        // weight.
        Self::deploy_impl(
            model,
            plan,
            DeployWeights::Sharded(Arc::new(weights.clone())),
            transport,
            options,
            telemetry,
        )
    }

    /// Deploys with a pre-packed full-model weight artifact shared across
    /// every provider via `Arc` — no per-device sharding, no packing pass
    /// at spawn.  This is the fleet path: K replica sessions of the same
    /// model all deploy from one `Arc<PackedModelWeights>`, so K replicas
    /// cost one packing pass and one resident copy
    /// (`DeviceMetrics::layers_packed` stays 0 on every such provider).
    ///
    /// `raw` is kept for the swap protocol's delta diffing; because every
    /// layer is already resident, `apply_plan` ships zero weight bytes.
    pub fn deploy_prepacked(
        model: &Model,
        plan: &ExecutionPlan,
        raw: Arc<ModelWeights>,
        packed: Arc<PackedModelWeights>,
        transport: &mut dyn Transport,
        options: &RuntimeOptions,
        telemetry: &Telemetry,
    ) -> Result<Session> {
        // Weightless layers (pools) are resident without holding GEMM
        // panels, so residency — not the packed-panel count — is the
        // full-model check.
        let resident = (0..model.len()).filter(|&i| packed.is_resident(i)).count();
        if resident != model.len() {
            return Err(RuntimeError::Execution(format!(
                "shared pack holds {resident} of {} layers; prepacked deploys need the full model resident",
                model.len()
            )));
        }
        Self::deploy_impl(
            model,
            plan,
            DeployWeights::Prepacked { raw, packed },
            transport,
            options,
            telemetry,
        )
    }

    /// Deploys the *requester side only*: the gather thread, the scatter
    /// links and the swap machinery — no local provider workers.  The
    /// transport's device endpoints are expected to be served by remote
    /// processes (the `edge-cluster` crate's `distredge-node`) that were
    /// bootstrapped with the same model, plan and weight shards before this
    /// call.  [`Session::metrics`] consequently reports no per-device
    /// counters; completion and latency accounting are unaffected.
    pub fn deploy_remote(
        model: &Model,
        plan: &ExecutionPlan,
        weights: Arc<ModelWeights>,
        transport: &mut dyn Transport,
        options: &RuntimeOptions,
        telemetry: &Telemetry,
    ) -> Result<Session> {
        if options.max_in_flight == 0 {
            return Err(RuntimeError::Execution(
                "max_in_flight must be at least 1".into(),
            ));
        }
        // Quantized remote deploys calibrate here and ship the spec to the
        // node processes through the handshake (edge-cluster's hello).
        let quant = options
            .quantized
            .then(|| QuantSpec::calibrate(model, &weights))
            .transpose()?;
        let epoch0 = PlanEpoch::new(0, model, plan)?.with_wire_q8(quant.is_some());
        let route = &epoch0.route;
        let n = route.num_devices;
        let keep_sets: Vec<HashSet<usize>> = (0..n).map(|d| route.keep_layers(model, d)).collect();
        let resident_bytes: Vec<usize> = keep_sets
            .iter()
            .map(|k| weights.resident_bytes_of(k))
            .collect();
        let requester_inbox = transport.inbox(Endpoint::Requester)?;
        let requester_txs: Vec<Box<dyn FrameTx>> = (0..n)
            .map(|d| transport.open(Endpoint::Requester, Endpoint::Device(d)))
            .collect::<Result<_>>()?;
        Self::finish_deploy(
            model,
            plan,
            route,
            requester_inbox,
            requester_txs,
            Vec::new(),
            keep_sets,
            resident_bytes,
            weights,
            quant,
            options,
            telemetry,
        )
    }

    fn deploy_impl(
        model: &Model,
        plan: &ExecutionPlan,
        weights: DeployWeights,
        transport: &mut dyn Transport,
        options: &RuntimeOptions,
        telemetry: &Telemetry,
    ) -> Result<Session> {
        if options.max_in_flight == 0 {
            return Err(RuntimeError::Execution(
                "max_in_flight must be at least 1".into(),
            ));
        }
        // Quantized serving calibrates per-layer activation scales up
        // front (on the sharded path, from the full raw weights; on the
        // prepacked path the artifact must already carry its spec — the
        // panels were built at pack time and cannot change here).  The spec
        // reaches every provider through `Shared` and every later epoch
        // through the `Reconfigure` payloads, and flips the epoch's wire
        // precision to q8.
        let quant: Option<QuantSpec> = if options.quantized {
            Some(match &weights {
                DeployWeights::Sharded(raw) => QuantSpec::calibrate(model, raw)?,
                DeployWeights::Prepacked { packed, .. } => {
                    packed.quant().cloned().ok_or_else(|| {
                        RuntimeError::Execution(
                            "quantized deploy needs a prepacked artifact built with a \
                             QuantSpec (PackedModelWeights::pack_with)"
                                .into(),
                        )
                    })?
                }
            })
        } else {
            None
        };
        let epoch0 = PlanEpoch::new(0, model, plan)?.with_wire_q8(quant.is_some());
        let route = &epoch0.route;
        let n = route.num_devices;

        // Weight residency per device.  On the sharded path each provider
        // is handed only the layers its assigned parts run (plus the FC
        // head on the head device), instead of preloading the full model
        // everywhere; the per-part layer sets are exactly what
        // `cnn_model::memory::part_footprint` accounts — and they are the
        // diff basis `apply_plan` uses to ship only delta shards on a swap.
        // On the prepacked path every device shares the one full-model
        // pack, so every layer is resident and swap deltas are empty.
        let (keep_sets, provider_weights, resident_bytes, raw_weights): (
            Vec<HashSet<usize>>,
            Vec<ProviderWeights>,
            Vec<usize>,
            Arc<ModelWeights>,
        ) = match weights {
            DeployWeights::Sharded(raw) => {
                let keep: Vec<HashSet<usize>> =
                    (0..n).map(|d| route.keep_layers(model, d)).collect();
                // Shards share the caller's storage: cutting them copies
                // no weight, and each provider drops its handles as it packs.
                let bytes: Vec<usize> = keep.iter().map(|k| raw.resident_bytes_of(k)).collect();
                let pw = keep
                    .iter()
                    .map(|k| ProviderWeights::Sharded(raw.shard(k)))
                    .collect();
                (keep, pw, bytes, raw)
            }
            DeployWeights::Prepacked { raw, packed } => {
                let all: HashSet<usize> = (0..model.len()).collect();
                let keep = vec![all; n];
                let bytes = vec![packed.resident_bytes(); n];
                let pw = (0..n)
                    .map(|_| ProviderWeights::Prepacked(Arc::clone(&packed)))
                    .collect();
                (keep, pw, bytes, raw)
            }
        };

        // Wire up the fabric: requester inbox first, then one worker per
        // device with links to every peer and back to the requester.
        let requester_inbox = transport.inbox(Endpoint::Requester)?;
        let mut providers: Vec<ProviderHandle> = Vec::with_capacity(n);
        for (d, device_weights) in provider_weights.into_iter().enumerate() {
            let inbox = transport.inbox(Endpoint::Device(d))?;
            let mut txs: HashMap<Endpoint, Box<dyn FrameTx>> = HashMap::new();
            for peer in 0..n {
                if peer != d {
                    txs.insert(
                        Endpoint::Device(peer),
                        transport.open(Endpoint::Device(d), Endpoint::Device(peer))?,
                    );
                }
            }
            txs.insert(
                Endpoint::Requester,
                transport.open(Endpoint::Device(d), Endpoint::Requester)?,
            );
            let shared = Arc::new(Shared {
                model: model.clone(),
                slot: EpochSlot::new(epoch0.clone()),
                quant: quant.clone(),
            });
            providers.push(spawn_provider(
                d,
                shared,
                device_weights,
                inbox,
                txs,
                telemetry,
            ));
        }
        let requester_txs: Vec<Box<dyn FrameTx>> = (0..n)
            .map(|d| transport.open(Endpoint::Requester, Endpoint::Device(d)))
            .collect::<Result<_>>()?;

        Self::finish_deploy(
            model,
            plan,
            route,
            requester_inbox,
            requester_txs,
            providers,
            keep_sets,
            resident_bytes,
            raw_weights,
            quant,
            options,
            telemetry,
        )
    }

    /// The transport-independent tail of every deploy: wait for every local
    /// provider's spawn-time packing pass to finish, then spawn the gather
    /// thread, set up telemetry, assemble the [`Session`].
    ///
    /// The packing barrier runs *before* `t_start` is taken, so the
    /// session's measured wall (and [`RuntimeReport::measured_ips`]) covers
    /// streaming only — deploy-time packing is deploy cost, exactly as the
    /// per-frame "no packing, ever" contract promises.  Remote deploys pass
    /// no local providers and skip the barrier (their nodes pack before
    /// acking bootstrap).
    ///
    /// [`RuntimeReport::measured_ips`]: crate::report::RuntimeReport
    #[allow(clippy::too_many_arguments)]
    fn finish_deploy(
        model: &Model,
        plan: &ExecutionPlan,
        route: &RouteTable,
        requester_inbox: Receiver<Vec<u8>>,
        requester_txs: Vec<Box<dyn FrameTx>>,
        providers: Vec<ProviderHandle>,
        keep_sets: Vec<HashSet<usize>>,
        resident_bytes: Vec<usize>,
        raw_weights: Arc<ModelWeights>,
        quant: Option<QuantSpec>,
        options: &RuntimeOptions,
        telemetry: &Telemetry,
    ) -> Result<Session> {
        for p in &providers {
            p.wait_ready()?;
        }
        let n = route.num_devices;
        let finish_stage = route.finish_stage() as usize;
        let (result_c, result_w) = route.stage_geom(finish_stage);
        let gather_cfg = GatherConfig {
            has_head: route.head_device.is_some(),
            result_c,
            result_w,
            last_height: route.last_height,
            recv_timeout: options.recv_timeout,
        };

        let tel = SessionTelemetry {
            hub: telemetry.clone(),
            rec: Mutex::new(telemetry.recorder("requester", REQUESTER)),
            in_flight: telemetry.gauge("session.in_flight"),
            epoch: telemetry.gauge("session.epoch"),
            completed: telemetry.counter("session.images_completed"),
            epoch_flips: telemetry.counter("session.epoch_flips"),
            reconfigure_bytes: telemetry.counter("session.reconfigure_bytes"),
        };
        telemetry
            .gauge("session.credit_window")
            .set(options.max_in_flight as i64);
        let gather_tel = GatherTel {
            rec: telemetry.recorder("requester.gather", REQUESTER),
            in_flight: tel.in_flight.clone(),
            completed: tel.completed.clone(),
        };
        let shared = Arc::new(SessionShared {
            state: Mutex::new(StreamState::default()),
            results: Condvar::new(),
            credits: Condvar::new(),
            tel,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let gather_shared = Arc::clone(&shared);
        let gather_stop = Arc::clone(&stop);
        let gather = std::thread::Builder::new()
            .name("edge-rt-gather".into())
            .spawn(move || {
                gather_loop(
                    requester_inbox,
                    gather_shared,
                    gather_stop,
                    gather_cfg,
                    gather_tel,
                )
            })
            .expect("spawn gather thread");

        Ok(Session {
            shared,
            scatter: Mutex::new(ScatterState {
                txs: requester_txs,
                scatter_ms: vec![0.0; n],
                targets: route.scatter_targets(),
                rec: telemetry.recorder("requester.submit", REQUESTER),
            }),
            plan_state: Mutex::new(PlanState {
                plan: plan.clone(),
                keep: keep_sets,
                resident_bytes,
            }),
            model: model.clone(),
            weights: raw_weights,
            quant,
            input_shape: model.input().as_array(),
            options: *options,
            stop,
            gather: Some(gather),
            providers,
            t_start: Instant::now(),
        })
    }

    /// Deploys over a fresh in-process channel fabric.
    pub fn deploy_in_process(
        model: &Model,
        plan: &ExecutionPlan,
        weights: &ModelWeights,
        options: &RuntimeOptions,
    ) -> Result<Session> {
        Self::deploy_in_process_traced(model, plan, weights, options, &Telemetry::disabled())
    }

    /// [`Runtime::deploy_traced`] over a fresh in-process channel fabric.
    pub fn deploy_in_process_traced(
        model: &Model,
        plan: &ExecutionPlan,
        weights: &ModelWeights,
        options: &RuntimeOptions,
        telemetry: &Telemetry,
    ) -> Result<Session> {
        let n = plan.volumes.first().map(|v| v.parts.len()).unwrap_or(0);
        let mut transport = ChannelTransport::new(n);
        Self::deploy_traced(model, plan, weights, &mut transport, options, telemetry)
    }
}

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

/// What one [`Session::apply_plan`] swap measured.
#[derive(Debug, Clone, Serialize)]
pub struct SwapReport {
    /// The epoch the session now serves.
    pub epoch: u64,
    /// Images that were in flight when the swap began (the drain window).
    pub drained_images: usize,
    /// Wall time spent draining the in-flight window — the serving gap
    /// during which no *new* image could be admitted.
    pub drain_ms: f64,
    /// Wall time from the `Reconfigure` broadcast until every provider
    /// acked the new epoch.
    pub reconfigure_ms: f64,
    /// End-to-end swap time (drain + broadcast + acks + flip).
    pub total_ms: f64,
    /// Weight bytes shipped to each device (only layers it was missing).
    pub delta_bytes: Vec<usize>,
    /// Weight bytes each device needed under the new plan that were already
    /// resident from earlier epochs — the transfer the swap avoided.
    pub reused_bytes: Vec<usize>,
}

impl SwapReport {
    /// Total delta bytes shipped across all devices.
    pub fn total_delta_bytes(&self) -> usize {
        self.delta_bytes.iter().sum()
    }

    /// Total bytes the swap reused instead of re-shipping.
    pub fn total_reused_bytes(&self) -> usize {
        self.reused_bytes.iter().sum()
    }
}

/// What one [`Session::resync_epoch`] recovery pass did.
#[derive(Debug, Clone, Serialize)]
pub struct ResyncReport {
    /// The epoch the session now serves.
    pub epoch: u64,
    /// In-flight images re-scattered at the new epoch.
    pub replayed: usize,
    /// End-to-end re-sync time (broadcast + acks + replay).
    pub total_ms: f64,
}

#[derive(Default)]
struct StreamState {
    /// Images submitted so far (the next ticket id).
    submitted: u64,
    /// Images currently in the pipeline (submitted, not yet completed).
    in_flight: usize,
    /// High-water mark of `in_flight`.
    max_in_flight_observed: usize,
    /// Completed outputs not yet claimed by `wait` / `try_recv`.
    outputs: HashMap<u32, Tensor>,
    /// Tickets whose outputs have been claimed.
    claimed: HashSet<u32>,
    /// Submission timestamps of in-flight images.
    starts: HashMap<u32, Instant>,
    /// The retained inputs of in-flight images (bounded by the credit
    /// window), so an epoch re-sync can replay work lost to a dead device.
    pending: HashMap<u32, Tensor>,
    /// Per-image latency in completion order.
    latencies_ms: Vec<f64>,
    /// Completed images.
    finished: u64,
    /// The serving epoch (bumped by `apply_plan`).
    epoch: u64,
    /// A plan swap is in progress: admission is paused, the queue parks.
    swapping: bool,
    /// The epoch a swap is waiting on acks for (`0` when no swap runs —
    /// epoch ids of swaps start at 1).
    swap_target: u64,
    /// Providers that acked `swap_target` so far.
    acked: usize,
    /// A stream failure; fatal to the whole session once set.
    failed: Option<String>,
    /// Shutdown has begun; new submissions are rejected.
    halted: bool,
}

/// The session's handle on the telemetry hub: the requester-side control
/// recorder plus the `session.*` registry cells.  The recorder has its own
/// lock, never held together with the state mutex (record after dropping
/// the state guard).
struct SessionTelemetry {
    hub: Telemetry,
    /// Requester-side control events: wait spans, swap-protocol spans.
    rec: Mutex<Recorder>,
    in_flight: Gauge,
    epoch: Gauge,
    completed: Counter,
    epoch_flips: Counter,
    reconfigure_bytes: Counter,
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
    fn lock(&self) -> MutexGuard<'_, StreamState> {
        self.state.lock().expect("session state poisoned")
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
    /// Per device, the rows of the model input to send for volume 0 —
    /// per-epoch state, replaced by `apply_plan`.
    targets: Vec<(usize, (usize, usize))>,
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
    /// The credit window: the maximum number of images in flight.
    pub fn credit_window(&self) -> usize {
        self.options.max_in_flight
    }

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

    /// The execution plan of the current epoch.
    pub fn current_plan(&self) -> ExecutionPlan {
        self.plan_state
            .lock()
            .expect("plan state poisoned")
            .plan
            .clone()
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
        self.shared.lock().in_flight
    }

    /// Reconstructs the [`Ticket`] of an already-submitted image, for
    /// callers that track claims by image id across several sessions (the
    /// gateway's routing seam).  `None` if no such image was ever
    /// submitted here.
    pub fn ticket_for(&self, image: u32) -> Option<Ticket> {
        (u64::from(image) < self.shared.lock().submitted).then_some(Ticket { image })
    }

    /// A cheap load snapshot — one lock acquisition, three numbers — for
    /// schedulers that compare many sessions per routing decision (the
    /// fleet router) and must not pay the full [`Session::metrics`]
    /// collection per candidate.
    pub fn load(&self) -> SessionLoad {
        let st = self.shared.lock();
        let free_credits = if st.failed.is_some() || st.halted || st.swapping {
            0
        } else {
            self.options.max_in_flight.saturating_sub(st.in_flight)
        };
        SessionLoad {
            free_credits,
            queue_depth: st.outputs.len(),
            in_flight: st.in_flight,
        }
    }

    /// Free credits in the in-flight window right now: how many `submit`
    /// calls would currently succeed without blocking.  Zero once the
    /// session has failed or shutdown has begun, and zero while a plan swap
    /// drains (admission resumes at the new epoch).  A scheduler sitting in
    /// front of the session (the gateway dispatcher) uses this to size
    /// dispatch waves to the window instead of discovering the limit by
    /// blocking.
    pub fn available_credits(&self) -> usize {
        let st = self.shared.lock();
        if st.failed.is_some() || st.halted || st.swapping {
            return 0;
        }
        self.options.max_in_flight.saturating_sub(st.in_flight)
    }

    /// Blocks until at least one in-flight credit is free, the session
    /// fails/halts, or `timeout` elapses.  Returns the credits available on
    /// wake-up — `0` means the wait timed out (or the session can no longer
    /// accept work), so callers can poll other duties and come back.  While
    /// a plan swap drains, the wait keeps blocking — credits come back once
    /// the new epoch is serving.
    pub fn wait_for_credit(&self, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.lock();
        loop {
            if st.failed.is_some() || st.halted {
                return 0;
            }
            if !st.swapping {
                let free = self.options.max_in_flight.saturating_sub(st.in_flight);
                if free > 0 {
                    return free;
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return 0;
            }
            st = self
                .shared
                .credits
                .wait_timeout(st, deadline - now)
                .expect("session state poisoned")
                .0;
        }
    }

    /// The stream failure, if the session has failed.  Once set, every
    /// `submit` / `wait` errors and `shutdown` surfaces the failure; a
    /// monitor thread can poll this to stop waiting on progress.
    pub fn failure(&self) -> Option<String> {
        self.shared.lock().failed.clone()
    }

    /// Submits one image, blocking while the credit window is full (or a
    /// plan swap is draining).
    pub fn submit(&self, image: &Tensor) -> Result<Ticket> {
        Ok(self
            .submit_inner(image, true)?
            .expect("blocking submit always yields a ticket"))
    }

    /// Submits one image if a credit is free; `Ok(None)` when the window is
    /// full or a swap is draining (backpressure: the caller decides whether
    /// to retry or shed).
    pub fn try_submit(&self, image: &Tensor) -> Result<Option<Ticket>> {
        self.submit_inner(image, false)
    }

    fn submit_inner(&self, image: &Tensor, block: bool) -> Result<Option<Ticket>> {
        if image.shape() != self.input_shape {
            return Err(RuntimeError::Execution(format!(
                "submitted image has shape {:?}, model expects {:?}",
                image.shape(),
                self.input_shape
            )));
        }
        let t_submit = self.shared.tel.hub.start();
        let (ticket, epoch) = {
            let mut st = self.shared.lock();
            loop {
                if let Some(f) = &st.failed {
                    return Err(RuntimeError::Execution(format!("session failed: {f}")));
                }
                if st.halted {
                    return Err(RuntimeError::Execution(
                        "session is shutting down; submissions are closed".into(),
                    ));
                }
                if !st.swapping && st.in_flight < self.options.max_in_flight {
                    break;
                }
                if !block {
                    return Ok(None);
                }
                // The gather thread's wedge detector fails the session if
                // the cluster stops producing results, which wakes this
                // wait; the timeout is a belt-and-braces bound on top.
                let (guard, timeout) = self
                    .shared
                    .credits
                    .wait_timeout(st, self.options.recv_timeout)
                    .expect("session state poisoned");
                st = guard;
                if timeout.timed_out()
                    && st.failed.is_none()
                    && (st.swapping || st.in_flight >= self.options.max_in_flight)
                {
                    return Err(RuntimeError::Execution(
                        "submit timed out waiting for an in-flight credit".into(),
                    ));
                }
            }
            let id = st.submitted as u32;
            st.submitted += 1;
            st.in_flight += 1;
            st.max_in_flight_observed = st.max_in_flight_observed.max(st.in_flight);
            st.starts.insert(id, Instant::now());
            st.pending.insert(id, image.clone());
            self.shared.tel.in_flight.set(st.in_flight as i64);
            (Ticket { image: id }, st.epoch)
        };
        let trace = TraceId {
            epoch,
            image: ticket.image,
        };

        // Scatter outside the state lock so slow links never block
        // completions; the scatter lock serialises concurrent submitters on
        // the wire.
        let mut sc = self.scatter.lock().expect("scatter state poisoned");
        let targets = sc.targets.clone();
        for (d, (lo, hi)) in targets {
            let rows = slice_rows(image, lo, hi)?;
            let frame = if self.quant.is_some() {
                Frame::rows_q8(epoch, ticket.image, 0, lo as u32, &rows)
            } else {
                Frame::data(FrameKind::Rows, epoch, ticket.image, 0, lo as u32, rows)
            };
            let t0 = Instant::now();
            let n = match sc.txs[d].send(&frame) {
                Ok(n) => n,
                Err(e) => {
                    drop(sc);
                    self.shared.fail(&e);
                    return Err(e);
                }
            };
            let t1 = Instant::now();
            sc.scatter_ms[d] += (t1 - t0).as_secs_f64() * 1e3;
            sc.rec
                .span_between(Stage::Scatter, trace, t0, t1, n as u64, d as u32);
        }
        if let Some(t0) = t_submit {
            // The whole submit call: credit wait (if any) plus the scatter.
            sc.rec.span(Stage::Submit, trace, t0, 0, 0);
        }
        Ok(Some(ticket))
    }

    /// Blocks until `ticket`'s output is ready and claims it.
    pub fn wait(&self, ticket: Ticket) -> Result<Tensor> {
        self.wait_deadline(ticket, None)
            .map(|out| out.expect("unbounded wait always yields an output"))
    }

    /// Like [`Session::wait`], but gives up after `timeout`: `Ok(None)`
    /// means the output was not ready in time (the ticket stays valid and
    /// can be waited on again).  This is what lets callers with other
    /// duties — the gateway dispatcher, a swap drain loop, a monitor —
    /// bound their waits instead of blocking forever.
    pub fn wait_timeout(&self, ticket: Ticket, timeout: Duration) -> Result<Option<Tensor>> {
        self.wait_deadline(ticket, Some(Instant::now() + timeout))
    }

    fn wait_deadline(&self, ticket: Ticket, deadline: Option<Instant>) -> Result<Option<Tensor>> {
        let t_wait = self.shared.tel.hub.start();
        let mut st = self.shared.lock();
        loop {
            if let Some(out) = st.outputs.remove(&ticket.image) {
                st.claimed.insert(ticket.image);
                let epoch = st.epoch;
                drop(st);
                self.record_wait(ticket.image, epoch, t_wait);
                return Ok(Some(out));
            }
            if st.claimed.contains(&ticket.image) {
                return Err(RuntimeError::Execution(format!(
                    "output of image {} was already claimed",
                    ticket.image
                )));
            }
            if u64::from(ticket.image) >= st.submitted {
                return Err(RuntimeError::Execution(format!(
                    "ticket for image {} was never submitted on this session",
                    ticket.image
                )));
            }
            if let Some(f) = &st.failed {
                return Err(RuntimeError::Execution(format!("session failed: {f}")));
            }
            // One bounded condvar wait for the full remaining time: every
            // transition this loop cares about (a completion, another
            // waiter claiming the output, a session failure) signals
            // `results`, so there is nothing to poll for — the old
            // GATHER_TICK chop woke this thread ~40×/s for nothing.  The
            // unbounded case still bounds each wait by `recv_timeout` as
            // belt-and-braces against a missed signal; the gather thread's
            // wedge detector fires and fails the session long before that.
            let timeout = match deadline {
                Some(dl) => {
                    let now = Instant::now();
                    if now >= dl {
                        let epoch = st.epoch;
                        drop(st);
                        self.record_wait(ticket.image, epoch, t_wait);
                        return Ok(None);
                    }
                    dl - now
                }
                None => self.options.recv_timeout,
            };
            st = self
                .shared
                .results
                .wait_timeout(st, timeout)
                .expect("session state poisoned")
                .0;
        }
    }

    /// Records the time a client spent blocked in `wait`/`wait_timeout`.
    fn record_wait(&self, image: u32, epoch: u64, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            let mut rec = self
                .shared
                .tel
                .rec
                .lock()
                .expect("telemetry recorder poisoned");
            rec.span(Stage::Wait, TraceId { epoch, image }, t0, 0, 0);
        }
    }

    /// Claims any ready output, without blocking.
    pub fn try_recv(&self) -> Option<(Ticket, Tensor)> {
        let mut st = self.shared.lock();
        let image = *st.outputs.keys().next()?;
        let out = st.outputs.remove(&image).expect("key just observed");
        st.claimed.insert(image);
        Some((Ticket { image }, out))
    }

    /// Hot-swaps the execution plan: after this returns, the same resident
    /// cluster serves `plan` as epoch `current + 1` — no redeploy, no
    /// weight reload for layers already resident, and every outstanding
    /// ticket stays valid.
    ///
    /// The swap protocol:
    /// 1. **Stop admitting** at the old epoch (`submit` blocks, `try_submit`
    ///    declines, the gateway queue parks).
    /// 2. **Drain** the in-flight window, reusing the credit accounting —
    ///    every admitted image completes under the plan it was submitted
    ///    against, so outputs stay bit-exact across the boundary.
    /// 3. **Broadcast** a `Reconfigure` frame to every provider carrying
    ///    the new plan plus only the weight layers that device is missing
    ///    (diffed against the session's resident-shard bookkeeping).
    /// 4. **Flip** the epoch once every provider acks, then resume
    ///    admission.
    ///
    /// Concurrent swaps are rejected; a failed session surfaces its
    /// failure.  The returned [`SwapReport`] measures the drain gap and the
    /// delta bytes shipped vs reused.
    pub fn apply_plan(&self, plan: &ExecutionPlan) -> Result<SwapReport> {
        let t_total = Instant::now();
        plan.validate(&self.model).map_err(RuntimeError::from)?;
        let route = RouteTable::new(&self.model, plan)?;
        // Device count comes from the scatter links, not `providers`:
        // remote sessions (`deploy_remote`) drive external node processes
        // and hold no local provider handles.
        let n = {
            let sc = self.scatter.lock().expect("scatter state poisoned");
            sc.txs.len()
        };
        if route.num_devices != n {
            return Err(RuntimeError::Execution(format!(
                "new plan addresses {} devices, session has {n}",
                route.num_devices
            )));
        }

        // 1. Stop admitting at the old epoch.
        let (old_epoch, drained_images) = {
            let mut st = self.shared.lock();
            if let Some(f) = &st.failed {
                return Err(RuntimeError::Execution(format!("session failed: {f}")));
            }
            if st.halted {
                return Err(RuntimeError::Execution(
                    "session is shutting down; cannot swap plans".into(),
                ));
            }
            if st.swapping {
                return Err(RuntimeError::Execution(
                    "another plan swap is already in progress".into(),
                ));
            }
            st.swapping = true;
            (st.epoch, st.in_flight)
        };
        let new_epoch = old_epoch + 1;

        // 2. Drain the in-flight window.  A wedged cluster is caught by the
        // gather thread's timeout, which sets `failed` and wakes this wait.
        let t_drain = Instant::now();
        {
            let mut st = self.shared.lock();
            while st.failed.is_none() && st.in_flight > 0 {
                st = self
                    .shared
                    .credits
                    .wait_timeout(st, GATHER_TICK)
                    .expect("session state poisoned")
                    .0;
            }
            if let Some(f) = st.failed.clone() {
                st.swapping = false;
                return Err(RuntimeError::Execution(format!("session failed: {f}")));
            }
            st.swap_target = new_epoch;
            st.acked = 0;
        }
        let drain_ms = t_drain.elapsed().as_secs_f64() * 1e3;
        {
            let mut rec = self
                .shared
                .tel
                .rec
                .lock()
                .expect("telemetry recorder poisoned");
            rec.span(
                Stage::Drain,
                TraceId::session(new_epoch),
                t_drain,
                0,
                drained_images as u32,
            );
        }

        // 3. Diff the new plan's per-device weight needs against what is
        // already resident and broadcast the Reconfigure frames.  The
        // broadcast goes through the scatter links so it is ordered after
        // every old-epoch scatter and before every new-epoch one.
        let t_reconf = Instant::now();
        let mut delta_bytes = vec![0usize; n];
        let mut reused_bytes = vec![0usize; n];
        let (payloads, new_keep): (Vec<ReconfigurePayload>, Vec<HashSet<usize>>) = {
            let ps = self.plan_state.lock().expect("plan state poisoned");
            let mut payloads = Vec::with_capacity(n);
            let mut keeps = Vec::with_capacity(n);
            for d in 0..n {
                let needed = route.keep_layers(&self.model, d);
                let mut missing: Vec<usize> = needed.difference(&ps.keep[d]).copied().collect();
                missing.sort_unstable();
                let delta: Vec<WeightDelta> = missing
                    .iter()
                    .map(|&layer| WeightDelta {
                        layer,
                        weights: Arc::clone(&self.weights.layers[layer].0),
                        bias: Arc::clone(&self.weights.layers[layer].1),
                    })
                    .collect();
                delta_bytes[d] = delta.iter().map(WeightDelta::bytes).sum();
                reused_bytes[d] = self
                    .weights
                    .resident_bytes_of(needed.intersection(&ps.keep[d]));
                payloads.push(ReconfigurePayload {
                    plan: plan.clone(),
                    delta,
                    quant: self.quant.clone(),
                });
                // Residency is a union across epochs: nothing is evicted.
                keeps.push(ps.keep[d].union(&needed).copied().collect());
            }
            (payloads, keeps)
        };
        {
            let mut sc = self.scatter.lock().expect("scatter state poisoned");
            for (d, payload) in payloads.iter().enumerate() {
                let frame = Frame::reconfigure(new_epoch, payload.encode()?);
                if let Err(e) = sc.txs[d].send(&frame) {
                    drop(sc);
                    self.shared.fail(&e);
                    return Err(e);
                }
            }
            // No scatter can interleave while admission is paused, so the
            // new targets are installed before any new-epoch image.
            sc.targets = route.scatter_targets();
        }

        // 4. Wait for every provider's ack, then flip and resume admission.
        {
            let deadline = Instant::now() + self.options.recv_timeout;
            let mut st = self.shared.lock();
            while st.failed.is_none() && st.acked < n {
                let now = Instant::now();
                if now >= deadline {
                    // The Reconfigure broadcast is out and the scatter
                    // targets are replaced: the cluster is half-swapped and
                    // cannot safely serve either epoch.  Fail the session
                    // rather than reopening admission into the wreckage.
                    let acked = st.acked;
                    drop(st);
                    let err = RuntimeError::transport_timeout(format!(
                        "timed out waiting for epoch {new_epoch} acks ({acked}/{n} received)"
                    ));
                    self.shared.fail(&err);
                    return Err(err);
                }
                st = self
                    .shared
                    .credits
                    .wait_timeout(st, GATHER_TICK.min(deadline - now))
                    .expect("session state poisoned")
                    .0;
            }
            if let Some(f) = st.failed.clone() {
                st.swapping = false;
                return Err(RuntimeError::Execution(format!("session failed: {f}")));
            }
            st.epoch = new_epoch;
            st.swap_target = 0;
        }
        let reconfigure_ms = t_reconf.elapsed().as_secs_f64() * 1e3;
        let shipped: usize = delta_bytes.iter().sum();
        {
            let tel = &self.shared.tel;
            let mut rec = tel.rec.lock().expect("telemetry recorder poisoned");
            let trace = TraceId::session(new_epoch);
            // Requester view of the reconfigure: broadcast → all acks.
            rec.span(
                Stage::Reconfigure,
                trace,
                t_reconf,
                shipped as u64,
                n as u32,
            );
            rec.instant(Stage::EpochFlip, trace, 0, REQUESTER);
            drop(rec);
            tel.epoch_flips.inc();
            tel.reconfigure_bytes.add(shipped as u64);
            tel.epoch.set(new_epoch as i64);
        }

        // Publish the new residency bookkeeping before reopening admission
        // (a follow-up swap must diff against it).
        {
            let mut ps = self.plan_state.lock().expect("plan state poisoned");
            ps.plan = plan.clone();
            ps.resident_bytes = new_keep
                .iter()
                .map(|k| self.weights.resident_bytes_of(k))
                .collect();
            ps.keep = new_keep;
        }
        {
            let mut st = self.shared.lock();
            st.swapping = false;
        }
        self.shared.credits.notify_all();

        Ok(SwapReport {
            epoch: new_epoch,
            drained_images,
            drain_ms,
            reconfigure_ms,
            total_ms: t_total.elapsed().as_secs_f64() * 1e3,
            delta_bytes,
            reused_bytes,
        })
    }

    /// Re-synchronises the cluster onto a fresh epoch after one or more
    /// devices re-joined — a remote provider process died and was restarted,
    /// then re-handshaked at the current epoch (the `edge-cluster`
    /// supervisor's recovery path).  Admission pauses, every device installs
    /// `current + 1` carrying the *same* plan and an empty weight delta, the
    /// rejoined devices' residency bookkeeping resets to exactly the current
    /// plan's keep-set (what the re-handshake shipped — the restart dropped
    /// everything the old process held), and every image still in flight is
    /// re-scattered at the new epoch.
    ///
    /// Unlike [`Session::apply_plan`] the in-flight window is *not* drained
    /// first — the point is precisely that some of its results will never
    /// arrive.  Replaying at a fresh epoch (instead of re-sending at the
    /// current one) is what makes this safe: surviving providers discard
    /// their partial band assemblies when they install the new epoch and
    /// drop data frames tagged with older epochs, and the gather side
    /// ignores duplicate results, so an original result racing its replayed
    /// twin resolves to exactly one completion.  Original submission
    /// timestamps are kept, so reported latencies include the outage.
    pub fn resync_epoch(&self, rejoined: &[usize]) -> Result<ResyncReport> {
        let t_total = Instant::now();
        let n = {
            let sc = self.scatter.lock().expect("scatter state poisoned");
            sc.txs.len()
        };
        if let Some(&d) = rejoined.iter().find(|&&d| d >= n) {
            return Err(RuntimeError::Execution(format!(
                "rejoined device {d} out of range (session has {n})"
            )));
        }

        // 1. Pause admission at the current epoch (no drain).
        let old_epoch = {
            let mut st = self.shared.lock();
            if let Some(f) = &st.failed {
                return Err(RuntimeError::Execution(format!("session failed: {f}")));
            }
            if st.halted {
                return Err(RuntimeError::Execution(
                    "session is shutting down; cannot re-sync".into(),
                ));
            }
            if st.swapping {
                return Err(RuntimeError::Execution(
                    "another plan swap is already in progress".into(),
                ));
            }
            st.swapping = true;
            st.swap_target = st.epoch + 1;
            st.acked = 0;
            st.epoch
        };
        let new_epoch = old_epoch + 1;

        // 2. Reset the rejoined devices' residency bookkeeping to the
        // current plan's keep-set and build the bump payload: same plan,
        // no weight delta.
        let (payload, targets) = {
            let mut ps = self.plan_state.lock().expect("plan state poisoned");
            let route = match RouteTable::new(&self.model, &ps.plan) {
                Ok(r) => r,
                Err(e) => {
                    self.shared.lock().swapping = false;
                    return Err(e);
                }
            };
            for &d in rejoined {
                let keep = route.keep_layers(&self.model, d);
                ps.resident_bytes[d] = self.weights.resident_bytes_of(&keep);
                ps.keep[d] = keep;
            }
            (
                ReconfigurePayload {
                    plan: ps.plan.clone(),
                    delta: Vec::new(),
                    quant: self.quant.clone(),
                },
                route.scatter_targets(),
            )
        };

        // 3. Broadcast the epoch bump and wait for every device's ack.
        {
            let mut sc = self.scatter.lock().expect("scatter state poisoned");
            let frame = Frame::reconfigure(new_epoch, payload.encode()?);
            for d in 0..n {
                if let Err(e) = sc.txs[d].send(&frame) {
                    drop(sc);
                    self.shared.fail(&e);
                    return Err(e);
                }
            }
        }
        {
            let deadline = Instant::now() + self.options.recv_timeout;
            let mut st = self.shared.lock();
            while st.failed.is_none() && st.acked < n {
                let now = Instant::now();
                if now >= deadline {
                    let acked = st.acked;
                    drop(st);
                    let err = RuntimeError::transport_timeout(format!(
                        "timed out waiting for epoch {new_epoch} re-sync acks ({acked}/{n} received)"
                    ));
                    self.shared.fail(&err);
                    return Err(err);
                }
                st = self
                    .shared
                    .credits
                    .wait_timeout(st, GATHER_TICK.min(deadline - now))
                    .expect("session state poisoned")
                    .0;
            }
            if let Some(f) = st.failed.clone() {
                st.swapping = false;
                return Err(RuntimeError::Execution(format!("session failed: {f}")));
            }
            st.epoch = new_epoch;
            st.swap_target = 0;
        }
        {
            let tel = &self.shared.tel;
            let mut rec = tel.rec.lock().expect("telemetry recorder poisoned");
            rec.instant(Stage::EpochFlip, TraceId::session(new_epoch), 0, REQUESTER);
            drop(rec);
            tel.epoch_flips.inc();
            tel.epoch.set(new_epoch as i64);
        }

        // 4. Replay every image still in flight at the new epoch.  The
        // retained inputs are snapshotted *after* the ack barrier, so images
        // that completed while the bump was in progress are not replayed.
        let replay: Vec<(u32, Tensor)> = {
            let st = self.shared.lock();
            let mut ids: Vec<u32> = st.starts.keys().copied().collect();
            ids.sort_unstable();
            ids.iter()
                .filter_map(|id| st.pending.get(id).map(|t| (*id, t.clone())))
                .collect()
        };
        {
            let mut sc = self.scatter.lock().expect("scatter state poisoned");
            for (image, tensor) in &replay {
                for &(d, (lo, hi)) in &targets {
                    let result = match slice_rows(tensor, lo, hi) {
                        Ok(rows) => {
                            let frame = if self.quant.is_some() {
                                Frame::rows_q8(new_epoch, *image, 0, lo as u32, &rows)
                            } else {
                                Frame::data(FrameKind::Rows, new_epoch, *image, 0, lo as u32, rows)
                            };
                            sc.txs[d].send(&frame)
                        }
                        Err(e) => Err(RuntimeError::from(e)),
                    };
                    if let Err(e) = result {
                        drop(sc);
                        self.shared.fail(&e);
                        return Err(e);
                    }
                }
            }
        }

        // 5. Resume admission.
        self.shared.lock().swapping = false;
        self.shared.credits.notify_all();
        Ok(ResyncReport {
            epoch: new_epoch,
            replayed: replay.len(),
            total_ms: t_total.elapsed().as_secs_f64() * 1e3,
        })
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
        // 1. Close submissions, then drain the pipeline.  A wedged cluster
        // is caught by the gather thread's timeout, which sets `failed` and
        // wakes this wait.
        {
            let mut st = self.shared.lock();
            st.halted = true;
            while st.failed.is_none() && st.in_flight > 0 {
                st = self
                    .shared
                    .credits
                    .wait_timeout(st, GATHER_TICK)
                    .expect("session state poisoned")
                    .0;
            }
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
    fn teardown(&mut self) -> (Vec<crate::report::DeviceMetrics>, Option<RuntimeError>) {
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
            for (role, h) in [
                ("receive", handle.recv),
                ("compute", handle.comp),
                ("send", handle.send),
            ] {
                match h.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        err.get_or_insert(e);
                    }
                    Err(_) => {
                        err.get_or_insert(RuntimeError::WorkerPanic(format!(
                            "device {d} {role} thread"
                        )));
                    }
                }
            }
            devices.push(handle.stats.snapshot(scatter_ms[d]));
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

struct GatherConfig {
    has_head: bool,
    result_c: usize,
    result_w: usize,
    last_height: usize,
    recv_timeout: Duration,
}

/// The gather thread's telemetry: its own ring (merge spans for headless
/// stitching) plus the completion-side registry cells.
struct GatherTel {
    rec: Recorder,
    in_flight: Gauge,
    completed: Counter,
}

/// The session's result pump: receives result frames, stitches headless
/// outputs, completes tickets, releases credits, counts epoch acks during
/// swaps, and watches for a wedged cluster.  Returns the requester inbox so
/// teardown can keep it alive until the providers are joined.
fn gather_loop(
    inbox: Receiver<Vec<u8>>,
    shared: Arc<SessionShared>,
    stop: Arc<AtomicBool>,
    cfg: GatherConfig,
    mut tel: GatherTel,
) -> Receiver<Vec<u8>> {
    let mut assemblies: HashMap<(u32, u64), Assembly> = HashMap::new();
    let mut waiting_since: Option<Instant> = None;
    let tick = GATHER_TICK.min(cfg.recv_timeout);
    loop {
        if stop.load(Ordering::SeqCst) {
            return inbox;
        }
        match inbox.recv_timeout(tick) {
            Ok(bytes) => {
                waiting_since = None;
                if let Err(e) =
                    handle_requester_frame(&bytes, &shared, &cfg, &mut assemblies, &mut tel)
                {
                    shared.fail(&e);
                    return inbox;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                let starving = {
                    let st = shared.lock();
                    st.in_flight > 0 && st.failed.is_none()
                };
                if starving {
                    let since = *waiting_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= cfg.recv_timeout {
                        shared.fail(&RuntimeError::transport_timeout(
                            "timed out waiting for results",
                        ));
                        return inbox;
                    }
                } else {
                    waiting_since = None;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                // Every sending half is gone — the session is tearing down.
                return inbox;
            }
        }
    }
}

fn handle_requester_frame(
    bytes: &[u8],
    shared: &SessionShared,
    cfg: &GatherConfig,
    assemblies: &mut HashMap<(u32, u64), Assembly>,
    tel: &mut GatherTel,
) -> Result<()> {
    let frame = Frame::decode(bytes)?;
    match frame.kind {
        FrameKind::Result => {}
        FrameKind::EpochAck => {
            let mut st = shared.lock();
            if frame.epoch == st.swap_target {
                st.acked += 1;
            }
            drop(st);
            shared.credits.notify_all();
            return Ok(());
        }
        other => {
            return Err(RuntimeError::Execution(format!(
                "requester received unexpected {other:?} frame"
            )));
        }
    }
    let image = frame.image;
    let done = if cfg.has_head {
        // The head output arrives whole.
        Some(frame.tensor)
    } else {
        // Keyed by (image, epoch): after an epoch re-sync, bands of the
        // original attempt and of the replay can interleave at the inbox,
        // and rows from two different epochs must never stitch into one
        // output.
        let key = (image, frame.epoch);
        let asm = assemblies
            .entry(key)
            .or_insert_with(|| Assembly::new(cfg.result_c, cfg.result_w, (0, cfg.last_height)));
        asm.insert(frame.row_lo as usize, &frame.tensor)?;
        if asm.complete() {
            let asm = assemblies.remove(&key).expect("present");
            // Any partial assembly of the same image under another epoch is
            // an abandoned attempt — drop it.
            assemblies.retain(|&(img, _), _| img != image);
            tel.rec.span(
                Stage::Merge,
                TraceId {
                    epoch: frame.epoch,
                    image,
                },
                asm.created(),
                0,
                frame.stage,
            );
            Some(asm.into_band())
        } else {
            None
        }
    };
    let Some(out) = done else { return Ok(()) };

    let mut st = shared.lock();
    let Some(start) = st.starts.remove(&image) else {
        // No longer in flight: after an epoch re-sync the original result
        // can race its replayed twin — whichever lands second is dropped.
        // A result for an image that was never submitted is a protocol
        // violation.
        return if u64::from(image) < st.submitted {
            Ok(())
        } else {
            Err(RuntimeError::Execution(format!(
                "result for image {image} which was never submitted"
            )))
        };
    };
    st.pending.remove(&image);
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    st.outputs.insert(image, out);
    st.latencies_ms.push(latency_ms);
    st.finished += 1;
    st.in_flight -= 1;
    let in_flight = st.in_flight;
    drop(st);
    tel.in_flight.set(in_flight as i64);
    tel.completed.inc();
    shared.results.notify_all();
    shared.credits.notify_all();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use cnn_model::exec::{self, deterministic_input};
    use cnn_model::LayerOp;
    use tensor::Shape;

    fn model() -> Model {
        Model::new(
            "session-test",
            Shape::new(2, 16, 12),
            &[
                LayerOp::conv(4, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::fc(3),
            ],
        )
        .unwrap()
    }

    fn plan(m: &Model, devices: usize) -> ExecutionPlan {
        use cnn_model::{PartitionScheme, VolumeSplit};
        let scheme = PartitionScheme::single_volume(m);
        let split = VolumeSplit::equal(devices, m.prefix_output().h);
        ExecutionPlan::from_splits(m, &scheme, &[split], devices).unwrap()
    }

    /// A fabric whose provider-bound data frames vanish (providers never
    /// produce results), while halt frames still get through so teardown
    /// can join the workers.  Turns credit exhaustion deterministic.
    struct BlackholeTransport {
        inner: ChannelTransport,
    }

    struct BlackholeTx {
        inner: Box<dyn FrameTx>,
    }

    impl FrameTx for BlackholeTx {
        fn send(&mut self, frame: &Frame) -> Result<usize> {
            if frame.kind == FrameKind::Halt {
                self.inner.send(frame)
            } else {
                Ok(frame.encoded_len())
            }
        }
    }

    impl Transport for BlackholeTransport {
        fn open(&mut self, from: Endpoint, to: Endpoint) -> Result<Box<dyn FrameTx>> {
            let inner = self.inner.open(from, to)?;
            Ok(Box::new(BlackholeTx { inner }))
        }

        fn inbox(&mut self, at: Endpoint) -> Result<Receiver<Vec<u8>>> {
            self.inner.inbox(at)
        }
    }

    #[test]
    fn session_serves_two_waves_without_redeploying() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 3);
        let plan = plan(&m, 2);
        let session =
            Runtime::deploy_in_process(&m, &plan, &weights, &RuntimeOptions::default()).unwrap();
        for wave in 0..2u64 {
            let images: Vec<Tensor> = (0..3)
                .map(|i| deterministic_input(&m, 10 * wave + i))
                .collect();
            let tickets: Vec<Ticket> = images
                .iter()
                .map(|img| session.submit(img).unwrap())
                .collect();
            for (img, t) in images.iter().zip(tickets) {
                let out = session.wait(t).unwrap();
                let reference = exec::run_full(&m, &weights, img).unwrap();
                assert_eq!(&out, reference.last().unwrap());
            }
        }
        let report = session.shutdown().unwrap();
        assert_eq!(report.images, 6);
        assert_eq!(report.sim.per_image_latency_ms.len(), 6);
        assert_eq!(report.epoch, 0);
    }

    #[test]
    fn try_submit_is_credit_gated() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 5);
        let plan = plan(&m, 2);
        let mut transport = BlackholeTransport {
            inner: ChannelTransport::new(2),
        };
        let options = RuntimeOptions::default()
            .with_max_in_flight(2)
            .with_recv_timeout(Duration::from_millis(50));
        let session = Runtime::deploy(&m, &plan, &weights, &mut transport, &options).unwrap();
        let img = deterministic_input(&m, 0);

        // The window admits exactly `max_in_flight` images; with providers
        // black-holed no result ever frees a credit, so the next submit is
        // deterministically declined.
        assert!(session.try_submit(&img).unwrap().is_some());
        assert!(session.try_submit(&img).unwrap().is_some());
        assert_eq!(session.in_flight(), 2);
        assert!(session.try_submit(&img).unwrap().is_none());
        assert_eq!(session.metrics().max_in_flight_observed, 2);

        // The gather thread declares the cluster wedged after recv_timeout
        // and fails the session; shutdown surfaces that instead of a report.
        let err = session.shutdown();
        assert!(err.is_err(), "wedged session must fail shutdown");
    }

    #[test]
    fn wait_rejects_foreign_and_double_claims() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 7);
        let plan = plan(&m, 2);
        let session =
            Runtime::deploy_in_process(&m, &plan, &weights, &RuntimeOptions::default()).unwrap();
        let t = session.submit(&deterministic_input(&m, 1)).unwrap();
        session.wait(t).unwrap();
        assert!(session.wait(t).is_err(), "double claim must fail");
        assert!(
            session.wait(Ticket { image: 99 }).is_err(),
            "unsubmitted ticket must fail"
        );
        session.shutdown().unwrap();
    }

    #[test]
    fn wait_timeout_expires_and_ticket_stays_valid() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 5);
        let plan = plan(&m, 2);
        let mut transport = BlackholeTransport {
            inner: ChannelTransport::new(2),
        };
        // Long recv_timeout: the session stays healthy while we probe the
        // bounded wait; the blackhole guarantees no result ever arrives.
        let options = RuntimeOptions::default()
            .with_max_in_flight(2)
            .with_recv_timeout(Duration::from_secs(60));
        let session = Runtime::deploy(&m, &plan, &weights, &mut transport, &options).unwrap();
        let t = session.submit(&deterministic_input(&m, 0)).unwrap();
        let t0 = Instant::now();
        let out = session.wait_timeout(t, Duration::from_millis(30)).unwrap();
        assert!(out.is_none(), "blackholed result must time out");
        assert!(t0.elapsed() >= Duration::from_millis(30));
        // The ticket is still claimable — a second bounded wait also times
        // out instead of erroring.
        assert!(session
            .wait_timeout(t, Duration::from_millis(5))
            .unwrap()
            .is_none());
        drop(session); // Drop-teardown: blackholed work never completes.
    }

    #[test]
    fn try_recv_claims_any_ready_output() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 9);
        let plan = plan(&m, 2);
        let session =
            Runtime::deploy_in_process(&m, &plan, &weights, &RuntimeOptions::default()).unwrap();
        let a = session.submit(&deterministic_input(&m, 1)).unwrap();
        let b = session.submit(&deterministic_input(&m, 2)).unwrap();
        let mut got = Vec::new();
        while got.len() < 2 {
            if let Some((ticket, _)) = session.try_recv() {
                got.push(ticket);
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        got.sort_by_key(Ticket::image);
        assert_eq!(got, vec![a, b]);
        session.shutdown().unwrap();
    }

    #[test]
    fn submit_rejects_wrong_shape() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 11);
        let plan = plan(&m, 2);
        let session =
            Runtime::deploy_in_process(&m, &plan, &weights, &RuntimeOptions::default()).unwrap();
        assert!(session.submit(&Tensor::zeros([1, 2, 3])).is_err());
        session.shutdown().unwrap();
    }

    #[test]
    fn weight_sharding_ships_only_needed_layers() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 15);
        let full_bytes = weights.resident_bytes();

        // Offload plan: only device 1 runs anything, so only it holds
        // weights — and it holds the full set (every layer plus the head).
        let offload = ExecutionPlan::offload(&m, 1, 3).unwrap();
        let session =
            Runtime::deploy_in_process(&m, &offload, &weights, &RuntimeOptions::default()).unwrap();
        assert_eq!(session.resident_weight_bytes(), vec![0, full_bytes, 0]);
        // Sharded weights still compute the right answer.
        let img = deterministic_input(&m, 3);
        let t = session.submit(&img).unwrap();
        let out = session.wait(t).unwrap();
        assert_eq!(
            &out,
            exec::run_full(&m, &weights, &img).unwrap().last().unwrap()
        );
        session.shutdown().unwrap();

        // Row-split plan: both devices run the conv volumes, but only the
        // head device holds the FC layer, so the other stays strictly below
        // the full footprint.
        let split = plan(&m, 2);
        let session =
            Runtime::deploy_in_process(&m, &split, &weights, &RuntimeOptions::default()).unwrap();
        let resident = session.resident_weight_bytes();
        assert!(
            resident.iter().any(|&b| b < full_bytes),
            "some device must shed the head weights: {resident:?} vs full {full_bytes}"
        );
        assert!(
            resident.iter().all(|&b| b > 0),
            "every device participates in the split: {resident:?}"
        );
        let t = session.submit(&img).unwrap();
        let out = session.wait(t).unwrap();
        assert_eq!(
            &out,
            exec::run_full(&m, &weights, &img).unwrap().last().unwrap()
        );
        session.shutdown().unwrap();
    }

    #[test]
    fn apply_plan_swaps_and_ships_only_deltas() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 17);
        let full_bytes = weights.resident_bytes();
        let img = deterministic_input(&m, 4);
        let reference = exec::run_full(&m, &weights, &img)
            .unwrap()
            .last()
            .unwrap()
            .clone();

        // Start offloaded on device 0: device 1 holds nothing.
        let offload = ExecutionPlan::offload(&m, 0, 2).unwrap();
        let session =
            Runtime::deploy_in_process(&m, &offload, &weights, &RuntimeOptions::default()).unwrap();
        assert_eq!(session.epoch(), 0);
        let t = session.submit(&img).unwrap();
        assert_eq!(session.wait(t).unwrap(), reference);

        // Swap to the equal split: device 0 already holds everything (zero
        // delta), device 1 receives exactly the layers it was missing.
        let split = plan(&m, 2);
        let swap = session.apply_plan(&split).unwrap();
        assert_eq!(swap.epoch, 1);
        assert_eq!(session.epoch(), 1);
        assert_eq!(swap.delta_bytes[0], 0, "device 0 had every layer resident");
        assert!(swap.delta_bytes[1] > 0, "device 1 must receive its layers");
        assert!(
            swap.reused_bytes[0] > 0 && swap.reused_bytes[0] < full_bytes,
            "device 0 reuses exactly the layers the split needs: {}",
            swap.reused_bytes[0]
        );
        assert_eq!(swap.reused_bytes[1], 0, "device 1 held nothing to reuse");
        let t = session.submit(&img).unwrap();
        assert_eq!(session.wait(t).unwrap(), reference, "bit-exact across swap");

        // Swap back: everything is already resident, so nothing ships.
        let swap = session.apply_plan(&offload).unwrap();
        assert_eq!(swap.epoch, 2);
        assert_eq!(swap.total_delta_bytes(), 0, "swap-back reuses residency");
        let t = session.submit(&img).unwrap();
        assert_eq!(session.wait(t).unwrap(), reference);

        let report = session.shutdown().unwrap();
        assert_eq!(report.images, 3);
        assert_eq!(report.epoch, 2);
    }

    #[test]
    fn apply_plan_rejects_wrong_device_count() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 19);
        let session =
            Runtime::deploy_in_process(&m, &plan(&m, 2), &weights, &RuntimeOptions::default())
                .unwrap();
        let three = plan(&m, 3);
        assert!(session.apply_plan(&three).is_err());
        session.shutdown().unwrap();
    }

    #[test]
    fn traced_session_records_the_full_image_lifecycle() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 21);
        let telemetry = Telemetry::new();
        let session = Runtime::deploy_in_process_traced(
            &m,
            &plan(&m, 2),
            &weights,
            &RuntimeOptions::default(),
            &telemetry,
        )
        .unwrap();
        let img = deterministic_input(&m, 2);
        let t = session.submit(&img).unwrap();
        session.wait(t).unwrap();

        // A hot swap shows up as swap-protocol events and registry counts.
        let offload = ExecutionPlan::offload(&m, 0, 2).unwrap();
        session.apply_plan(&offload).unwrap();
        session.shutdown().unwrap();

        let report = telemetry.collect();
        let stages = report.stages_seen(0);
        for stage in ["submit", "scatter", "recv", "compute", "head", "tx", "wait"] {
            assert!(
                stages.contains(&stage),
                "stage {stage} missing from image 0's trace: {stages:?}"
            );
        }
        assert!(
            !report.devices_seen(0).is_empty(),
            "device spans must appear for image 0"
        );
        let cp = report.critical_path(0).unwrap();
        assert!(cp.wall_ms > 0.0);
        assert!(cp.stages.iter().any(|s| s.stage == cp.dominant));

        let value = |name: &str| {
            telemetry
                .metrics()
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap_or_else(|| panic!("metric {name} not registered"))
        };
        assert_eq!(value("session.images_completed"), 1.0);
        assert_eq!(value("session.epoch_flips"), 1.0);
        assert_eq!(value("session.in_flight"), 0.0);
        assert!(value("session.reconfigure_bytes") > 0.0);
        assert_eq!(value("session.epoch"), 1.0);
    }

    #[test]
    fn untraced_session_records_nothing() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 23);
        let telemetry = Telemetry::disabled();
        let session = Runtime::deploy_in_process_traced(
            &m,
            &plan(&m, 2),
            &weights,
            &RuntimeOptions::default(),
            &telemetry,
        )
        .unwrap();
        let t = session.submit(&deterministic_input(&m, 1)).unwrap();
        session.wait(t).unwrap();
        session.shutdown().unwrap();
        assert_eq!(telemetry.collect().span_count(), 0);
    }

    #[test]
    fn quantized_session_tracks_f32_within_tolerance() {
        // Deep enough channels that the stem conv (k = 8·9 = 72) and the FC
        // head (384 inputs) both route to the int8 kernels.
        let m = Model::new(
            "session-q8",
            Shape::new(8, 16, 12),
            &[
                LayerOp::conv(8, 3, 1, 1),
                LayerOp::conv(8, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::fc(5),
            ],
        )
        .unwrap();
        let weights = ModelWeights::deterministic(&m, 33);
        let plan = plan(&m, 2);
        let options = RuntimeOptions::default().with_quantized(true);
        let session = Runtime::deploy_in_process(&m, &plan, &weights, &options).unwrap();
        assert!(session.quantized());

        for seed in 0..3u64 {
            let img = deterministic_input(&m, seed);
            let reference = exec::run_full(&m, &weights, &img)
                .unwrap()
                .last()
                .unwrap()
                .clone();
            let t = session.submit(&img).unwrap();
            let out = session.wait(t).unwrap();
            assert_eq!(out.shape(), reference.shape());
            let range = reference
                .data()
                .iter()
                .fold(0.0f32, |acc, &v| acc.max(v.abs()))
                .max(1e-6);
            let diff = out.max_abs_diff(&reference).unwrap();
            assert!(
                diff <= 0.05 * range,
                "quantized output drifted: diff {diff} vs range {range} (seed {seed})"
            );
        }

        // A hot swap re-negotiates the quantized epoch: outputs stay within
        // the same tolerance after the flip.
        let offload = ExecutionPlan::offload(&m, 0, 2).unwrap();
        session.apply_plan(&offload).unwrap();
        let img = deterministic_input(&m, 7);
        let reference = exec::run_full(&m, &weights, &img)
            .unwrap()
            .last()
            .unwrap()
            .clone();
        let t = session.submit(&img).unwrap();
        let out = session.wait(t).unwrap();
        let range = reference
            .data()
            .iter()
            .fold(0.0f32, |acc, &v| acc.max(v.abs()))
            .max(1e-6);
        assert!(out.max_abs_diff(&reference).unwrap() <= 0.05 * range);
        session.shutdown().unwrap();
    }

    #[test]
    fn abandoned_session_joins_all_threads_on_drop() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 13);
        let plan = plan(&m, 2);
        let session =
            Runtime::deploy_in_process(&m, &plan, &weights, &RuntimeOptions::default()).unwrap();
        session.submit(&deterministic_input(&m, 1)).unwrap();
        // No wait, no shutdown: Drop must still halt and join every worker
        // (the test harness would hang otherwise).
        drop(session);
    }
}

//! The fleet proper: replica bookkeeping, least-loaded routing behind the
//! gateway's [`Backend`] seam, and the elastic-scale monitor.
//!
//! One [`FleetServer`] owns N replica [`Session`]s — each its own provider
//! cluster — behind the existing batching/priority/deadline gateway.  All
//! replicas of one model deploy from a single shared
//! [`Arc<PackedModelWeights>`] ([`WeightSource::Shared`]): every provider
//! of every replica holds a shard of its panels, so K replicas cost one
//! packing pass and one resident weight copy.

use crate::config::FleetConfig;
use crate::spec::ModelSpec;
use crate::FleetError;
use cnn_model::exec::{ModelWeights, PackedModelWeights};
use edge_gateway::{
    Admission, Backend, Gateway, GatewayClient, GatewayConfig, GatewayMetrics, RouteTicket,
};
use edge_runtime::{Deploy, RuntimeReport, Session, SwapReport, WeightSource};
use edge_telemetry::{Recorder, Stage, Telemetry, TraceId, REQUESTER};
use edgesim::ExecutionPlan;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tensor::Tensor;

/// Smoothing factor of each replica's service-time EWMA.
const EWMA_ALPHA: f64 = 0.2;

/// Consecutive idle evaluations (an empty gateway queue) before one replica
/// drains — hysteresis, so a single quiet sample does not flap the fleet.
const IDLE_EVALS_BEFORE_DRAIN: usize = 3;

/// Per-replica routing statistics (behind one small mutex).
#[derive(Default)]
struct ReplicaStats {
    /// Admission instants of in-flight images, keyed by image id — the
    /// basis of the service-time EWMA.
    starts: HashMap<u32, Instant>,
    /// EWMA of fleet-observed service time, ms (0 until first completion).
    ewma_ms: f64,
}

/// One replica: a session plus the fleet's bookkeeping around it.
struct Replica {
    id: u64,
    model_id: Arc<str>,
    session: Session,
    /// Images admitted through the fleet and not yet claimed back.  While
    /// non-zero, the dispatcher may hold tickets of this replica, so a
    /// draining replica only retires once this reaches zero.
    outstanding: AtomicUsize,
    /// Draining: stops receiving new work, retires at `outstanding == 0`.
    draining: AtomicBool,
    drain_started: Mutex<Option<Instant>>,
    stats: Mutex<ReplicaStats>,
}

impl Replica {
    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn ewma_ms(&self) -> f64 {
        self.stats.lock().expect("replica stats poisoned").ewma_ms
    }

    /// Records one admission.
    fn admitted(&self, image: u32) {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        self.stats
            .lock()
            .expect("replica stats poisoned")
            .starts
            .insert(image, Instant::now());
    }

    /// Records one claimed completion.
    fn completed(&self, image: u32) {
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
        let mut stats = self.stats.lock().expect("replica stats poisoned");
        if let Some(t0) = stats.starts.remove(&image) {
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            stats.ewma_ms = if stats.ewma_ms == 0.0 {
                ms
            } else {
                (1.0 - EWMA_ALPHA) * stats.ewma_ms + EWMA_ALPHA * ms
            };
        }
    }
}

/// One served model: its replica template plus the weight artifacts every
/// replica shares.
#[derive(Clone)]
struct ModelEntry {
    spec: ModelSpec,
    /// Raw weights, kept for the swap protocol's delta diffing.
    raw: Arc<ModelWeights>,
    /// The one packed copy all replicas of this model execute from.
    packed: Arc<PackedModelWeights>,
}

/// Shared fleet state: what the [`Backend`] routes over and the monitor
/// scales.
struct FleetInner {
    config: FleetConfig,
    models: RwLock<HashMap<Arc<str>, ModelEntry>>,
    replicas: RwLock<Vec<Arc<Replica>>>,
    default_model: Arc<str>,
    next_replica: AtomicU64,
    /// Lifetime scale counts ([`FleetMetrics::scale_ups`] / `scale_downs`).
    scale_up_count: AtomicU64,
    scale_down_count: AtomicU64,
    hub: Telemetry,
    /// The fleet's span recorder (route instants, scale spans).
    rec: Mutex<Recorder>,
}

impl FleetInner {
    /// Snapshots the live replica handles.
    fn snapshot(&self) -> Vec<Arc<Replica>> {
        self.replicas
            .read()
            .expect("replica list poisoned")
            .iter()
            .map(Arc::clone)
            .collect()
    }

    fn resolve_model(&self, model: Option<&str>) -> Result<Arc<str>, String> {
        let id: Arc<str> = match model {
            Some(m) => Arc::from(m),
            None => Arc::clone(&self.default_model),
        };
        let models = self.models.read().expect("model registry poisoned");
        if models.contains_key(&id) {
            Ok(id)
        } else {
            let mut known: Vec<&str> = models.keys().map(|k| k.as_ref()).collect();
            known.sort_unstable();
            Err(format!(
                "model {:?} is not served by this fleet (serving: {})",
                id.as_ref(),
                known.join(", ")
            ))
        }
    }

    /// Least-loaded routing: among the live replicas of `model`, pick the
    /// one with the most free credits; break ties by the lowest
    /// service-time EWMA, then the shallowest queue, then the fewest
    /// outstanding images, then the lowest id.  `None` when every live
    /// replica's window is full (the dispatcher waits for a credit).
    fn route(&self, model: &Arc<str>) -> Result<Option<Arc<Replica>>, String> {
        let candidates: Vec<Arc<Replica>> = self
            .snapshot()
            .into_iter()
            .filter(|r| r.model_id == *model && !r.is_draining())
            .collect();
        if candidates.is_empty() {
            return Err(format!("no live replica serves model {:?}", model.as_ref()));
        }
        let mut best: Option<(usize, f64, usize, usize, u64, Arc<Replica>)> = None;
        for r in candidates {
            let load = r.session.load();
            let key = (
                load.free_credits,
                r.ewma_ms(),
                load.queue_depth,
                r.outstanding.load(Ordering::SeqCst),
                r.id,
            );
            let better = match &best {
                None => true,
                Some((free, ewma, queue, out, id, _)) => {
                    // Most free credits first; then cheapest EWMA, then
                    // shallowest queue, then fewest outstanding, then id.
                    key.0 > *free
                        || (key.0 == *free
                            && (key.1, key.2, key.3, key.4) < (*ewma, *queue, *out, *id))
                }
            };
            if better {
                best = Some((key.0, key.1, key.2, key.3, key.4, r));
            }
        }
        let (free, _, _, _, _, replica) = best.expect("non-empty candidates");
        Ok((free > 0).then_some(replica))
    }

    fn find(&self, id: u64) -> Option<Arc<Replica>> {
        self.replicas
            .read()
            .expect("replica list poisoned")
            .iter()
            .find(|r| r.id == id)
            .map(Arc::clone)
    }

    /// Live (non-draining) replicas of one model.
    fn live_replicas(&self, model: &Arc<str>) -> usize {
        self.replicas
            .read()
            .expect("replica list poisoned")
            .iter()
            .filter(|r| r.model_id == *model && !r.is_draining())
            .count()
    }

    /// Deploys one more replica of `model` from its spec and the shared
    /// packed weights.  Returns the new replica id.
    fn deploy_replica(&self, model: &Arc<str>) -> Result<u64, FleetError> {
        let entry = self
            .models
            .read()
            .expect("model registry poisoned")
            .get(model)
            .cloned()
            .ok_or_else(|| FleetError::UnknownModel(model.to_string()))?;
        let mut transport = entry.spec.make_transport();
        let weights = WeightSource::Shared {
            raw: Arc::clone(&entry.raw),
            packed: Arc::clone(&entry.packed),
        };
        let session = Deploy::new(&entry.spec.model, &entry.spec.plan, weights)
            .over(transport.as_mut())
            .options(entry.spec.runtime)
            .telemetry(&self.hub)
            .start()
            .map_err(|e| FleetError::Runtime(e.to_string()))?;
        let id = self.next_replica.fetch_add(1, Ordering::SeqCst);
        let replica = Arc::new(Replica {
            id,
            model_id: Arc::clone(model),
            session,
            outstanding: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            drain_started: Mutex::new(None),
            stats: Mutex::new(ReplicaStats::default()),
        });
        self.replicas
            .write()
            .expect("replica list poisoned")
            .push(replica);
        Ok(id)
    }

    /// Scale-up: one more replica, plus the `fleet.scale_up` span and its
    /// count.  Honours `max_replicas`.
    fn scale_up(&self, model: &Arc<str>) -> Result<u64, FleetError> {
        if self.live_replicas(model) >= self.config.max_replicas {
            return Err(FleetError::InvalidConfig(format!(
                "model {:?} already runs max_replicas ({})",
                model.as_ref(),
                self.config.max_replicas
            )));
        }
        let t0 = Instant::now();
        let id = self.deploy_replica(model)?;
        self.scale_up_count.fetch_add(1, Ordering::SeqCst);
        if self.hub.is_enabled() {
            let bytes = self
                .models
                .read()
                .expect("model registry poisoned")
                .get(model)
                .map(|e| e.packed.resident_bytes() as u64)
                .unwrap_or(0);
            let mut rec = self.rec.lock().expect("fleet recorder poisoned");
            rec.span_between(
                Stage::FleetScaleUp,
                TraceId::session(0),
                t0,
                Instant::now(),
                bytes,
                id as u32,
            );
        }
        Ok(id)
    }

    /// Scale-down: marks the least-loaded live replica of `model` as
    /// draining (it stops receiving work and retires once its outstanding
    /// images are claimed — zero image loss).  `None` when the floor
    /// (`min_replicas`) would be crossed.
    fn scale_down(&self, model: &Arc<str>) -> Result<Option<u64>, FleetError> {
        self.resolve_model(Some(model))
            .map_err(FleetError::UnknownModel)?;
        let victim = {
            let replicas = self.replicas.read().expect("replica list poisoned");
            let mut live: Vec<&Arc<Replica>> = replicas
                .iter()
                .filter(|r| r.model_id == *model && !r.is_draining())
                .collect();
            if live.len() <= self.config.min_replicas {
                return Ok(None);
            }
            // Drain the newest of the least-busy replicas.
            live.sort_by_key(|r| {
                (
                    r.outstanding.load(Ordering::SeqCst),
                    std::cmp::Reverse(r.id),
                )
            });
            Arc::clone(live[0])
        };
        victim.draining.store(true, Ordering::SeqCst);
        *victim.drain_started.lock().expect("drain clock poisoned") = Some(Instant::now());
        self.scale_down_count.fetch_add(1, Ordering::SeqCst);
        Ok(Some(victim.id))
    }

    /// Retires every draining replica whose work is fully claimed.  The
    /// check runs under the write lock: `outstanding == 0` means the
    /// dispatcher holds no ticket of it, and a sole `Arc` means no router
    /// is mid-submit — so removing and shutting it down loses nothing.
    fn retire_drained(&self) {
        loop {
            let retired = {
                let mut replicas = self.replicas.write().expect("replica list poisoned");
                let idx = replicas.iter().position(|r| {
                    r.is_draining()
                        && r.outstanding.load(Ordering::SeqCst) == 0
                        && Arc::strong_count(r) == 1
                });
                idx.map(|i| replicas.remove(i))
            };
            let Some(arc) = retired else { return };
            let replica = Arc::try_unwrap(arc)
                .unwrap_or_else(|_| unreachable!("sole ownership checked under the write lock"));
            let id = replica.id;
            let t0 = replica
                .drain_started
                .lock()
                .expect("drain clock poisoned")
                .take();
            // The session's own shutdown drains its in-flight window; the
            // fleet guaranteed that window is empty of fleet work.
            let _ = replica.session.shutdown();
            if self.hub.is_enabled() {
                let mut rec = self.rec.lock().expect("fleet recorder poisoned");
                rec.span_between(
                    Stage::FleetScaleDown,
                    TraceId::session(0),
                    t0.unwrap_or_else(Instant::now),
                    Instant::now(),
                    0,
                    id as u32,
                );
            }
        }
    }

    /// Rolls every replica's live report into one fleet report: latencies
    /// concatenate, device metrics concatenate, walls overlap (max), and
    /// `measured_ips` therefore aggregates replica throughput.
    fn rollup(&self) -> RuntimeReport {
        let reports: Vec<RuntimeReport> = self
            .snapshot()
            .iter()
            .map(|r| r.session.metrics())
            .collect();
        merge_reports(reports)
    }

    /// Takes down every replica, draining each; merges the final reports.
    fn shutdown_all(&self) -> Result<RuntimeReport, String> {
        let taken: Vec<Arc<Replica>> = self
            .replicas
            .write()
            .expect("replica list poisoned")
            .drain(..)
            .collect();
        let mut reports = Vec::new();
        for mut arc in taken {
            // Transient router clones drop within microseconds; spin until
            // this handle is sole, then consume the session.
            let replica = loop {
                match Arc::try_unwrap(arc) {
                    Ok(r) => break r,
                    Err(shared) => {
                        arc = shared;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            };
            reports.push(replica.session.shutdown().map_err(|e| e.to_string())?);
        }
        Ok(merge_reports(reports))
    }
}

/// Merges per-replica reports into one fleet-level [`RuntimeReport`].
fn merge_reports(reports: Vec<RuntimeReport>) -> RuntimeReport {
    let mut latencies = Vec::new();
    let mut devices = Vec::new();
    let mut wall_ms: f64 = 0.0;
    let mut max_in_flight = 0;
    let mut epoch = 0;
    for r in reports {
        latencies.extend(r.sim.per_image_latency_ms);
        devices.extend(r.devices);
        wall_ms = wall_ms.max(r.wall_ms);
        max_in_flight += r.max_in_flight_observed;
        epoch = epoch.max(r.epoch);
    }
    RuntimeReport::from_measured(latencies, devices, wall_ms, max_in_flight, epoch)
}

/// The fleet's [`Backend`] implementation — what plugs into
/// [`Gateway::over`].
pub struct FleetBackend {
    inner: Arc<FleetInner>,
}

impl Backend for FleetBackend {
    fn failure(&self) -> Option<String> {
        self.inner.snapshot().iter().find_map(|r| {
            r.session
                .failure()
                .map(|f| format!("replica {}: {f}", r.id))
        })
    }

    fn available_credits(&self) -> usize {
        self.inner
            .snapshot()
            .iter()
            .filter(|r| !r.is_draining())
            .map(|r| r.session.load().free_credits)
            .sum()
    }

    fn try_submit(&self, model: Option<&str>, image: &Tensor) -> Result<Option<Admission>, String> {
        let model = self.inner.resolve_model(model)?;
        let Some(replica) = self.inner.route(&model)? else {
            return Ok(None);
        };
        match replica.session.try_submit(image) {
            Ok(Some(ticket)) => {
                let image = ticket.image();
                replica.admitted(image);
                let epoch = replica.session.epoch();
                if self.inner.hub.is_enabled() {
                    let mut rec = self.inner.rec.lock().expect("fleet recorder poisoned");
                    rec.instant(
                        Stage::FleetRoute,
                        TraceId { epoch, image },
                        0,
                        replica.id as u32,
                    );
                }
                Ok(Some(Admission {
                    ticket: RouteTicket {
                        replica: replica.id,
                        image,
                    },
                    epoch,
                }))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }

    fn wait_for_credit(&self, timeout: Duration) {
        let replicas = self.inner.snapshot();
        let live: Vec<&Arc<Replica>> = replicas.iter().filter(|r| !r.is_draining()).collect();
        if live.iter().any(|r| r.session.load().free_credits > 0) {
            return;
        }
        match live.first() {
            Some(r) => {
                r.session.wait_for_credit(timeout);
            }
            None => std::thread::sleep(timeout),
        }
    }

    fn try_recv(&self) -> Option<(RouteTicket, Tensor)> {
        for r in self.inner.snapshot() {
            if let Some((ticket, output)) = r.session.try_recv() {
                let image = ticket.image();
                r.completed(image);
                return Some((
                    RouteTicket {
                        replica: r.id,
                        image,
                    },
                    output,
                ));
            }
        }
        None
    }

    fn wait_timeout(
        &self,
        ticket: RouteTicket,
        timeout: Duration,
    ) -> Result<Option<Tensor>, String> {
        let replica = self
            .inner
            .find(ticket.replica)
            .ok_or_else(|| format!("replica {} has retired", ticket.replica))?;
        let session_ticket = replica.session.ticket_for(ticket.image).ok_or_else(|| {
            format!(
                "image {} was never submitted to replica {}",
                ticket.image, ticket.replica
            )
        })?;
        match replica.session.wait_timeout(session_ticket, timeout) {
            Ok(Some(output)) => {
                replica.completed(ticket.image);
                Ok(Some(output))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }

    fn report(&self) -> RuntimeReport {
        self.inner.rollup()
    }

    fn apply_plan(&self, plan: &ExecutionPlan) -> Result<SwapReport, String> {
        let default = Arc::clone(&self.inner.default_model);
        let replicas: Vec<Arc<Replica>> = self
            .inner
            .snapshot()
            .into_iter()
            .filter(|r| r.model_id == default && !r.is_draining())
            .collect();
        if replicas.is_empty() {
            return Err(format!(
                "no live replica of default model {:?}",
                default.as_ref()
            ));
        }
        let mut last = None;
        for r in replicas {
            last = Some(r.session.apply_plan(plan).map_err(|e| e.to_string())?);
        }
        Ok(last.expect("at least one replica swapped"))
    }

    fn shutdown(self: Box<Self>) -> Result<RuntimeReport, String> {
        self.inner.shutdown_all()
    }
}

/// Point-in-time measurements of one replica.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaMetrics {
    /// Fleet-wide replica id.
    pub id: u64,
    /// The model this replica serves.
    pub model: String,
    /// Whether the replica is draining towards retirement.
    pub draining: bool,
    /// Images admitted through the fleet and not yet claimed.
    pub outstanding: usize,
    /// Free credits in the replica's in-flight window.
    pub free_credits: usize,
    /// Completed outputs waiting unclaimed inside the session.
    pub queue_depth: usize,
    /// Images in flight inside the session.
    pub in_flight: usize,
    /// EWMA of fleet-observed service time, ms.
    pub ewma_service_ms: f64,
    /// Images this replica has completed.
    pub images: usize,
    /// The replica's wall-clock throughput.
    pub measured_ips: f64,
}

/// Shared-weight tenancy of one served model.
#[derive(Debug, Clone, Serialize)]
pub struct ModelTenancy {
    /// The model id.
    pub id: String,
    /// Live (non-draining) replicas.
    pub replicas: usize,
    /// Holders of the one shared packed-weight artifact's panels
    /// ([`PackedModelWeights::panel_holders`]): the registry's pack plus one
    /// shard per provider device across every replica — direct evidence
    /// that K replicas share one resident copy.
    pub packed_refs: usize,
    /// Bytes of that single resident copy.
    pub resident_bytes: usize,
}

/// A fleet-level metrics snapshot: per-replica measurements plus the
/// shared-weight tenancy per model.
#[derive(Debug, Clone, Serialize)]
pub struct FleetMetrics {
    /// Every replica currently deployed (draining ones included).
    pub replicas: Vec<ReplicaMetrics>,
    /// Tenancy per served model.
    pub models: Vec<ModelTenancy>,
    /// Images completed across the fleet.
    pub total_images: usize,
    /// Aggregate wall-clock throughput (sum of replica IPS).
    pub fleet_ips: f64,
    /// Replicas spawned by scaling (initial deploys not counted).
    pub scale_ups: u64,
    /// Drains initiated by scaling.
    pub scale_downs: u64,
}

/// One gateway over many replica sessions: least-loaded routing,
/// multi-model tenancy over shared packed weights, and watermark-driven
/// elastic scale.  Built by [`FleetServer::serve`]; clients come from
/// [`FleetServer::client`] and behave exactly like single-session gateway
/// clients (priorities, deadlines, [`GatewayClient::with_model`]).
pub struct FleetServer {
    gateway: Arc<Gateway>,
    inner: Arc<FleetInner>,
    stop: Arc<AtomicBool>,
    monitor: Option<JoinHandle<()>>,
}

impl FleetServer {
    /// Serves `specs` (the first spec's id is the default model) behind one
    /// gateway, recording `fleet.route` instants and `fleet.scale_up` /
    /// `fleet.scale_down` spans on `telemetry`, alongside the gateway's and
    /// every replica session's own instrumentation
    /// ([`Telemetry::disabled`] records nothing).  The counts live in
    /// [`FleetServer::fleet_metrics`].
    pub fn serve(
        specs: Vec<ModelSpec>,
        config: FleetConfig,
        gateway: GatewayConfig,
        telemetry: &Telemetry,
    ) -> Result<Self, FleetError> {
        config.validate()?;
        gateway
            .validate()
            .map_err(|e| FleetError::InvalidConfig(e.to_string()))?;
        if specs.is_empty() {
            return Err(FleetError::InvalidConfig(
                "a fleet needs at least one model spec".into(),
            ));
        }
        let default_model: Arc<str> = Arc::from(specs[0].id.as_str());
        let mut models: HashMap<Arc<str>, ModelEntry> = HashMap::new();
        let mut order: Vec<(Arc<str>, usize)> = Vec::new();
        for spec in specs {
            if spec.replicas == 0 {
                return Err(FleetError::InvalidConfig(format!(
                    "model {:?} asks for zero replicas",
                    spec.id
                )));
            }
            let id: Arc<str> = Arc::from(spec.id.as_str());
            if models.contains_key(&id) {
                return Err(FleetError::InvalidConfig(format!(
                    "duplicate model id {:?}",
                    spec.id
                )));
            }
            // One packing pass per model, shared by every replica.
            let raw = Arc::new(ModelWeights::deterministic(&spec.model, spec.weight_seed));
            let packed = Arc::new(
                PackedModelWeights::pack(&spec.model, &raw)
                    .map_err(|e| FleetError::Runtime(e.to_string()))?,
            );
            order.push((Arc::clone(&id), spec.replicas));
            models.insert(id, ModelEntry { spec, raw, packed });
        }
        let inner = Arc::new(FleetInner {
            config,
            models: RwLock::new(models),
            replicas: RwLock::new(Vec::new()),
            default_model,
            next_replica: AtomicU64::new(0),
            scale_up_count: AtomicU64::new(0),
            scale_down_count: AtomicU64::new(0),
            hub: telemetry.clone(),
            rec: Mutex::new(telemetry.recorder("fleet", REQUESTER)),
        });
        for (id, count) in order {
            for _ in 0..count {
                inner.deploy_replica(&id)?;
            }
        }
        let backend: Box<dyn Backend> = Box::new(FleetBackend {
            inner: Arc::clone(&inner),
        });
        let gateway = Arc::new(
            Gateway::over(backend, gateway, telemetry)
                .map_err(|e| FleetError::Runtime(e.to_string()))?,
        );
        let stop = Arc::new(AtomicBool::new(false));
        // The monitor always runs: it retires drained replicas every tick;
        // the watermark decisions are gated on `config.autoscale`.
        let monitor = {
            let gateway = Arc::clone(&gateway);
            let inner = Arc::clone(&inner);
            let stop = Arc::clone(&stop);
            Some(
                std::thread::Builder::new()
                    .name("edge-fleet-monitor".into())
                    .spawn(move || monitor_loop(gateway, inner, stop))
                    .expect("spawn fleet monitor"),
            )
        };
        Ok(Self {
            gateway,
            inner,
            stop,
            monitor,
        })
    }

    /// A new client handle (default priority, default model).
    pub fn client(&self) -> GatewayClient {
        self.gateway.client()
    }

    /// The gateway in front of the fleet (for `metrics`, `apply_plan`).
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// Gateway-level metrics with the fleet's rolled-up session report
    /// underneath.
    pub fn metrics(&self) -> GatewayMetrics {
        self.gateway.metrics()
    }

    /// Live (non-draining) replicas of `model`.
    pub fn replica_count(&self, model: &str) -> usize {
        self.inner.live_replicas(&Arc::from(model))
    }

    /// Manually deploys one more replica of `model` (honours
    /// `max_replicas`).  Returns the new replica id.
    pub fn scale_up(&self, model: &str) -> Result<u64, FleetError> {
        let id = self
            .inner
            .resolve_model(Some(model))
            .map_err(FleetError::UnknownModel)?;
        self.inner.scale_up(&id)
    }

    /// Manually drains one replica of `model` (honours `min_replicas`);
    /// the monitor retires it once its outstanding work is claimed.
    /// Returns the draining replica's id, or `None` at the floor.
    pub fn scale_down(&self, model: &str) -> Result<Option<u64>, FleetError> {
        let id = self
            .inner
            .resolve_model(Some(model))
            .map_err(FleetError::UnknownModel)?;
        self.inner.scale_down(&id)
    }

    /// Per-replica and per-model fleet measurements.
    pub fn fleet_metrics(&self) -> FleetMetrics {
        let replicas: Vec<ReplicaMetrics> = self
            .inner
            .snapshot()
            .iter()
            .map(|r| {
                let load = r.session.load();
                let report = r.session.metrics();
                ReplicaMetrics {
                    id: r.id,
                    model: r.model_id.to_string(),
                    draining: r.is_draining(),
                    outstanding: r.outstanding.load(Ordering::SeqCst),
                    free_credits: load.free_credits,
                    queue_depth: load.queue_depth,
                    in_flight: load.in_flight,
                    ewma_service_ms: r.ewma_ms(),
                    images: report.images,
                    measured_ips: report.measured_ips,
                }
            })
            .collect();
        let models = {
            let registry = self.inner.models.read().expect("model registry poisoned");
            let mut tenancy: Vec<ModelTenancy> = registry
                .iter()
                .map(|(id, entry)| ModelTenancy {
                    id: id.to_string(),
                    replicas: self.inner.live_replicas(id),
                    packed_refs: entry.packed.panel_holders(),
                    resident_bytes: entry.packed.resident_bytes(),
                })
                .collect();
            tenancy.sort_by(|a, b| a.id.cmp(&b.id));
            tenancy
        };
        FleetMetrics {
            total_images: replicas.iter().map(|r| r.images).sum(),
            fleet_ips: replicas.iter().map(|r| r.measured_ips).sum(),
            scale_ups: self.inner.scale_up_count.load(Ordering::SeqCst),
            scale_downs: self.inner.scale_down_count.load(Ordering::SeqCst),
            replicas,
            models,
        }
    }

    /// Closes submissions, drains everything (queued, in-flight, and every
    /// draining replica), shuts every replica down and returns the final
    /// gateway metrics over the merged fleet report.
    pub fn shutdown(mut self) -> Result<GatewayMetrics, FleetError> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.monitor.take() {
            handle
                .join()
                .map_err(|_| FleetError::Runtime("fleet monitor panicked".into()))?;
        }
        let gateway = Arc::try_unwrap(self.gateway)
            .map_err(|_| FleetError::Runtime("gateway handle still shared".into()))?;
        gateway
            .shutdown()
            .map_err(|e| FleetError::Runtime(e.to_string()))
    }
}

/// The elastic-scale monitor: every `evaluate_every` it retires drained
/// replicas, then (with autoscale on) compares the gateway's queue depth
/// against the watermarks.
fn monitor_loop(gateway: Arc<Gateway>, inner: Arc<FleetInner>, stop: Arc<AtomicBool>) {
    let config = inner.config;
    let mut idle_evals = 0usize;
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(config.evaluate_every);
        inner.retire_drained();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        if !config.autoscale {
            continue;
        }
        let queue_depth = gateway.queue_depth();
        let model = Arc::clone(&inner.default_model);
        let live = inner.live_replicas(&model);
        if queue_depth >= config.queue_high_watermark && live < config.max_replicas {
            idle_evals = 0;
            let _ = inner.scale_up(&model);
        } else if queue_depth == 0 && live > config.min_replicas {
            idle_evals += 1;
            if idle_evals >= IDLE_EVALS_BEFORE_DRAIN {
                idle_evals = 0;
                let _ = inner.scale_down(&model);
            }
        } else {
            idle_evals = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_runtime::DeviceMetrics;
    use edgesim::SimReport;

    fn report(latencies: Vec<f64>, wall_ms: f64) -> RuntimeReport {
        let devices = vec![DeviceMetrics::default()];
        RuntimeReport {
            sim: SimReport::from_raw(latencies.clone(), vec![0.0], vec![0.0]),
            images: latencies.len(),
            wall_ms,
            measured_ips: latencies.len() as f64 / (wall_ms / 1e3),
            max_in_flight_observed: 2,
            epoch: 1,
            devices,
        }
    }

    #[test]
    fn merged_reports_aggregate_throughput_over_overlapping_walls() {
        let merged = merge_reports(vec![
            report(vec![10.0, 12.0], 100.0),
            report(vec![11.0, 9.0, 10.0], 120.0),
        ]);
        assert_eq!(merged.images, 5);
        assert_eq!(merged.wall_ms, 120.0);
        assert_eq!(merged.devices.len(), 2);
        assert_eq!(merged.max_in_flight_observed, 4);
        assert_eq!(merged.epoch, 1);
        // 5 images over the 120 ms overlapping wall, not over 220 ms.
        assert!((merged.measured_ips - 5.0 / 0.12).abs() < 1e-9);
    }

    #[test]
    fn merging_nothing_yields_an_empty_report() {
        let merged = merge_reports(Vec::new());
        assert_eq!(merged.images, 0);
        assert_eq!(merged.measured_ips, 0.0);
        assert!(merged.devices.is_empty());
    }
}

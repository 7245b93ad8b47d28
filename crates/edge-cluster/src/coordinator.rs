//! The coordinator: `edge-runtime`'s `Transport` trait over real
//! multi-peer TCP, with supervised reconnects.
//!
//! [`ClusterCoordinator::serve`] dials every node in the
//! [`ClusterConfig`], bootstraps each with a [`Hello`] (model, peer
//! table, plan, weight shard — the `Reconfigure` payload codec), then
//! deploys a requester-side session ([`WeightSource::Remote`]) whose
//! scatter links are [`ClusterTx`]s over those sockets.
//!
//! Fault tolerance is a single supervisor thread.  Link failures —
//! spotted by a reader hitting EOF or a sender hitting a write error —
//! post a `LinkDown` event; senders then *block on the link's condvar*
//! rather than failing the session.  The supervisor re-dials with
//! exponential [`BackoffPolicy`], re-handshakes at the **current** epoch
//! (full current shard, so a freshly restarted process is fully
//! re-provisioned), and calls [`Session::resync_epoch`] to bump the
//! cluster one epoch and replay every in-flight image.  Submitted work
//! completes with zero loss; only latency is paid.

use crate::backoff::BackoffPolicy;
use crate::config::ClusterConfig;
use crate::proto::{self, Hello};
use crate::{ClusterError, Result};
use cnn_model::exec::{ModelWeights, QuantSpec};
use cnn_model::Model;
use edge_runtime::routing::RouteTable;
use edge_runtime::transport::{read_raw_frame, FrameTx, Transport};
use edge_runtime::wire::{Frame, FrameKind};
use edge_runtime::{
    Deploy, ReconfigurePayload, RuntimeError, RuntimeOptions, RuntimeReport, Session, SwapReport,
    Ticket, TransportError, TransportErrorKind, WeightDelta, WeightSource,
};
use edge_telemetry::{Stage, Telemetry, TraceId, REQUESTER};
use edgesim::{Endpoint, ExecutionPlan};
use std::collections::HashSet;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tensor::ops::NUMERICS_CONTRACT;
use tensor::Tensor;

/// Everything a re-handshake must ship: the model and full weights stay
/// fixed for the session; epoch and plan advance under swaps/re-syncs.
struct HandshakeSource {
    model: Model,
    weights: Arc<ModelWeights>,
    /// Per-layer int8 scales when the cluster serves quantized; every
    /// (re-)handshake ships the spec so restarted nodes pack the same int8
    /// panels and keep speaking q8 on the wire.
    quant: Option<QuantSpec>,
    /// `(epoch, plan)` the cluster currently runs.
    state: Mutex<(u64, ExecutionPlan)>,
}

impl HandshakeSource {
    /// The full current shard of device `d` as reconfigure deltas.
    fn hello_for(&self, d: usize, peers: &[(usize, String)]) -> Result<Hello> {
        let (epoch, plan) = {
            let st = self.state.lock().expect("handshake source poisoned");
            (st.0, st.1.clone())
        };
        let route = RouteTable::new(&self.model, &plan).map_err(ClusterError::Runtime)?;
        let keep: HashSet<usize> = route.keep_layers(&self.model, d);
        let mut layers: Vec<usize> = keep.into_iter().collect();
        layers.sort_unstable();
        let delta: Vec<WeightDelta> = layers
            .into_iter()
            .map(|layer| WeightDelta {
                layer,
                weights: Arc::clone(&self.weights.layers[layer].0),
                bias: Arc::clone(&self.weights.layers[layer].1),
            })
            .collect();
        Ok(Hello {
            numerics: NUMERICS_CONTRACT,
            device: d,
            epoch,
            peers: peers.to_vec(),
            model: self.model.clone(),
            payload: ReconfigurePayload {
                plan,
                delta,
                quant: self.quant.clone(),
            },
        })
    }

    fn set(&self, epoch: u64, plan: Option<ExecutionPlan>) {
        let mut st = self.state.lock().expect("handshake source poisoned");
        st.0 = epoch;
        if let Some(plan) = plan {
            st.1 = plan;
        }
    }
}

/// One node link: the live socket (when up) behind a condvar senders wait
/// on across outages.
struct PeerLink {
    device: usize,
    addr: String,
    state: Mutex<LinkState>,
    cond: Condvar,
}

struct LinkState {
    stream: Option<TcpStream>,
    /// Bumped on every successful (re)install; down events carrying a
    /// stale generation are ignored.
    generation: u64,
    /// Set when the supervisor exhausts its backoff budget — senders stop
    /// waiting and fail.
    failed: Option<String>,
}

impl PeerLink {
    fn new(device: usize, addr: String) -> Self {
        Self {
            device,
            addr,
            state: Mutex::new(LinkState {
                stream: None,
                generation: 0,
                failed: None,
            }),
            cond: Condvar::new(),
        }
    }

    /// Installs a fresh stream, returning its generation.
    fn install(&self, stream: TcpStream) -> u64 {
        let mut st = self.state.lock().expect("link state poisoned");
        st.generation += 1;
        st.stream = Some(stream);
        st.failed = None;
        self.cond.notify_all();
        st.generation
    }

    /// Drops the stream of `generation` after a send/read error (no-op if
    /// a newer stream is already up).
    fn mark_down(&self, generation: u64) -> bool {
        let mut st = self.state.lock().expect("link state poisoned");
        if st.generation == generation && st.stream.is_some() {
            st.stream = None;
            true
        } else {
            false
        }
    }

    fn mark_failed(&self, why: String) {
        let mut st = self.state.lock().expect("link state poisoned");
        st.failed = Some(why);
        st.stream = None;
        self.cond.notify_all();
    }

    fn is_down(&self, generation: u64) -> bool {
        let st = self.state.lock().expect("link state poisoned");
        st.generation == generation && st.stream.is_none() && st.failed.is_none()
    }
}

/// Supervisor mailbox events.
enum ClusterEvent {
    LinkDown { device: usize, generation: u64 },
    Shutdown,
}

/// State shared between transport, readers, supervisor and session.
struct ClusterShared {
    links: Vec<Arc<PeerLink>>,
    peers: Vec<(usize, String)>,
    source: HandshakeSource,
    backoff: BackoffPolicy,
    inbox_tx: Sender<Vec<u8>>,
    events: Mutex<Sender<ClusterEvent>>,
    /// Set at shutdown: teardown EOFs are then expected, not failures.
    halting: AtomicBool,
    telemetry: Telemetry,
}

impl ClusterShared {
    fn notify_down(&self, device: usize, generation: u64) {
        let _ = self
            .events
            .lock()
            .expect("events sender poisoned")
            .send(ClusterEvent::LinkDown { device, generation });
    }
}

/// Dials `link.addr`, ships the current-epoch [`Hello`], and waits for
/// the node's `Welcome`.  One attempt; callers wrap it in backoff.
fn handshake_once(shared: &ClusterShared, link: &PeerLink) -> edge_runtime::Result<TcpStream> {
    let mut rec = shared.telemetry.recorder("coordinator.cluster", REQUESTER);
    let d = link.device;
    let trace = {
        let st = shared
            .source
            .state
            .lock()
            .expect("handshake source poisoned");
        TraceId::session(st.0)
    };

    let t0 = rec.start();
    let mut stream = TcpStream::connect(&link.addr).map_err(|e| {
        RuntimeError::Transport(
            TransportError::new(
                TransportErrorKind::Disconnected,
                format!("connect to node {d} at {}: {e}", link.addr),
            )
            .at(Endpoint::Device(d)),
        )
    })?;
    stream.set_nodelay(true).ok();
    if let Some(t0) = t0 {
        rec.span(Stage::ClusterConnect, trace, t0, 0, d as u32);
    }

    let t0 = rec.start();
    let hello = shared
        .source
        .hello_for(d, &shared.peers)
        .map_err(|e| RuntimeError::Execution(e.to_string()))?;
    let sent = proto::write_hello(&mut stream, &hello)?;
    let welcome = proto::read_welcome(&mut stream, hello.numerics).map_err(|e| match e {
        RuntimeError::Transport(t) => RuntimeError::Transport(t.at(Endpoint::Device(d))),
        other => other,
    })?;
    if welcome.device != d {
        return Err(RuntimeError::transport_protocol(format!(
            "node at {} answered as device {}, expected {d}",
            link.addr, welcome.device
        )));
    }
    if let Some(t0) = t0 {
        rec.span(Stage::ClusterHandshake, trace, t0, sent as u64, d as u32);
    }
    Ok(stream)
}

/// Installs a fresh stream on `link` and spawns its result reader.
fn install_and_pump(shared: &Arc<ClusterShared>, link: &Arc<PeerLink>, stream: TcpStream) {
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            // Treat an unclonable socket as a failed dial; the supervisor
            // (or initial connect) will retry.
            return;
        }
    };
    let generation = link.install(stream);
    let shared = Arc::clone(shared);
    let link = Arc::clone(link);
    std::thread::spawn(move || {
        let mut stream = read_half;
        while let Ok(Some(bytes)) = read_raw_frame(&mut stream) {
            if shared.inbox_tx.send(bytes).is_err() {
                return; // session is gone
            }
        }
        if !shared.halting.load(Ordering::SeqCst) && link.mark_down(generation) {
            shared.notify_down(link.device, generation);
        }
    });
}

/// The requester→device scatter sender.  A write error marks the link
/// down and *waits for the supervisor to restore it* instead of failing
/// the session — that wait is bounded by the backoff episode budget.
struct ClusterTx {
    shared: Arc<ClusterShared>,
    link: Arc<PeerLink>,
}

impl FrameTx for ClusterTx {
    fn send(&mut self, frame: &Frame) -> edge_runtime::Result<usize> {
        let bytes = frame.encode();
        if frame.kind == FrameKind::Halt {
            // Teardown: a dead node cannot be halted, and reconnecting to
            // deliver a Halt is pointless.  Mark the episode as halting so
            // the resulting EOFs are not treated as failures.
            self.shared.halting.store(true, Ordering::SeqCst);
            let mut st = self.link.state.lock().expect("link state poisoned");
            if let Some(stream) = &mut st.stream {
                let _ = stream.write_all(&bytes);
            }
            return Ok(bytes.len());
        }

        let deadline = Instant::now() + self.shared.backoff.max_elapsed + Duration::from_secs(5);
        loop {
            let mut st = self.link.state.lock().expect("link state poisoned");
            // Wait for the link to be up (or declared dead).
            loop {
                if let Some(why) = &st.failed {
                    return Err(RuntimeError::Transport(
                        TransportError::new(
                            TransportErrorKind::Disconnected,
                            format!("link to node {} failed: {why}", self.link.device),
                        )
                        .at(Endpoint::Device(self.link.device)),
                    ));
                }
                if st.stream.is_some() {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RuntimeError::Transport(
                        TransportError::new(
                            TransportErrorKind::Timeout,
                            format!("link to node {} not restored in time", self.link.device),
                        )
                        .at(Endpoint::Device(self.link.device)),
                    ));
                }
                let (next, _) = self
                    .link
                    .cond
                    .wait_timeout(st, deadline - now)
                    .expect("link state poisoned");
                st = next;
            }
            let generation = st.generation;
            match st.stream.as_mut().expect("checked above").write_all(&bytes) {
                Ok(()) => return Ok(bytes.len()),
                Err(_) => {
                    st.stream = None;
                    drop(st);
                    self.shared.notify_down(self.link.device, generation);
                    // Loop: block until the supervisor restores the link,
                    // then resend this frame on the fresh socket.
                }
            }
        }
    }
}

/// `Transport` over the cluster's sockets: scatter links are
/// [`ClusterTx`]s, the requester inbox is the merged stream every reader
/// thread pumps into.
struct ClusterTransport {
    shared: Arc<ClusterShared>,
    inbox: Option<Receiver<Vec<u8>>>,
}

impl Transport for ClusterTransport {
    fn open(&mut self, from: Endpoint, to: Endpoint) -> edge_runtime::Result<Box<dyn FrameTx>> {
        match (from, to) {
            (Endpoint::Requester, Endpoint::Device(d)) if d < self.shared.links.len() => {
                Ok(Box::new(ClusterTx {
                    shared: Arc::clone(&self.shared),
                    link: Arc::clone(&self.shared.links[d]),
                }))
            }
            _ => Err(RuntimeError::transport_config(format!(
                "cluster transport only opens requester→device links, not {from:?}→{to:?}"
            ))),
        }
    }

    fn inbox(&mut self, at: Endpoint) -> edge_runtime::Result<Receiver<Vec<u8>>> {
        match at {
            Endpoint::Requester => self
                .inbox
                .take()
                .ok_or_else(|| RuntimeError::transport_config("requester inbox already taken")),
            other => Err(RuntimeError::transport_config(format!(
                "cluster transport has no inbox at {other:?} (nodes own their own)"
            ))),
        }
    }
}

/// The multi-host coordinator.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterCoordinator;

impl ClusterCoordinator {
    /// Bootstraps every node in `config` and deploys a serving session
    /// over the cluster.  `weights` must be the same deterministic set the
    /// outputs are validated against; each node receives only its shard.
    pub fn serve(
        model: &Model,
        plan: &ExecutionPlan,
        weights: ModelWeights,
        config: &ClusterConfig,
        runtime: &RuntimeOptions,
        backoff: &BackoffPolicy,
        telemetry: &Telemetry,
    ) -> Result<ClusterSession> {
        config.validate()?;
        let route = RouteTable::new(model, plan).map_err(ClusterError::Runtime)?;
        let n = route.num_devices;
        if config.nodes.len() != n {
            return Err(ClusterError::Config(format!(
                "plan uses {n} devices but the cluster config has {} nodes",
                config.nodes.len()
            )));
        }

        let weights = Arc::new(weights);
        // Quantized clusters calibrate once on the coordinator (it holds
        // the full weights); nodes receive the spec via their Hello.
        let quant = runtime
            .quantized
            .then(|| QuantSpec::calibrate(model, &weights))
            .transpose()
            .map_err(|e| ClusterError::Runtime(RuntimeError::from(e)))?;
        let peers = config.peer_table();
        let links: Vec<Arc<PeerLink>> = peers
            .iter()
            .map(|(d, addr)| Arc::new(PeerLink::new(*d, addr.clone())))
            .collect();
        let (inbox_tx, inbox_rx) = channel::<Vec<u8>>();
        let (events_tx, events_rx) = channel::<ClusterEvent>();
        let shared = Arc::new(ClusterShared {
            links,
            peers,
            source: HandshakeSource {
                model: model.clone(),
                weights: Arc::clone(&weights),
                quant,
                state: Mutex::new((0, plan.clone())),
            },
            backoff: *backoff,
            inbox_tx,
            events: Mutex::new(events_tx.clone()),
            halting: AtomicBool::new(false),
            telemetry: telemetry.clone(),
        });

        // Initial bootstrap: every node must come up before serving.
        for link in &shared.links {
            let (stream, _attempts) = backoff
                .retry(
                    || false,
                    |e: &RuntimeError| e.as_transport().is_some_and(|t| t.is_retryable()),
                    || handshake_once(&shared, link),
                )
                .map_err(ClusterError::Runtime)?;
            install_and_pump(&shared, link, stream);
        }

        let mut transport = ClusterTransport {
            shared: Arc::clone(&shared),
            inbox: Some(inbox_rx),
        };
        let session = Arc::new(
            Deploy::new(model, plan, WeightSource::Remote(weights))
                .over(&mut transport)
                .options(*runtime)
                .telemetry(telemetry)
                .start()?,
        );

        let resyncs = Arc::new(AtomicU64::new(0));
        let supervisor = {
            let shared = Arc::clone(&shared);
            let session = Arc::downgrade(&session);
            let resyncs = Arc::clone(&resyncs);
            std::thread::spawn(move || supervisor_loop(events_rx, shared, session, resyncs))
        };

        Ok(ClusterSession {
            session: Some(session),
            shared,
            events: events_tx,
            supervisor: Some(supervisor),
            resyncs,
        })
    }
}

/// Owns all reconnection: re-dial with backoff, re-handshake at the
/// current epoch, then re-sync the session (epoch bump + in-flight
/// replay).  Single-threaded on purpose — concurrent repair of one link
/// would race the generation bookkeeping.
fn supervisor_loop(
    events: Receiver<ClusterEvent>,
    shared: Arc<ClusterShared>,
    session: std::sync::Weak<Session>,
    resyncs: Arc<AtomicU64>,
) {
    let mut rec = shared
        .telemetry
        .recorder("coordinator.supervisor", REQUESTER);
    while let Ok(event) = events.recv() {
        let (device, generation) = match event {
            ClusterEvent::Shutdown => return,
            ClusterEvent::LinkDown { device, generation } => (device, generation),
        };
        if shared.halting.load(Ordering::SeqCst) {
            continue;
        }
        let link = &shared.links[device];
        // Stale event: the link was already repaired (a sender and a
        // reader both report the same outage).
        if !link.is_down(generation) {
            continue;
        }

        let t0 = rec.start();
        let outcome = shared.backoff.retry(
            || shared.halting.load(Ordering::SeqCst),
            |e: &RuntimeError| e.as_transport().is_some_and(|t| t.is_retryable()),
            || handshake_once(&shared, link),
        );
        match outcome {
            Ok((stream, attempts)) => {
                install_and_pump(&shared, link, stream);
                if let Some(t0) = t0 {
                    let trace = {
                        let st = shared.source.state.lock().expect("source poisoned");
                        TraceId::session(st.0)
                    };
                    rec.span(
                        Stage::ClusterReconnect,
                        trace,
                        t0,
                        u64::from(attempts),
                        device as u32,
                    );
                }
                // The node rejoined holding only its bootstrap-epoch
                // state; bump the whole cluster one epoch and replay
                // everything in flight.
                let Some(session) = session.upgrade() else {
                    return;
                };
                match resync_with_retry(&session, device) {
                    Ok(epoch) => {
                        resyncs.fetch_add(1, Ordering::SeqCst);
                        shared.source.set(epoch, None);
                    }
                    Err(e) => {
                        // The session itself has failed (or is shutting
                        // down); nothing more to supervise for this link.
                        link.mark_failed(format!("re-sync failed: {e}"));
                    }
                }
            }
            Err(e) => {
                if !shared.halting.load(Ordering::SeqCst) {
                    link.mark_failed(e.to_string());
                }
            }
        }
    }
}

/// Runs `resync_epoch`, briefly retrying while a concurrent `apply_plan`
/// holds the swap lock.
fn resync_with_retry(session: &Session, device: usize) -> edge_runtime::Result<u64> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match session.resync_epoch(&[device]) {
            Ok(report) => return Ok(report.epoch),
            Err(RuntimeError::Execution(msg))
                if msg.contains("already in progress") && Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
}

/// A serving session over a real multi-process cluster.  Mirrors the
/// local [`Session`] surface; [`ClusterSession::resyncs`] additionally
/// reports how many link outages were repaired mid-stream.
pub struct ClusterSession {
    session: Option<Arc<Session>>,
    shared: Arc<ClusterShared>,
    events: Sender<ClusterEvent>,
    supervisor: Option<std::thread::JoinHandle<()>>,
    resyncs: Arc<AtomicU64>,
}

impl ClusterSession {
    fn session(&self) -> &Session {
        self.session
            .as_ref()
            .expect("session present until shutdown")
    }

    /// Submits one image (credit-gated, like [`Session::submit`]).
    pub fn submit(&self, image: &Tensor) -> edge_runtime::Result<Ticket> {
        self.session().submit(image)
    }

    /// Non-blocking submit.
    pub fn try_submit(&self, image: &Tensor) -> edge_runtime::Result<Option<Ticket>> {
        self.session().try_submit(image)
    }

    /// Waits for one output.
    pub fn wait(&self, ticket: Ticket) -> edge_runtime::Result<Tensor> {
        self.session().wait(ticket)
    }

    /// Waits for one output with a timeout.
    pub fn wait_timeout(
        &self,
        ticket: Ticket,
        timeout: Duration,
    ) -> edge_runtime::Result<Option<Tensor>> {
        self.session().wait_timeout(ticket, timeout)
    }

    /// Mid-stream metrics snapshot.
    pub fn metrics(&self) -> RuntimeReport {
        self.session().metrics()
    }

    /// The epoch the cluster currently runs.
    pub fn epoch(&self) -> u64 {
        self.session().epoch()
    }

    /// Images submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.session().in_flight()
    }

    /// The session failure, if it failed.
    pub fn failure(&self) -> Option<String> {
        self.session().failure()
    }

    /// How many link outages the supervisor repaired (reconnect +
    /// re-handshake + epoch re-sync).
    pub fn resyncs(&self) -> u64 {
        self.resyncs.load(Ordering::SeqCst)
    }

    /// Hot plan swap across the cluster (drain → reconfigure with delta
    /// shards → epoch flip), exactly like [`Session::apply_plan`]; future
    /// re-handshakes then bootstrap at the swapped plan.
    pub fn apply_plan(&self, plan: &ExecutionPlan) -> edge_runtime::Result<SwapReport> {
        let report = self.session().apply_plan(plan)?;
        self.shared.source.set(report.epoch, Some(plan.clone()));
        Ok(report)
    }

    /// Drains in-flight work, halts every node, and returns the final
    /// report.  Node processes exit once halted.
    pub fn shutdown(mut self) -> edge_runtime::Result<RuntimeReport> {
        self.shared.halting.store(true, Ordering::SeqCst);
        let _ = self.events.send(ClusterEvent::Shutdown);
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        let arc = self.session.take().expect("session present until shutdown");
        // The supervisor held only a weak reference, so after its exit the
        // session unwraps; a racing reader thread never holds one at all.
        match Arc::try_unwrap(arc) {
            Ok(session) => session.shutdown(),
            Err(_) => Err(RuntimeError::Execution(
                "cluster session still referenced at shutdown".into(),
            )),
        }
    }
}

impl Drop for ClusterSession {
    fn drop(&mut self) {
        if self.session.is_some() {
            // Not shut down explicitly: stop supervision, let the
            // session's own Drop tear the stream down.
            self.shared.halting.store(true, Ordering::SeqCst);
            let _ = self.events.send(ClusterEvent::Shutdown);
            if let Some(handle) = self.supervisor.take() {
                let _ = handle.join();
            }
            self.session = None;
        }
    }
}

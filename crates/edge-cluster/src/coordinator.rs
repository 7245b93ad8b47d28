//! The coordinator: `edge-runtime`'s `Transport` trait over real
//! multi-peer TCP, with supervised reconnects.
//!
//! [`ClusterSession::serve`] dials every node in the [`ClusterConfig`],
//! bootstraps each with a [`Hello`] (model, peer table, plan, weight shard —
//! the `Reconfigure` payload codec), then deploys a requester-side session
//! ([`WeightSource::Remote`]) whose scatter links are [`LinkSlot`]s over
//! those sockets.
//!
//! Fault tolerance is a single supervisor thread.  Link failures — spotted
//! by a reader hitting EOF or a sender hitting a write error — post a
//! `LinkDown` event; senders then *wait on the link's slot* rather than
//! failing the session.  The supervisor re-dials on the [`RECONNECT`]
//! schedule, re-handshakes at the **current** epoch and plan, read from
//! the session itself (full current shard, so a freshly restarted process
//! is fully re-provisioned), and calls [`Session::resync_epoch`] to bump
//! the cluster one epoch and replay every in-flight image.  Submitted work
//! completes with zero loss; only latency is paid.
//!
//! [`RECONNECT`]: crate::backoff::RECONNECT

use crate::backoff::reconnect;
use crate::config::ClusterConfig;
use crate::link::{LinkSlot, LinkTx};
use crate::proto::{self, Hello};
use crate::{ClusterError, Result};
use cnn_model::exec::{ModelWeights, QuantSpec};
use cnn_model::Model;
use edge_runtime::transport::{FrameTx, Transport};
use edge_runtime::{
    Deploy, ReconfigurePayload, ResyncReport, RuntimeError, RuntimeOptions, RuntimeReport, Session,
    TransportError, TransportErrorKind, WeightDelta, WeightSource,
};
use edge_telemetry::{Stage, Telemetry, TraceId, REQUESTER};
use edgesim::{Endpoint, ExecutionPlan};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tensor::ops::NUMERICS_CONTRACT;

/// Supervisor mailbox events.
enum ClusterEvent {
    LinkDown { device: usize, generation: u64 },
    Shutdown,
}

/// State shared between transport, readers, supervisor and session.  The
/// model, weights and spec are fixed for the session; the epoch and plan a
/// handshake ships are the session's own.
struct ClusterShared {
    model: Model,
    weights: Arc<ModelWeights>,
    /// Per-layer int8 scales when the cluster serves quantized; every
    /// (re-)handshake ships the spec so restarted nodes pack the same int8
    /// panels and keep speaking q8 on the wire.
    quant: Option<QuantSpec>,
    peers: Vec<(usize, String)>,
    links: Vec<Arc<LinkSlot>>,
    inbox_tx: Sender<Vec<u8>>,
    events: Sender<ClusterEvent>,
    /// Set at shutdown: teardown EOFs are then expected, not failures.
    halting: AtomicBool,
    telemetry: Telemetry,
}

impl ClusterShared {
    fn notify_down(&self, device: usize, generation: u64) {
        let _ = self
            .events
            .send(ClusterEvent::LinkDown { device, generation });
    }

    /// Installs a fresh stream on device `d`'s link and pumps its results
    /// into the requester inbox; the reader's EOF reports the outage.
    fn attach(self: &Arc<Self>, d: usize, stream: TcpStream) {
        let shared = Arc::clone(self);
        self.links[d].attach(stream, self.inbox_tx.clone(), move |generation| {
            shared.notify_down(d, generation)
        });
    }

    /// Device `d`'s full shard of `plan` as a [`Hello`] at `epoch`.
    fn hello_for(&self, d: usize, epoch: u64, plan: ExecutionPlan) -> Hello {
        let mut layers: Vec<usize> = plan.keep_layers(&self.model, d).into_iter().collect();
        layers.sort_unstable();
        let delta: Vec<WeightDelta> = layers
            .into_iter()
            .map(|layer| WeightDelta {
                layer,
                weights: Arc::clone(&self.weights.layers[layer].0),
                bias: Arc::clone(&self.weights.layers[layer].1),
            })
            .collect();
        Hello {
            numerics: NUMERICS_CONTRACT,
            device: d,
            epoch,
            peers: self.peers.clone(),
            model: self.model.clone(),
            payload: ReconfigurePayload {
                plan,
                delta,
                quant: self.quant.clone(),
            },
        }
    }

    /// Dials device `d`, ships its [`Hello`] at `(epoch, plan)`, and waits
    /// for the node's `Welcome`.  One attempt; callers wrap it in
    /// [`reconnect`].
    fn handshake(
        &self,
        d: usize,
        epoch: u64,
        plan: ExecutionPlan,
    ) -> edge_runtime::Result<TcpStream> {
        let mut rec = self.telemetry.recorder("coordinator.cluster", REQUESTER);
        let trace = TraceId::session(epoch);
        let addr = &self.peers[d].1;

        let t0 = rec.start();
        let mut stream = TcpStream::connect(addr).map_err(|e| {
            RuntimeError::Transport(
                TransportError::new(
                    TransportErrorKind::Disconnected,
                    format!("connect to node {d} at {addr}: {e}"),
                )
                .at(Endpoint::Device(d)),
            )
        })?;
        stream.set_nodelay(true).ok();
        if let Some(t0) = t0 {
            rec.span(Stage::ClusterConnect, trace, t0, 0, d as u32);
        }

        let t0 = rec.start();
        let hello = self.hello_for(d, epoch, plan);
        let sent = proto::write_hello(&mut stream, &hello)?;
        let welcome = proto::read_welcome(&mut stream, hello.numerics).map_err(|e| match e {
            RuntimeError::Transport(t) => RuntimeError::Transport(t.at(Endpoint::Device(d))),
            other => other,
        })?;
        if welcome.device != d {
            return Err(RuntimeError::transport_protocol(format!(
                "node at {addr} answered as device {}, expected {d}",
                welcome.device
            )));
        }
        if let Some(t0) = t0 {
            rec.span(Stage::ClusterHandshake, trace, t0, sent as u64, d as u32);
        }
        Ok(stream)
    }
}

/// `Transport` over the cluster's sockets: scatter links are [`LinkTx`]s
/// whose dead writes report to the supervisor, the requester inbox is the
/// merged stream every reader thread pumps into.
struct ClusterTransport {
    shared: Arc<ClusterShared>,
    inbox: Option<Receiver<Vec<u8>>>,
}

impl Transport for ClusterTransport {
    fn open(&mut self, from: Endpoint, to: Endpoint) -> edge_runtime::Result<Box<dyn FrameTx>> {
        match (from, to) {
            (Endpoint::Requester, Endpoint::Device(d)) if d < self.shared.links.len() => {
                let shared = Arc::clone(&self.shared);
                Ok(Box::new(LinkTx::new(
                    Arc::clone(&self.shared.links[d]),
                    move |generation| shared.notify_down(d, generation),
                )))
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

/// Owns all reconnection: re-dial on the reconnect schedule, re-handshake
/// at the session's current epoch and plan, then re-sync the session
/// (epoch bump + in-flight replay).  Single-threaded on purpose —
/// concurrent repair of one link would race the generation bookkeeping.
fn supervisor_loop(
    events: Receiver<ClusterEvent>,
    shared: Arc<ClusterShared>,
    session: Weak<Session>,
    resyncs: Arc<AtomicU64>,
) {
    let mut rec = shared
        .telemetry
        .recorder("coordinator.supervisor", REQUESTER);
    let halting = || shared.halting.load(Ordering::SeqCst);
    while let Ok(ClusterEvent::LinkDown { device, generation }) = events.recv() {
        let link = &shared.links[device];
        // Stale event: the link was already repaired (a sender and a
        // reader both report the same outage).
        if halting() || !link.is_down(generation) {
            continue;
        }
        let Some(session) = session.upgrade() else {
            return;
        };

        let t0 = rec.start();
        let outcome = reconnect(halting, || {
            let (epoch, plan) = session.current_plan();
            shared.handshake(device, epoch, plan)
        });
        match outcome {
            Ok((stream, attempts)) => {
                shared.attach(device, stream);
                if let Some(t0) = t0 {
                    rec.span(
                        Stage::ClusterReconnect,
                        TraceId::session(session.epoch()),
                        t0,
                        u64::from(attempts),
                        device as u32,
                    );
                }
                // The node rejoined holding only the state its handshake
                // shipped; bump the whole cluster one epoch and replay
                // everything in flight.
                match resync_with_retry(&session, device) {
                    Ok(_) => {
                        resyncs.fetch_add(1, Ordering::SeqCst);
                    }
                    // The session itself has failed (or is shutting down);
                    // nothing more to supervise for this link.
                    Err(e) => link.close(format!("re-sync failed: {e}")),
                }
            }
            Err(e) if !halting() => link.close(e.to_string()),
            Err(_) => {}
        }
    }
}

/// Runs `resync_epoch`, briefly retrying while a concurrent `apply_plan`
/// holds the swap lock.
fn resync_with_retry(session: &Session, device: usize) -> edge_runtime::Result<ResyncReport> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match session.resync_epoch(&[device]) {
            Err(RuntimeError::Execution(msg))
                if msg.contains("already in progress") && Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(20));
            }
            done => return done,
        }
    }
}

/// A serving session over a real multi-process cluster.  Submit, wait,
/// swap plans and read metrics on [`ClusterSession::session`], as on any
/// local `Session`; [`ClusterSession::resyncs`] additionally reports how
/// many link outages were repaired mid-stream.
pub struct ClusterSession {
    session: Option<Arc<Session>>,
    shared: Arc<ClusterShared>,
    supervisor: Option<JoinHandle<()>>,
    resyncs: Arc<AtomicU64>,
}

impl ClusterSession {
    /// Bootstraps every node in `config` and deploys a serving session
    /// over the cluster.  `weights` must be the same deterministic set the
    /// outputs are validated against; each node receives only its shard.
    pub fn serve(
        model: &Model,
        plan: &ExecutionPlan,
        weights: ModelWeights,
        config: &ClusterConfig,
        options: RuntimeOptions,
        telemetry: &Telemetry,
    ) -> Result<Self> {
        config.validate()?;
        plan.validate(model)
            .map_err(|e| ClusterError::Runtime(RuntimeError::from(e)))?;
        let n = plan.num_devices();
        if config.nodes.len() != n {
            return Err(ClusterError::Config(format!(
                "plan uses {n} devices but the cluster config has {} nodes",
                config.nodes.len()
            )));
        }

        let weights = Arc::new(weights);
        // Quantized clusters calibrate once, here (the coordinator holds
        // the full weights); nodes receive the spec via their Hello and the
        // session is deployed with that same spec.
        let quant = options
            .quantized
            .then(|| QuantSpec::calibrate(model, &weights))
            .transpose()
            .map_err(|e| ClusterError::Runtime(RuntimeError::from(e)))?;
        let peers = config.peer_table();
        let links = (0..n)
            .map(|d| Arc::new(LinkSlot::new(Endpoint::Device(d))))
            .collect();
        let (inbox_tx, inbox_rx) = channel::<Vec<u8>>();
        let (events_tx, events_rx) = channel::<ClusterEvent>();
        let shared = Arc::new(ClusterShared {
            model: model.clone(),
            weights: Arc::clone(&weights),
            quant: quant.clone(),
            peers,
            links,
            inbox_tx,
            events: events_tx,
            halting: AtomicBool::new(false),
            telemetry: telemetry.clone(),
        });

        // Initial bootstrap at epoch 0 and the deploy plan: every node must
        // come up before serving.
        for d in 0..n {
            let (stream, _attempts) = reconnect(|| false, || shared.handshake(d, 0, plan.clone()))
                .map_err(ClusterError::Runtime)?;
            shared.attach(d, stream);
        }

        let mut transport = ClusterTransport {
            shared: Arc::clone(&shared),
            inbox: Some(inbox_rx),
        };
        let session = Arc::new(
            Deploy::new(
                model,
                plan,
                WeightSource::Remote {
                    raw: weights,
                    quant,
                },
            )
            .over(&mut transport)
            .options(options)
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

        Ok(Self {
            session: Some(session),
            shared,
            supervisor: Some(supervisor),
            resyncs,
        })
    }

    /// The live session: submit / wait / metrics / `apply_plan` as usual.
    /// A plan swapped in here is what later re-handshakes bootstrap with.
    pub fn session(&self) -> &Session {
        self.session
            .as_ref()
            .expect("session present until shutdown")
    }

    /// How many link outages the supervisor repaired (reconnect +
    /// re-handshake + epoch re-sync).
    pub fn resyncs(&self) -> u64 {
        self.resyncs.load(Ordering::SeqCst)
    }

    /// Stops supervision, so no reconnect races the teardown; the EOFs the
    /// teardown causes are then expected, not failures.
    fn stop_supervisor(&mut self) {
        self.shared.halting.store(true, Ordering::SeqCst);
        let _ = self.shared.events.send(ClusterEvent::Shutdown);
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }

    /// Stops the supervisor, then drains in-flight work, halts every node,
    /// and returns the final report.  Node processes exit once halted.
    pub fn shutdown(mut self) -> edge_runtime::Result<RuntimeReport> {
        self.stop_supervisor();
        let arc = self.session.take().expect("session present until shutdown");
        // The supervisor held only a weak reference, so after its exit the
        // session unwraps; a reader thread never holds one at all.
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
            // Not shut down explicitly: stop supervision, let the session's
            // own Drop tear the stream down.
            self.stop_supervisor();
            self.session = None;
        }
    }
}

//! The `distredge-node` runloop: one provider worker behind a TCP
//! listener.
//!
//! A node knows nothing at start except its device id and listen address.
//! The first coordinator [`Hello`](crate::proto::Hello) bootstraps
//! everything — model, peer table, plan epoch, weight shard — packs the
//! shard into kernel panels and spawns the provider over them
//! (`edge-runtime`'s `spawn_provider`).  The receive role is the
//! transport's pump or channel; a provider runs compute and send threads —
//! here the coordinator link's `LinkSlot` and one `pump` per peer
//! connection feed the provider inbox.  After that the runloop only routes
//! connections:
//!
//! * repeat `Hello` (coordinator reconnect) → re-attach the socket, reply
//!   with the installed epoch; the provider itself never restarts,
//! * any `Hello` from a build with a different numerics contract → a
//!   refusal instead of `Welcome`, nothing installed or re-attached,
//! * `Link` preamble (peer halo connection) → pump frames into the
//!   provider inbox,
//! * provider exit (a `Halt` frame, or a worker error) → the runloop
//!   returns.
//!
//! Outbound links reconnect lazily: the coordinator-facing link is a
//! [`LinkSlot`] whose sender waits for the supervisor to re-dial us, while
//! peer-facing [`PeerTx`] links re-dial the peer's listener themselves on
//! the reconnect schedule.

use crate::backoff::reconnect;
use crate::config::NodeConfig;
use crate::link::{LinkSlot, LinkTx};
use crate::proto::{self, Hello, Welcome, PREAMBLE_HELLO, PREAMBLE_LINK};
use crate::{ClusterError, Result};
use cnn_model::exec::{LayerWeights, ModelWeights, PackedModelWeights};
use edge_runtime::provider::{spawn_provider, Shared};
use edge_runtime::routing::{EpochSlot, PlanEpoch};
use edge_runtime::transport::{pump, FrameTx};
use edge_runtime::wire::Frame;
use edge_runtime::RuntimeError;
use edge_telemetry::Telemetry;
use edgesim::Endpoint;
use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tensor::ops::NUMERICS_CONTRACT;

/// Halo frames → one peer node.  Dials the peer's listener lazily and
/// re-dials on the reconnect schedule on a broken pipe, so a peer that is
/// restarting mid-stream costs retries, not the session.
///
/// A cached link is probed before every write ([`peer_closed`]): the first
/// write onto a connection whose peer has died still succeeds (the reset
/// only comes back afterwards), so without the probe the first frame sent
/// after a peer's restart — a new-epoch halo band nobody will re-send — can
/// vanish into the dead process's socket.
struct PeerTx {
    from: usize,
    to: usize,
    addr: String,
    stream: Option<TcpStream>,
}

impl PeerTx {
    fn connect(&self) -> edge_runtime::Result<TcpStream> {
        let mut stream = TcpStream::connect(&self.addr).map_err(|e| {
            RuntimeError::Transport(
                edge_runtime::TransportError::new(
                    edge_runtime::TransportErrorKind::Disconnected,
                    format!("connect to peer {} at {}: {e}", self.to, self.addr),
                )
                .at(Endpoint::Device(self.to)),
            )
        })?;
        stream.set_nodelay(true).ok();
        proto::write_link(&mut stream, self.from)?;
        Ok(stream)
    }
}

/// Whether the peer has closed (or reset) a send-only link.  Nothing is
/// ever sent back on one, so anything but "no data yet" on a non-blocking
/// peek — EOF, an error, stray bytes — means the connection is done for.
fn peer_closed(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let idle = matches!(
        stream.peek(&mut [0u8; 1]),
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock
    );
    !idle || stream.set_nonblocking(false).is_err()
}

impl FrameTx for PeerTx {
    fn send(&mut self, frame: &Frame) -> edge_runtime::Result<usize> {
        let bytes = frame.encode();
        if let Some(stream) = &mut self.stream {
            if !peer_closed(stream) && stream.write_all(&bytes).is_ok() {
                return Ok(bytes.len());
            }
            self.stream = None;
        }
        // (Re)connect with backoff, then retry the write on the fresh
        // socket.
        let (mut stream, _attempts) = reconnect(|| false, || self.connect())?;
        stream
            .write_all(&bytes)
            .map_err(|e| RuntimeError::transport_io(format!("write to peer {}: {e}", self.to)))?;
        self.stream = Some(stream);
        Ok(bytes.len())
    }
}

/// A node that holds its listen socket but is not serving yet.  Binding and
/// running are two steps so the caller can learn — and announce — the
/// address it actually got before a coordinator dials it: a config that
/// asks for port 0 leaves the choice to the OS.
pub struct BoundNode {
    /// The node's config with `listen` resolved to the bound address.
    cfg: NodeConfig,
    listener: TcpListener,
}

impl BoundNode {
    /// Binds `cfg.listen`.
    pub fn bind(cfg: &NodeConfig) -> Result<Self> {
        let listener = TcpListener::bind(&cfg.listen)
            .map_err(|e| ClusterError::Config(format!("bind {}: {e}", cfg.listen)))?;
        let local = listener
            .local_addr()
            .map_err(|e| ClusterError::Config(format!("local_addr: {e}")))?;
        Ok(Self {
            cfg: NodeConfig {
                listen: local.to_string(),
                ..cfg.clone()
            },
            listener,
        })
    }

    /// The address the node is listening on.
    pub fn addr(&self) -> &str {
        &self.cfg.listen
    }

    /// Serves until the provider halts.
    pub fn run(self, telemetry: &Telemetry) -> Result<()> {
        let (cfg, listener) = (&self.cfg, &self.listener);
        let coord = Arc::new(LinkSlot::new(Endpoint::Requester));
        let done = Arc::new(AtomicBool::new(false));
        let outcome: Arc<Mutex<Option<edge_runtime::Result<()>>>> = Arc::new(Mutex::new(None));
        // Filled at bootstrap; used to route later connections.
        let mut running: Option<RunningNode> = None;

        loop {
            let (mut stream, _) = match listener.accept() {
                Ok(pair) => pair,
                Err(e) => {
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    return Err(ClusterError::Config(format!(
                        "accept on {}: {e}",
                        cfg.listen
                    )));
                }
            };
            if done.load(Ordering::SeqCst) {
                break;
            }
            stream.set_nodelay(true).ok();
            // Bound the handshake read so a silent dialer cannot wedge the
            // accept loop; cleared again before long-lived frame pumping.
            stream.set_read_timeout(Some(Duration::from_secs(10))).ok();

            let mut preamble = [0u8; 1];
            if std::io::Read::read_exact(&mut stream, &mut preamble).is_err() {
                continue; // dialer vanished before saying anything
            }
            match preamble[0] {
                PREAMBLE_HELLO => {
                    let hello = match proto::read_hello(&mut stream) {
                        Ok(h) => h,
                        Err(_) => continue, // corrupt handshake: drop, coordinator retries
                    };
                    if hello.numerics != NUMERICS_CONTRACT {
                        // A coordinator from a build with other kernel numerics:
                        // install nothing, say why, keep listening for ours.
                        let _ = proto::write_numerics_refusal(&mut stream);
                        continue;
                    }
                    match &running {
                        None => {
                            let node =
                                bootstrap(cfg, hello, stream, telemetry, &coord, &done, &outcome)?;
                            running = Some(node);
                        }
                        Some(node) => {
                            // Coordinator reconnect: confirm the epoch we are
                            // actually running and re-attach the socket.
                            let epoch = node.shared.slot.load().id;
                            if proto::write_welcome(
                                &mut stream,
                                &Welcome {
                                    device: cfg.device,
                                    epoch,
                                },
                            )
                            .is_err()
                            {
                                continue;
                            }
                            coord.attach(stream, node.inbox.clone(), |_| {});
                        }
                    }
                }
                PREAMBLE_LINK => {
                    let Ok(_from) = proto::read_link(&mut stream) else {
                        continue;
                    };
                    let Some(node) = &running else {
                        continue; // halo link before bootstrap: peer will re-dial
                    };
                    // EOF is not an error here: the peer re-dialing is the
                    // recovery protocol working.
                    stream.set_read_timeout(None).ok();
                    let inbox = node.inbox.clone();
                    std::thread::spawn(move || pump(stream, &inbox));
                }
                _ => continue, // unknown preamble: drop the connection
            }
        }

        coord.close("node is shutting down".into());
        let result = outcome
            .lock()
            .expect("node outcome poisoned")
            .take()
            .unwrap_or(Ok(()));
        result.map_err(ClusterError::Runtime)
    }
}

/// What the runloop keeps after bootstrap.
struct RunningNode {
    shared: Arc<Shared>,
    inbox: Sender<Vec<u8>>,
}

/// Installs model + plan + shard from the first `Hello`, spawns the
/// provider pipeline, and wires the coordinator socket.
fn bootstrap(
    cfg: &NodeConfig,
    hello: Hello,
    mut stream: TcpStream,
    telemetry: &Telemetry,
    coord: &Arc<LinkSlot>,
    done: &Arc<AtomicBool>,
    outcome: &Arc<Mutex<Option<edge_runtime::Result<()>>>>,
) -> Result<RunningNode> {
    if hello.device != cfg.device {
        return Err(ClusterError::Config(format!(
            "coordinator addressed device {}, this node serves device {}",
            hello.device, cfg.device
        )));
    }
    let model = hello.model;
    let n_layers = model.len();

    // Materialise this device's weight shard from the payload deltas.  The
    // decoded layers move in as they are, and this node is their only
    // owner: packing frees each one as its panels exist.
    let mut layers = vec![LayerWeights::default(); n_layers];
    for delta in hello.payload.delta {
        if delta.layer >= n_layers {
            return Err(ClusterError::Runtime(RuntimeError::transport_protocol(
                format!("shard delta for layer {} of {n_layers}", delta.layer),
            )));
        }
        layers[delta.layer] = (delta.weights, delta.bias);
    }
    let weights = ModelWeights { layers };

    // A Hello carrying a quant spec bootstraps quantized serving: the
    // shard packs int8 panels and rows into an int8 layer travel as q8
    // slabs at its scale.
    let quant = hello.payload.quant.as_ref();
    let epoch = PlanEpoch::new(hello.epoch, &model, &hello.payload.plan, quant)
        .map_err(ClusterError::Runtime)?;
    // Packed before the provider exists and before `Welcome`: the requester
    // treats `Welcome` as "this node serves its first frame at full speed".
    let packed = PackedModelWeights::pack_owned(&model, weights, quant)
        .map_err(|e| ClusterError::Runtime(e.into()))?;
    let shared = Arc::new(Shared {
        model,
        slot: EpochSlot::new(epoch),
    });

    // Outbound halo links to every other peer, lazy-dialing.
    let mut txs: HashMap<Endpoint, Box<dyn FrameTx>> = HashMap::new();
    for (peer, addr) in &hello.peers {
        if *peer != cfg.device {
            txs.insert(
                Endpoint::Device(*peer),
                Box::new(PeerTx {
                    from: cfg.device,
                    to: *peer,
                    addr: addr.clone(),
                    stream: None,
                }),
            );
        }
    }
    // Results → coordinator.  A dead socket is the coordinator's to
    // re-dial; the sender just waits for it.
    txs.insert(
        Endpoint::Requester,
        Box::new(LinkTx::new(Arc::clone(coord), |_| {})),
    );

    let (inbox_tx, inbox_rx) = std::sync::mpsc::channel::<Vec<u8>>();
    let provider = spawn_provider(
        cfg.device,
        Arc::clone(&shared),
        packed,
        inbox_rx,
        txs,
        telemetry,
    );
    proto::write_welcome(
        &mut stream,
        &Welcome {
            device: cfg.device,
            epoch: hello.epoch,
        },
    )
    .map_err(ClusterError::Runtime)?;
    coord.attach(stream, inbox_tx.clone(), |_| {});

    // When the provider exits (Halt or error), record the outcome and poke
    // the accept loop awake so `run` returns.
    let listen = cfg.listen.clone();
    let done = Arc::clone(done);
    let outcome = Arc::clone(outcome);
    std::thread::spawn(move || {
        let result = provider.join();
        *outcome.lock().expect("node outcome poisoned") = Some(result);
        done.store(true, Ordering::SeqCst);
        // Self-connect to unblock `listener.accept()`.
        let _ = TcpStream::connect(&listen);
    });

    Ok(RunningNode {
        shared,
        inbox: inbox_tx,
    })
}

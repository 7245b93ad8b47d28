//! Transports: how frames move between the requester and the providers.
//!
//! The runtime only ever sees [`Transport`]: a fabric that opens directed
//! [`FrameTx`] handles and hands out per-endpoint inboxes of encoded frames.
//! Two fabrics are provided — an in-process channel fabric (the default,
//! zero-copy apart from encode/decode) and a loopback-TCP fabric that
//! pushes every frame through real sockets — plus [`ShapedTransport`], a
//! decorator that paces sends with a token-bucket driven by `netsim`
//! bandwidth traces so a laptop can reproduce the testbed's shaped WiFi.

use crate::wire::{check_frame_len, Frame};
use crate::{Result, RuntimeError, TransportError, TransportErrorKind};
use edgesim::{Cluster, Endpoint};
use netsim::BandwidthTrace;
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sending half of a directed link.  Implementations serialize the frame
/// onto their medium; the returned value is the encoded byte count.
pub trait FrameTx: Send {
    /// Sends one frame.
    fn send(&mut self, frame: &Frame) -> Result<usize>;
}

/// A fabric connecting the requester and the providers.
pub trait Transport {
    /// Opens the directed link `from -> to`.
    fn open(&mut self, from: Endpoint, to: Endpoint) -> Result<Box<dyn FrameTx>>;

    /// Takes the inbox of `at`: every frame any peer sends to `at`, encoded.
    /// Each endpoint's inbox can be taken once.
    fn inbox(&mut self, at: Endpoint) -> Result<Receiver<Vec<u8>>>;
}

// ---------------------------------------------------------------------------
// In-process channels
// ---------------------------------------------------------------------------

/// The default fabric: one mpsc channel per endpoint, frames byte-encoded so
/// the wire format is exercised even in process.
pub struct ChannelTransport {
    senders: HashMap<Endpoint, Sender<Vec<u8>>>,
    receivers: HashMap<Endpoint, Receiver<Vec<u8>>>,
}

impl ChannelTransport {
    /// A fabric for `num_devices` providers plus the requester.
    pub fn new(num_devices: usize) -> Self {
        let mut senders = HashMap::new();
        let mut receivers = HashMap::new();
        let mut add = |ep: Endpoint| {
            let (tx, rx) = channel();
            senders.insert(ep, tx);
            receivers.insert(ep, rx);
        };
        add(Endpoint::Requester);
        for d in 0..num_devices {
            add(Endpoint::Device(d));
        }
        Self { senders, receivers }
    }
}

struct ChannelTx {
    tx: Sender<Vec<u8>>,
}

impl FrameTx for ChannelTx {
    fn send(&mut self, frame: &Frame) -> Result<usize> {
        let bytes = frame.encode();
        let n = bytes.len();
        self.tx
            .send(bytes)
            .map_err(|_| RuntimeError::transport_disconnected("receiver endpoint is gone"))?;
        Ok(n)
    }
}

impl Transport for ChannelTransport {
    fn open(&mut self, _from: Endpoint, to: Endpoint) -> Result<Box<dyn FrameTx>> {
        let tx = self
            .senders
            .get(&to)
            .ok_or_else(|| {
                RuntimeError::Transport(
                    TransportError::new(TransportErrorKind::Config, "unknown endpoint").at(to),
                )
            })?
            .clone();
        Ok(Box::new(ChannelTx { tx }))
    }

    fn inbox(&mut self, at: Endpoint) -> Result<Receiver<Vec<u8>>> {
        self.receivers.remove(&at).ok_or_else(|| {
            RuntimeError::Transport(
                TransportError::new(TransportErrorKind::Config, "inbox already taken").at(at),
            )
        })
    }
}

// ---------------------------------------------------------------------------
// Loopback TCP
// ---------------------------------------------------------------------------

/// A fabric where every directed link is a real `TcpStream` over loopback:
/// one listener per endpoint, one connection per `open`, and a reader thread
/// per connection pumping length-prefixed frames into the endpoint's inbox.
pub struct TcpTransport {
    addrs: HashMap<Endpoint, SocketAddr>,
    receivers: HashMap<Endpoint, Receiver<Vec<u8>>>,
    shutdown: Arc<AtomicBool>,
    accept_threads: Vec<JoinHandle<()>>,
}

impl TcpTransport {
    /// Binds loopback listeners for `num_devices` providers plus the
    /// requester and starts their accept loops.
    pub fn new(num_devices: usize) -> Result<Self> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut addrs = HashMap::new();
        let mut receivers = HashMap::new();
        let mut accept_threads = Vec::new();
        let mut endpoints = vec![Endpoint::Requester];
        endpoints.extend((0..num_devices).map(Endpoint::Device));
        for ep in endpoints {
            let listener = TcpListener::bind(("127.0.0.1", 0))
                .map_err(|e| RuntimeError::transport_io(format!("bind failed: {e}")))?;
            let addr = listener
                .local_addr()
                .map_err(|e| RuntimeError::transport_io(format!("local_addr failed: {e}")))?;
            let (tx, rx) = channel::<Vec<u8>>();
            addrs.insert(ep, addr);
            receivers.insert(ep, rx);
            let flag = Arc::clone(&shutdown);
            accept_threads.push(std::thread::spawn(move || {
                accept_loop(listener, tx, flag);
            }));
        }
        Ok(Self {
            addrs,
            receivers,
            shutdown,
            accept_threads,
        })
    }
}

fn accept_loop(listener: TcpListener, inbox: Sender<Vec<u8>>, shutdown: Arc<AtomicBool>) {
    let mut readers = Vec::new();
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { break };
        let inbox = inbox.clone();
        readers.push(std::thread::spawn(move || pump(stream, &inbox)));
    }
    for r in readers {
        let _ = r.join();
    }
}

/// Forwards every frame `stream` carries into `inbox` until EOF, a read
/// error, or the inbox's receiver is gone.  Bytes are forwarded verbatim —
/// decoding (and validation) happens once, in the thread that drains the
/// inbox (a provider's compute thread, the session's gather thread).
/// Every socket reader in the workspace is this loop.
pub fn pump(mut stream: impl std::io::Read, inbox: &Sender<Vec<u8>>) {
    while let Ok(Some(bytes)) = read_raw_frame(&mut stream) {
        if inbox.send(bytes).is_err() {
            return;
        }
    }
}

/// Fills `len_buf` from the stream: `Ok(false)` on clean EOF before any
/// byte, an `Io` transport error on EOF *inside* the prefix (a mid-frame
/// disconnect, not a frame boundary).
fn read_len_prefix(stream: &mut impl std::io::Read, len_buf: &mut [u8; 4]) -> Result<bool> {
    let mut got = 0;
    while got < 4 {
        match stream.read(&mut len_buf[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(false)
                } else {
                    Err(RuntimeError::transport_io(format!(
                        "EOF inside length prefix after {got} bytes"
                    )))
                }
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(RuntimeError::transport_io(format!("read failed: {e}"))),
        }
    }
    Ok(true)
}

/// Reads one length-prefixed frame as raw bytes (prefix included), without
/// decoding the payload — the one stream reader; [`Frame::decode`] turns
/// its output into a frame.  Returns `None` on clean EOF at a frame
/// boundary; EOF inside the prefix or the body is an `Io` transport error.
/// The length prefix is capped at [`crate::MAX_FRAME_LEN`] before any
/// allocation happens, so a corrupt header cannot balloon memory.
pub fn read_raw_frame(stream: &mut impl std::io::Read) -> Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    if !read_len_prefix(stream, &mut len_buf)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    check_frame_len(len)?;
    let mut bytes = Vec::with_capacity(4 + len);
    bytes.extend_from_slice(&len_buf);
    bytes.resize(4 + len, 0);
    stream
        .read_exact(&mut bytes[4..])
        .map_err(|e| RuntimeError::transport_io(format!("truncated frame: {e}")))?;
    Ok(Some(bytes))
}

struct TcpTx {
    stream: TcpStream,
}

impl FrameTx for TcpTx {
    fn send(&mut self, frame: &Frame) -> Result<usize> {
        let bytes = frame.encode();
        self.stream
            .write_all(&bytes)
            .map_err(|e| RuntimeError::transport_io(format!("tcp write failed: {e}")))?;
        Ok(bytes.len())
    }
}

impl Transport for TcpTransport {
    fn open(&mut self, _from: Endpoint, to: Endpoint) -> Result<Box<dyn FrameTx>> {
        let addr = self.addrs.get(&to).ok_or_else(|| {
            RuntimeError::Transport(
                TransportError::new(TransportErrorKind::Config, "unknown endpoint").at(to),
            )
        })?;
        let stream = TcpStream::connect(addr).map_err(|e| {
            RuntimeError::Transport(
                TransportError::new(
                    TransportErrorKind::Disconnected,
                    format!("connect failed: {e}"),
                )
                .at(to),
            )
        })?;
        stream
            .set_nodelay(true)
            .map_err(|e| RuntimeError::transport_io(format!("set_nodelay failed: {e}")))?;
        Ok(Box::new(TcpTx { stream }))
    }

    fn inbox(&mut self, at: Endpoint) -> Result<Receiver<Vec<u8>>> {
        self.receivers.remove(&at).ok_or_else(|| {
            RuntimeError::Transport(
                TransportError::new(TransportErrorKind::Config, "inbox already taken").at(at),
            )
        })
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake each accept loop with a throw-away connection.
        for addr in self.addrs.values() {
            let _ = TcpStream::connect_timeout(addr, Duration::from_millis(200));
        }
        for t in self.accept_threads.drain(..) {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Bandwidth shaping
// ---------------------------------------------------------------------------

/// The shared shaping state of one device's radio: its bandwidth trace, its
/// per-frame I/O overhead, and the time its air is busy until.  Every link
/// touching the device holds the same bucket, so concurrent flows through
/// one device serialise on it — the simulator's per-device contention model.
struct DeviceBucket {
    trace: BandwidthTrace,
    io_overhead_ms: f64,
    busy_until_ms: Mutex<f64>,
}

/// Token-bucket pacing for one directed link: the sender blocks until the
/// frame would have finished its wire time under the link's trace, so the
/// receive side observes shaped-WiFi arrival times.  The buckets are shared
/// per *device*, not per directed pair: a frame reserves serial air time on
/// every device it touches, so simultaneous flows through one device
/// contend instead of each enjoying the full link rate.
struct ShapedTx {
    inner: Box<dyn FrameTx>,
    /// Buckets of the devices this link touches, sorted by device index so
    /// concurrent sends lock them in one global order.
    buckets: Vec<Arc<DeviceBucket>>,
    started: Instant,
}

impl FrameTx for ShapedTx {
    fn send(&mut self, frame: &Frame) -> Result<usize> {
        let bytes = frame.encoded_len() as f64;
        let now_ms = self.started.elapsed().as_secs_f64() * 1e3;
        // Reserve the air of every touched device atomically: lock all
        // buckets (in device order — every link locks in the same order, so
        // two-bucket reservations cannot deadlock), find the first instant
        // all of them are free, and push each device's busy horizon past the
        // frame's wire time.
        let free_at = {
            let mut slots: Vec<MutexGuard<'_, f64>> = self
                .buckets
                .iter()
                .map(|b| b.busy_until_ms.lock().expect("shaping bucket poisoned"))
                .collect();
            let begin = slots.iter().map(|s| **s).fold(now_ms, f64::max);
            let mbps = self
                .buckets
                .iter()
                .map(|b| b.trace.bandwidth_at(begin))
                .fold(f64::INFINITY, f64::min)
                .max(0.01);
            let io_overhead_ms = self
                .buckets
                .iter()
                .map(|b| b.io_overhead_ms)
                .fold(0.0, f64::max);
            let wire_ms = bytes / netsim::mbps_to_bytes_per_ms(mbps) + io_overhead_ms;
            for slot in &mut slots {
                **slot = begin + wire_ms;
            }
            begin + wire_ms
        };
        let sleep_ms = free_at - now_ms;
        if sleep_ms > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(sleep_ms / 1e3));
        }
        self.inner.send(frame)
    }
}

/// Decorates another fabric with token-bucket shaping derived from a
/// cluster's `netsim` traces.
///
/// A device↔device link is paced by the slower of the two devices' traces at
/// the moment the frame departs — the same "bounded by the slower link"
/// model the simulator uses.  The bucket state is shared per *device*: all
/// flows through one device's WiFi contend for its serial air time
/// (fan-in/fan-out heavy plans pay for it), matching the simulator's
/// per-link serialisation.
pub struct ShapedTransport<T: Transport> {
    inner: T,
    buckets: Vec<Arc<DeviceBucket>>,
    started: Instant,
}

impl<T: Transport> ShapedTransport<T> {
    /// Wraps `inner`, pacing each link with the matching device trace of
    /// `cluster`.
    pub fn new(inner: T, cluster: &Cluster) -> Self {
        let buckets = (0..cluster.len())
            .map(|d| {
                let link = cluster.link(d);
                Arc::new(DeviceBucket {
                    trace: link.trace().clone(),
                    io_overhead_ms: link.io_overhead_ms(),
                    busy_until_ms: Mutex::new(0.0),
                })
            })
            .collect();
        Self {
            inner,
            buckets,
            started: Instant::now(),
        }
    }
}

impl<T: Transport> Transport for ShapedTransport<T> {
    fn open(&mut self, from: Endpoint, to: Endpoint) -> Result<Box<dyn FrameTx>> {
        let mut devices: Vec<usize> = [from, to]
            .iter()
            .filter_map(|ep| match ep {
                Endpoint::Device(d) => Some(*d),
                Endpoint::Requester => None,
            })
            .collect();
        if let Some(&d) = devices.iter().find(|&&d| d >= self.buckets.len()) {
            let err = TransportError::new(TransportErrorKind::Config, "device not in the cluster");
            return Err(RuntimeError::Transport(err.at(Endpoint::Device(d))));
        }
        let inner = self.inner.open(from, to)?;
        devices.sort_unstable();
        devices.dedup();
        if devices.is_empty() {
            // Requester-to-requester never happens; fall through unshaped.
            return Ok(inner);
        }
        let buckets = devices
            .into_iter()
            .map(|d| Arc::clone(&self.buckets[d]))
            .collect();
        Ok(Box::new(ShapedTx {
            inner,
            buckets,
            started: self.started,
        }))
    }

    fn inbox(&mut self, at: Endpoint) -> Result<Receiver<Vec<u8>>> {
        self.inner.inbox(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FrameKind;
    use tensor::Tensor;

    fn frame(image: u32) -> Frame {
        Frame::data(
            FrameKind::Rows,
            0,
            image,
            0,
            0,
            Tensor::filled([1, 2, 3], image as f32),
        )
    }

    #[test]
    fn channel_fabric_delivers_in_order() {
        let mut fabric = ChannelTransport::new(2);
        let mut tx = fabric
            .open(Endpoint::Device(0), Endpoint::Device(1))
            .unwrap();
        let rx = fabric.inbox(Endpoint::Device(1)).unwrap();
        tx.send(&frame(1)).unwrap();
        tx.send(&frame(2)).unwrap();
        let a = Frame::decode(&rx.recv().unwrap()).unwrap();
        let b = Frame::decode(&rx.recv().unwrap()).unwrap();
        assert_eq!(a.image, 1);
        assert_eq!(b.image, 2);
    }

    #[test]
    fn channel_inbox_taken_once() {
        let mut fabric = ChannelTransport::new(1);
        fabric.inbox(Endpoint::Device(0)).unwrap();
        assert!(fabric.inbox(Endpoint::Device(0)).is_err());
    }

    #[test]
    fn tcp_fabric_roundtrips_frames() {
        let mut fabric = TcpTransport::new(2).unwrap();
        let rx = fabric.inbox(Endpoint::Device(1)).unwrap();
        let mut tx = fabric
            .open(Endpoint::Device(0), Endpoint::Device(1))
            .unwrap();
        tx.send(&frame(7)).unwrap();
        let got = Frame::decode(&rx.recv_timeout(Duration::from_secs(5)).unwrap()).unwrap();
        assert_eq!(got, frame(7));
        let mut tx2 = fabric
            .open(Endpoint::Requester, Endpoint::Device(1))
            .unwrap();
        tx2.send(&Frame::halt()).unwrap();
        let halt = Frame::decode(&rx.recv_timeout(Duration::from_secs(5)).unwrap()).unwrap();
        assert_eq!(halt.kind, FrameKind::Halt);
    }

    #[test]
    fn shaped_link_paces_sends() {
        use device_profile::{DeviceSpec, DeviceType};
        use netsim::LinkConfig;
        // 8 Mbps => 1000 bytes/ms; a ~100 byte frame plus 2 ms I/O overhead
        // should take ~2.1 ms; ten of them ~21 ms.
        let cluster = Cluster::uniform(
            vec![
                DeviceSpec::new("a", DeviceType::Xavier),
                DeviceSpec::new("b", DeviceType::Xavier),
            ],
            LinkConfig::constant(8.0),
        );
        let mut fabric = ShapedTransport::new(ChannelTransport::new(2), &cluster);
        let rx = fabric.inbox(Endpoint::Device(1)).unwrap();
        let mut tx = fabric
            .open(Endpoint::Device(0), Endpoint::Device(1))
            .unwrap();
        let t0 = Instant::now();
        for i in 0..10 {
            tx.send(&frame(i)).unwrap();
        }
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(elapsed_ms >= 15.0, "shaping too weak: {elapsed_ms:.2} ms");
        for _ in 0..10 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
    }

    #[test]
    fn shaped_open_rejects_a_device_the_cluster_lacks() {
        use device_profile::{DeviceSpec, DeviceType};
        use netsim::LinkConfig;
        let cluster = Cluster::uniform(
            vec![
                DeviceSpec::new("a", DeviceType::Xavier),
                DeviceSpec::new("b", DeviceType::Xavier),
            ],
            LinkConfig::constant(8.0),
        );
        let mut fabric = ShapedTransport::new(ChannelTransport::new(3), &cluster);
        for (from, to) in [
            (Endpoint::Device(0), Endpoint::Device(2)),
            (Endpoint::Device(2), Endpoint::Requester),
        ] {
            match fabric.open(from, to) {
                Err(RuntimeError::Transport(e)) => {
                    assert_eq!(e.kind, TransportErrorKind::Config);
                    assert_eq!(e.peer, Some(Endpoint::Device(2)));
                }
                Err(other) => panic!("expected a config error, got {other}"),
                Ok(_) => panic!("opening {from:?} -> {to:?} must fail"),
            }
        }
        assert!(fabric
            .open(Endpoint::Device(0), Endpoint::Device(1))
            .is_ok());
    }

    #[test]
    fn concurrent_flows_through_one_device_contend() {
        use device_profile::{DeviceSpec, DeviceType};
        use netsim::LinkConfig;
        // Device 0 fans out to devices 1 and 2 simultaneously.  Both flows
        // share device 0's bucket, so the two senders together must take
        // at least the air time of all their frames sent serially — not
        // half of it.
        let link = LinkConfig::constant(8.0); // 1000 bytes/ms
        let cluster = Cluster::uniform(
            vec![
                DeviceSpec::new("a", DeviceType::Xavier),
                DeviceSpec::new("b", DeviceType::Xavier),
                DeviceSpec::new("c", DeviceType::Xavier),
            ],
            link.clone(),
        );
        const FRAMES: u32 = 8;
        // ~4 KB per frame: ~6 ms of shaped air time per send.
        let big_frame = |image: u32| {
            Frame::data(
                FrameKind::Rows,
                0,
                image,
                0,
                0,
                Tensor::filled([4, 16, 16], image as f32),
            )
        };
        // The serial air time of all 2·FRAMES frames, computed rather than
        // measured: a loaded host only lengthens the sleeps that pace the
        // sends, so it can never make this bound fail.
        let air_ms = |frame: &Frame| {
            frame.encoded_len() as f64 / netsim::mbps_to_bytes_per_ms(8.0) + link.io_overhead_ms
        };
        let serial_ms: f64 = (0..FRAMES).map(|i| 2.0 * air_ms(&big_frame(i))).sum();
        let mut fabric = ShapedTransport::new(ChannelTransport::new(3), &cluster);
        let rx1 = fabric.inbox(Endpoint::Device(1)).unwrap();
        let rx2 = fabric.inbox(Endpoint::Device(2)).unwrap();
        let mut tx1 = fabric
            .open(Endpoint::Device(0), Endpoint::Device(1))
            .unwrap();
        let mut tx2 = fabric
            .open(Endpoint::Device(0), Endpoint::Device(2))
            .unwrap();

        let t0 = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..FRAMES {
                    tx1.send(&big_frame(i)).unwrap();
                }
            });
            scope.spawn(move || {
                for i in 0..FRAMES {
                    tx2.send(&big_frame(i)).unwrap();
                }
            });
        });
        let contended_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            contended_ms >= 0.95 * serial_ms,
            "flows through one device must serialise: {contended_ms:.2} ms for {} frames \
             whose serial air time is {serial_ms:.2} ms",
            2 * FRAMES
        );
        for _ in 0..FRAMES {
            rx1.recv_timeout(Duration::from_secs(5)).unwrap();
            rx2.recv_timeout(Duration::from_secs(5)).unwrap();
        }
    }
}

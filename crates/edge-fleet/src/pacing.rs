//! Deterministic result-side pacing: a transport decorator that gives each
//! replica cluster a finite, configurable service rate.
//!
//! [`PacedTransport`] charges a fixed wire time to every frame a *device*
//! sends **to the requester** (result and ack traffic) and leaves every
//! other link untouched.  The pacing state is per source device, so one
//! device's results serialise while different devices — and, crucially,
//! different replicas, each of which deploys over its own fabric — pace in
//! parallel.
//!
//! The sleep happens in the provider's *send* thread, never in the
//! requester's submit path: the gateway dispatcher that scatters inputs is
//! shared by every replica, and pacing it would serialise the whole fleet
//! through one thread.  Pacing only the device→requester direction keeps
//! the capacity model where it belongs (each replica's egress) and makes
//! fleet scaling measurable on a single-core host: N replicas sleep in N
//! provider threads concurrently, so fleet throughput is
//! `N × (1 / frame_time)` without needing N cores of real compute.

use edge_runtime::transport::{FrameTx, Transport};
use edge_runtime::wire::Frame;
use edge_runtime::Result;
use edgesim::Endpoint;
use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared pacing state of one device's egress to the requester: the instant
/// its "wire" is busy until.
type Horizon = Arc<Mutex<Option<Instant>>>;

/// A paced device→requester link: each frame reserves `frame_time` of
/// serial wire time on its source device before it is delivered.
struct PacedTx {
    inner: Box<dyn FrameTx>,
    frame_time: Duration,
    horizon: Horizon,
}

impl FrameTx for PacedTx {
    fn send(&mut self, frame: &Frame) -> Result<usize> {
        let free_at = {
            let mut busy = self.horizon.lock().expect("pacing horizon poisoned");
            let now = Instant::now();
            let begin = busy.map_or(now, |b| b.max(now));
            let free = begin + self.frame_time;
            *busy = Some(free);
            free
        };
        let now = Instant::now();
        if free_at > now {
            std::thread::sleep(free_at - now);
        }
        self.inner.send(frame)
    }
}

/// Decorates a fabric so every device→requester frame costs `frame_time` of
/// serial per-device wire time.  See the module docs for why only that
/// direction is paced.
pub struct PacedTransport<T: Transport> {
    inner: T,
    frame_time: Duration,
    horizons: HashMap<usize, Horizon>,
}

impl<T: Transport> PacedTransport<T> {
    /// Wraps `inner`, charging `frame_time` per device→requester frame.
    pub fn new(inner: T, frame_time: Duration) -> Self {
        Self {
            inner,
            frame_time,
            horizons: HashMap::new(),
        }
    }
}

impl<T: Transport> Transport for PacedTransport<T> {
    fn open(&mut self, from: Endpoint, to: Endpoint) -> Result<Box<dyn FrameTx>> {
        let inner = self.inner.open(from, to)?;
        match (from, to) {
            (Endpoint::Device(d), Endpoint::Requester) => {
                let horizon = Arc::clone(
                    self.horizons
                        .entry(d)
                        .or_insert_with(|| Arc::new(Mutex::new(None))),
                );
                Ok(Box::new(PacedTx {
                    inner,
                    frame_time: self.frame_time,
                    horizon,
                }))
            }
            // Scatter (requester→device) and halo (device→device) links are
            // never paced: the former runs on the shared dispatcher thread.
            _ => Ok(inner),
        }
    }

    fn inbox(&mut self, at: Endpoint) -> Result<Receiver<Vec<u8>>> {
        self.inner.inbox(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_runtime::transport::ChannelTransport;
    use edge_runtime::wire::FrameKind;
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
    fn result_frames_are_paced_serially() {
        let mut fabric = PacedTransport::new(ChannelTransport::new(1), Duration::from_millis(5));
        let rx = fabric.inbox(Endpoint::Requester).unwrap();
        let mut tx = fabric
            .open(Endpoint::Device(0), Endpoint::Requester)
            .unwrap();
        let t0 = Instant::now();
        for i in 0..4 {
            tx.send(&frame(i)).unwrap();
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(20),
            "4 frames at 5 ms each took only {elapsed:?}"
        );
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
    }

    #[test]
    fn scatter_links_are_not_paced() {
        let mut fabric = PacedTransport::new(ChannelTransport::new(1), Duration::from_millis(50));
        let rx = fabric.inbox(Endpoint::Device(0)).unwrap();
        let mut tx = fabric
            .open(Endpoint::Requester, Endpoint::Device(0))
            .unwrap();
        let t0 = Instant::now();
        for i in 0..10 {
            tx.send(&frame(i)).unwrap();
        }
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "scatter must stay unpaced"
        );
        for _ in 0..10 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
    }
}

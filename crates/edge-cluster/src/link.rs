//! The reconnecting-link slot: one socket that comes and goes, behind both
//! the coordinator's scatter links and a node's result link.
//!
//! The coordinator owns reconnection for both kinds, so a slot never dials;
//! it holds whatever socket the handshake last installed.  Every install
//! starts a new generation, and marking a generation down is a no-op once a
//! newer socket is up — a reader and a sender that both saw one outage
//! report it once.  Senders wait for a socket up to a deadline instead of
//! failing, and a terminal reason ([`LinkSlot::close`]) releases every
//! waiter at once.
//!
//! Writes go through the slot under its lock, always on the current
//! generation's socket.  A sender never caches a clone: the first write
//! into a dead peer's socket still succeeds (the reset only comes back
//! afterwards), so a clone that outlived its generation would swallow the
//! first frame sent after a reconnect.

use crate::backoff::LINK_WAIT;
use edge_runtime::transport::{pump, FrameTx};
use edge_runtime::wire::{Frame, FrameKind};
use edge_runtime::{Result, RuntimeError, TransportError, TransportErrorKind};
use edgesim::Endpoint;
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One reconnecting link to `peer`.
pub(crate) struct LinkSlot {
    /// The far end, for error attribution.
    peer: Endpoint,
    state: Mutex<SlotState>,
    cond: Condvar,
}

struct SlotState {
    stream: Option<TcpStream>,
    /// Bumped on every install.
    generation: u64,
    /// Terminal: senders stop waiting and fail with this reason.
    closed: Option<String>,
}

impl LinkSlot {
    pub(crate) fn new(peer: Endpoint) -> Self {
        Self {
            peer,
            state: Mutex::new(SlotState {
                stream: None,
                generation: 0,
                closed: None,
            }),
            cond: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().expect("link slot poisoned")
    }

    /// Installs `stream` as the next generation and pumps its read half
    /// into `inbox` on a thread of its own.  When the pump ends (EOF or a
    /// read error) the generation is marked down, and `on_down` runs if
    /// that took the link down.  A socket that cannot be split is dropped
    /// like a failed dial: the coordinator dials again.
    pub(crate) fn attach(
        self: &Arc<Self>,
        stream: TcpStream,
        inbox: Sender<Vec<u8>>,
        on_down: impl FnOnce(u64) + Send + 'static,
    ) {
        stream.set_read_timeout(None).ok();
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let generation = {
            let mut st = self.lock();
            st.generation += 1;
            st.stream = Some(stream);
            st.generation
        };
        self.cond.notify_all();
        let slot = Arc::clone(self);
        std::thread::spawn(move || {
            pump(read_half, &inbox);
            if slot.mark_down(generation) {
                on_down(generation);
            }
        });
    }

    /// Drops the socket of `generation`.  False — and nothing changes — if
    /// a newer socket is already up or this one is already down.
    fn mark_down(&self, generation: u64) -> bool {
        let mut st = self.lock();
        let live = st.generation == generation && st.stream.is_some();
        if live {
            st.stream = None;
        }
        live
    }

    /// Whether `generation` is still the newest and down (and the link not
    /// closed) — i.e. an outage report about it still needs repairing.
    pub(crate) fn is_down(&self, generation: u64) -> bool {
        let st = self.lock();
        st.generation == generation && st.stream.is_none() && st.closed.is_none()
    }

    /// Ends the link for good: every waiting and future sender fails with
    /// `why`.
    pub(crate) fn close(&self, why: String) {
        let mut st = self.lock();
        st.closed = Some(why);
        st.stream = None;
        self.cond.notify_all();
    }

    /// Writes `bytes` on the live socket, waiting until `deadline` for one.
    /// A failed write marks its generation down, reports it to `on_down`,
    /// and waits for the next socket to resend there.
    fn send(&self, bytes: &[u8], deadline: Instant, on_down: &mut dyn FnMut(u64)) -> Result<()> {
        let mut st = self.lock();
        loop {
            if let Some(why) = &st.closed {
                return Err(self.error(
                    TransportErrorKind::Disconnected,
                    format!("link failed: {why}"),
                ));
            }
            if let Some(stream) = st.stream.as_mut() {
                if stream.write_all(bytes).is_ok() {
                    return Ok(());
                }
                st.stream = None;
                let generation = st.generation;
                drop(st);
                on_down(generation);
                st = self.lock();
                continue;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(self.error(
                    TransportErrorKind::Timeout,
                    "link not restored in time".into(),
                ));
            }
            st = self
                .cond
                .wait_timeout(st, deadline - now)
                .expect("link slot poisoned")
                .0;
        }
    }

    fn error(&self, kind: TransportErrorKind, detail: String) -> RuntimeError {
        RuntimeError::Transport(TransportError::new(kind, detail).at(self.peer))
    }
}

/// The one sender over a [`LinkSlot`].  A data frame waits up to
/// [`LINK_WAIT`] for the link to come back; a `Halt` is teardown and never
/// waits — a peer that is down cannot be halted, and reconnecting to
/// deliver one is pointless — so it is best effort.
pub(crate) struct LinkTx {
    slot: Arc<LinkSlot>,
    /// Told the generation of every socket a write found dead.
    on_down: Box<dyn FnMut(u64) + Send>,
}

impl LinkTx {
    pub(crate) fn new(slot: Arc<LinkSlot>, on_down: impl FnMut(u64) + Send + 'static) -> Self {
        Self {
            slot,
            on_down: Box::new(on_down),
        }
    }
}

impl FrameTx for LinkTx {
    fn send(&mut self, frame: &Frame) -> Result<usize> {
        let bytes = frame.encode();
        let halt = frame.kind == FrameKind::Halt;
        let deadline = Instant::now() + if halt { Duration::ZERO } else { LINK_WAIT };
        match self.slot.send(&bytes, deadline, &mut *self.on_down) {
            Err(_) if halt => Ok(bytes.len()),
            sent => sent.map(|()| bytes.len()),
        }
    }
}

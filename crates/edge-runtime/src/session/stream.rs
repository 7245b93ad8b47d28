//! The image flow through a live session: credit-gated submission, the
//! scatter onto the devices, and claiming outputs.

use super::{ScatterState, Session, SessionLoad, Ticket};
use crate::runtime::RuntimeOutcome;
use crate::wire::{Frame, FrameKind};
use crate::{Result, RuntimeError};
use edge_telemetry::{Stage, TraceId};
use edgesim::Endpoint;
use std::time::{Duration, Instant};
use tensor::slice::slice_rows;
use tensor::Tensor;

impl ScatterState {
    /// Scatters one image's input rows to every device of the current plan,
    /// tagged `trace.epoch` — the one place an image becomes wire frames
    /// (q8 slabs on a quantized session, f32 rows otherwise), for a first
    /// submission and for a re-sync replay alike.  Runs under the scatter
    /// lock, which serialises concurrent submitters on the wire.
    pub(super) fn scatter_image(
        &mut self,
        image: &Tensor,
        trace: TraceId,
        quantized: bool,
    ) -> Result<()> {
        let Self {
            txs,
            scatter_ms,
            plan,
            rec,
        } = self;
        for transfer in plan.transfers(0) {
            let Endpoint::Device(d) = transfer.to else {
                continue;
            };
            let (lo, hi) = transfer.rows;
            let rows = slice_rows(image, lo, hi)?;
            let frame = if quantized {
                Frame::rows_q8(trace.epoch, trace.image, 0, lo as u32, &rows)
            } else {
                Frame::data(
                    FrameKind::Rows,
                    trace.epoch,
                    trace.image,
                    0,
                    lo as u32,
                    rows,
                )
            };
            let t0 = Instant::now();
            let n = txs[d].send(&frame)?;
            let t1 = Instant::now();
            scatter_ms[d] += (t1 - t0).as_secs_f64() * 1e3;
            rec.span_between(Stage::Scatter, trace, t0, t1, n as u64, d as u32);
        }
        Ok(())
    }
}

impl Session {
    /// A cheap load snapshot — one lock acquisition, three numbers — for
    /// schedulers that compare many sessions per routing decision (the
    /// fleet router) and must not pay the full [`Session::metrics`]
    /// collection per candidate.
    pub fn load(&self) -> SessionLoad {
        let st = self.shared.lock();
        let free_credits = if st.failed.is_some() || st.halted || st.swapping {
            0
        } else {
            self.options
                .max_in_flight
                .saturating_sub(st.in_flight.len())
        };
        SessionLoad {
            free_credits,
            queue_depth: st.outputs.len(),
            in_flight: st.in_flight.len(),
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
        self.load().free_credits
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
                let free = self
                    .options
                    .max_in_flight
                    .saturating_sub(st.in_flight.len());
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
                if !st.swapping && st.in_flight.len() < self.options.max_in_flight {
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
                    && (st.swapping || st.in_flight.len() >= self.options.max_in_flight)
                {
                    return Err(RuntimeError::Execution(
                        "submit timed out waiting for an in-flight credit".into(),
                    ));
                }
            }
            let id = st.submitted as u32;
            st.submitted += 1;
            st.in_flight.insert(id, (Instant::now(), image.clone()));
            st.max_in_flight_observed = st.max_in_flight_observed.max(st.in_flight.len());
            (Ticket { image: id }, st.epoch)
        };
        let trace = TraceId {
            epoch,
            image: ticket.image,
        };

        // Scatter outside the state lock so slow links never block
        // completions.
        let mut sc = self.scatter.lock().expect("scatter state poisoned");
        if let Err(e) = sc.scatter_image(image, trace, self.quant.is_some()) {
            drop(sc);
            self.shared.fail(&e);
            return Err(e);
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
                let epoch = st.epoch;
                drop(st);
                self.record_wait(ticket.image, epoch, t_wait);
                return Ok(Some(out));
            }
            if u64::from(ticket.image) >= st.submitted {
                return Err(RuntimeError::Execution(format!(
                    "ticket for image {} was never submitted on this session",
                    ticket.image
                )));
            }
            if !st.in_flight.contains_key(&ticket.image) {
                return Err(RuntimeError::Execution(format!(
                    "output of image {} was already claimed",
                    ticket.image
                )));
            }
            if let Some(f) = &st.failed {
                return Err(RuntimeError::Execution(format!("session failed: {f}")));
            }
            // One bounded condvar wait for the full remaining time: every
            // transition this loop cares about (a completion, another
            // waiter claiming the output, a session failure) signals
            // `results`, so there is nothing to poll for.  The unbounded
            // case still bounds each wait by `recv_timeout` as
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
            self.shared
                .tel
                .recorder()
                .span(Stage::Wait, TraceId { epoch, image }, t0, 0, 0);
        }
    }

    /// Claims any ready output, without blocking.
    pub fn try_recv(&self) -> Option<(Ticket, Tensor)> {
        let mut st = self.shared.lock();
        let image = *st.outputs.keys().next()?;
        let out = st.outputs.remove(&image).expect("key just observed");
        Some((Ticket { image }, out))
    }

    /// One-shot streaming: submits every image (`submit` blocks whenever
    /// the credit window is full, so `max_in_flight` pipelining falls out
    /// of the session's backpressure), claims the outputs in stream order
    /// and shuts the cluster down.  On an error the session's `Drop` tears
    /// the workers down.
    pub fn run_batch(self, images: &[Tensor]) -> Result<RuntimeOutcome> {
        if images.is_empty() {
            return Err(RuntimeError::Execution("no images to stream".into()));
        }
        let tickets = images
            .iter()
            .map(|img| self.submit(img))
            .collect::<Result<Vec<Ticket>>>()?;
        let outputs = tickets
            .into_iter()
            .map(|t| self.wait(t))
            .collect::<Result<Vec<Tensor>>>()?;
        let report = self.shutdown()?;
        Ok(RuntimeOutcome { report, outputs })
    }
}

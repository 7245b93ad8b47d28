//! Epoch changes on a live session: the hot plan swap
//! ([`Session::apply_plan`]) and the recovery re-sync
//! ([`Session::resync_epoch`]).
//!
//! Both are the same protocol around a different middle.  They share
//! [`Session::begin_swap`] (refuse a failed / halting / already-swapping
//! session, pause admission), [`Session::reconfigure_and_flip`] (broadcast
//! the `Reconfigure` frames, wait for every device's ack under a deadline,
//! flip the epoch, record it) and [`Session::end_swap`] (resume admission).
//! A swap drains the window first and ships weight deltas; a re-sync drains
//! nothing, ships nothing and replays the window afterwards.

use super::{Session, GATHER_TICK};
use crate::routing::PlanEpoch;
use crate::wire::{Frame, ReconfigurePayload, WeightDelta};
use crate::{Result, RuntimeError};
use edge_telemetry::{Stage, TraceId, REQUESTER};
use edgesim::ExecutionPlan;
use serde::Serialize;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use tensor::Tensor;

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

impl Session {
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
        // Validated before anything stops; the id is set once the swap has one.
        let mut next = PlanEpoch::new(0, &self.model, plan, self.quant.as_ref())?;
        let n = self.num_devices();
        if plan.num_devices() != n {
            return Err(RuntimeError::Execution(format!(
                "new plan addresses {} devices, session has {n}",
                plan.num_devices()
            )));
        }

        // 1. Stop admitting at the old epoch.
        let (old_epoch, drained_images) =
            self.begin_swap("session is shutting down; cannot swap plans")?;
        let new_epoch = old_epoch + 1;
        next.id = new_epoch;

        // 2. Drain the in-flight window.
        let t_drain = Instant::now();
        {
            let mut st = self.shared.drain(self.shared.lock());
            if let Some(f) = st.failed.clone() {
                st.swapping = false;
                return Err(RuntimeError::Execution(format!("session failed: {f}")));
            }
        }
        let drain_ms = t_drain.elapsed().as_secs_f64() * 1e3;
        self.shared.tel.recorder().span(
            Stage::Drain,
            TraceId::session(new_epoch),
            t_drain,
            0,
            drained_images as u32,
        );

        // 3. Diff the new plan's per-device weight needs against what is
        // already resident and publish the new plan and residency, then
        // broadcast and flip.  Publishing first keeps `current_plan` from
        // ever pairing the new epoch with the old plan; the lock is released
        // before the ack barrier, which a re-joining device's re-handshake
        // (a `current_plan` read) may be what completes.
        let t_reconf = Instant::now();
        let mut delta_bytes = vec![0usize; n];
        let mut reused_bytes = vec![0usize; n];
        let payloads: Vec<ReconfigurePayload> = {
            let mut ps = self.plan_state.lock().expect("plan state poisoned");
            let mut payloads = Vec::with_capacity(n);
            let mut keeps: Vec<HashSet<usize>> = Vec::with_capacity(n);
            for d in 0..n {
                let needed = plan.keep_layers(&self.model, d);
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
            ps.plan = plan.clone();
            ps.resident_bytes = keeps
                .iter()
                .map(|k| self.weights.resident_bytes_of(k))
                .collect();
            ps.keep = keeps;
            payloads
        };
        // No scatter can interleave while admission is paused, so the new
        // plan is installed before any new-epoch image.
        self.reconfigure_and_flip("acks", new_epoch, &payloads, Some(next), t_reconf)?;
        let reconfigure_ms = t_reconf.elapsed().as_secs_f64() * 1e3;
        self.end_swap();

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
        let n = self.num_devices();
        if let Some(&d) = rejoined.iter().find(|&&d| d >= n) {
            return Err(RuntimeError::Execution(format!(
                "rejoined device {d} out of range (session has {n})"
            )));
        }

        // 1. Pause admission at the current epoch (no drain).
        let (old_epoch, _) = self.begin_swap("session is shutting down; cannot re-sync")?;
        let new_epoch = old_epoch + 1;

        // 2. Reset the rejoined devices' residency bookkeeping to the
        // current plan's keep-set and build the bump payload: same plan,
        // no weight delta.
        let payload = {
            let mut ps = self.plan_state.lock().expect("plan state poisoned");
            for &d in rejoined {
                let keep = ps.plan.keep_layers(&self.model, d);
                ps.resident_bytes[d] = self.weights.resident_bytes_of(&keep);
                ps.keep[d] = keep;
            }
            ReconfigurePayload {
                plan: ps.plan.clone(),
                delta: Vec::new(),
                quant: self.quant.clone(),
            }
        };

        // 3. Broadcast the epoch bump, wait for every ack, flip.  The plan
        // is unchanged, so the scatter keeps its epoch.
        self.reconfigure_and_flip(
            "re-sync acks",
            new_epoch,
            &vec![payload; n],
            None,
            Instant::now(),
        )?;

        // 4. Replay every image still in flight at the new epoch, in id
        // order.  The retained inputs are snapshotted *after* the ack
        // barrier, so images that completed while the bump was in progress
        // are not replayed.
        let replay: Vec<(u32, Tensor)> = {
            let st = self.shared.lock();
            st.in_flight
                .iter()
                .map(|(&id, (_, input))| (id, input.clone()))
                .collect()
        };
        {
            let mut sc = self.scatter.lock().expect("scatter state poisoned");
            for (image, tensor) in &replay {
                let trace = TraceId {
                    epoch: new_epoch,
                    image: *image,
                };
                if let Err(e) = sc.scatter_image(tensor, trace) {
                    drop(sc);
                    self.shared.fail(&e);
                    return Err(e);
                }
            }
        }

        // 5. Resume admission.
        self.end_swap();
        Ok(ResyncReport {
            epoch: new_epoch,
            replayed: replay.len(),
            total_ms: t_total.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// Device count, from the scatter links rather than `providers`: a
    /// session over remote providers holds no local handles.
    fn num_devices(&self) -> usize {
        let sc = self.scatter.lock().expect("scatter state poisoned");
        sc.txs.len()
    }

    /// Opens an epoch change: refuses a failed, halting or already-swapping
    /// session, pauses admission and arms one ack flag per device for
    /// `current + 1`.  Returns the current epoch and the in-flight count.
    /// `refusal` is what a halting session answers.
    fn begin_swap(&self, refusal: &str) -> Result<(u64, usize)> {
        let n = self.num_devices();
        let mut st = self.shared.lock();
        if let Some(f) = &st.failed {
            return Err(RuntimeError::Execution(format!("session failed: {f}")));
        }
        if st.halted {
            return Err(RuntimeError::Execution(refusal.into()));
        }
        if st.swapping {
            return Err(RuntimeError::Execution(
                "another plan swap is already in progress".into(),
            ));
        }
        st.swapping = true;
        st.swap_target = st.epoch + 1;
        st.acked = vec![false; n];
        Ok((st.epoch, st.in_flight.len()))
    }

    /// The middle of every epoch change: sends device `d` its
    /// `Reconfigure` frame (`payloads[d]`), installs `next` for the scatter
    /// if the plan changed, waits until every device has acked `new_epoch` or
    /// `recv_timeout` runs out (the error then says which `acks` were
    /// missing), flips the epoch and records it.
    ///
    /// The broadcast goes through the scatter links so it is ordered after
    /// every old-epoch scatter and before every new-epoch one.
    fn reconfigure_and_flip(
        &self,
        acks: &str,
        new_epoch: u64,
        payloads: &[ReconfigurePayload],
        next: Option<PlanEpoch>,
        t_reconf: Instant,
    ) -> Result<()> {
        let n = payloads.len();
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
            if let Some(next) = next {
                sc.epoch = next;
            }
        }

        {
            let deadline = Instant::now() + self.options.recv_timeout;
            let mut st = self.shared.lock();
            while st.failed.is_none() && st.acked.contains(&false) {
                let now = Instant::now();
                if now >= deadline {
                    // The Reconfigure broadcast is out (and a swap's scatter
                    // plan is replaced): the cluster is half-swapped and
                    // cannot safely serve either epoch.  Fail the session
                    // rather than reopening admission into the wreckage.
                    let acked = st.acked.iter().filter(|&&a| a).count();
                    drop(st);
                    let err = RuntimeError::transport_timeout(format!(
                        "timed out waiting for epoch {new_epoch} {acks} ({acked}/{n} received)"
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

        let shipped: usize = payloads.iter().map(ReconfigurePayload::delta_bytes).sum();
        let mut rec = self.shared.tel.recorder();
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
        Ok(())
    }

    /// Closes an epoch change: admission resumes at the new epoch.
    fn end_swap(&self) {
        self.shared.lock().swapping = false;
        self.shared.credits.notify_all();
    }
}

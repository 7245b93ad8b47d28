//! The provider worker: the paper's receive / compute / send pipeline
//! (§V-A), one worker per device.  The receive role is the transport's
//! pump or channel; a provider runs compute and send threads.
//!
//! * the **compute** thread takes each frame off the device's inbox and
//!   decodes it (its `Recv` span), assembles input bands (halo rows may
//!   arrive from several peers), runs the split-part kernels via
//!   `cnn_model::exec::run_part_on_band_packed`, and chains
//!   locally-satisfied stages without touching the transport;
//! * the **send** thread slices each computed band into per-destination
//!   overlap rows and pushes them out — so a slow link never blocks the next
//!   kernel.
//!
//! Frames for different images interleave freely, which is what makes the
//! requester's multi-image streaming genuine pipelining.
//!
//! Routing is **epoch-versioned**: the worker does not own a plan, it reads
//! the current [`PlanEpoch`] through the shared [`EpochSlot`] on every
//! frame.  A [`FrameKind::Reconfigure`] frame installs the next epoch in
//! place — it applies the delta weight shard (only the layers this device
//! does not already hold resident), rebuilds the routing table, publishes it
//! through the slot, and acks back to the requester — so a plan swap never
//! tears the worker down.  The swap protocol drains the old epoch before
//! reconfiguring and resumes admission only after every device has acked,
//! so a data frame whose epoch differs from this device's installed epoch
//! is always a protocol violation, never a race.
//!
//! Weights are resident as a **deploy-time packed artifact**: a provider is
//! spawned with its shard of kernel panels already packed, so it serves its
//! first frame at full speed.  In-process that shard is a
//! [`PackedModelWeights::shard`] of the one pack the deploy built, sharing
//! panels with every other device on the host; a cluster node packs the
//! shard its handshake shipped ([`PackedModelWeights::pack_owned`]) before
//! it spawns the provider.  A `Reconfigure` delta's
//! [`PackedModelWeights::install_layer`] is the only packing a provider
//! ever does, and it repacks only the layers that actually shipped.  The
//! per-frame kernels consume the packed panels directly — no frame ever
//! pays packing cost ([`ComputeStats::layers_packed`] is the observable
//! proof: it moves at deploy and swap time only).

use crate::report::DeviceMetrics;
use crate::routing::{overlap, EpochSlot, PlanEpoch};
use crate::transport::FrameTx;
use crate::wire::{Frame, FrameKind, ReconfigurePayload};
use crate::{Result, RuntimeError, TransportError, TransportErrorKind};
use cnn_model::exec::{self, PackedModelWeights};
use cnn_model::Model;
use edge_telemetry::{Recorder, Stage, Telemetry, TraceId, REQUESTER};
use edgesim::Endpoint;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use tensor::slice::slice_rows;
use tensor::{Shape, Tensor};

/// What a provider's compute thread shares with its owner (the receive
/// role is the transport's pump or channel; a provider runs compute and
/// send threads).  Weights are *not* here: the compute thread owns its
/// resident [`PackedModelWeights`] shard mutably so `Reconfigure` frames
/// can grow it in place (with the quantization spec it was packed with).
pub struct Shared {
    /// The model being served.
    pub model: Model,
    /// The current plan epoch, swapped in place on `Reconfigure`.
    pub slot: EpochSlot,
}

/// An in-progress input band: rows arrive from several sources (peers, the
/// requester, the local compute chain) and are stitched in place.
pub(crate) struct Assembly {
    needed: (usize, usize),
    band: Tensor,
    /// Which band rows (local coordinates) a fragment has written.
    covered: Vec<bool>,
    /// When the first fragment opened this assembly — the start of the
    /// merge span recorded when the band completes.
    created: Instant,
}

impl Assembly {
    pub(crate) fn new(c: usize, w: usize, needed: (usize, usize)) -> Self {
        Self {
            needed,
            band: Tensor::zeros(Shape::new(c, needed.1 - needed.0, w)),
            covered: vec![false; needed.1 - needed.0],
            created: Instant::now(),
        }
    }

    /// When the assembly was opened (first fragment arrival).
    pub(crate) fn created(&self) -> Instant {
        self.created
    }

    /// Copies `rows` (full coordinates starting at `row_lo`) into the band.
    /// Sources are disjoint by construction, so a fragment overlapping rows
    /// already written (a duplicated or corrupt frame) is rejected before
    /// any row is copied.
    pub(crate) fn insert(&mut self, row_lo: usize, rows: &Tensor) -> Result<()> {
        let [c, h, w] = rows.shape();
        let [bc, bh, bw] = self.band.shape();
        if c != bc || w != bw {
            return Err(RuntimeError::Execution(format!(
                "band geometry mismatch: got [{c}, {h}, {w}], assembling [{bc}, {bh}, {bw}]"
            )));
        }
        let lo = row_lo;
        let hi = row_lo + h;
        if lo < self.needed.0 || hi > self.needed.1 {
            return Err(RuntimeError::Execution(format!(
                "rows {lo}..{hi} outside needed {}..{}",
                self.needed.0, self.needed.1
            )));
        }
        let dst_lo = lo - self.needed.0;
        let span = &mut self.covered[dst_lo..dst_lo + h];
        if span.iter().any(|&done| done) {
            return Err(RuntimeError::Execution(format!(
                "rows {lo}..{hi} overlap rows already assembled in {}..{}",
                self.needed.0, self.needed.1
            )));
        }
        span.fill(true);
        for ch in 0..c {
            let src = rows.channel(ch);
            let dst_start = (ch * bh + dst_lo) * bw;
            self.band.data_mut()[dst_start..dst_start + h * w].copy_from_slice(src);
        }
        Ok(())
    }

    pub(crate) fn complete(&self) -> bool {
        self.covered.iter().all(|&done| done)
    }

    pub(crate) fn into_band(self) -> Tensor {
        self.band
    }
}

/// Compute-thread counters.
#[derive(Debug, Clone, Default)]
pub struct ComputeStats {
    /// Frames taken off the inbox, `Halt` included.
    pub frames_in: u64,
    /// Encoded bytes taken off the inbox.
    pub bytes_in: u64,
    /// Total kernel time.
    pub compute_ms: f64,
    /// Kernel time per volume (indexed by stage; sized to the largest
    /// epoch's volume count seen so far).
    pub per_volume_ms: Vec<f64>,
    /// Images whose part of each volume this device computed.
    pub per_volume_images: Vec<u64>,
    /// FC-head kernel time (head device only).
    pub head_ms: f64,
    /// Images whose head this device computed.
    pub head_images: u64,
    /// High-water mark of distinct images simultaneously in assembly —
    /// direct evidence of cross-image pipelining on this device.
    pub max_concurrent_images: usize,
    /// Weight layers packed into GEMM panels for this device — its deploy
    /// shard's layers (charged by the deploy whose packing pass built them;
    /// 0 when the deploy shares a caller's pack) plus every `Reconfigure`
    /// delta install.  Steady-state serving never moves this counter:
    /// per-frame packing would be a regression the residency tests catch
    /// here.
    pub layers_packed: u64,
    /// Data frames dropped because they carried an epoch older than the
    /// installed one — expected debris after an epoch re-sync, never
    /// triggered by a drained plan swap.
    pub stale_frames: u64,
}

/// Send-thread counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SendStats {
    /// Wall time spent inside `FrameTx::send` (wire + shaping time).
    pub tx_ms: f64,
    /// Frames pushed to peers / the requester.
    pub frames_out: u64,
    /// Encoded bytes pushed.
    pub bytes_out: u64,
}

/// Live counters of one provider's compute and send threads (the receive
/// role is the transport's pump or channel), updated in place while the
/// worker runs so a `Session` can snapshot per-device metrics mid-stream
/// (the counters only ever grow, so snapshots are monotone).
#[derive(Debug, Default)]
pub struct ProviderStats {
    /// Compute-thread counters, inbox traffic included.
    pub comp: Mutex<ComputeStats>,
    /// Send-thread counters.
    pub send: Mutex<SendStats>,
}

impl ProviderStats {
    /// Snapshots the counters into the report's per-device shape.
    pub fn snapshot(&self, scatter_ms: f64) -> DeviceMetrics {
        let comp = self.comp.lock().expect("comp stats poisoned");
        let send = self.send.lock().expect("send stats poisoned");
        DeviceMetrics {
            compute_ms: comp.compute_ms + comp.head_ms,
            tx_ms: send.tx_ms,
            scatter_ms,
            per_volume_ms: comp.per_volume_ms.clone(),
            per_volume_images: comp.per_volume_images.clone(),
            head_ms: comp.head_ms,
            head_images: comp.head_images,
            frames_in: comp.frames_in,
            bytes_in: comp.bytes_in,
            frames_out: send.frames_out,
            bytes_out: send.bytes_out,
            max_concurrent_images: comp.max_concurrent_images,
            layers_packed: comp.layers_packed,
            stale_frames: comp.stale_frames,
        }
    }
}

/// Join handles of one provider's two threads, plus its live counters.
/// The receive role is the transport's pump or channel; a provider runs
/// compute and send threads.
pub struct ProviderHandle {
    device: usize,
    comp: JoinHandle<Result<()>>,
    send: JoinHandle<Result<()>>,
    pub(crate) stats: Arc<ProviderStats>,
}

impl ProviderHandle {
    /// Waits for the provider's two threads to exit (they do once a `Halt`
    /// frame reaches the inbox, or on a worker error); the first thread
    /// error wins.  This is how a session's teardown joins its providers
    /// and how a standalone node process (the `edge-cluster` runloop)
    /// blocks on its provider's lifetime.
    pub fn join(self) -> Result<()> {
        let mut err: Option<RuntimeError> = None;
        for (role, h) in [("compute", self.comp), ("send", self.send)] {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    err.get_or_insert(e);
                }
                Err(_) => {
                    err.get_or_insert(RuntimeError::WorkerPanic(format!(
                        "device {} {role} thread",
                        self.device
                    )));
                }
            }
        }
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

enum OutMsg {
    /// A computed volume-output band to distribute (stage = the volume).
    /// Carries the epoch it was computed under so the send thread routes it
    /// by the matching table even if the slot flips concurrently.
    Band {
        image: u32,
        stage: usize,
        band: Arc<Tensor>,
        epoch: Arc<PlanEpoch>,
    },
    /// The FC-head output, heading to the requester.
    HeadResult {
        image: u32,
        tensor: Tensor,
        epoch: Arc<PlanEpoch>,
    },
    /// Confirmation that this device installed a new epoch.
    EpochAck { epoch: u64 },
}

/// Spawns provider `d` over `weights`, its packed shard: the layers `d`'s
/// parts (and, on the head device, the FC head) run.  The receive role is
/// the transport's pump or channel; a provider runs compute and send
/// threads, and the compute thread drains `inbox` itself.  It serves from
/// `weights` as given and grows them only on `Reconfigure` deltas.
pub fn spawn_provider(
    d: usize,
    shared: Arc<Shared>,
    weights: PackedModelWeights,
    inbox: Receiver<Vec<u8>>,
    txs: HashMap<Endpoint, Box<dyn FrameTx>>,
    telemetry: &Telemetry,
) -> ProviderHandle {
    let (to_send, send_rx) = channel::<OutMsg>();

    // One ring per thread, named after the Chrome-trace track it becomes.
    let comp_rec = telemetry.recorder(&format!("dev{d}.comp"), d as u32);
    let send_rec = telemetry.recorder(&format!("dev{d}.send"), d as u32);

    let stats = Arc::new(ProviderStats::default());
    // Size the per-volume counters up front so mid-stream snapshots always
    // see full-length vectors (reconfigures grow them if a later epoch has
    // more volumes).
    {
        let num_volumes = shared.slot.load().route.num_volumes;
        let mut comp = stats.comp.lock().expect("comp stats poisoned");
        comp.per_volume_ms = vec![0.0; num_volumes];
        comp.per_volume_images = vec![0; num_volumes];
    }

    let comp_stats = Arc::clone(&stats);
    let comp = std::thread::Builder::new()
        .name(format!("edge-rt-comp-{d}"))
        .spawn(move || compute_loop(d, shared, weights, inbox, to_send, comp_stats, comp_rec))
        .expect("spawn compute thread");

    let send_stats = Arc::clone(&stats);
    let send = std::thread::Builder::new()
        .name(format!("edge-rt-send-{d}"))
        .spawn(move || send_loop(d, send_rx, txs, send_stats, send_rec))
        .expect("spawn send thread");

    ProviderHandle {
        device: d,
        comp,
        send,
        stats,
    }
}

struct ComputeState {
    d: usize,
    shared: Arc<Shared>,
    /// The device's resident weights: packed at deploy, grown in place by
    /// `Reconfigure` delta shards, never touched on the frame path.
    weights: PackedModelWeights,
    assemblies: HashMap<(u32, u32), Assembly>,
    /// Open-assembly count per image — tracked incrementally so the
    /// high-water mark costs O(1) per frame, not a scan of all assemblies.
    open_images: HashMap<u32, usize>,
    to_send: Sender<OutMsg>,
    stats: Arc<ProviderStats>,
    rec: Recorder,
}

fn compute_loop(
    d: usize,
    shared: Arc<Shared>,
    weights: PackedModelWeights,
    inbox: Receiver<Vec<u8>>,
    to_send: Sender<OutMsg>,
    stats: Arc<ProviderStats>,
    rec: Recorder,
) -> Result<()> {
    let mut state = ComputeState {
        d,
        shared,
        weights,
        assemblies: HashMap::new(),
        open_images: HashMap::new(),
        to_send,
        stats,
        rec,
    };
    while let Ok(bytes) = inbox.recv() {
        let frame = state.receive(&bytes)?;
        match frame.kind {
            FrameKind::Halt => break,
            FrameKind::Rows => state.handle_rows(frame)?,
            FrameKind::Reconfigure => state.handle_reconfigure(frame)?,
            FrameKind::Result | FrameKind::EpochAck => {
                return Err(RuntimeError::Execution(format!(
                    "provider {d} received a {:?} frame",
                    frame.kind
                )))
            }
        }
    }
    Ok(())
}

impl ComputeState {
    /// Takes one encoded frame off the inbox: counts it, decodes it and
    /// records its `Recv` span (image-tagged for row frames).
    fn receive(&mut self, bytes: &[u8]) -> Result<Frame> {
        let t0 = self.rec.start();
        {
            let mut comp = self.stats.comp.lock().expect("comp stats poisoned");
            comp.frames_in += 1;
            comp.bytes_in += bytes.len() as u64;
        }
        let frame = Frame::decode(bytes)?;
        if let Some(t0) = t0 {
            let trace = match frame.kind {
                FrameKind::Rows => TraceId {
                    epoch: frame.epoch,
                    image: frame.image,
                },
                _ => TraceId::session(frame.epoch),
            };
            self.rec
                .span(Stage::Recv, trace, t0, bytes.len() as u64, frame.stage);
        }
        Ok(frame)
    }

    /// Inserts rows into the (image, stage) assembly of the current epoch;
    /// if that completes the band, runs the compute chain from there.
    ///
    /// A frame from an *older* epoch is dropped: after an epoch re-sync
    /// (a rejoined device) a surviving peer can have old-epoch bands still
    /// queued on its send side, and those must evaporate rather than kill
    /// the worker.  A frame from a *future* epoch is a protocol violation —
    /// admission only resumes once every device has acked the new epoch, so
    /// no frame can legally run ahead of this device's installed epoch.
    fn handle_rows(&mut self, frame: Frame) -> Result<()> {
        let current = self.shared.slot.load();
        if frame.epoch < current.id {
            let mut comp = self.stats.comp.lock().expect("comp stats poisoned");
            comp.stale_frames += 1;
            return Ok(());
        }
        if frame.epoch > current.id {
            return Err(RuntimeError::Execution(format!(
                "device {} received a frame of epoch {} while serving epoch {}",
                self.d, frame.epoch, current.id
            )));
        }
        let image = frame.image;
        let stage = frame.stage as usize;
        if let Some(band) =
            self.insert(&current, image, stage, frame.row_lo as usize, &frame.tensor)?
        {
            self.run_chain(&current, image, stage, band)?;
        }
        Ok(())
    }

    /// Installs the next epoch: applies the delta weight shard, rebuilds
    /// the routing table, publishes it through the slot, and acks to the
    /// requester.
    fn handle_reconfigure(&mut self, frame: Frame) -> Result<()> {
        let current = self.shared.slot.load();
        if frame.epoch != current.id + 1 {
            return Err(RuntimeError::Execution(format!(
                "device {} asked to reconfigure from epoch {} to {}; epochs must advance by one",
                self.d, current.id, frame.epoch
            )));
        }
        let t_install = self.rec.start();
        let payload = ReconfigurePayload::decode(&frame.payload)?;
        payload.check_against(&self.shared.model)?;
        let mut installed = 0u64;
        for delta in payload.delta {
            if delta.layer >= self.weights.layers().len() {
                return Err(RuntimeError::Wire(format!(
                    "reconfigure delta addresses layer {} of a {}-layer model",
                    delta.layer,
                    self.weights.layers().len()
                )));
            }
            // Pack only what shipped: layers already resident were diffed
            // out by the requester and keep their panels untouched.
            self.weights.install_layer(
                &self.shared.model,
                delta.layer,
                &delta.weights,
                &delta.bias,
            )?;
            if !delta.weights.is_empty() {
                installed += 1;
            }
        }
        // The epoch's wire precision is re-negotiated on every reconfigure:
        // a payload carrying a quant spec keeps serving q8 activations.
        let epoch = PlanEpoch::new(frame.epoch, &self.shared.model, &payload.plan)?
            .with_wire_q8(payload.quant.is_some());
        {
            let mut comp = self.stats.comp.lock().expect("comp stats poisoned");
            if epoch.route.num_volumes > comp.per_volume_ms.len() {
                comp.per_volume_ms.resize(epoch.route.num_volumes, 0.0);
                comp.per_volume_images.resize(epoch.route.num_volumes, 0);
            }
            comp.layers_packed += installed;
        }
        self.shared.slot.store(epoch);
        // Partial band assemblies belong to the epoch that produced them.
        // On a drained swap there are none; on an epoch re-sync (device
        // rejoin) they are half-built attempts whose missing rows died with
        // the old peer — the requester replays those images at the new
        // epoch, so keeping stale fragments would double-count rows.
        self.assemblies.clear();
        self.open_images.clear();
        if let Some(t0) = t_install {
            let trace = TraceId::session(frame.epoch);
            self.rec.span(
                Stage::Reconfigure,
                trace,
                t0,
                frame.payload.len() as u64,
                installed as u32,
            );
            self.rec.instant(Stage::EpochFlip, trace, 0, self.d as u32);
        }
        self.to_send
            .send(OutMsg::EpochAck { epoch: frame.epoch })
            .map_err(|_| RuntimeError::transport_disconnected("send thread is gone"))?;
        Ok(())
    }

    fn insert(
        &mut self,
        epoch: &PlanEpoch,
        image: u32,
        stage: usize,
        row_lo: usize,
        rows: &Tensor,
    ) -> Result<Option<Tensor>> {
        let needed = epoch.route.stage_needs(stage, self.d).ok_or_else(|| {
            RuntimeError::Execution(format!(
                "device {} received rows for stage {stage} it does not participate in",
                self.d
            ))
        })?;
        let (c, w) = epoch.route.stage_geom(stage);
        let key = (image, stage as u32);
        let asm = match self.assemblies.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                *self.open_images.entry(image).or_insert(0) += 1;
                let mut comp = self.stats.comp.lock().expect("comp stats poisoned");
                comp.max_concurrent_images = comp.max_concurrent_images.max(self.open_images.len());
                drop(comp);
                e.insert(Assembly::new(c, w, needed))
            }
        };
        asm.insert(row_lo, rows)?;
        if asm.complete() {
            let asm = self.assemblies.remove(&key).expect("present");
            if let Some(count) = self.open_images.get_mut(&image) {
                *count -= 1;
                if *count == 0 {
                    self.open_images.remove(&image);
                }
            }
            self.rec.span(
                Stage::Merge,
                TraceId {
                    epoch: epoch.id,
                    image,
                },
                asm.created(),
                0,
                stage as u32,
            );
            Ok(Some(asm.into_band()))
        } else {
            Ok(None)
        }
    }

    /// Runs the kernels for `stage` under `epoch`, forwards the output, and
    /// keeps going through any later stage this device can now complete
    /// locally.
    fn run_chain(
        &mut self,
        epoch: &Arc<PlanEpoch>,
        image: u32,
        mut stage: usize,
        mut band: Tensor,
    ) -> Result<()> {
        let route = &epoch.route;
        let finish = route.num_volumes;
        loop {
            if stage == finish {
                // Head gather complete: run the FC head, return the result.
                let t0 = Instant::now();
                let out = exec::run_head_packed(&self.shared.model, &self.weights, &band)?;
                let t1 = Instant::now();
                {
                    let mut comp = self.stats.comp.lock().expect("comp stats poisoned");
                    comp.head_ms += (t1 - t0).as_secs_f64() * 1e3;
                    comp.head_images += 1;
                }
                self.rec.span_between(
                    Stage::Head,
                    TraceId {
                        epoch: epoch.id,
                        image,
                    },
                    t0,
                    t1,
                    0,
                    0,
                );
                self.to_send
                    .send(OutMsg::HeadResult {
                        image,
                        tensor: out,
                        epoch: Arc::clone(epoch),
                    })
                    .map_err(|_| RuntimeError::transport_disconnected("send thread is gone"))?;
                return Ok(());
            }

            let part = &route.parts[stage][self.d];
            let t0 = Instant::now();
            let out = exec::run_part_on_band_packed(&self.shared.model, &self.weights, part, band)?;
            let t1 = Instant::now();
            let ms = (t1 - t0).as_secs_f64() * 1e3;
            {
                let mut comp = self.stats.comp.lock().expect("comp stats poisoned");
                comp.compute_ms += ms;
                comp.per_volume_ms[stage] += ms;
                comp.per_volume_images[stage] += 1;
            }
            self.rec.span_between(
                Stage::Compute(stage as u16),
                TraceId {
                    epoch: epoch.id,
                    image,
                },
                t0,
                t1,
                0,
                0,
            );

            let out = Arc::new(out);
            let out_range = part.output_rows;
            self.to_send
                .send(OutMsg::Band {
                    image,
                    stage,
                    band: Arc::clone(&out),
                    epoch: Arc::clone(epoch),
                })
                .map_err(|_| RuntimeError::transport_disconnected("send thread is gone"))?;

            // Keep whatever the next stage needs from us locally.
            let next = stage + 1;
            let Some(need) = route.stage_needs(next, self.d) else {
                return Ok(());
            };
            let Some((lo, hi)) = overlap(out_range, need) else {
                return Ok(());
            };
            let local = slice_rows(&out, lo - out_range.0, hi - out_range.0)?;
            match self.insert(epoch, image, next, lo, &local)? {
                Some(next_band) => {
                    stage = next;
                    band = next_band;
                }
                None => return Ok(()),
            }
        }
    }
}

fn send_loop(
    d: usize,
    rx: Receiver<OutMsg>,
    mut txs: HashMap<Endpoint, Box<dyn FrameTx>>,
    stats: Arc<ProviderStats>,
    mut rec: Recorder,
) -> Result<()> {
    let mut timed_send = |txs: &mut HashMap<Endpoint, Box<dyn FrameTx>>,
                          to: Endpoint,
                          frame: &Frame,
                          trace: TraceId|
     -> Result<()> {
        let tx = txs.get_mut(&to).ok_or_else(|| {
            RuntimeError::Transport(
                TransportError::new(
                    TransportErrorKind::Config,
                    format!("device {d} has no link to this peer"),
                )
                .at(to),
            )
        })?;
        let t0 = Instant::now();
        let n = tx.send(frame)?;
        let t1 = Instant::now();
        {
            let mut send = stats.send.lock().expect("send stats poisoned");
            send.tx_ms += (t1 - t0).as_secs_f64() * 1e3;
            send.frames_out += 1;
            send.bytes_out += n as u64;
        }
        let dest = match to {
            Endpoint::Device(p) => p as u32,
            Endpoint::Requester => REQUESTER,
        };
        rec.span_between(Stage::Tx, trace, t0, t1, n as u64, dest);
        Ok(())
    };

    while let Ok(msg) = rx.recv() {
        match msg {
            OutMsg::Band {
                image,
                stage,
                band,
                epoch,
            } => {
                let out_lo = epoch.route.out_ranges[stage][d].0;
                for target in epoch.route.send_targets(stage, d) {
                    let (lo, hi) = target.rows;
                    let rows = slice_rows(&band, lo - out_lo, hi - out_lo)?;
                    // Inter-device activations travel as q8 slabs on
                    // quantized epochs; head/requester results stay f32.
                    let frame = if epoch.wire_q8 && target.kind == FrameKind::Rows {
                        Frame::rows_q8(epoch.id, image, target.stage, lo as u32, &rows)
                    } else {
                        Frame::data(target.kind, epoch.id, image, target.stage, lo as u32, rows)
                    };
                    let trace = TraceId {
                        epoch: epoch.id,
                        image,
                    };
                    timed_send(&mut txs, target.to, &frame, trace)?;
                }
            }
            OutMsg::HeadResult {
                image,
                tensor,
                epoch,
            } => {
                let frame = Frame::data(
                    FrameKind::Result,
                    epoch.id,
                    image,
                    epoch.route.finish_stage(),
                    0,
                    tensor,
                );
                let trace = TraceId {
                    epoch: epoch.id,
                    image,
                };
                timed_send(&mut txs, Endpoint::Requester, &frame, trace)?;
            }
            OutMsg::EpochAck { epoch } => {
                let frame = Frame::epoch_ack(epoch, d);
                timed_send(
                    &mut txs,
                    Endpoint::Requester,
                    &frame,
                    TraceId::session(epoch),
                )?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembly_stitches_disjoint_spans() {
        let mut asm = Assembly::new(2, 3, (4, 10));
        assert!(!asm.complete());
        let top = Tensor::from_fn([2, 2, 3], |c, y, x| (100 * c + 10 * y + x) as f32);
        let bottom = Tensor::from_fn([2, 4, 3], |c, y, x| -((100 * c + 10 * y + x) as f32));
        asm.insert(4, &top).unwrap();
        assert!(!asm.complete());
        asm.insert(6, &bottom).unwrap();
        assert!(asm.complete());
        let band = asm.into_band();
        assert_eq!(band.shape(), [2, 6, 3]);
        assert_eq!(band.get(0, 0, 1), 1.0); // top row 4 -> local row 0
        assert_eq!(band.get(1, 2, 0), -100.0); // bottom row 6 -> local row 2
    }

    #[test]
    fn assembly_rejects_out_of_range_rows() {
        let mut asm = Assembly::new(1, 2, (0, 4));
        let rows = Tensor::zeros([1, 2, 2]);
        assert!(asm.insert(3, &rows).is_err()); // 3..5 leaves needed 0..4
        let wrong_w = Tensor::zeros([1, 1, 3]);
        assert!(asm.insert(0, &wrong_w).is_err());
    }

    #[test]
    fn assembly_rejects_overlapping_spans() {
        let mut asm = Assembly::new(1, 2, (0, 4));
        let rows = Tensor::filled([1, 2, 2], 1.0);
        asm.insert(0, &rows).unwrap();
        // A repeat, or a fragment straddling written rows: refused, and rows
        // 2..4 were never written, so the band must not complete.
        for row_lo in [0, 1] {
            let overlap = asm.insert(row_lo, &rows);
            assert!(matches!(overlap, Err(RuntimeError::Execution(_))));
        }
        assert!(!asm.complete());
        asm.insert(2, &rows).unwrap();
        assert!(asm.complete());
    }

    /// The provider's inbox sender, the requester's inbox, the provider.
    type LoneProvider = (Sender<Vec<u8>>, Receiver<Vec<u8>>, ProviderHandle);

    /// Spawns provider 0 of a one-device conv + FC model serving plan epoch
    /// `epoch`.  Its link is the requester inbox's only sender, so that
    /// inbox disconnects exactly when the send thread exits.
    fn lone_provider(epoch: u64) -> Result<LoneProvider> {
        use crate::transport::{ChannelTransport, Transport};
        use cnn_model::{exec::ModelWeights, LayerOp};

        let layers = [LayerOp::conv(2, 3, 1, 1), LayerOp::fc(2)];
        let model = Model::new("lone", Shape::new(1, 4, 4), &layers)?;
        let plan = edgesim::ExecutionPlan::offload(&model, 0, 1)?;
        let raw = ModelWeights::deterministic(&model, 1);
        let weights = PackedModelWeights::pack(&model, &raw)?;
        let slot = EpochSlot::new(PlanEpoch::new(epoch, &model, &plan)?);
        let mut fabric = ChannelTransport::new(1);
        let requester = fabric.inbox(Endpoint::Requester)?;
        let link = fabric.open(Endpoint::Device(0), Endpoint::Requester)?;
        let txs = HashMap::from([(Endpoint::Requester, link)]);
        drop(fabric);
        let (to_provider, inbox) = channel();
        let shared = Arc::new(Shared { model, slot });
        let handle = spawn_provider(0, shared, weights, inbox, txs, &Telemetry::disabled());
        Ok((to_provider, requester, handle))
    }

    #[test]
    fn malformed_frame_stops_the_provider_with_a_wire_error() -> Result<()> {
        use std::sync::mpsc::RecvTimeoutError;
        use std::time::Duration;

        let (to_provider, requester, handle) = lone_provider(0)?;
        let mut bytes = Frame::halt().encode();
        bytes[4] ^= 0xFF; // the first magic byte, after the length prefix
        assert!(to_provider.send(bytes).is_ok());
        let gone = requester.recv_timeout(Duration::from_secs(10));
        assert_eq!(gone, Err(RecvTimeoutError::Disconnected));
        assert!(matches!(handle.join(), Err(RuntimeError::Wire(_))));
        Ok(())
    }

    #[test]
    fn old_epoch_rows_are_dropped_and_counted_as_stale() -> Result<()> {
        let (to_provider, _requester, handle) = lone_provider(1)?;
        let rows = Frame::data(FrameKind::Rows, 0, 0, 0, 0, Tensor::zeros([1, 4, 4]));
        for frame in [rows, Frame::halt()] {
            assert!(to_provider.send(frame.encode()).is_ok());
        }
        let stats = Arc::clone(&handle.stats);
        handle.join()?;
        assert_eq!(stats.snapshot(0.0).stale_frames, 1);
        Ok(())
    }
}

//! The session's result pump: one thread that owns the requester inbox.

use super::{SessionShared, GATHER_TICK};
use crate::provider::Assembly;
use crate::routing::RouteTable;
use crate::wire::{Frame, FrameKind};
use crate::{Result, RuntimeError};
use cnn_model::Model;
use edge_telemetry::{Recorder, Stage, Telemetry, TraceId, REQUESTER};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

struct GatherConfig {
    /// The model's output shape when an FC-head device returns it whole;
    /// `None` when the requester stitches the result from row bands.
    head_shape: Option<[usize; 3]>,
    result_c: usize,
    result_w: usize,
    last_height: usize,
    recv_timeout: Duration,
}

/// Spawns the gather thread over the requester `inbox`; the result
/// geometry is that of `route`'s finishing stage, or `model`'s output when
/// the route has a head device.
pub(super) fn spawn(
    inbox: Receiver<Vec<u8>>,
    shared: Arc<SessionShared>,
    stop: Arc<AtomicBool>,
    model: &Model,
    route: &RouteTable,
    recv_timeout: Duration,
    telemetry: &Telemetry,
) -> JoinHandle<Receiver<Vec<u8>>> {
    let (result_c, result_w) = route.stage_geom(route.finish_stage() as usize);
    let output = model.layers().last().map(|l| l.output.as_array());
    let cfg = GatherConfig {
        head_shape: route.head_device.and(output),
        result_c,
        result_w,
        last_height: route.last_height,
        recv_timeout,
    };
    // The gather thread's own ring: merge spans for headless stitching.
    let rec = telemetry.recorder("requester.gather", REQUESTER);
    std::thread::Builder::new()
        .name("edge-rt-gather".into())
        .spawn(move || gather_loop(inbox, shared, stop, cfg, rec))
        .expect("spawn gather thread")
}

/// The session's result pump: receives result frames, stitches headless
/// outputs, completes tickets, releases credits, records epoch acks during
/// swaps, and watches for a wedged cluster.  Returns the requester inbox so
/// teardown can keep it alive until the providers are joined.
fn gather_loop(
    inbox: Receiver<Vec<u8>>,
    shared: Arc<SessionShared>,
    stop: Arc<AtomicBool>,
    cfg: GatherConfig,
    mut rec: Recorder,
) -> Receiver<Vec<u8>> {
    let mut assemblies: HashMap<(u32, u64), Assembly> = HashMap::new();
    let mut waiting_since: Option<Instant> = None;
    let tick = GATHER_TICK.min(cfg.recv_timeout);
    loop {
        if stop.load(Ordering::SeqCst) {
            return inbox;
        }
        match inbox.recv_timeout(tick) {
            Ok(bytes) => {
                waiting_since = None;
                if let Err(e) =
                    handle_requester_frame(&bytes, &shared, &cfg, &mut assemblies, &mut rec)
                {
                    shared.fail(&e);
                    return inbox;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                let starving = {
                    let st = shared.lock();
                    !st.in_flight.is_empty() && st.failed.is_none()
                };
                if starving {
                    let since = *waiting_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= cfg.recv_timeout {
                        shared.fail(&RuntimeError::transport_timeout(
                            "timed out waiting for results",
                        ));
                        return inbox;
                    }
                } else {
                    waiting_since = None;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                // Every sending half is gone — the session is tearing down.
                return inbox;
            }
        }
    }
}

fn handle_requester_frame(
    bytes: &[u8],
    shared: &SessionShared,
    cfg: &GatherConfig,
    assemblies: &mut HashMap<(u32, u64), Assembly>,
    rec: &mut Recorder,
) -> Result<()> {
    let frame = Frame::decode(bytes)?;
    match frame.kind {
        FrameKind::Result => {}
        FrameKind::EpochAck => {
            let mut st = shared.lock();
            if frame.epoch == st.swap_target {
                // Each ack names its device: a repeat is a no-op, and a
                // device the session lacks is a protocol violation.
                let device = frame.image as usize;
                let n = st.acked.len();
                let Some(acked) = st.acked.get_mut(device) else {
                    return Err(RuntimeError::transport_protocol(format!(
                        "epoch {} ack from device {device}, the session has {n}",
                        frame.epoch
                    )));
                };
                *acked = true;
            }
            drop(st);
            shared.credits.notify_all();
            return Ok(());
        }
        other => {
            return Err(RuntimeError::Execution(format!(
                "requester received unexpected {other:?} frame"
            )));
        }
    }
    let image = frame.image;
    let done = if let Some(shape) = cfg.head_shape {
        // The head output arrives whole; a decodable frame of another shape
        // is a corrupt result, never an output.
        if frame.tensor.shape() != shape {
            return Err(RuntimeError::Execution(format!(
                "head result for image {image} has shape {:?}, the model outputs {shape:?}",
                frame.tensor.shape()
            )));
        }
        Some(frame.tensor)
    } else {
        // Keyed by (image, epoch): after an epoch re-sync, bands of the
        // original attempt and of the replay can interleave at the inbox,
        // and rows from two different epochs must never stitch into one
        // output.
        let key = (image, frame.epoch);
        let asm = assemblies
            .entry(key)
            .or_insert_with(|| Assembly::new(cfg.result_c, cfg.result_w, (0, cfg.last_height)));
        asm.insert(frame.row_lo as usize, &frame.tensor)?;
        if asm.complete() {
            let asm = assemblies.remove(&key).expect("present");
            // Any partial assembly of the same image under another epoch is
            // an abandoned attempt — drop it.
            assemblies.retain(|&(img, _), _| img != image);
            rec.span(
                Stage::Merge,
                TraceId {
                    epoch: frame.epoch,
                    image,
                },
                asm.created(),
                0,
                frame.stage,
            );
            Some(asm.into_band())
        } else {
            None
        }
    };
    let Some(out) = done else { return Ok(()) };

    let mut st = shared.lock();
    let Some((start, _input)) = st.in_flight.remove(&image) else {
        // No longer in flight: after an epoch re-sync the original result
        // can race its replayed twin — whichever lands second is dropped.
        // A result for an image that was never submitted is a protocol
        // violation.
        return if u64::from(image) < st.submitted {
            Ok(())
        } else {
            Err(RuntimeError::Execution(format!(
                "result for image {image} which was never submitted"
            )))
        };
    };
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    st.outputs.insert(image, out);
    st.latencies_ms.push(latency_ms);
    drop(st);
    shared.results.notify_all();
    shared.credits.notify_all();
    Ok(())
}

use super::*;
use crate::transport::{ChannelTransport, Transport};
use crate::wire::FrameKind;
use crate::TransportErrorKind;
use cnn_model::exec::{self, deterministic_input};
use cnn_model::LayerOp;
use edge_telemetry::{Stage, TraceId};
use edgesim::Endpoint;
use tensor::Shape;

fn model() -> Model {
    Model::new(
        "session-test",
        Shape::new(2, 16, 12),
        &[
            LayerOp::conv(4, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::fc(3),
        ],
    )
    .unwrap()
}

fn plan(m: &Model, devices: usize) -> ExecutionPlan {
    use cnn_model::{PartitionScheme, VolumeSplit};
    let scheme = PartitionScheme::single_volume(m);
    let split = VolumeSplit::equal(devices, m.prefix_output().h);
    ExecutionPlan::from_splits(m, &scheme, &[split], devices).unwrap()
}

/// A fabric whose provider-bound data frames vanish (providers never
/// produce results), while halt frames still get through so teardown
/// can join the workers.  Turns credit exhaustion deterministic.
struct BlackholeTransport {
    inner: ChannelTransport,
}

struct BlackholeTx {
    inner: Box<dyn FrameTx>,
}

impl FrameTx for BlackholeTx {
    fn send(&mut self, frame: &Frame) -> Result<usize> {
        if frame.kind == FrameKind::Halt {
            self.inner.send(frame)
        } else {
            Ok(frame.encoded_len())
        }
    }
}

impl Transport for BlackholeTransport {
    fn open(&mut self, from: Endpoint, to: Endpoint) -> Result<Box<dyn FrameTx>> {
        let inner = self.inner.open(from, to)?;
        Ok(Box::new(BlackholeTx { inner }))
    }

    fn inbox(&mut self, at: Endpoint) -> Result<Receiver<Vec<u8>>> {
        self.inner.inbox(at)
    }
}

/// A fabric that swaps the tensor of the first `Result` frame sent to the
/// requester for one with an extra channel: a corrupt but decodable head
/// output.
struct ReshapingTransport {
    inner: ChannelTransport,
}

struct ReshapingTx {
    inner: Box<dyn FrameTx>,
    reshaped: bool,
}

impl FrameTx for ReshapingTx {
    fn send(&mut self, frame: &Frame) -> Result<usize> {
        if frame.kind != FrameKind::Result || self.reshaped {
            return self.inner.send(frame);
        }
        self.reshaped = true;
        let [c, h, w] = frame.tensor.shape();
        let mut wrong = frame.clone();
        wrong.tensor = Tensor::from_vec([c + 1, h, w], vec![0.5; (c + 1) * h * w]).unwrap();
        self.inner.send(&wrong)
    }
}

impl Transport for ReshapingTransport {
    fn open(&mut self, from: Endpoint, to: Endpoint) -> Result<Box<dyn FrameTx>> {
        let inner = self.inner.open(from, to)?;
        if to != Endpoint::Requester {
            return Ok(inner);
        }
        Ok(Box::new(ReshapingTx {
            inner,
            reshaped: false,
        }))
    }

    fn inbox(&mut self, at: Endpoint) -> Result<Receiver<Vec<u8>>> {
        self.inner.inbox(at)
    }
}

/// A fabric that tampers with the providers' epoch acks: device 0's ack is
/// sent twice, and device 1's is dropped — or, with `rename` set, sent
/// naming that device instead of itself.
struct AckTamperingTransport {
    inner: ChannelTransport,
    rename: Option<u32>,
}

struct AckTamperingTx {
    inner: Box<dyn FrameTx>,
    device: usize,
    rename: Option<u32>,
}

impl FrameTx for AckTamperingTx {
    fn send(&mut self, frame: &Frame) -> Result<usize> {
        if frame.kind != FrameKind::EpochAck {
            return self.inner.send(frame);
        }
        match (self.device, self.rename) {
            (0, _) => {
                self.inner.send(frame)?;
                self.inner.send(frame)
            }
            (_, None) => Ok(frame.encoded_len()),
            (_, Some(device)) => {
                let mut renamed = frame.clone();
                renamed.image = device;
                self.inner.send(&renamed)
            }
        }
    }
}

impl Transport for AckTamperingTransport {
    fn open(&mut self, from: Endpoint, to: Endpoint) -> Result<Box<dyn FrameTx>> {
        let inner = self.inner.open(from, to)?;
        match (from, to) {
            (Endpoint::Device(device), Endpoint::Requester) => Ok(Box::new(AckTamperingTx {
                inner,
                device,
                rename: self.rename,
            })),
            _ => Ok(inner),
        }
    }

    fn inbox(&mut self, at: Endpoint) -> Result<Receiver<Vec<u8>>> {
        self.inner.inbox(at)
    }
}

/// Deploys the two-device split over an [`AckTamperingTransport`] and
/// swaps to an offload, which must fail.
fn swap_over_tampered_acks(rename: Option<u32>) -> (Session, RuntimeError) {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 23);
    let mut transport = AckTamperingTransport {
        inner: ChannelTransport::new(2),
        rename,
    };
    let options = RuntimeOptions::default().with_recv_timeout(Duration::from_millis(300));
    let session = Deploy::new(&m, &plan(&m, 2), &weights)
        .over(&mut transport)
        .options(options)
        .start()
        .unwrap();
    let offload = ExecutionPlan::offload(&m, 0, 2).unwrap();
    match session.apply_plan(&offload) {
        Ok(swap) => panic!(
            "the swap flipped to epoch {} on one device's acks",
            swap.epoch
        ),
        Err(e) => (session, e),
    }
}

#[test]
fn a_repeated_ack_does_not_stand_in_for_a_missing_device() {
    let (session, err) = swap_over_tampered_acks(None);
    let msg = err.to_string();
    assert!(msg.contains("(1/2 received)"), "{msg}");
    assert_eq!(
        err.as_transport().map(|t| t.kind),
        Some(TransportErrorKind::Timeout)
    );
    assert_eq!(session.epoch(), 0, "the epoch never flipped");
    assert!(
        session.shutdown().is_err(),
        "the half-swapped session stays failed"
    );
}

#[test]
fn an_ack_naming_a_device_the_session_lacks_fails_the_session() {
    let (session, err) = swap_over_tampered_acks(Some(2));
    assert!(err.to_string().contains("device 2"), "{err}");
    let failure = session.failure().expect("the session failed");
    assert!(failure.contains("device 2"), "{failure}");
    assert!(session.shutdown().is_err());
}

#[test]
fn session_serves_two_waves_without_redeploying() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 3);
    let plan = plan(&m, 2);
    let session = Deploy::new(&m, &plan, &weights).start().unwrap();
    for wave in 0..2u64 {
        let images: Vec<Tensor> = (0..3)
            .map(|i| deterministic_input(&m, 10 * wave + i))
            .collect();
        let tickets: Vec<Ticket> = images
            .iter()
            .map(|img| session.submit(img).unwrap())
            .collect();
        for (img, t) in images.iter().zip(tickets) {
            let out = session.wait(t).unwrap();
            let reference = exec::run_full(&m, &weights, img).unwrap();
            assert_eq!(&out, reference.last().unwrap());
        }
    }
    let report = session.shutdown().unwrap();
    assert_eq!(report.images, 6);
    assert_eq!(report.sim.per_image_latency_ms.len(), 6);
    assert_eq!(report.epoch, 0);
}

#[test]
fn try_submit_is_credit_gated() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 5);
    let plan = plan(&m, 2);
    let mut transport = BlackholeTransport {
        inner: ChannelTransport::new(2),
    };
    let options = RuntimeOptions::default()
        .with_max_in_flight(2)
        .with_recv_timeout(Duration::from_millis(50));
    let session = Deploy::new(&m, &plan, &weights)
        .over(&mut transport)
        .options(options)
        .start()
        .unwrap();
    let img = deterministic_input(&m, 0);

    // The window admits exactly `max_in_flight` images; with providers
    // black-holed no result ever frees a credit, so the next submit is
    // deterministically declined.
    assert!(session.try_submit(&img).unwrap().is_some());
    assert!(session.try_submit(&img).unwrap().is_some());
    assert_eq!(session.in_flight(), 2);
    assert!(session.try_submit(&img).unwrap().is_none());
    assert_eq!(session.metrics().max_in_flight_observed, 2);

    // The gather thread declares the cluster wedged after recv_timeout
    // and fails the session; shutdown surfaces that instead of a report.
    let err = session.shutdown();
    assert!(err.is_err(), "wedged session must fail shutdown");
}

#[test]
fn a_head_result_of_the_wrong_shape_fails_the_session() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 3);
    let plan = plan(&m, 2);
    assert!(plan.head_device.is_some(), "the test model has an FC head");
    let mut transport = ReshapingTransport {
        inner: ChannelTransport::new(2),
    };
    let session = Deploy::new(&m, &plan, &weights)
        .over(&mut transport)
        .start()
        .unwrap();
    let ticket = session.submit(&deterministic_input(&m, 0)).unwrap();
    match session.wait(ticket) {
        Err(RuntimeError::Execution(msg)) => assert!(msg.contains("shape"), "{msg}"),
        other => panic!("a wrong-shape head result was served: {other:?}"),
    }
    assert!(session.shutdown().is_err(), "the session stays failed");
}

#[test]
fn wait_rejects_foreign_and_double_claims() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 7);
    let plan = plan(&m, 2);
    let session = Deploy::new(&m, &plan, &weights).start().unwrap();
    let t = session.submit(&deterministic_input(&m, 1)).unwrap();
    session.wait(t).unwrap();
    assert!(session.wait(t).is_err(), "double claim must fail");
    assert!(
        session.wait(Ticket { image: 99 }).is_err(),
        "unsubmitted ticket must fail"
    );
    session.shutdown().unwrap();
}

#[test]
fn wait_timeout_expires_and_ticket_stays_valid() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 5);
    let plan = plan(&m, 2);
    let mut transport = BlackholeTransport {
        inner: ChannelTransport::new(2),
    };
    // Long recv_timeout: the session stays healthy while we probe the
    // bounded wait; the blackhole guarantees no result ever arrives.
    let options = RuntimeOptions::default()
        .with_max_in_flight(2)
        .with_recv_timeout(Duration::from_secs(60));
    let session = Deploy::new(&m, &plan, &weights)
        .over(&mut transport)
        .options(options)
        .start()
        .unwrap();
    let t = session.submit(&deterministic_input(&m, 0)).unwrap();
    let t0 = Instant::now();
    let out = session.wait_timeout(t, Duration::from_millis(30)).unwrap();
    assert!(out.is_none(), "blackholed result must time out");
    assert!(t0.elapsed() >= Duration::from_millis(30));
    // The ticket is still claimable — a second bounded wait also times
    // out instead of erroring.
    assert!(session
        .wait_timeout(t, Duration::from_millis(5))
        .unwrap()
        .is_none());
    drop(session); // Drop-teardown: blackholed work never completes.
}

#[test]
fn try_recv_claims_any_ready_output() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 9);
    let plan = plan(&m, 2);
    let session = Deploy::new(&m, &plan, &weights).start().unwrap();
    let a = session.submit(&deterministic_input(&m, 1)).unwrap();
    let b = session.submit(&deterministic_input(&m, 2)).unwrap();
    let mut got = Vec::new();
    while got.len() < 2 {
        if let Some((ticket, _)) = session.try_recv() {
            got.push(ticket);
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    got.sort_by_key(Ticket::image);
    assert_eq!(got, vec![a, b]);
    session.shutdown().unwrap();
}

#[test]
fn submit_rejects_wrong_shape() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 11);
    let plan = plan(&m, 2);
    let session = Deploy::new(&m, &plan, &weights).start().unwrap();
    assert!(session.submit(&Tensor::zeros([1, 2, 3])).is_err());
    session.shutdown().unwrap();
}

#[test]
fn weight_sharding_ships_only_needed_layers() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 15);
    let full_bytes = weights.resident_bytes();

    // Offload plan: only device 1 runs anything, so only it holds
    // weights — and it holds the full set (every layer plus the head).
    let offload = ExecutionPlan::offload(&m, 1, 3).unwrap();
    let session = Deploy::new(&m, &offload, &weights).start().unwrap();
    assert_eq!(session.resident_weight_bytes(), vec![0, full_bytes, 0]);
    // Sharded weights still compute the right answer.
    let img = deterministic_input(&m, 3);
    let t = session.submit(&img).unwrap();
    let out = session.wait(t).unwrap();
    assert_eq!(
        &out,
        exec::run_full(&m, &weights, &img).unwrap().last().unwrap()
    );
    session.shutdown().unwrap();

    // Row-split plan: both devices run the conv volumes, but only the
    // head device holds the FC layer, so the other stays strictly below
    // the full footprint.
    let split = plan(&m, 2);
    let session = Deploy::new(&m, &split, &weights).start().unwrap();
    let resident = session.resident_weight_bytes();
    assert!(
        resident.iter().any(|&b| b < full_bytes),
        "some device must shed the head weights: {resident:?} vs full {full_bytes}"
    );
    assert!(
        resident.iter().all(|&b| b > 0),
        "every device participates in the split: {resident:?}"
    );
    let t = session.submit(&img).unwrap();
    let out = session.wait(t).unwrap();
    assert_eq!(
        &out,
        exec::run_full(&m, &weights, &img).unwrap().last().unwrap()
    );
    session.shutdown().unwrap();
}

#[test]
fn apply_plan_swaps_and_ships_only_deltas() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 17);
    let full_bytes = weights.resident_bytes();
    let img = deterministic_input(&m, 4);
    let reference = exec::run_full(&m, &weights, &img)
        .unwrap()
        .last()
        .unwrap()
        .clone();

    // Start offloaded on device 0: device 1 holds nothing.
    let offload = ExecutionPlan::offload(&m, 0, 2).unwrap();
    let session = Deploy::new(&m, &offload, &weights).start().unwrap();
    assert_eq!(session.epoch(), 0);
    let t = session.submit(&img).unwrap();
    assert_eq!(session.wait(t).unwrap(), reference);

    // Swap to the equal split: device 0 already holds everything (zero
    // delta), device 1 receives exactly the layers it was missing.
    let split = plan(&m, 2);
    let swap = session.apply_plan(&split).unwrap();
    assert_eq!(swap.epoch, 1);
    assert_eq!(session.epoch(), 1);
    assert_eq!(swap.delta_bytes[0], 0, "device 0 had every layer resident");
    assert!(swap.delta_bytes[1] > 0, "device 1 must receive its layers");
    assert!(
        swap.reused_bytes[0] > 0 && swap.reused_bytes[0] < full_bytes,
        "device 0 reuses exactly the layers the split needs: {}",
        swap.reused_bytes[0]
    );
    assert_eq!(swap.reused_bytes[1], 0, "device 1 held nothing to reuse");
    let t = session.submit(&img).unwrap();
    assert_eq!(session.wait(t).unwrap(), reference, "bit-exact across swap");

    // Swap back: everything is already resident, so nothing ships.
    let swap = session.apply_plan(&offload).unwrap();
    assert_eq!(swap.epoch, 2);
    assert_eq!(swap.total_delta_bytes(), 0, "swap-back reuses residency");
    let t = session.submit(&img).unwrap();
    assert_eq!(session.wait(t).unwrap(), reference);

    let report = session.shutdown().unwrap();
    assert_eq!(report.images, 3);
    assert_eq!(report.epoch, 2);
}

#[test]
fn apply_plan_rejects_wrong_device_count() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 19);
    let session = Deploy::new(&m, &plan(&m, 2), &weights).start().unwrap();
    let three = plan(&m, 3);
    assert!(session.apply_plan(&three).is_err());
    session.shutdown().unwrap();
}

#[test]
fn remote_deploy_serves_the_spec_its_nodes_got() {
    let m = model();
    let p = plan(&m, 2);
    let weights = Arc::new(ModelWeights::deterministic(&m, 23));
    let spec = QuantSpec::calibrate(&m, &weights).unwrap();
    let start = |quant: Option<QuantSpec>, quantized: bool| {
        let raw = Arc::clone(&weights);
        Deploy::new(&m, &p, WeightSource::Remote { raw, quant })
            .options(RuntimeOptions::default().with_quantized(quantized))
            .start()
    };
    // Quantized without the nodes' spec, or f32 with one: typed errors.
    assert!(matches!(start(None, true), Err(RuntimeError::Execution(_))));
    assert!(matches!(
        start(Some(spec.clone()), false),
        Err(RuntimeError::Execution(_))
    ));
    // (No node behind the default fabric: dropping skips the Halt check.)
    assert!(start(Some(spec), true).unwrap().quantized());
}

#[test]
fn traced_session_records_the_full_image_lifecycle() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 21);
    let telemetry = Telemetry::new();
    let session = Deploy::new(&m, &plan(&m, 2), &weights)
        .telemetry(&telemetry)
        .start()
        .unwrap();
    let img = deterministic_input(&m, 2);
    let t = session.submit(&img).unwrap();
    session.wait(t).unwrap();

    // A hot swap shows up as swap-protocol events next to its own report.
    let offload = ExecutionPlan::offload(&m, 0, 2).unwrap();
    let swap = session.apply_plan(&offload).unwrap();
    assert_eq!(swap.epoch, 1);
    assert!(swap.total_delta_bytes() > 0);
    assert_eq!(session.in_flight(), 0);
    assert_eq!(session.epoch(), 1);
    let final_report = session.shutdown().unwrap();
    assert_eq!(final_report.images, 1);
    assert_eq!(final_report.epoch, 1);

    let report = telemetry.collect();
    let stages = report.stages_seen(0);
    for stage in ["submit", "scatter", "recv", "compute", "head", "tx", "wait"] {
        assert!(
            stages.contains(&stage),
            "stage {stage} missing from image 0's trace: {stages:?}"
        );
    }
    assert!(
        !report.devices_seen(0).is_empty(),
        "device spans must appear for image 0"
    );
    let cp = report.critical_path(0).unwrap();
    assert!(cp.wall_ms > 0.0);
    assert!(cp.stages.iter().any(|s| s.stage == cp.dominant));

    // The swap's trace carries what its report measured: the flip to epoch
    // 1 on both devices and the requester, and a requester reconfigure
    // span whose bytes are the deltas shipped.
    let swap_events: Vec<_> = report
        .tracks
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.trace == TraceId::session(1))
        .collect();
    let flips = swap_events.iter().filter(|e| e.stage == Stage::EpochFlip);
    assert_eq!(flips.count(), 3);
    let reconfigure = swap_events
        .iter()
        .find(|e| e.stage == Stage::Reconfigure && e.device == REQUESTER)
        .expect("requester-side reconfigure span");
    assert_eq!(reconfigure.bytes, swap.total_delta_bytes() as u64);
}

#[test]
fn untraced_session_records_nothing() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 23);
    let telemetry = Telemetry::disabled();
    let session = Deploy::new(&m, &plan(&m, 2), &weights)
        .telemetry(&telemetry)
        .start()
        .unwrap();
    let t = session.submit(&deterministic_input(&m, 1)).unwrap();
    session.wait(t).unwrap();
    session.shutdown().unwrap();
    assert_eq!(telemetry.collect().span_count(), 0);
}

#[test]
fn quantized_session_tracks_f32_within_tolerance() {
    // Deep enough channels that the stem conv (k = 8·9 = 72) and the FC
    // head (384 inputs) both route to the int8 kernels.
    let m = Model::new(
        "session-q8",
        Shape::new(8, 16, 12),
        &[
            LayerOp::conv(8, 3, 1, 1),
            LayerOp::conv(8, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::fc(5),
        ],
    )
    .unwrap();
    let weights = ModelWeights::deterministic(&m, 33);
    let plan = plan(&m, 2);
    let options = RuntimeOptions::default().with_quantized(true);
    let session = Deploy::new(&m, &plan, &weights)
        .options(options)
        .start()
        .unwrap();
    assert!(session.quantized());

    for seed in 0..3u64 {
        let img = deterministic_input(&m, seed);
        let reference = exec::run_full(&m, &weights, &img)
            .unwrap()
            .last()
            .unwrap()
            .clone();
        let t = session.submit(&img).unwrap();
        let out = session.wait(t).unwrap();
        assert_eq!(out.shape(), reference.shape());
        let range = reference
            .data()
            .iter()
            .fold(0.0f32, |acc, &v| acc.max(v.abs()))
            .max(1e-6);
        let diff = out.max_abs_diff(&reference).unwrap();
        assert!(
            diff <= 0.05 * range,
            "quantized output drifted: diff {diff} vs range {range} (seed {seed})"
        );
    }

    // A hot swap re-negotiates the quantized epoch: outputs stay within
    // the same tolerance after the flip.
    let offload = ExecutionPlan::offload(&m, 0, 2).unwrap();
    session.apply_plan(&offload).unwrap();
    let img = deterministic_input(&m, 7);
    let reference = exec::run_full(&m, &weights, &img)
        .unwrap()
        .last()
        .unwrap()
        .clone();
    let t = session.submit(&img).unwrap();
    let out = session.wait(t).unwrap();
    let range = reference
        .data()
        .iter()
        .fold(0.0f32, |acc, &v| acc.max(v.abs()))
        .max(1e-6);
    assert!(out.max_abs_diff(&reference).unwrap() <= 0.05 * range);
    session.shutdown().unwrap();
}

#[test]
fn abandoned_session_joins_all_threads_on_drop() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 13);
    let plan = plan(&m, 2);
    let session = Deploy::new(&m, &plan, &weights).start().unwrap();
    session.submit(&deterministic_input(&m, 1)).unwrap();
    // No wait, no shutdown: Drop must still halt and join every worker
    // (the test harness would hang otherwise).
    drop(session);
}

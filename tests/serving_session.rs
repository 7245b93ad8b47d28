//! Serving-session behaviour: concurrent submitters, mid-stream metrics
//! monotonicity, draining shutdown, and credit-window backpressure.
//!
//! These tests cover the session API's *serving* guarantees — the
//! bit-exactness and simulator-agreement guarantees live in
//! `runtime_equivalence.rs`.

use cnn_model::exec::{self, deterministic_input, ModelWeights, PackedModelWeights, QuantSpec};
use cnn_model::{zoo, Model, PartitionScheme, VolumeSplit};
use device_profile::{DeviceSpec, DeviceType};
use edge_runtime::{
    ChannelTransport, Deploy, RouteTable, Runtime, RuntimeOptions, Session, ShapedTransport,
    TcpTransport, Transport, WeightSource,
};
use edge_telemetry::Telemetry;
use edgesim::{Cluster, ExecutionPlan};
use netsim::LinkConfig;
use std::sync::Arc;
use std::time::Duration;

fn two_device_plan(model: &Model) -> ExecutionPlan {
    let scheme = PartitionScheme::new(model, vec![0, 3, model.distributable_len()]).unwrap();
    let splits: Vec<VolumeSplit> = scheme
        .volumes()
        .iter()
        .map(|v| VolumeSplit::equal(2, v.last_output_height(model)))
        .collect();
    ExecutionPlan::from_splits(model, &scheme, &splits, 2).unwrap()
}

#[test]
fn concurrent_submitters_share_one_session() {
    // Three client threads hammer one shared session; every client checks
    // its own outputs bit-exact against single-device execution.
    const CLIENTS: u64 = 3;
    const IMAGES_PER_CLIENT: u64 = 4;
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 41);
    let plan = two_device_plan(&model);
    let session = Deploy::new(&model, &plan, &weights)
        .options(RuntimeOptions::default().with_max_in_flight(3))
        .start()
        .unwrap();

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let session = &session;
            let model = &model;
            let weights = &weights;
            scope.spawn(move || {
                for i in 0..IMAGES_PER_CLIENT {
                    let img = deterministic_input(model, 1000 * client + i);
                    let ticket = session.submit(&img).unwrap();
                    let out = session.wait(ticket).unwrap();
                    let reference = exec::run_full(model, weights, &img).unwrap();
                    assert_eq!(
                        &out,
                        reference.last().unwrap(),
                        "client {client} image {i} output differs"
                    );
                }
            });
        }
    });

    let report = session.shutdown().unwrap();
    assert_eq!(report.images, (CLIENTS * IMAGES_PER_CLIENT) as usize);
    assert!(
        report.max_in_flight_observed <= 3,
        "credit window violated: {} in flight",
        report.max_in_flight_observed
    );
}

#[test]
fn metrics_snapshots_are_monotone_mid_stream() {
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 42);
    let plan = two_device_plan(&model);
    let session = Deploy::new(&model, &plan, &weights).start().unwrap();

    let mut last_images = 0usize;
    let mut last_compute = 0.0f64;
    let mut last_frames = 0u64;
    let mut last_wall = 0.0f64;
    for i in 0..4u64 {
        let ticket = session
            .submit(&deterministic_input(&model, 70 + i))
            .unwrap();
        session.wait(ticket).unwrap();
        let snap = session.metrics();
        let compute: f64 = snap.devices.iter().map(|d| d.compute_ms).sum();
        let frames: u64 = snap.devices.iter().map(|d| d.frames_in).sum();
        assert_eq!(
            snap.images,
            last_images + 1,
            "every wait completes one image"
        );
        assert!(
            compute >= last_compute && compute > 0.0,
            "compute time must accumulate ({compute} after {last_compute})"
        );
        assert!(frames >= last_frames, "frame counters must accumulate");
        assert!(snap.wall_ms >= last_wall, "wall clock must advance");
        assert_eq!(snap.sim.per_image_latency_ms.len(), snap.images);
        last_images = snap.images;
        last_compute = compute;
        last_frames = frames;
        last_wall = snap.wall_ms;
    }
    let final_report = session.shutdown().unwrap();
    assert_eq!(final_report.images, last_images);
    assert!(
        final_report
            .devices
            .iter()
            .map(|d| d.compute_ms)
            .sum::<f64>()
            >= last_compute
    );
}

#[test]
fn shutdown_drains_in_flight_images_without_loss() {
    // Submit a burst and shut down immediately without waiting: every
    // in-flight image must still complete and be counted.
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 43);
    let plan = two_device_plan(&model);
    let session = Deploy::new(&model, &plan, &weights)
        .options(RuntimeOptions::default().with_max_in_flight(4))
        .start()
        .unwrap();

    for i in 0..4u64 {
        session
            .submit(&deterministic_input(&model, 90 + i))
            .unwrap();
    }
    let report = session.shutdown().unwrap();
    assert_eq!(report.images, 4, "drained shutdown must not lose images");
    assert_eq!(report.sim.per_image_latency_ms.len(), 4);
    // Every device computed all four images of both volumes.
    for d in &report.devices {
        assert_eq!(d.per_volume_images, vec![4, 4]);
    }
}

#[test]
fn credit_window_bounds_provider_queue_depth() {
    // Stream many more images than the window: the credit gate must bound
    // both the requester's in-flight count and every provider's concurrent
    // assemblies (the inbox-depth proxy — each in-flight image contributes
    // a bounded number of frames per inbox), closing the ROADMAP
    // backpressure item.
    const WINDOW: usize = 2;
    const TOTAL: u64 = 12;
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 44);
    let plan = two_device_plan(&model);
    let session = Deploy::new(&model, &plan, &weights)
        .options(RuntimeOptions::default().with_max_in_flight(WINDOW))
        .start()
        .unwrap();

    let mut tickets = std::collections::VecDeque::new();
    for i in 0..TOTAL {
        // Blocking submit: throttled by the window, never by queue growth.
        tickets.push_back(
            session
                .submit(&deterministic_input(&model, 200 + i))
                .unwrap(),
        );
        assert!(session.in_flight() <= WINDOW);
        while tickets.len() > WINDOW {
            session.wait(tickets.pop_front().unwrap()).unwrap();
        }
    }
    while let Some(t) = tickets.pop_front() {
        session.wait(t).unwrap();
    }

    let report = session.shutdown().unwrap();
    assert_eq!(report.images, TOTAL as usize);
    assert!(
        report.max_in_flight_observed <= WINDOW,
        "requester exceeded the credit window"
    );
    for (d, m) in report.devices.iter().enumerate() {
        assert!(
            m.max_concurrent_images <= WINDOW,
            "device {d} held {} images concurrently under a window of {WINDOW}",
            m.max_concurrent_images
        );
    }
}

#[test]
fn second_wave_after_full_drain_reuses_the_pipeline() {
    // Regression guard for session state: after the pipeline fully drains
    // (credits all returned), new submissions must flow with fresh ticket
    // ids and correct outputs.
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 45);
    let plan = two_device_plan(&model);
    let session = Deploy::new(&model, &plan, &weights).start().unwrap();

    let a = session.submit(&deterministic_input(&model, 1)).unwrap();
    session.wait(a).unwrap();
    assert_eq!(session.in_flight(), 0);
    let b = session.submit(&deterministic_input(&model, 2)).unwrap();
    assert!(b.image() > a.image(), "ticket ids keep increasing");
    session.wait(b).unwrap();
    let report = session.shutdown().unwrap();
    assert_eq!(report.images, 2);
}

/// `n` devices, every volume split into equal row bands.
fn equal_split_plan(model: &Model, n: usize) -> ExecutionPlan {
    let scheme = PartitionScheme::new(model, vec![0, 6, model.distributable_len()]).unwrap();
    let splits: Vec<VolumeSplit> = scheme
        .volumes()
        .iter()
        .map(|v| VolumeSplit::equal(n, v.last_output_height(model)))
        .collect();
    ExecutionPlan::from_splits(model, &scheme, &splits, n).unwrap()
}

#[test]
fn every_builder_axis_combination_is_one_wiring_path() {
    // transport {in-process, loopback TCP, shaped} × weight source {raw,
    // shared pack} × {f32, q8}, one model, one plan — including the cells
    // no `deploy_*` sibling ever spelled (shared pack over TCP, shared pack
    // + q8 over a shaped link).
    const DEVICES: usize = 2;
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 53);
    let plan = two_device_plan(&model);
    let route = RouteTable::new(&model, &plan).unwrap();
    let images: Vec<_> = (0..2)
        .map(|i| deterministic_input(&model, 700 + i))
        .collect();
    let reference: Vec<_> = images
        .iter()
        .map(|img| {
            exec::run_full(&model, &weights, img)
                .unwrap()
                .pop()
                .unwrap()
        })
        .collect();
    let cluster = Cluster::uniform(
        (0..DEVICES)
            .map(|i| DeviceSpec::new(format!("edge-{i}"), DeviceType::Xavier))
            .collect(),
        LinkConfig::constant(200.0),
    );
    let spec = QuantSpec::calibrate(&model, &weights).unwrap();

    /// What a cell's session looked like from outside.
    #[derive(Debug, PartialEq)]
    struct Observed {
        outputs: Vec<tensor::Tensor>,
        resident: Vec<usize>,
        layers_packed: Vec<u64>,
    }
    let serve = |session: Session| {
        let tickets: Vec<_> = images.iter().map(|i| session.submit(i).unwrap()).collect();
        let outputs = tickets
            .into_iter()
            .map(|t| session.wait(t).unwrap())
            .collect();
        let resident = session.resident_weight_bytes();
        let report = session.shutdown().unwrap();
        Observed {
            outputs,
            resident,
            layers_packed: report.devices.iter().map(|d| d.layers_packed).collect(),
        }
    };

    let mut q8_outputs: Option<Vec<tensor::Tensor>> = None;
    for quantized in [false, true] {
        let options = RuntimeOptions::default().with_quantized(quantized);
        let packed = Arc::new(
            PackedModelWeights::pack_with(&model, &weights, quantized.then_some(&spec)).unwrap(),
        );
        for shared in [false, true] {
            let source = || match shared {
                false => WeightSource::from(&weights),
                true => WeightSource::Shared {
                    raw: Arc::new(weights.clone()),
                    packed: Arc::clone(&packed),
                },
            };
            let deploy = || Deploy::new(&model, &plan, source()).options(options);
            let mut tcp = TcpTransport::new(DEVICES).unwrap();
            let mut shaped = ShapedTransport::new(ChannelTransport::new(DEVICES), &cluster);
            let cells = [
                ("in-process", serve(deploy().start().unwrap())),
                ("tcp", serve(deploy().over(&mut tcp).start().unwrap())),
                ("shaped", serve(deploy().over(&mut shaped).start().unwrap())),
            ];

            for (transport, seen) in &cells {
                let cell = format!("{transport}, shared pack {shared}, q8 {quantized}");
                if quantized {
                    // Every q8 cell agrees with every other q8 cell, bit
                    // for bit.
                    let first = q8_outputs.get_or_insert_with(|| seen.outputs.clone());
                    assert_eq!(&seen.outputs, first, "{cell}");
                } else {
                    assert_eq!(seen.outputs, reference, "{cell}");
                }
                for d in 0..DEVICES {
                    let keep = route.keep_layers(&model, d);
                    let (resident, layers_packed) = if shared {
                        (packed.resident_bytes(), 0)
                    } else {
                        let with_weights =
                            keep.iter().filter(|&&l| !weights.layers[l].0.is_empty());
                        (
                            weights.resident_bytes_of(&keep),
                            with_weights.count() as u64,
                        )
                    };
                    assert_eq!(seen.resident[d], resident, "{cell}, device {d}");
                    assert_eq!(seen.layers_packed[d], layers_packed, "{cell}, device {d}");
                }
            }

            // The frozen positional entry point is the same path: a session
            // from it cannot be told from the builder's.
            if !shared {
                let mut fabric = ChannelTransport::new(DEVICES);
                let session = Runtime::deploy_traced(
                    &model,
                    &plan,
                    &weights,
                    &mut fabric,
                    &options,
                    &Telemetry::disabled(),
                )
                .unwrap();
                assert_eq!(serve(session), cells[0].1, "deploy_traced, q8 {quantized}");
            }
        }
    }
}

/// Deploys tiny-vgg on three devices with the FC head's weights cut to
/// three floats: the deploy's packing pass fails on the head.
fn deploy_with_unpackable_head(transport: Option<&mut dyn Transport>) -> String {
    let model = zoo::tiny_vgg();
    let plan = equal_split_plan(&model, 3);
    let mut weights = ModelWeights::deterministic(&model, 61);
    let head = model.len() - 1;
    weights.layers[head].0 = Arc::from(vec![0.0f32; 3]);
    let deploy = Deploy::new(&model, &plan, &weights);
    let result = match transport {
        Some(transport) => deploy.over(transport).start(),
        None => deploy.start(),
    };
    let err = result
        .err()
        .expect("a head that cannot be packed must fail the deploy");
    let text = err.to_string();
    assert!(
        text.contains(&format!("layer {head}")),
        "the error must be the failed pack's own, naming layer {head}: {text}"
    );
    text
}

#[test]
fn failed_deploy_reports_the_layer_that_could_not_pack() {
    deploy_with_unpackable_head(None);
}

#[test]
fn failed_deploy_over_tcp_leaves_no_thread_behind() {
    let mut tcp = TcpTransport::new(3).unwrap();
    deploy_with_unpackable_head(Some(&mut tcp));
    // The two healthy providers' send threads hold TCP streams into the
    // fabric; unless the failed deploy halted and joined them, the
    // transport's reader threads never see EOF and its `Drop` never
    // returns.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        drop(tcp);
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("TcpTransport::drop must return once the failed deploy has torn down");
}

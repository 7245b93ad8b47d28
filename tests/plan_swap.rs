//! Hot plan-swap correctness: `Session::apply_plan` must change the
//! vertical split of a *live* session with zero image loss, bit-exact
//! outputs on both sides of the epoch boundary, resident weights reused
//! (only delta layers transferred), and the gateway serving through the
//! swap without a redeploy.

use cnn_model::exec::{self, deterministic_input, ModelWeights};
use cnn_model::{zoo, Model, PartitionScheme, VolumeSplit};
use edge_gateway::{Gateway, GatewayConfig};
use edge_runtime::session::Deploy;
use edge_runtime::RuntimeOptions;
use edge_telemetry::Telemetry;
use edgesim::ExecutionPlan;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn split_plan(model: &Model, devices: usize) -> ExecutionPlan {
    let scheme = PartitionScheme::new(model, vec![0, 3, model.distributable_len()]).unwrap();
    let splits: Vec<VolumeSplit> = scheme
        .volumes()
        .iter()
        .map(|v| VolumeSplit::equal(devices, v.last_output_height(model)))
        .collect();
    ExecutionPlan::from_splits(model, &scheme, &splits, devices).unwrap()
}

/// An asymmetric single-volume split (device 0 takes 3/4 of the rows).
fn skewed_plan(model: &Model, devices: usize) -> ExecutionPlan {
    let scheme = PartitionScheme::single_volume(model);
    let h = model.prefix_output().h;
    let mut cuts = vec![3 * h / 4];
    cuts.extend(std::iter::repeat_n(
        3 * h / 4 + (h - 3 * h / 4) / 2,
        devices - 2,
    ));
    let split = VolumeSplit::new(cuts, h);
    ExecutionPlan::from_splits(model, &scheme, &[split], devices).unwrap()
}

#[test]
fn mid_stream_swap_is_bit_exact_with_zero_loss() {
    // A submitter thread streams images continuously while the main thread
    // swaps the plan twice mid-stream.  Every output — submitted before,
    // during, or after the swaps — must be bit-exact against single-device
    // execution, and every ticket must complete.
    const IMAGES: u64 = 24;
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 23);
    let initial = split_plan(&model, 2);
    let session = Deploy::new(&model, &initial, &weights)
        .options(RuntimeOptions::default().with_max_in_flight(3))
        .start()
        .unwrap();

    let swapped = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let session = &session;
        let model = &model;
        let weights = &weights;
        let swapped = &swapped;
        scope.spawn(move || {
            for i in 0..IMAGES {
                let img = deterministic_input(model, 500 + i);
                let ticket = session.submit(&img).unwrap();
                let out = session.wait(ticket).unwrap();
                let reference = exec::run_full(model, weights, &img).unwrap();
                assert_eq!(
                    &out,
                    reference.last().unwrap(),
                    "image {i} differs (swapped yet: {})",
                    swapped.load(Ordering::SeqCst)
                );
            }
        });

        // Swap to a different vertical split while images are in flight,
        // then to an offload — the submitter never stops.
        let skew = skewed_plan(model, 2);
        let swap = session.apply_plan(&skew).unwrap();
        assert_eq!(swap.epoch, 1);
        swapped.store(true, Ordering::SeqCst);
        let offload = ExecutionPlan::offload(model, 0, 2).unwrap();
        let swap = session.apply_plan(&offload).unwrap();
        assert_eq!(swap.epoch, 2);
    });

    let report = session.shutdown().unwrap();
    assert_eq!(report.images as u64, IMAGES, "zero image loss across swaps");
    assert_eq!(report.epoch, 2);
}

#[test]
fn swap_reuses_resident_weights_and_ships_only_deltas() {
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 29);
    let full_bytes = weights.resident_bytes();

    // Deploy offloaded onto device 0: device 1 resident bytes are zero.
    let offload = ExecutionPlan::offload(&model, 0, 2).unwrap();
    let session = Deploy::new(&model, &offload, &weights).start().unwrap();
    assert_eq!(session.resident_weight_bytes(), vec![full_bytes, 0]);

    // Swap to a skewed split (device 0 keeps the larger share and with it
    // the FC head): device 0 reuses everything it holds (zero delta),
    // device 1 receives exactly the conv layers its parts need — not the
    // head, not the full model.
    let split = skewed_plan(&model, 2);
    let swap = session.apply_plan(&split).unwrap();
    assert_eq!(swap.delta_bytes[0], 0, "device 0 re-ships nothing");
    assert!(swap.delta_bytes[1] > 0, "device 1 receives its delta shard");
    assert!(
        swap.delta_bytes[1] < full_bytes,
        "the delta shard is strictly smaller than the full model: {} vs {full_bytes}",
        swap.delta_bytes[1]
    );
    let resident = session.resident_weight_bytes();
    assert_eq!(resident[0], full_bytes, "residency never shrinks");
    assert_eq!(resident[1], swap.delta_bytes[1]);

    // The swapped-to split still computes bit-exact.
    let img = deterministic_input(&model, 9);
    let out = session.wait(session.submit(&img).unwrap()).unwrap();
    let reference = exec::run_full(&model, &weights, &img).unwrap();
    assert_eq!(&out, reference.last().unwrap());

    // Swapping back ships nothing at all: every layer is already resident.
    let swap_back = session.apply_plan(&offload).unwrap();
    assert_eq!(swap_back.total_delta_bytes(), 0);
    assert!(swap_back.total_reused_bytes() > 0);
    session.shutdown().unwrap();
}

#[test]
fn noop_swap_is_cheap_and_keeps_serving() {
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 31);
    let plan = split_plan(&model, 2);
    let session = Deploy::new(&model, &plan, &weights).start().unwrap();
    let before = session.resident_weight_bytes();

    // Same plan again: the swap protocol still runs (the epoch advances),
    // but no weights move and nothing about the deployment changes.
    let swap = session.apply_plan(&plan).unwrap();
    assert_eq!(swap.epoch, 1);
    assert_eq!(swap.total_delta_bytes(), 0, "a no-op swap ships no weights");
    assert_eq!(swap.drained_images, 0, "an idle session drains instantly");
    assert_eq!(session.resident_weight_bytes(), before);
    assert!(
        swap.total_ms < 5_000.0,
        "a no-op swap on an idle session must be quick, took {:.1} ms",
        swap.total_ms
    );

    let img = deterministic_input(&model, 3);
    let out = session.wait(session.submit(&img).unwrap()).unwrap();
    let reference = exec::run_full(&model, &weights, &img).unwrap();
    assert_eq!(&out, reference.last().unwrap());
    let report = session.shutdown().unwrap();
    assert_eq!(report.epoch, 1);
    assert_eq!(report.images, 1);
}

#[test]
fn metrics_are_tagged_with_the_serving_epoch() {
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 37);
    let plan = split_plan(&model, 2);
    let session = Deploy::new(&model, &plan, &weights).start().unwrap();
    assert_eq!(session.metrics().epoch, 0);
    session.apply_plan(&skewed_plan(&model, 2)).unwrap();
    assert_eq!(session.metrics().epoch, 1);
    session.apply_plan(&plan).unwrap();
    let report = session.shutdown().unwrap();
    assert_eq!(report.epoch, 2);
}

#[test]
fn gateway_serves_through_a_swap_without_shedding_for_it() {
    // Clients keep their tickets valid across the swap: the queue parks
    // during the drain window, nothing errors, everything resolves
    // bit-exact under whichever epoch served it.
    const IMAGES: u64 = 12;
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 41);
    let plan = split_plan(&model, 2);
    let session = Deploy::new(&model, &plan, &weights)
        .options(RuntimeOptions::default().with_max_in_flight(2))
        .start()
        .unwrap();
    let gateway = Gateway::over(
        session,
        GatewayConfig::default()
            .with_max_batch(3)
            .with_max_linger(Duration::from_millis(1)),
        &Telemetry::disabled(),
    )
    .unwrap();

    std::thread::scope(|scope| {
        let gateway = &gateway;
        let model = &model;
        let weights = &weights;
        scope.spawn(move || {
            let client = gateway.client();
            for i in 0..IMAGES {
                let img = deterministic_input(model, 700 + i);
                let out = client.infer(&img).wait().unwrap();
                let reference = exec::run_full(model, weights, &img).unwrap();
                assert_eq!(&out, reference.last().unwrap(), "request {i} differs");
            }
        });

        let swap = gateway.apply_plan(&skewed_plan(model, 2)).unwrap();
        assert_eq!(swap.epoch, 1);
    });

    let metrics = gateway.shutdown().unwrap();
    assert_eq!(metrics.completed, IMAGES, "no request lost or shed");
    assert_eq!(metrics.shed_deadline + metrics.shed_overload, 0);
    assert_eq!(metrics.epoch, 1);
    assert_eq!(metrics.session.images as u64, IMAGES);
}

//! Runtime-vs-simulator agreement and functional equivalence.
//!
//! The `edge-runtime` is only worth having if (a) distributing a model
//! across concurrent providers changes *nothing* about the numbers it
//! computes, and (b) the discrete-event simulator's structure (gather →
//! compute → forward dependency graph) predicts the runtime's measured
//! throughput once it is fed the runtime's own measured kernel times.
//!
//! The agreement tolerance is deliberately loose — `IPS_TOLERANCE` below —
//! because the runtime pays real costs the simulator does not model (frame
//! encode/decode, channel hops, thread wake-ups) and CI machines run these
//! tests under load.  What the bound buys is structural validation: if the
//! simulator mis-ordered the pipeline or mis-placed the head, predictions
//! would be off by integer factors, not tens of percent.

use cnn_model::exec::{self, deterministic_input, ModelWeights};
use cnn_model::{zoo, Model, PartitionScheme, VolumeSplit};
use device_profile::{DeviceSpec, DeviceType};
use distredge::{DistrEdge, DistrEdgeConfig};
use edge_runtime::report::predicted_report;
use edge_runtime::runtime::RuntimeOptions;
use edge_runtime::session::Deploy;
use edge_runtime::transport::TcpTransport;
use edgesim::{Cluster, ExecutionPlan};
use netsim::LinkConfig;
use tensor::Tensor;

/// Documented agreement tolerance on closed-loop IPS: measured within ±40%
/// of the prediction under measured kernel times.
const IPS_TOLERANCE: f64 = 0.40;

fn heterogeneous_cluster() -> Cluster {
    Cluster::uniform(
        vec![
            DeviceSpec::new("xavier-0", DeviceType::Xavier),
            DeviceSpec::new("tx2-0", DeviceType::Tx2),
            DeviceSpec::new("nano-0", DeviceType::Nano),
        ],
        LinkConfig::constant(200.0),
    )
}

/// A three-device plan over the tiny zoo model with uneven shares per
/// volume, so halos actually cross device boundaries.
fn three_device_plan(model: &Model) -> ExecutionPlan {
    let scheme = PartitionScheme::new(model, vec![0, 3, model.distributable_len()]).unwrap();
    let splits: Vec<VolumeSplit> = scheme
        .volumes()
        .iter()
        .map(|v| {
            let h = v.last_output_height(model);
            VolumeSplit::new(vec![h / 2, 3 * h / 4], h)
        })
        .collect();
    ExecutionPlan::from_splits(model, &scheme, &splits, 3).unwrap()
}

#[test]
fn distributed_zoo_model_is_bit_exact_across_three_providers() {
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 21);
    let plan = three_device_plan(&model);
    let images: Vec<Tensor> = (0..4)
        .map(|i| deterministic_input(&model, 300 + i))
        .collect();

    let outcome = Deploy::new(&model, &plan, &weights)
        .start()
        .unwrap()
        .run_batch(&images)
        .unwrap();

    for (img, out) in images.iter().zip(&outcome.outputs) {
        let reference = exec::run_full(&model, &weights, img).unwrap();
        assert_eq!(
            out,
            reference.last().unwrap(),
            "distributed execution must be bit-exact vs single-device"
        );
    }
}

#[test]
fn runtime_ips_agrees_with_simulator_under_measured_compute() {
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 22);
    let plan = three_device_plan(&model);
    let images: Vec<Tensor> = (0..10).map(|i| deterministic_input(&model, i)).collect();

    // Closed loop: one image in flight, matching the simulator's stream
    // model (the requester waits for each result).
    let opts = RuntimeOptions {
        max_in_flight: 1,
        ..RuntimeOptions::default()
    };
    let outcome = Deploy::new(&model, &plan, &weights)
        .options(opts)
        .start()
        .unwrap()
        .run_batch(&images)
        .unwrap();

    let predicted = predicted_report(&model, &plan, &outcome.report, images.len());
    let measured = outcome.report.sim.ips;
    let gap = (measured - predicted.ips).abs() / predicted.ips;
    assert!(
        gap <= IPS_TOLERANCE,
        "measured {measured:.1} IPS vs predicted {:.1} IPS: gap {:.0}% exceeds {:.0}%",
        predicted.ips,
        gap * 100.0,
        IPS_TOLERANCE * 100.0
    );
}

#[test]
fn pipelining_is_observable_in_per_device_metrics() {
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 23);
    let plan = three_device_plan(&model);
    let images: Vec<Tensor> = (0..8)
        .map(|i| deterministic_input(&model, 40 + i))
        .collect();

    let opts = RuntimeOptions {
        max_in_flight: 4,
        ..RuntimeOptions::default()
    };
    let outcome = Deploy::new(&model, &plan, &weights)
        .options(opts)
        .start()
        .unwrap()
        .run_batch(&images)
        .unwrap();

    assert!(
        outcome.report.max_in_flight_observed >= 2,
        "requester never pipelined"
    );
    let deepest = outcome
        .report
        .devices
        .iter()
        .map(|d| d.max_concurrent_images)
        .max()
        .unwrap_or(0);
    assert!(
        deepest >= 2,
        "no device ever held two images concurrently (max {deepest})"
    );
}

#[test]
fn tcp_transport_matches_in_process_results() {
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 24);
    let plan = three_device_plan(&model);
    let images: Vec<Tensor> = (0..2)
        .map(|i| deterministic_input(&model, 70 + i))
        .collect();

    let channel_outcome = Deploy::new(&model, &plan, &weights)
        .start()
        .unwrap()
        .run_batch(&images)
        .unwrap();
    let mut tcp = TcpTransport::new(3).unwrap();
    let tcp_outcome = Deploy::new(&model, &plan, &weights)
        .over(&mut tcp)
        .start()
        .unwrap()
        .run_batch(&images)
        .unwrap();

    assert_eq!(channel_outcome.outputs, tcp_outcome.outputs);
    // Real sockets moved every byte the channels moved.
    let channel_bytes: u64 = channel_outcome
        .report
        .devices
        .iter()
        .map(|d| d.bytes_in)
        .sum();
    let tcp_bytes: u64 = tcp_outcome.report.devices.iter().map(|d| d.bytes_in).sum();
    assert_eq!(channel_bytes, tcp_bytes);
}

#[test]
fn planned_deployment_agrees_end_to_end() {
    // The full loop of the acceptance criterion: LC-PSS/OSDS plan a strategy
    // for a heterogeneous cluster, the runtime executes it, and measured
    // closed-loop IPS lands within tolerance of the simulator's prediction
    // under measured kernel times.
    let model = zoo::tiny_vgg();
    let cluster = heterogeneous_cluster();
    let mut config = DistrEdgeConfig::fast(3).with_episodes(20).with_seed(9);
    config.lcpss.num_random_splits = 10;
    config.osds.ddpg.actor_hidden = [24, 16, 12];
    config.osds.ddpg.critic_hidden = [24, 16, 12, 12];
    let planned = DistrEdge::plan(&model, &cluster, &config).unwrap();

    let images: Vec<Tensor> = (0..6)
        .map(|i| deterministic_input(&model, 500 + i))
        .collect();
    let plan = planned.strategy.to_plan(&model).unwrap();
    let weights = ModelWeights::deterministic(&model, 7);
    let outcome = Deploy::new(&model, &plan, &weights)
        .options(RuntimeOptions::default().with_max_in_flight(1))
        .start()
        .unwrap()
        .run_batch(&images)
        .unwrap();
    let predicted = predicted_report(&model, &plan, &outcome.report, images.len());

    assert_eq!(outcome.outputs.len(), images.len());
    let gap = outcome
        .report
        .ips_gap(&predicted)
        .expect("positive prediction");
    assert!(
        gap <= IPS_TOLERANCE,
        "measured {:.1} IPS vs predicted {:.1} IPS (gap {:.0}%)",
        outcome.report.sim.ips,
        predicted.ips,
        gap * 100.0
    );
}

#[test]
fn session_serves_two_waves_bit_exact_without_redeploying() {
    // The serving acceptance criterion: one deployment, two separate waves
    // of submissions (submit → wait → submit again), outputs bit-exact vs
    // single-device `exec::run_full` throughout, and the final report
    // covers both waves.
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 25);
    let plan = three_device_plan(&model);
    let session = Deploy::new(&model, &plan, &weights)
        .options(RuntimeOptions::default().with_max_in_flight(2))
        .start()
        .unwrap();

    for wave in 0..2u64 {
        let images: Vec<Tensor> = (0..3)
            .map(|i| deterministic_input(&model, 600 + 10 * wave + i))
            .collect();
        let tickets: Vec<_> = images
            .iter()
            .map(|img| session.submit(img).unwrap())
            .collect();
        for (img, ticket) in images.iter().zip(tickets) {
            let out = session.wait(ticket).unwrap();
            let reference = exec::run_full(&model, &weights, img).unwrap();
            assert_eq!(
                &out,
                reference.last().unwrap(),
                "wave {wave} output differs from single-device execution"
            );
        }
        // Between waves the pipeline drains but the cluster stays up.
        assert_eq!(session.in_flight(), 0);
    }

    let report = session.shutdown().unwrap();
    assert_eq!(report.images, 6);
    assert_eq!(report.sim.per_image_latency_ms.len(), 6);
    assert!(report.max_in_flight_observed <= 2, "credit window violated");
}

//! Fleet serving behaviour end-to-end: bit-exact outputs across replicas,
//! capacity scaling under open-loop overload, zero-loss scale-down drains,
//! multi-model routing with shared packed weights, and watermark-driven
//! autoscale — all over paced transports so each replica has a finite,
//! known service rate on a single test machine.

use cnn_model::exec::{self, deterministic_input, ModelWeights};
use cnn_model::{LayerOp, Model};
use edge_fleet::{FleetConfig, FleetServer, ModelSpec, PacedTransport};
use edge_gateway::{GatewayConfig, GatewayError};
use edge_runtime::transport::ChannelTransport;
use edge_runtime::RuntimeOptions;
use edge_telemetry::Telemetry;
use edgesim::ExecutionPlan;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor::{Shape, Tensor};

fn model(name: &str, head: usize) -> Model {
    Model::new(
        name,
        Shape::new(2, 12, 12),
        &[
            LayerOp::conv(3, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::fc(head),
        ],
    )
    .unwrap()
}

fn spec(m: &Model, replicas: usize, pace: Option<Duration>) -> ModelSpec {
    let plan = ExecutionPlan::offload(m, 0, 1).unwrap();
    let spec = ModelSpec::new(m.name(), m.clone(), plan)
        .with_replicas(replicas)
        .with_runtime(RuntimeOptions::default().with_max_in_flight(4));
    match pace {
        Some(pace) => spec.with_transport(Arc::new(move |n| {
            Box::new(PacedTransport::new(ChannelTransport::new(n), pace))
        })),
        None => spec,
    }
}

fn oracle(m: &Model, weights: &ModelWeights, img: &Tensor) -> Tensor {
    exec::run_full(m, weights, img).unwrap().pop().unwrap()
}

/// Outputs are bit-exact no matter which replica serves an image: every
/// request from several concurrent clients matches the single-machine
/// oracle, and the work actually spreads over both replicas.
#[test]
fn replicas_serve_bit_exact_outputs() {
    let m = model("exact", 5);
    let weights = ModelWeights::deterministic(&m, 7);
    let fleet = FleetServer::serve(
        vec![spec(&m, 2, None)],
        FleetConfig::default().with_autoscale(false),
        GatewayConfig::default().with_max_batch(4),
        &Telemetry::disabled(),
    )
    .unwrap();

    std::thread::scope(|scope| {
        for client_id in 0..3u64 {
            let client = fleet.client();
            let (m, weights) = (&m, &weights);
            scope.spawn(move || {
                for i in 0..8u64 {
                    let img = deterministic_input(m, 100 * client_id + i);
                    let out = client.infer(&img).wait().unwrap();
                    assert_eq!(out, oracle(m, weights, &img), "replica output differs");
                }
            });
        }
    });

    let fm = fleet.fleet_metrics();
    assert_eq!(fm.replicas.len(), 2);
    assert_eq!(fm.total_images, 24);
    let busy = fm.replicas.iter().filter(|r| r.images > 0).count();
    assert_eq!(busy, 2, "least-loaded routing must use both replicas");
    let metrics = fleet.shutdown().unwrap();
    assert_eq!(metrics.completed, 24);
    assert_eq!(metrics.shed_deadline + metrics.shed_overload, 0);
}

/// The capacity story of the whole subsystem: an open-loop arrival rate
/// that a single paced replica sheds more than 20% of is absorbed by a
/// 3-replica fleet with zero overload sheds and a bounded p99.
#[test]
fn overloading_traffic_is_absorbed_by_a_larger_fleet() {
    const IMAGES: u64 = 90;
    let pace = Duration::from_millis(25); // 40 IPS per replica
    let arrival = Duration::from_millis(12); // ~83 IPS offered
    let m = model("capacity", 4);
    let gateway_config = GatewayConfig::default()
        .with_max_batch(4)
        .with_max_linger(Duration::from_millis(1))
        .with_queue_capacity(10);

    let offer = |replicas: usize| {
        let fleet = FleetServer::serve(
            vec![spec(&m, replicas, Some(pace))],
            FleetConfig::default()
                .with_max_replicas(replicas.max(1))
                .with_autoscale(false),
            gateway_config,
            &Telemetry::disabled(),
        )
        .unwrap();
        let client = fleet.client();
        let mut handles = Vec::new();
        for i in 0..IMAGES {
            handles.push(client.infer(&deterministic_input(&m, i)));
            std::thread::sleep(arrival);
        }
        let mut sheds = 0u64;
        for handle in handles {
            match handle.wait() {
                Ok(_) => {}
                Err(GatewayError::Overloaded { .. }) => sheds += 1,
                Err(e) => panic!("unexpected error under load: {e}"),
            }
        }
        let metrics = fleet.shutdown().unwrap();
        assert_eq!(metrics.shed_overload, sheds);
        (sheds, metrics)
    };

    let (solo_sheds, _) = offer(1);
    assert!(
        solo_sheds as f64 > 0.2 * IMAGES as f64,
        "one replica must shed >20% of this traffic, shed only {solo_sheds}/{IMAGES}"
    );

    let (fleet_sheds, metrics) = offer(3);
    assert_eq!(
        fleet_sheds, 0,
        "three replicas must absorb the same traffic"
    );
    assert_eq!(metrics.completed, IMAGES);
    assert!(
        metrics.p99_ms < 1_000.0,
        "p99 must stay bounded, got {:.1} ms",
        metrics.p99_ms
    );
}

/// Draining a replica mid-stream loses nothing: requests keep flowing
/// while one replica retires, every output stays bit-exact, and the final
/// tally accounts for every image.
#[test]
fn scale_down_drains_mid_stream_with_zero_loss() {
    const IMAGES: u64 = 40;
    let m = model("drain", 3);
    let weights = ModelWeights::deterministic(&m, 7);
    let fleet = FleetServer::serve(
        vec![spec(&m, 2, Some(Duration::from_millis(3)))],
        FleetConfig::default().with_autoscale(false),
        GatewayConfig::default().with_max_batch(4),
        &Telemetry::disabled(),
    )
    .unwrap();

    let client = fleet.client();
    let mut handles = Vec::new();
    for i in 0..IMAGES {
        handles.push((i, client.infer(&deterministic_input(&m, i))));
        if i == IMAGES / 4 {
            // Drain one replica in the thick of the stream.
            let victim = fleet.scale_down("drain").unwrap();
            assert!(victim.is_some(), "two replicas sit above the floor");
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for (i, handle) in handles {
        let img = deterministic_input(&m, i);
        let out = handle.wait().expect("no request may be lost to the drain");
        assert_eq!(out, oracle(&m, &weights, &img));
    }

    // The drained replica retires once its outstanding work completes —
    // it leaves the roster entirely, not just the routable set.
    let deadline = Instant::now() + Duration::from_secs(30);
    while fleet.fleet_metrics().replicas.len() > 1 {
        assert!(Instant::now() < deadline, "drain never retired");
        std::thread::sleep(Duration::from_millis(5));
    }
    let fm = fleet.fleet_metrics();
    assert_eq!(fm.scale_downs, 1);
    assert!(fm.replicas.iter().all(|r| !r.draining));

    let metrics = fleet.shutdown().unwrap();
    assert_eq!(
        metrics.completed, IMAGES,
        "zero image loss across the drain"
    );
    assert_eq!(metrics.shed_deadline + metrics.shed_overload, 0);
}

/// Multi-model tenancy: requests route by model id to the right replicas
/// (the two models have different output shapes, so a misroute cannot pass
/// the oracle check), replicas of one model share a single packed weight
/// copy, and an unknown id fails typed without touching the cluster.
#[test]
fn models_route_by_id_and_share_packed_weights() {
    let alpha = model("alpha", 4);
    let beta = model("beta", 6);
    let alpha_weights = ModelWeights::deterministic(&alpha, 7);
    let beta_weights = ModelWeights::deterministic(&beta, 7);
    let fleet = FleetServer::serve(
        vec![spec(&alpha, 2, None), spec(&beta, 1, None)],
        FleetConfig::default().with_autoscale(false),
        GatewayConfig::default(),
        &Telemetry::disabled(),
    )
    .unwrap();

    // One resident pack per model, shared by that model's replicas: the
    // registry holds one reference and each replica session holds more,
    // so the strong count exceeds the replica count (K replicas never
    // means K packing passes or K resident copies).
    for tenant in fleet.fleet_metrics().models {
        assert!(
            tenant.packed_refs > tenant.replicas,
            "model {}: {} refs for {} replicas — the pack was copied",
            tenant.id,
            tenant.packed_refs,
            tenant.replicas
        );
        assert!(tenant.resident_bytes > 0);
    }

    let alpha_client = fleet.client(); // first spec is the default model
    let beta_client = fleet.client().with_model("beta");
    for i in 0..6u64 {
        let img = deterministic_input(&alpha, i);
        let out = alpha_client.infer(&img).wait().unwrap();
        assert_eq!(out, oracle(&alpha, &alpha_weights, &img));
        let img = deterministic_input(&beta, 50 + i);
        let out = beta_client.infer(&img).wait().unwrap();
        assert_eq!(out, oracle(&beta, &beta_weights, &img));
    }

    // Unknown ids fail typed, naming what the fleet does serve.
    let err = fleet
        .client()
        .with_model("gamma")
        .infer(&deterministic_input(&alpha, 0))
        .wait()
        .expect_err("gamma is not deployed");
    match err {
        GatewayError::Runtime(msg) => {
            assert!(msg.contains("gamma"), "error must name the bad id: {msg}");
            assert!(msg.contains("alpha") && msg.contains("beta"));
        }
        other => panic!("expected a runtime error, got {other:?}"),
    }

    let metrics = fleet.shutdown().unwrap();
    assert_eq!(metrics.completed, 12);
}

/// The monitor grows the fleet on its own: with a low queue watermark and
/// a slow paced replica, a burst of traffic pushes queue depth over the
/// high watermark and a second replica comes up without any manual call.
#[test]
fn autoscale_spawns_a_replica_under_queue_pressure() {
    const IMAGES: u64 = 30;
    let m = model("auto", 4);
    let fleet = FleetServer::serve(
        vec![spec(&m, 1, Some(Duration::from_millis(20)))],
        FleetConfig::default()
            .with_min_replicas(1)
            .with_max_replicas(2)
            .with_queue_high_watermark(4)
            .with_evaluate_every(Duration::from_millis(10)),
        GatewayConfig::default()
            .with_max_batch(4)
            .with_max_linger(Duration::from_millis(1))
            .with_queue_capacity(64),
        &Telemetry::disabled(),
    )
    .unwrap();
    assert_eq!(fleet.replica_count("auto"), 1);

    let client = fleet.client();
    let handles: Vec<_> = (0..IMAGES)
        .map(|i| client.infer(&deterministic_input(&m, i)))
        .collect();
    for handle in handles {
        handle.wait().expect("autoscale burst request failed");
    }

    // The counter, not the live count: once the queue drains the monitor
    // is free to scale back down, so the live count may already be 1 again.
    let deadline = Instant::now() + Duration::from_secs(30);
    while fleet.fleet_metrics().scale_ups < 1 {
        assert!(
            Instant::now() < deadline,
            "the monitor never reacted to queue pressure"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let metrics = fleet.shutdown().unwrap();
    assert_eq!(metrics.completed, IMAGES);
}

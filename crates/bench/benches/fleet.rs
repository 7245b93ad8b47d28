//! Fleet capacity benchmark: does adding replicas add throughput?
//!
//! Each replica runs over a [`PacedTransport`] with a fixed per-result
//! frame time, so a single replica has a known saturation rate and the
//! question "do N replicas serve ~N× the images per second?" has a crisp
//! answer even on one machine.  The sweep measures:
//!
//! * saturation IPS through a single session (1 replica),
//! * the same offered load through 2- and 4-replica fleets,
//! * the latency of one elastic scale-up (spare profile → serving replica,
//!   weights already packed and shared).
//!
//! Results land in `BENCH_fleet.json` so the scaling trajectory is tracked
//! across commits.  The run asserts the headline claim: 2 replicas must
//! clear at least 1.8× the single-session saturation rate.

use cnn_model::exec::deterministic_input;
use cnn_model::{LayerOp, Model};
use edge_fleet::{FleetConfig, FleetServer, ModelSpec, PacedTransport};
use edge_gateway::GatewayConfig;
use edge_runtime::transport::ChannelTransport;
use edge_runtime::RuntimeOptions;
use edge_telemetry::Telemetry;
use edgesim::ExecutionPlan;
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor::Shape;

/// Per-result frame time: each replica serves at most 1000/10 = 100 IPS.
const PACE: Duration = Duration::from_millis(10);
/// Saturation images per replica in the sweep.
const IMAGES_PER_REPLICA: u64 = 50;

fn bench_model() -> Model {
    Model::new(
        "fleet-bench",
        Shape::new(2, 12, 12),
        &[
            LayerOp::conv(3, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::fc(4),
        ],
    )
    .unwrap()
}

fn serve(model: &Model, replicas: usize, max_replicas: usize) -> FleetServer {
    let plan = ExecutionPlan::offload(model, 0, 1).unwrap();
    let spec = ModelSpec::new(model.name(), model.clone(), plan)
        .with_replicas(replicas)
        .with_runtime(RuntimeOptions::default().with_max_in_flight(4))
        .with_transport(Arc::new(move |n| {
            Box::new(PacedTransport::new(ChannelTransport::new(n), PACE))
        }));
    FleetServer::serve(
        vec![spec],
        FleetConfig::default()
            .with_max_replicas(max_replicas)
            .with_autoscale(false),
        GatewayConfig::default()
            .with_max_batch(8)
            .with_max_linger(Duration::from_millis(1))
            .with_queue_capacity(1024),
        &Telemetry::disabled(),
    )
    .unwrap()
}

/// Saturation throughput of an `replicas`-wide fleet: every image is
/// admitted up front (the queue is deep enough to hold them all), so the
/// dispatcher keeps every replica's credit window full for the whole run.
fn saturation_ips(model: &Model, replicas: usize) -> f64 {
    let fleet = serve(model, replicas, replicas);
    let client = fleet.client();
    let total = IMAGES_PER_REPLICA * replicas as u64;
    let t0 = Instant::now();
    let handles: Vec<_> = (0..total)
        .map(|i| client.infer(&deterministic_input(model, i)))
        .collect();
    for handle in handles {
        handle.wait().expect("saturation request failed");
    }
    let ips = total as f64 / t0.elapsed().as_secs_f64();
    let metrics = fleet.shutdown().unwrap();
    assert_eq!(metrics.completed, total, "a saturation run loses nothing");
    ips
}

/// Wall-clock cost of one elastic scale-up on a serving fleet.  The pack
/// is already resident and shared, so this prices only the new replica's
/// cluster spin-up and registration.
fn scale_up_latency_ms(model: &Model) -> f64 {
    let fleet = serve(model, 1, 2);
    let t0 = Instant::now();
    fleet.scale_up(model.name()).expect("scale up failed");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(fleet.replica_count(model.name()), 2);
    fleet.shutdown().unwrap();
    ms
}

#[derive(Serialize)]
struct FleetBench {
    /// Per-result pace, milliseconds (each replica's hard service ceiling).
    pace_ms: f64,
    /// Images pushed through per replica in each saturation run.
    images_per_replica: u64,
    /// Saturation IPS through a single session.
    solo_ips: f64,
    /// Saturation IPS through a 2-replica fleet.
    fleet2_ips: f64,
    /// Saturation IPS through a 4-replica fleet.
    fleet4_ips: f64,
    /// fleet2_ips / solo_ips — the headline scaling claim.
    speedup_2x: f64,
    /// fleet4_ips / solo_ips.
    speedup_4x: f64,
    /// Wall-clock latency of one scale-up call, milliseconds.
    scale_up_ms: f64,
}

fn main() {
    let model = bench_model();

    let solo_ips = saturation_ips(&model, 1);
    let fleet2_ips = saturation_ips(&model, 2);
    let fleet4_ips = saturation_ips(&model, 4);
    let scale_up_ms = scale_up_latency_ms(&model);

    let out = FleetBench {
        pace_ms: PACE.as_secs_f64() * 1e3,
        images_per_replica: IMAGES_PER_REPLICA,
        solo_ips,
        fleet2_ips,
        fleet4_ips,
        speedup_2x: fleet2_ips / solo_ips,
        speedup_4x: fleet4_ips / solo_ips,
        scale_up_ms,
    };
    assert!(
        out.speedup_2x >= 1.8,
        "2 replicas must clear 1.8x one session at saturation, got {:.2}x \
         ({solo_ips:.1} -> {fleet2_ips:.1} IPS)",
        out.speedup_2x
    );

    let json = serde_json::to_string(&out).unwrap();
    // Anchor at the workspace root so the artifact lands in one place no
    // matter what cwd cargo runs the bench with.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fleet.json");
    std::fs::write(&path, &json).unwrap();
    println!("BENCH_fleet.json: {json}");
}

//! Fleet serving: one gateway over many replica sessions.
//!
//! Where `gateway_serving.rs` batches traffic into a single resident
//! session, this example puts an [`edge_fleet::FleetServer`] behind the same
//! front-end: two models served concurrently (requests route by model id),
//! each model's replicas executing from **one** shared packed weight copy,
//! least-loaded routing across replicas, and a manual scale-up / drain
//! cycle with zero image loss.
//!
//! Each replica cluster runs over a [`edge_fleet::PacedTransport`] so it
//! has a finite, known service rate — which is what makes the fleet's
//! capacity scaling visible on a single machine.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fleet_serving
//! ```

use cnn_model::exec::{self, deterministic_input, ModelWeights};
use cnn_model::{LayerOp, Model};
use edge_fleet::{FleetConfig, FleetServer, ModelSpec, PacedTransport};
use edge_gateway::GatewayConfig;
use edge_runtime::transport::ChannelTransport;
use edge_runtime::RuntimeOptions;
use edge_telemetry::Telemetry;
use edgesim::ExecutionPlan;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor::Shape;

const ALPHA_CLIENTS: u64 = 3;
const IMAGES_PER_CLIENT: u64 = 12;
const BETA_IMAGES: u64 = 8;

fn tiny_model(name: &str, head: usize) -> Model {
    Model::new(
        name,
        Shape::new(2, 16, 16),
        &[
            LayerOp::conv(4, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::fc(head),
        ],
    )
    .expect("valid model")
}

fn spec_for(model: &Model, replicas: usize, pace: Duration) -> ModelSpec {
    let plan = ExecutionPlan::offload(model, 0, 1).expect("valid plan");
    ModelSpec::new(model.name(), model.clone(), plan)
        .with_replicas(replicas)
        .with_runtime(RuntimeOptions::default().with_max_in_flight(4))
        .with_transport(Arc::new(move |n| {
            Box::new(PacedTransport::new(ChannelTransport::new(n), pace))
        }))
}

fn main() {
    // 1. Two models behind one gateway: "alpha" (the default, two
    //    replicas) and "beta" (one replica).  Both paced at 4 ms per
    //    result, so each replica serves ~250 images/s.
    let alpha = tiny_model("alpha", 4);
    let beta = tiny_model("beta", 6);
    let pace = Duration::from_millis(4);
    let fleet = FleetServer::serve(
        vec![spec_for(&alpha, 2, pace), spec_for(&beta, 1, pace)],
        FleetConfig::default()
            .with_min_replicas(1)
            .with_max_replicas(4)
            .with_autoscale(false)
            .with_evaluate_every(Duration::from_millis(10)),
        GatewayConfig::default().with_max_batch(8),
        &Telemetry::disabled(),
    )
    .expect("fleet deploy failed");
    println!(
        "fleet up: alpha x{} replicas, beta x{} replicas",
        fleet.replica_count("alpha"),
        fleet.replica_count("beta"),
    );

    // Shared-weight tenancy: every replica holds the same packed artifact.
    for tenant in fleet.fleet_metrics().models {
        println!(
            "  model {}: {} replicas share one {}-byte pack ({} refs)",
            tenant.id, tenant.replicas, tenant.resident_bytes, tenant.packed_refs
        );
        assert!(
            tenant.packed_refs > tenant.replicas,
            "replicas must share the registry's pack, not copy it"
        );
    }

    // Oracles for bit-exactness checks below.
    let alpha_weights = ModelWeights::deterministic(&alpha, 7);
    let beta_weights = ModelWeights::deterministic(&beta, 7);

    // 2. Serve both models concurrently; every output is checked against
    //    the single-machine oracle, so routing across replicas is proven
    //    bit-exact.
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client_id in 0..ALPHA_CLIENTS {
            let client = fleet.client();
            let (alpha, alpha_weights) = (&alpha, &alpha_weights);
            scope.spawn(move || {
                for i in 0..IMAGES_PER_CLIENT {
                    let seed = 100 * client_id + i;
                    let img = deterministic_input(alpha, seed);
                    let out = client.infer(&img).wait().expect("alpha request failed");
                    let oracle = exec::run_full(alpha, alpha_weights, &img)
                        .expect("oracle run")
                        .pop()
                        .expect("oracle output");
                    assert_eq!(out, oracle, "replica output must be bit-exact");
                }
            });
        }
        let beta_client = fleet.client().with_model("beta");
        let (beta, beta_weights) = (&beta, &beta_weights);
        scope.spawn(move || {
            for i in 0..BETA_IMAGES {
                let img = deterministic_input(beta, 7_000 + i);
                let out = beta_client.infer(&img).wait().expect("beta request failed");
                let oracle = exec::run_full(beta, beta_weights, &img)
                    .expect("oracle run")
                    .pop()
                    .expect("oracle output");
                assert_eq!(out, oracle, "beta must route to beta replicas");
            }
        });
    });
    let total = ALPHA_CLIENTS * IMAGES_PER_CLIENT + BETA_IMAGES;
    println!(
        "served {} images across 2 models in {:.0} ms, all bit-exact",
        total,
        t0.elapsed().as_secs_f64() * 1e3
    );

    // 3. Elastic scale, manually driven: grow alpha to 3 replicas, then
    //    drain back down — the drained replica finishes its outstanding
    //    work before retiring, so nothing is lost.
    let new_id = fleet.scale_up("alpha").expect("scale up failed");
    println!("scaled alpha up: new replica {new_id}");
    assert_eq!(fleet.replica_count("alpha"), 3);
    let victim = fleet
        .scale_down("alpha")
        .expect("scale down failed")
        .expect("above the floor");
    println!("draining alpha replica {victim}");
    let retire_deadline = Instant::now() + Duration::from_secs(30);
    while fleet.fleet_metrics().replicas.len() > 3 {
        assert!(Instant::now() < retire_deadline, "drain never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(fleet.replica_count("alpha"), 2);

    // A post-drain wave proves the fleet still serves correctly.
    let client = fleet.client();
    for i in 0..4 {
        let img = deterministic_input(&alpha, 9_000 + i);
        let out = client.infer(&img).wait().expect("post-drain request");
        let oracle = exec::run_full(&alpha, &alpha_weights, &img)
            .expect("oracle run")
            .pop()
            .expect("oracle output");
        assert_eq!(out, oracle);
    }

    // 4. Per-replica load and the final rollup.
    let fm = fleet.fleet_metrics();
    for r in &fm.replicas {
        println!(
            "  replica {} ({}): {} images, ewma {:.1} ms{}",
            r.id,
            r.model,
            r.images,
            r.ewma_service_ms,
            if r.draining { ", draining" } else { "" }
        );
    }
    println!(
        "fleet: {} images total, {:.1} IPS aggregate, {} scale-up(s), {} drain(s)",
        fm.total_images, fm.fleet_ips, fm.scale_ups, fm.scale_downs
    );
    let m = fleet.shutdown().expect("shutdown failed");
    assert_eq!(m.completed, total + 4, "every request must be answered");
    assert_eq!(m.shed_deadline + m.shed_overload, 0, "nothing shed");
    println!(
        "shutdown clean: {} completed, p50 {:.1} ms / p99 {:.1} ms",
        m.completed, m.p50_ms, m.p99_ms
    );
}

//! One deployment, heavy bursty traffic: the `edge-gateway` front-end over
//! a resident serving session.
//!
//! Where `serving_session.rs` has each client thread talk to the session
//! directly, this example composes the serving stack's top layer over it —
//! `Gateway::over(Deploy::new(..).start()?, config, &telemetry)`:
//! six bursty client threads (one high-priority, one deadline-constrained)
//! fire requests at a [`edge_gateway::Gateway`], whose dispatcher forms
//! adaptive batches under `max_batch` / `max_linger`, schedules them over
//! the session's in-flight credit window, sheds what cannot meet its
//! deadline, and publishes p50/p95/p99 latency percentiles live.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example gateway_serving
//! ```

use cnn_model::exec::ModelWeights;
use cnn_model::{Model, PartitionScheme, VolumeSplit};
use edge_gateway::{Gateway, GatewayConfig, Priority};
use edge_runtime::session::Deploy;
use edge_runtime::RuntimeOptions;
use edge_telemetry::Telemetry;
use edgesim::ExecutionPlan;
use std::time::Duration;

const PROVIDERS: usize = 3;
const CLIENTS: u64 = 6;
const BURSTS: u64 = 3;
const BURST_SIZE: u64 = 3;

fn equal_split_plan(model: &Model, devices: usize) -> ExecutionPlan {
    let scheme = PartitionScheme::new(model, vec![0, 6, model.distributable_len()])
        .expect("valid boundaries");
    let splits: Vec<VolumeSplit> = scheme
        .volumes()
        .iter()
        .map(|v| VolumeSplit::equal(devices, v.last_output_height(model)))
        .collect();
    ExecutionPlan::from_splits(model, &scheme, &splits, devices).expect("valid plan")
}

fn main() {
    // 1. A runtime-scale model on three providers behind one gateway.
    let model = cnn_model::zoo::tiny_vgg();
    let plan = equal_split_plan(&model, PROVIDERS);
    let weights = ModelWeights::deterministic(&model, 7);
    let config = GatewayConfig::default()
        .with_max_batch(4)
        .with_max_linger(Duration::from_millis(2));
    println!(
        "model: {} on {PROVIDERS} providers; gateway: max_batch {}, max_linger {:?}, window 4",
        model.name(),
        config.max_batch,
        config.max_linger,
    );

    // 2. Deploy ONCE, then put the gateway over the resident session; it
    //    owns the session from here on.
    let session = Deploy::new(&model, &plan, &weights)
        .options(RuntimeOptions::default().with_max_in_flight(4))
        .start()
        .expect("deploy failed");
    let gateway =
        Gateway::over(session, config, &Telemetry::disabled()).expect("unusable gateway config");

    // 3. Serve: bursty clients — each fires a burst of concurrent requests,
    //    waits for all of them, pauses, repeats.  Client 0 runs at high
    //    priority; client 1 attaches a (generous) deadline to every request.
    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let client = match client_id {
                0 => gateway.client().with_priority(Priority::High),
                _ => gateway.client(),
            };
            let model = &model;
            scope.spawn(move || {
                for burst in 0..BURSTS {
                    let responses: Vec<_> = (0..BURST_SIZE)
                        .map(|i| {
                            let seed = 1_000 * client_id + 10 * burst + i;
                            let img = cnn_model::exec::deterministic_input(model, seed);
                            if client_id == 1 {
                                client.infer_with_deadline(&img, Duration::from_secs(120))
                            } else {
                                client.infer(&img)
                            }
                        })
                        .collect();
                    for response in responses {
                        let out = response.wait().expect("request failed");
                        assert_eq!(out.shape()[0], 10, "tiny-vgg head emits 10 logits");
                    }
                    std::thread::sleep(Duration::from_millis(3));
                }
                println!("client {client_id}: {} images served", BURSTS * BURST_SIZE);
            });
        }

        // Live monitoring off the gateway's own metrics.
        let total = CLIENTS * BURSTS * BURST_SIZE;
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        loop {
            std::thread::sleep(Duration::from_millis(50));
            let m = gateway.metrics();
            println!(
                "monitor: {}/{} done, queue {}, batches {} (occupancy {:.1}), \
                 p50 {:.1} ms / p95 {:.1} ms / p99 {:.1} ms",
                m.completed,
                total,
                m.queue_depth,
                m.batches,
                m.batch_occupancy,
                m.p50_ms,
                m.p95_ms,
                m.p99_ms
            );
            if m.completed >= total {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "serving stalled: {}/{} after 120 s",
                m.completed,
                total
            );
        }
    });

    // 4. Drain and report.
    let total = CLIENTS * BURSTS * BURST_SIZE;
    let m = gateway.shutdown().expect("shutdown failed");
    println!(
        "\nserved {} images in {} batches (mean occupancy {:.2}), 0 lost, {} shed",
        m.completed,
        m.batches,
        m.batch_occupancy,
        m.shed_deadline + m.shed_overload
    );
    println!(
        "latency: p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms; cluster: {:.1} IPS wall-clock",
        m.p50_ms, m.p95_ms, m.p99_ms, m.session.measured_ips
    );
    assert_eq!(m.completed, total, "every request must be answered");
    assert_eq!(
        m.session.images, total as usize,
        "gateway and session must agree on the image count"
    );
    assert!(m.p50_ms <= m.p95_ms && m.p95_ms <= m.p99_ms);
    println!(
        "gateway and session agree: {} images end-to-end",
        m.completed
    );
}

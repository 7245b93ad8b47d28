//! Deploy once, serve continuously: a resident `edge-runtime` session fed
//! by several client threads at once.
//!
//! This example exercises the serving API the paper's §V-A streaming loop
//! implies: the provider cluster is deployed **once**, then client threads
//! `submit` images against a shared [`edge_runtime::Session`]
//! (credit-gated, so a slow provider throttles clients instead of growing
//! queues), a monitor thread snapshots live `metrics()` mid-stream, and a
//! final `shutdown()` drains the pipeline and reports the measurement next
//! to the simulator's prediction under the measured kernel times.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serving_session
//! ```

use cnn_model::exec::{deterministic_input, ModelWeights};
use cnn_model::{Model, PartitionScheme, VolumeSplit};
use edge_runtime::report::predicted_report;
use edge_runtime::session::Deploy;
use edge_runtime::RuntimeOptions;
use edgesim::ExecutionPlan;

const CLIENTS: u64 = 3;
const IMAGES_PER_CLIENT: u64 = 8;
const CREDIT_WINDOW: usize = 4;

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
    // 1. A runtime-scale model, split equally across three providers.
    let model = cnn_model::zoo::tiny_vgg();
    let plan = equal_split_plan(&model, 3);
    let weights = ModelWeights::deterministic(&model, 7);
    println!(
        "model: {} ({} layers, {:.1} MFLOPs), 3 providers, credit window {}",
        model.name(),
        model.len(),
        model.total_ops() / 1e6,
        CREDIT_WINDOW
    );

    // 2. Deploy ONCE: the cluster stays resident for the whole run.
    let options = RuntimeOptions::default().with_max_in_flight(CREDIT_WINDOW);
    let session = Deploy::new(&model, &plan, &weights)
        .options(options)
        .start()
        .expect("deploy failed");

    // 3. Serve: CLIENTS threads submit concurrently against the shared
    //    session while the main thread samples live metrics.
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let session = &session;
            let model = &model;
            scope.spawn(move || {
                for i in 0..IMAGES_PER_CLIENT {
                    let img = deterministic_input(model, 1000 * client + i);
                    let ticket = session.submit(&img).expect("submit failed");
                    let out = session.wait(ticket).expect("wait failed");
                    assert_eq!(out.shape()[0], 10, "tiny-vgg head emits 10 logits");
                }
                println!("client {client}: {IMAGES_PER_CLIENT} images served");
            });
        }

        // Mid-stream snapshots from the live counters.  Fail fast instead
        // of polling forever if the session breaks or stalls.
        let total = CLIENTS * IMAGES_PER_CLIENT;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        loop {
            std::thread::sleep(std::time::Duration::from_millis(50));
            if let Some(failure) = session.failure() {
                panic!("session failed mid-stream: {failure}");
            }
            let snap = session.metrics();
            println!(
                "monitor: {}/{} images done, {} in flight, mean latency {:.1} ms",
                snap.images,
                total,
                session.in_flight(),
                snap.sim.mean_latency_ms
            );
            if snap.images as u64 >= total {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "serving stalled: {}/{} images after 120 s",
                snap.images,
                total
            );
        }
    });

    // 4. Drain and report.
    let report = session.shutdown().expect("shutdown failed");
    println!(
        "\nserved {} images: {:.1} IPS over the wall clock, max {} in flight",
        report.images, report.measured_ips, report.max_in_flight_observed
    );
    // The simulator replays the plan with the kernel times the providers
    // measured; `ips_gap` compares it against wall-clock IPS when several
    // images were in flight and against closed-loop IPS otherwise.
    let predicted = predicted_report(&model, &plan, &report, report.images);
    println!(
        "simulator under measured kernel times: {:.1} IPS predicted (gap {:.0}%)",
        predicted.ips,
        report.ips_gap(&predicted).map_or(f64::NAN, |g| g * 100.0)
    );
    println!(
        "{:<12}{:>14}{:>12}{:>12}{:>16}",
        "device", "compute (ms)", "frames in", "frames out", "pipelined imgs"
    );
    for (d, m) in report.devices.iter().enumerate() {
        println!(
            "device-{d:<5}{:>14.1}{:>12}{:>12}{:>16}",
            m.compute_ms, m.frames_in, m.frames_out, m.max_concurrent_images
        );
    }
    assert!(
        report.max_in_flight_observed <= CREDIT_WINDOW,
        "credit window violated"
    );
    println!("\ncredit window held: no more than {CREDIT_WINDOW} images were ever in flight");
}

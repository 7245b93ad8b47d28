//! End-to-end trace capture: serve a burst through the gateway over a
//! shaped 3-device cluster, dump the Chrome trace-event JSON, and read the
//! per-image critical path.
//!
//! One link is throttled hard (device 2 sits behind ~8 Mbps), so the trace
//! should show the wire — scatter into or tx out of the slow device — as
//! the dominant stage of every image's critical path, exactly what the
//! Perfetto view makes visible as long gaps on dev2's tracks.
//!
//! Run with `cargo run --release --example trace_capture`; the trace lands
//! in `trace.json` (load it at <https://ui.perfetto.dev>), and the final
//! `GatewayMetrics` print as one `[json:gateway_metrics]` line.

use distredge_suite::cnn_model::exec::{self, deterministic_input, ModelWeights};
use distredge_suite::cnn_model::{LayerOp, Model, PartitionScheme, VolumeSplit};
use distredge_suite::device_profile::{DeviceSpec, DeviceType};
use distredge_suite::edge_gateway::{Gateway, GatewayConfig};
use distredge_suite::edge_runtime::{ChannelTransport, Deploy, RuntimeOptions, ShapedTransport};
use distredge_suite::edge_telemetry::Telemetry;
use distredge_suite::edgesim::{Cluster, ExecutionPlan};
use distredge_suite::netsim::LinkConfig;
use distredge_suite::tensor::Shape;
use serde::json::Value;
use std::time::Duration;

const DEVICES: usize = 3;
const IMAGES: u64 = 10;

fn main() {
    let model = Model::new(
        "trace-capture",
        Shape::new(3, 32, 32),
        &[
            LayerOp::conv(8, 3, 1, 1),
            LayerOp::conv(8, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::conv(16, 3, 1, 1),
            LayerOp::fc(10),
        ],
    )
    .unwrap();

    // Two layer-volumes split 3 ways, so the trace shows per-volume compute
    // spans and the inter-volume halo exchange on the wire.
    let scheme = PartitionScheme::new(&model, vec![0, 2, 4]).unwrap();
    let splits: Vec<VolumeSplit> = scheme
        .volumes()
        .iter()
        .map(|v| VolumeSplit::equal(DEVICES, v.last_output_height(&model)))
        .collect();
    let plan = ExecutionPlan::from_splits(&model, &scheme, &splits, DEVICES).unwrap();

    // Device 2 sits behind a throttled ~8 Mbps link; the other links are
    // healthy.  The wire to and from dev2 becomes the bottleneck the
    // critical-path report should name.
    let mut cluster = Cluster::uniform(
        (0..DEVICES)
            .map(|i| DeviceSpec::new(format!("edge-{i}"), DeviceType::Xavier))
            .collect(),
        LinkConfig::constant(200.0),
    );
    cluster.set_link(2, LinkConfig::constant(8.0).build());

    let telemetry = Telemetry::new();
    let weights = ModelWeights::deterministic(&model, 42);
    let mut transport = ShapedTransport::new(ChannelTransport::new(DEVICES), &cluster);
    let session = Deploy::new(&model, &plan, &weights)
        .over(&mut transport)
        .options(RuntimeOptions::default().with_max_in_flight(4))
        .telemetry(&telemetry)
        .start()
        .unwrap();
    let gateway = Gateway::over(
        session,
        GatewayConfig::default()
            .with_max_batch(4)
            .with_max_linger(Duration::from_millis(1)),
        &telemetry,
    )
    .unwrap();

    // Serve a burst and verify every output bit-exact against the
    // single-device reference.
    println!("serving {IMAGES} images through the traced gateway ...");
    let client = gateway.client();
    let images: Vec<_> = (0..IMAGES)
        .map(|i| deterministic_input(&model, i))
        .collect();
    let responses: Vec<_> = images.iter().map(|img| client.infer(img)).collect();
    for (img, response) in images.iter().zip(responses) {
        let out = response.wait().expect("no request may be lost");
        let reference = exec::run_full(&model, &weights, img).unwrap();
        assert_eq!(&out, reference.last().unwrap(), "output differs");
    }
    let metrics = gateway.shutdown().unwrap();
    assert_eq!(metrics.completed, IMAGES);

    // --- Export and validate the Chrome trace.
    let report = telemetry.collect();
    let json = report.to_chrome_trace();
    std::fs::write("trace.json", &json).unwrap();
    let parsed: Value = serde_json::from_str(&json).expect("the exported trace must be valid JSON");
    let events = match &parsed {
        Value::Object(o) => match o.iter().find(|(k, _)| k == "traceEvents") {
            Some((_, Value::Array(events))) => events.len(),
            _ => panic!("trace.json has no traceEvents array"),
        },
        _ => panic!("trace.json is not a JSON object"),
    };
    println!(
        "wrote trace.json: {events} trace events across {} tracks ({} spans)",
        report.tracks.len(),
        report.span_count()
    );

    // Every image's lifecycle is covered end to end, on every device.
    for image in 0..IMAGES as u32 {
        let devices = report.devices_seen(image);
        assert_eq!(
            devices.len(),
            DEVICES,
            "image {image} must have spans from all {DEVICES} devices, got {devices:?}"
        );
        let stages = report.stages_seen(image);
        for stage in [
            "gateway-queue",
            "submit",
            "scatter",
            "recv",
            "compute",
            "head",
            "tx",
            "respond",
        ] {
            assert!(
                stages.contains(&stage),
                "image {image} is missing stage {stage}: {stages:?}"
            );
        }
    }

    // --- The critical path names the shaped-link bottleneck.
    let path = report.critical_path(0).expect("image 0 was traced");
    println!("\n{}", path.render());
    assert!(
        path.dominant == "tx" || path.dominant == "scatter",
        "with a ~8 Mbps link the wire must dominate, got {}",
        path.dominant
    );

    // The counts are the typed reports: one JSON line of the gateway's
    // final metrics, with the session report underneath.
    let metrics_json = serde_json::to_string(&metrics).expect("GatewayMetrics serializes");
    println!("\n[json:gateway_metrics] {metrics_json}");
    println!("\nload trace.json at https://ui.perfetto.dev to explore the tracks");
}

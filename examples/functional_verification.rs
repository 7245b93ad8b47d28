//! Functional verification of vertical splitting: execute a distribution
//! strategy's split-parts on the real tensor engine and check that the
//! stitched result equals running the whole model on one device.
//!
//! This is the property that lets DistrEdge distribute *existing* models
//! without retraining: the distribution is exact, so accuracy is untouched.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example functional_verification
//! ```

use cnn_model::exec::{deterministic_input, run_full, run_part, ModelWeights, PackedModelWeights};
use cnn_model::{LayerOp, Model};
use device_profile::{DeviceSpec, DeviceType};
use distredge::{DistrEdge, DistrEdgeConfig};
use edgesim::Cluster;
use netsim::LinkConfig;
use tensor::slice::concat_rows;
use tensor::Shape;

fn main() {
    // A small CNN so the (deliberately simple) conv kernels stay fast.
    let model = Model::new(
        "demo-cnn",
        Shape::new(3, 96, 96),
        &[
            LayerOp::conv(16, 3, 1, 1),
            LayerOp::conv(16, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::conv(32, 3, 1, 1),
            LayerOp::conv(32, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::conv(64, 3, 1, 1),
            LayerOp::fc(10),
        ],
    )
    .expect("valid model");

    let cluster = Cluster::uniform(
        vec![
            DeviceSpec::new("xavier", DeviceType::Xavier),
            DeviceSpec::new("tx2", DeviceType::Tx2),
            DeviceSpec::new("nano", DeviceType::Nano),
        ],
        LinkConfig::constant(200.0),
    );

    // Plan a strategy with DistrEdge.
    let config = DistrEdgeConfig::fast(cluster.len())
        .with_episodes(60)
        .with_seed(1);
    let outcome = DistrEdge::plan(&model, &cluster, &config).expect("planning failed");
    let plan = outcome
        .strategy
        .to_plan(&model)
        .expect("plan lowering failed");
    println!(
        "strategy: {} volumes, shares {:?}",
        outcome.strategy.num_volumes(),
        outcome.strategy.row_shares(&model)
    );

    // Reference: run the whole model on one "device".
    let weights = ModelWeights::deterministic(&model, 42);
    let input = deterministic_input(&model, 42);
    let reference = run_full(&model, &weights, &input).expect("full run failed");

    // Distributed: pack the weights once (as a deploy would), execute each
    // volume's split-parts independently (as the providers would) and stitch
    // the bands back together.
    let packed = PackedModelWeights::pack(&model, &weights).expect("packing failed");
    let mut volume_input = input.clone();
    for (v, assignment) in plan.volumes.iter().enumerate() {
        let mut bands = Vec::new();
        for (device, part) in assignment.parts.iter().enumerate() {
            if let Some(out) = run_part(&model, &packed, part, &volume_input).expect("part failed")
            {
                println!(
                    "  volume {v}: device {device} computed output rows {:?}",
                    part.output_rows
                );
                bands.push(out);
            }
        }
        let stitched = concat_rows(&bands).expect("stitch failed");
        let expected = &reference[assignment.parts[0].volume.end - 1];
        let diff = stitched.max_abs_diff(expected).expect("comparable shapes");
        println!("  volume {v}: max |distributed - reference| = {diff:.2e}");
        assert!(
            diff < 1e-4,
            "distributed execution must match the reference"
        );
        volume_input = stitched;
    }
    println!("\nDistributed execution is functionally identical to single-device execution.");
}

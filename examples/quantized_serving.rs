//! Int8 quantized serving end to end: deploy the same model once in f32
//! and once quantized, stream identical images through both, and report
//! what quantization buys — int8 GEMM kernels on every device, ~4× less
//! resident weight memory, and q8 activation frames on the wire — while
//! the logits stay within the documented 5%-of-range tolerance of the
//! single-device f32 reference.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quantized_serving
//! ```

use cnn_model::exec::{deterministic_input, run_full, ModelWeights, PackedModelWeights, QuantSpec};
use cnn_model::{LayerOp, Model, PartitionScheme, VolumeSplit};
use edge_runtime::session::Deploy;
use edge_runtime::RuntimeOptions;
use edgesim::ExecutionPlan;
use tensor::ops::qkernel_arch;
use tensor::Shape;

const DEVICES: usize = 3;
const IMAGES: u64 = 4;
/// Outputs must stay within this fraction of the reference output range.
const TOLERANCE: f32 = 0.05;

/// A deep-channel model where every conv and the FC head clear the int8
/// routing thresholds (`c_in·f² ≥ 72`, FC inputs ≥ 256).
fn quantizable_model() -> Model {
    Model::new(
        "quantized-serving",
        Shape::new(16, 32, 32),
        &[
            LayerOp::conv(32, 3, 1, 1),
            LayerOp::conv(32, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::conv(64, 3, 1, 1),
            LayerOp::fc(10),
        ],
    )
    .expect("valid model")
}

fn equal_split_plan(model: &Model, devices: usize) -> ExecutionPlan {
    let scheme = PartitionScheme::single_volume(model);
    let split = VolumeSplit::equal(devices, model.prefix_output().h);
    ExecutionPlan::from_splits(model, &scheme, &[split], devices).expect("valid plan")
}

fn main() {
    let model = quantizable_model();
    let plan = equal_split_plan(&model, DEVICES);
    let weights = ModelWeights::deterministic(&model, 77);
    println!(
        "model: {} ({} layers, {:.1} MFLOPs), {DEVICES} providers, int8 kernel arch: {}",
        model.name(),
        model.len(),
        model.total_ops() / 1e6,
        qkernel_arch().label()
    );

    // 1. What the quantized pack saves in resident weight memory.  The
    //    calibration probes the model with deterministic inputs to fix
    //    static per-layer activation scales, so every device quantizes
    //    halo rows identically.
    let spec = QuantSpec::calibrate(&model, &weights).expect("calibration");
    let f32_pack = PackedModelWeights::pack(&model, &weights).expect("f32 pack");
    let q8_pack = PackedModelWeights::pack_with(&model, &weights, Some(&spec)).expect("int8 pack");
    println!(
        "weights: {} of {} layers quantized, resident {:.1} KiB f32 -> {:.1} KiB int8 ({:.2}x)",
        spec.quantized_layer_count(),
        model.len(),
        f32_pack.resident_bytes() as f64 / 1024.0,
        q8_pack.resident_bytes() as f64 / 1024.0,
        f32_pack.resident_bytes() as f64 / q8_pack.resident_bytes() as f64
    );

    // 2. Deploy both precisions over in-process channel fabrics.
    let f32_session = Deploy::new(&model, &plan, &weights)
        .start()
        .expect("f32 deploy");
    let q8_options = RuntimeOptions::default().with_quantized(true);
    let q8_session = Deploy::new(&model, &plan, &weights)
        .options(q8_options)
        .start()
        .expect("quantized deploy");
    assert!(q8_session.quantized(), "session negotiated q8 transfer");

    // 3. Stream the same images through both and check the quantized
    //    logits against the single-device f32 reference.
    let mut worst = 0.0f32;
    for seed in 0..IMAGES {
        let input = deterministic_input(&model, seed);
        let reference = run_full(&model, &weights, &input)
            .expect("reference run")
            .pop()
            .expect("model output");

        let t = f32_session.submit(&input).expect("f32 submit");
        let f32_out = f32_session.wait(t).expect("f32 wait");
        let t = q8_session.submit(&input).expect("q8 submit");
        let q8_out = q8_session.wait(t).expect("q8 wait");

        // The distributed f32 path reproduces the reference bit-exactly;
        // the quantized path trades precision for speed and bytes, bounded
        // by TOLERANCE of the reference output range.
        assert_eq!(f32_out.data(), reference.data(), "f32 path is bit-exact");
        let lo = reference
            .data()
            .iter()
            .cloned()
            .fold(f32::INFINITY, f32::min);
        let hi = reference
            .data()
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max);
        let bound = TOLERANCE * (hi - lo).max(1e-6);
        let err = q8_out
            .data()
            .iter()
            .zip(reference.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            err <= bound,
            "image {seed}: quantized error {err} above bound {bound}"
        );
        worst = worst.max(err / (hi - lo).max(1e-6));
    }
    println!(
        "accuracy: {IMAGES} images, worst quantized deviation {:.2}% of output range (bound {:.0}%)",
        worst * 100.0,
        TOLERANCE * 100.0
    );

    // 4. Drain both sessions and compare the bytes each one moved.
    let f32_report = f32_session.shutdown().expect("f32 shutdown");
    let q8_report = q8_session.shutdown().expect("q8 shutdown");
    let f32_bytes: u64 = f32_report.devices.iter().map(|d| d.bytes_out).sum();
    let q8_bytes: u64 = q8_report.devices.iter().map(|d| d.bytes_out).sum();
    println!(
        "wire: f32 moved {:.1} KiB, int8 moved {:.1} KiB ({:.2}x less)",
        f32_bytes as f64 / 1024.0,
        q8_bytes as f64 / 1024.0,
        f32_bytes as f64 / q8_bytes.max(1) as f64
    );
    println!(
        "\nquantized serving held the {:.0}% tolerance end to end",
        TOLERANCE * 100.0
    );
}

//! The options a session streams under and what a one-shot batch returns.
//!
//! Deploying is [`crate::session::Deploy`]; one-shot streaming is
//! [`Session::run_batch`](crate::session::Session::run_batch) on the
//! session it returns.

use crate::report::RuntimeReport;
use serde::{Deserialize, Serialize};
use std::time::Duration;
use tensor::Tensor;

/// Options of a runtime session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeOptions {
    /// The credit window: maximum images in flight at once.  `1` reproduces
    /// the paper's (and the simulator's) closed loop — the requester waits
    /// for each result before sending the next image; larger values
    /// pipeline.  Submission blocks (or `try_submit` declines) while the
    /// window is full, which also bounds every provider inbox.
    pub max_in_flight: usize,
    /// How long the requester waits for any single result frame before
    /// declaring the cluster wedged.  Also bounds a plan swap: if a
    /// `Session::apply_plan` drain or its epoch acks take longer than this,
    /// the swap fails instead of blocking admission forever.
    pub recv_timeout: Duration,
    /// Serve with int8 quantized inference: eligible layers run the
    /// int8×int8→i32 GEMM kernels from per-layer calibrated activation
    /// scales, quantized layers keep int8-only weight panels resident
    /// (~4× smaller), and inter-device `Rows` activations travel as q8
    /// slabs (~4× fewer wire bytes).  Outputs track the f32 reference
    /// within the quantization tolerance instead of bit-exactly.
    #[serde(default)]
    pub quantized: bool,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        Self {
            max_in_flight: 4,
            recv_timeout: Duration::from_secs(120),
            quantized: false,
        }
    }
}

impl RuntimeOptions {
    /// Overrides the credit window (images in flight at once).
    pub fn with_max_in_flight(mut self, window: usize) -> Self {
        self.max_in_flight = window;
        self
    }

    /// Overrides the result-frame timeout.
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Enables int8 quantized serving (see [`RuntimeOptions::quantized`]).
    pub fn with_quantized(mut self, on: bool) -> Self {
        self.quantized = on;
        self
    }
}

/// What [`Session::run_batch`](crate::session::Session::run_batch) returns:
/// the measurement and the per-image outputs.
pub struct RuntimeOutcome {
    /// Measured metrics.
    pub report: RuntimeReport,
    /// Final output tensor of every image, in stream order: the FC-head
    /// output for models with a head, the stitched last-volume feature map
    /// otherwise.
    pub outputs: Vec<Tensor>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Deploy;
    use cnn_model::exec::{self, deterministic_input, ModelWeights};
    use cnn_model::{LayerOp, Model, PartitionScheme, VolumeSplit};
    use edgesim::ExecutionPlan;
    use tensor::Shape;

    fn model() -> Model {
        Model::new(
            "runtime-test",
            Shape::new(2, 24, 16),
            &[
                LayerOp::conv(4, 3, 1, 1),
                LayerOp::conv(4, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::conv(6, 3, 1, 1),
                LayerOp::fc(5),
            ],
        )
        .unwrap()
    }

    fn split_plan(m: &Model, devices: usize) -> ExecutionPlan {
        let scheme = PartitionScheme::new(m, vec![0, 3, 4]).unwrap();
        let splits: Vec<VolumeSplit> = scheme
            .volumes()
            .iter()
            .map(|v| VolumeSplit::equal(devices, v.last_output_height(m)))
            .collect();
        ExecutionPlan::from_splits(m, &scheme, &splits, devices).unwrap()
    }

    fn reference_output(m: &Model, weights: &ModelWeights, input: &Tensor) -> Tensor {
        let outs = exec::run_full(m, weights, input).unwrap();
        outs.last().unwrap().clone()
    }

    #[test]
    fn distributed_output_is_bit_exact() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 3);
        let images: Vec<Tensor> = (0..3).map(|i| deterministic_input(&m, 100 + i)).collect();
        let plan = split_plan(&m, 3);
        let outcome = Deploy::new(&m, &plan, &weights)
            .start()
            .unwrap()
            .run_batch(&images)
            .unwrap();
        assert_eq!(outcome.outputs.len(), 3);
        for (img, out) in images.iter().zip(&outcome.outputs) {
            let reference = reference_output(&m, &weights, img);
            assert_eq!(
                out, &reference,
                "distributed output differs from single-device"
            );
        }
    }

    #[test]
    fn headless_model_stitches_rows_at_requester() {
        let m = Model::new(
            "nohead",
            Shape::new(2, 16, 12),
            &[LayerOp::conv(3, 3, 1, 1), LayerOp::pool(2, 2)],
        )
        .unwrap();
        let weights = ModelWeights::deterministic(&m, 5);
        let images = vec![deterministic_input(&m, 9)];
        let scheme = PartitionScheme::single_volume(&m);
        let split = VolumeSplit::equal(2, m.prefix_output().h);
        let plan = ExecutionPlan::from_splits(&m, &scheme, &[split], 2).unwrap();
        let outcome = Deploy::new(&m, &plan, &weights)
            .start()
            .unwrap()
            .run_batch(&images)
            .unwrap();
        let reference = reference_output(&m, &weights, &images[0]);
        assert_eq!(outcome.outputs[0], reference);
    }

    #[test]
    fn offload_plan_runs_on_one_device() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 1);
        let images = vec![deterministic_input(&m, 2)];
        let plan = ExecutionPlan::offload(&m, 1, 3).unwrap();
        let outcome = Deploy::new(&m, &plan, &weights)
            .start()
            .unwrap()
            .run_batch(&images)
            .unwrap();
        let reference = reference_output(&m, &weights, &images[0]);
        assert_eq!(outcome.outputs[0], reference);
        // Only device 1 computed anything.
        assert!(outcome.report.devices[1].compute_ms > 0.0);
        assert_eq!(outcome.report.devices[0].frames_in, 1); // halt only
        assert_eq!(outcome.report.devices[2].frames_in, 1);
    }

    #[test]
    fn pipelining_keeps_multiple_images_in_flight() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 7);
        let images: Vec<Tensor> = (0..6).map(|i| deterministic_input(&m, i)).collect();
        let plan = split_plan(&m, 2);
        let opts = RuntimeOptions {
            max_in_flight: 4,
            ..RuntimeOptions::default()
        };
        let outcome = Deploy::new(&m, &plan, &weights)
            .options(opts)
            .start()
            .unwrap()
            .run_batch(&images)
            .unwrap();
        assert!(
            outcome.report.max_in_flight_observed >= 2,
            "expected pipelining, saw {} in flight",
            outcome.report.max_in_flight_observed
        );
    }

    #[test]
    fn closed_loop_keeps_one_image_in_flight() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 7);
        let images: Vec<Tensor> = (0..3).map(|i| deterministic_input(&m, i)).collect();
        let plan = split_plan(&m, 2);
        let opts = RuntimeOptions {
            max_in_flight: 1,
            ..RuntimeOptions::default()
        };
        let outcome = Deploy::new(&m, &plan, &weights)
            .options(opts)
            .start()
            .unwrap()
            .run_batch(&images)
            .unwrap();
        assert_eq!(outcome.report.max_in_flight_observed, 1);
        for d in &outcome.report.devices {
            assert!(d.max_concurrent_images <= 1);
        }
    }

    #[test]
    fn streaming_error_still_shuts_workers_down() {
        // A mid-stream failure (here: an absurdly short result timeout) must
        // not leak worker threads — over TCP a leaked worker would deadlock
        // the transport's Drop on its reader threads.
        use crate::transport::TcpTransport;
        let m = model();
        let weights = ModelWeights::deterministic(&m, 31);
        let images: Vec<Tensor> = (0..3).map(|i| deterministic_input(&m, i)).collect();
        let plan = split_plan(&m, 2);
        let opts = RuntimeOptions {
            max_in_flight: 2,
            recv_timeout: Duration::from_micros(1),
            quantized: false,
        };
        let mut tcp = TcpTransport::new(2).unwrap();
        let result = Deploy::new(&m, &plan, &weights)
            .over(&mut tcp)
            .options(opts)
            .start()
            .and_then(|session| session.run_batch(&images));
        assert!(result.is_err(), "a 1µs result timeout must fail");
        // The real assertion: dropping the transport completes instead of
        // hanging on leaked reader threads (the test harness would time out).
        drop(tcp);
    }

    #[test]
    fn rejects_bad_input_shape() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 7);
        let images = vec![Tensor::zeros([1, 2, 3])];
        let plan = split_plan(&m, 2);
        let err = Deploy::new(&m, &plan, &weights)
            .start()
            .and_then(|session| session.run_batch(&images));
        assert!(err.is_err());
    }

    #[test]
    fn report_totals_are_consistent() {
        let m = model();
        let weights = ModelWeights::deterministic(&m, 11);
        let images: Vec<Tensor> = (0..4).map(|i| deterministic_input(&m, i)).collect();
        let plan = split_plan(&m, 2);
        let outcome = Deploy::new(&m, &plan, &weights)
            .start()
            .unwrap()
            .run_batch(&images)
            .unwrap();
        let r = &outcome.report;
        assert_eq!(r.sim.per_image_latency_ms.len(), 4);
        assert!(r.sim.ips > 0.0);
        assert!(r.measured_ips > 0.0);
        assert_eq!(r.devices.len(), 2);
        // Every device computed all four images of both volumes.
        for d in &r.devices {
            assert_eq!(d.per_volume_images, vec![4, 4]);
            assert!(d.compute_ms > 0.0);
        }
        // The head ran on exactly one device.
        let heads: u64 = r.devices.iter().map(|d| d.head_images).sum();
        assert_eq!(heads, 4);
    }
}

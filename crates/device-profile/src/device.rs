//! Device types and their ground-truth (non-linear) compute models.

use cnn_model::Layer;
use serde::{Deserialize, Serialize};

/// The four device types of the paper's testbed (§V-A, Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceType {
    /// Raspberry Pi 3 (CPU only; far slower than the Jetson boards).
    Pi3,
    /// NVIDIA Jetson Nano.
    Nano,
    /// NVIDIA Jetson TX2.
    Tx2,
    /// NVIDIA Jetson AGX Xavier.
    Xavier,
}

impl DeviceType {
    /// All device types, slowest to fastest.
    pub const ALL: [DeviceType; 4] = [
        DeviceType::Pi3,
        DeviceType::Nano,
        DeviceType::Tx2,
        DeviceType::Xavier,
    ];

    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            DeviceType::Pi3 => "Pi3",
            DeviceType::Nano => "Nano",
            DeviceType::Tx2 => "TX2",
            DeviceType::Xavier => "Xavier",
        }
    }

    /// The calibrated ground-truth compute model for this device type.
    ///
    /// The absolute constants are not the paper's (which come from TensorRT
    /// on physical boards); they are chosen so that (a) the relative
    /// ordering `Pi3 ≪ Nano < TX2 < Xavier` matches the published Jetson
    /// benchmarks the paper cites, and (b) the latency-vs-rows curve of the
    /// GPU devices is non-linear in the way Fig. 14 shows (a fixed
    /// per-kernel launch overhead, a row-granularity staircase from wave
    /// quantisation, and poor utilisation at small workloads).
    pub fn ground_truth(&self) -> GroundTruthModel {
        match self {
            DeviceType::Pi3 => GroundTruthModel {
                device: *self,
                peak_gflops: 8.0,
                launch_overhead_ms: 0.30,
                row_granularity: 1,
                half_saturation_ops: 0.0,
                utilisation_exponent: 1.0,
            },
            DeviceType::Nano => GroundTruthModel {
                device: *self,
                peak_gflops: 180.0,
                launch_overhead_ms: 0.25,
                row_granularity: 8,
                half_saturation_ops: 2.0e7,
                utilisation_exponent: 0.65,
            },
            DeviceType::Tx2 => GroundTruthModel {
                device: *self,
                peak_gflops: 420.0,
                launch_overhead_ms: 0.22,
                row_granularity: 8,
                half_saturation_ops: 4.0e7,
                utilisation_exponent: 0.65,
            },
            DeviceType::Xavier => GroundTruthModel {
                device: *self,
                peak_gflops: 1400.0,
                launch_overhead_ms: 0.18,
                row_granularity: 16,
                half_saturation_ops: 1.2e8,
                utilisation_exponent: 0.65,
            },
        }
    }
}

/// A concrete service provider: a named device of a given type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable identifier (e.g. `"xavier-0"`).
    pub name: String,
    /// The device type.
    pub device_type: DeviceType,
}

impl DeviceSpec {
    /// Creates a device spec.
    pub fn new(name: impl Into<String>, device_type: DeviceType) -> Self {
        Self {
            name: name.into(),
            device_type,
        }
    }

    /// The ground-truth compute model of this device.
    pub fn ground_truth(&self) -> GroundTruthModel {
        self.device_type.ground_truth()
    }
}

/// Anything that can predict the computing latency of a layer's row band on
/// a device: the ground truth or a profiled device's measured table.
pub trait ComputeModel {
    /// Latency in milliseconds of producing `out_rows` output rows of
    /// `layer` on this device.  Zero rows cost zero (the device is skipped).
    fn layer_latency_ms(&self, layer: &Layer, out_rows: usize) -> f64;

    /// Latency of the full layer.
    fn full_layer_latency_ms(&self, layer: &Layer) -> f64 {
        self.layer_latency_ms(layer, layer.output.h)
    }
}

/// The ground-truth non-linear compute model standing in for a physical
/// board.
///
/// For a band of `r` output rows of a layer with per-row work `w` ops:
///
/// ```text
/// rows_eff = ceil(r / granularity) * granularity          (wave quantisation)
/// work     = w * rows_eff
/// util     = work^β / (work^β + half_sat^β)               (occupancy ramp)
/// latency  = launch_overhead + work / (peak * util)
/// ```
///
/// With `half_sat = 0` and `granularity = 1` (the Pi 3) this degenerates to
/// the linear model the baseline methods assume; the GPU devices are
/// distinctly non-linear at small row counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroundTruthModel {
    /// Which device type this models.
    pub device: DeviceType,
    /// Peak sustained throughput in GFLOP/s for convolution workloads.
    pub peak_gflops: f64,
    /// Fixed per-layer kernel launch / scheduling overhead in ms.
    pub launch_overhead_ms: f64,
    /// Output rows are processed in multiples of this granularity.
    pub row_granularity: usize,
    /// Work level (in ops) at which utilisation reaches one half.
    pub half_saturation_ops: f64,
    /// Exponent of the utilisation ramp (lower = more non-linear).
    pub utilisation_exponent: f64,
}

impl GroundTruthModel {
    /// Effective utilisation in `(0, 1]` for a given amount of work.
    pub fn utilisation(&self, work_ops: f64) -> f64 {
        if self.half_saturation_ops <= 0.0 {
            return 1.0;
        }
        let beta = self.utilisation_exponent;
        let w = work_ops.max(1.0).powf(beta);
        let h = self.half_saturation_ops.powf(beta);
        (w / (w + h)).clamp(1e-6, 1.0)
    }
}

impl ComputeModel for GroundTruthModel {
    fn layer_latency_ms(&self, layer: &Layer, out_rows: usize) -> f64 {
        if out_rows == 0 {
            return 0.0;
        }
        let g = self.row_granularity.max(1);
        let rows_eff = out_rows.div_ceil(g) * g;
        let rows_eff = rows_eff.min(layer.output.h.max(out_rows));
        let work = layer
            .ops_for_rows(rows_eff)
            .max(layer.ops_for_rows(out_rows));
        let util = self.utilisation(work);
        self.launch_overhead_ms + work / (self.peak_gflops * 1e9 * util) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_model::{LayerOp, Model};
    use tensor::Shape;

    fn conv_layer() -> Layer {
        let m = Model::new(
            "t",
            Shape::new(64, 112, 112),
            &[LayerOp::conv(128, 3, 1, 1)],
        )
        .unwrap();
        m.layers()[0]
    }

    #[test]
    fn device_ordering_is_monotone() {
        let layer = conv_layer();
        let lat: Vec<f64> = DeviceType::ALL
            .iter()
            .map(|d| d.ground_truth().full_layer_latency_ms(&layer))
            .collect();
        // Pi3 slowest, Xavier fastest.
        assert!(
            lat[0] > lat[1] && lat[1] > lat[2] && lat[2] > lat[3],
            "latencies {lat:?}"
        );
        // Pi3 is more than an order of magnitude slower than Nano.
        assert!(lat[0] > 10.0 * lat[1]);
    }

    #[test]
    fn zero_rows_cost_nothing() {
        let layer = conv_layer();
        for d in DeviceType::ALL {
            assert_eq!(d.ground_truth().layer_latency_ms(&layer, 0), 0.0);
        }
    }

    #[test]
    fn latency_is_monotone_in_rows() {
        let layer = conv_layer();
        let gt = DeviceType::Xavier.ground_truth();
        let mut prev = 0.0;
        for rows in 1..=layer.output.h {
            let l = gt.layer_latency_ms(&layer, rows);
            assert!(l >= prev - 1e-12, "latency must not decrease with rows");
            prev = l;
        }
    }

    #[test]
    fn gpu_devices_are_nonlinear() {
        // Halving the rows must NOT halve the latency on a GPU device: the
        // launch overhead and poor small-batch utilisation keep the small
        // band disproportionately expensive.
        let layer = conv_layer();
        let gt = DeviceType::Nano.ground_truth();
        let full = gt.layer_latency_ms(&layer, layer.output.h);
        let half = gt.layer_latency_ms(&layer, layer.output.h / 2);
        let quarter = gt.layer_latency_ms(&layer, layer.output.h / 4);
        assert!(half > full * 0.5, "half-rows latency {half} vs full {full}");
        assert!(quarter > full * 0.25);
    }

    #[test]
    fn pi3_is_close_to_linear() {
        let layer = conv_layer();
        let gt = DeviceType::Pi3.ground_truth();
        let full = gt.layer_latency_ms(&layer, layer.output.h);
        let half = gt.layer_latency_ms(&layer, layer.output.h / 2);
        // Within 5% of exactly half once the (small) overhead is discounted.
        let lin = (full - gt.launch_overhead_ms) / 2.0 + gt.launch_overhead_ms;
        assert!((half - lin).abs() / lin < 0.05);
    }

    #[test]
    fn staircase_granularity_visible() {
        let layer = conv_layer();
        let gt = DeviceType::Xavier.ground_truth();
        // Within one granule the latency is flat.
        let a = gt.layer_latency_ms(&layer, 1);
        let b = gt.layer_latency_ms(&layer, gt.row_granularity);
        assert!((a - b).abs() < 1e-9);
        // Crossing a granule boundary jumps.
        let c = gt.layer_latency_ms(&layer, gt.row_granularity + 1);
        assert!(c > b);
    }

    #[test]
    fn utilisation_bounds() {
        let gt = DeviceType::Nano.ground_truth();
        assert!(gt.utilisation(1.0) > 0.0);
        assert!(gt.utilisation(1e15) <= 1.0);
        assert!(gt.utilisation(1e4) < gt.utilisation(1e9));
        let pi = DeviceType::Pi3.ground_truth();
        assert_eq!(pi.utilisation(123.0), 1.0);
    }

    #[test]
    fn vgg16_whole_model_latency_plausible() {
        // Whole-model single-device latency should give IPS figures in the
        // same ballpark as the paper's offload baseline (tens of ms on
        // Xavier, hundreds on Nano, seconds on Pi3).
        let m = cnn_model::zoo::vgg16();
        let total = |d: DeviceType| -> f64 {
            m.layers()
                .iter()
                .map(|l| d.ground_truth().full_layer_latency_ms(l))
                .sum()
        };
        let xavier = total(DeviceType::Xavier);
        let nano = total(DeviceType::Nano);
        let pi3 = total(DeviceType::Pi3);
        assert!(xavier > 15.0 && xavier < 80.0, "xavier = {xavier}");
        assert!(nano > 120.0 && nano < 500.0, "nano = {nano}");
        assert!(pi3 > 2_000.0, "pi3 = {pi3}");
    }

    #[test]
    fn device_spec_names() {
        let d = DeviceSpec::new("xavier-0", DeviceType::Xavier);
        assert_eq!(d.name, "xavier-0");
        assert_eq!(d.ground_truth().device, DeviceType::Xavier);
        assert_eq!(DeviceType::Xavier.name(), "Xavier");
    }
}

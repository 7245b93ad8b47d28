//! The offline profiling step DistrEdge's controller performs (§V-A).
//!
//! For every layer of the model and every device type, the profiler measures
//! the computing latency against the number of output rows (granularity 1 in
//! the paper), repeating each measurement and averaging.  On the physical
//! testbed the measurement is a TensorRT Profiler run; here it queries the
//! ground-truth device model, optionally with multiplicative measurement
//! noise, which reproduces the same pipeline: everything downstream sees
//! *profiled* numbers, never the ground truth itself.
//!
//! A device's profile is the measured table itself — one
//! [`LayerLatencyTable`] per layer, read at the nearest measured row count —
//! which is the "measured data table" form of the profiling results §IV
//! allows.

use crate::device::{ComputeModel, GroundTruthModel};
use cnn_model::{Layer, Model};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Options controlling a profiling run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfilingOptions {
    /// Measure every `step`-th row count (1 = the paper's granularity).
    pub row_step: usize,
    /// Number of repetitions averaged per measurement point (paper: 100).
    pub repetitions: usize,
    /// Multiplicative measurement noise (standard deviation, e.g. 0.02).
    pub noise_std: f64,
    /// RNG seed for the measurement noise.
    pub seed: u64,
}

impl Default for ProfilingOptions {
    /// Row step 4 keeps profiling cheap while staying close to the paper's
    /// granularity-1 tables; the figure binaries can lower it.
    fn default() -> Self {
        Self {
            row_step: 4,
            repetitions: 3,
            noise_std: 0.01,
            seed: 17,
        }
    }
}

/// The measured latency table of one layer on one device: latency (ms)
/// against output row count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerLatencyTable {
    /// Model-wide layer index.
    pub layer: usize,
    /// Measured `(rows, latency_ms)` points, sorted by rows.
    pub points: Vec<(usize, f64)>,
}

impl LayerLatencyTable {
    /// Latency at the nearest measured row count: a tie goes to the lower
    /// point, a row count past the last point reads the last point, and 0
    /// rows (or an empty table) cost nothing.
    pub fn nearest(&self, rows: usize) -> f64 {
        if rows == 0 || self.points.is_empty() {
            return 0.0;
        }
        self.points
            .iter()
            .min_by_key(|(r, _)| r.abs_diff(rows))
            .map(|&(_, l)| l)
            .unwrap_or(0.0)
    }

    /// Largest measured row count.
    pub fn max_rows(&self) -> usize {
        self.points.last().map(|&(r, _)| r).unwrap_or(0)
    }
}

/// A profiled device: its measured latency tables, one per model layer.
#[derive(Debug, Clone)]
pub struct Profiler {
    /// Measured tables, one per model layer.
    pub tables: Vec<LayerLatencyTable>,
}

impl Profiler {
    /// Profiles `device` over every layer of `model`.
    pub fn profile(model: &Model, device: &GroundTruthModel, options: ProfilingOptions) -> Self {
        let mut rng = StdRng::seed_from_u64(options.seed);
        let mut tables = Vec::with_capacity(model.len());
        for layer in model.layers() {
            let h = layer.output.h.max(1);
            let step = options.row_step.max(1);
            let mut points = Vec::new();
            let mut rows = 1usize;
            loop {
                let mut acc = 0.0;
                for _ in 0..options.repetitions.max(1) {
                    let noise = if options.noise_std > 0.0 {
                        1.0 + rng.gen_range(-1.0..1.0) * options.noise_std
                    } else {
                        1.0
                    };
                    acc += device.layer_latency_ms(layer, rows) * noise;
                }
                points.push((rows, acc / options.repetitions.max(1) as f64));
                if rows >= h {
                    break;
                }
                rows = (rows + step).min(h);
            }
            tables.push(LayerLatencyTable {
                layer: layer.index,
                points,
            });
        }
        Self { tables }
    }

    /// Predicted latency of `rows` output rows of layer `layer_index`.
    pub fn predict(&self, layer_index: usize, rows: usize) -> f64 {
        if rows == 0 {
            return 0.0;
        }
        self.tables
            .get(layer_index)
            .map_or(0.0, |t| t.nearest(rows).max(0.0))
    }

    /// A per-layer "computing capability" figure: full-layer work divided by
    /// profiled full-layer latency.  This is exactly the linear summary the
    /// baseline methods (CoEdge, MoDNN, MeDNN, AOFL) reduce a device to.
    pub fn linear_capability(&self, model: &Model) -> f64 {
        let mut ops = 0.0;
        let mut lat = 0.0;
        for (layer, table) in model.layers().iter().zip(&self.tables) {
            if !layer.is_splittable() {
                continue;
            }
            ops += layer.ops();
            lat += table.nearest(layer.output.h);
        }
        if lat <= 0.0 {
            0.0
        } else {
            ops / lat
        }
    }
}

impl ComputeModel for Profiler {
    fn layer_latency_ms(&self, layer: &Layer, out_rows: usize) -> f64 {
        self.predict(layer.index, out_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceType;
    use cnn_model::{LayerOp, Model};
    use tensor::Shape;

    fn model() -> Model {
        Model::new(
            "prof-test",
            Shape::new(3, 64, 64),
            &[
                LayerOp::conv(16, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::conv(32, 3, 1, 1),
            ],
        )
        .unwrap()
    }

    fn noiseless() -> ProfilingOptions {
        ProfilingOptions {
            row_step: 1,
            repetitions: 1,
            noise_std: 0.0,
            seed: 1,
        }
    }

    #[test]
    fn table_covers_all_rows() {
        let m = model();
        let gt = DeviceType::Nano.ground_truth();
        let p = Profiler::profile(&m, &gt, noiseless());
        assert_eq!(p.tables.len(), 3);
        assert_eq!(p.tables[0].max_rows(), 64);
        assert_eq!(p.tables[1].max_rows(), 32);
        assert_eq!(p.tables[0].points.len(), 64);
    }

    #[test]
    fn table_repr_reproduces_ground_truth_exactly() {
        let m = model();
        let gt = DeviceType::Tx2.ground_truth();
        let p = Profiler::profile(&m, &gt, noiseless());
        for layer in m.layers() {
            for rows in [1usize, 7, 20, layer.output.h] {
                let truth = gt.layer_latency_ms(layer, rows);
                let pred = p.layer_latency_ms(layer, rows);
                assert!(
                    (truth - pred).abs() < 1e-9,
                    "rows {rows}: {pred} vs {truth}"
                );
            }
        }
    }

    #[test]
    fn zero_rows_predicts_zero() {
        let m = model();
        let gt = DeviceType::Nano.ground_truth();
        let p = Profiler::profile(&m, &gt, noiseless());
        assert_eq!(p.predict(0, 0), 0.0);
    }

    #[test]
    fn nearest_takes_the_lower_point_on_a_tie_and_clamps_past_the_end() {
        let table = LayerLatencyTable {
            layer: 0,
            points: vec![(1, 10.0), (5, 50.0), (9, 90.0)],
        };
        // Rows 3 is two away from both 1 and 5: the lower point wins.
        assert_eq!(table.nearest(3), 10.0);
        assert_eq!(table.nearest(4), 50.0);
        assert_eq!(table.nearest(7), 50.0);
        // Past the last measured point: the last point.
        assert_eq!(table.nearest(40), 90.0);
        assert_eq!(table.nearest(0), 0.0);
        let empty = LayerLatencyTable {
            layer: 0,
            points: Vec::new(),
        };
        assert_eq!(empty.nearest(3), 0.0);
    }

    #[test]
    fn proportional_capability_underestimates_small_bands_on_gpu() {
        // The baselines reduce a device to a single "capability" value and
        // assume latency scales proportionally with the split size.  On a
        // GPU device with launch overhead and poor small-batch utilisation,
        // that proportional model badly under-predicts the cost of a tiny
        // band — the modelling error the paper blames for the baselines'
        // computing-latency imbalance (§V-G, Fig. 14/15).
        let m = model();
        let gt = DeviceType::Nano.ground_truth();
        let layer = &m.layers()[0];
        let truth = gt.layer_latency_ms(layer, 2);
        let proportional = gt.layer_latency_ms(layer, layer.output.h) * 2.0 / layer.output.h as f64;
        assert!(
            proportional < truth * 0.5,
            "proportional {proportional} should badly undershoot truth {truth}"
        );
    }

    #[test]
    fn capability_ordering_matches_device_ordering() {
        let m = model();
        let caps: Vec<f64> = DeviceType::ALL
            .iter()
            .map(|d| Profiler::profile(&m, &d.ground_truth(), noiseless()).linear_capability(&m))
            .collect();
        assert!(
            caps[0] < caps[1] && caps[1] < caps[2] && caps[2] < caps[3],
            "{caps:?}"
        );
    }

    #[test]
    fn noise_is_reproducible() {
        let m = model();
        let gt = DeviceType::Nano.ground_truth();
        let opts = ProfilingOptions {
            noise_std: 0.05,
            ..ProfilingOptions::default()
        };
        let a = Profiler::profile(&m, &gt, opts);
        let b = Profiler::profile(&m, &gt, opts);
        assert_eq!(a.tables[0].points, b.tables[0].points);
    }

    #[test]
    fn coarse_row_step_shrinks_table() {
        let m = model();
        let gt = DeviceType::Nano.ground_truth();
        let opts = ProfilingOptions {
            row_step: 8,
            repetitions: 1,
            noise_std: 0.0,
            seed: 1,
        };
        let p = Profiler::profile(&m, &gt, opts);
        assert!(p.tables[0].points.len() <= 10);
        // The last point still covers the full height.
        assert_eq!(p.tables[0].max_rows(), 64);
    }
}

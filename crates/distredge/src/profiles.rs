//! Per-device latency profiles — everything the DistrEdge controller (and
//! the baselines) are allowed to know about the devices.
//!
//! The controller never sees the ground-truth compute models: it sees the
//! profiling results (§V-A) as measured tables, and it sees the monitored
//! mean bandwidth of each link.  This module packages those views and
//! adapts them to the `edgesim` stepper so the OSDS training environment
//! can estimate latencies from profiles exactly as the paper describes.

use cnn_model::{Model, PartPlan};
use device_profile::{Profiler, ProfilingOptions};
use edgesim::{Cluster, PartCompute};

/// The profiled view of a cluster for one model: one [`Profiler`] per device.
#[derive(Debug, Clone)]
pub struct ClusterProfiles {
    profilers: Vec<Profiler>,
    capabilities: Vec<f64>,
}

impl ClusterProfiles {
    /// Profiles every device of `cluster` over `model`.
    pub fn collect(model: &Model, cluster: &Cluster, options: &ProfilingOptions) -> Self {
        let mut profilers = Vec::with_capacity(cluster.len());
        for (i, device) in cluster.devices().iter().enumerate() {
            let opts = ProfilingOptions {
                seed: options.seed.wrapping_add(i as u64),
                ..*options
            };
            profilers.push(Profiler::profile(model, &device.ground_truth(), opts));
        }
        let capabilities = profilers
            .iter()
            .map(|p| p.linear_capability(model))
            .collect();
        Self {
            profilers,
            capabilities,
        }
    }

    /// Number of profiled devices.
    pub fn len(&self) -> usize {
        self.profilers.len()
    }

    /// Whether there are no profiled devices.
    pub fn is_empty(&self) -> bool {
        self.profilers.is_empty()
    }

    /// Linear "computing capability" (ops per ms) of each device — the
    /// single-number summary the linear baselines use.
    pub fn capabilities(&self) -> &[f64] {
        &self.capabilities
    }

    /// Profiled latency of the full per-layer computation on device `i`
    /// (used by the layer-by-layer baselines).
    pub fn full_layer_latency(&self, device: usize, layer_index: usize, rows: usize) -> f64 {
        self.profilers[device].predict(layer_index, rows)
    }
}

impl PartCompute for ClusterProfiles {
    fn part_compute_ms(&self, device: usize, model: &Model, part: &PartPlan) -> f64 {
        self.profilers.part_compute_ms(device, model, part)
    }

    fn head_compute_ms(&self, device: usize, model: &Model) -> f64 {
        self.profilers.head_compute_ms(device, model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_model::{LayerOp, LayerVolume};
    use device_profile::{DeviceSpec, DeviceType};
    use netsim::LinkConfig;
    use tensor::Shape;

    fn model() -> Model {
        Model::new(
            "t",
            Shape::new(3, 48, 48),
            &[
                LayerOp::conv(16, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::conv(32, 3, 1, 1),
                LayerOp::fc(10),
            ],
        )
        .unwrap()
    }

    fn cluster() -> Cluster {
        Cluster::uniform(
            vec![
                DeviceSpec::new("xavier", DeviceType::Xavier),
                DeviceSpec::new("nano", DeviceType::Nano),
            ],
            LinkConfig::constant(100.0),
        )
    }

    #[test]
    fn collect_profiles_every_device() {
        let m = model();
        let c = cluster();
        let p = ClusterProfiles::collect(&m, &c, &ProfilingOptions::default());
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(
            p.capabilities()[0] > p.capabilities()[1],
            "Xavier beats Nano"
        );
    }

    #[test]
    fn profiled_compute_tracks_ground_truth() {
        let m = model();
        let c = cluster();
        let options = ProfilingOptions {
            row_step: 1,
            repetitions: 1,
            noise_std: 0.0,
            seed: 1,
        };
        let profiles = ClusterProfiles::collect(&m, &c, &options);
        let truth = c.ground_truth_compute();
        let part = PartPlan::plan(&m, LayerVolume::new(0, 3), 0, 12).unwrap();
        for device in 0..2 {
            let p = profiles.part_compute_ms(device, &m, &part);
            let t = truth.part_compute_ms(device, &m, &part);
            assert!((p - t).abs() / t < 0.02, "device {device}: {p} vs {t}");
        }
        let hp = profiles.head_compute_ms(0, &m);
        let ht = vec![DeviceType::Xavier.ground_truth()].head_compute_ms(0, &m);
        assert!((hp - ht).abs() / ht < 0.02);
    }

    #[test]
    fn empty_part_costs_nothing() {
        let m = model();
        let c = cluster();
        let p = ClusterProfiles::collect(&m, &c, &ProfilingOptions::default());
        let part = PartPlan::plan(&m, LayerVolume::new(0, 3), 4, 4).unwrap();
        assert_eq!(p.part_compute_ms(0, &m, &part), 0.0);
    }
}

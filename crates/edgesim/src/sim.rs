//! Streaming simulation of an execution plan.

use crate::cluster::{Cluster, PartCompute};
use crate::metrics::SimReport;
use crate::plan::ExecutionPlan;
use crate::stepper::{advance_volume, finish_image, ClusterState, DataLocation};
use cnn_model::Model;
use serde::{Deserialize, Serialize};

/// Options for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimOptions {
    /// Number of images streamed from the requester.  The paper streams
    /// 5000; the default here is smaller because the per-image latency is
    /// deterministic given the link traces, so a few hundred images already
    /// sample the trace variation.
    pub num_images: usize,
    /// Absolute simulation time at which the stream starts (ms).  Lets the
    /// dynamic-network experiments start at different points of the traces.
    pub start_ms: f64,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            num_images: 200,
            start_ms: 0.0,
        }
    }
}

/// Simulates streaming `options.num_images` images through `plan` on
/// `cluster`, one at a time (the paper's requester does not send image
/// `k + 1` before the result of image `k` arrived).
pub fn simulate(
    model: &Model,
    cluster: &Cluster,
    compute: &dyn PartCompute,
    plan: &ExecutionPlan,
    options: SimOptions,
) -> SimReport {
    let n = cluster.len();
    let mut per_image = Vec::with_capacity(options.num_images);
    let mut compute_totals = vec![0.0; n];
    let mut transmission_totals = vec![0.0; n];
    let mut now = options.start_ms;

    for _ in 0..options.num_images {
        let mut state = ClusterState::new(now, n);
        let mut location = DataLocation::Requester;
        for assignment in &plan.volumes {
            let stats = advance_volume(
                model,
                cluster,
                compute,
                assignment,
                &mut location,
                &mut state,
            );
            for d in 0..n {
                compute_totals[d] += stats.compute_ms[d];
                transmission_totals[d] += stats.transmission_ms[d];
            }
        }
        let last = plan.volumes.last().expect("plan has at least one volume");
        let fin = finish_image(model, cluster, compute, last, &state, plan.head_device);
        for (total, t) in transmission_totals.iter_mut().zip(&fin.transmission_ms) {
            *total += t;
        }
        if let Some(h) = plan.head_device {
            compute_totals[h] += fin.head_compute_ms;
        }
        per_image.push(fin.finish_ms - now);
        now = fin.finish_ms;
    }

    SimReport::from_raw(per_image, compute_totals, transmission_totals)
}

/// Simulates with the cluster's ground-truth compute backend: how every
/// distribution strategy is measured.
pub fn simulate_ground_truth(
    model: &Model,
    cluster: &Cluster,
    plan: &ExecutionPlan,
    options: SimOptions,
) -> SimReport {
    let compute = cluster.ground_truth_compute();
    simulate(model, cluster, &compute, plan, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecutionPlan;
    use cnn_model::{LayerOp, PartitionScheme, VolumeSplit};
    use device_profile::{DeviceSpec, DeviceType};
    use netsim::LinkConfig;
    use tensor::Shape;

    fn model() -> Model {
        Model::new(
            "t",
            Shape::new(3, 64, 64),
            &[
                LayerOp::conv(16, 3, 1, 1),
                LayerOp::conv(16, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::conv(32, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::fc(10),
            ],
        )
        .unwrap()
    }

    fn cluster(n_xavier: usize, n_nano: usize, mbps: f64) -> Cluster {
        let mut devices = Vec::new();
        for i in 0..n_xavier {
            devices.push(DeviceSpec::new(format!("xavier-{i}"), DeviceType::Xavier));
        }
        for i in 0..n_nano {
            devices.push(DeviceSpec::new(format!("nano-{i}"), DeviceType::Nano));
        }
        Cluster::uniform(devices, LinkConfig::constant(mbps))
    }

    fn equal_plan(model: &Model, boundaries: Vec<usize>, n: usize) -> ExecutionPlan {
        let scheme = PartitionScheme::new(model, boundaries).unwrap();
        let splits: Vec<VolumeSplit> = scheme
            .volumes()
            .iter()
            .map(|v| VolumeSplit::equal(n, v.last_output_height(model)))
            .collect();
        ExecutionPlan::from_splits(model, &scheme, &splits, n).unwrap()
    }

    #[test]
    fn report_has_expected_shape() {
        let m = model();
        let c = cluster(1, 1, 100.0);
        let plan = equal_plan(&m, vec![0, 5], 2);
        let report = simulate_ground_truth(
            &m,
            &c,
            &plan,
            SimOptions {
                num_images: 10,
                start_ms: 0.0,
            },
        );
        assert_eq!(report.per_image_latency_ms.len(), 10);
        assert!(report.ips > 0.0);
        assert!(report.mean_latency_ms > 0.0);
        assert_eq!(report.per_device_compute_ms.len(), 2);
    }

    #[test]
    fn constant_links_give_constant_latency() {
        let m = model();
        let c = cluster(1, 1, 100.0);
        let plan = equal_plan(&m, vec![0, 5], 2);
        let report = simulate_ground_truth(
            &m,
            &c,
            &plan,
            SimOptions {
                num_images: 5,
                start_ms: 0.0,
            },
        );
        let first = report.per_image_latency_ms[0];
        for &l in &report.per_image_latency_ms {
            assert!((l - first).abs() < 1e-6);
        }
    }

    #[test]
    fn offload_to_fast_device_beats_offload_to_slow_device() {
        let m = model();
        let c = cluster(1, 1, 100.0);
        let fast = ExecutionPlan::offload(&m, 0, 2).unwrap();
        let slow = ExecutionPlan::offload(&m, 1, 2).unwrap();
        let opts = SimOptions {
            num_images: 3,
            start_ms: 0.0,
        };
        let fast_r = simulate_ground_truth(&m, &c, &fast, opts);
        let slow_r = simulate_ground_truth(&m, &c, &slow, opts);
        assert!(fast_r.ips > slow_r.ips);
    }

    #[test]
    fn higher_bandwidth_increases_ips() {
        let m = model();
        let plan = equal_plan(&m, vec![0, 5], 2);
        let opts = SimOptions {
            num_images: 3,
            start_ms: 0.0,
        };
        let slow = simulate_ground_truth(&m, &cluster(1, 1, 20.0), &plan, opts);
        let fast = simulate_ground_truth(&m, &cluster(1, 1, 300.0), &plan, opts);
        assert!(fast.ips > slow.ips);
    }

    #[test]
    fn fused_volume_beats_layer_by_layer_on_slow_network() {
        // Layer-by-layer distribution re-transmits every intermediate
        // feature map over the slow network; fusing into one volume avoids
        // that.  This is the core observation behind DeepThings/AOFL and the
        // reason CoEdge-style splitting loses in Fig. 13/15.
        let m = model();
        let c = cluster(1, 1, 50.0);
        let fused = equal_plan(&m, vec![0, 5], 2);
        let layered = equal_plan(&m, (0..=5).collect(), 2);
        let opts = SimOptions {
            num_images: 3,
            start_ms: 0.0,
        };
        let fused_r = simulate_ground_truth(&m, &c, &fused, opts);
        let layered_r = simulate_ground_truth(&m, &c, &layered, opts);
        assert!(fused_r.ips > layered_r.ips);
        assert!(fused_r.max_transmission_ms() < layered_r.max_transmission_ms());
    }

    #[test]
    fn two_fast_devices_beat_one_on_fast_network() {
        // A compute-heavy model (VGG-16) on a fast network: splitting the
        // work across two Xaviers must beat offloading to a single Xavier.
        // (For tiny models the per-layer launch overhead dominates and
        // offloading wins — which the simulator also reproduces.)
        let m = cnn_model::zoo::vgg16();
        let c2 = cluster(2, 0, 300.0);
        let split_plan = equal_plan(&m, vec![0, m.distributable_len()], 2);
        let offload_plan = ExecutionPlan::offload(&m, 0, 2).unwrap();
        let opts = SimOptions {
            num_images: 3,
            start_ms: 0.0,
        };
        let split_r = simulate_ground_truth(&m, &c2, &split_plan, opts);
        let offload_r = simulate_ground_truth(&m, &c2, &offload_plan, opts);
        assert!(
            split_r.ips > offload_r.ips,
            "split {} should beat offload {}",
            split_r.ips,
            offload_r.ips
        );
    }

    #[test]
    fn start_time_shifts_are_harmless_on_constant_links() {
        let m = model();
        let c = cluster(1, 1, 100.0);
        let plan = equal_plan(&m, vec![0, 5], 2);
        let a = simulate_ground_truth(
            &m,
            &c,
            &plan,
            SimOptions {
                num_images: 2,
                start_ms: 0.0,
            },
        );
        let b = simulate_ground_truth(
            &m,
            &c,
            &plan,
            SimOptions {
                num_images: 2,
                start_ms: 120_000.0,
            },
        );
        assert!((a.mean_latency_ms - b.mean_latency_ms).abs() < 1e-6);
    }
}

//! The volume-by-volume stepper at the heart of the simulator.
//!
//! The state after layer-volume `l` — one "ready time" per device — is
//! exactly the vector of accumulated latencies `T_l` that the OSDS MDP uses
//! as (part of) its observation, so the stepper is shared between the
//! simulator and the reinforcement-learning environment.

use crate::cluster::{Cluster, Endpoint, PartCompute};
use crate::plan::VolumeAssignment;
use cnn_model::Model;
use serde::{Deserialize, Serialize};

/// Where the current feature map (the input of the next layer-volume) lives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DataLocation {
    /// The full input image is still on the service requester.
    Requester,
    /// Row range `[lo, hi)` of the feature map held by each device.
    Devices(Vec<(usize, usize)>),
}

/// Per-device timing state while an image flows through the volumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterState {
    /// Absolute simulation time at which the image left the requester.
    pub image_start_ms: f64,
    /// Absolute time at which each device finished its latest work.
    pub ready_ms: Vec<f64>,
}

impl ClusterState {
    /// Fresh state for an image starting at `start_ms` on `n` devices.
    pub fn new(start_ms: f64, n: usize) -> Self {
        Self {
            image_start_ms: start_ms,
            ready_ms: vec![start_ms; n],
        }
    }

    /// Accumulated latency of each device relative to the image start (the
    /// `T_l` vector of the MDP state, Eq. 7).
    pub fn accumulated_latencies(&self) -> Vec<f64> {
        self.ready_ms
            .iter()
            .map(|r| r - self.image_start_ms)
            .collect()
    }
}

/// Timing breakdown of one layer-volume step.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VolumeStats {
    /// Computing latency incurred by each device in this volume.
    pub compute_ms: Vec<f64>,
    /// Transmission latency (max over incoming transfers) incurred by each
    /// device while gathering its input for this volume.
    pub transmission_ms: Vec<f64>,
}

fn overlap(a: (usize, usize), b: (usize, usize)) -> usize {
    let lo = a.0.max(b.0);
    let hi = a.1.min(b.1);
    hi.saturating_sub(lo)
}

/// Advances the image through one layer-volume.
///
/// Each device first gathers the input rows its part needs (from the
/// requester or from whichever devices hold them), then computes its part.
/// Returns the per-device timing breakdown and updates `location` to the
/// output row distribution of this volume.
pub fn advance_volume(
    model: &Model,
    cluster: &Cluster,
    compute: &dyn PartCompute,
    assignment: &VolumeAssignment,
    location: &mut DataLocation,
    state: &mut ClusterState,
) -> VolumeStats {
    let n = cluster.len();
    assert_eq!(assignment.parts.len(), n, "one part per device required");
    let volume = assignment.parts[0].volume;
    let first = &model.layers()[volume.start];

    let mut stats = VolumeStats {
        compute_ms: vec![0.0; n],
        transmission_ms: vec![0.0; n],
    };
    let mut new_ready = state.ready_ms.clone();

    for (i, part) in assignment.parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        let needed = part.input_rows;
        // When does device i have all its input rows?
        let mut data_ready = state.image_start_ms;
        let mut max_transfer = 0.0f64;
        match location {
            DataLocation::Requester => {
                let bytes = first.input_bytes_for_rows(needed.1 - needed.0);
                let t = cluster.transfer_ms(
                    Endpoint::Requester,
                    Endpoint::Device(i),
                    bytes,
                    state.image_start_ms,
                );
                data_ready = state.image_start_ms + t;
                max_transfer = t;
            }
            DataLocation::Devices(ranges) => {
                for (j, &range) in ranges.iter().enumerate() {
                    let rows = overlap(needed, range);
                    if rows == 0 {
                        continue;
                    }
                    let bytes = first.input_bytes_for_rows(rows);
                    let depart = state.ready_ms[j];
                    let t = if j == i {
                        0.0
                    } else {
                        cluster.transfer_ms(Endpoint::Device(j), Endpoint::Device(i), bytes, depart)
                    };
                    data_ready = data_ready.max(depart + t);
                    max_transfer = max_transfer.max(t);
                }
            }
        }
        // The device must also have finished whatever it was doing before.
        let start_compute = data_ready.max(state.ready_ms[i]);
        let comp = compute.part_compute_ms(i, model, part);
        new_ready[i] = start_compute + comp;
        stats.compute_ms[i] = comp;
        stats.transmission_ms[i] = max_transfer;
    }

    state.ready_ms = new_ready;
    *location = DataLocation::Devices(assignment.parts.iter().map(|p| p.output_rows).collect());
    stats
}

/// Result of [`finish_image`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FinishStats {
    /// Absolute time at which the requester holds the final result.
    pub finish_ms: f64,
    /// Transmission latency of the gather/return phase attributed to each
    /// device.
    pub transmission_ms: Vec<f64>,
    /// Head computing latency (on the head device), if any.
    pub head_compute_ms: f64,
}

/// Completes an image after the last layer-volume: gathers the distributed
/// output onto the FC-head device (if the model has a head), runs the head,
/// and returns the final result to the requester.
pub fn finish_image(
    model: &Model,
    cluster: &Cluster,
    compute: &dyn PartCompute,
    last_assignment: &VolumeAssignment,
    state: &ClusterState,
    head_device: Option<usize>,
) -> FinishStats {
    let n = cluster.len();
    let volume = last_assignment.parts[0].volume;
    let last = &model.layers()[volume.end - 1];
    let mut transmission_ms = vec![0.0; n];

    let finish_ms = if let Some(h) = head_device {
        // Gather every holder's rows onto the head device.
        let mut head_ready = state.ready_ms[h];
        for (j, part) in last_assignment.parts.iter().enumerate() {
            if part.is_empty() || j == h {
                continue;
            }
            let rows = part.output_rows.1 - part.output_rows.0;
            let bytes = last.output_bytes_for_rows(rows);
            let t = cluster.transfer_ms(
                Endpoint::Device(j),
                Endpoint::Device(h),
                bytes,
                state.ready_ms[j],
            );
            transmission_ms[j] += t;
            head_ready = head_ready.max(state.ready_ms[j] + t);
        }
        let head_ms = compute.head_compute_ms(h, model);
        let head_done = head_ready + head_ms;
        let back = cluster.transfer_ms(
            Endpoint::Device(h),
            Endpoint::Requester,
            model.final_output_bytes(),
            head_done,
        );
        transmission_ms[h] += back;
        return FinishStats {
            finish_ms: head_done + back,
            transmission_ms,
            head_compute_ms: head_ms,
        };
    } else {
        // No head: every holder returns its rows to the requester directly.
        let mut finish = state.image_start_ms;
        for (j, part) in last_assignment.parts.iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let rows = part.output_rows.1 - part.output_rows.0;
            let bytes = last.output_bytes_for_rows(rows);
            let t = cluster.transfer_ms(
                Endpoint::Device(j),
                Endpoint::Requester,
                bytes,
                state.ready_ms[j],
            );
            transmission_ms[j] += t;
            finish = finish.max(state.ready_ms[j] + t);
        }
        finish
    };
    FinishStats {
        finish_ms,
        transmission_ms,
        head_compute_ms: 0.0,
    }
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
                LayerOp::conv(8, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::conv(16, 3, 1, 1),
                LayerOp::fc(10),
            ],
        )
        .unwrap()
    }

    fn cluster() -> Cluster {
        Cluster::uniform(
            vec![
                DeviceSpec::new("xavier-0", DeviceType::Xavier),
                DeviceSpec::new("nano-0", DeviceType::Nano),
            ],
            LinkConfig::constant(100.0),
        )
    }

    fn plan(model: &Model, n: usize) -> ExecutionPlan {
        let scheme = PartitionScheme::single_volume(model);
        let split = VolumeSplit::equal(n, model.prefix_output().h);
        ExecutionPlan::from_splits(model, &scheme, &[split], n).unwrap()
    }

    #[test]
    fn accumulated_latencies_start_at_zero() {
        let s = ClusterState::new(100.0, 3);
        assert_eq!(s.accumulated_latencies(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn advance_updates_ready_and_location() {
        let m = model();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let plan = plan(&m, 2);
        let mut state = ClusterState::new(0.0, 2);
        let mut location = DataLocation::Requester;
        let stats = advance_volume(
            &m,
            &c,
            &compute,
            &plan.volumes[0],
            &mut location,
            &mut state,
        );
        assert!(state.ready_ms.iter().all(|&r| r > 0.0));
        assert!(stats.compute_ms.iter().all(|&v| v > 0.0));
        assert!(stats.transmission_ms.iter().all(|&v| v > 0.0));
        match location {
            DataLocation::Devices(ranges) => {
                assert_eq!(ranges.len(), 2);
                assert_eq!(ranges[0].0, 0);
            }
            _ => panic!("location should now be on devices"),
        }
    }

    #[test]
    fn slower_device_finishes_later_on_equal_split() {
        let m = model();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let plan = plan(&m, 2);
        let mut state = ClusterState::new(0.0, 2);
        let mut location = DataLocation::Requester;
        advance_volume(
            &m,
            &c,
            &compute,
            &plan.volumes[0],
            &mut location,
            &mut state,
        );
        // Device 1 is a Nano, device 0 a Xavier: equal split leaves the Nano behind.
        assert!(state.ready_ms[1] > state.ready_ms[0]);
    }

    #[test]
    fn empty_part_leaves_device_untouched() {
        let m = model();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let scheme = PartitionScheme::single_volume(&m);
        let h = m.prefix_output().h;
        // All rows to device 0.
        let split = VolumeSplit::new(vec![h], h);
        let plan = ExecutionPlan::from_splits(&m, &scheme, &[split], 2).unwrap();
        let mut state = ClusterState::new(5.0, 2);
        let mut location = DataLocation::Requester;
        let stats = advance_volume(
            &m,
            &c,
            &compute,
            &plan.volumes[0],
            &mut location,
            &mut state,
        );
        assert_eq!(state.ready_ms[1], 5.0);
        assert_eq!(stats.compute_ms[1], 0.0);
    }

    #[test]
    fn finish_image_with_head_gathers_to_head_device() {
        let m = model();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let plan = plan(&m, 2);
        let mut state = ClusterState::new(0.0, 2);
        let mut location = DataLocation::Requester;
        advance_volume(
            &m,
            &c,
            &compute,
            &plan.volumes[0],
            &mut location,
            &mut state,
        );
        let fin = finish_image(&m, &c, &compute, &plan.volumes[0], &state, plan.head_device);
        assert!(fin.finish_ms > state.ready_ms.iter().cloned().fold(0.0, f64::max));
        assert!(fin.head_compute_ms > 0.0);
    }

    #[test]
    fn finish_image_without_head_returns_to_requester() {
        let m = Model::new(
            "nohead",
            Shape::new(3, 32, 32),
            &[LayerOp::conv(8, 3, 1, 1), LayerOp::pool(2, 2)],
        )
        .unwrap();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let plan = plan(&m, 2);
        assert!(plan.head_device.is_none());
        let mut state = ClusterState::new(0.0, 2);
        let mut location = DataLocation::Requester;
        advance_volume(
            &m,
            &c,
            &compute,
            &plan.volumes[0],
            &mut location,
            &mut state,
        );
        let fin = finish_image(&m, &c, &compute, &plan.volumes[0], &state, None);
        assert!(fin.finish_ms > 0.0);
        assert_eq!(fin.head_compute_ms, 0.0);
    }

    #[test]
    fn second_volume_reuses_local_rows() {
        // With two volumes split identically, most of each device's input for
        // the second volume is already local, so its gather transfer should
        // be much smaller than the initial image scatter.
        let m = model();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let scheme = PartitionScheme::new(&m, vec![0, 2, 3]).unwrap();
        let splits: Vec<VolumeSplit> = scheme
            .volumes()
            .iter()
            .map(|v| VolumeSplit::equal(2, v.last_output_height(&m)))
            .collect();
        let plan = ExecutionPlan::from_splits(&m, &scheme, &splits, 2).unwrap();
        let mut state = ClusterState::new(0.0, 2);
        let mut location = DataLocation::Requester;
        let s0 = advance_volume(
            &m,
            &c,
            &compute,
            &plan.volumes[0],
            &mut location,
            &mut state,
        );
        let s1 = advance_volume(
            &m,
            &c,
            &compute,
            &plan.volumes[1],
            &mut location,
            &mut state,
        );
        assert!(s1.transmission_ms[0] < s0.transmission_ms[0]);
    }
}

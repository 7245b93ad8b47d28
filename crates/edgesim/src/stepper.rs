//! The volume-by-volume stepper at the heart of the simulator.
//!
//! The state after layer-volume `l` — one "ready time" per device — is
//! exactly the vector of accumulated latencies `T_l` that the OSDS MDP uses
//! as (part of) its observation, so the stepper is shared between the
//! simulator and the reinforcement-learning environment.  It prices the
//! plan's own transfers ([`crate::ExecutionPlan::transfers`]), the same
//! ones the runtime ships.

use crate::cluster::{Cluster, Endpoint, PartCompute};
use crate::plan::VolumeAssignment;
use cnn_model::Model;
use serde::{Deserialize, Serialize};

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

/// Advances the image through one layer-volume.
///
/// Each device first gathers the input rows its part needs — from the
/// requester when `prev` is `None`, otherwise from the holders of `prev`,
/// the previous volume — then computes its part.  Returns the per-device
/// timing breakdown.
pub fn advance_volume(
    model: &Model,
    cluster: &Cluster,
    compute: &dyn PartCompute,
    assignment: &VolumeAssignment,
    prev: Option<&VolumeAssignment>,
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
        // When does device i have all its input rows?
        let mut data_ready = state.image_start_ms;
        let mut max_transfer = 0.0f64;
        for transfer in assignment.transfers_into(prev, i) {
            let bytes = first.input_bytes_for_rows(transfer.rows.1 - transfer.rows.0);
            let depart = match transfer.from {
                Endpoint::Requester => state.image_start_ms,
                Endpoint::Device(j) => state.ready_ms[j],
            };
            // A local piece costs nothing: `transfer_ms` is zero on one device.
            let t = cluster.transfer_ms(transfer.from, transfer.to, bytes, depart);
            data_ready = data_ready.max(depart + t);
            max_transfer = max_transfer.max(t);
        }
        // The device must also have finished whatever it was doing before.
        let start_compute = data_ready.max(state.ready_ms[i]);
        let comp = compute.part_compute_ms(i, model, part);
        new_ready[i] = start_compute + comp;
        stats.compute_ms[i] = comp;
        stats.transmission_ms[i] = max_transfer;
    }

    state.ready_ms = new_ready;
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

    // Every holder's rows reach the head device, or the requester.
    let mut gathered = head_device.map_or(state.image_start_ms, |h| state.ready_ms[h]);
    for transfer in last_assignment.gather(head_device) {
        let Endpoint::Device(j) = transfer.from else {
            continue;
        };
        let bytes = last.output_bytes_for_rows(transfer.rows.1 - transfer.rows.0);
        let t = cluster.transfer_ms(transfer.from, transfer.to, bytes, state.ready_ms[j]);
        transmission_ms[j] += t;
        gathered = gathered.max(state.ready_ms[j] + t);
    }
    let Some(h) = head_device else {
        return FinishStats {
            finish_ms: gathered,
            transmission_ms,
            head_compute_ms: 0.0,
        };
    };
    let head_ms = compute.head_compute_ms(h, model);
    let head_done = gathered + head_ms;
    let back = cluster.transfer_ms(
        Endpoint::Device(h),
        Endpoint::Requester,
        model.final_output_bytes(),
        head_done,
    );
    transmission_ms[h] += back;
    FinishStats {
        finish_ms: head_done + back,
        transmission_ms,
        head_compute_ms: head_ms,
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
        let stats = advance_volume(&m, &c, &compute, &plan.volumes[0], None, &mut state);
        assert!(state.ready_ms.iter().all(|&r| r > 0.0));
        assert!(stats.compute_ms.iter().all(|&v| v > 0.0));
        assert!(stats.transmission_ms.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn slower_device_finishes_later_on_equal_split() {
        let m = model();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let plan = plan(&m, 2);
        let mut state = ClusterState::new(0.0, 2);
        advance_volume(&m, &c, &compute, &plan.volumes[0], None, &mut state);
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
        let stats = advance_volume(&m, &c, &compute, &plan.volumes[0], None, &mut state);
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
        advance_volume(&m, &c, &compute, &plan.volumes[0], None, &mut state);
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
        advance_volume(&m, &c, &compute, &plan.volumes[0], None, &mut state);
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
        let s0 = advance_volume(&m, &c, &compute, &plan.volumes[0], None, &mut state);
        let s1 = advance_volume(
            &m,
            &c,
            &compute,
            &plan.volumes[1],
            Some(&plan.volumes[0]),
            &mut state,
        );
        assert!(s1.transmission_ms[0] < s0.transmission_ms[0]);
    }

    #[test]
    fn charges_exactly_the_transfers_the_plan_lists() {
        // Three volumes on three devices; device 1 sits the middle one out.
        let m = Model::new(
            "t3",
            Shape::new(3, 48, 48),
            &[
                LayerOp::conv(8, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::conv(8, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::conv(16, 3, 1, 1),
                LayerOp::fc(10),
            ],
        )
        .unwrap();
        let c = Cluster::uniform(
            vec![
                DeviceSpec::new("xavier-0", DeviceType::Xavier),
                DeviceSpec::new("nano-0", DeviceType::Nano),
                DeviceSpec::new("xavier-1", DeviceType::Xavier),
            ],
            LinkConfig::constant(100.0),
        );
        let compute = c.ground_truth_compute();
        let scheme = PartitionScheme::new(&m, vec![0, 2, 4, 5]).unwrap();
        let splits = [
            VolumeSplit::equal(3, 24),
            VolumeSplit::new(vec![5, 5], 12),
            VolumeSplit::new(vec![4, 7], 12),
        ];
        let plan = ExecutionPlan::from_splits(&m, &scheme, &splits, 3).unwrap();
        assert!(plan.volumes[1].parts[1].is_empty());

        // Per volume, each device waits for the slowest transfer the plan
        // sends it; a constant link prices a transfer by its bytes alone.
        let mut state = ClusterState::new(0.0, 3);
        let mut prev = None;
        for (stage, assignment) in plan.volumes.iter().enumerate() {
            let stats = advance_volume(&m, &c, &compute, assignment, prev, &mut state);
            let first = &m.layers()[assignment.parts[0].volume.start];
            let mut expected = vec![0.0f64; 3];
            for t in plan.transfers(stage).filter(|t| !t.is_local()) {
                let Endpoint::Device(to) = t.to else {
                    panic!("stage {stage} sends to the requester");
                };
                let bytes = first.input_bytes_for_rows(t.rows.1 - t.rows.0);
                expected[to] = expected[to].max(c.transfer_ms(t.from, t.to, bytes, 0.0));
            }
            assert_eq!(stats.transmission_ms, expected, "stage {stage}");
            prev = Some(assignment);
        }

        // The finish charges each sender for what it sends: the gather to
        // the head, and the head's result to the requester.
        let last = plan.volumes.last().unwrap();
        let fin = finish_image(&m, &c, &compute, last, &state, plan.head_device);
        let last_layer = &m.layers()[last.parts[0].volume.end - 1];
        let mut expected = vec![0.0f64; 3];
        for t in plan
            .transfers(plan.finish_stage())
            .filter(|t| !t.is_local())
        {
            let Endpoint::Device(from) = t.from else {
                panic!("the requester sends nothing at the finish");
            };
            let bytes = if t.to == Endpoint::Requester {
                m.final_output_bytes()
            } else {
                last_layer.output_bytes_for_rows(t.rows.1 - t.rows.0)
            };
            expected[from] += c.transfer_ms(t.from, t.to, bytes, 0.0);
        }
        assert_eq!(fin.transmission_ms, expected);
    }
}

//! Execution plans: which device computes which split-part of which
//! layer-volume, and where the FC head (if any) runs.

use cnn_model::{Model, ModelError, PartPlan, PartitionScheme, VolumeSplit};
use serde::{Deserialize, Serialize};

/// The assignment of one layer-volume's split-parts to devices.
///
/// `parts[i]` is device `i`'s part; devices with no share hold an empty part.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VolumeAssignment {
    /// One part plan per device (index-aligned with the cluster's devices).
    pub parts: Vec<PartPlan>,
}

impl VolumeAssignment {
    /// Output row range of the volume's last layer held by device `i`.
    pub fn output_range(&self, device: usize) -> (usize, usize) {
        self.parts[device].output_rows
    }

    /// Devices that actually hold output rows of this volume.
    pub fn holders(&self) -> Vec<usize> {
        self.parts
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(i, _)| i)
            .collect()
    }

    /// The device that runs the FC head when this is the last volume: the
    /// one holding the most output rows (the last of them on a tie).
    pub fn head_device(&self) -> usize {
        self.parts
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| p.output_rows.1 - p.output_rows.0)
            .map_or(0, |(i, _)| i)
    }
}

/// A full execution plan for a model on a cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Per-volume assignments, in model order.
    pub volumes: Vec<VolumeAssignment>,
    /// The device that computes the FC head (the paper assigns it to the
    /// provider with the largest share of the last layer-volume).  `None`
    /// for models without a head.
    pub head_device: Option<usize>,
}

impl ExecutionPlan {
    /// Builds an execution plan from a partition scheme and one vertical
    /// split per volume.  The FC head (if the model has one) is assigned to
    /// the device with the largest share of the last volume.
    pub fn from_splits(
        model: &Model,
        scheme: &PartitionScheme,
        splits: &[VolumeSplit],
        num_devices: usize,
    ) -> Result<Self, ModelError> {
        let volumes_def = scheme.volumes();
        if volumes_def.len() != splits.len() {
            return Err(ModelError::InvalidSplit(format!(
                "{} splits provided for {} volumes",
                splits.len(),
                volumes_def.len()
            )));
        }
        let mut volumes = Vec::with_capacity(volumes_def.len());
        for (volume, split) in volumes_def.iter().zip(splits) {
            if split.num_parts() != num_devices {
                return Err(ModelError::InvalidSplit(format!(
                    "split addresses {} devices, cluster has {}",
                    split.num_parts(),
                    num_devices
                )));
            }
            let parts = PartPlan::plan_all(model, *volume, split)?;
            volumes.push(VolumeAssignment { parts });
        }
        let head_device = if model.head_layers().is_empty() {
            None
        } else {
            Some(volumes.last().expect("at least one volume").head_device())
        };
        Ok(Self {
            volumes,
            head_device,
        })
    }

    /// Single-device offload: the whole distributable prefix (and head) on
    /// one device.
    pub fn offload(model: &Model, device: usize, num_devices: usize) -> Result<Self, ModelError> {
        let scheme = PartitionScheme::single_volume(model);
        let h = model.prefix_output().h;
        // Give every row to `device`: cuts place the full range at that slot.
        let mut cuts = Vec::with_capacity(num_devices - 1);
        for i in 0..num_devices - 1 {
            cuts.push(if i < device { 0 } else { h });
        }
        let split = VolumeSplit::new(cuts, h);
        let mut plan = Self::from_splits(model, &scheme, &[split], num_devices)?;
        if !model.head_layers().is_empty() {
            plan.head_device = Some(device);
        }
        Ok(plan)
    }

    /// Number of layer-volumes.
    pub fn num_volumes(&self) -> usize {
        self.volumes.len()
    }

    /// Validates that every volume's parts exactly tile its output height.
    pub fn validate(&self, model: &Model) -> Result<(), ModelError> {
        for assignment in &self.volumes {
            let Some(first) = assignment.parts.first() else {
                return Err(ModelError::InvalidSplit("volume with no parts".into()));
            };
            let volume = first.volume;
            let h = volume.last_output_height(model);
            let mut covered = 0usize;
            let mut cursor = 0usize;
            for part in &assignment.parts {
                if part.volume != volume {
                    return Err(ModelError::InvalidSplit(
                        "parts of one assignment must reference the same volume".into(),
                    ));
                }
                let (lo, hi) = part.output_rows;
                if lo < cursor {
                    return Err(ModelError::InvalidSplit(format!(
                        "overlapping output rows at {lo} (cursor {cursor})"
                    )));
                }
                if lo != hi {
                    if lo != cursor {
                        return Err(ModelError::InvalidSplit(format!(
                            "gap in output rows: expected {cursor}, got {lo}"
                        )));
                    }
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            if covered != h {
                return Err(ModelError::InvalidSplit(format!(
                    "parts cover {covered} of {h} output rows"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_model::LayerOp;
    use tensor::Shape;

    fn model() -> Model {
        Model::new(
            "t",
            Shape::new(3, 32, 32),
            &[
                LayerOp::conv(8, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::conv(16, 3, 1, 1),
                LayerOp::fc(10),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_splits_builds_and_validates() {
        let m = model();
        let scheme = PartitionScheme::new(&m, vec![0, 2, 3]).unwrap();
        let splits: Vec<VolumeSplit> = scheme
            .volumes()
            .iter()
            .map(|v| VolumeSplit::equal(3, v.last_output_height(&m)))
            .collect();
        let plan = ExecutionPlan::from_splits(&m, &scheme, &splits, 3).unwrap();
        assert_eq!(plan.num_volumes(), 2);
        plan.validate(&m).unwrap();
        assert!(plan.head_device.is_some());
    }

    #[test]
    fn head_goes_to_largest_share() {
        let m = model();
        let scheme = PartitionScheme::single_volume(&m);
        let h = m.prefix_output().h; // 16
        let split = VolumeSplit::new(vec![2, 6], h); // shares 2, 4, 10
        let plan = ExecutionPlan::from_splits(&m, &scheme, &[split], 3).unwrap();
        assert_eq!(plan.head_device, Some(2));
    }

    #[test]
    fn offload_gives_everything_to_one_device() {
        let m = model();
        for target in 0..3 {
            let plan = ExecutionPlan::offload(&m, target, 3).unwrap();
            plan.validate(&m).unwrap();
            assert_eq!(plan.head_device, Some(target));
            let holders = plan.volumes[0].holders();
            assert_eq!(holders, vec![target]);
        }
    }

    #[test]
    fn mismatched_split_count_rejected() {
        let m = model();
        let scheme = PartitionScheme::new(&m, vec![0, 2, 3]).unwrap();
        let one = VolumeSplit::equal(3, 16);
        assert!(ExecutionPlan::from_splits(&m, &scheme, &[one], 3).is_err());
    }

    #[test]
    fn mismatched_device_count_rejected() {
        let m = model();
        let scheme = PartitionScheme::single_volume(&m);
        let split = VolumeSplit::equal(2, m.prefix_output().h);
        assert!(ExecutionPlan::from_splits(&m, &scheme, &[split], 4).is_err());
    }

    #[test]
    fn validate_detects_gap() {
        let m = model();
        let scheme = PartitionScheme::single_volume(&m);
        let h = m.prefix_output().h;
        let split = VolumeSplit::equal(2, h);
        let mut plan = ExecutionPlan::from_splits(&m, &scheme, &[split], 2).unwrap();
        // Corrupt: drop one device's part to an empty range.
        plan.volumes[0].parts[0] =
            PartPlan::plan(&m, plan.volumes[0].parts[0].volume, 0, 0).unwrap();
        assert!(plan.validate(&m).is_err());
    }

    #[test]
    fn holders_and_ranges() {
        let m = model();
        let scheme = PartitionScheme::single_volume(&m);
        let h = m.prefix_output().h;
        let split = VolumeSplit::new(vec![0, 8], h);
        let plan = ExecutionPlan::from_splits(&m, &scheme, &[split], 3).unwrap();
        let va = &plan.volumes[0];
        assert_eq!(va.holders(), vec![1, 2]);
        assert_eq!(va.output_range(1), (0, 8));
        assert_eq!(va.output_range(2), (8, h));
    }
}

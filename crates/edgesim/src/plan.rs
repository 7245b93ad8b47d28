//! Execution plans: which device computes which split-part of which
//! layer-volume, and where the FC head (if any) runs — and the routing
//! that follows from it: who sends which rows to whom.
//!
//! Stages are numbered `0..num_volumes` for the layer-volumes, and stage
//! `num_volumes` is the finish stage: the head gather (models with an FC
//! head) or the result return to the requester (models without).  The
//! requester scatters each part's input rows into stage 0; each holder of a
//! volume's output sends every device the rows it needs of the next; the
//! last volume's holders send their rows to the head device, which returns
//! the head's output to the requester, or, without a head, straight to the
//! requester.  The simulator prices these transfers and the runtime ships
//! them; neither derives them on its own.

use crate::cluster::Endpoint;
use cnn_model::{Model, ModelError, PartPlan, PartitionScheme, VolumeSplit};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Overlap of two half-open row ranges, if non-empty.
pub fn overlap(a: (usize, usize), b: (usize, usize)) -> Option<(usize, usize)> {
    let lo = a.0.max(b.0);
    let hi = a.1.min(b.1);
    (lo < hi).then_some((lo, hi))
}

/// One transfer of a plan's data flow: `rows` of the receiving stage's
/// input feature map (full-map coordinates) move from `from` to `to`.  A
/// transfer whose two ends are the same device is that device's local
/// piece: it keeps those rows and nothing crosses a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// The endpoint holding the rows.
    pub from: Endpoint,
    /// The endpoint that needs them.
    pub to: Endpoint,
    /// The rows carried.
    pub rows: (usize, usize),
}

impl Transfer {
    /// Whether the rows stay on their device.
    pub fn is_local(&self) -> bool {
        self.from == self.to
    }
}

/// The head's output on its way to the requester: one `[out, 1, 1]` row.
const HEAD_RESULT_ROWS: (usize, usize) = (0, 1);

/// The assignment of one layer-volume's split-parts to devices.
///
/// `parts[i]` is device `i`'s part; devices with no share hold an empty part.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VolumeAssignment {
    /// One part plan per device (index-aligned with the cluster's devices).
    pub parts: Vec<PartPlan>,
}

impl VolumeAssignment {
    /// Input rows device `d` needs for this volume (`None` for an empty
    /// part).
    fn needs(&self, d: usize) -> Option<(usize, usize)> {
        let part = &self.parts[d];
        (!part.is_empty()).then_some(part.input_rows)
    }

    /// The rows device `from` holds of `prev`'s output that device `to`
    /// needs for this volume.
    fn piece(&self, prev: &VolumeAssignment, from: usize, to: usize) -> Option<Transfer> {
        let rows = overlap(self.needs(to)?, prev.parts[from].output_rows)?;
        Some(Transfer {
            from: Endpoint::Device(from),
            to: Endpoint::Device(to),
            rows,
        })
    }

    /// The transfers that bring device `d` its input rows of this volume:
    /// its slice of the image from the requester when `prev` is `None`
    /// (this is the first volume), otherwise one piece from each holder of
    /// `prev`'s output, in device order, `d`'s own slice as its local
    /// piece.  Nothing for an empty part.
    pub(crate) fn transfers_into<'a>(
        &'a self,
        prev: Option<&'a VolumeAssignment>,
        d: usize,
    ) -> impl Iterator<Item = Transfer> + 'a {
        let scatter = self
            .needs(d)
            .filter(|_| prev.is_none())
            .map(|rows| Transfer {
                from: Endpoint::Requester,
                to: Endpoint::Device(d),
                rows,
            });
        let halo = prev.into_iter().flat_map(move |prev| {
            (0..prev.parts.len()).filter_map(move |from| self.piece(prev, from, d))
        });
        scatter.into_iter().chain(halo)
    }

    /// The gather after this, the last, volume: each holder sends its
    /// output rows to the `head` device (the head's own rows are its local
    /// piece) or, without a head, to the requester.  The head's output then
    /// goes to the requester ([`ExecutionPlan::transfers`] lists it).
    pub(crate) fn gather(&self, head: Option<usize>) -> impl Iterator<Item = Transfer> + '_ {
        let to = head.map_or(Endpoint::Requester, Endpoint::Device);
        self.parts
            .iter()
            .enumerate()
            .filter(|(_, part)| !part.is_empty())
            .map(move |(d, part)| Transfer {
                from: Endpoint::Device(d),
                to,
                rows: part.output_rows,
            })
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

    /// Number of devices the plan addresses.
    pub fn num_devices(&self) -> usize {
        self.volumes.first().map_or(0, |v| v.parts.len())
    }

    /// The finish stage: the head gather, or the result return.
    pub fn finish_stage(&self) -> usize {
        self.volumes.len()
    }

    /// Rows device `d` assembles before it computes at `stage`: its part's
    /// input rows, or, at the finish stage, the last volume's whole output
    /// on the head device.  `None`: `d` has nothing to do at `stage`.
    pub fn needs(&self, stage: usize, d: usize) -> Option<(usize, usize)> {
        match self.volumes.get(stage) {
            Some(assignment) => assignment.needs(d),
            None => {
                let last = self.volumes.last()?;
                let height = last.parts.iter().map(|p| p.output_rows.1).max()?;
                (self.head_device == Some(d)).then_some((0, height))
            }
        }
    }

    /// Every transfer into `stage`, local pieces included: for a volume, per
    /// receiving device in device order, its slice of the image from the
    /// requester (stage 0) or a piece from each holder of the previous
    /// volume; at the finish stage the last volume's gather, then the
    /// head's output to the requester.
    pub fn transfers(&self, stage: usize) -> impl Iterator<Item = Transfer> + '_ {
        let prev = stage.checked_sub(1).and_then(|s| self.volumes.get(s));
        let into_volume = self.volumes.get(stage).into_iter().flat_map(move |next| {
            (0..next.parts.len()).flat_map(move |d| next.transfers_into(prev, d))
        });
        let finish = (stage == self.finish_stage()).then_some(prev).flatten();
        let gather = finish
            .into_iter()
            .flat_map(|last| last.gather(self.head_device));
        let result = self
            .head_device
            .filter(|_| finish.is_some())
            .map(|h| Transfer {
                from: Endpoint::Device(h),
                to: Endpoint::Requester,
                rows: HEAD_RESULT_ROWS,
            });
        into_volume.chain(gather).chain(result)
    }

    /// Where device `d`'s output of volume `v` goes: a piece to each device
    /// that needs rows of it at the next volume, in device order, or, after
    /// the last volume, its gather transfer.  `d`'s own piece is the local
    /// one.
    pub fn sends(&self, v: usize, d: usize) -> impl Iterator<Item = Transfer> + '_ {
        let held = &self.volumes[v];
        let next = self.volumes.get(v + 1);
        let halo = next.into_iter().flat_map(move |next| {
            (0..next.parts.len()).filter_map(move |to| next.piece(held, d, to))
        });
        let gather = next
            .is_none()
            .then(|| {
                held.gather(self.head_device)
                    .find(|t| t.from == Endpoint::Device(d))
            })
            .flatten();
        halo.chain(gather)
    }

    /// The weight layers device `d` must hold resident to run this plan:
    /// every layer of its non-empty parts, plus the FC head on the head
    /// device.  The runtime shards weights by it at deploy and ships deltas
    /// of it on a plan swap.
    pub fn keep_layers(&self, model: &Model, d: usize) -> HashSet<usize> {
        let mut keep: HashSet<usize> = self
            .volumes
            .iter()
            .map(|assignment| &assignment.parts[d])
            .filter(|part| !part.is_empty())
            .flat_map(|part| part.layers.iter().map(|lr| lr.layer))
            .collect();
        if self.head_device == Some(d) {
            keep.extend(model.head_layers().iter().map(|l| l.index));
        }
        keep
    }

    /// Validates everything the runtime indexes by without checking again,
    /// so a plan off the wire is refused here rather than panicking a
    /// serving thread:
    /// * every volume has one part per device, and there is a device;
    /// * the volumes tile the distributable layers `0..distributable_len`
    ///   in order;
    /// * every part is exactly `PartPlan::plan` of its volume and output
    ///   rows, and a volume's parts tile its output height in device order;
    /// * `head_device` names a device exactly when the model has a head.
    pub fn validate(&self, model: &Model) -> Result<(), ModelError> {
        let invalid = |reason: String| Err(ModelError::InvalidSplit(reason));
        let n = self.num_devices();
        if n == 0 {
            return invalid("plan has no volumes or no devices".into());
        }
        let mut start = 0usize;
        for assignment in &self.volumes {
            if assignment.parts.len() != n {
                return invalid(format!(
                    "volume with {} parts in a plan for {n} devices",
                    assignment.parts.len()
                ));
            }
            let volume = assignment.parts[0].volume;
            if volume.start != start || volume.is_empty() || volume.end > model.distributable_len()
            {
                return invalid(format!(
                    "volume {}..{} does not continue the tiling at layer {start}",
                    volume.start, volume.end
                ));
            }
            start = volume.end;
            let h = volume.last_output_height(model);
            let mut covered = 0usize;
            let mut cursor = 0usize;
            for part in &assignment.parts {
                let (lo, hi) = part.output_rows;
                if *part != PartPlan::plan(model, volume, lo, hi)? {
                    return invalid(format!(
                        "part for output rows {lo}..{hi} of volume {}..{} is not its plan",
                        volume.start, volume.end
                    ));
                }
                if lo < cursor {
                    return invalid(format!("overlapping output rows at {lo} (cursor {cursor})"));
                }
                if lo != hi {
                    if lo != cursor {
                        return invalid(format!("gap in output rows: expected {cursor}, got {lo}"));
                    }
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            if covered != h {
                return invalid(format!("parts cover {covered} of {h} output rows"));
            }
        }
        if start != model.distributable_len() {
            return invalid(format!(
                "volumes end at layer {start} of {} distributable layers",
                model.distributable_len()
            ));
        }
        match self.head_device {
            Some(d) if model.head_layers().is_empty() => {
                invalid(format!("head device {d} for a model without a head"))
            }
            None if !model.head_layers().is_empty() => {
                invalid("the model has a head but the plan names no head device".into())
            }
            Some(d) if d >= n => invalid(format!("head device {d} of {n} devices")),
            _ => Ok(()),
        }
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
            for (d, part) in plan.volumes[0].parts.iter().enumerate() {
                assert_eq!(part.is_empty(), d != target);
            }
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

    /// A two-volume plan on two devices.
    fn split_plan(m: &Model) -> ExecutionPlan {
        let scheme = PartitionScheme::new(m, vec![0, 2, 3]).unwrap();
        let splits: Vec<VolumeSplit> = scheme
            .volumes()
            .iter()
            .map(|v| VolumeSplit::equal(2, v.last_output_height(m)))
            .collect();
        ExecutionPlan::from_splits(m, &scheme, &splits, 2).unwrap()
    }

    #[test]
    fn validate_refuses_a_volume_without_a_part_per_device() {
        let m = model();
        let mut plan = split_plan(&m);
        // Device 0's part now covers the whole second volume alone.
        let volume = plan.volumes[1].parts[0].volume;
        let h = volume.last_output_height(&m);
        plan.volumes[1].parts = vec![PartPlan::plan(&m, volume, 0, h).unwrap()];
        assert!(plan.validate(&m).is_err());
    }

    #[test]
    fn validate_refuses_volumes_that_do_not_tile_the_prefix() {
        let m = model();
        let plan = split_plan(&m);
        let mut late_start = plan.clone();
        late_start.volumes.remove(0);
        assert!(late_start.validate(&m).is_err());
        let mut early_end = plan;
        early_end.volumes.pop();
        assert!(early_end.validate(&m).is_err());
    }

    #[test]
    fn validate_refuses_a_part_that_is_not_its_plan() {
        let m = model();
        let mut plan = split_plan(&m);
        plan.volumes[1].parts[1].input_rows.0 += 1;
        assert!(plan.validate(&m).is_err());
    }

    #[test]
    fn validate_refuses_a_head_device_that_does_not_match_the_model() {
        let m = model();
        let plan = split_plan(&m);
        for head in [None, Some(2)] {
            let bad = ExecutionPlan {
                head_device: head,
                ..plan.clone()
            };
            assert!(bad.validate(&m).is_err(), "{head:?}");
        }
        let headless = Model::new(
            "nohead",
            Shape::new(3, 16, 16),
            &[LayerOp::conv(4, 3, 1, 1), LayerOp::pool(2, 2)],
        )
        .unwrap();
        let mut plan = ExecutionPlan::offload(&headless, 0, 2).unwrap();
        plan.validate(&headless).unwrap();
        plan.head_device = Some(0);
        assert!(plan.validate(&headless).is_err());
    }

    #[test]
    fn holders_and_ranges() {
        let m = model();
        let scheme = PartitionScheme::single_volume(&m);
        let h = m.prefix_output().h;
        let split = VolumeSplit::new(vec![0, 8], h);
        let plan = ExecutionPlan::from_splits(&m, &scheme, &[split], 3).unwrap();
        let va = &plan.volumes[0];
        assert!(va.parts[0].is_empty());
        assert_eq!(va.parts[1].output_rows, (0, 8));
        assert_eq!(va.parts[2].output_rows, (8, h));
    }
}

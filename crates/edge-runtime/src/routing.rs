//! Per-epoch routing: which rows of which volume each endpoint needs,
//! produces and forwards — versioned so the plan can be swapped while the
//! cluster serves.
//!
//! A [`RouteTable`] is derived once from an [`edgesim::ExecutionPlan`]; at
//! run time providers only look rows up, never plan.  Stages are numbered
//! `0..num_volumes` for the layer-volumes, and stage `num_volumes` is the
//! finish stage: the head gather (models with an FC head) or the result
//! return to the requester (models without).
//!
//! Since the plan is no longer a deploy-time constant, the table is wrapped
//! in a [`PlanEpoch`] — the plan, its routing, and a monotonically
//! increasing epoch id — and published through an [`EpochSlot`], an
//! `ArcSwap`-style shared slot the provider worker threads read on every
//! frame instead of owning a clone.  [`crate::Session::apply_plan`] builds
//! the next epoch, drains the in-flight window, broadcasts it, and stores
//! it into each worker's slot.

use crate::wire::FrameKind;
use crate::{Result, RuntimeError};
use cnn_model::{Model, PartPlan};
use edgesim::{Endpoint, ExecutionPlan};
use std::collections::HashSet;
use std::sync::{Arc, RwLock};

/// Overlap of two half-open row ranges, if non-empty.
pub fn overlap(a: (usize, usize), b: (usize, usize)) -> Option<(usize, usize)> {
    let lo = a.0.max(b.0);
    let hi = a.1.min(b.1);
    (lo < hi).then_some((lo, hi))
}

/// One outgoing transfer of a provider's volume output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendTarget {
    /// Destination endpoint.
    pub to: Endpoint,
    /// Rows to carry, in full-feature-map coordinates of the volume output.
    pub rows: (usize, usize),
    /// Stage the rows feed at the destination.
    pub stage: u32,
    /// Frame kind (`Rows` between providers, `Result` back to the
    /// requester).
    pub kind: FrameKind,
}

/// The precomputed routing of one execution plan.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Split-part plans, `[volume][device]`.
    pub parts: Vec<Vec<PartPlan>>,
    /// Input rows each device needs per volume (`None` for empty parts).
    pub needs: Vec<Vec<Option<(usize, usize)>>>,
    /// Output rows each device produces per volume.
    pub out_ranges: Vec<Vec<(usize, usize)>>,
    /// `(channels, width)` of each volume's input feature map.
    pub in_geom: Vec<(usize, usize)>,
    /// `(channels, width)` of each volume's output feature map.
    pub out_geom: Vec<(usize, usize)>,
    /// The FC-head device, if the model has a head.
    pub head_device: Option<usize>,
    /// Number of layer-volumes.
    pub num_volumes: usize,
    /// Output height of the last volume.
    pub last_height: usize,
    /// Number of provider devices.
    pub num_devices: usize,
}

impl RouteTable {
    /// Builds the routing table for `plan` on `model`.
    pub fn new(model: &Model, plan: &ExecutionPlan) -> Result<Self> {
        plan.validate(model).map_err(RuntimeError::from)?;
        let num_volumes = plan.num_volumes();
        let num_devices = plan
            .volumes
            .first()
            .map(|v| v.parts.len())
            .ok_or_else(|| RuntimeError::Execution("plan has no volumes".into()))?;

        let mut parts = Vec::with_capacity(num_volumes);
        let mut needs = Vec::with_capacity(num_volumes);
        let mut out_ranges = Vec::with_capacity(num_volumes);
        let mut in_geom = Vec::with_capacity(num_volumes);
        let mut out_geom = Vec::with_capacity(num_volumes);

        for assignment in &plan.volumes {
            let volume = assignment.parts[0].volume;
            let first = &model.layers()[volume.start];
            let last = &model.layers()[volume.end - 1];
            in_geom.push((first.input.c, first.input.w));
            out_geom.push((last.output.c, last.output.w));
            needs.push(
                assignment
                    .parts
                    .iter()
                    .map(|p| (!p.is_empty()).then_some(p.input_rows))
                    .collect(),
            );
            out_ranges.push(assignment.parts.iter().map(|p| p.output_rows).collect());
            parts.push(assignment.parts.clone());
        }

        let last_volume = plan.volumes.last().expect("validated plan").parts[0].volume;
        let last_height = last_volume.last_output_height(model);

        Ok(Self {
            parts,
            needs,
            out_ranges,
            in_geom,
            out_geom,
            head_device: plan.head_device,
            num_volumes,
            last_height,
            num_devices,
        })
    }

    /// The finish stage index (head gather / result return).
    pub fn finish_stage(&self) -> u32 {
        self.num_volumes as u32
    }

    /// Rows device `d` must assemble for `stage` before it can compute
    /// (`None`: nothing to do at that stage).
    pub fn stage_needs(&self, stage: usize, d: usize) -> Option<(usize, usize)> {
        if stage < self.num_volumes {
            self.needs[stage][d]
        } else if self.head_device == Some(d) {
            Some((0, self.last_height))
        } else {
            None
        }
    }

    /// `(channels, width)` of the band assembled at `stage`.
    pub fn stage_geom(&self, stage: usize) -> (usize, usize) {
        if stage < self.num_volumes {
            self.in_geom[stage]
        } else {
            self.out_geom[self.num_volumes - 1]
        }
    }

    /// Where device `d` sends its output of volume `v`, excluding rows it
    /// keeps locally.
    pub fn send_targets(&self, v: usize, d: usize) -> Vec<SendTarget> {
        let mine = self.out_ranges[v][d];
        if mine.0 == mine.1 {
            return Vec::new();
        }
        let mut targets = Vec::new();
        if v + 1 < self.num_volumes {
            for (j, need) in self.needs[v + 1].iter().enumerate() {
                if j == d {
                    continue;
                }
                if let Some(rows) = need.and_then(|n| overlap(mine, n)) {
                    targets.push(SendTarget {
                        to: Endpoint::Device(j),
                        rows,
                        stage: (v + 1) as u32,
                        kind: FrameKind::Rows,
                    });
                }
            }
        } else {
            match self.head_device {
                Some(h) if h != d => targets.push(SendTarget {
                    to: Endpoint::Device(h),
                    rows: mine,
                    stage: self.finish_stage(),
                    kind: FrameKind::Rows,
                }),
                Some(_) => {} // Head device keeps its own rows locally.
                None => targets.push(SendTarget {
                    to: Endpoint::Requester,
                    rows: mine,
                    stage: self.finish_stage(),
                    kind: FrameKind::Result,
                }),
            }
        }
        targets
    }

    /// The requester's scatter list for one image: per device, the rows of
    /// the model input to send for volume 0.
    pub fn scatter_targets(&self) -> Vec<(usize, (usize, usize))> {
        self.needs[0]
            .iter()
            .enumerate()
            .filter_map(|(d, need)| need.map(|rows| (d, rows)))
            .collect()
    }

    /// The weight layers device `d` must hold resident to execute this
    /// routing: every layer of its non-empty parts, plus the FC head on the
    /// head device.  This is the sharding key of [`crate::Deploy::start`]
    /// and the diff basis of [`crate::Session::apply_plan`]'s delta shards.
    pub fn keep_layers(&self, model: &Model, d: usize) -> HashSet<usize> {
        let mut keep: HashSet<usize> = self
            .parts
            .iter()
            .filter(|volume| !volume[d].is_empty())
            .flat_map(|volume| volume[d].layers.iter().map(|lr| lr.layer))
            .collect();
        if self.head_device == Some(d) {
            keep.extend(model.head_layers().iter().map(|l| l.index));
        }
        keep
    }
}

/// One version of the execution plan: the plan itself, its precomputed
/// routing, and the epoch id that orders it against past and future plans.
#[derive(Debug, Clone)]
pub struct PlanEpoch {
    /// Monotonically increasing epoch id (`0` at deploy).
    pub id: u64,
    /// The execution plan serving in this epoch.
    pub plan: ExecutionPlan,
    /// The routing derived from the plan.
    pub route: RouteTable,
    /// Whether inter-device `Rows` frames travel as int8 (q8 slabs) this
    /// epoch.  Negotiated at deploy/reconfigure time: every participant of
    /// an epoch agrees, so a band producer quantizes exactly when its
    /// consumers expect quantized frames.  `Result` frames stay f32.
    pub wire_q8: bool,
}

impl PlanEpoch {
    /// Builds epoch `id` for `plan` on `model` (f32 activation transfer).
    pub fn new(id: u64, model: &Model, plan: &ExecutionPlan) -> Result<Self> {
        Ok(Self {
            id,
            plan: plan.clone(),
            route: RouteTable::new(model, plan)?,
            wire_q8: false,
        })
    }

    /// Switches this epoch's inter-device activation transfer to int8.
    pub fn with_wire_q8(mut self, on: bool) -> Self {
        self.wire_q8 = on;
        self
    }
}

/// An `ArcSwap`-style publication slot for the current [`PlanEpoch`].
///
/// Readers (`load`) take a cheap shared lock and clone the `Arc`; the single
/// writer (`store`) swaps the `Arc` atomically under the write lock.  Built
/// on `std::sync::RwLock` because the workspace vendors no lock-free swap
/// crate — the read path is a handful of nanoseconds against kernels that
/// run for milliseconds, so the simplicity is free.
#[derive(Debug)]
pub struct EpochSlot {
    slot: RwLock<Arc<PlanEpoch>>,
}

impl EpochSlot {
    /// A slot initially publishing `epoch`.
    pub fn new(epoch: PlanEpoch) -> Self {
        Self {
            slot: RwLock::new(Arc::new(epoch)),
        }
    }

    /// The currently published epoch.
    pub fn load(&self) -> Arc<PlanEpoch> {
        Arc::clone(&self.slot.read().expect("epoch slot poisoned"))
    }

    /// Publishes `epoch`, replacing the previous one.  Readers holding the
    /// old `Arc` keep routing in-flight work by it; new loads see the new
    /// epoch.
    pub fn store(&self, epoch: PlanEpoch) {
        *self.slot.write().expect("epoch slot poisoned") = Arc::new(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_model::{LayerOp, PartitionScheme, VolumeSplit};
    use tensor::Shape;

    fn model() -> Model {
        Model::new(
            "route-test",
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

    fn two_volume_plan(model: &Model, n: usize) -> ExecutionPlan {
        let scheme = PartitionScheme::new(model, vec![0, 2, 3]).unwrap();
        let splits: Vec<VolumeSplit> = scheme
            .volumes()
            .iter()
            .map(|v| VolumeSplit::equal(n, v.last_output_height(model)))
            .collect();
        ExecutionPlan::from_splits(model, &scheme, &splits, n).unwrap()
    }

    #[test]
    fn needs_and_geometry() {
        let m = model();
        let plan = two_volume_plan(&m, 2);
        let route = RouteTable::new(&m, &plan).unwrap();
        assert_eq!(route.num_volumes, 2);
        assert_eq!(route.num_devices, 2);
        assert_eq!(route.in_geom[0], (3, 32));
        // Second volume consumes the pooled 8-channel 16-wide map.
        assert_eq!(route.in_geom[1], (8, 16));
        assert_eq!(route.out_geom[1], (16, 16));
        assert_eq!(route.last_height, 16);
        // Both devices need a slice of the input image.
        assert!(route.needs[0].iter().all(|n| n.is_some()));
    }

    #[test]
    fn interior_volume_routes_halo_to_peers() {
        let m = model();
        let plan = two_volume_plan(&m, 2);
        let route = RouteTable::new(&m, &plan).unwrap();
        // Device 0 produces the top half of volume 0's output; device 1's
        // part of volume 1 needs a halo band reaching into it.
        let targets = route.send_targets(0, 0);
        assert!(targets
            .iter()
            .any(|t| t.to == Endpoint::Device(1) && t.kind == FrameKind::Rows && t.stage == 1));
        // Rows sent must be inside device 0's own output.
        let mine = route.out_ranges[0][0];
        for t in &targets {
            assert!(t.rows.0 >= mine.0 && t.rows.1 <= mine.1);
        }
    }

    #[test]
    fn last_volume_routes_to_head() {
        let m = model();
        let plan = two_volume_plan(&m, 2);
        let route = RouteTable::new(&m, &plan).unwrap();
        let head = route.head_device.unwrap();
        let other = 1 - head;
        let targets = route.send_targets(1, other);
        assert_eq!(targets.len(), 1);
        assert_eq!(targets[0].to, Endpoint::Device(head));
        assert_eq!(targets[0].stage, route.finish_stage());
        // The head keeps its own rows local.
        assert!(route.send_targets(1, head).is_empty());
        assert_eq!(
            route.stage_needs(route.finish_stage() as usize, head),
            Some((0, 16))
        );
        assert_eq!(
            route.stage_needs(route.finish_stage() as usize, other),
            None
        );
    }

    #[test]
    fn headless_model_routes_results_to_requester() {
        let m = Model::new(
            "nohead",
            Shape::new(3, 16, 16),
            &[LayerOp::conv(4, 3, 1, 1), LayerOp::pool(2, 2)],
        )
        .unwrap();
        let scheme = PartitionScheme::single_volume(&m);
        let split = VolumeSplit::equal(2, m.prefix_output().h);
        let plan = ExecutionPlan::from_splits(&m, &scheme, &[split], 2).unwrap();
        let route = RouteTable::new(&m, &plan).unwrap();
        for d in 0..2 {
            let targets = route.send_targets(0, d);
            assert_eq!(targets.len(), 1);
            assert_eq!(targets[0].to, Endpoint::Requester);
            assert_eq!(targets[0].kind, FrameKind::Result);
        }
    }

    #[test]
    fn empty_parts_are_skipped() {
        let m = model();
        let plan = ExecutionPlan::offload(&m, 1, 3).unwrap();
        let route = RouteTable::new(&m, &plan).unwrap();
        assert_eq!(route.scatter_targets().len(), 1);
        assert_eq!(route.scatter_targets()[0].0, 1);
        assert!(route.send_targets(0, 0).is_empty());
        assert_eq!(route.stage_needs(0, 0), None);
        assert_eq!(route.stage_needs(0, 2), None);
    }

    #[test]
    fn overlap_helper() {
        assert_eq!(overlap((0, 5), (3, 9)), Some((3, 5)));
        assert_eq!(overlap((0, 3), (3, 9)), None);
        assert_eq!(overlap((4, 8), (0, 16)), Some((4, 8)));
    }

    #[test]
    fn keep_layers_covers_parts_and_head() {
        let m = model();
        let offload = ExecutionPlan::offload(&m, 1, 3).unwrap();
        let route = RouteTable::new(&m, &offload).unwrap();
        // The offload target holds every layer (prefix + head); idle
        // devices hold nothing.
        assert_eq!(route.keep_layers(&m, 1).len(), m.layers().len());
        assert!(route.keep_layers(&m, 0).is_empty());
        assert!(route.keep_layers(&m, 2).is_empty());

        let split = two_volume_plan(&m, 2);
        let route = RouteTable::new(&m, &split).unwrap();
        let head = route.head_device.unwrap();
        assert!(route.keep_layers(&m, head).len() > route.keep_layers(&m, 1 - head).len());
    }

    #[test]
    fn epoch_slot_publishes_new_epochs() {
        let m = model();
        let a = PlanEpoch::new(0, &m, &two_volume_plan(&m, 2)).unwrap();
        let slot = EpochSlot::new(a);
        assert_eq!(slot.load().id, 0);
        let held = slot.load();
        let b = PlanEpoch::new(1, &m, &ExecutionPlan::offload(&m, 0, 2).unwrap()).unwrap();
        slot.store(b);
        // New loads see the new epoch; the old Arc stays valid for frames
        // still routed by it.
        assert_eq!(slot.load().id, 1);
        assert_eq!(held.id, 0);
        assert_eq!(held.route.num_volumes, 2);
    }
}

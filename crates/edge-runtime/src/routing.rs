//! Per-epoch routing: the plan a device serves, versioned so it can be
//! swapped while the cluster serves.
//!
//! Who sends which rows to whom is the plan's own derivation
//! ([`ExecutionPlan::needs`], [`ExecutionPlan::sends`],
//! [`ExecutionPlan::transfers`]), the one the simulator prices; at run time
//! providers walk it, never plan.  Stages are numbered `0..num_volumes` for
//! the layer-volumes, and stage `num_volumes` is the finish stage: the head
//! gather (models with an FC head) or the result return to the requester
//! (models without).  A transfer to a device travels as a `Rows` frame, one
//! to the requester as a `Result` frame.
//!
//! Since the plan is no longer a deploy-time constant, it is wrapped in a
//! [`PlanEpoch`] — the plan, how the `Rows` frames into each stage travel,
//! and a monotonically increasing epoch id — and published through an
//! [`EpochSlot`], an `ArcSwap`-style shared slot the provider worker
//! threads read on every frame instead of owning a clone.
//! [`crate::Session::apply_plan`] builds the next epoch, drains the
//! in-flight window, broadcasts it, and stores it into each worker's slot.

use crate::{Result, RuntimeError};
use cnn_model::exec::QuantSpec;
use cnn_model::{LayerOp, Model};
use edgesim::ExecutionPlan;
use std::sync::{Arc, RwLock};
use tensor::ops::quant_scale;
use tensor::{Shape, Tensor};

/// The full feature map a device assembles bands of at `stage` of `plan`:
/// the input of the stage's volume, or the last volume's output at the
/// finish stage.
pub(crate) fn stage_input(model: &Model, plan: &ExecutionPlan, stage: usize) -> Shape {
    match plan.volumes.get(stage) {
        Some(assignment) => model.layers()[assignment.parts[0].volume.start].input,
        None => model.layers()[plan.volumes[stage - 1].parts[0].volume.end - 1].output,
    }
}

/// How the `Rows` frames into one stage travel: f32, q8 at a calibrated
/// scale, or q8 at the image's own max-abs scale.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Precision {
    F32,
    Q8(f32),
    Q8PerImage,
}

/// The one rule for a `Rows` frame's precision on a quantized epoch.  If
/// the first non-pool layer the rows into `stage` feed runs int8, they
/// travel at its calibrated input scale, so it re-quantizes them to exactly
/// the wire's codes (max-pool commutes with the quantizer): one scale per
/// activation, so where a plan cuts never changes the output.  The scatter
/// into an f32 stem uses one scale per image; all else travels f32.
fn precision(model: &Model, plan: &ExecutionPlan, quant: &QuantSpec, stage: usize) -> Precision {
    let first = plan
        .volumes
        .get(stage)
        .map_or(model.distributable_len(), |a| a.parts[0].volume.start);
    let consumer = model.layers()[first..]
        .iter()
        .find(|layer| !matches!(layer.op, LayerOp::MaxPool { .. }));
    match consumer.and_then(|layer| quant.layer_scale(layer.index)) {
        Some(scale) => Precision::Q8(scale),
        None if stage == 0 => Precision::Q8PerImage,
        None => Precision::F32,
    }
}

/// One version of the execution plan: the plan, how its `Rows` frames
/// travel, and the epoch id that orders it against past and future plans.
#[derive(Debug, Clone)]
pub struct PlanEpoch {
    /// Monotonically increasing epoch id (`0` at deploy).
    pub id: u64,
    /// The execution plan serving in this epoch.
    pub plan: ExecutionPlan,
    /// The precision of the `Rows` frames into each stage.
    rows: Vec<Precision>,
}

impl PlanEpoch {
    /// Builds epoch `id` for `plan`, validated against `model`, and works
    /// out once how its `Rows` frames travel under `quant` (`None`: f32).
    pub fn new(
        id: u64,
        model: &Model,
        plan: &ExecutionPlan,
        quant: Option<&QuantSpec>,
    ) -> Result<Self> {
        plan.validate(model).map_err(RuntimeError::from)?;
        let rows = (0..=plan.finish_stage())
            .map(|stage| quant.map_or(Precision::F32, |q| precision(model, plan, q, stage)));
        Ok(Self {
            id,
            plan: plan.clone(),
            rows: rows.collect(),
        })
    }

    /// The scale the `Rows` frames into `stage` travel at (`None`: f32).
    /// `image` is the whole input, which sets the scatter's per-image
    /// scale: an image holding an infinity gets one its receivers refuse.
    pub(crate) fn rows_scale(&self, stage: usize, image: Option<&Tensor>) -> Option<f32> {
        match self.rows[stage] {
            Precision::F32 => None,
            Precision::Q8(scale) => Some(scale),
            Precision::Q8PerImage => image.map(|image| quant_scale(image.data())),
        }
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
    use edgesim::plan::overlap;
    use edgesim::{Endpoint, Transfer};

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

    /// `(channels, width)` of the band assembled at `stage`.
    fn geom(model: &Model, plan: &ExecutionPlan, stage: usize) -> (usize, usize) {
        let shape = stage_input(model, plan, stage);
        (shape.c, shape.w)
    }

    /// What device `d` ships of its volume-`v` output (its local piece
    /// stays).
    fn shipped(plan: &ExecutionPlan, v: usize, d: usize) -> Vec<Transfer> {
        plan.sends(v, d).filter(|t| !t.is_local()).collect()
    }

    #[test]
    fn needs_and_geometry() {
        let m = model();
        let plan = two_volume_plan(&m, 2);
        assert_eq!(plan.num_volumes(), 2);
        assert_eq!(plan.num_devices(), 2);
        assert_eq!(geom(&m, &plan, 0), (3, 32));
        // Second volume consumes the pooled 8-channel 16-wide map.
        assert_eq!(geom(&m, &plan, 1), (8, 16));
        assert_eq!(geom(&m, &plan, 2), (16, 16));
        assert_eq!(stage_input(&m, &plan, plan.finish_stage()).h, 16);
        // Both devices need a slice of the input image.
        assert!((0..2).all(|d| plan.needs(0, d).is_some()));
    }

    #[test]
    fn interior_volume_routes_halo_to_peers() {
        let m = model();
        let plan = two_volume_plan(&m, 2);
        // Device 0 produces the top half of volume 0's output; device 1's
        // part of volume 1 needs a halo band reaching into it.
        let targets = shipped(&plan, 0, 0);
        assert!(targets.iter().any(|t| t.to == Endpoint::Device(1)));
        // Rows sent must be inside device 0's own output.
        let mine = plan.volumes[0].parts[0].output_rows;
        for t in &targets {
            assert!(t.rows.0 >= mine.0 && t.rows.1 <= mine.1);
        }
    }

    #[test]
    fn last_volume_routes_to_head() {
        let m = model();
        let plan = two_volume_plan(&m, 2);
        let head = plan.head_device.unwrap();
        let other = 1 - head;
        let targets = shipped(&plan, 1, other);
        assert_eq!(targets.len(), 1);
        assert_eq!(targets[0].to, Endpoint::Device(head));
        // The head keeps its own rows local.
        assert!(shipped(&plan, 1, head).is_empty());
        assert_eq!(plan.needs(plan.finish_stage(), head), Some((0, 16)));
        assert_eq!(plan.needs(plan.finish_stage(), other), None);
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
        for d in 0..2 {
            let targets = shipped(&plan, 0, d);
            assert_eq!(targets.len(), 1);
            assert_eq!(targets[0].to, Endpoint::Requester);
        }
    }

    #[test]
    fn empty_parts_are_skipped() {
        let m = model();
        let plan = ExecutionPlan::offload(&m, 1, 3).unwrap();
        let scatter: Vec<Transfer> = plan.transfers(0).collect();
        assert_eq!(scatter.len(), 1);
        assert_eq!(scatter[0].to, Endpoint::Device(1));
        assert!(plan.sends(0, 0).next().is_none());
        assert_eq!(plan.needs(0, 0), None);
        assert_eq!(plan.needs(0, 2), None);
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
        // The offload target holds every layer (prefix + head); idle
        // devices hold nothing.
        assert_eq!(offload.keep_layers(&m, 1).len(), m.layers().len());
        assert!(offload.keep_layers(&m, 0).is_empty());
        assert!(offload.keep_layers(&m, 2).is_empty());

        let split = two_volume_plan(&m, 2);
        let head = split.head_device.unwrap();
        assert!(split.keep_layers(&m, head).len() > split.keep_layers(&m, 1 - head).len());
    }

    #[test]
    fn rows_travel_at_the_scale_of_the_int8_layer_they_feed() -> Result<()> {
        let m = model();
        // The 27-deep stem runs f32; the second conv and the FC run int8.
        let spec = QuantSpec::new(vec![0.0, 0.0, 0.25, 0.5])?;
        let image = Tensor::from_fn([3, 32, 32], |c, y, x| (c + y + x) as f32 - 40.0);
        let epoch = PlanEpoch::new(0, &m, &two_volume_plan(&m, 2), Some(&spec))?;
        assert_eq!(
            epoch.rows_scale(0, Some(&image)),
            Some(quant_scale(image.data()))
        );
        assert_eq!(epoch.rows_scale(1, None), Some(0.25));
        assert_eq!(epoch.rows_scale(2, None), Some(0.5));
        // Rows into a pool travel at the scale of the conv past it.
        let scheme = PartitionScheme::new(&m, vec![0, 1, 3])?;
        let splits = [VolumeSplit::equal(2, 32), VolumeSplit::equal(2, 16)];
        let pooled = ExecutionPlan::from_splits(&m, &scheme, &splits, 2)?;
        let epoch = PlanEpoch::new(0, &m, &pooled, Some(&spec))?;
        assert_eq!(epoch.rows_scale(1, None), Some(0.25));
        // An int8 stem sets the scatter's scale; f32 layers take f32 rows.
        let spec = QuantSpec::new(vec![0.125, 0.0, 0.0, 0.0])?;
        let epoch = PlanEpoch::new(0, &m, &pooled, Some(&spec))?;
        assert_eq!(epoch.rows_scale(0, Some(&image)), Some(0.125));
        assert_eq!(
            (epoch.rows_scale(1, None), epoch.rows_scale(2, None)),
            (None, None)
        );
        // An f32 epoch ships everything f32.
        let epoch = PlanEpoch::new(0, &m, &pooled, None)?;
        assert!((0..=2).all(|stage| epoch.rows_scale(stage, Some(&image)).is_none()));
        Ok(())
    }

    #[test]
    fn epoch_slot_publishes_new_epochs() -> Result<()> {
        let m = model();
        let a = PlanEpoch::new(0, &m, &two_volume_plan(&m, 2), None)?;
        let slot = EpochSlot::new(a);
        assert_eq!(slot.load().id, 0);
        let held = slot.load();
        let b = PlanEpoch::new(1, &m, &ExecutionPlan::offload(&m, 0, 2)?, None)?;
        slot.store(b);
        // New loads see the new epoch; the old Arc stays valid for frames
        // still routed by it.
        assert_eq!(slot.load().id, 1);
        assert_eq!(held.id, 0);
        assert_eq!(held.plan.num_volumes(), 2);
        Ok(())
    }
}

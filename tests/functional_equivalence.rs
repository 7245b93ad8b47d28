//! Integration test: distribution strategies are functionally lossless.
//!
//! For every method (baselines and DistrEdge), lower the strategy to an
//! execution plan, run each split-part on the tensor engine, stitch the
//! outputs, and compare against running the un-split model.

use cnn_model::exec::{deterministic_input, run_full, run_part, ModelWeights, PackedModelWeights};
use cnn_model::{LayerOp, Model};
use device_profile::{DeviceSpec, DeviceType};
use distredge::evaluate::plan_method;
use distredge::{DistrEdgeConfig, Method};
use edgesim::{Cluster, ExecutionPlan};
use netsim::LinkConfig;
use tensor::slice::concat_rows;
use tensor::{Shape, Tensor};

fn model() -> Model {
    Model::new(
        "func-test",
        Shape::new(2, 40, 24),
        &[
            LayerOp::conv(8, 3, 1, 1),
            LayerOp::conv(8, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::conv(12, 3, 1, 1),
            LayerOp::fc(6),
        ],
    )
    .unwrap()
}

fn cluster() -> Cluster {
    Cluster::uniform(
        vec![
            DeviceSpec::new("xavier", DeviceType::Xavier),
            DeviceSpec::new("tx2", DeviceType::Tx2),
            DeviceSpec::new("nano", DeviceType::Nano),
        ],
        LinkConfig::constant(100.0),
    )
}

/// Executes an execution plan volume by volume on the tensor engine and
/// returns the final distributable-prefix output.
fn run_distributed(
    model: &Model,
    plan: &ExecutionPlan,
    weights: &ModelWeights,
    input: &Tensor,
) -> Tensor {
    let packed = PackedModelWeights::pack(model, weights).unwrap();
    let mut current = input.clone();
    for assignment in &plan.volumes {
        let mut bands = Vec::new();
        for part in &assignment.parts {
            if let Some(out) = run_part(model, &packed, part, &current).unwrap() {
                bands.push(out);
            }
        }
        current = concat_rows(&bands).unwrap();
    }
    current
}

#[test]
fn every_method_is_functionally_lossless() {
    let model = model();
    let cluster = cluster();
    let weights = ModelWeights::deterministic(&model, 5);
    let input = deterministic_input(&model, 5);
    let reference = run_full(&model, &weights, &input).unwrap();
    let prefix_reference = &reference[model.distributable_len() - 1];

    let mut cfg = DistrEdgeConfig::fast(cluster.len())
        .with_episodes(15)
        .with_seed(2);
    cfg.lcpss.num_random_splits = 8;
    cfg.osds.ddpg.actor_hidden = [24, 16, 12];
    cfg.osds.ddpg.critic_hidden = [24, 16, 12, 12];

    for method in Method::ALL {
        let strategy = plan_method(method, &model, &cluster, &cfg).unwrap();
        let plan = strategy.to_plan(&model).unwrap();
        plan.validate(&model).unwrap();
        let distributed = run_distributed(&model, &plan, &weights, &input);
        let diff = distributed.max_abs_diff(prefix_reference).unwrap();
        assert!(
            diff < 1e-4,
            "{}: distributed output differs from reference by {diff}",
            method.name()
        );
    }
}

#[test]
fn offload_plan_runs_whole_model_on_one_device() {
    let model = model();
    let plan = ExecutionPlan::offload(&model, 1, 3).unwrap();
    let weights = ModelWeights::deterministic(&model, 9);
    let input = deterministic_input(&model, 9);
    let reference = run_full(&model, &weights, &input).unwrap();
    let distributed = run_distributed(&model, &plan, &weights, &input);
    assert!(distributed.approx_eq(&reference[model.distributable_len() - 1], 1e-4));
    // Only device 1 holds any rows.
    assert_eq!(plan.volumes[0].holders(), vec![1]);
}

//! Deploy-time weight packing: the provider's residency cache holds GEMM
//! panels packed exactly twice — at deploy (the initial shard) and when a
//! `Reconfigure` delta ships a layer the device was missing.  Serving
//! traffic never packs: `DeviceMetrics::layers_packed` must not move while
//! frames flow, which is the observable guarantee that the per-frame hot
//! path pays zero packing cost.

use cnn_model::exec::{self, deterministic_input, ModelWeights};
use cnn_model::{LayerOp, Model, PartitionScheme, VolumeSplit};
use edge_runtime::session::Deploy;
use edgesim::ExecutionPlan;
use tensor::{Shape, Tensor};

fn model() -> Model {
    Model::new(
        "packed-test",
        Shape::new(2, 16, 12),
        &[
            LayerOp::conv(4, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::conv(6, 3, 1, 1),
            LayerOp::fc(5),
        ],
    )
    .unwrap()
}

fn split_plan(m: &Model, devices: usize) -> ExecutionPlan {
    let scheme = PartitionScheme::single_volume(m);
    let split = VolumeSplit::equal(devices, m.prefix_output().h);
    ExecutionPlan::from_splits(m, &scheme, &[split], devices).unwrap()
}

#[test]
fn packing_happens_at_deploy_and_reconfigure_only() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 41);
    let img = deterministic_input(&m, 41);
    let reference = exec::run_full(&m, &weights, &img)
        .unwrap()
        .last()
        .unwrap()
        .clone();

    // Deploy offloaded onto device 0: it packs every weight layer (three —
    // two convs plus the FC head); device 1 holds nothing and packs nothing.
    let offload = ExecutionPlan::offload(&m, 0, 2).unwrap();
    let session = Deploy::new(&m, &offload, &weights).start().unwrap();
    let t = session.submit(&img).unwrap();
    assert_eq!(session.wait(t).unwrap(), reference);

    let deploy_packs: Vec<u64> = session
        .metrics()
        .devices
        .iter()
        .map(|d| d.layers_packed)
        .collect();
    assert_eq!(
        deploy_packs,
        vec![3, 0],
        "offload target packs all weight layers at deploy; the idle device none"
    );

    // Streaming traffic moves nothing: packing is not per-frame work.
    for i in 0..5 {
        let t = session.submit(&deterministic_input(&m, 100 + i)).unwrap();
        session.wait(t).unwrap();
    }
    let serving_packs: Vec<u64> = session
        .metrics()
        .devices
        .iter()
        .map(|d| d.layers_packed)
        .collect();
    assert_eq!(
        serving_packs, deploy_packs,
        "serving six images must not repack a single layer"
    );

    // A swap to the split plan ships device 1 exactly the layers it lacks;
    // only those get packed, and only on device 1.
    let split = split_plan(&m, 2);
    let swap = session.apply_plan(&split).unwrap();
    assert_eq!(swap.delta_bytes[0], 0, "device 0 already held every layer");
    assert!(swap.delta_bytes[1] > 0, "device 1 must receive its layers");
    let after_swap: Vec<u64> = session
        .metrics()
        .devices
        .iter()
        .map(|d| d.layers_packed)
        .collect();
    assert_eq!(
        after_swap[0], deploy_packs[0],
        "a zero-byte delta must not repack anything"
    );
    assert!(
        after_swap[1] >= 1 && after_swap[1] <= 3,
        "device 1 packs exactly the shipped layers, got {}",
        after_swap[1]
    );
    let t = session.submit(&img).unwrap();
    assert_eq!(session.wait(t).unwrap(), reference, "bit-exact across swap");

    // Swapping back reuses residency end to end: zero bytes, zero repacks.
    let swap_back = session.apply_plan(&offload).unwrap();
    assert_eq!(swap_back.total_delta_bytes(), 0);
    let after_back: Vec<u64> = session
        .metrics()
        .devices
        .iter()
        .map(|d| d.layers_packed)
        .collect();
    assert_eq!(
        after_back, after_swap,
        "swap-back repacked a resident layer"
    );

    let t = session.submit(&img).unwrap();
    assert_eq!(session.wait(t).unwrap(), reference);
    session.shutdown().unwrap();
}

#[test]
fn packed_session_outputs_match_oracle_within_tolerance() {
    // The fast path vs the direct-kernel oracle: the distributed packed
    // execution agrees with `conv2d_direct`-style reference arithmetic
    // within the documented 1e-4 (the two paths differ only in summation
    // order over zero-padding taps).
    use tensor::ops::{conv2d_direct, linear_direct, maxpool2d, Activation};

    let m = model();
    let weights = ModelWeights::deterministic(&m, 43);
    let img = deterministic_input(&m, 43);

    // Hand-rolled direct reference over the layer table.
    let mut cur = img.clone();
    for (layer, w) in m.layers().iter().zip(&weights.layers) {
        cur = match layer.op {
            LayerOp::Conv {
                c_out,
                f,
                stride,
                padding,
                act,
            } => conv2d_direct(&cur, &w.0, &w.1, c_out, f, stride, padding, act),
            LayerOp::MaxPool { f, stride } => maxpool2d(&cur, f, stride),
            LayerOp::Fc { out_features } => {
                linear_direct(&cur, &w.0, &w.1, out_features, Activation::Relu).unwrap()
            }
        };
    }

    let plan = split_plan(&m, 2);
    let session = Deploy::new(&m, &plan, &weights).start().unwrap();
    let t = session.submit(&img).unwrap();
    let out: Tensor = session.wait(t).unwrap();
    session.shutdown().unwrap();
    assert!(
        out.approx_eq(&cur, 1e-4),
        "packed distributed output vs direct oracle: max diff {}",
        out.max_abs_diff(&cur).unwrap()
    );
}

//! Swap-latency benchmark: what does a hot `Session::apply_plan` cost?
//!
//! Measures the three numbers that matter for live adaptation —
//!
//! * the **no-op swap** latency (same plan: protocol overhead only),
//! * the **cross swap** latency offload → split → offload (drain + delta
//!   shipping + acks),
//! * the **drain gap** with images in flight (how long admission pauses),
//!
//! — each over `SAMPLES` swaps, and emits them to `BENCH_swap.json` so the
//! perf trajectory of the swap path is tracked across commits.

use cnn_model::exec::{deterministic_input, ModelWeights};
use cnn_model::{zoo, Model, PartitionScheme, VolumeSplit};
use edge_runtime::session::{Deploy, Session};
use edge_runtime::RuntimeOptions;
use edgesim::ExecutionPlan;
use serde::Serialize;

/// Swaps timed per measurement.
const SAMPLES: usize = 10;

fn split_plan(model: &Model, devices: usize) -> ExecutionPlan {
    let scheme = PartitionScheme::single_volume(model);
    let split = VolumeSplit::equal(devices, model.prefix_output().h);
    ExecutionPlan::from_splits(model, &scheme, &[split], devices).unwrap()
}

fn deploy(model: &Model, plan: &ExecutionPlan, weights: &ModelWeights) -> Session {
    Deploy::new(model, plan, weights)
        .options(RuntimeOptions::default().with_max_in_flight(4))
        .start()
        .unwrap()
}

#[derive(Serialize)]
struct SwapBench {
    /// Mean no-op swap latency (same plan, idle session), milliseconds.
    noop_swap_ms: f64,
    /// Mean offload→split / split→offload swap latency on an idle session.
    cross_swap_ms: f64,
    /// Delta bytes shipped by the first offload→split swap (later swaps
    /// reuse residency and ship zero).
    first_swap_delta_bytes: usize,
    /// Delta bytes shipped by every later swap of the same pair.
    steady_swap_delta_bytes: usize,
    /// Mean drain gap with images in flight at swap time, milliseconds.
    drain_gap_ms: f64,
    /// Images that were in flight when the drained swaps began (mean).
    drained_images: f64,
}

fn main() {
    let model = zoo::tiny_vgg();
    let weights = ModelWeights::deterministic(&model, 11);
    let split = split_plan(&model, 2);
    let offload = ExecutionPlan::offload(&model, 0, 2).unwrap();

    // --- No-op swap: same plan, idle session (protocol floor).
    let session = deploy(&model, &split, &weights);
    let noop_ms: Vec<f64> = (0..SAMPLES)
        .map(|_| session.apply_plan(&split).unwrap().total_ms)
        .collect();
    drop(session);

    // --- Cross swap: offload <-> split, idle session.  The first swap
    // ships the delta shard; every later one reuses residency.
    let session = deploy(&model, &offload, &weights);
    let first = session.apply_plan(&split).unwrap();
    let first_delta = first.total_delta_bytes();
    let mut cross_ms = vec![first.total_ms];
    let mut steady_delta = 0usize;
    for i in 0..SAMPLES {
        let target = if i % 2 == 0 { &offload } else { &split };
        let report = session.apply_plan(target).unwrap();
        cross_ms.push(report.total_ms);
        steady_delta = steady_delta.max(report.total_delta_bytes());
    }
    drop(session);

    // --- Drain gap: swap with the credit window full of in-flight images.
    let session = deploy(&model, &split, &weights);
    let mut drain_ms = Vec::new();
    let mut drained = Vec::new();
    for wave in 0..SAMPLES as u64 {
        let tickets: Vec<_> = (0..4)
            .map(|i| {
                session
                    .submit(&deterministic_input(&model, 1000 * wave + i))
                    .unwrap()
            })
            .collect();
        let target = if wave % 2 == 0 { &offload } else { &split };
        let report = session.apply_plan(target).unwrap();
        drain_ms.push(report.drain_ms);
        drained.push(report.drained_images as f64);
        for t in tickets {
            session.wait(t).unwrap();
        }
    }
    drop(session);

    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let out = SwapBench {
        noop_swap_ms: mean(&noop_ms),
        cross_swap_ms: mean(&cross_ms),
        first_swap_delta_bytes: first_delta,
        steady_swap_delta_bytes: steady_delta,
        drain_gap_ms: mean(&drain_ms),
        drained_images: mean(&drained),
    };
    let json = serde_json::to_string(&out).unwrap();
    // Anchor at the workspace root so the artifact lands in one place no
    // matter what cwd cargo runs the bench with.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_swap.json");
    std::fs::write(&path, &json).unwrap();
    println!("BENCH_swap.json: {json}");
}

//! In-process cluster serving: `run_node` runloops on threads, real
//! loopback sockets in between, bit-exact against single-device
//! execution.  (Separate-OS-process serving and kill/reconnect live in
//! the workspace-root `tests/cluster.rs`.)

use cnn_model::exec::{deterministic_input, run_full, ModelWeights};
use cnn_model::{LayerOp, Model, PartitionScheme, VolumeSplit};
use edge_cluster::coordinator::ClusterCoordinator;
use edge_cluster::proto::{read_welcome, write_hello};
use edge_cluster::{BackoffPolicy, ClusterConfig, Hello, NodeConfig, PeerSpec};
use edge_runtime::{ReconfigurePayload, RuntimeOptions, TransportErrorKind};
use edge_telemetry::Telemetry;
use edgesim::ExecutionPlan;
use std::net::{TcpListener, TcpStream};
use tensor::ops::NUMERICS_CONTRACT;
use tensor::Shape;

fn test_model() -> Model {
    Model::new(
        "cluster-test",
        Shape::new(2, 24, 24),
        &[
            LayerOp::conv(4, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::conv(6, 3, 1, 1),
            LayerOp::fc(10),
        ],
    )
    .unwrap()
}

/// An `n`-device row-band split plan with one volume per distributable
/// prefix, so halos cross every device boundary.
fn split_plan(model: &Model, n: usize) -> ExecutionPlan {
    let scheme = PartitionScheme::new(model, vec![0, model.distributable_len()]).unwrap();
    let splits: Vec<VolumeSplit> = scheme
        .volumes()
        .iter()
        .map(|v| {
            let h = v.last_output_height(model);
            let cuts: Vec<usize> = (1..n).map(|i| i * h / n).collect();
            VolumeSplit::new(cuts, h)
        })
        .collect();
    ExecutionPlan::from_splits(model, &scheme, &splits, n).unwrap()
}

/// Reserves `n` distinct loopback ports by binding and dropping.
fn free_addrs(n: usize) -> Vec<String> {
    let holds: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    holds
        .iter()
        .map(|l| format!("127.0.0.1:{}", l.local_addr().unwrap().port()))
        .collect()
}

fn cluster_config(addrs: &[String]) -> ClusterConfig {
    ClusterConfig {
        nodes: addrs
            .iter()
            .enumerate()
            .map(|(device, addr)| PeerSpec {
                device,
                addr: addr.clone(),
                profile: None,
            })
            .collect(),
    }
}

#[test]
fn three_node_cluster_serves_bit_exactly() {
    let model = test_model();
    let plan = split_plan(&model, 3);
    let weights = ModelWeights::deterministic(&model, 11);
    let addrs = free_addrs(3);
    let config = cluster_config(&addrs);

    let nodes: Vec<_> = addrs
        .iter()
        .enumerate()
        .map(|(device, addr)| {
            let cfg = NodeConfig {
                device,
                listen: addr.clone(),
                profile: None,
            };
            std::thread::spawn(move || edge_cluster::run_node(&cfg))
        })
        .collect();

    let session = ClusterCoordinator::serve(
        &model,
        &plan,
        weights.clone(),
        &config,
        &RuntimeOptions::default().with_max_in_flight(4),
        &BackoffPolicy::fast(),
        &Telemetry::disabled(),
    )
    .unwrap();

    let images: Vec<_> = (0..6).map(|s| deterministic_input(&model, s)).collect();
    let tickets: Vec<_> = images
        .iter()
        .map(|im| session.submit(im).unwrap())
        .collect();
    for (ticket, image) in tickets.into_iter().zip(&images) {
        let output = session.wait(ticket).unwrap();
        let expected = run_full(&model, &weights, image).unwrap().pop().unwrap();
        assert_eq!(
            output.data(),
            expected.data(),
            "cluster output must be bit-exact"
        );
    }

    let report = session.shutdown().unwrap();
    assert_eq!(report.images, 6);
    for node in nodes {
        node.join().unwrap().unwrap();
    }
}

#[test]
fn cluster_survives_a_hot_plan_swap() {
    let model = test_model();
    let plan_a = split_plan(&model, 2);
    let plan_b = ExecutionPlan::offload(&model, 0, 2).unwrap();
    let weights = ModelWeights::deterministic(&model, 23);
    let addrs = free_addrs(2);
    let config = cluster_config(&addrs);

    let nodes: Vec<_> = addrs
        .iter()
        .enumerate()
        .map(|(device, addr)| {
            let cfg = NodeConfig {
                device,
                listen: addr.clone(),
                profile: None,
            };
            std::thread::spawn(move || edge_cluster::run_node(&cfg))
        })
        .collect();

    let session = ClusterCoordinator::serve(
        &model,
        &plan_a,
        weights.clone(),
        &config,
        &RuntimeOptions::default().with_max_in_flight(2),
        &BackoffPolicy::fast(),
        &Telemetry::disabled(),
    )
    .unwrap();

    let image = deterministic_input(&model, 3);
    let expected = run_full(&model, &weights, &image).unwrap().pop().unwrap();

    let t = session.submit(&image).unwrap();
    assert_eq!(session.wait(t).unwrap().data(), expected.data());

    let swap = session.apply_plan(&plan_b).unwrap();
    assert_eq!(swap.epoch, 1);
    assert_eq!(session.epoch(), 1);

    let t = session.submit(&image).unwrap();
    assert_eq!(session.wait(t).unwrap().data(), expected.data());

    let report = session.shutdown().unwrap();
    assert_eq!(report.images, 2);
    for node in nodes {
        node.join().unwrap().unwrap();
    }
}

/// A coordinator and a node from builds with different kernel numerics
/// must not serve together: their bands would differ in the last bit and
/// stitch into a silently wrong tensor.  The foreign build is played by a
/// hand-written `Hello` carrying another contract byte; the node answers
/// with the typed mismatch error instead of `Welcome`, installs nothing,
/// and then serves a coordinator of its own build bit-exactly.
#[test]
fn node_refuses_a_coordinator_with_another_numerics_contract() {
    let model = test_model();
    let plan = ExecutionPlan::offload(&model, 0, 1).unwrap();
    let weights = ModelWeights::deterministic(&model, 31);
    let addrs = free_addrs(1);
    let cfg = NodeConfig {
        device: 0,
        listen: addrs[0].clone(),
        profile: None,
    };
    let node = std::thread::spawn(move || edge_cluster::run_node(&cfg));

    let foreign = NUMERICS_CONTRACT.wrapping_add(1);
    // The node thread may not be listening yet: dial the way a coordinator
    // does.
    let (mut stream, _attempts) = BackoffPolicy::fast()
        .retry(
            || false,
            |_: &std::io::Error| true,
            || TcpStream::connect(&addrs[0]),
        )
        .unwrap();
    let hello = Hello {
        numerics: foreign,
        device: 0,
        epoch: 0,
        peers: vec![(0, addrs[0].clone())],
        model: model.clone(),
        // No shard: had the node installed this, it could not serve below.
        payload: ReconfigurePayload {
            plan: plan.clone(),
            delta: Vec::new(),
            quant: None,
        },
    };
    write_hello(&mut stream, &hello).unwrap();
    let err = read_welcome(&mut stream, foreign).unwrap_err();
    let t = err.as_transport().expect("typed transport error");
    assert_eq!(t.kind, TransportErrorKind::Config, "got: {err}");
    assert!(!t.is_retryable());
    assert!(
        t.detail.contains(&format!("contract {foreign}"))
            && t.detail.contains(&format!("contract {NUMERICS_CONTRACT}")),
        "the error names both contracts: {err}"
    );
    drop(stream);

    let session = ClusterCoordinator::serve(
        &model,
        &plan,
        weights.clone(),
        &cluster_config(&addrs),
        &RuntimeOptions::default(),
        &BackoffPolicy::fast(),
        &Telemetry::disabled(),
    )
    .unwrap();
    let image = deterministic_input(&model, 2);
    let expected = run_full(&model, &weights, &image).unwrap().pop().unwrap();
    let ticket = session.submit(&image).unwrap();
    assert_eq!(session.wait(ticket).unwrap().data(), expected.data());
    session.shutdown().unwrap();
    node.join().unwrap().unwrap();
}

#[test]
fn serve_rejects_mismatched_cluster_size() {
    let model = test_model();
    let plan = split_plan(&model, 3);
    let weights = ModelWeights::deterministic(&model, 1);
    let addrs = free_addrs(2);
    let config = cluster_config(&addrs);
    let err = match ClusterCoordinator::serve(
        &model,
        &plan,
        weights,
        &config,
        &RuntimeOptions::default(),
        &BackoffPolicy::fast(),
        &Telemetry::disabled(),
    ) {
        Err(e) => e,
        Ok(_) => panic!("mismatched cluster size must be rejected"),
    };
    assert!(err.to_string().contains("3 devices"), "got: {err}");
}

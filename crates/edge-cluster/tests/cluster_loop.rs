//! In-process cluster serving: node runloops on threads, real loopback
//! sockets in between, bit-exact against single-device execution (and, for
//! int8, against the same quantized deploy in process).  (Separate-OS-process
//! serving and kill/reconnect live in the workspace-root `tests/cluster.rs`.)

use cnn_model::exec::{deterministic_input, run_full, ModelWeights};
use cnn_model::{LayerOp, Model, PartitionScheme, VolumeSplit};
use edge_cluster::proto::{read_welcome, write_hello};
use edge_cluster::{BoundNode, ClusterConfig, ClusterSession, Hello, NodeConfig, PeerSpec};
use edge_runtime::{Deploy, ReconfigurePayload, RuntimeOptions, TransportErrorKind};
use edge_telemetry::Telemetry;
use edgesim::ExecutionPlan;
use std::net::TcpStream;
use std::thread::JoinHandle;
use tensor::ops::NUMERICS_CONTRACT;
use tensor::{Shape, Tensor};

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

/// Binds `n` nodes, each on the loopback port the OS gives it: the
/// listeners exist before anyone dials, so no port is reserved and
/// released, and no dial races a node that is not listening yet.
fn bind_nodes(n: usize) -> Vec<BoundNode> {
    (0..n)
        .map(|device| {
            BoundNode::bind(&NodeConfig {
                device,
                listen: "127.0.0.1:0".into(),
                profile: None,
            })
            .unwrap()
        })
        .collect()
}

fn cluster_config(nodes: &[BoundNode]) -> ClusterConfig {
    ClusterConfig {
        nodes: nodes
            .iter()
            .enumerate()
            .map(|(device, node)| PeerSpec {
                device,
                addr: node.addr().to_string(),
                profile: None,
            })
            .collect(),
    }
}

/// Binds `n` nodes, starts their runloops, and returns the config that
/// names them.
fn spawn_nodes(n: usize) -> (ClusterConfig, Vec<JoinHandle<edge_cluster::Result<()>>>) {
    let bound = bind_nodes(n);
    let config = cluster_config(&bound);
    let nodes = bound
        .into_iter()
        .map(|node| std::thread::spawn(move || node.run(&Telemetry::disabled())))
        .collect();
    (config, nodes)
}

#[test]
fn three_node_cluster_serves_bit_exactly() {
    let model = test_model();
    let plan = split_plan(&model, 3);
    let weights = ModelWeights::deterministic(&model, 11);
    let (config, nodes) = spawn_nodes(3);

    let cluster = ClusterSession::serve(
        &model,
        &plan,
        weights.clone(),
        &config,
        RuntimeOptions::default().with_max_in_flight(4),
        &Telemetry::disabled(),
    )
    .unwrap();
    let session = cluster.session();

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

    let report = cluster.shutdown().unwrap();
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
    let (config, nodes) = spawn_nodes(2);

    let cluster = ClusterSession::serve(
        &model,
        &plan_a,
        weights.clone(),
        &config,
        RuntimeOptions::default().with_max_in_flight(2),
        &Telemetry::disabled(),
    )
    .unwrap();
    let session = cluster.session();

    let image = deterministic_input(&model, 3);
    let expected = run_full(&model, &weights, &image).unwrap().pop().unwrap();

    let t = session.submit(&image).unwrap();
    assert_eq!(session.wait(t).unwrap().data(), expected.data());

    let swap = session.apply_plan(&plan_b).unwrap();
    assert_eq!(swap.epoch, 1);
    assert_eq!(session.epoch(), 1);
    // What a re-handshake would now ship: the swapped epoch and plan.
    assert_eq!(session.current_plan(), (1, plan_b));

    let t = session.submit(&image).unwrap();
    assert_eq!(session.wait(t).unwrap().data(), expected.data());

    let report = cluster.shutdown().unwrap();
    assert_eq!(report.images, 2);
    for node in nodes {
        node.join().unwrap().unwrap();
    }
}

/// An int8 cluster serves what the same quantized deploy serves in
/// process, bit for bit, before and after a hot plan swap: the nodes and
/// the coordinator's session run the one spec the coordinator calibrated
/// and shipped in the handshake, and every `Reconfigure` keeps shipping it.
#[test]
fn quantized_cluster_matches_the_in_process_quantized_deploy() {
    let model = test_model();
    let plan_a = split_plan(&model, 3);
    // Epoch 1 splits unevenly, so q8 halo rows still cross every device.
    let plan_b = {
        let scheme = PartitionScheme::new(&model, vec![0, model.distributable_len()]).unwrap();
        let splits: Vec<VolumeSplit> = scheme
            .volumes()
            .iter()
            .map(|v| {
                let h = v.last_output_height(&model);
                VolumeSplit::new(vec![h / 4, h / 2], h)
            })
            .collect();
        ExecutionPlan::from_splits(&model, &scheme, &splits, 3).unwrap()
    };
    let weights = ModelWeights::deterministic(&model, 41);
    let options = RuntimeOptions::default()
        .with_max_in_flight(3)
        .with_quantized(true);
    let images: Vec<Tensor> = (0..4).map(|s| deterministic_input(&model, s)).collect();
    let serve = |session: &edge_runtime::Session| -> Vec<Tensor> {
        let tickets: Vec<_> = images
            .iter()
            .map(|im| session.submit(im).unwrap())
            .collect();
        tickets
            .into_iter()
            .map(|t| session.wait(t).unwrap())
            .collect()
    };

    let local = Deploy::new(&model, &plan_a, &weights)
        .options(options)
        .start()
        .unwrap();
    let local_a = serve(&local);
    local.apply_plan(&plan_b).unwrap();
    let local_b = serve(&local);
    local.shutdown().unwrap();

    let (config, nodes) = spawn_nodes(3);
    let cluster = ClusterSession::serve(
        &model,
        &plan_a,
        weights.clone(),
        &config,
        options,
        &Telemetry::disabled(),
    )
    .unwrap();
    let session = cluster.session();
    assert!(session.quantized());
    assert_eq!(serve(session), local_a, "epoch 0 must match in process");
    session.apply_plan(&plan_b).unwrap();
    assert!(session.quantized());
    assert_eq!(serve(session), local_b, "epoch 1 must match in process");

    // And it really ran int8: the f32 reference differs.
    let f32_out = run_full(&model, &weights, &images[0])
        .unwrap()
        .pop()
        .unwrap();
    assert_ne!(local_a[0], f32_out, "the quantized path must be taken");

    cluster.shutdown().unwrap();
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
    let (config, mut nodes) = spawn_nodes(1);
    let addr = config.nodes[0].addr.clone();

    let foreign = NUMERICS_CONTRACT.wrapping_add(1);
    // The node is bound before its runloop starts: dial it directly.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let hello = Hello {
        numerics: foreign,
        device: 0,
        epoch: 0,
        peers: vec![(0, addr.clone())],
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

    let cluster = ClusterSession::serve(
        &model,
        &plan,
        weights.clone(),
        &config,
        RuntimeOptions::default(),
        &Telemetry::disabled(),
    )
    .unwrap();
    let session = cluster.session();
    let image = deterministic_input(&model, 2);
    let expected = run_full(&model, &weights, &image).unwrap().pop().unwrap();
    let ticket = session.submit(&image).unwrap();
    assert_eq!(session.wait(ticket).unwrap().data(), expected.data());
    cluster.shutdown().unwrap();
    nodes.pop().unwrap().join().unwrap().unwrap();
}

#[test]
fn serve_rejects_mismatched_cluster_size() {
    let model = test_model();
    let plan = split_plan(&model, 3);
    let weights = ModelWeights::deterministic(&model, 1);
    // Bound but never run: the size check comes before any dial.
    let config = cluster_config(&bind_nodes(2));
    let err = match ClusterSession::serve(
        &model,
        &plan,
        weights,
        &config,
        RuntimeOptions::default(),
        &Telemetry::disabled(),
    ) {
        Err(e) => e,
        Ok(_) => panic!("mismatched cluster size must be rejected"),
    };
    assert!(err.to_string().contains("3 devices"), "got: {err}");
}

//! Multi-host cluster serving: one model, three `distredge-node`
//! processes, real TCP in between.
//!
//! The coordinator dials every node, ships the plan and that node's
//! weight shard in the bootstrap handshake, then streams images through
//! the cluster exactly as the in-process runtime would — bit-exact
//! against single-device execution.
//!
//! Two ways to run it:
//!
//! ```text
//! # Self-contained (nodes run as threads inside this process, still
//! # over real loopback sockets):
//! cargo run --release --example cluster_serving
//!
//! # Against external node processes: start three nodes, then point the
//! # example at the cluster config they share.
//! cargo run --release --bin distredge-node -- --device 0 --listen 127.0.0.1:7700 &
//! cargo run --release --bin distredge-node -- --device 1 --listen 127.0.0.1:7701 &
//! cargo run --release --bin distredge-node -- --device 2 --listen 127.0.0.1:7702 &
//! DISTREDGE_CLUSTER=cluster.toml cargo run --release --example cluster_serving
//! ```
//!
//! where `cluster.toml` lists the same addresses:
//!
//! ```text
//! [[node]]
//! device = 0
//! addr = "127.0.0.1:7700"
//! # ... one block per node
//! ```

use cnn_model::exec::{deterministic_input, run_full, ModelWeights};
use cnn_model::{Model, PartitionScheme, VolumeSplit};
use distredge::DistributionStrategy;
use edge_cluster::{BoundNode, ClusterConfig, ClusterSession, NodeConfig, PeerSpec};
use edge_runtime::RuntimeOptions;
use edge_telemetry::Telemetry;
use std::time::Instant;

const DEVICES: usize = 3;
const IMAGES: u64 = 12;

fn equal_split_strategy(model: &Model, devices: usize) -> DistributionStrategy {
    let scheme = PartitionScheme::new(model, vec![0, 6, model.distributable_len()])
        .expect("valid boundaries");
    let splits: Vec<VolumeSplit> = scheme
        .volumes()
        .iter()
        .map(|v| VolumeSplit::equal(devices, v.last_output_height(model)))
        .collect();
    DistributionStrategy::new("EqualSplit", scheme, splits, devices).expect("valid strategy")
}

fn main() {
    let model = cnn_model::zoo::tiny_vgg();
    let strategy = equal_split_strategy(&model, DEVICES);
    let plan = strategy.to_plan(&model).expect("valid plan");
    let weights = ModelWeights::deterministic(&model, 7);

    // 1. A cluster config: either the file named by DISTREDGE_CLUSTER
    //    (external `distredge-node` processes already listening), or
    //    three in-process node runloops, each on the loopback port the OS
    //    gave it.
    let external = std::env::var("DISTREDGE_CLUSTER").ok();
    let (config, nodes) = match &external {
        Some(path) => {
            println!("cluster : external nodes from {path}");
            let config = ClusterConfig::from_file(path).expect("load cluster config");
            (config, Vec::new())
        }
        None => {
            let bound: Vec<BoundNode> = (0..DEVICES)
                .map(|device| {
                    BoundNode::bind(&NodeConfig {
                        device,
                        listen: "127.0.0.1:0".into(),
                        profile: None,
                    })
                    .expect("bind loopback")
                })
                .collect();
            let addrs: Vec<String> = bound.iter().map(|n| n.addr().to_string()).collect();
            println!("cluster : in-process nodes on {}", addrs.join(", "));
            let nodes: Vec<_> = bound
                .into_iter()
                .map(|node| std::thread::spawn(move || node.run(&Telemetry::disabled())))
                .collect();
            let config = ClusterConfig {
                nodes: addrs
                    .iter()
                    .enumerate()
                    .map(|(device, addr)| PeerSpec {
                        device,
                        addr: addr.clone(),
                        profile: None,
                    })
                    .collect(),
            };
            (config, nodes)
        }
    };

    // 2. Bootstrap: dial every node, ship plan + weight shard, deploy.
    let t0 = Instant::now();
    let cluster = ClusterSession::serve(
        &model,
        &plan,
        weights.clone(),
        &config,
        RuntimeOptions::default().with_max_in_flight(4),
        &Telemetry::disabled(),
    )
    .expect("cluster deploy");
    let session = cluster.session();
    println!(
        "deploy  : {} on {} nodes in {:.1} ms",
        model.name(),
        config.nodes.len(),
        t0.elapsed().as_secs_f64() * 1e3
    );

    // 3. Stream images and verify every output bit-exactly against
    //    single-device execution with the same deterministic weights.
    let images: Vec<_> = (0..IMAGES)
        .map(|s| deterministic_input(&model, s))
        .collect();
    let t0 = Instant::now();
    let tickets: Vec<_> = images
        .iter()
        .map(|im| session.submit(im).expect("submit"))
        .collect();
    for (ticket, image) in tickets.into_iter().zip(&images) {
        let output = session.wait(ticket).expect("wait");
        let expected = run_full(&model, &weights, image)
            .expect("reference")
            .pop()
            .unwrap();
        assert_eq!(
            output.data(),
            expected.data(),
            "cluster output must be bit-exact"
        );
    }
    let elapsed = t0.elapsed();
    let ips = IMAGES as f64 / elapsed.as_secs_f64();

    let report = cluster.shutdown().expect("shutdown");
    println!(
        "serve   : {} images in {:.1} ms — {:.1} IPS, all bit-exact",
        report.images,
        elapsed.as_secs_f64() * 1e3,
        ips
    );

    // 4. In-process nodes halt on the coordinator's Halt frames.
    for node in nodes {
        node.join().expect("node thread").expect("node runloop");
    }
    println!("halt    : all nodes drained cleanly");
}

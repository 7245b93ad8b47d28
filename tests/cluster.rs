//! Multi-process cluster serving: real `distredge-node` OS processes over
//! loopback TCP, driven by an in-test coordinator.
//!
//! Covers the two cluster acceptance claims: (1) three separate node
//! processes serve `tiny_vgg` bit-exactly against single-device
//! execution, and (2) killing a node mid-stream and restarting it with
//! the same config reconnects with backoff, re-handshakes at the current
//! epoch, and completes every submitted image — zero loss.

use cnn_model::exec::{deterministic_input, run_full, ModelWeights};
use cnn_model::{zoo, Model, PartitionScheme, VolumeSplit};
use edge_cluster::{ClusterConfig, ClusterSession, PeerSpec};
use edge_runtime::RuntimeOptions;
use edge_telemetry::Telemetry;
use edgesim::ExecutionPlan;
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// One `distredge-node` process and the address it reported binding.  Its
/// stdout stays open for the node's lifetime: the node prints once more
/// when it halts, and must not find the pipe closed.
struct Node {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

/// Kills its node processes on drop so a failing assertion doesn't leak
/// listeners.
struct NodeProcs {
    nodes: Vec<Option<Node>>,
}

impl NodeProcs {
    /// Starts `n` nodes, each on a loopback port the OS picks.  No port is
    /// reserved and released beforehand, so concurrent tests cannot take
    /// each other's.
    fn spawn(n: usize) -> Self {
        let nodes = (0..n)
            .map(|device| Some(spawn_node(device, "127.0.0.1:0")))
            .collect();
        Self { nodes }
    }

    /// The address every node reported, by device.
    fn addrs(&self) -> Vec<String> {
        self.nodes
            .iter()
            .map(|n| n.as_ref().expect("node running").addr.clone())
            .collect()
    }

    /// Kills `device`'s process and starts a new one on the same address.
    fn restart(&mut self, device: usize) {
        let mut node = self.nodes[device].take().expect("node running");
        node.child.kill().expect("kill node");
        node.child.wait().expect("reap node");
        self.nodes[device] = Some(spawn_node(device, &node.addr));
    }

    /// Waits for every remaining node to exit cleanly (post-Halt).
    fn join(mut self) {
        for slot in &mut self.nodes {
            if let Some(mut node) = slot.take() {
                let status = node.child.wait().expect("node exit status");
                assert!(status.success(), "node exited with {status}");
            }
        }
    }
}

impl Drop for NodeProcs {
    fn drop(&mut self) {
        for slot in &mut self.nodes {
            if let Some(mut node) = slot.take() {
                let _ = node.child.kill();
                let _ = node.child.wait();
            }
        }
    }
}

/// Starts a node on `listen` and reads the address it bound from the first
/// line it prints.  Its stderr goes to the test's, so a node that cannot
/// bind says so.
fn spawn_node(device: usize, listen: &str) -> Node {
    let mut child = Command::new(env!("CARGO_BIN_EXE_distredge-node"))
        .args(["--device", &device.to_string(), "--listen", listen])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn distredge-node");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read the node's banner");
    let addr = line
        .trim_end()
        .rsplit_once("listening on ")
        .unwrap_or_else(|| panic!("node {device} printed {line:?} instead of its address"))
        .1
        .to_string();
    Node {
        child,
        _stdout: stdout,
        addr,
    }
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

fn equal_split_plan(model: &Model, n: usize) -> ExecutionPlan {
    let scheme = PartitionScheme::new(model, vec![0, 6, model.distributable_len()]).unwrap();
    let splits: Vec<VolumeSplit> = scheme
        .volumes()
        .iter()
        .map(|v| VolumeSplit::equal(n, v.last_output_height(model)))
        .collect();
    ExecutionPlan::from_splits(model, &scheme, &splits, n).unwrap()
}

#[test]
fn three_node_processes_serve_tiny_vgg_bit_exactly() {
    let model = zoo::tiny_vgg();
    let plan = equal_split_plan(&model, 3);
    let weights = ModelWeights::deterministic(&model, 5);
    let procs = NodeProcs::spawn(3);
    let addrs = procs.addrs();

    let cluster = ClusterSession::serve(
        &model,
        &plan,
        weights.clone(),
        &cluster_config(&addrs),
        RuntimeOptions::default().with_max_in_flight(3),
        &Telemetry::disabled(),
    )
    .expect("cluster bootstrap");
    let session = cluster.session();

    let images: Vec<_> = (0..4).map(|s| deterministic_input(&model, s)).collect();
    let tickets: Vec<_> = images
        .iter()
        .map(|im| session.submit(im).expect("submit"))
        .collect();
    for (ticket, image) in tickets.into_iter().zip(&images) {
        let output = session
            .wait_timeout(ticket, Duration::from_secs(120))
            .expect("wait")
            .expect("image within deadline");
        let expected = run_full(&model, &weights, image).unwrap().pop().unwrap();
        assert_eq!(
            output.data(),
            expected.data(),
            "cluster output must be bit-exact vs single-device"
        );
    }

    let report = cluster.shutdown().expect("shutdown");
    assert_eq!(report.images, 4);
    procs.join();
}

#[test]
fn killed_node_reconnects_and_no_image_is_lost() {
    let model = zoo::tiny_vgg();
    let plan = equal_split_plan(&model, 3);
    let weights = ModelWeights::deterministic(&model, 9);
    let mut procs = NodeProcs::spawn(3);
    let addrs = procs.addrs();

    let cluster = ClusterSession::serve(
        &model,
        &plan,
        weights.clone(),
        &cluster_config(&addrs),
        RuntimeOptions::default().with_max_in_flight(2),
        &Telemetry::disabled(),
    )
    .expect("cluster bootstrap");
    let session = cluster.session();
    assert_eq!(session.epoch(), 0);

    let images: Vec<_> = (0..8).map(|s| deterministic_input(&model, s)).collect();

    // Serve the first image over the healthy cluster, then kill device 1
    // and restart it with the same config.  The supervisor must reconnect
    // with backoff, re-handshake at the current epoch, resync, and replay
    // the in-flight images.
    let (first_image, rest) = images.split_first().unwrap();
    let first_ticket = session.submit(first_image).expect("submit");
    let first = session
        .wait_timeout(first_ticket, Duration::from_secs(120))
        .expect("first image before the kill")
        .expect("first image within deadline");
    let expected = run_full(&model, &weights, first_image)
        .unwrap()
        .pop()
        .unwrap();
    assert_eq!(first.data(), expected.data());

    procs.restart(1);

    // Submitted only after the kill, so every remaining image needs the
    // re-handshaken node and none can finish before the supervisor has
    // repaired the link.  Submitted before it, an optimised build can
    // finish them all first, and then nothing waits on the reconnect the
    // assertions below check.
    let tickets: Vec<_> = rest
        .iter()
        .map(|im| (session.submit(im).expect("submit"), im))
        .collect();

    for (ticket, image) in tickets {
        let output = session
            .wait_timeout(ticket, Duration::from_secs(120))
            .expect("image completes across the reconnect")
            .expect("image within deadline across the reconnect");
        let expected = run_full(&model, &weights, image).unwrap().pop().unwrap();
        assert_eq!(
            output.data(),
            expected.data(),
            "replayed image must still be bit-exact"
        );
    }

    assert!(
        cluster.resyncs() >= 1,
        "supervisor must have re-handshaken the killed node"
    );
    assert!(
        session.epoch() >= 1,
        "resync must advance the epoch past the bootstrap plan"
    );
    assert!(session.failure().is_none(), "session must not be poisoned");

    let report = cluster.shutdown().expect("shutdown");
    assert_eq!(report.images, 8, "zero image loss across the kill");
    drop(procs);
}

//! Cluster serving benchmark: what does crossing process boundaries cost?
//!
//! The same three-way row-band plan for `tiny_vgg` runs twice:
//!
//! * **in-process** — `Deploy::new(..).start()`, provider threads and
//!   channel transport inside one address space (the PR-1..7 runtime), and
//! * **cluster** — three real `distredge-node` OS processes on loopback
//!   TCP, bootstrapped by `ClusterSession::serve` (handshake ships the
//!   plan + per-node weight shard).
//!
//! Results land in `BENCH_cluster.json`.  The run asserts the headline
//! claim: multi-process serving must sustain at least 10% of in-process
//! throughput — sockets and frame codecs may tax the pipeline, not wreck
//! it — and both paths stay bit-exact against single-device execution.

use cnn_model::exec::{deterministic_input, run_full, ModelWeights};
use cnn_model::{Model, PartitionScheme, VolumeSplit};
use edge_cluster::{ClusterConfig, ClusterSession, PeerSpec};
use edge_runtime::{Deploy, RuntimeOptions};
use edge_telemetry::Telemetry;
use edgesim::ExecutionPlan;
use serde::Serialize;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;
use tensor::Tensor;

const DEVICES: usize = 3;
const IMAGES: u64 = 32;

fn equal_split_plan(model: &Model, n: usize) -> ExecutionPlan {
    let scheme = PartitionScheme::new(model, vec![0, 6, model.distributable_len()]).unwrap();
    let splits: Vec<VolumeSplit> = scheme
        .volumes()
        .iter()
        .map(|v| VolumeSplit::equal(n, v.last_output_height(model)))
        .collect();
    ExecutionPlan::from_splits(model, &scheme, &splits, n).unwrap()
}

/// Builds (if needed) and locates the `distredge-node` binary.  Benches
/// don't get `CARGO_BIN_EXE_*` for another package's binaries, so this
/// asks cargo to build it and then looks next to the bench's own profile
/// directory (`target/release/deps/cluster-*` → `target/release/`).
fn node_binary() -> PathBuf {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--bin", "distredge-node"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .status()
        .expect("run cargo build");
    assert!(status.success(), "building distredge-node failed");

    let mut dir = std::env::current_exe().expect("bench path");
    while let Some(parent) = dir.parent() {
        let candidate = parent.join("distredge-node");
        if candidate.is_file() {
            return candidate;
        }
        dir = parent.to_path_buf();
    }
    panic!(
        "distredge-node not found near {:?}",
        std::env::current_exe()
    );
}

/// Starts node `device` on a loopback port the OS picks and reads the
/// address it bound from the first line it prints.  The returned stdout
/// must stay open until the node exits: it prints again when halted.
fn spawn_node(binary: &Path, device: usize) -> (Child, BufReader<ChildStdout>, String) {
    let mut child = Command::new(binary)
        .args(["--device", &device.to_string(), "--listen", "127.0.0.1:0"])
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
    (child, stdout, addr)
}

/// Streams `images` through `submit`/`wait` closures and returns IPS.
fn stream_ips(
    images: &[Tensor],
    expected: &[Tensor],
    submit: impl Fn(&Tensor) -> edge_runtime::Ticket,
    wait: impl Fn(edge_runtime::Ticket) -> Tensor,
) -> f64 {
    let t0 = Instant::now();
    let tickets: Vec<_> = images.iter().map(&submit).collect();
    let outputs: Vec<_> = tickets.into_iter().map(&wait).collect();
    let ips = images.len() as f64 / t0.elapsed().as_secs_f64();
    for (out, exp) in outputs.iter().zip(expected) {
        assert_eq!(out.data(), exp.data(), "output must stay bit-exact");
    }
    ips
}

fn in_process_ips(
    model: &Model,
    plan: &ExecutionPlan,
    weights: &ModelWeights,
    images: &[Tensor],
    expected: &[Tensor],
) -> f64 {
    let session = Deploy::new(model, plan, weights)
        .options(RuntimeOptions::default().with_max_in_flight(4))
        .start()
        .unwrap();
    let ips = stream_ips(
        images,
        expected,
        |im| session.submit(im).unwrap(),
        |t| session.wait(t).unwrap(),
    );
    session.shutdown().unwrap();
    ips
}

fn cluster_ips(
    model: &Model,
    plan: &ExecutionPlan,
    weights: &ModelWeights,
    images: &[Tensor],
    expected: &[Tensor],
    binary: &Path,
) -> (f64, f64) {
    let nodes: Vec<_> = (0..DEVICES).map(|d| spawn_node(binary, d)).collect();
    let config = ClusterConfig {
        nodes: nodes
            .iter()
            .enumerate()
            .map(|(device, (_, _, addr))| PeerSpec {
                device,
                addr: addr.clone(),
                profile: None,
            })
            .collect(),
    };

    let t0 = Instant::now();
    let cluster = ClusterSession::serve(
        model,
        plan,
        weights.clone(),
        &config,
        RuntimeOptions::default().with_max_in_flight(4),
        &Telemetry::disabled(),
    )
    .expect("cluster bootstrap");
    let bootstrap_ms = t0.elapsed().as_secs_f64() * 1e3;

    let session = cluster.session();
    let ips = stream_ips(
        images,
        expected,
        |im| session.submit(im).unwrap(),
        |t| session.wait(t).unwrap(),
    );
    cluster.shutdown().unwrap();
    for (mut child, _stdout, _) in nodes {
        let status = child.wait().expect("node exit");
        assert!(status.success(), "node exited with {status}");
    }
    (ips, bootstrap_ms)
}

#[derive(Serialize)]
struct ClusterBench {
    model: String,
    devices: usize,
    images: u64,
    /// Same plan, provider threads + channel transport in one process.
    in_process_ips: f64,
    /// Three `distredge-node` OS processes on loopback TCP.
    cluster_ips: f64,
    /// cluster_ips / in_process_ips — the process-boundary tax.
    cluster_vs_in_process: f64,
    /// Wall-clock for the TCP bootstrap handshake (plan + weight shards).
    bootstrap_ms: f64,
}

fn main() {
    let binary = node_binary();
    let model = cnn_model::zoo::tiny_vgg();
    let plan = equal_split_plan(&model, DEVICES);
    let weights = ModelWeights::deterministic(&model, 7);

    let images: Vec<Tensor> = (0..IMAGES)
        .map(|s| deterministic_input(&model, s))
        .collect();
    let expected: Vec<Tensor> = images
        .iter()
        .map(|im| run_full(&model, &weights, im).unwrap().pop().unwrap())
        .collect();

    // Warm both paths once (thread spawn, listener setup, page faults),
    // then measure.
    in_process_ips(&model, &plan, &weights, &images[..4], &expected[..4]);
    let in_process = in_process_ips(&model, &plan, &weights, &images, &expected);
    let (cluster, bootstrap_ms) = cluster_ips(&model, &plan, &weights, &images, &expected, &binary);

    let out = ClusterBench {
        model: model.name().to_string(),
        devices: DEVICES,
        images: IMAGES,
        in_process_ips: in_process,
        cluster_ips: cluster,
        cluster_vs_in_process: cluster / in_process,
        bootstrap_ms,
    };
    assert!(
        out.cluster_vs_in_process >= 0.10,
        "multi-process serving must sustain >= 10% of in-process throughput, \
         got {:.1}% ({in_process:.1} -> {cluster:.1} IPS)",
        out.cluster_vs_in_process * 100.0
    );

    let json = serde_json::to_string(&out).unwrap();
    // Anchor at the workspace root so the artifact lands in one place no
    // matter what cwd cargo runs the bench with.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cluster.json");
    std::fs::write(&path, &json).unwrap();
    println!("BENCH_cluster.json: {json}");
}

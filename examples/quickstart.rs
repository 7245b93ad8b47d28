//! Quickstart: plan a DistrEdge distribution strategy for VGG-16 on a small
//! heterogeneous edge cluster and compare it against single-device offload.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use distredge::{
    evaluate::{evaluate_method, evaluate_strategy},
    DistrEdge, DistrEdgeConfig, Method, Scenario,
};
use edgesim::SimOptions;
use neuro::{DdpgAgent, DdpgConfig, Transition};
use std::time::Instant;

fn main() {
    // 1. The CNN to serve: VGG-16 from the model zoo (layer configurations
    //    only — weights are irrelevant to the distribution decision).
    let model = cnn_model::zoo::vgg16();
    println!(
        "model: {} ({} layers, {:.1} GFLOPs, {:.1} M parameters)",
        model.name(),
        model.len(),
        model.total_ops() / 1e9,
        model.parameter_count() as f64 / 1e6
    );

    // 2. The edge cluster: Table I's Group DB (2×Xavier + 2×Nano) behind
    //    200 Mbps shaped WiFi.
    let scenario = Scenario::group_db(200.0);
    let cluster = scenario.build(7);
    println!(
        "cluster: {} providers: {}",
        cluster.len(),
        cluster
            .devices()
            .iter()
            .map(|d| d.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // 3. Plan with DistrEdge (LC-PSS + OSDS).  The `fast` configuration keeps
    //    this example to a few seconds; `DistrEdgeConfig::paper(4)` runs the
    //    full 4000-episode training of the paper.
    let config = DistrEdgeConfig::fast(cluster.len())
        .with_episodes(120)
        .with_seed(7);
    let started = Instant::now();
    let outcome = DistrEdge::plan(&model, &cluster, &config).expect("planning failed");
    let plan_s = started.elapsed().as_secs_f64();
    let episodes = outcome.osds.episode_latencies_ms.len();
    println!(
        "\nDistrEdge strategy: {} layer-volumes, partition boundaries {:?}",
        outcome.strategy.num_volumes(),
        outcome.strategy.scheme.boundaries()
    );
    // Planning cost is one DDPG update per environment step and little else.
    println!(
        "planned in {plan_s:.2} s: {episodes} OSDS episodes at {:.0} episodes/s, \
         {:.0} us per step (act + MDP step + DDPG update)",
        episodes as f64 / plan_s,
        plan_s * 1e6 / (episodes * outcome.strategy.num_volumes()) as f64
    );
    println!(
        "per-device row shares: {:?}",
        outcome.strategy.row_shares(&model)
    );

    // 4. Measure it with the ground-truth simulator and compare to offload.
    let options = SimOptions {
        num_images: 50,
        start_ms: 0.0,
    };
    let distredge_report =
        evaluate_strategy(&model, &cluster, &outcome.strategy, options).expect("simulation failed");
    let offload = evaluate_method(Method::Offload, &model, &cluster, &config, options)
        .expect("offload failed");

    println!("\n{:<12}{:>10}{:>18}", "method", "IPS", "mean latency (ms)");
    println!(
        "{:<12}{:>10.2}{:>18.1}",
        "DistrEdge", distredge_report.ips, distredge_report.mean_latency_ms
    );
    println!(
        "{:<12}{:>10.2}{:>18.1}",
        "Offload", offload.ips, offload.mean_latency_ms
    );
    println!(
        "\nDistrEdge speedup over offloading to the best single device: {:.2}x",
        distredge_report.ips / offload.ips
    );

    // 5. What the paper's own budget costs on this machine: one DDPG update
    //    at its network sizes and batch, times 4000 episodes of one update
    //    per layer-volume.
    let (state_dim, action_dim) = (cluster.len() + 4, cluster.len() - 1);
    let mut agent = DdpgAgent::new(state_dim, action_dim, DdpgConfig::default());
    let batch: Vec<Transition> = (0..64)
        .map(|s| Transition {
            state: vec![s as f64 / 64.0; state_dim],
            action: vec![0.5 - s as f64 / 64.0; action_dim],
            reward: 1.0 / (1.0 + s as f64),
            next_state: vec![(s + 1) as f64 / 64.0; state_dim],
            done: s % 3 == 2,
        })
        .collect();
    agent.update(&batch);
    let update_ms = (0..5)
        .map(|_| {
            let started = Instant::now();
            agent.update(&batch);
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    println!(
        "one DDPG update at the paper's sizes (400/200/100 networks, batch 64): {update_ms:.1} ms, \
         so `DistrEdgeConfig::paper({})` plans in about {:.1} min",
        cluster.len(),
        update_ms * 4000.0 * outcome.strategy.num_volumes() as f64 / 60e3
    );
}

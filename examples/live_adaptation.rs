//! Live adaptation: degrade a shaped link mid-run and watch throughput
//! recover after an **in-place** plan swap — no redeploy, no weight reload.
//!
//! The loop is the paper's §V-F observe → re-plan → apply cycle, closed
//! against the real runtime:
//!
//! 1. plan with LC-PSS/OSDS, deploy a session over a trace-shaped
//!    transport (`Deploy::new(..).over(&mut ShapedTransport::new(..))`)
//!    and close the loop around it
//!    (`AdaptiveSession::over`),
//! 2. serve a wave, then let device 1's link collapse (its bandwidth trace
//!    steps from 200 Mbps down to 0.5 Mbps),
//! 3. feed the monitored bandwidths to the [`AdaptiveSession`]: the drift
//!    in measured latency triggers a re-plan, and `Session::apply_plan`
//!    hot-swaps the strategy while the cluster stays resident,
//! 4. serve another wave and compare IPS before / during / after.
//!
//! Run with `cargo run --release --example live_adaptation`.

use distredge_suite::cnn_model::exec::{self, deterministic_input, ModelWeights};
use distredge_suite::cnn_model::{LayerOp, Model};
use distredge_suite::device_profile::{DeviceSpec, DeviceType};
use distredge_suite::distredge::{AdaptiveSession, DistrEdge, DistrEdgeConfig, OnlineConfig};
use distredge_suite::edge_runtime::{ChannelTransport, Deploy, ShapedTransport};
use distredge_suite::edgesim::Cluster;
use distredge_suite::netsim::{BandwidthTrace, Link, LinkConfig};
use distredge_suite::tensor::Shape;
use std::time::{Duration, Instant};

/// Milliseconds of healthy bandwidth before device 1's link collapses.
const DEGRADE_AT_MS: usize = 1_500;

fn main() {
    let model = Model::new(
        "live-adapt",
        Shape::new(3, 32, 32),
        &[
            LayerOp::conv(8, 3, 1, 1),
            LayerOp::conv(8, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::conv(16, 3, 1, 1),
            LayerOp::fc(10),
        ],
    )
    .unwrap();

    // Two devices behind shaped links.  Device 1's trace steps down hard
    // mid-run: 200 Mbps for the first 1.5 s, 0.5 Mbps for the next minute.
    let mut cluster = Cluster::uniform(
        vec![
            DeviceSpec::new("edge-0", DeviceType::Xavier),
            DeviceSpec::new("edge-1", DeviceType::Xavier),
        ],
        LinkConfig::constant(200.0),
    );
    let interval_ms = 100.0;
    let healthy = DEGRADE_AT_MS / interval_ms as usize;
    let mut samples = vec![200.0; healthy];
    samples.extend(std::iter::repeat_n(0.5, 600));
    cluster.set_link(
        1,
        Link::new(BandwidthTrace::from_samples(samples, interval_ms), 0.1),
    );

    // Plan for the healthy conditions and deploy the adaptive session over
    // the trace-shaped transport (its clock starts at deploy).
    let mut cfg = DistrEdgeConfig::fast(2).with_episodes(30).with_seed(7);
    cfg.osds.ddpg.actor_hidden = [24, 16, 12];
    cfg.osds.ddpg.critic_hidden = [24, 16, 12, 12];
    println!("planning on the healthy cluster ...");
    let planning = DistrEdge::plan(&model, &cluster, &cfg).unwrap();
    let mut online = OnlineConfig::standard(2);
    online.distredge = cfg;
    online.finetune_episodes = 20;
    online.significant_change = 0.5;
    let plan = planning.strategy.to_plan(&model).unwrap();
    let weights = ModelWeights::deterministic(&model, 7);
    let mut shaped = ShapedTransport::new(ChannelTransport::new(cluster.len()), &cluster);
    let session = Deploy::new(&model, &plan, &weights)
        .over(&mut shaped)
        .start()
        .unwrap();
    let mut adaptive =
        AdaptiveSession::over(session, &model, &cluster, &planning, &online).unwrap();
    let deployed_at = Instant::now();

    let serve_wave = |adaptive: &AdaptiveSession, label: &str, base: u64, images: u64| -> f64 {
        let session = adaptive.session();
        let t0 = Instant::now();
        for i in 0..images {
            let img = deterministic_input(&model, base + i);
            let out = session.wait(session.submit(&img).unwrap()).unwrap();
            let reference = exec::run_full(&model, &weights, &img).unwrap();
            assert_eq!(
                &out,
                reference.last().unwrap(),
                "outputs must stay bit-exact"
            );
        }
        let ips = images as f64 / t0.elapsed().as_secs_f64();
        println!(
            "  [{label}] {images} images, {ips:7.1} IPS (epoch {})",
            session.epoch()
        );
        ips
    };

    println!("\nphase 1 — healthy links:");
    let healthy_ips = serve_wave(&adaptive, "healthy ", 100, 10);
    let tick = adaptive.adapt().unwrap(); // Calibrates the drift baseline.
    assert!(!tick.swapped());

    // Let device 1's link collapse, then serve through the degradation.
    let elapsed = deployed_at.elapsed();
    let degrade_at = Duration::from_millis(DEGRADE_AT_MS as u64 + 100);
    if elapsed < degrade_at {
        std::thread::sleep(degrade_at - elapsed);
    }
    println!("\nphase 2 — device 1's link collapsed to 0.5 Mbps:");
    let degraded_ips = serve_wave(&adaptive, "degraded", 200, 6);

    // The controller's monitor sees the new conditions; the measured-drift
    // decision re-plans and applies the strategy in place.
    adaptive.update_link_estimates(Cluster::new(
        cluster.devices().to_vec(),
        &[LinkConfig::constant(200.0), LinkConfig::constant(0.5)],
    ));
    let tick = adaptive.adapt().unwrap();
    match &tick.swap {
        Some(swap) => println!(
            "\nre-planned: drift {:.0}% -> hot swap to epoch {} \
             (drain gap {:.1} ms, {} delta bytes shipped, {} reused)",
            tick.decision.drift * 100.0,
            swap.epoch,
            swap.drain_ms,
            swap.total_delta_bytes(),
            swap.total_reused_bytes(),
        ),
        None => println!(
            "\nno swap (drift {:.0}% below threshold)",
            tick.decision.drift * 100.0
        ),
    }

    println!("\nphase 3 — same degraded links, swapped strategy:");
    let recovered_ips = serve_wave(&adaptive, "adapted ", 300, 10);

    println!(
        "\nIPS: healthy {healthy_ips:.1}  ->  degraded {degraded_ips:.1}  ->  adapted {recovered_ips:.1}"
    );
    if tick.swapped() && recovered_ips > degraded_ips {
        println!(
            "the in-place swap recovered {:.0}% of the lost throughput",
            100.0 * (recovered_ips - degraded_ips) / (healthy_ips - degraded_ips).max(1e-9)
        );
    }

    let report = adaptive.shutdown().unwrap();
    println!(
        "served {} images total across {} epoch(s), zero loss",
        report.images,
        report.epoch + 1
    );
}

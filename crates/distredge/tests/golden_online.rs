//! A golden §V-F run: what `run_dynamic_experiment` returns for one small
//! fixed configuration, recorded once and asserted ever since.
//!
//! The experiment is deterministic per seed — the dynamic traces, the
//! profiles, LC-PSS, the initial OSDS training and every fine-tune — so
//! each window's mean latency is a function of every bit before it.  Over
//! these six windows the bandwidth drifts enough for DistrEdge to fine-tune
//! its actor once, so the series below pin the fine-tune-then-guarded-
//! rollout step as well as the baselines' re-planning.  Latencies are
//! compared as bit patterns.
//!
//! To re-record after a change that is *meant* to alter the numerics,
//! print `latency_ms.to_bits()` of every point and `mean_latency_ms` of
//! every series for the configuration below.

use cnn_model::{LayerOp, Model};
use device_profile::{DeviceSpec, DeviceType};
use distredge::online::{dynamic_cluster, run_dynamic_experiment, OnlineConfig};
use distredge::DistrEdgeConfig;
use tensor::Shape;

/// One method's series: the window latencies and their mean, as bit
/// patterns.
struct Golden {
    method: &'static str,
    latency_ms: [u64; 6],
    mean_latency_ms: u64,
}

const GOLDEN: [Golden; 3] = [
    Golden {
        method: "CoEdge",
        latency_ms: [
            0x4030_488d_bcb1_b611,
            0x4030_4bc9_8862_e000,
            0x4030_3251_6681_4000,
            0x402c_f0c9_f748_0000,
            0x4030_b994_8de5_0000,
            0x402c_831a_afa6_0000,
        ],
        mean_latency_ms: 0x402f_68ba_8450_9cb0,
    },
    Golden {
        method: "AOFL",
        latency_ms: [
            0x4022_e588_5397_5397,
            0x4022_db8c_6dde_a000,
            0x4022_e01c_a939_c000,
            0x4023_c7e8_c9a1_8000,
            0x4024_4fcc_2eeb_0000,
            0x4024_039e_8980_0000,
        ],
        mean_latency_ms: 0x4023_74c0_d21f_5def,
    },
    Golden {
        method: "DistrEdge",
        latency_ms: [
            0x401e_e53a_bc26_868c,
            0x401e_b7fc_b3c7_0000,
            0x401e_cfdc_c505_0000,
            0x401e_d24c_167b_0000,
            0x401e_b539_9e0f_0000,
            0x401e_8e71_f70e_0000,
        ],
        mean_latency_ms: 0x401e_c081_fac1_c118,
    },
];

fn model() -> Model {
    Model::new(
        "t",
        Shape::new(3, 64, 64),
        &[
            LayerOp::conv(24, 3, 1, 1),
            LayerOp::conv(24, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::conv(48, 3, 1, 1),
            LayerOp::pool(2, 2),
        ],
    )
    .unwrap()
}

fn config() -> OnlineConfig {
    let mut distredge = DistrEdgeConfig::fast(4).with_episodes(15).with_seed(2);
    distredge.lcpss.num_random_splits = 8;
    distredge.osds.ddpg.actor_hidden = [24, 16, 12];
    distredge.osds.ddpg.critic_hidden = [24, 16, 12, 12];
    OnlineConfig {
        window_minutes: 2.0,
        duration_minutes: 12.0,
        images_per_window: 3,
        distredge,
        finetune_episodes: 5,
        significant_change: 0.2,
        aofl_lag_windows: 2,
        seed: 4,
    }
}

#[test]
fn dynamic_experiment_matches_the_recorded_series() {
    let devices: Vec<DeviceSpec> = (0..4)
        .map(|i| DeviceSpec::new(format!("nano-{i}"), DeviceType::Nano))
        .collect();
    let cluster = dynamic_cluster(&devices, 7);
    let results = run_dynamic_experiment(&model(), &cluster, &config()).unwrap();
    assert_eq!(results.len(), GOLDEN.len());
    for (result, golden) in results.iter().zip(&GOLDEN) {
        assert_eq!(result.method, golden.method);
        let minutes: Vec<f64> = result.points.iter().map(|p| p.minute).collect();
        assert_eq!(
            minutes,
            [0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
            "{}",
            golden.method
        );
        let bits: Vec<u64> = result
            .points
            .iter()
            .map(|p| p.latency_ms.to_bits())
            .collect();
        assert_eq!(bits, golden.latency_ms, "{}", golden.method);
        assert_eq!(
            result.mean_latency_ms.to_bits(),
            golden.mean_latency_ms,
            "{}",
            golden.method
        );
    }
}

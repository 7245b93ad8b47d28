//! A golden plan: what OSDS returns for two scenarios, recorded once and
//! asserted ever since.
//!
//! `osds_train` is deterministic per seed, and every plan is a function of
//! every bit of every update before it: one reordered sum in a dense
//! kernel, one extra or missing draw in replay sampling, and the learning
//! curve below diverges within a few episodes.  This is the in-crate proof
//! of what the benchmark's `quality` shows — speed was not bought with a
//! different search.  Latencies are compared as bit patterns.
//!
//! History: the values were first recorded before the DDPG update was
//! batched, and held through that change.  They were recorded again, once,
//! when `neuro`'s numerical contract moved to one fused multiply-add per
//! step of every dense product and to Adam's one-division form (the contract
//! in `neuro`'s crate docs) — a change *meant* to alter the numerics, so
//! that the dense products use the FMA instruction.  Over these 60 episodes the learning
//! curves, best splits and best latencies came out identical to the bit;
//! only the parameter hashes moved (all three for DB50; the final actor and
//! critic for LB, whose best plan is a scripted one, taken with the initial
//! actor).  They were recorded a third time, once, when the contract moved
//! from `f64` to `f32` (parameters, activations, gradients and Adam
//! moments, with a moment below `f32::MIN_POSITIVE` stored as `+0.0`), so
//! that each vector instruction carries twice the lanes.  Again the curves,
//! best splits and best latencies held to the bit and all six parameter
//! hashes moved.  The parameters are `f32` widened to `f64`, so the low
//! 29 bits of each hashed pattern are zero and the hashes' low bits repeat;
//! the high 35 bits carry the parameters.
//!
//! To re-record after a change that is *meant* to alter the numerics, print
//! the fields of `DistrEdge::plan(..).osds` for the two scenarios below.

use cnn_model::zoo;
use distredge::{DistrEdge, DistrEdgeConfig, Scenario};

/// The plan and learning curve of one scenario at
/// `DistrEdgeConfig::fast(n).with_episodes(60).with_seed(7)` on VGG-16.
struct Golden {
    best_splits: &'static [&'static [usize]],
    best_latency_ms: u64,
    episode_latencies_ms: [u64; 60],
    /// FNV-1a over the bit patterns of `best_actor_params`, and of the
    /// trained agent's actor and critic parameters.
    best_actor_params: u64,
    final_actor_params: u64,
    final_critic_params: u64,
}

fn fnv(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn assert_golden(scenario: Scenario, golden: &Golden) {
    let cluster = scenario.build(7);
    let config = DistrEdgeConfig::fast(cluster.len())
        .with_episodes(60)
        .with_seed(7);
    let osds = DistrEdge::plan(&zoo::vgg16(), &cluster, &config)
        .expect("planning succeeds")
        .osds;
    let curve: Vec<u64> = osds
        .episode_latencies_ms
        .iter()
        .map(|ms| ms.to_bits())
        .collect();
    let first_difference = curve
        .iter()
        .zip(&golden.episode_latencies_ms)
        .position(|(got, want)| got != want);
    assert_eq!(
        first_difference, None,
        "the learning curve leaves the recorded one at this episode"
    );
    assert_eq!(curve.len(), golden.episode_latencies_ms.len());
    let splits: Vec<&[usize]> = osds.best_splits.iter().map(|s| s.cuts()).collect();
    assert_eq!(splits, golden.best_splits);
    assert_eq!(osds.best_latency_ms.to_bits(), golden.best_latency_ms);
    assert_eq!(fnv(&osds.best_actor_params), golden.best_actor_params);
    assert_eq!(fnv(&osds.agent.actor_params()), golden.final_actor_params);
    assert_eq!(fnv(&osds.agent.critic_params()), golden.final_critic_params);
}

const DB50: Golden = Golden {
    best_splits: &[&[0, 22, 23], &[0, 14, 14], &[0, 7, 7]],
    best_latency_ms: 0x4054_57fa_aedb_491e,
    episode_latencies_ms: [
        0x4064_6f12_76d5_e7f3,
        0x4064_67c0_54d1_10c3,
        0x4063_620b_1956_a7b9,
        0x4064_1304_22a8_d5dd,
        0x406a_2dc8_c372_4f10,
        0x4061_9672_da0a_3709,
        0x4060_fefd_a0fc_0bb8,
        0x4068_ad88_3dbe_9729,
        0x4062_b4cf_5512_85db,
        0x405f_1d55_b8ea_0ab0,
        0x406a_820d_f727_f3a7,
        0x4067_01f0_821b_7e70,
        0x4065_d7e7_5893_2f75,
        0x406a_e5d3_2607_1251,
        0x4065_233b_e302_e23d,
        0x405c_d0cd_ed5c_f01b,
        0x4063_866b_ae05_19ac,
        0x4064_c787_b589_01e2,
        0x4062_79f7_9fea_4cc9,
        0x4059_d17d_3b2d_a1ff,
        0x4064_6849_08ad_b211,
        0x405a_6de3_ebd8_6f61,
        0x4066_ac32_d0b1_a7ab,
        0x405d_eeaa_c9bb_bf28,
        0x405b_4533_a72a_cfb0,
        0x4061_955c_846e_130f,
        0x4058_5f62_f713_0087,
        0x4063_5082_a911_3dc3,
        0x405e_8375_79c1_3ed1,
        0x405f_5876_10af_7b61,
        0x405f_e353_69d4_2a88,
        0x4059_1456_3eb7_5cca,
        0x405e_3e5b_c77a_adae,
        0x405f_6b74_70da_781b,
        0x4061_8d11_8d0d_a219,
        0x405d_3879_87d3_8a84,
        0x4060_4c1e_412b_458b,
        0x4054_57fa_aedb_491e,
        0x405b_4ed7_decc_9465,
        0x4061_6ee8_938c_5fc8,
        0x405e_847d_1655_94c6,
        0x4056_966b_d0d0_dd42,
        0x405d_db7a_9489_838a,
        0x4056_35b8_4857_f466,
        0x4056_966b_d0d0_dd42,
        0x4056_966b_d0d0_dd42,
        0x405e_b5e2_2634_9576,
        0x4056_966b_d0d0_dd42,
        0x405d_3549_855c_2797,
        0x4056_966b_d0d0_dd42,
        0x405d_358c_e51a_75c3,
        0x4063_d770_8d3e_abbc,
        0x4056_966b_d0d0_dd42,
        0x4065_307c_a49d_a223,
        0x4056_966b_d0d0_dd42,
        0x405b_e681_8a2f_f98f,
        0x4056_966b_d0d0_dd42,
        0x4056_966b_d0d0_dd42,
        0x4056_966b_d0d0_dd42,
        0x4056_966b_d0d0_dd42,
    ],
    best_actor_params: 0x2c6e_4cb9_09ca_95f7,
    final_actor_params: 0x3a54_b599_49ca_95f7,
    final_critic_params: 0x3e7f_8f66_789d_719f,
};

#[test]
fn four_devices_db50_plan_is_the_recorded_one() {
    assert_golden(Scenario::group_db(50.0), &DB50);
}

const LB: Golden = Golden {
    best_splits: &[
        &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ],
    best_latency_ms: 0x4055_ce7c_5d0b_89d6,
    episode_latencies_ms: [
        0x408b_dc4c_c3f5_5b2a,
        0x4084_07fc_97ee_4a70,
        0x4086_4446_805b_ea51,
        0x4076_6c8c_8c83_406e,
        0x408c_a51d_9882_8412,
        0x4079_cce6_daa7_55e3,
        0x408c_4c8b_7e8a_c7c3,
        0x408b_9729_5c4c_732e,
        0x4090_062e_985b_f10f,
        0x4089_9741_4d56_6f47,
        0x4078_bc5b_d256_1d89,
        0x4091_fe10_ec08_cc9b,
        0x408d_8588_45d8_52ef,
        0x4083_e1c8_2ad1_c573,
        0x408f_98f9_8fcb_bdf4,
        0x4091_95a9_8f36_1f04,
        0x4090_1bd3_3dbf_5910,
        0x4093_df26_6f1e_1aff,
        0x407c_cc7e_c969_c29d,
        0x408b_62bb_ec7c_81ff,
        0x408a_e812_b7ad_4ed7,
        0x4082_7af9_b457_e2c3,
        0x4091_4dd8_c7c4_45fd,
        0x407f_9baf_e0b5_ab42,
        0x408b_d25f_7a0c_3b35,
        0x4085_2799_8c53_0632,
        0x4080_fe54_5561_b85a,
        0x408e_888e_cfa3_7d62,
        0x4084_6c80_cfc1_e1ba,
        0x4079_fe0c_4bdf_0ed2,
        0x4079_ebb4_67d0_ea3c,
        0x4061_e9f5_0275_876b,
        0x4090_253f_22c5_0be3,
        0x4084_5a51_4da8_3ed0,
        0x4080_22dd_5b86_0f6c,
        0x4079_b2e1_66f1_d791,
        0x4080_edd9_771b_45a7,
        0x408b_7b40_e5ab_f60c,
        0x4082_7e0b_24ed_4609,
        0x4055_d4e6_803d_dce5,
        0x406e_fe64_8280_d570,
        0x408d_43bd_6891_e60c,
        0x4084_7888_0f55_000f,
        0x4077_45d3_a336_7299,
        0x4081_3faf_5c7d_a6ca,
        0x407c_a951_103a_e069,
        0x4078_a42b_6b55_d3d9,
        0x4083_9b60_495c_1d7a,
        0x406c_c419_8e06_a98f,
        0x4080_875b_d25a_567d,
        0x4074_9432_31c3_bd98,
        0x407d_9762_5481_ce68,
        0x407c_7f66_9b5a_70a4,
        0x4085_3474_e9c7_58d8,
        0x4055_d4e6_803d_dce5,
        0x4072_df9b_4a62_e0df,
        0x4059_2b01_5e3b_fb0f,
        0x4074_ebec_e35b_47f9,
        0x405c_d845_547e_d577,
        0x4062_c267_23e1_c3b9,
    ],
    best_actor_params: 0x91cd_e93f_64a3_35c7,
    final_actor_params: 0x9826_9c57_a4a3_35c7,
    final_critic_params: 0x8067_ff5a_41be_599f,
};

#[test]
fn sixteen_devices_lb_plan_is_the_recorded_one() {
    assert_golden(Scenario::group_lb(), &LB);
}

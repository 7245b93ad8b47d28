//! Integration checks over the full scenario catalogue (Tables I–III) and
//! the model zoo: every scenario builds a consistent cluster, profiles
//! collect, and the analytic baselines produce valid plans for VGG-16.

use device_profile::{DeviceType, ProfilingOptions};
use distredge::profiles::ClusterProfiles;
use distredge::{Method, Scenario};

fn all_scenarios() -> Vec<Scenario> {
    let mut v = Vec::new();
    v.extend(Scenario::table1(50.0));
    v.extend(Scenario::table1(300.0));
    v.extend(Scenario::table2(DeviceType::Nano));
    v.extend(Scenario::table2(DeviceType::Xavier));
    v.extend(Scenario::table3());
    v.push(Scenario::homogeneous(DeviceType::Nano, 200.0));
    v
}

#[test]
fn every_scenario_builds_a_consistent_cluster() {
    for s in all_scenarios() {
        let cluster = s.build(3);
        assert_eq!(cluster.len(), s.len(), "{}", s.name);
        assert_eq!(cluster.mean_bandwidths().len(), s.len());
        for (mean, cap) in cluster.mean_bandwidths().iter().zip(&s.bandwidths_mbps) {
            assert!(
                mean <= cap && *mean > 0.0,
                "{}: mean {} cap {}",
                s.name,
                mean,
                cap
            );
        }
    }
}

#[test]
fn profiles_collect_for_every_table1_group() {
    let model = cnn_model::zoo::vgg16();
    let cfg = ProfilingOptions::default();
    for s in Scenario::table1(100.0) {
        let cluster = s.build_constant();
        let profiles = ClusterProfiles::collect(&model, &cluster, &cfg);
        assert_eq!(profiles.len(), 4);
        // Capabilities must respect the device ordering within the group.
        let caps = profiles.capabilities();
        for (i, d) in cluster.devices().iter().enumerate() {
            if d.device_type == DeviceType::Pi3 {
                assert!(caps[i] < caps.iter().cloned().fold(f64::MIN, f64::max) / 5.0);
            }
        }
    }
}

#[test]
fn baselines_plan_vgg16_on_representative_scenarios() {
    let model = cnn_model::zoo::vgg16();
    let cfg = ProfilingOptions::default();
    let scenarios = [
        Scenario::group_db(50.0),
        Scenario::group_nd(DeviceType::Xavier),
        Scenario::group_lb(),
    ];
    for s in scenarios {
        let cluster = s.build_constant();
        let profiles = ClusterProfiles::collect(&model, &cluster, &cfg);
        let bw = cluster.mean_bandwidths();
        for method in Method::BASELINES {
            let strategy = method.plan_baseline(&model, &profiles, &bw).unwrap();
            let plan = strategy.to_plan(&model).unwrap();
            plan.validate(&model)
                .unwrap_or_else(|e| panic!("{} on {}: invalid plan: {e}", method.name(), s.name));
        }
    }
}

#[test]
fn large_scale_groups_have_the_published_mix() {
    let lb = Scenario::group_lb();
    // Four of each device type.
    for t in DeviceType::ALL {
        assert_eq!(lb.device_types.iter().filter(|d| **d == t).count(), 4);
    }
    let la = Scenario::group_la();
    assert!(la.device_types.iter().all(|d| *d == DeviceType::Nano));
    // Bandwidth mix covers 50..300.
    for bw in [50.0, 100.0, 200.0, 300.0] {
        assert_eq!(
            la.bandwidths_mbps
                .iter()
                .filter(|b| (**b - bw).abs() < 1e-9)
                .count(),
            4
        );
    }
}

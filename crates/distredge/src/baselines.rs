//! The seven baseline distribution methods of §V-B.
//!
//! | Method        | Partition                    | Split rule                          |
//! |---------------|------------------------------|-------------------------------------|
//! | CoEdge        | layer-by-layer               | linear device + network model       |
//! | MoDNN         | layer-by-layer               | linear device model (capability)    |
//! | MeDNN         | layer-by-layer               | per-layer linear device model       |
//! | DeepThings    | one fused layer-volume       | equal split                         |
//! | DeeperThings  | multiple fused layer-volumes | equal split                         |
//! | AOFL          | multiple fused layer-volumes | linear device + network model       |
//! | Offload       | no split                     | everything on the best device       |
//!
//! All of them observe only what a real deployment would observe: the
//! profiled per-layer latencies (reduced to linear capabilities where the
//! original method assumes linearity) and the monitored mean bandwidth of
//! each link.  None of them see the ground-truth non-linear latency curves —
//! that is exactly the modelling gap DistrEdge exploits (§V-G).

use crate::profiles::ClusterProfiles;
use crate::strategy::DistributionStrategy;
use crate::Result;
use cnn_model::{Layer, Model, PartitionScheme, VolumeSplit};
use netsim::mbps_to_bytes_per_ms;
use serde::{Deserialize, Serialize};

/// The distribution methods compared in the evaluation (baselines plus
/// DistrEdge itself, which is planned by [`crate::api::DistrEdge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// CoEdge: layer-by-layer, linear device and network models.
    CoEdge,
    /// MoDNN: layer-by-layer, linear device model.
    MoDnn,
    /// MeDNN: layer-by-layer, per-layer linear device model.
    MeDnn,
    /// DeepThings: one fused layer-volume, equal split.
    DeepThings,
    /// DeeperThings: multiple fused layer-volumes, equal split.
    DeeperThings,
    /// AOFL: multiple fused layer-volumes, linear device and network models.
    Aofl,
    /// Offload the whole model to the single best device.
    Offload,
    /// DistrEdge (LC-PSS + OSDS).
    DistrEdge,
}

impl Method {
    /// The seven baseline methods, in the order the paper's figures list them.
    pub const BASELINES: [Method; 7] = [
        Method::CoEdge,
        Method::MoDnn,
        Method::MeDnn,
        Method::DeepThings,
        Method::DeeperThings,
        Method::Aofl,
        Method::Offload,
    ];

    /// Every method including DistrEdge.
    pub const ALL: [Method; 8] = [
        Method::CoEdge,
        Method::MoDnn,
        Method::MeDnn,
        Method::DeepThings,
        Method::DeeperThings,
        Method::Aofl,
        Method::DistrEdge,
        Method::Offload,
    ];

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Method::CoEdge => "CoEdge",
            Method::MoDnn => "MoDNN",
            Method::MeDnn => "MeDNN",
            Method::DeepThings => "DeepThings",
            Method::DeeperThings => "DeeperThings",
            Method::Aofl => "AOFL",
            Method::Offload => "Offload",
            Method::DistrEdge => "DistrEdge",
        }
    }

    /// Plans a distribution strategy with this baseline.
    ///
    /// Panics (by design) if called on [`Method::DistrEdge`]: DistrEdge needs
    /// DRL training and is planned through [`crate::api::DistrEdge`].
    pub fn plan_baseline(
        &self,
        model: &Model,
        profiles: &ClusterProfiles,
        bandwidths_mbps: &[f64],
    ) -> Result<DistributionStrategy> {
        assert_eq!(
            profiles.len(),
            bandwidths_mbps.len(),
            "profiles/bandwidths mismatch"
        );
        match self {
            Method::CoEdge => coedge(model, profiles, bandwidths_mbps),
            Method::MoDnn => modnn(model, profiles),
            Method::MeDnn => mednn(model, profiles),
            Method::DeepThings => deepthings(model, profiles.len()),
            Method::DeeperThings => deeperthings(model, profiles.len()),
            Method::Aofl => aofl(model, profiles, bandwidths_mbps),
            Method::Offload => offload(model, profiles),
            Method::DistrEdge => panic!("DistrEdge is planned via distredge::api::DistrEdge"),
        }
    }
}

/// Boundaries after every down-sampling (pooling or strided-conv) layer —
/// the natural fusion points that DeeperThings/AOFL-style methods use, since
/// feature maps are smallest right after down-sampling.
fn downsample_boundaries(model: &Model) -> Vec<usize> {
    let n = model.distributable_len();
    let mut boundaries = vec![0usize, n];
    for (i, layer) in model.layers()[..n].iter().enumerate() {
        if layer.stride() > 1 && i + 1 < n {
            boundaries.push(i + 1);
        }
    }
    boundaries
}

/// Per-output-row operation count of one layer.
fn ops_per_row(layer: &Layer) -> f64 {
    layer.ops() / layer.output.h.max(1) as f64
}

/// Per-input-row byte count of one layer (what has to be shipped to a device
/// per row it is asked to produce, ignoring halo).
fn input_bytes_per_row(layer: &Layer) -> f64 {
    layer.input_bytes_for_rows(layer.input.h) / layer.input.h.max(1) as f64
}

fn make(
    name: &str,
    model: &Model,
    scheme: PartitionScheme,
    splits: Vec<VolumeSplit>,
    n: usize,
) -> Result<DistributionStrategy> {
    let _ = model;
    DistributionStrategy::new(name, scheme, splits, n)
}

/// Offload: the whole model on the device with the highest profiled
/// capability.
fn offload(model: &Model, profiles: &ClusterProfiles) -> Result<DistributionStrategy> {
    let n = profiles.len();
    let best = profiles
        .capabilities()
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite capabilities"))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let scheme = PartitionScheme::single_volume(model);
    let h = model.prefix_output().h;
    let cuts = (0..n - 1).map(|i| if i < best { 0 } else { h }).collect();
    let split = VolumeSplit::new(cuts, h);
    make("Offload", model, scheme, vec![split], n)
}

/// DeepThings: a single fused layer-volume split equally.
fn deepthings(model: &Model, n: usize) -> Result<DistributionStrategy> {
    let scheme = PartitionScheme::single_volume(model);
    let split = VolumeSplit::equal(n, model.prefix_output().h);
    make("DeepThings", model, scheme, vec![split], n)
}

/// DeeperThings: fused layer-volumes bounded at down-sampling layers, each
/// split equally.
fn deeperthings(model: &Model, n: usize) -> Result<DistributionStrategy> {
    let scheme = PartitionScheme::new(model, downsample_boundaries(model))?;
    let splits = scheme
        .volumes()
        .iter()
        .map(|v| VolumeSplit::equal(n, v.last_output_height(model)))
        .collect();
    make("DeeperThings", model, scheme, splits, n)
}

/// MoDNN: layer-by-layer, each layer split proportionally to the devices'
/// computing capability.  MoDNN measures that capability coarsely — here it
/// is derived from the profiled latency of the single heaviest layer, the
/// kind of one-shot micro-benchmark the original system uses.
fn modnn(model: &Model, profiles: &ClusterProfiles) -> Result<DistributionStrategy> {
    let scheme = PartitionScheme::layer_by_layer(model);
    let n = profiles.len();
    let heaviest = model.layers()[..model.distributable_len()]
        .iter()
        .max_by(|a, b| a.ops().partial_cmp(&b.ops()).expect("finite ops"))
        .expect("at least one distributable layer");
    let caps: Vec<f64> = (0..n)
        .map(|d| {
            let lat = profiles
                .full_layer_latency(d, heaviest.index, heaviest.output.h)
                .max(1e-6);
            heaviest.ops() / lat
        })
        .collect();
    let splits = scheme
        .volumes()
        .iter()
        .map(|v| VolumeSplit::proportional(&caps, v.last_output_height(model)))
        .collect();
    make("MoDNN", model, scheme, splits, n)
}

/// MeDNN: layer-by-layer like MoDNN, but its "enhanced partition" derives
/// the capability from the whole profiled latency table (ops-weighted over
/// every layer) instead of a single micro-benchmark, giving a slightly more
/// faithful — still linear — device summary.
fn mednn(model: &Model, profiles: &ClusterProfiles) -> Result<DistributionStrategy> {
    let scheme = PartitionScheme::layer_by_layer(model);
    let caps = profiles.capabilities().to_vec();
    let splits = scheme
        .volumes()
        .iter()
        .map(|v| VolumeSplit::proportional(&caps, v.last_output_height(model)))
        .collect();
    make("MeDNN", model, scheme, splits, profiles.len())
}

/// CoEdge: layer-by-layer, each layer split so that the *linear* estimate of
/// compute plus transmission latency is equalised across devices.
fn coedge(
    model: &Model,
    profiles: &ClusterProfiles,
    bandwidths_mbps: &[f64],
) -> Result<DistributionStrategy> {
    let scheme = PartitionScheme::layer_by_layer(model);
    let n = profiles.len();
    let caps = profiles.capabilities();
    let mut splits = Vec::with_capacity(scheme.num_volumes());
    for v in scheme.volumes() {
        let layer = &model.layers()[v.start];
        let h = layer.output.h;
        let weights: Vec<f64> = (0..n)
            .map(|d| {
                // Per-row cost: compute (ops / capability) + transmission
                // (input bytes / link rate).  Rows are allocated inversely to
                // this cost, which equalises the estimated per-device latency.
                let compute = ops_per_row(layer) / caps[d].max(1e-6);
                let transmit =
                    input_bytes_per_row(layer) / mbps_to_bytes_per_ms(bandwidths_mbps[d]).max(1e-6);
                1.0 / (compute + transmit).max(1e-9)
            })
            .collect();
        splits.push(VolumeSplit::proportional(&weights, h));
    }
    make("CoEdge", model, scheme, splits, n)
}

/// AOFL: fused layer-volumes bounded at down-sampling layers, each split by
/// the same linear compute + network ratio CoEdge uses (but per volume).
fn aofl(
    model: &Model,
    profiles: &ClusterProfiles,
    bandwidths_mbps: &[f64],
) -> Result<DistributionStrategy> {
    let scheme = PartitionScheme::new(model, downsample_boundaries(model))?;
    let n = profiles.len();
    let caps = profiles.capabilities();
    let mut splits = Vec::with_capacity(scheme.num_volumes());
    for v in scheme.volumes() {
        let h = v.last_output_height(model);
        // Linearised per-last-layer-row cost of the whole volume.
        let vol_ops_per_row: f64 =
            v.layers(model).iter().map(|l| l.ops()).sum::<f64>() / h.max(1) as f64;
        let first = &model.layers()[v.start];
        let in_bytes_per_row = first.input_bytes_for_rows(first.input.h) / h.max(1) as f64;
        let weights: Vec<f64> = (0..n)
            .map(|d| {
                let compute = vol_ops_per_row / caps[d].max(1e-6);
                let transmit =
                    in_bytes_per_row / mbps_to_bytes_per_ms(bandwidths_mbps[d]).max(1e-6);
                1.0 / (compute + transmit).max(1e-9)
            })
            .collect();
        splits.push(VolumeSplit::proportional(&weights, h));
    }
    make("AOFL", model, scheme, splits, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::ClusterProfiles;
    use cnn_model::LayerOp;
    use device_profile::{DeviceSpec, DeviceType, ProfilingOptions};
    use edgesim::Cluster;
    use netsim::LinkConfig;
    use tensor::Shape;

    fn model() -> Model {
        Model::new(
            "t",
            Shape::new(3, 64, 64),
            &[
                LayerOp::conv(16, 3, 1, 1),
                LayerOp::conv(16, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::conv(32, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::conv(64, 3, 1, 1),
                LayerOp::fc(10),
            ],
        )
        .unwrap()
    }

    fn setup() -> (Model, Cluster, ClusterProfiles, Vec<f64>) {
        let m = model();
        let c = Cluster::new(
            vec![
                DeviceSpec::new("xavier", DeviceType::Xavier),
                DeviceSpec::new("nano", DeviceType::Nano),
                DeviceSpec::new("pi3", DeviceType::Pi3),
            ],
            &[
                LinkConfig::constant(300.0),
                LinkConfig::constant(100.0),
                LinkConfig::constant(50.0),
            ],
        );
        let p = ClusterProfiles::collect(&m, &c, &ProfilingOptions::default());
        let bw = c.mean_bandwidths();
        (m, c, p, bw)
    }

    #[test]
    fn every_baseline_produces_a_valid_plan() {
        let (m, _c, p, bw) = setup();
        for method in Method::BASELINES {
            let strategy = method.plan_baseline(&m, &p, &bw).unwrap();
            assert_eq!(strategy.method, method.name());
            let plan = strategy.to_plan(&m).unwrap();
            plan.validate(&m).unwrap();
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Method::ALL.iter().map(Method::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Method::ALL.len());
    }

    #[test]
    #[should_panic(expected = "planned via")]
    fn distredge_is_not_a_baseline() {
        let (m, _c, p, bw) = setup();
        let _ = Method::DistrEdge.plan_baseline(&m, &p, &bw);
    }

    #[test]
    fn offload_picks_the_fastest_device() {
        let (m, _c, p, bw) = setup();
        let s = Method::Offload.plan_baseline(&m, &p, &bw).unwrap();
        let shares = s.row_shares(&m);
        assert!(shares[0] > 0.999, "Xavier takes everything: {shares:?}");
        assert_eq!(s.num_volumes(), 1);
    }

    #[test]
    fn deepthings_is_single_volume_equal_split() {
        let (m, _c, p, bw) = setup();
        let s = Method::DeepThings.plan_baseline(&m, &p, &bw).unwrap();
        assert_eq!(s.num_volumes(), 1);
        let shares = s.row_shares(&m);
        for sh in &shares {
            assert!((sh - 1.0 / 3.0).abs() < 0.1, "{shares:?}");
        }
    }

    #[test]
    fn deeperthings_fuses_at_downsampling_layers() {
        let (m, _c, p, bw) = setup();
        let s = Method::DeeperThings.plan_baseline(&m, &p, &bw).unwrap();
        // Two pools inside the prefix -> three volumes.
        assert_eq!(s.num_volumes(), 3);
    }

    #[test]
    fn layer_by_layer_methods_have_one_volume_per_layer() {
        let (m, _c, p, bw) = setup();
        for method in [Method::CoEdge, Method::MoDnn, Method::MeDnn] {
            let s = method.plan_baseline(&m, &p, &bw).unwrap();
            assert_eq!(s.num_volumes(), m.distributable_len(), "{}", method.name());
        }
    }

    #[test]
    fn capability_aware_methods_favour_the_fast_device() {
        let (m, _c, p, bw) = setup();
        for method in [Method::CoEdge, Method::MoDnn, Method::MeDnn, Method::Aofl] {
            let s = method.plan_baseline(&m, &p, &bw).unwrap();
            let shares = s.row_shares(&m);
            assert!(
                shares[0] > shares[2],
                "{}: Xavier share {} should exceed Pi3 share {}",
                method.name(),
                shares[0],
                shares[2]
            );
        }
    }

    #[test]
    fn coedge_accounts_for_bandwidth_but_modnn_does_not() {
        // Two identical Nanos, one behind a 300 Mbps link and one behind a
        // 50 Mbps link: CoEdge folds the network rate into its ratio and
        // favours the well-connected device; MoDNN only looks at computing
        // capability and splits (almost) evenly.
        let m = model();
        let c = Cluster::new(
            vec![
                DeviceSpec::new("nano-fast-link", DeviceType::Nano),
                DeviceSpec::new("nano-slow-link", DeviceType::Nano),
            ],
            &[LinkConfig::constant(300.0), LinkConfig::constant(50.0)],
        );
        let p = ClusterProfiles::collect(&m, &c, &ProfilingOptions::default());
        let bw = c.mean_bandwidths();
        let coedge = Method::CoEdge
            .plan_baseline(&m, &p, &bw)
            .unwrap()
            .row_shares(&m);
        let modnn = Method::MoDnn
            .plan_baseline(&m, &p, &bw)
            .unwrap()
            .row_shares(&m);
        assert!(coedge[0] > coedge[1] + 0.05, "coedge {coedge:?}");
        assert!((modnn[0] - modnn[1]).abs() < 0.1, "modnn {modnn:?}");
    }

    #[test]
    fn aofl_uses_fewer_volumes_than_coedge() {
        let (m, _c, p, bw) = setup();
        let aofl = Method::Aofl.plan_baseline(&m, &p, &bw).unwrap();
        let coedge = Method::CoEdge.plan_baseline(&m, &p, &bw).unwrap();
        assert!(aofl.num_volumes() < coedge.num_volumes());
    }
}

//! Clusters: service providers plus the links that connect them.

use cnn_model::{Model, PartPlan};
use device_profile::{ComputeModel, DeviceSpec, GroundTruthModel};
use netsim::{Link, LinkConfig};
use serde::{Deserialize, Serialize};

/// One end of a transfer: the service requester (the phone streaming images)
/// or one of the service providers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Endpoint {
    /// The service requester.
    Requester,
    /// Service provider `i`.
    Device(usize),
}

/// A cluster of service providers behind one wireless router.
///
/// Each provider has its own (shaped) WiFi link to the router, matching the
/// paper's testbed where the OpenWrt router caps the bandwidth per device.
/// A transfer between two providers traverses both links; its wire time is
/// bounded by the slower of the two.  Transfers to/from the requester only
/// traverse the provider's link (the requester's own link is not the
/// bottleneck in the paper's setup).
#[derive(Debug, Clone)]
pub struct Cluster {
    devices: Vec<DeviceSpec>,
    links: Vec<Link>,
}

impl Cluster {
    /// Builds a cluster from device specs and one link configuration per
    /// device.
    pub fn new(devices: Vec<DeviceSpec>, link_configs: &[LinkConfig]) -> Self {
        assert_eq!(
            devices.len(),
            link_configs.len(),
            "one link configuration required per device"
        );
        assert!(!devices.is_empty(), "a cluster needs at least one device");
        let links = link_configs.iter().map(LinkConfig::build).collect();
        Self { devices, links }
    }

    /// Builds a cluster where every device shares the same link configuration.
    pub fn uniform(devices: Vec<DeviceSpec>, link: LinkConfig) -> Self {
        let configs = vec![link; devices.len()];
        Self::new(devices, &configs)
    }

    /// The service providers.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// Number of service providers.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the cluster is empty (never true for a constructed cluster).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The link of device `i`.
    pub fn link(&self, i: usize) -> &Link {
        &self.links[i]
    }

    /// Replaces the link of device `i` (used by the dynamic-network
    /// experiments to splice in new traces).
    pub fn set_link(&mut self, i: usize, link: Link) {
        self.links[i] = link;
    }

    /// Transfer latency of `bytes` from `from` to `to`, starting at
    /// `at_ms`.  Same-endpoint transfers are free (data already local).
    pub fn transfer_ms(&self, from: Endpoint, to: Endpoint, bytes: f64, at_ms: f64) -> f64 {
        if bytes <= 0.0 || from == to {
            return 0.0;
        }
        match (from, to) {
            (Endpoint::Requester, Endpoint::Device(d))
            | (Endpoint::Device(d), Endpoint::Requester) => {
                self.links[d].transfer_latency_ms(bytes, at_ms)
            }
            (Endpoint::Device(a), Endpoint::Device(b)) => {
                let la = self.links[a].transfer_latency_ms(bytes, at_ms);
                let lb = self.links[b].transfer_latency_ms(bytes, at_ms);
                la.max(lb)
            }
            (Endpoint::Requester, Endpoint::Requester) => 0.0,
        }
    }

    /// The ground-truth compute backend for this cluster: each device's
    /// ground-truth model, in device order.
    pub fn ground_truth_compute(&self) -> Vec<GroundTruthModel> {
        self.devices.iter().map(DeviceSpec::ground_truth).collect()
    }

    /// Mean link bandwidth of each device (Mbps), as a monitoring tool would
    /// report it.
    pub fn mean_bandwidths(&self) -> Vec<f64> {
        self.links.iter().map(Link::mean_mbps).collect()
    }
}

/// Per-device computation cost of a split-part.
///
/// The simulator uses the ground truth; the OSDS training environment swaps
/// in profiled predictions or the runtime's measured kernel times.
pub trait PartCompute {
    /// Computing latency (ms) of `part` on device `device`.
    fn part_compute_ms(&self, device: usize, model: &Model, part: &PartPlan) -> f64;

    /// Computing latency (ms) of the model's FC head on device `device`.
    fn head_compute_ms(&self, device: usize, model: &Model) -> f64;
}

/// One [`ComputeModel`] per device — ground-truth models or profilers: a
/// part costs the sum of its layers' latencies, the head the sum of its
/// full-layer latencies.
impl<M: ComputeModel> PartCompute for Vec<M> {
    fn part_compute_ms(&self, device: usize, model: &Model, part: &PartPlan) -> f64 {
        let m = &self[device];
        part.layers
            .iter()
            .map(|lr| m.layer_latency_ms(&model.layers()[lr.layer], lr.out_count()))
            .sum()
    }

    fn head_compute_ms(&self, device: usize, model: &Model) -> f64 {
        let m = &self[device];
        model
            .head_layers()
            .iter()
            .map(|l| m.full_layer_latency_ms(l))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_model::{LayerOp, LayerVolume};
    use device_profile::DeviceType;
    use tensor::Shape;

    fn devices() -> Vec<DeviceSpec> {
        vec![
            DeviceSpec::new("xavier-0", DeviceType::Xavier),
            DeviceSpec::new("nano-0", DeviceType::Nano),
        ]
    }

    #[test]
    fn uniform_cluster_builds() {
        let c = Cluster::uniform(devices(), LinkConfig::constant(100.0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.mean_bandwidths().len(), 2);
    }

    #[test]
    #[should_panic(expected = "one link configuration required")]
    fn mismatched_links_panic() {
        let _ = Cluster::new(devices(), &[LinkConfig::constant(100.0)]);
    }

    #[test]
    fn same_endpoint_transfer_is_free() {
        let c = Cluster::uniform(devices(), LinkConfig::constant(100.0));
        assert_eq!(
            c.transfer_ms(Endpoint::Device(0), Endpoint::Device(0), 1e6, 0.0),
            0.0
        );
        assert_eq!(
            c.transfer_ms(Endpoint::Requester, Endpoint::Requester, 1e6, 0.0),
            0.0
        );
        assert_eq!(
            c.transfer_ms(Endpoint::Device(0), Endpoint::Device(1), 0.0, 0.0),
            0.0
        );
    }

    #[test]
    fn device_to_device_bounded_by_slower_link() {
        let c = Cluster::new(
            devices(),
            &[LinkConfig::constant(300.0), LinkConfig::constant(50.0)],
        );
        let fast_only = c.transfer_ms(Endpoint::Requester, Endpoint::Device(0), 1e6, 0.0);
        let slow_only = c.transfer_ms(Endpoint::Requester, Endpoint::Device(1), 1e6, 0.0);
        let between = c.transfer_ms(Endpoint::Device(0), Endpoint::Device(1), 1e6, 0.0);
        assert!(slow_only > fast_only);
        assert!((between - slow_only).abs() < 1e-9);
    }

    #[test]
    fn ground_truth_compute_sums_layers() {
        let m = cnn_model::Model::new(
            "t",
            Shape::new(3, 32, 32),
            &[LayerOp::conv(8, 3, 1, 1), LayerOp::pool(2, 2)],
        )
        .unwrap();
        let c = Cluster::uniform(devices(), LinkConfig::constant(100.0));
        let compute = c.ground_truth_compute();
        let v = LayerVolume::new(0, 2);
        let part = PartPlan::plan(&m, v, 0, 16).unwrap();
        let ms = compute.part_compute_ms(0, &m, &part);
        let gt = DeviceType::Xavier.ground_truth();
        let expected: f64 = part
            .layers
            .iter()
            .map(|lr| {
                device_profile::ComputeModel::layer_latency_ms(
                    &gt,
                    &m.layers()[lr.layer],
                    lr.out_count(),
                )
            })
            .sum();
        assert!((ms - expected).abs() < 1e-9);
        // The slower device takes longer for the same part.
        assert!(compute.part_compute_ms(1, &m, &part) > ms);
    }

    #[test]
    fn set_link_swaps_trace() {
        let mut c = Cluster::uniform(devices(), LinkConfig::constant(100.0));
        let before = c.transfer_ms(Endpoint::Requester, Endpoint::Device(0), 1e6, 0.0);
        c.set_link(0, LinkConfig::constant(10.0).build());
        let after = c.transfer_ms(Endpoint::Requester, Endpoint::Device(0), 1e6, 0.0);
        assert!(after > before * 5.0);
    }
}

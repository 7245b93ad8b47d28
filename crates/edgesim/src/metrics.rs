//! Measurement reports produced by the simulator.

use serde::{Deserialize, Serialize};

/// The measurements the paper reports for one distribution strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// End-to-end latency of every streamed image, in ms, in order.
    pub per_image_latency_ms: Vec<f64>,
    /// Images per second over the whole stream (the IPS metric).
    pub ips: f64,
    /// Mean per-image latency in ms.
    pub mean_latency_ms: f64,
    /// Mean computing latency per image, per device.
    pub per_device_compute_ms: Vec<f64>,
    /// Mean transmission latency per image, per device.
    pub per_device_transmission_ms: Vec<f64>,
}

impl SimReport {
    /// Builds a report from raw per-image and per-device accumulators.
    pub fn from_raw(
        per_image_latency_ms: Vec<f64>,
        per_device_compute_totals: Vec<f64>,
        per_device_transmission_totals: Vec<f64>,
    ) -> Self {
        let images = per_image_latency_ms.len().max(1) as f64;
        let total_ms: f64 = per_image_latency_ms.iter().sum();
        let mean_latency_ms = total_ms / images;
        let ips = if total_ms > 0.0 {
            images / (total_ms / 1e3)
        } else {
            0.0
        };
        Self {
            per_image_latency_ms,
            ips,
            mean_latency_ms,
            per_device_compute_ms: per_device_compute_totals
                .iter()
                .map(|v| v / images)
                .collect(),
            per_device_transmission_ms: per_device_transmission_totals
                .iter()
                .map(|v| v / images)
                .collect(),
        }
    }

    /// The maximum per-device computing latency (the light bars of Fig. 15).
    pub fn max_compute_ms(&self) -> f64 {
        self.per_device_compute_ms
            .iter()
            .cloned()
            .fold(0.0, f64::max)
    }

    /// The maximum per-device transmission latency (the dark bars of Fig. 15).
    pub fn max_transmission_ms(&self) -> f64 {
        self.per_device_transmission_ms
            .iter()
            .cloned()
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ips_is_inverse_of_mean_latency() {
        let r = SimReport::from_raw(
            vec![100.0, 100.0, 100.0],
            vec![50.0 * 3.0],
            vec![10.0 * 3.0],
        );
        assert!((r.mean_latency_ms - 100.0).abs() < 1e-9);
        assert!((r.ips - 10.0).abs() < 1e-9);
        assert!((r.per_device_compute_ms[0] - 50.0).abs() < 1e-9);
        assert!((r.per_device_transmission_ms[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn max_metrics() {
        let r = SimReport::from_raw(vec![10.0], vec![3.0, 7.0], vec![1.0, 0.5]);
        assert_eq!(r.max_compute_ms(), 7.0);
        assert_eq!(r.max_transmission_ms(), 1.0);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = SimReport::from_raw(vec![], vec![], vec![]);
        assert_eq!(r.ips, 0.0);
        assert_eq!(r.max_compute_ms(), 0.0);
    }
}

//! Fleet configuration: replica bounds and the elastic-scale watermarks.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Knobs of a [`crate::FleetServer`]: how many replicas the default model
/// may run, and the watermarks its monitor scales on.  Round-trips through
/// JSON (like `GatewayConfig`), so a scenario file can carry the full
/// fleet-serving configuration.
///
/// # Watermarks
///
/// The monitor samples [`edge_gateway::GatewayMetrics`] every
/// [`FleetConfig::evaluate_every`] and compares:
///
/// * **High watermark** (scale *up*): a sampled `queue_depth` at or above
///   [`FleetConfig::queue_high_watermark`] deploys one more replica of the
///   default model from its [`crate::ModelSpec`] — up to
///   [`FleetConfig::max_replicas`].
/// * **Idle** (scale *down*): three *consecutive* samples with an empty
///   queue drain one replica — never below [`FleetConfig::min_replicas`];
///   the run of samples is hysteresis, so a single quiet sample does not
///   flap the fleet.  A drained replica stops receiving new work, finishes
///   what it holds, and only then retires (zero image loss).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Scale-down floor: the default model always keeps at least this many
    /// live (non-draining) replicas.
    pub min_replicas: usize,
    /// Scale-up ceiling: the monitor never grows the default model past
    /// this many live replicas (manual [`crate::FleetServer::scale_up`]
    /// honours it too).
    pub max_replicas: usize,
    /// Gateway queue depth at or above which an evaluation votes to scale
    /// up.
    pub queue_high_watermark: usize,
    /// The monitor's sampling period.
    pub evaluate_every: Duration,
    /// Whether the monitor acts on the watermarks.  Off, the monitor still
    /// retires drained replicas (so manual scale-downs complete) but never
    /// initiates a scale itself.
    pub autoscale: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            min_replicas: 1,
            max_replicas: 4,
            queue_high_watermark: 16,
            evaluate_every: Duration::from_millis(50),
            autoscale: true,
        }
    }
}

impl FleetConfig {
    /// Overrides the scale-down floor.
    pub fn with_min_replicas(mut self, min_replicas: usize) -> Self {
        self.min_replicas = min_replicas;
        self
    }

    /// Overrides the scale-up ceiling.
    pub fn with_max_replicas(mut self, max_replicas: usize) -> Self {
        self.max_replicas = max_replicas;
        self
    }

    /// Overrides the queue-depth high watermark.
    pub fn with_queue_high_watermark(mut self, depth: usize) -> Self {
        self.queue_high_watermark = depth;
        self
    }

    /// Overrides the monitor's sampling period.
    pub fn with_evaluate_every(mut self, period: Duration) -> Self {
        self.evaluate_every = period;
        self
    }

    /// Enables / disables watermark-driven scaling.
    pub fn with_autoscale(mut self, autoscale: bool) -> Self {
        self.autoscale = autoscale;
        self
    }

    /// Checks the knobs are usable.
    pub fn validate(&self) -> Result<(), crate::FleetError> {
        if self.min_replicas == 0 {
            return Err(crate::FleetError::InvalidConfig(
                "min_replicas must be at least 1".into(),
            ));
        }
        if self.max_replicas < self.min_replicas {
            return Err(crate::FleetError::InvalidConfig(format!(
                "max_replicas ({}) must be at least min_replicas ({})",
                self.max_replicas, self.min_replicas
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_validation() {
        let cfg = FleetConfig::default()
            .with_min_replicas(2)
            .with_max_replicas(6)
            .with_queue_high_watermark(8)
            .with_autoscale(false);
        assert_eq!(cfg.min_replicas, 2);
        assert_eq!(cfg.max_replicas, 6);
        assert_eq!(cfg.queue_high_watermark, 8);
        assert!(!cfg.autoscale);
        assert!(cfg.validate().is_ok());
        assert!(cfg.with_min_replicas(0).validate().is_err());
        assert!(FleetConfig::default()
            .with_min_replicas(3)
            .with_max_replicas(2)
            .validate()
            .is_err());
    }

    #[test]
    fn round_trips_through_json() {
        let cfg = FleetConfig::default()
            .with_max_replicas(8)
            .with_evaluate_every(Duration::from_millis(20));
        let text = serde_json::to_string(&cfg).unwrap();
        let back: FleetConfig = serde_json::from_str(&text).unwrap();
        assert_eq!(back, cfg);
    }
}

//! Gateway configuration: the batching and SLO knobs.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Knobs of a [`crate::Gateway`].  Round-trips through JSON (like
/// `RuntimeOptions`), so a scenario file can carry the full serving stack
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatewayConfig {
    /// Maximum requests per dispatch wave.  A full wave dispatches
    /// immediately; `1` disables batching.
    pub max_batch: usize,
    /// Maximum time an incomplete wave is held for more arrivals.  `ZERO`
    /// dispatches every request as soon as the dispatcher sees it.
    pub max_linger: Duration,
    /// Admission bound on the queue: requests arriving while this many are
    /// already queued are shed with [`crate::GatewayError::Overloaded`]
    /// instead of growing the queue (and every latency behind it) without
    /// bound.
    pub queue_capacity: usize,
    /// Priority-fairness bound: a queued request that has waited this long
    /// is promoted ahead of class order into the next dispatch wave, so
    /// sustained High-priority load delays Low work by at most roughly
    /// this bound instead of starving it indefinitely.  `None` (the
    /// default) keeps strict class order.
    pub max_starvation: Option<Duration>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_linger: Duration::from_millis(2),
            queue_capacity: 256,
            max_starvation: None,
        }
    }
}

impl GatewayConfig {
    /// Overrides the wave size bound.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Overrides the linger bound.
    pub fn with_max_linger(mut self, max_linger: Duration) -> Self {
        self.max_linger = max_linger;
        self
    }

    /// Overrides the admission bound.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Bounds priority starvation: queued requests older than
    /// `max_starvation` jump the class order.
    pub fn with_max_starvation(mut self, max_starvation: Duration) -> Self {
        self.max_starvation = Some(max_starvation);
        self
    }

    /// Checks the knobs are usable.  [`crate::Gateway::over`] runs this;
    /// callers that deploy a cluster first can run it up front so an
    /// unusable configuration fails before any provider thread is spawned.
    pub fn validate(&self) -> Result<(), crate::GatewayError> {
        if self.max_batch == 0 {
            return Err(crate::GatewayError::InvalidConfig(
                "max_batch must be at least 1".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(crate::GatewayError::InvalidConfig(
                "queue_capacity must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_validation() {
        let cfg = GatewayConfig::default()
            .with_max_batch(4)
            .with_max_linger(Duration::from_millis(7))
            .with_queue_capacity(32);
        assert_eq!(cfg.max_batch, 4);
        assert_eq!(cfg.max_linger, Duration::from_millis(7));
        assert_eq!(cfg.queue_capacity, 32);
        assert!(cfg.validate().is_ok());
        assert!(cfg.with_max_batch(0).validate().is_err());
        assert!(GatewayConfig::default()
            .with_queue_capacity(0)
            .validate()
            .is_err());
    }

    #[test]
    fn round_trips_through_json() {
        let cfg = GatewayConfig::default().with_max_batch(3);
        let text = serde_json::to_string(&cfg).unwrap();
        let back: GatewayConfig = serde_json::from_str(&text).unwrap();
        assert_eq!(back, cfg);
        let fair = GatewayConfig::default().with_max_starvation(Duration::from_millis(40));
        let text = serde_json::to_string(&fair).unwrap();
        let back: GatewayConfig = serde_json::from_str(&text).unwrap();
        assert_eq!(back, fair);
    }
}

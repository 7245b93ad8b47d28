//! Exponential backoff for reconnect paths, and the one schedule every
//! cluster link reconnects on.

use edge_runtime::RuntimeError;
use std::time::{Duration, Instant};

/// Exponential backoff: delays grow by `factor` from `base` up to `max`,
/// and a whole retry episode gives up after `max_elapsed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BackoffPolicy {
    /// First retry delay.
    base: Duration,
    /// Multiplier applied to the delay after every failed attempt.
    factor: f64,
    /// Ceiling any single delay is clamped to.
    max: Duration,
    /// Total time budget for one retry episode before giving up.
    max_elapsed: Duration,
}

/// The reconnect schedule both ends of every cluster link follow: the
/// coordinator re-dialing a node, a node re-dialing a peer's halo link.
pub(crate) const RECONNECT: BackoffPolicy = BackoffPolicy {
    base: Duration::from_millis(50),
    factor: 2.0,
    max: Duration::from_secs(2),
    max_elapsed: Duration::from_secs(30),
};

/// How long a sender waits for its link to come back before failing: two
/// whole [`RECONNECT`] episodes, so the wait outlasts the re-dialer's last
/// attempt and the handshake that follows it.  A link the re-dialer gives
/// up on releases its waiters sooner, through the slot's terminal state.
pub(crate) const LINK_WAIT: Duration = Duration::from_secs(2 * RECONNECT.max_elapsed.as_secs());

/// Runs `op` on the [`RECONNECT`] schedule, retrying the transport errors a
/// re-dial can clear.  Returns the value and the number of attempts made.
pub(crate) fn reconnect<T>(
    abort: impl FnMut() -> bool,
    op: impl FnMut() -> edge_runtime::Result<T>,
) -> edge_runtime::Result<(T, u32)> {
    RECONNECT.retry(
        abort,
        |e: &RuntimeError| e.as_transport().is_some_and(|t| t.is_retryable()),
        op,
    )
}

impl BackoffPolicy {
    /// The delay before retry attempt `attempt` (0-based), exponentially
    /// grown and clamped to `max`.
    fn delay(&self, attempt: u32) -> Duration {
        let grown = self.base.as_secs_f64() * self.factor.powi(attempt as i32);
        let capped = grown.min(self.max.as_secs_f64()).max(0.0);
        Duration::from_secs_f64(capped)
    }

    /// The give-up deadline for an episode starting at `start`.
    fn deadline_from(&self, start: Instant) -> Instant {
        start + self.max_elapsed
    }

    /// Runs `op` until it succeeds, a non-retryable error surfaces, the
    /// episode budget is exhausted, or `abort` returns true.  Sleeps the
    /// policy's delay between attempts.  Returns the successful value
    /// together with the number of attempts made, or the last error.
    fn retry<T, E>(
        &self,
        mut abort: impl FnMut() -> bool,
        retryable: impl Fn(&E) -> bool,
        mut op: impl FnMut() -> std::result::Result<T, E>,
    ) -> std::result::Result<(T, u32), E> {
        let start = Instant::now();
        let deadline = self.deadline_from(start);
        let mut attempt: u32 = 0;
        loop {
            match op() {
                Ok(v) => return Ok((v, attempt + 1)),
                Err(e) => {
                    attempt += 1;
                    let delay = self.delay(attempt - 1);
                    let now = Instant::now();
                    if !retryable(&e) || abort() || now + delay >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(delay);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_clamp() {
        let p = BackoffPolicy {
            base: Duration::from_millis(100),
            factor: 2.0,
            max: Duration::from_millis(500),
            max_elapsed: Duration::from_secs(5),
        };
        assert_eq!(p.delay(0), Duration::from_millis(100));
        assert_eq!(p.delay(1), Duration::from_millis(200));
        assert_eq!(p.delay(2), Duration::from_millis(400));
        assert_eq!(p.delay(3), Duration::from_millis(500));
        assert_eq!(p.delay(30), Duration::from_millis(500));
    }

    #[test]
    fn retry_counts_attempts_and_succeeds() {
        let p = BackoffPolicy {
            base: Duration::from_millis(1),
            factor: 1.0,
            max: Duration::from_millis(1),
            max_elapsed: Duration::from_secs(5),
        };
        let mut failures_left = 3;
        let (value, attempts) = p
            .retry(
                || false,
                |_e: &&str| true,
                || {
                    if failures_left > 0 {
                        failures_left -= 1;
                        Err("not yet")
                    } else {
                        Ok(42)
                    }
                },
            )
            .unwrap();
        assert_eq!(value, 42);
        assert_eq!(attempts, 4);
    }

    #[test]
    fn retry_stops_on_non_retryable() {
        let mut calls = 0;
        let r: std::result::Result<((), u32), &str> = RECONNECT.retry(
            || false,
            |e| *e != "fatal",
            || {
                calls += 1;
                Err("fatal")
            },
        );
        assert_eq!(r.unwrap_err(), "fatal");
        assert_eq!(calls, 1);
    }

    #[test]
    fn retry_honours_abort() {
        let mut calls = 0;
        let r: std::result::Result<((), u32), &str> = RECONNECT.retry(
            || true,
            |_| true,
            || {
                calls += 1;
                Err("down")
            },
        );
        assert!(r.is_err());
        assert_eq!(calls, 1);
    }

    #[test]
    fn retry_gives_up_at_deadline() {
        let p = BackoffPolicy {
            base: Duration::from_millis(5),
            factor: 2.0,
            max: Duration::from_millis(20),
            max_elapsed: Duration::from_millis(60),
        };
        let t0 = Instant::now();
        let r: std::result::Result<((), u32), &str> = p.retry(|| false, |_| true, || Err("down"));
        assert!(r.is_err());
        assert!(t0.elapsed() < Duration::from_millis(500));
    }
}

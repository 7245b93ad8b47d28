//! Low-overhead distributed tracing for the DistrEdge serving path.
//!
//! The serving tiers' typed reports (`RuntimeReport`, `GatewayMetrics`,
//! `FleetMetrics`, `SwapReport`, `AdaptationTick`) are the metrics: each
//! event is counted once, by the tier that owns it, and every report is
//! `Serialize`.  They say *how fast* serving was; this crate answers
//! *where one image's milliseconds went* — gateway queue → batch form →
//! submit → scatter → per-band compute → wire tx/rx → merge → head →
//! response — across every device thread, on one shared clock.
//!
//! # Architecture
//!
//! - A [`Telemetry`] hub owns the clock anchor, the enabled flag and the
//!   per-thread event rings.  It is `Clone` and cheap to share;
//!   [`Telemetry::disabled`] is the no-op variant the untraced
//!   constructors use (capacity-0 rings, nothing allocated, nothing
//!   recorded).
//! - Each recording thread asks the hub for a [`Recorder`] — its own
//!   fixed-capacity, overwrite-oldest, lock-free ring.  Recording a span is
//!   a handful of relaxed atomic stores; when the hub is disabled it is one
//!   relaxed load.
//! - Spans are typed [`SpanEvent`]s keyed by [`TraceId`] `(epoch, image)` —
//!   the same pair every wire frame already carries, so spans recorded on
//!   different devices correlate with no extra plumbing.
//! - A [`Collector`] (or one-shot [`Telemetry::collect`]) drains the rings
//!   into a [`TraceReport`], which exports Chrome trace-event JSON
//!   ([`TraceReport::to_chrome_trace`], loadable in
//!   [Perfetto](https://ui.perfetto.dev)) and per-image critical-path
//!   breakdowns ([`TraceReport::critical_path`]).
//!
//! # Example
//!
//! ```
//! use edge_telemetry::{Stage, Telemetry, TraceId};
//!
//! let telemetry = Telemetry::new();
//! let mut rec = telemetry.recorder("worker", 0);
//!
//! let trace = TraceId { epoch: 0, image: 42 };
//! let t0 = rec.start().unwrap();
//! // ... do the work being measured ...
//! rec.span(Stage::Compute(3), trace, t0, 0, 0);
//!
//! let report = telemetry.collect();
//! assert_eq!(report.span_count(), 1);
//! let path = report.critical_path(42).unwrap();
//! assert_eq!(path.dominant, "compute");
//! ```

mod event;
mod report;
mod ring;

pub use event::{SpanEvent, Stage, TraceId, NO_IMAGE, REQUESTER};
pub use report::{CriticalPath, StageCost, TraceReport, TrackTrace};

use ring::EventRing;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-thread ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

struct HubShared {
    enabled: AtomicBool,
    capacity: usize,
    anchor: Instant,
    rings: Mutex<Vec<Arc<EventRing>>>,
}

/// The tracing hub: clock anchor, enabled flag, ring registry.  Clones
/// share the same hub.
#[derive(Clone)]
pub struct Telemetry {
    shared: Arc<HubShared>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// An enabled hub with the default per-thread ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled hub whose rings hold `capacity` events each
    /// (overwrite-oldest beyond that).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            shared: Arc::new(HubShared {
                enabled: AtomicBool::new(true),
                capacity,
                anchor: Instant::now(),
                rings: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The no-op hub: capacity-0 rings (no slot storage), recording
    /// disabled.  This is what the untraced `deploy`/`over` constructors
    /// pass, so the instrumented code paths cost one relaxed atomic load.
    pub fn disabled() -> Self {
        let hub = Self::with_capacity(0);
        hub.set_enabled(false);
        hub
    }

    /// Toggle span recording at runtime.  The serving tiers' typed reports
    /// keep counting either way: they are the tiers' own state, not the
    /// hub's.
    pub fn set_enabled(&self, enabled: bool) {
        self.shared.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether span recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed) && self.shared.capacity > 0
    }

    /// `Some(now)` when enabled, `None` when disabled — the guard
    /// instrumented code uses to skip timestamping entirely while tracing
    /// is off (mirrors [`Recorder::start`]).
    pub fn start(&self) -> Option<Instant> {
        if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Microseconds from the hub's clock anchor to `t`.
    pub fn stamp(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.shared.anchor).as_micros() as u64
    }

    /// Register a new ring and hand its single-writer [`Recorder`] to the
    /// calling thread.  `track` names the Chrome-trace thread track;
    /// `device` tags every event ([`REQUESTER`] for requester-side work).
    pub fn recorder(&self, track: &str, device: u32) -> Recorder {
        let ring = Arc::new(EventRing::new(track, device, self.shared.capacity));
        self.shared.rings.lock().unwrap().push(Arc::clone(&ring));
        Recorder {
            shared: Arc::clone(&self.shared),
            ring,
        }
    }

    /// One-shot drain of every ring from the beginning of retained history.
    /// For incremental draining keep a [`Collector`].
    pub fn collect(&self) -> TraceReport {
        Collector::new(self).collect()
    }
}

/// A single thread's span writer.  Requires `&mut self` to record, which is
/// what makes the underlying ring single-producer.
pub struct Recorder {
    shared: Arc<HubShared>,
    ring: Arc<EventRing>,
}

impl Recorder {
    /// Whether recording would do anything right now.  Instrumented code
    /// uses this to skip timestamping entirely on the disabled path.
    pub fn enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed) && self.shared.capacity > 0
    }

    /// The device this recorder tags events with.
    pub fn device(&self) -> u32 {
        self.ring.device()
    }

    /// `Some(now)` when enabled, `None` when disabled — so the common
    /// pattern `let t0 = rec.start();` costs one relaxed load when tracing
    /// is off.
    pub fn start(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record a span that started at `t0` and ends now.
    pub fn span(&mut self, stage: Stage, trace: TraceId, t0: Instant, bytes: u64, arg: u32) {
        if !self.enabled() {
            return;
        }
        self.span_between(stage, trace, t0, Instant::now(), bytes, arg);
    }

    /// Record a span with both endpoints supplied.
    pub fn span_between(
        &mut self,
        stage: Stage,
        trace: TraceId,
        t0: Instant,
        t1: Instant,
        bytes: u64,
        arg: u32,
    ) {
        if !self.enabled() {
            return;
        }
        let t_start_us = stamp(&self.shared, t0);
        let t_end_us = stamp(&self.shared, t1).max(t_start_us);
        self.ring.push(&SpanEvent {
            trace,
            device: self.ring.device(),
            stage,
            t_start_us,
            t_end_us,
            bytes,
            arg,
        });
    }

    /// Record a point event at the current time.
    pub fn instant(&mut self, stage: Stage, trace: TraceId, bytes: u64, arg: u32) {
        if !self.enabled() {
            return;
        }
        let now = Instant::now();
        self.span_between(stage, trace, now, now, bytes, arg);
    }
}

fn stamp(shared: &HubShared, t: Instant) -> u64 {
    t.saturating_duration_since(shared.anchor).as_micros() as u64
}

/// Incremental ring drainer: remembers a per-ring cursor so repeated
/// [`Collector::collect`] calls return only new events.  Rings registered
/// after the collector was created are picked up automatically.
pub struct Collector {
    shared: Arc<HubShared>,
    cursors: Vec<u64>,
}

impl Collector {
    /// A collector over `telemetry`'s rings, starting from the beginning
    /// of retained history.
    pub fn new(telemetry: &Telemetry) -> Self {
        Self {
            shared: Arc::clone(&telemetry.shared),
            cursors: Vec::new(),
        }
    }

    /// Drain every ring past this collector's cursors.
    pub fn collect(&mut self) -> TraceReport {
        let rings: Vec<Arc<EventRing>> = self.shared.rings.lock().unwrap().clone();
        self.cursors.resize(rings.len(), 0);
        let mut tracks = Vec::with_capacity(rings.len());
        for (ring, cursor) in rings.iter().zip(self.cursors.iter_mut()) {
            let (events, next) = ring.drain_since(*cursor);
            *cursor = next;
            tracks.push(TrackTrace {
                name: ring.name().to_string(),
                device: ring.device(),
                events,
            });
        }
        TraceReport { tracks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hub_records_nothing_and_allocates_no_slots() {
        let hub = Telemetry::disabled();
        let mut rec = hub.recorder("t", 0);
        assert!(!rec.enabled());
        assert!(rec.start().is_none());
        let now = Instant::now();
        rec.span(Stage::Tx, TraceId { epoch: 0, image: 0 }, now, 10, 0);
        rec.instant(Stage::Shed, TraceId::session(0), 0, 0);
        assert_eq!(hub.collect().span_count(), 0);
    }

    #[test]
    fn runtime_toggle_gates_recording() {
        let hub = Telemetry::new();
        let mut rec = hub.recorder("t", 0);
        hub.set_enabled(false);
        rec.instant(Stage::BatchForm, TraceId::session(0), 0, 4);
        hub.set_enabled(true);
        rec.instant(Stage::BatchForm, TraceId::session(0), 0, 4);
        assert_eq!(hub.collect().span_count(), 1);
    }

    #[test]
    fn incremental_collector_returns_only_new_events() {
        let hub = Telemetry::new();
        let mut rec = hub.recorder("t", 3);
        let mut collector = Collector::new(&hub);
        rec.instant(Stage::EpochFlip, TraceId::session(1), 0, 0);
        assert_eq!(collector.collect().span_count(), 1);
        assert_eq!(collector.collect().span_count(), 0);
        // A ring registered after the collector exists is still drained.
        let mut late = hub.recorder("late", 4);
        late.instant(Stage::EpochFlip, TraceId::session(2), 0, 0);
        rec.instant(Stage::EpochFlip, TraceId::session(2), 0, 0);
        let report = collector.collect();
        assert_eq!(report.span_count(), 2);
        assert_eq!(report.tracks.len(), 2);
    }

    #[test]
    fn spans_share_the_hub_clock() {
        let hub = Telemetry::new();
        let mut a = hub.recorder("a", 0);
        let mut b = hub.recorder("b", 1);
        let t0 = a.start().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let trace = TraceId { epoch: 0, image: 1 };
        a.span(Stage::Compute(0), trace, t0, 0, 0);
        b.instant(Stage::Respond, trace, 0, 0);
        let report = hub.collect();
        let compute = &report.tracks[0].events[0];
        let respond = &report.tracks[1].events[0];
        assert!(compute.t_end_us >= compute.t_start_us + 1_000);
        // Respond was recorded after the compute span ended, on one clock.
        assert!(respond.t_start_us >= compute.t_end_us);
    }
}

//! The adaptive batch former: pure state, no threads, no clocks of its own.
//!
//! [`Batcher`] accumulates queued requests per [`Priority`] class and decides
//! when a dispatch wave is due under two knobs:
//!
//! * `max_batch` — a full batch dispatches immediately;
//! * `max_linger` — an incomplete batch dispatches once its *oldest* request
//!   has waited that long, so light traffic never waits for a batch to fill.
//!
//! A third, opt-in knob bounds priority starvation: with
//! [`Batcher::with_max_starvation`] set, any item that has waited that long
//! jumps the class order and leaves with the next wave — so sustained High
//! traffic can delay Low work by at most the bound, never indefinitely.
//! Unset (the default), class order is absolute.
//!
//! Every method takes `now` explicitly, which is what makes the linger/size
//! invariants property-testable without sleeping (see `tests/gateway.rs`).

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Scheduling class of a request.  Higher classes leave the queue first;
/// within a class, dispatch order is arrival order.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum Priority {
    /// Dispatched before everything else (interactive traffic).
    High,
    /// The default class.
    #[default]
    Normal,
    /// Dispatched only when nothing more urgent waits (batch/bulk traffic).
    Low,
}

impl Priority {
    /// All classes, most urgent first — the order batches are filled in.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// The dense index of this class (`High = 0 … Low = 2`), matching the
    /// order of [`Priority::ALL`] — indexes per-class counter arrays.
    pub fn index(self) -> usize {
        self.class()
    }

    fn class(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// A queued item plus its arrival time.
struct Queued<T> {
    item: T,
    arrived: Instant,
}

/// The batch former.  Generic over the queued payload so the dispatch logic
/// can be exercised in isolation (the gateway queues full requests, the
/// property tests queue integers).
pub struct Batcher<T> {
    max_batch: usize,
    max_linger: Duration,
    /// Bounded-wait promotion: items that have waited this long leave with
    /// the next wave regardless of class.  `None` = strict class order.
    max_starvation: Option<Duration>,
    queues: [VecDeque<Queued<T>>; 3],
    len: usize,
}

impl<T> Batcher<T> {
    /// A batcher dispatching at most `max_batch` items per wave, holding an
    /// incomplete wave at most `max_linger`.
    pub fn new(max_batch: usize, max_linger: Duration) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        Self {
            max_batch,
            max_linger,
            max_starvation: None,
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            len: 0,
        }
    }

    /// Sets (or clears) the starvation bound: with `Some(bound)`, an item
    /// that has waited `bound` or longer is promoted ahead of class order —
    /// oldest first — so lower classes inherit a worst-case wait of
    /// roughly `bound` plus one dispatch interval under sustained
    /// higher-class load, instead of waiting forever.
    pub fn with_max_starvation(mut self, max_starvation: Option<Duration>) -> Self {
        self.max_starvation = max_starvation;
        self
    }

    /// The size knob.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The linger knob.
    pub fn max_linger(&self) -> Duration {
        self.max_linger
    }

    /// The starvation bound (`None` = strict class order).
    pub fn max_starvation(&self) -> Option<Duration> {
        self.max_starvation
    }

    /// Enqueues one item arriving at `now`.
    pub fn push(&mut self, item: T, priority: Priority, now: Instant) {
        self.queues[priority.class()].push_back(Queued { item, arrived: now });
        self.len += 1;
    }

    /// Queued items across all classes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How long the oldest queued item has been waiting at `now`; `None`
    /// when the queue is empty.
    pub fn oldest_wait(&self, now: Instant) -> Option<Duration> {
        self.queues
            .iter()
            .filter_map(|q| q.front())
            .map(|e| now.saturating_duration_since(e.arrived))
            .max()
    }

    /// Whether a dispatch wave is due at `now`: the batch is full, or the
    /// oldest queued item has lingered `max_linger` or longer.
    pub fn ready(&self, now: Instant) -> bool {
        self.len >= self.max_batch || self.oldest_wait(now).is_some_and(|w| w >= self.max_linger)
    }

    /// Time until a wave becomes due if nothing else arrives: `None` when
    /// the queue is empty, zero when [`Batcher::ready`] already holds.
    pub fn time_to_ready(&self, now: Instant) -> Option<Duration> {
        if self.is_empty() {
            return None;
        }
        if self.ready(now) {
            return Some(Duration::ZERO);
        }
        let oldest = self.oldest_wait(now).expect("non-empty queue");
        Some(self.max_linger - oldest)
    }

    /// Takes the next wave: at most `min(max_batch, limit)` items, most
    /// urgent class first, arrival order within a class.  The caller passes
    /// the session's free credit count as `limit`, so a wave never exceeds
    /// the in-flight window it is dispatched into.
    ///
    /// With a starvation bound set, items that have waited `bound` or
    /// longer at `now` fill the wave first (oldest first, across classes);
    /// class order applies to whatever room remains.
    pub fn take_batch(&mut self, limit: usize, now: Instant) -> Vec<T> {
        let cap = self.max_batch.min(limit);
        let mut batch = Vec::new();
        if let Some(bound) = self.max_starvation {
            // Promote over-age items oldest-first.  Each queue is in
            // arrival order, so only fronts need comparing.
            while batch.len() < cap {
                let overdue = self
                    .queues
                    .iter()
                    .enumerate()
                    .filter_map(|(c, q)| q.front().map(|e| (c, e.arrived)))
                    .filter(|(_, arrived)| now.saturating_duration_since(*arrived) >= bound)
                    .min_by_key(|(_, arrived)| *arrived);
                match overdue {
                    Some((class, _)) => {
                        let e = self.queues[class].pop_front().expect("front exists");
                        batch.push(e.item);
                    }
                    None => break,
                }
            }
        }
        for q in &mut self.queues {
            while batch.len() < cap {
                match q.pop_front() {
                    Some(e) => batch.push(e.item),
                    None => break,
                }
            }
        }
        self.len -= batch.len();
        batch
    }

    /// Drains everything still queued, in dispatch order (shutdown path).
    pub fn drain_all(&mut self) -> Vec<T> {
        let mut all = Vec::with_capacity(self.len);
        for q in &mut self.queues {
            all.extend(q.drain(..).map(|e| e.item));
        }
        self.len = 0;
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_batch_is_ready_immediately() {
        let now = Instant::now();
        let mut b = Batcher::new(2, Duration::from_millis(100));
        b.push(1u32, Priority::Normal, now);
        assert!(!b.ready(now));
        b.push(2, Priority::Normal, now);
        assert!(b.ready(now), "a full batch must not linger");
        assert_eq!(b.take_batch(usize::MAX, now), vec![1, 2]);
        assert!(b.is_empty());
    }

    #[test]
    fn incomplete_batch_dispatches_after_linger() {
        let now = Instant::now();
        let linger = Duration::from_millis(5);
        let mut b = Batcher::new(8, linger);
        b.push(7u32, Priority::Normal, now);
        assert!(!b.ready(now));
        assert_eq!(b.time_to_ready(now), Some(linger));
        let later = now + linger;
        assert!(b.ready(later));
        assert_eq!(b.time_to_ready(later), Some(Duration::ZERO));
    }

    #[test]
    fn priority_classes_leave_in_order() {
        let now = Instant::now();
        let mut b = Batcher::new(8, Duration::ZERO);
        b.push(30u32, Priority::Low, now);
        b.push(10, Priority::High, now);
        b.push(20, Priority::Normal, now);
        b.push(11, Priority::High, now);
        assert_eq!(b.take_batch(3, now), vec![10, 11, 20]);
        assert_eq!(b.take_batch(usize::MAX, now), vec![30]);
    }

    #[test]
    fn take_batch_respects_credit_limit() {
        let now = Instant::now();
        let mut b = Batcher::new(8, Duration::ZERO);
        for i in 0..5u32 {
            b.push(i, Priority::Normal, now);
        }
        assert_eq!(b.take_batch(2, now).len(), 2);
        assert_eq!(b.len(), 3);
        assert_eq!(b.drain_all(), vec![2, 3, 4]);
    }

    #[test]
    fn overdue_items_jump_the_class_order_oldest_first() {
        let t0 = Instant::now();
        let bound = Duration::from_millis(50);
        let mut b = Batcher::new(4, Duration::ZERO).with_max_starvation(Some(bound));
        b.push(90u32, Priority::Low, t0);
        b.push(50, Priority::Normal, t0 + Duration::from_millis(10));
        // Before the bound elapses, strict class order holds.
        b.push(10, Priority::High, t0 + Duration::from_millis(20));
        assert_eq!(
            b.take_batch(1, t0 + Duration::from_millis(30)),
            vec![10],
            "nothing is overdue yet"
        );
        // Past the bound, the Low item (oldest) and then the Normal one
        // leave ahead of fresh High arrivals.
        b.push(11, Priority::High, t0 + Duration::from_millis(65));
        assert_eq!(
            b.take_batch(4, t0 + Duration::from_millis(70)),
            vec![90, 50, 11]
        );
    }
}

//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions, plus the program's own telemetry spans
//! imported onto the same clock.  Nothing is written until the run ends.

use edge_telemetry::{Telemetry, TraceReport, NO_IMAGE};
use std::time::Instant;

/// One span: `<layer>.<call>` on a track, with the span that caused it and
/// the request (image number) it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub track: String,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// The benchmark thread's track name.
const MAIN_TRACK: &str = "bench";

/// A span log.  Disabled (the untraced pass) it records nothing and takes
/// no timestamps, so the end-to-end numbers never pay for it.
pub struct SpanLog {
    enabled: bool,
    anchor: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            anchor: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.anchor.elapsed().as_micros() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn scope<T>(
        &mut self,
        name: &str,
        request: Option<u64>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            track: MAIN_TRACK.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Median duration (µs) of `f` over `reps` calls, each inside a span
    /// named `name`.  Spans keep whole microseconds, so calls this short
    /// are timed here at the clock's own resolution.
    pub fn micro_us<T>(&mut self, name: &str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
        let us: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(self.scope(name, None, |_| f()));
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        crate::metrics::median(&us)
    }

    /// Durations (ms) of every closed span named `name`, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) as f64 / 1e3)
            .collect()
    }

    /// Imports the program's telemetry spans (what `Runtime::deploy_traced`
    /// exposes) as `edge-runtime.stage.<stage>` spans on the hub's own tracks.
    pub fn import(&mut self, telemetry: &Telemetry, report: &TraceReport) {
        if !self.enabled {
            return;
        }
        // Both clocks count microseconds from an `Instant`; shift the hub's
        // onto ours.
        let shift = self.now_us() as i64 - telemetry.stamp(Instant::now()) as i64;
        let at = |t: u64| (t as i64 + shift).max(0) as u64;
        for track in &report.tracks {
            for e in &track.events {
                self.spans.push(Span {
                    name: format!("edge-runtime.stage.{}", e.stage.name()),
                    track: track.name.clone(),
                    start_us: at(e.t_start_us),
                    end_us: at(e.t_end_us),
                    parent: None,
                    request: (e.trace.image != NO_IMAGE).then_some(e.trace.image as u64),
                });
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (`{"traceEvents":[...]}`), loadable in
    /// Perfetto: one thread track per span track, `ph:"X"` complete events.
    pub fn to_chrome_trace(&self) -> String {
        let mut tracks: Vec<&str> = Vec::new();
        let mut events = Vec::with_capacity(self.spans.len() + 8);
        for s in &self.spans {
            let tid = match tracks.iter().position(|t| *t == s.track) {
                Some(i) => i,
                None => {
                    tracks.push(&s.track);
                    tracks.len() - 1
                }
            };
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            events.push(format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"request\":{request},\"parent\":{parent}}}}}",
                json_string(&s.name),
                s.start_us,
                s.end_us.saturating_sub(s.start_us),
            ));
        }
        for (tid, name) in tracks.iter().enumerate() {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                json_string(name)
            ));
        }
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }
}

fn json_string(s: &str) -> String {
    serde::json::Value::String(s.to_string()).render()
}

/// Every span's self time (µs): its duration minus the part of its
/// interval that its direct children cover.  Children may overlap each
/// other and may stick out of the parent; only covered time inside the
/// parent counts, and it counts once.
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_us.max(spans[p].start_us),
                s.end_us.min(spans[p].end_us),
            );
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(parent, covered)| {
            covered.sort_unstable();
            let mut total = 0;
            let mut reach = parent.start_us;
            for &(lo, hi) in covered.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    total += hi - lo;
                    reach = hi;
                }
            }
            (parent.end_us - parent.start_us) - total
        })
        .collect()
}

/// Per span name: calls, total ms and self ms, heaviest self time first.
pub fn summary(spans: &[Span]) -> Vec<(String, usize, f64, f64)> {
    let mut by_name: std::collections::BTreeMap<&str, (usize, u64, u64)> = Default::default();
    for (s, self_us) in spans.iter().zip(self_times_us(spans)) {
        let row = by_name.entry(&s.name).or_default();
        row.0 += 1;
        row.1 += s.end_us - s.start_us;
        row.2 += self_us;
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(name, (calls, total, own))| {
            (
                name.to_string(),
                calls,
                total as f64 / 1e3,
                own as f64 / 1e3,
            )
        })
        .collect();
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t.x".into(),
            track: MAIN_TRACK.into(),
            start_us,
            end_us,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),  // overlaps the previous child
            span(35, 38, Some(0)),  // nested inside both
            span(90, 130, Some(0)), // sticks out of the parent
            span(12, 20, Some(1)),  // a grandchild is not subtracted twice
        ];
        // Covered: [10,60) and [90,100) = 60 of 100.
        assert_eq!(self_times_us(&spans), [40, 22, 30, 3, 40, 8]);
        let rows = summary(&spans);
        assert_eq!(rows, [("t.x".to_string(), 6, 211.0 / 1e3, 143.0 / 1e3)]);
    }

    #[test]
    fn scopes_nest_and_carry_the_request_id() {
        let mut log = SpanLog::new(true);
        let out = log.scope("a.outer", Some(7), |log| {
            log.scope("b.inner", Some(7), |_| 41) + 1
        });
        assert_eq!(out, 42);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, Some(7));
        assert!(spans[0].end_us >= spans[1].end_us);
        assert_eq!(log.durations_ms("b.inner").len(), 1);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        assert_eq!(log.scope("a.b", None, |_| 3), 3);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_named_tracks() {
        let mut log = SpanLog::new(true);
        log.scope("tensor.conv \"L0\"", Some(1), |_| ());
        let text = log.to_chrome_trace();
        let parsed: serde::json::Value = serde_json::from_str(&text).unwrap();
        let events = crate::metrics::field(&parsed, "traceEvents").unwrap();
        let serde::json::Value::Array(events) = events else {
            panic!("traceEvents is not an array")
        };
        assert_eq!(events.len(), 2); // the span and its track's name
    }
}

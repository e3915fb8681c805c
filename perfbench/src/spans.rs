//! Host-time spans recorded by the benchmark around its calls into each
//! layer, kept in memory and exported once as a Chrome trace.
//!
//! A disabled recorder runs the wrapped call and nothing else, so the
//! untraced run pays no instrumentation cost at all. Each worker thread
//! records into its own recorder (its own track in the trace), merged
//! when the workers are done.

use std::time::{Duration, Instant};
use warden_obs::{ArgVal, TraceBuilder};

struct Span {
    track: u32,
    name: &'static str,
    label: String,
    start: Duration,
    dur: Duration,
}

/// An in-memory span recorder.
pub struct Spans {
    on: bool,
    track: u32,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder, switched off.
    pub fn new() -> Spans {
        Spans {
            on: false,
            track: 1,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// An empty recorder, in the same state and on the same clock as this
    /// one, that records onto `track`.
    pub fn for_track(&self, track: u32) -> Spans {
        Spans {
            on: self.on,
            track,
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    /// Take over every span `other` recorded.
    pub fn merge(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Switch recording on or off for the calls that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Run `f`, recording it as span `name` (for cell `label`) when on.
    pub fn span<T>(&mut self, name: &'static str, label: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed();
        self.spans.push(Span {
            track: self.track,
            name,
            label: label.to_string(),
            start: t0 - self.origin,
            dur,
        });
        out
    }

    /// Total seconds recorded under `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64())
            .sum()
    }

    /// Every recorded span as a Chrome trace-event document (microsecond
    /// timestamps, one thread track per recorder, so nested calls nest in
    /// Perfetto).
    pub fn chrome_json(&self, process: &str) -> String {
        let mut tb = TraceBuilder::new();
        tb.process_name(1, process);
        let mut tracks: Vec<u32> = self.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for t in tracks {
            tb.thread_name(1, t, &format!("benchmark {t}"));
        }
        for s in &self.spans {
            tb.complete(
                s.name,
                s.start.as_micros() as u64,
                s.dur.as_micros() as u64,
                1,
                s.track,
                vec![("cell".to_string(), ArgVal::Str(s.label.clone()))],
            );
        }
        tb.to_json()
    }
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

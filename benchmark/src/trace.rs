//! Benchmark-owned spans around calls into the program's public functions.
//!
//! Spans live in memory and are written out once, when the traced run ends.
//! The same `time` call serves the untraced laps: with recording off it is
//! two `Instant` reads and nothing else.

use crate::json::Json;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub lap: u32,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    origin: Instant,
    recording: bool,
    lap: u32,
    stack: Vec<usize>,
    last_closed: Option<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            recording,
            lap: 0,
            stack: Vec::new(),
            last_closed: None,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// Spans opened from now on carry the next lap id.
    pub fn next_lap(&mut self) -> u32 {
        self.lap += 1;
        self.lap
    }

    /// Run `f` under a span named `name`; returns its result and wall seconds.
    /// A panic inside `f` closes the span on its way out, so the lap that
    /// catches it leaves the tracer as it found it.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let t0 = Instant::now();
        let id = self.recording.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_s: (t0 - self.origin).as_secs_f64(),
                end_s: f64::NAN,
                parent: self.stack.last().copied(),
                lap: self.lap,
            });
            let id = self.spans.len() - 1;
            self.stack.push(id);
            id
        });
        let out = catch_unwind(AssertUnwindSafe(|| f(self)));
        let t1 = Instant::now();
        if let Some(id) = id {
            self.spans[id].end_s = (t1 - self.origin).as_secs_f64();
            self.stack.pop();
            self.last_closed = Some(id);
        }
        match out {
            Ok(out) => (out, (t1 - t0).as_secs_f64()),
            Err(panic) => resume_unwind(panic),
        }
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Append `suffix` to the name of the span that closed last: a step's
    /// kind is known only once it has returned.
    pub fn retag_last(&mut self, suffix: &str) {
        if let (true, Some(id)) = (self.recording, self.last_closed) {
            self.spans[id].name.push_str(suffix);
        }
    }

    /// A span whose endpoints were measured elsewhere (on a rank thread).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if self.recording {
            self.spans.push(Span {
                name: name.to_string(),
                start_s: start.saturating_duration_since(self.origin).as_secs_f64(),
                end_s: end.saturating_duration_since(self.origin).as_secs_f64(),
                parent: self.stack.last().copied(),
                lap: self.lap,
            });
        }
    }

    /// The worst share, over every span named `name`, of its duration that
    /// its leaf descendants (the spans around actual calls) account for.
    pub fn min_leaf_coverage(&self, name: &str) -> Option<f64> {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        let under = |mut id: usize, root: usize| loop {
            match self.spans[id].parent {
                Some(p) if p == root => return true,
                Some(p) => id = p,
                None => return false,
            }
        };
        (0..self.spans.len())
            .filter(|&root| self.spans[root].name == name)
            .map(|root| {
                let leaves: f64 = (0..self.spans.len())
                    .filter(|&id| !has_child[id] && under(id, root))
                    .map(|id| self.spans[id].dur_s())
                    .sum();
                leaves / self.spans[root].dur_s().max(1e-12)
            })
            .reduce(f64::min)
    }

    /// Durations (seconds) of every span with this name, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .collect()
    }

    /// The span file: every span with its self time (duration minus the part
    /// its children cover).
    pub fn to_json(&self) -> Json {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.dur_s();
            }
        }
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj(vec![
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(&s.name)),
                        ("lap", Json::Num(f64::from(s.lap))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_us", Json::Num((s.start_s * 1e6).round())),
                        ("end_us", Json::Num((s.end_s * 1e6).round())),
                        (
                            "self_us",
                            Json::Num(((s.dur_s() - child_s[id]) * 1e6).round()),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panic_closes_the_spans_it_unwinds_through() {
        let mut tr = Tracer::new(true);
        let lap = catch_unwind(AssertUnwindSafe(|| {
            tr.time("lap", |tr| tr.time("step", |_| panic!("a lap that fails")))
        }));
        assert!(lap.is_err());
        assert!(tr.spans.iter().all(|s| s.end_s.is_finite()));
        tr.time("next lap", |_| ());
        assert_eq!(tr.spans[2].parent, None);
        tr.to_json();
    }
}

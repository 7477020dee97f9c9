//! The benchmark's own spans: one around every call into a layer, recorded
//! from the benchmark's files (spans inside the program are a later change).
//! Kept in memory, written when the traced run ends.

use crate::jsonout::{num, obj, s, Json};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// An in-memory span log with a stack of open spans.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        let idx = self.spans.len();
        let now = self.us(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.us(Instant::now());
        out
    }

    /// Records an interval measured elsewhere (e.g. on a filter's thread) as
    /// a child of the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent: self.open.last().copied(),
        });
    }

    /// A span's duration minus the part its children cover, in seconds.
    pub fn self_time_s(&self, idx: usize) -> f64 {
        let own = self.spans[idx].end_us - self.spans[idx].start_us;
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_us - c.start_us)
            .sum();
        (own - children).max(0.0) / 1e6
    }

    /// `(name, duration, self time)` in seconds of every top-level span.
    pub fn top_level(&self) -> Vec<(String, f64, f64)> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, sp)| sp.parent.is_none())
            .map(|(i, sp)| {
                (
                    sp.name.clone(),
                    (sp.end_us - sp.start_us) / 1e6,
                    self.self_time_s(i),
                )
            })
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|sp| {
                    obj([
                        ("name", s(sp.name.clone())),
                        ("start_us", num(sp.start_us)),
                        ("end_us", num(sp.end_us)),
                        (
                            "parent",
                            sp.parent.map(|p| num(p as f64)).unwrap_or(Json::Null),
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
    use std::time::Duration;

    #[test]
    fn scopes_nest_and_self_time_excludes_children() {
        let mut log = SpanLog::new();
        log.scope("outer", |log| {
            std::thread::sleep(Duration::from_millis(2));
            log.scope("inner", |_| std::thread::sleep(Duration::from_millis(5)));
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_millis(1));
            log.record("sample", t0, Instant::now());
        });
        log.scope("second", |_| {});
        assert_eq!(log.spans.len(), 4);
        assert_eq!(log.spans[0].parent, None);
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[2].parent, Some(0));
        assert_eq!(log.spans[3].parent, None);
        let outer = (log.spans[0].end_us - log.spans[0].start_us) / 1e6;
        let inner = (log.spans[1].end_us - log.spans[1].start_us) / 1e6;
        assert!(inner >= 0.005 && outer >= inner + 0.003);
        let self_s = log.self_time_s(0);
        assert!(self_s >= 0.002 && self_s <= outer - inner, "{self_s}");
        let top = log.top_level();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "outer");
    }

    #[test]
    fn the_log_serialises_with_parents() {
        let mut log = SpanLog::new();
        log.scope("a", |log| log.scope("b", |_| {}));
        let v = log.to_json();
        let arr = v.as_arr().expect("array");
        assert_eq!(arr[0].get("parent"), Some(&Json::Null));
        assert_eq!(arr[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(arr[1].get("name").and_then(Json::as_str), Some("b"));
    }
}

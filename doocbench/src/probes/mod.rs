//! Per-layer probes: each times calls into one crate's public functions from
//! outside, under the benchmark's own spans. A probe's samples are batches
//! sized to milliseconds, so the two `Instant` reads around one are noise.

pub mod core;
pub mod filterstream;
pub mod scheduler;
pub mod sparse;
pub mod storage;

use crate::metrics::Measured;
use crate::spans::SpanLog;
use std::time::{Duration, Instant};

/// One timed batch.
pub type Sample = (Instant, Instant);

/// What a probe hands back: its metrics and free-text notes (sizes, caveats)
/// for the report.
pub type ProbeResult = Result<(Vec<Measured>, Vec<String>), String>;

/// Bytes in a MB as this benchmark prints it.
pub const MIB: f64 = 1048576.0;

/// Block size of the storage, core and codec probes.
pub const BLOCK: usize = 64 << 10;

/// Times `f` once per sample until `budget` has passed, with at least `min`
/// and at most 10 000 samples.
pub fn sample(budget: Duration, min: usize, mut f: impl FnMut()) -> Vec<Sample> {
    let begin = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (begin.elapsed() < budget && out.len() < 10_000) {
        let t0 = Instant::now();
        f();
        out.push((t0, Instant::now()));
    }
    out
}

/// Sample durations in seconds.
pub fn secs(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .map(|(a, b)| b.saturating_duration_since(*a).as_secs_f64())
        .collect()
}

/// One probe: runs `run` inside a span named after the metric, logs every
/// sample it returns as a child span, and turns the durations into the
/// metric through `per_sample` (seconds in, metric value out).
pub fn timed(
    log: &mut SpanLog,
    metric: &str,
    per_sample: impl Fn(f64) -> f64,
    run: impl FnOnce() -> Result<Vec<Sample>, String>,
) -> Result<Measured, String> {
    log.scope(metric, |log| {
        let samples = run()?;
        record(log, metric, &samples, per_sample)
    })
}

/// The second half of [`timed`], for probes whose one run yields the samples
/// of several metrics: call it inside the run's own scope.
pub fn record(
    log: &mut SpanLog,
    metric: &str,
    samples: &[Sample],
    per_sample: impl Fn(f64) -> f64,
) -> Result<Measured, String> {
    for (a, b) in samples {
        log.record(metric, *a, *b);
    }
    Measured::new(metric, secs(samples).into_iter().map(per_sample).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_honours_the_minimum_and_the_budget() {
        let mut calls = 0;
        let s = sample(Duration::ZERO, 3, || calls += 1);
        assert_eq!((s.len(), calls), (3, 3));
        let s = sample(Duration::from_millis(20), 1, || {
            std::thread::sleep(Duration::from_millis(5))
        });
        assert!((2..=5).contains(&s.len()), "{}", s.len());
        assert!(secs(&s).iter().all(|d| *d >= 0.005));
    }
}

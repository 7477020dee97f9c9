//! Global registry of named counters, gauges and histograms.
//!
//! Metrics are registered on first use and live for the process ([`counter`]
//! leaks one allocation per distinct name — cache the returned reference in
//! a `OnceLock` at hot call sites). Updates are relaxed atomics gated on
//! [`crate::enabled`], so a disabled metric update costs one load and a
//! branch.

use crate::enabled;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Monotonically increasing `u64` metric.
#[derive(Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Adds `n` (no-op while recording is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Point-in-time signed value.
#[derive(Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Sets the value (no-op while recording is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.v.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// `0` plus one bucket per power of two.
const BUCKETS: usize = 65;

/// Power-of-two-bucketed distribution of `u64` samples (pipeline occupancy,
/// queue depths, transfer sizes).
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Histogram {
    /// Records one sample (no-op while recording is disabled).
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        let idx = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// `(bucket lower bound, count)` for every non-empty bucket.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (if i == 0 { 0 } else { 1u64 << (i - 1) }, n))
            })
            .collect()
    }
}

#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

fn registry() -> &'static Mutex<HashMap<String, Metric>> {
    static R: OnceLock<Mutex<HashMap<String, Metric>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns (creating and registering on first use) the counter named
/// `name`. A name keeps the kind it was first registered with.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry().lock();
    if let Some(Metric::Counter(c)) = reg.get(name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::default());
    reg.insert(name.to_string(), Metric::Counter(c));
    c
}

/// Returns (creating and registering on first use) the gauge named `name`.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut reg = registry().lock();
    if let Some(Metric::Gauge(g)) = reg.get(name) {
        return g;
    }
    let g: &'static Gauge = Box::leak(Box::default());
    reg.insert(name.to_string(), Metric::Gauge(g));
    g
}

/// Returns (creating and registering on first use) the histogram named
/// `name`.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut reg = registry().lock();
    if let Some(Metric::Histogram(h)) = reg.get(name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::default());
    reg.insert(name.to_string(), Metric::Histogram(h));
    h
}

/// Renders every registered metric as plain text, one line per metric,
/// sorted by name:
///
/// ```text
/// counter <name> <u64>
/// gauge <name> <i64>
/// histogram <name> count=<n> sum=<n> max=<n> buckets=<lo>:<n>,...
/// ```
///
/// When both `storage.read_hits` and `storage.read_misses` counters exist a
/// `derived storage.cache_hit_rate <fraction>` line is appended.
pub fn dump_metrics() -> String {
    let reg = registry().lock();
    let mut names: Vec<&String> = reg.keys().collect();
    names.sort();
    let mut out = String::from("# dooc metrics\n");
    for name in names {
        match reg[name.as_str()] {
            Metric::Counter(c) => {
                let _ = writeln!(out, "counter {name} {}", c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "gauge {name} {}", g.get());
            }
            Metric::Histogram(h) => {
                let _ = write!(
                    out,
                    "histogram {name} count={} sum={} max={}",
                    h.count(),
                    h.sum(),
                    h.max()
                );
                let nz = h.nonzero_buckets();
                if !nz.is_empty() {
                    let cells: Vec<String> = nz.iter().map(|(lo, n)| format!("{lo}:{n}")).collect();
                    let _ = write!(out, " buckets={}", cells.join(","));
                }
                out.push('\n');
            }
        }
    }
    if let (Some(Metric::Counter(h)), Some(Metric::Counter(m))) =
        (reg.get("storage.read_hits"), reg.get("storage.read_misses"))
    {
        let (h, m) = (h.get(), m.get());
        if h + m > 0 {
            let _ = writeln!(
                out,
                "derived storage.cache_hit_rate {:.4}",
                h as f64 / (h + m) as f64
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial_tests;

    #[test]
    fn counters_are_deduplicated_and_gated() {
        let _g = serial_tests();
        crate::disable();
        let a = counter("test.gated");
        a.inc();
        assert_eq!(a.get(), 0, "disabled updates are dropped");
        crate::enable();
        let b = counter("test.gated");
        assert!(std::ptr::eq(a, b));
        b.add(3);
        crate::disable();
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn gauge_set_and_get() {
        let _g = serial_tests();
        crate::enable();
        gauge("test.gauge").set(-7);
        crate::disable();
        assert_eq!(gauge("test.gauge").get(), -7);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let _g = serial_tests();
        crate::enable();
        let h = histogram("test.hist");
        for v in [0, 1, 2, 3, 1024] {
            h.record(v);
        }
        crate::disable();
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.max(), 1024);
        let nz = h.nonzero_buckets();
        assert!(nz.contains(&(0, 1)), "{nz:?}");
        assert!(nz.contains(&(1, 1)), "{nz:?}");
        assert!(nz.contains(&(2, 2)), "{nz:?}");
        assert!(nz.contains(&(1024, 1)), "{nz:?}");
    }

    #[test]
    fn dump_is_sorted_and_parses() {
        let _g = serial_tests();
        crate::enable();
        counter("test.dump.z").add(2);
        counter("test.dump.a").inc();
        gauge("test.dump.g").set(5);
        histogram("test.dump.h").record(9);
        crate::disable();
        let dump = dump_metrics();
        let za = dump.find("test.dump.z").expect("z line");
        let aa = dump.find("test.dump.a").expect("a line");
        assert!(aa < za, "sorted by name:\n{dump}");
        let check = crate::validate::validate_metrics_dump(&dump).expect("valid dump");
        assert!(check.names.contains("test.dump.h"));
    }

    #[test]
    fn derived_cache_hit_rate_appears() {
        let _g = serial_tests();
        crate::enable();
        counter("storage.read_hits").add(3);
        counter("storage.read_misses").add(1);
        crate::disable();
        let dump = dump_metrics();
        assert!(
            dump.contains("derived storage.cache_hit_rate 0.7500"),
            "{dump}"
        );
    }
}

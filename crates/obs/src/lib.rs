//! dooc-obs — structured tracing and metrics for the DOoC runtime.
//!
//! The paper's whole argument is a cost model (CPU-hours, I/O overlap, load
//! counts); this crate is how the reproduction *sees* where time goes:
//!
//! * [`ring`] — lock-light per-thread event rings recording spans and
//!   instants, each tagged with a [`Category`] (runtime layer), a node id
//!   and an interned name;
//! * [`metrics`] — a global registry of named counters, gauges and
//!   power-of-two histograms (bytes loaded, blocks evicted, cache hit rate,
//!   queue depth, pipeline occupancy);
//! * [`trace`] — a Chrome `trace_event` JSON exporter (open the file in
//!   `chrome://tracing` or <https://ui.perfetto.dev>) plus the plain-text
//!   metrics dump;
//! * [`validate`] — schema validators for both outputs (backed by the
//!   dependency-free [`json`] parser), also exposed as the `obs_validate`
//!   binary CI runs against emitted artifacts.
//!
//! Recording is globally off by default: every instrumentation point costs
//! one relaxed atomic load and a branch until [`enable`] is called, so
//! instrumented hot paths stay within noise of uninstrumented ones.
//!
//! ```
//! dooc_obs::enable();
//! {
//!     let _span = dooc_obs::span(dooc_obs::Category::Worker, "task:demo", 0);
//!     dooc_obs::metrics::counter("demo.items").inc();
//! }
//! dooc_obs::disable();
//! let snap = dooc_obs::take_events();
//! let json = dooc_obs::chrome_trace(&snap);
//! assert!(dooc_obs::validate::validate_chrome_trace(&json).is_ok());
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod ring;
pub mod trace;
pub mod validate;

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub use metrics::dump_metrics;
pub use ring::{
    instant, instant_arg, span, take_events, Event, EventKind, SpanGuard, TraceSnapshot,
};
pub use trace::chrome_trace;

/// Recording state: `0` = off, `n >= 1` = recording with spans sampled
/// 1-in-`n` (so `1` = record everything). One relaxed load of this single
/// atomic is the whole disabled-path *and* enabled-path gate — the sampling
/// period rides along in the same word the old boolean occupied.
static STATE: AtomicU32 = AtomicU32::new(0);

/// Turns event recording and metric updates on at full rate (every span).
///
/// The store is `Relaxed` to match the `Relaxed` load in [`enabled`]: the
/// gate is advisory (a thread observing the flip late records or skips a
/// few events, never corrupts state), and every recorded event goes through
/// a mutex whose acquire/release ordering covers the data it guards.
pub fn enable() {
    STATE.store(1, Ordering::Relaxed);
}

/// Turns recording on with spans sampled 1-in-`period` per thread (a
/// `period` of 0 or 1 means full rate). Instants, metrics and span *ends*
/// are unaffected — sampling decides only whether a span records at all, so
/// begin/end pairs stay balanced. This is the production-profile mode: at
/// `period = 16` the storage/worker per-message spans cost 1/16th of their
/// full-rate overhead while still populating every histogram and counter.
pub fn enable_sampled(period: u32) {
    STATE.store(period.max(1), Ordering::Relaxed);
}

/// Turns recording off. Span guards already armed still record their end
/// event so begin/end pairs stay balanced.
pub fn disable() {
    STATE.store(0, Ordering::Relaxed);
}

/// Whether recording is on. This single relaxed load *is* the disabled-path
/// cost of every instrumentation point.
#[inline]
pub fn enabled() -> bool {
    STATE.load(Ordering::Relaxed) != 0
}

/// Current recording state: 0 = off, otherwise the span sampling period.
#[inline]
pub(crate) fn sample_state() -> u32 {
    STATE.load(Ordering::Relaxed)
}

/// The runtime layer an event belongs to (the Chrome trace `cat` field).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// The filter-stream dataflow substrate: filter lifetimes, stream traffic.
    Filterstream,
    /// The storage layer: loads, evictions, spills, seals, LRU decisions.
    Storage,
    /// The hierarchical scheduler: placement, reordering, prefetch decisions.
    Scheduler,
    /// The per-node worker: task executions, read/write pipeline windows.
    Worker,
    /// Fault injection and recovery: injected faults and the retries they provoke.
    Fault,
}

impl Category {
    /// The `cat` string used in exported traces.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Filterstream => "filterstream",
            Category::Storage => "storage",
            Category::Scheduler => "scheduler",
            Category::Worker => "worker",
            Category::Fault => "fault",
        }
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process's trace epoch (anchored on first use).
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Coarse trace clock for hot-path point events: a thread-locally cached
/// [`now_us`] refreshed every 32 reads. Point events (eviction notes, retry
/// markers, counter-style instants) don't need sub-microsecond placement,
/// and skipping 31 of 32 `clock_gettime` calls keeps the obs-enabled read
/// path inside its overhead budget. Per-thread monotonicity of emitted
/// events is enforced by the ring recorder's clamp, not here.
pub fn now_us_coarse() -> u64 {
    thread_local! {
        static CACHE: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
    }
    CACHE.with(|c| {
        let (t, left) = c.get();
        if left == 0 {
            let fresh = now_us();
            c.set((fresh, 31));
            fresh
        } else {
            c.set((t, left - 1));
            t
        }
    })
}

/// Interns a string, returning a `'static` name usable in events. Interned
/// names are deduplicated and leaked, so intern only low-cardinality names
/// (task kinds, filter names) — never per-item payloads.
pub fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<parking_lot::Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| parking_lot::Mutex::new(HashMap::new()));
    let mut pool = pool.lock();
    if let Some(&v) = pool.get(s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(s.to_string(), leaked);
    leaked
}

/// Serializes unit tests that toggle the global enable flag or drain rings.
#[cfg(test)]
pub(crate) fn serial_tests() -> parking_lot::MutexGuard<'static, ()> {
    static GATE: OnceLock<parking_lot::Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| parking_lot::Mutex::new(())).lock()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let a = intern("task:spmv");
        let b = intern("task:spmv");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "task:spmv");
    }

    #[test]
    fn categories_have_stable_strings() {
        assert_eq!(Category::Filterstream.as_str(), "filterstream");
        assert_eq!(Category::Storage.as_str(), "storage");
        assert_eq!(Category::Scheduler.as_str(), "scheduler");
        assert_eq!(Category::Worker.as_str(), "worker");
        assert_eq!(Category::Fault.as_str(), "fault");
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }
}

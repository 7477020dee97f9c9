//! Lock-light per-thread event rings.
//!
//! Each recording thread owns a bounded ring protected by its own mutex —
//! in steady state the only contention is the (rare) drain in
//! [`take_events`], so recording an event is an uncontended lock plus a
//! `VecDeque` push. Rings register themselves in a global list on a
//! thread's first event; [`take_events`] drains all of them into one
//! timestamp-sorted snapshot.

use crate::{enabled, now_us, now_us_coarse, Category};
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum events buffered per thread; past this, new events are dropped
/// (counted and reported in the snapshot, never silently).
pub const RING_CAPACITY: usize = 1 << 16;

/// One thread's bounded event buffer.
struct Ring {
    /// Trace thread id (dense, starts at 1).
    tid: u64,
    /// OS thread name at ring creation (`"?"` when unnamed).
    thread_name: String,
    events: VecDeque<Event>,
    dropped: u64,
}

/// Every thread's ring, in registration order.
static RINGS: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The calling thread's ring, once it has recorded an event.
    static LOCAL: RefCell<Option<Arc<Mutex<Ring>>>> = const { RefCell::new(None) };
}

/// What an [`Event`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (Chrome `ph: "B"`).
    Begin,
    /// A span closed (Chrome `ph: "E"`).
    End,
    /// A point event (Chrome `ph: "i"`).
    Instant,
}

/// One recorded trace event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Microseconds since the trace epoch.
    pub t_us: u64,
    /// Begin / end / instant.
    pub kind: EventKind,
    /// The runtime layer.
    pub cat: Category,
    /// Interned event name.
    pub name: &'static str,
    /// DOoC node id, or `-1` when the event is not tied to one node.
    pub node: i64,
    /// Optional free-form detail (exported as `args.detail`).
    pub arg: Option<String>,
}

fn record(mut ev: Event) {
    // Per-thread monotonic clamp: the coarse clock can lag the precise one,
    // so clamp each event to the thread's last emitted timestamp. Keeps the
    // per-thread stream non-decreasing, which the stable timestamp sort in
    // [`take_events`] turns into a correctly ordered merged trace.
    thread_local! {
        static LAST_TS: Cell<u64> = const { Cell::new(0) };
    }
    LAST_TS.with(|l| {
        let t = ev.t_us.max(l.get());
        l.set(t);
        ev.t_us = t;
    });
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let ring = slot.get_or_insert_with(|| {
            let ring = Arc::new(Mutex::new(Ring {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                thread_name: std::thread::current().name().unwrap_or("?").to_string(),
                events: VecDeque::with_capacity(256),
                dropped: 0,
            }));
            RINGS.lock().push(Arc::clone(&ring));
            ring
        });
        let mut r = ring.lock();
        if r.events.len() >= RING_CAPACITY {
            r.dropped += 1;
        } else {
            r.events.push_back(ev);
        }
    });
}

thread_local! {
    /// Countdown for 1-in-N span sampling (see [`crate::enable_sampled`]).
    static SPAN_TICK: Cell<u32> = const { Cell::new(0) };
}

/// One tick of the per-thread span sampler: true when this span records.
fn span_sampled(period: u32) -> bool {
    if period <= 1 {
        return true;
    }
    SPAN_TICK.with(|c| {
        let left = c.get();
        if left == 0 {
            c.set(period - 1);
            true
        } else {
            c.set(left - 1);
            false
        }
    })
}

/// RAII span: records `Begin` on creation (when recording is enabled) and
/// the matching `End` when dropped.
#[must_use = "the span ends when this guard drops"]
pub struct SpanGuard {
    armed: Option<(Category, &'static str, i64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((cat, name, node)) = self.armed.take() {
            // Recorded even if recording was disabled mid-span, so every
            // begin has its end and exported traces stay balanced.
            record(Event {
                t_us: now_us(),
                kind: EventKind::End,
                cat,
                name,
                node,
                arg: None,
            });
        }
    }
}

/// Opens a span on the current thread. While recording is disabled this is
/// one atomic load and the returned guard is inert; in sampled mode
/// ([`crate::enable_sampled`]) the same single load carries the period and
/// all but 1-in-N spans return an inert guard after a thread-local tick.
pub fn span(cat: Category, name: &'static str, node: i64) -> SpanGuard {
    let period = crate::sample_state();
    if period == 0 || !span_sampled(period) {
        return SpanGuard { armed: None };
    }
    record(Event {
        t_us: now_us(),
        kind: EventKind::Begin,
        cat,
        name,
        node,
        arg: None,
    });
    SpanGuard {
        armed: Some((cat, name, node)),
    }
}

/// Records a point event (coarse-clock timestamped; see
/// [`crate::now_us_coarse`]).
pub fn instant(cat: Category, name: &'static str, node: i64) {
    if !enabled() {
        return;
    }
    record(Event {
        t_us: now_us_coarse(),
        kind: EventKind::Instant,
        cat,
        name,
        node,
        arg: None,
    });
}

/// Records a point event with a detail string; the closure (and any
/// formatting it does) only runs while recording is enabled.
pub fn instant_arg<F: FnOnce() -> String>(cat: Category, name: &'static str, node: i64, arg: F) {
    if !enabled() {
        return;
    }
    record(Event {
        t_us: now_us_coarse(),
        kind: EventKind::Instant,
        cat,
        name,
        node,
        arg: Some(arg()),
    });
}

/// A drained copy of every thread's ring.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// `(tid, event)` pairs sorted by timestamp (stable: per-thread order
    /// is preserved among equal timestamps).
    pub events: Vec<(u64, Event)>,
    /// `(tid, thread name)` for every thread that recorded events.
    pub threads: Vec<(u64, String)>,
    /// Events dropped because a ring hit [`RING_CAPACITY`].
    pub dropped: u64,
}

/// Drains every thread's ring into one timestamp-sorted snapshot. Call
/// after the traced workload has quiesced (so all span guards dropped).
pub fn take_events() -> TraceSnapshot {
    let rings: Vec<Arc<Mutex<Ring>>> = RINGS.lock().clone();
    let mut events = Vec::new();
    let mut threads = Vec::with_capacity(rings.len());
    let mut dropped = 0;
    for ring in rings {
        let mut r = ring.lock();
        dropped += std::mem::take(&mut r.dropped);
        let tid = r.tid;
        threads.push((tid, r.thread_name.clone()));
        events.extend(r.events.drain(..).map(|e| (tid, e)));
    }
    events.sort_by_key(|(_, e)| e.t_us);
    threads.sort();
    TraceSnapshot {
        events,
        threads,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Category;

    // The enable flag and rings are process-global; serialize the tests
    // that toggle them.
    use crate::serial_tests as serial;

    #[test]
    fn disabled_records_nothing() {
        let _g = serial();
        crate::disable();
        let _ = take_events();
        {
            let _s = span(Category::Worker, "quiet", 0);
            instant(Category::Worker, "quiet-i", 0);
            instant_arg(Category::Worker, "quiet-a", 0, || unreachable!());
        }
        assert!(take_events().events.is_empty());
    }

    #[test]
    fn span_records_balanced_pair() {
        let _g = serial();
        let _ = take_events();
        crate::enable();
        {
            let _s = span(Category::Storage, "load", 3);
        }
        instant_arg(Category::Storage, "evict", 3, || "a@0".to_string());
        crate::disable();
        let snap = take_events();
        let kinds: Vec<EventKind> = snap.events.iter().map(|(_, e)| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Begin, EventKind::End, EventKind::Instant]
        );
        assert_eq!(snap.events[0].1.name, "load");
        assert_eq!(snap.events[0].1.node, 3);
        assert_eq!(snap.events[2].1.arg.as_deref(), Some("a@0"));
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn end_still_recorded_after_disable() {
        let _g = serial();
        let _ = take_events();
        crate::enable();
        let s = span(Category::Worker, "late-end", 1);
        crate::disable();
        drop(s);
        let snap = take_events();
        assert_eq!(snap.events.len(), 2, "begin and end both present");
        assert_eq!(snap.events[1].1.kind, EventKind::End);
    }

    #[test]
    fn cross_thread_events_merge_sorted() {
        let _g = serial();
        let _ = take_events();
        crate::enable();
        instant(Category::Scheduler, "main", -1);
        std::thread::spawn(|| {
            instant(Category::Worker, "spawned", 0);
        })
        .join()
        .ok();
        crate::disable();
        let snap = take_events();
        assert_eq!(snap.events.len(), 2);
        let tids: std::collections::HashSet<u64> =
            snap.events.iter().map(|(tid, _)| *tid).collect();
        assert_eq!(tids.len(), 2, "two distinct threads");
        assert!(snap.events.windows(2).all(|w| w[0].1.t_us <= w[1].1.t_us));
    }

    #[test]
    fn sampled_mode_records_one_in_n_spans_balanced() {
        let _g = serial();
        let _ = take_events();
        // Burn whatever is left in this thread's sampling countdown from
        // other tests so the 1-in-4 pattern starts fresh.
        crate::enable_sampled(1);
        {
            let _s = span(Category::Worker, "sync-tick", 0);
        }
        let _ = take_events();
        crate::enable_sampled(4);
        for _ in 0..16 {
            let _s = span(Category::Storage, "sampled", 1);
        }
        crate::disable();
        let snap = take_events();
        let begins = snap
            .events
            .iter()
            .filter(|(_, e)| e.kind == EventKind::Begin)
            .count();
        let ends = snap
            .events
            .iter()
            .filter(|(_, e)| e.kind == EventKind::End)
            .count();
        assert_eq!(begins, 4, "16 spans at period 4 record 4");
        assert_eq!(ends, begins, "sampled spans stay balanced");
    }

    #[test]
    fn sampled_mode_keeps_instants_full_rate() {
        let _g = serial();
        let _ = take_events();
        crate::enable_sampled(8);
        for _ in 0..10 {
            instant(Category::Worker, "point", 0);
        }
        crate::disable();
        let snap = take_events();
        assert_eq!(snap.events.len(), 10, "instants are never sampled away");
    }

    #[test]
    fn coarse_instants_never_sort_before_precise_spans() {
        let _g = serial();
        let _ = take_events();
        crate::enable();
        for _ in 0..100 {
            {
                let _s = span(Category::Storage, "hot", 0);
            }
            instant(Category::Storage, "hot-i", 0);
        }
        crate::disable();
        let snap = take_events();
        // The monotonic clamp guarantees non-decreasing per-thread
        // timestamps even though instants use the coarse cached clock.
        assert!(snap.events.windows(2).all(|w| w[0].1.t_us <= w[1].1.t_us));
        let kinds: Vec<EventKind> = snap.events.iter().map(|(_, e)| e.kind).collect();
        for c in kinds.chunks(3) {
            assert_eq!(c, [EventKind::Begin, EventKind::End, EventKind::Instant]);
        }
    }

    #[test]
    fn overflow_counts_drops_instead_of_growing() {
        let _g = serial();
        let _ = take_events();
        crate::enable();
        for _ in 0..(RING_CAPACITY + 10) {
            instant(Category::Worker, "flood", 0);
        }
        crate::disable();
        let snap = take_events();
        let mine = snap.events.len();
        assert!(mine <= RING_CAPACITY);
        assert!(snap.dropped >= 10);
    }
}

//! Seeded-race twin tests for the dooc-race happens-before detector.
//!
//! Every positive harness ("synchronization present, no race") has a
//! negative twin with the synchronization deliberately removed; the
//! detector must flag every twin and stay silent on every positive. Two
//! tiers:
//!
//! * **Recorded real runtime** (feature `record`): sibling OS threads
//!   spawned through the facade annotate conflicting accesses to one
//!   shared address. The racy twins (feature `seeded-race`, never on
//!   outside these tests) skip the lock / use `Relaxed` atomics; the clean
//!   twins hold a facade `Mutex` or use release/acquire edges. One pair
//!   hands a block across a stream as a buffer's bulk attachment: clean
//!   through the channel edge, caught when the consumer sees the bulk
//!   before its send.
//! * **Explored model runtime** (feature `model`): the same twins run
//!   under dooc-shuttle, which race-checks every explored schedule. The
//!   racy twin must fail with [`FailureKind::Race`] and a replayable
//!   schedule token across the explored schedules; the locked twin must
//!   stay clean over the same schedule count.
//!
//! Run with:
//!
//! ```text
//! cargo test -p dooc-check --features record,seeded-race --test race_twins
//! cargo test -p dooc-check --features model,seeded-race --test race_twins
//! ```

#![cfg(any(feature = "record", feature = "model"))]

use dooc_sync::record;
use dooc_sync::{thread, Mutex};
use std::sync::Arc;

/// Stable per-allocation address for annotation purposes.
fn addr<T>(cell: &Arc<T>) -> usize {
    Arc::as_ptr(cell) as usize
}

/// Runs `f` as a recorded session (exclusive: the recorder is process
/// global) and returns the analyzed report.
fn recorded(f: impl FnOnce()) -> dooc_check::race::RaceReport {
    let _session = record::session();
    record::clear();
    record::arm();
    f();
    record::disarm();
    let log = record::take_log();
    dooc_check::race::analyze(&log).expect("recorded log parses")
}

/// Two sibling threads each write the shared cell under the mutex: every
/// write pair is ordered by the lock's release→acquire edges.
fn locked_siblings() {
    let cell = Arc::new(Mutex::new(0u64));
    let handles: Vec<_> = (0..2)
        .map(|i| {
            let c = Arc::clone(&cell);
            thread::spawn(move || {
                let mut g = c.lock();
                record::data_write(addr(&c));
                *g += i;
            })
        })
        .collect();
    for h in handles {
        h.join().expect("locked sibling");
    }
}

/// Twin of [`locked_siblings`] with the lock deliberately not held around
/// the annotated write: sibling threads have no happens-before edge, so
/// the two writes race.
#[cfg(feature = "seeded-race")]
fn racy_siblings() {
    let cell = Arc::new(Mutex::new(0u64));
    let handles: Vec<_> = (0..2)
        .map(|i| {
            let c = Arc::clone(&cell);
            thread::spawn(move || {
                record::data_write(addr(&c));
                let mut g = c.lock();
                *g += i;
            })
        })
        .collect();
    for h in handles {
        h.join().expect("racy sibling");
    }
}

/// Release/acquire atomic handoff: the writer publishes with a `Release`
/// store, the reader spins on an `Acquire` load — the annotated write and
/// read are ordered through the atomic edge.
fn published_handoff(release: bool) {
    use dooc_sync::atomic::{AtomicBool, Ordering};
    let cell = Arc::new(AtomicBool::new(false));
    let flag = Arc::new(AtomicBool::new(false));
    let (c2, f2) = (Arc::clone(&cell), Arc::clone(&flag));
    let (store, load) = if release {
        (Ordering::Release, Ordering::Acquire)
    } else {
        (Ordering::Relaxed, Ordering::Relaxed)
    };
    let writer = thread::spawn(move || {
        record::data_write(addr(&c2));
        f2.store(true, store);
    });
    while !flag.load(load) {
        std::hint::spin_loop();
    }
    record::data_read(addr(&cell));
    writer.join().expect("writer");
}

/// A block handed to another thread through a stream: the producer attaches
/// it as the buffer's bulk, the consumer detaches it after `recv`. The
/// stream layer annotates the bulk on both sides and the channel's
/// send→recv edge orders the pair. With `peek_before_send` the consumer
/// first looks at the block through a clone it was handed at spawn — the
/// bulk is observable before its send, which no edge orders. Recorded tier
/// only: the modeled channel records its edges inside the explorer alone.
#[cfg(all(feature = "record", not(feature = "model")))]
fn stream_bulk_handoff(peek_before_send: bool) {
    use dooc_filterstream::{DataBuffer, NodeId, StreamSet};
    let (w, r) = StreamSet::standalone("blocks", 4);
    let block = bytes::Bytes::from(vec![7u8; 4096]);
    let peek = block.clone();
    let consumer = thread::spawn(move || {
        if peek_before_send {
            record::data_read(peek.as_ptr() as usize);
        }
        let got = r.recv().expect("one buffer");
        assert_eq!(got.bulk.as_ptr(), peek.as_ptr(), "the block, not a copy");
    });
    let producer = thread::spawn(move || {
        let mut buf = DataBuffer::tag_only(1);
        buf.bulk = block;
        w.send_to(NodeId(0), buf).expect("stream open");
    });
    producer.join().expect("producer");
    consumer.join().expect("consumer");
}

// ---------------------------------------------------------------------------
// Recorded real-runtime twins.
// ---------------------------------------------------------------------------

#[test]
fn recorded_locked_siblings_are_clean() {
    let report = recorded(locked_siblings);
    assert!(report.clean(), "{}", report.render());
}

#[cfg(feature = "seeded-race")]
#[test]
fn recorded_racy_siblings_are_caught() {
    let report = recorded(racy_siblings);
    assert!(!report.races.is_empty(), "{}", report.render());
    let r = &report.races[0];
    assert_eq!(r.kind, dooc_check::race::RaceKind::WriteWrite, "{r}");
    // Both conflicting sites point into this file.
    assert!(
        r.first.site.contains("race_twins.rs") && r.second.site.contains("race_twins.rs"),
        "{r}"
    );
}

#[test]
fn recorded_release_acquire_handoff_is_clean() {
    let report = recorded(|| published_handoff(true));
    assert!(report.clean(), "{}", report.render());
}

#[cfg(feature = "seeded-race")]
#[test]
fn recorded_relaxed_handoff_is_caught() {
    // Relaxed atomics really do order the spin loop at runtime (x86 gives
    // it away for free), but carry no happens-before edge: the detector
    // must still flag the annotated pair.
    let report = recorded(|| published_handoff(false));
    assert!(!report.races.is_empty(), "{}", report.render());
    assert_eq!(
        report.races[0].kind,
        dooc_check::race::RaceKind::WriteRead,
        "{}",
        report.races[0]
    );
}

#[cfg(all(feature = "record", not(feature = "model")))]
#[test]
fn recorded_stream_bulk_handoff_is_clean() {
    let report = recorded(|| stream_bulk_handoff(false));
    assert!(report.clean(), "{}", report.render());
}

#[cfg(all(feature = "record", not(feature = "model"), feature = "seeded-race"))]
#[test]
fn recorded_bulk_observable_before_its_send_is_caught() {
    // Only the bulk is shared here (the head is empty), so this fails if the
    // stream layer annotates `payload` alone.
    let report = recorded(|| stream_bulk_handoff(true));
    assert!(!report.races.is_empty(), "{}", report.render());
    assert!(
        report.races[0].first.site.contains("race_twins.rs")
            || report.races[0].second.site.contains("race_twins.rs"),
        "{}",
        report.races[0]
    );
}

// ---------------------------------------------------------------------------
// Explored model-runtime twins: dooc-shuttle race-checks every schedule.
// ---------------------------------------------------------------------------

#[cfg(feature = "model")]
mod explored {
    use super::*;
    #[cfg(feature = "seeded-race")]
    use dooc_check::explore::replay;
    use dooc_check::explore::{explore, ExploreOpts};
    #[cfg(feature = "seeded-race")]
    use dooc_sync::model::FailureKind;

    /// At least four distinct schedules per twin (acceptance floor).
    fn opts() -> ExploreOpts {
        ExploreOpts {
            seeds: 8,
            dfs: true,
            dfs_budget: 64,
            ..ExploreOpts::default()
        }
    }

    #[test]
    fn explored_locked_siblings_are_clean_across_schedules() {
        let report = explore("race_twin[locked]", opts(), locked_siblings);
        assert!(
            report.executions >= 4,
            "only {} schedules",
            report.executions
        );
        report.assert_clean("race_twin[locked]");
    }

    #[cfg(feature = "seeded-race")]
    #[test]
    fn explored_racy_siblings_fail_with_race_and_token_replays() {
        let report = explore("race_twin[racy]", opts(), racy_siblings);
        let case = report.expect_failure("race_twin[racy]");
        assert_eq!(case.failure.kind, FailureKind::Race);
        assert!(
            case.failure.message.contains("write/write"),
            "{}",
            case.failure.message
        );
        // The schedule token replays to the same race verdict. `replay`
        // runs outside the explorer, so record the window by hand. (The
        // event-sequence comparison used by the panic twins does not apply:
        // the race verdict is attached after the run, not raised inside it.)
        let replay_report = recorded(|| {
            let outcome = replay(&case.token, racy_siblings);
            assert!(
                outcome.failure.is_none(),
                "racy twin must not fail inside the scheduler: {:?}",
                outcome.failure
            );
        });
        assert!(
            !replay_report.races.is_empty(),
            "{}",
            replay_report.render()
        );
    }
}

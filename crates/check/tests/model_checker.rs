//! End-to-end model-checker runs over the real storage node: the node as
//! shipped is violation-free over each scenario's whole bounded state space,
//! and every seeded bug is caught with a concrete counterexample trace.
//!
//! Run with `cargo test -p dooc-check --test model_checker`.

use dooc_check::model::{explore, ExploreStats, Model};
use dooc_storage::node::SeededBugs;

fn clean(model: &Model) -> ExploreStats {
    let stats = explore(model).unwrap_or_else(|v| panic!("unexpected violation:\n{v}"));
    eprintln!("{stats:?}");
    assert!(stats.transitions > stats.states, "{stats:?}");
    assert!(stats.terminals >= 1, "{stats:?}");
    stats
}

/// `(states, transitions, terminals)`: the explored space, pinned per
/// scenario so a change to the node's state representation that merges or
/// splits states shows up as a moved count, not as a silent pass. The
/// counts last fell when a failed read became final: the I/O filter retries
/// it before it answers, so the node has no backoff states and the checker
/// no tick step.
fn space(stats: &ExploreStats) -> (usize, usize, usize) {
    (stats.states, stats.transitions, stats.terminals)
}

fn expect_violation(model: &Model, invariant: &str) -> Vec<String> {
    match explore(model) {
        Ok(stats) => panic!("{model:?} went undetected over {stats:?}"),
        Err(v) => {
            assert_eq!(v.invariant, invariant, "wrong invariant:\n{v}");
            assert!(
                !v.trace.is_empty(),
                "counterexample must carry a trace:\n{v}"
            );
            v.trace
        }
    }
}

#[test]
fn faithful_protocol_has_no_violations() {
    // Two writers, two readers of each block, one eviction at any point, and
    // every I/O completing or failing: a nontrivial space, fully covered.
    let stats = clean(&Model::standard(SeededBugs::default()));
    assert_eq!(space(&stats), (6_191, 14_577, 342), "{stats:?}");
    assert_eq!(stats.refused, 0, "{stats:?}");
    // Block 0 is released as checked: some runs read it back marked, and
    // some — an eviction and reload in between, or a read before the mark —
    // unmarked.
    assert!(
        0 < stats.marked && stats.marked < stats.terminals,
        "{stats:?}"
    );
}

#[test]
fn write_contention_refuses_the_second_writer() {
    // Write-once arrays: the second writer of block 0 is refused — never
    // parked, never sealed — on every interleaving.
    let stats = clean(&Model::write_contention(SeededBugs::default()));
    assert_eq!(space(&stats), (25, 36, 2), "{stats:?}");
    assert_eq!(stats.refused, stats.terminals, "{stats:?}");
    assert_eq!(stats.marked, 0, "nobody marks: {stats:?}");
}

#[test]
fn faithful_resident_protocol_has_no_violations() {
    // Repeated Resident queries race writes, seals, reads, spills, evictions
    // and reloads; every answer matches what the node holds at that moment.
    let stats = clean(&Model::resident_protocol(SeededBugs::default()));
    assert_eq!(space(&stats), (457, 1_124, 22), "{stats:?}");
    // Both answers were checked: some runs see the array listed, some never.
    assert!(
        0 < stats.listed && stats.listed < stats.terminals,
        "{stats:?}"
    );
}

#[test]
fn evicting_pinned_block_is_caught() {
    let bugs = SeededBugs {
        evict_ignores_pins: true,
        ..SeededBugs::default()
    };
    let trace = expect_violation(&Model::standard(bugs), "no-evict-pinned");
    assert!(
        trace.iter().any(|s| s.contains("Read")),
        "the victim was pinned by a read: {trace:?}"
    );
}

#[test]
fn eviction_without_spill_loses_data() {
    let bugs = SeededBugs {
        evict_skips_spill: true,
        ..SeededBugs::default()
    };
    let trace = expect_violation(&Model::standard(bugs), "reads-answered");
    // BFS: the shortest way to lose a block is to seal it and push it out.
    assert!(
        trace.len() <= 4,
        "BFS finds a short counterexample: {trace:?}"
    );
}

#[test]
fn skipped_release_breaks_refcount_balance() {
    let model = Model::standard(SeededBugs::default()).without_releases(0);
    expect_violation(&model, "balanced-at-quiescence");
}

#[test]
fn faithful_demote_protocol_has_no_violations() {
    // Demotions race pins, seals, spills, loads and failures: pinned blocks
    // stay, dirty ones are written before they go, parked reads progress.
    let stats = clean(&Model::demote_protocol(SeededBugs::default()));
    assert_eq!(space(&stats), (810, 1_404, 99), "{stats:?}");
}

#[test]
fn demoting_does_not_hide_an_evicted_pin() {
    let bugs = SeededBugs {
        evict_ignores_pins: true,
        ..SeededBugs::default()
    };
    let trace = expect_violation(&Model::demote_protocol(bugs), "no-evict-pinned");
    assert!(
        trace.iter().any(|s| s.contains("Read")),
        "the victim was pinned by a read: {trace:?}"
    );
}

#[test]
fn demoting_does_not_hide_an_unspilled_eviction() {
    let bugs = SeededBugs {
        evict_skips_spill: true,
        ..SeededBugs::default()
    };
    expect_violation(&Model::demote_protocol(bugs), "reads-answered");
}

//! How often a `multiply` validates its matrix, counted by
//! `linalg.matrix_checks` (a full `CsrRef::new` pass) and
//! `linalg.matrix_checks_skipped` (the cell's resident bytes were released
//! as checked and have not left memory since). In core every cell is
//! checked once per run; out of core a reloaded cell is checked again.
//!
//! The counters are process-wide, so the runs here take turns.

use dooc_core::{DoocConfig, DoocRuntime, NodeStats};
use dooc_linalg::spmv_app::{tiled_owner, ReductionPlan, SpmvAppBuilder, SpmvExecutor, SyncPolicy};
use dooc_sparse::blockgrid::BlockGrid;
use dooc_sparse::genmat::GapGenerator;
use std::sync::Arc;

#[allow(
    clippy::disallowed_types,
    reason = "a test binary's serializing gate, not runtime code; poison is recovered at each lock"
)]
static ONE_RUN_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

const K: u64 = 4;
const ITERS: u64 = 3;

/// Runs `ITERS` iterations over a `K`×`K` grid of `n`×`n` on one node with
/// `budget` bytes, checks the product, and returns the node's counters with
/// how many multiplies validated their matrix and how many skipped it.
fn run(tag: &str, n: u64, budget: u64) -> (NodeStats, u64, u64) {
    let _turn = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    dooc_obs::enable();
    let checks = dooc_obs::metrics::counter("linalg.matrix_checks");
    let skipped = dooc_obs::metrics::counter("linalg.matrix_checks_skipped");
    let cfg = DoocConfig::in_temp_dirs(tag, 1)
        .expect("cfg")
        .memory_budget(budget)
        .threads_per_node(2)
        .prefetch_window(2);
    let (grid, gen, seed) = (BlockGrid::new(K, n), GapGenerator::with_d(3), 42);
    let blocks = SpmvAppBuilder::stage(&cfg.scratch_dirs, grid, &gen, seed, tiled_owner(K, 1))
        .expect("stage");
    let app = SpmvAppBuilder::new(grid, ITERS, blocks)
        .reduction(ReductionPlan::RowRoot)
        .sync(SyncPolicy::None);
    let x0: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.17).sin() + 1.0).collect();
    app.stage_initial_vector(&cfg.scratch_dirs, &x0)
        .expect("stage x0");
    let (graph, external, geometry) = app.build();
    let mut cfg = cfg;
    for (name, len, bs) in geometry {
        cfg = cfg.with_geometry(name, len, bs);
    }
    let (checks0, skipped0) = (checks.get(), skipped.get());
    let report = DoocRuntime::new(cfg.clone())
        .run(graph, external, Arc::new(SpmvExecutor))
        .expect("run");
    let counts = (checks.get() - checks0, skipped.get() - skipped0);
    let got = app
        .collect_final_vector(&cfg.scratch_dirs)
        .expect("collect");
    let want = app.reference_result(&gen, seed, &x0);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-9 * w.abs().max(1.0),
            "entry {i}: {g} vs {w}"
        );
    }
    for d in &cfg.scratch_dirs {
        std::fs::remove_dir_all(d).ok();
    }
    (report.node_stats[0], counts.0, counts.1)
}

#[test]
fn in_core_every_cell_is_checked_once_per_run() {
    let (st, checks, skipped) = run("checks-incore", 160, 64 << 20);
    assert_eq!(st.evictions, 0, "the matrix must fit: {st:?}");
    assert_eq!((checks, skipped), (K * K, K * K * (ITERS - 1)));
}

#[test]
fn a_reloaded_cell_is_checked_again() {
    // About one cell plus the vectors fits: cells are evicted and re-read
    // every iteration, and each reload is validated afresh.
    let (st, checks, skipped) = run("checks-ooc", 160, 40_000);
    assert!(st.evictions > 0, "expected reloads: {st:?}");
    assert_eq!(
        checks + skipped,
        K * K * ITERS,
        "one or the other per multiply"
    );
    assert!(skipped < checks, "{checks} checked, {skipped} skipped");
}

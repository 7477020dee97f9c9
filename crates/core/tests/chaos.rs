//! Chaos suite: deterministic fault schedules against a 2-node iterated
//! SpMV (the paper's §IV workload).
//!
//! Each schedule — I/O error storm, whole-node storage crash, and an
//! acceptance burst of disk errors — is driven by the seeded
//! `dooc-faultline` registry and run for 10 fixed seeds. Under the
//! immutable-array model both recovery paths (bounded I/O retry,
//! crash-restart with journal replay and scratch rescan) must reproduce
//! the fault-free result **bitwise**: floating-point
//! summation order is fixed by the DAG, so any divergence means a recovery
//! path corrupted or skipped data. Every seed must also see each scheduled
//! site inject at least once, so a schedule that never triggers cannot pass.
//! A failing seed is printed in the panic message for replay. No schedule
//! loses or reorders a stream message: streams are reliable and ordered by
//! contract, so nothing here needs a deadline.
//!
//! All tests serialize on `faultline::test_gate()` — the fault registry and
//! the obs metric registry are process-global.

#![cfg(feature = "faultline")]

use dooc_core::{DoocConfig, DoocRuntime, RecoveryPolicy};
use dooc_faultline as faultline;
use dooc_linalg::spmv_app::{ReductionPlan, SpmvAppBuilder, SpmvExecutor, SyncPolicy};
use dooc_sparse::blockgrid::{BlockCoord, BlockGrid};
use dooc_sparse::genmat::GapGenerator;
use faultline::FaultSpec;
use std::sync::Arc;

/// Grid dimension: 2×2 sub-matrices over 2 nodes.
const K: u64 = 2;
/// Matrix order.
const N: u64 = 64;
/// SpMV iterations.
const ITERS: u64 = 3;
/// Seed of the deterministic matrix generator (not the fault seed).
const MAT_SEED: u64 = 9;

/// Row-based ownership: row `u` of the grid lives on node `u % 2`. (The
/// experiments' `tiled_owner` wants a perfect-square node count, which 2 is
/// not.) Multiplies of row `u` then read the column vector `x_{i-1,v}` from
/// node `v % 2`, so every iteration crosses the peer stream twice.
fn owner(c: BlockCoord) -> u64 {
    c.u % 2
}

/// Seeds each schedule runs under. `DOOC_CHAOS_SEEDS` (comma-separated)
/// overrides the default 10 fixed seeds — the CI `chaos-smoke` job sets it
/// to a 3-seed subset to keep the job fast.
fn seeds() -> Vec<u64> {
    match std::env::var("DOOC_CHAOS_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => (0..10).collect(),
    }
}

fn cleanup(cfg: &DoocConfig) {
    for d in &cfg.scratch_dirs {
        std::fs::remove_dir_all(d).ok();
        if let Some(parent) = d.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// Runs the 2-node iterated SpMV once under `schedule` — `(site, spec)`
/// pairs armed after `faultline::seed(seed)` — and returns the persisted
/// final vector. Each scheduled site must have injected at least one fault
/// by the end of the run (read before the registry is reset).
fn run_spmv(tag: &str, seed: u64, schedule: &[(&str, FaultSpec)]) -> Vec<f64> {
    let base = DoocConfig::in_temp_dirs(tag, 2).expect("cfg");
    let grid = BlockGrid::new(K, N);
    let gen = GapGenerator::with_d(4);
    let blocks = SpmvAppBuilder::stage(&base.scratch_dirs, grid, &gen, MAT_SEED, owner)
        .expect("stage matrices");
    let app = SpmvAppBuilder::new(grid, ITERS, blocks)
        .reduction(ReductionPlan::RowRoot)
        .sync(SyncPolicy::None);
    let x0: Vec<f64> = (0..N).map(|i| (i % 7) as f64 + 1.0).collect();
    app.stage_initial_vector(&base.scratch_dirs, &x0)
        .expect("stage x0");
    let (graph, external, geometry) = app.build();
    let mut cfg = base.clone().recovery(RecoveryPolicy {
        // Generous retry budget: five failures of one read in a row still
        // recover, so no storm capped at five injections can fail a run.
        io_retry_max: 5,
        io_retry_backoff_ticks: 1,
    });
    for (name, len, bs) in geometry {
        cfg = cfg.with_geometry(name, len, bs);
    }

    faultline::reset();
    faultline::seed(seed);
    for (site, spec) in schedule {
        faultline::configure(site, spec.clone());
    }
    faultline::enable();
    let report = DoocRuntime::new(cfg.clone()).run(graph, external, Arc::new(SpmvExecutor));
    let silent: Vec<&str> = schedule
        .iter()
        .map(|&(site, _)| site)
        .filter(|site| faultline::injected(site) == 0)
        .collect();
    faultline::reset();
    report.expect("chaos run must complete");
    assert!(
        silent.is_empty(),
        "{tag} seed {seed}: sites {silent:?} never fired — the schedule proved nothing"
    );

    let x = app
        .collect_final_vector(&cfg.scratch_dirs)
        .expect("persisted final vector");
    cleanup(&base);
    x
}

/// Bitwise comparison with the failing seed in the panic message.
fn assert_bitwise(schedule: &str, seed: u64, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{schedule}: seed {seed} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "chaos schedule '{schedule}' seed {seed} diverged at x[{i}]: \
             {g:?} != fault-free {w:?} — replay with faultline::seed({seed})"
        );
    }
}

#[test]
fn fault_free_run_matches_in_core_reference() {
    let _g = faultline::test_gate();
    let x = run_spmv("chaos-ref", 0, &[]);
    // Rebuild the app descriptor to get the reference (the staged files are
    // regenerated deterministically from MAT_SEED).
    let grid = BlockGrid::new(K, N);
    let gen = GapGenerator::with_d(4);
    let blocks = SpmvAppBuilder::stage(
        &DoocConfig::in_temp_dirs("chaos-ref-blocks", 2)
            .expect("cfg")
            .scratch_dirs,
        grid,
        &gen,
        MAT_SEED,
        owner,
    )
    .expect("stage");
    let app = SpmvAppBuilder::new(grid, ITERS, blocks);
    let x0: Vec<f64> = (0..N).map(|i| (i % 7) as f64 + 1.0).collect();
    let reference = app.reference_result(&gen, MAT_SEED, &x0);
    assert_eq!(x.len(), reference.len());
    for (g, w) in x.iter().zip(&reference) {
        assert!(
            (g - w).abs() <= 1e-9 * w.abs().max(1.0),
            "distributed result off the in-core reference: {g} vs {w}"
        );
    }
}

#[test]
fn io_error_storm_converges_bitwise() {
    let _g = faultline::test_gate();
    let baseline = run_spmv("chaos-io-base", 0, &[]);
    for seed in seeds() {
        // This run reads only a handful of blocks from disk, so a 10% storm
        // fires zero times for some seeds; half the reads fail instead, and
        // the cap keeps every read within its retry budget.
        let storm = [(
            "storage.io.read",
            FaultSpec::error().with_prob(0.5).with_max(5),
        )];
        let got = run_spmv("chaos-io", seed, &storm);
        assert_bitwise("io-error-storm", seed, &got, &baseline);
    }
}

#[test]
fn storage_node_crash_converges_bitwise() {
    let _g = faultline::test_gate();
    let baseline = run_spmv("chaos-crash-base", 0, &[]);
    for seed in seeds() {
        // Fire-stop one storage node at its ~10th quiescent point (the
        // crash site only consults the schedule when a restart cannot lose
        // data), then let the journal replay + scratch rescan carry the
        // run.
        let crash = [(
            "storage.node.crash",
            FaultSpec::fire().with_after(10).with_max(1),
        )];
        let got = run_spmv("chaos-crash", seed, &crash);
        assert_bitwise("node-crash", seed, &got, &baseline);
    }
}

/// The acceptance schedule: the first three disk reads fail. The run must
/// complete bitwise-identical AND the recovery has to be *visible* — at
/// least one storage I/O retry in the metrics. (A guaranteed burst rather
/// than a 10% storm: this small run issues few enough disk reads that a
/// probabilistic schedule can fire zero times for some seeds.)
#[test]
fn acceptance_io_retries_visible() {
    let _g = faultline::test_gate();
    let baseline = run_spmv("chaos-accept-base", 0, &[]);
    dooc_obs::enable();
    let io_retries = dooc_obs::metrics::counter("storage.io_retries");
    let injected = dooc_obs::metrics::counter("fault.faults_injected");
    let (r0, f0) = (io_retries.get(), injected.get());
    let burst = [(
        "storage.io.read",
        FaultSpec::error().with_prob(1.0).with_max(3),
    )];
    let got = run_spmv("chaos-accept", 7, &burst);
    let (r1, f1) = (io_retries.get(), injected.get());
    // CI `chaos-smoke` artifact: Chrome trace + metrics dump of the faulted
    // run, showing every injection and retry.
    if let Ok(path) = std::env::var("DOOC_CHAOS_TRACE") {
        let snap = dooc_obs::ring::take_events();
        std::fs::write(&path, dooc_obs::trace::chrome_trace(&snap)).expect("write chaos trace");
    }
    if let Ok(path) = std::env::var("DOOC_CHAOS_METRICS") {
        std::fs::write(&path, dooc_obs::metrics::dump_metrics()).expect("write chaos metrics");
    }
    dooc_obs::disable();
    assert_bitwise("acceptance", 7, &got, &baseline);
    assert!(
        f1 > f0,
        "fault.faults_injected did not count the injections"
    );
    assert!(
        r1 > r0,
        "trace shows no storage I/O retry despite the error storm"
    );
}

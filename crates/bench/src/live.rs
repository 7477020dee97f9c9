//! Traced live runs: execute an iterated SpMV on the real middleware with
//! observability enabled and export the captured events as a Chrome
//! `trace_event` JSON file plus a plain-text metrics dump.
//!
//! `reproduce` ends with one; its artifacts have the shape `obs_validate`
//! checks.

use dooc_core::{DoocConfig, DoocRuntime};
use dooc_linalg::spmv_app::{ReductionPlan, SpmvAppBuilder, SpmvExecutor, SyncPolicy};
use dooc_sparse::blockgrid::BlockGrid;
use dooc_sparse::genmat::GapGenerator;
use std::path::Path;
use std::sync::Arc;

/// What a traced run captured, for reporting and smoke assertions.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// Total events exported (spans count once per B/E pair).
    pub events: usize,
    /// Events dropped to ring overflow (0 in the bench configurations).
    pub dropped: u64,
    /// Distinct categories seen (layer coverage).
    pub categories: Vec<String>,
    /// Wall time of the traced run in seconds.
    pub wall_s: f64,
}

/// Runs a `nnodes`-node iterated SpMV (K×K grid, vector length `n`,
/// row-tiled block ownership) with tracing enabled, then writes the Chrome
/// trace to `trace_path` and the metrics dump to `metrics_path`.
///
/// Tracing is process-global: this drains any previously recorded events
/// first so the artifact covers exactly this run, and leaves tracing
/// disabled on return.
pub fn run_traced_spmv(
    tag: &str,
    nnodes: usize,
    k: u64,
    n: u64,
    iterations: u64,
    trace_path: &Path,
    metrics_path: &Path,
) -> Result<TraceSummary, String> {
    let cfg = DoocConfig::in_temp_dirs(tag, nnodes)
        .map_err(|e| format!("config: {e}"))?
        .memory_budget(64 << 20)
        .threads_per_node(2)
        .prefetch_window(2);
    let grid = BlockGrid::new(k, n);
    let gen = GapGenerator::with_d(3);
    let nn = nnodes as u64;
    let blocks = SpmvAppBuilder::stage(&cfg.scratch_dirs, grid, &gen, 42, |c| c.u % nn)
        .map_err(|e| format!("stage: {e}"))?;
    let app = SpmvAppBuilder::new(grid, iterations, blocks)
        .reduction(ReductionPlan::LocalAggregation)
        .sync(SyncPolicy::IterationBarrier);
    let x0: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.17).sin() + 1.0).collect();
    app.stage_initial_vector(&cfg.scratch_dirs, &x0)
        .map_err(|e| format!("stage x0: {e}"))?;
    let (graph, external, geometry) = app.build();
    let mut cfg = cfg;
    for (name, len, bs) in geometry {
        cfg = cfg.with_geometry(name, len, bs);
    }

    dooc_obs::take_events(); // drain stale events from earlier sections
    dooc_obs::enable();
    let t0 = std::time::Instant::now();
    let run = DoocRuntime::new(cfg.clone()).run(graph, external, Arc::new(SpmvExecutor));
    let wall_s = t0.elapsed().as_secs_f64();
    dooc_obs::disable();
    let snap = dooc_obs::take_events();
    for d in &cfg.scratch_dirs {
        std::fs::remove_dir_all(d).ok();
    }
    run.map_err(|e| format!("traced run: {e}"))?;

    let trace = dooc_obs::chrome_trace(&snap);
    std::fs::write(trace_path, &trace)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let dump = dooc_obs::dump_metrics();
    std::fs::write(metrics_path, &dump)
        .map_err(|e| format!("write {}: {e}", metrics_path.display()))?;

    let check = dooc_obs::validate::validate_chrome_trace(&trace)
        .map_err(|e| format!("exported trace failed validation: {e}"))?;
    dooc_obs::validate::validate_metrics_dump(&dump)
        .map_err(|e| format!("exported metrics failed validation: {e}"))?;
    Ok(TraceSummary {
        events: check.events,
        dropped: snap.dropped,
        categories: check.categories.into_iter().collect(),
        wall_s,
    })
}

//! dooc-race entry point: `cargo run -p dooc-check --bin race`.
//!
//! Modes:
//!
//! * `--log <path>` — analyze a recorded `dooc-race v1` event log offline.
//!   Exits 1 when a race is found (or the log is incomplete because the
//!   recorder dropped events), 0 on a clean verdict.
//! * `--spmv [--out <log path>]` — (needs the `record` feature) run a
//!   recorded fault-free 2-node iterated SpMV on the real middleware
//!   across several configurations plus one forced fork-join kernel run on
//!   the compute pool (SpMV/AXPY/DOT through the work-stealing deques),
//!   race-check each recorded schedule and exit 1 if any run reports a
//!   race. `--out` saves the last run's event log as a CI artifact.

use std::path::PathBuf;
use std::process::ExitCode;

fn analyze_log_file(path: &PathBuf) -> ExitCode {
    let log = match std::fs::read_to_string(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("race: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    match dooc_check::race::analyze(&log) {
        Ok(report) => {
            print!("{}", report.render());
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("race: malformed log {}: {e}", path.display());
            ExitCode::from(2)
        }
    }
}

/// Runs one recorded fault-free SpMV configuration and race-checks its
/// log. Returns the log text alongside the report.
#[cfg(feature = "record")]
fn recorded_spmv(
    tag: &str,
    k: u64,
    n: u64,
    iterations: u64,
) -> Result<(String, dooc_check::race::RaceReport), String> {
    use dooc_core::{DoocConfig, DoocRuntime};
    use dooc_linalg::spmv_app::{ReductionPlan, SpmvAppBuilder, SpmvExecutor, SyncPolicy};
    use dooc_sparse::blockgrid::BlockGrid;
    use dooc_sparse::genmat::GapGenerator;
    use dooc_sync::record;
    use std::sync::Arc;

    let nnodes = 2usize;
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

    let _session = record::session();
    record::clear();
    record::arm();
    let run = DoocRuntime::new(cfg.clone()).run(graph, external, Arc::new(SpmvExecutor));
    record::disarm();
    let log = record::take_log();
    for d in &cfg.scratch_dirs {
        std::fs::remove_dir_all(d).ok();
    }
    run.map_err(|e| format!("run: {e}"))?;
    let report = dooc_check::race::analyze(&log).map_err(|e| format!("analyze: {e}"))?;
    Ok((log, report))
}

/// Runs the compute pool's forked kernels — SpMV, slab AXPY and DOT at a
/// forced parallelism that actually fans out on this host — under the
/// recorder, and race-checks the schedule. This is the happens-before check
/// on the fork-join protocol itself: per-task slot writes, the countdown
/// barrier and the slab move in/out must all be ordered by the pool's
/// queue/condvar edges, not by luck.
#[cfg(feature = "record")]
fn recorded_fork_join(
    nrows: u64,
    parallelism: usize,
) -> Result<(String, dooc_check::race::RaceReport), String> {
    use dooc_sparse::genmat::GapGenerator;
    use dooc_sparse::{dense, ComputePool, SlabVec};
    use dooc_sync::record;
    use std::sync::Arc;

    let gen = GapGenerator::for_target_nnz(nrows, nrows, nrows * 6);
    let m = Arc::new(gen.generate(nrows, nrows, 11));
    let x = Arc::new(
        (0..nrows)
            .map(|i| (i as f64 * 0.29).sin())
            .collect::<Vec<f64>>(),
    );
    let serial_y = m.spmv(&x).map_err(|e| format!("serial spmv: {e}"))?;
    let serial_dot = dense::dot_ref(&x, &x);
    let mut serial_axpy = serial_y.clone();
    dense::axpy_ref(0.5, &x, &mut serial_axpy);

    let _session = record::session();
    record::clear();
    record::arm();
    let pool = ComputePool::new(2);
    let mut y = vec![0.0; nrows as usize];
    pool.spmv_fanout(&m, &x, &mut y, parallelism);
    let mut slabs = SlabVec::from_vec(y.clone(), (nrows as usize / 3).max(1));
    pool.axpy_slabs_fanout(0.5, &x, &mut slabs, parallelism);
    let d = pool.dot_fanout(&x, &x, parallelism);
    drop(pool);
    record::disarm();
    let log = record::take_log();

    if y != serial_y {
        return Err("fork-join SpMV diverged from serial".into());
    }
    if slabs.to_vec() != serial_axpy {
        return Err("slab AXPY diverged from serial".into());
    }
    // The chunked DOT reassociates the reduction (per-task partials), so
    // unlike SpMV/AXPY it is ULP-equal to the serial result, not bitwise.
    if (d - serial_dot).abs() > 1e-12 * serial_dot.abs().max(1.0) {
        return Err("fork-join DOT diverged from serial".into());
    }
    let report = dooc_check::race::analyze(&log).map_err(|e| format!("analyze: {e}"))?;
    Ok((log, report))
}

#[cfg(feature = "record")]
fn spmv(out: Option<PathBuf>) -> ExitCode {
    // Four configurations varying grid, vector length and iteration count;
    // each is a distinct real-runtime schedule to race-check.
    let configs: [(u64, u64, u64); 4] = [(2, 64, 2), (2, 64, 3), (3, 96, 2), (2, 128, 2)];
    let mut failed = false;
    for (i, &(k, n, iters)) in configs.iter().enumerate() {
        let tag = format!("race-spmv-{i}");
        match recorded_spmv(&tag, k, n, iters) {
            Ok((log, report)) => {
                println!(
                    "spmv config {i} (K={k} n={n} iters={iters}): {}",
                    report.render().trim_end()
                );
                if let Some(path) = &out {
                    if let Err(e) = std::fs::write(path, &log) {
                        eprintln!("race: cannot write {}: {e}", path.display());
                        failed = true;
                    }
                }
                if !report.clean() {
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("race: spmv config {i} failed: {e}");
                failed = true;
            }
        }
    }
    // One fork-join kernel configuration on the compute pool itself, at a
    // parallelism forced past the host-gated hint so the deques, the slot
    // writes and the countdown barrier genuinely interleave.
    match recorded_fork_join(96, 3) {
        Ok((log, report)) => {
            println!(
                "spmv fork-join config (nrows=96 par=3): {}",
                report.render().trim_end()
            );
            if let Some(path) = &out {
                if let Err(e) = std::fs::write(path, &log) {
                    eprintln!("race: cannot write {}: {e}", path.display());
                    failed = true;
                }
            }
            if !report.clean() {
                failed = true;
            }
        }
        Err(e) => {
            eprintln!("race: fork-join config failed: {e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(not(feature = "record"))]
fn spmv(_out: Option<PathBuf>) -> ExitCode {
    eprintln!(
        "race: --spmv needs the recorded runtime; rebuild with \
         `cargo run -p dooc-check --features record --bin race -- --spmv`"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("--log") => match args.next() {
            Some(p) => analyze_log_file(&PathBuf::from(p)),
            None => {
                eprintln!("race: --log needs a path");
                ExitCode::from(2)
            }
        },
        Some("--spmv") => {
            let out = match (args.next().as_deref(), args.next()) {
                (Some("--out"), Some(p)) => Some(PathBuf::from(p)),
                (None, _) => None,
                _ => {
                    eprintln!("race: --spmv takes only `--out <path>`");
                    return ExitCode::from(2);
                }
            };
            spmv(out)
        }
        _ => {
            eprintln!("usage: race --log <path> | race --spmv [--out <log path>]");
            ExitCode::from(2)
        }
    }
}

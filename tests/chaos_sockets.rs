//! Chaos over real sockets: the I/O-error storm of the core chaos suite,
//! replayed with the peer traffic crossing actual loopback TCP connections,
//! plus a schedule that delays TCP frames in the writer. The runtime must converge to the bitwise-identical final vector
//! regardless, and every scheduled site must inject at least once per seed.
//! No schedule loses or reorders a frame: the transport is reliable and
//! ordered per peer by contract.
//!
//! ```sh
//! cargo test --features faultline --test chaos_sockets
//! ```
#![cfg(feature = "faultline")]

use dooc::core::{DoocConfig, DoocRuntime};
use dooc::linalg::spmv_app::{
    striped_owner, ReductionPlan, SpmvAppBuilder, SpmvExecutor, SyncPolicy,
};
use dooc::sparse::blockgrid::BlockGrid;
use dooc::sparse::genmat::GapGenerator;
use dooc::storage::RecoveryPolicy;
use dooc_faultline as faultline;
use faultline::FaultSpec;
use std::sync::Arc;

mod common;
use common::{cleanup, tcp_mesh};

const K: u64 = 4;
const N: u64 = 64;
const ITERS: u64 = 3;
const MAT_SEED: u64 = 9;
const NNODES: usize = 2;

/// Seeds per schedule; `DOOC_CHAOS_SEEDS` overrides (CI sets `0,1,2`).
fn seeds() -> Vec<u64> {
    match std::env::var("DOOC_CHAOS_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => (0..3).collect(),
    }
}

/// One 2-node run over loopback TCP under `schedule` — `(site, spec)` pairs
/// armed after `faultline::seed(seed)`; returns the persisted final vector.
/// Each scheduled site must have injected at least one fault by the end of
/// the run (read before the registry is reset).
fn run_spmv_tcp(tag: &str, seed: u64, schedule: &[(&str, FaultSpec)]) -> Vec<f64> {
    let base = DoocConfig::in_temp_dirs(tag, NNODES).expect("cfg");
    let grid = BlockGrid::new(K, N);
    let gen = GapGenerator::with_d(4);
    let blocks = SpmvAppBuilder::stage(
        &base.scratch_dirs,
        grid,
        &gen,
        MAT_SEED,
        striped_owner(NNODES as u64),
    )
    .expect("stage matrices");
    let app = SpmvAppBuilder::new(grid, ITERS, blocks)
        .reduction(ReductionPlan::RowRoot)
        .sync(SyncPolicy::None);
    let x0: Vec<f64> = (0..N).map(|i| (i % 7) as f64 + 1.0).collect();
    app.stage_initial_vector(&base.scratch_dirs, &x0)
        .expect("stage x0");
    let (graph, external, geometry) = app.build();

    faultline::reset();
    faultline::seed(seed);
    for (site, spec) in schedule {
        faultline::configure(site, spec.clone());
    }
    faultline::enable();

    let handles: Vec<_> = tcp_mesh(NNODES)
        .into_iter()
        .map(|t| {
            let mut cfg = DoocConfig::new(base.scratch_dirs.clone())
                .memory_budget(2 << 20)
                .threads_per_node(2)
                .recovery(RecoveryPolicy {
                    io_retry_max: 5,
                    io_retry_backoff_ticks: 1,
                });
            for (name, len, bs) in &geometry {
                cfg = cfg.with_geometry(name.clone(), *len, *bs);
            }
            let graph = graph.clone();
            let external = external.clone();
            std::thread::spawn(move || {
                DoocRuntime::new(cfg)
                    .run_distributed(graph, external, Arc::new(SpmvExecutor), t)
                    .expect("chaos run must complete");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("node thread");
    }
    let silent: Vec<&str> = schedule
        .iter()
        .map(|&(site, _)| site)
        .filter(|site| faultline::injected(site) == 0)
        .collect();
    faultline::reset();
    assert!(
        silent.is_empty(),
        "{tag} seed {seed}: sites {silent:?} never fired — the schedule proved nothing"
    );

    let x = app
        .collect_final_vector(&base.scratch_dirs)
        .expect("persisted final vector");
    cleanup(&base);
    x
}

fn assert_bitwise(schedule: &str, seed: u64, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{schedule}: seed {seed} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "socket chaos schedule '{schedule}' seed {seed} diverged at x[{i}]: \
             {g:?} != fault-free {w:?} — replay with faultline::seed({seed})"
        );
    }
}

#[test]
fn io_error_storm_over_sockets_converges_bitwise() {
    let _g = faultline::test_gate();
    let baseline = run_spmv_tcp("sock-io-base", 0, &[]);
    for seed in seeds() {
        let storm = [("storage.io.read", FaultSpec::error().with_prob(0.10))];
        let got = run_spmv_tcp("sock-io", seed, &storm);
        assert_bitwise("io-error-storm", seed, &got, &baseline);
    }
}

#[test]
fn frame_delay_over_sockets_converges_bitwise() {
    let _g = faultline::test_gate();
    let baseline = run_spmv_tcp("sock-delay-base", 0, &[]);
    for seed in seeds() {
        // Socket-level: stall the framing writer on ~20% of data frames.
        let delay = [("fs.tcp.frame", FaultSpec::delay(2).with_prob(0.20))];
        let got = run_spmv_tcp("sock-delay", seed, &delay);
        assert_bitwise("frame-delay", seed, &got, &baseline);
    }
}

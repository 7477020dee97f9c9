//! Chaos over real sockets: the faultline drop/delay/reorder schedules that
//! the core chaos suite runs in-process, replayed with the peer traffic
//! crossing actual loopback TCP connections. The runtime must converge to
//! the bitwise-identical final vector regardless — message faults are
//! injected at the writer (before framing), and the TCP connect/frame sites
//! add socket-level delay on top.
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
use std::sync::Arc;

mod common;
use common::{cleanup, tcp_mesh};

const K: u64 = 4;
const N: u64 = 64;
const ITERS: u64 = 3;
const MAT_SEED: u64 = 9;
const NNODES: usize = 2;

/// Wire tags a drop schedule must never eat (mirrors the core chaos suite):
/// `Bye` and `DeleteNotice` have no retry path by design.
const PEER_EXEMPT_TAGS: [u64; 2] = [0x304, 0x303];

/// Seeds per schedule; `DOOC_CHAOS_SEEDS` overrides (CI sets `0,1,2`).
fn seeds() -> Vec<u64> {
    match std::env::var("DOOC_CHAOS_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => (0..3).collect(),
    }
}

/// One 2-node run over loopback TCP under whatever schedule
/// `configure_faults` installs; returns the persisted final vector.
fn run_spmv_tcp(tag: &str, configure_faults: impl FnOnce()) -> Vec<f64> {
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
    configure_faults();
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
                    fetch_deadline_ticks: Some(25),
                    stall_retry_max: None,
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
    faultline::reset();

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
fn peer_drop_over_sockets_converges_bitwise() {
    let _g = faultline::test_gate();
    let baseline = run_spmv_tcp("sock-drop-base", || {});
    for seed in seeds() {
        let got = run_spmv_tcp("sock-drop", || {
            faultline::seed(seed);
            faultline::configure(
                "peer_out",
                faultline::FaultSpec::drop_msg()
                    .with_prob(0.10)
                    .with_exempt_tags(PEER_EXEMPT_TAGS.to_vec()),
            );
        });
        assert_bitwise("peer-drop", seed, &got, &baseline);
    }
}

#[test]
fn peer_reorder_over_sockets_converges_bitwise() {
    let _g = faultline::test_gate();
    let baseline = run_spmv_tcp("sock-reorder-base", || {});
    for seed in seeds() {
        let got = run_spmv_tcp("sock-reorder", || {
            faultline::seed(seed);
            faultline::configure(
                "peer_out",
                faultline::FaultSpec::reorder()
                    .with_prob(0.25)
                    .with_exempt_tags(PEER_EXEMPT_TAGS.to_vec()),
            );
        });
        assert_bitwise("peer-reorder", seed, &got, &baseline);
    }
}

#[test]
fn frame_delay_over_sockets_converges_bitwise() {
    let _g = faultline::test_gate();
    let baseline = run_spmv_tcp("sock-delay-base", || {});
    for seed in seeds() {
        let got = run_spmv_tcp("sock-delay", || {
            faultline::seed(seed);
            // Socket-level: stall the framing writer on ~20% of data frames.
            faultline::configure(
                "fs.tcp.frame",
                faultline::FaultSpec::delay(2).with_prob(0.20),
            );
        });
        assert_bitwise("frame-delay", seed, &got, &baseline);
    }
}

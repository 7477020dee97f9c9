//! Chaos over real sockets: the I/O-error storm of the core chaos suite,
//! replayed with the peer traffic crossing actual loopback TCP connections,
//! plus a schedule that delays TCP frames in the writer. The runtime must
//! converge to the bitwise-identical final vector regardless, and every
//! scheduled site must inject at least once per seed. No schedule loses or
//! reorders a frame: the transport is reliable and ordered per peer by
//! contract. One plan serves a run's storage I/O (through its config) and
//! its TCP links (through the cluster spec), and a seed names one schedule:
//! the same plan gives the same injections run after run.
//!
//! ```sh
//! cargo test --test chaos_sockets
//! ```

use dooc::core::{DoocConfig, DoocRuntime};
use dooc::filterstream::{parse_seeds, FaultPlan, FaultSpec, Site};
use dooc::linalg::spmv_app::{
    striped_owner, ReductionPlan, SpmvAppBuilder, SpmvExecutor, SyncPolicy,
};
use dooc::sparse::blockgrid::BlockGrid;
use dooc::sparse::genmat::GapGenerator;
use dooc::storage::RecoveryPolicy;
use std::sync::Arc;

mod common;
use common::{cleanup, tcp_mesh};

const K: u64 = 4;
const N: u64 = 64;
const ITERS: u64 = 3;
const MAT_SEED: u64 = 9;
const NNODES: usize = 2;

/// Seeds per schedule; `DOOC_CHAOS_SEEDS` overrides (CI sets `0,1,2`). A
/// list that does not parse fails the test instead of running no seed.
fn seeds() -> Vec<u64> {
    match std::env::var("DOOC_CHAOS_SEEDS") {
        Ok(s) => parse_seeds(&s).unwrap_or_else(|e| panic!("{e}")),
        Err(_) => (0..3).collect(),
    }
}

/// One 2-node run over loopback TCP under `schedule` — `(site, spec)` pairs
/// of a plan drawn from `seed`; returns the persisted final vector and the
/// plan. Each scheduled site must have injected at least one fault by the
/// end of the run.
fn run_spmv_tcp(tag: &str, seed: u64, schedule: &[(Site, FaultSpec)]) -> (Vec<f64>, FaultPlan) {
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
    let plan = schedule
        .iter()
        .fold(FaultPlan::new(seed), |p, (site, spec)| {
            p.with(*site, spec.clone())
        });

    let handles: Vec<_> = tcp_mesh(NNODES, plan.clone())
        .into_iter()
        .map(|t| {
            let mut cfg = DoocConfig::new(base.scratch_dirs.clone())
                .memory_budget(2 << 20)
                .threads_per_node(2)
                .faults(plan.clone())
                .recovery(RecoveryPolicy { io_retry_max: 5 });
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
    let silent: Vec<Site> = schedule
        .iter()
        .map(|&(site, _)| site)
        .filter(|&site| plan.injected(site) == 0)
        .collect();
    assert!(
        silent.is_empty(),
        "{tag} seed {seed}: sites {silent:?} never fired — the schedule proved nothing"
    );

    let x = app
        .collect_final_vector(&base.scratch_dirs)
        .expect("persisted final vector");
    cleanup(&base);
    (x, plan)
}

fn assert_bitwise(schedule: &str, seed: u64, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{schedule}: seed {seed} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "socket chaos schedule '{schedule}' seed {seed} diverged at x[{i}]: \
             {g:?} != fault-free {w:?} — replay with FaultPlan::new({seed})"
        );
    }
}

#[test]
fn io_error_storm_over_sockets_converges_bitwise() {
    let (baseline, _) = run_spmv_tcp("sock-io-base", 0, &[]);
    for seed in seeds() {
        let storm = [(Site::IoRead, FaultSpec::error().with_prob(0.10))];
        let (got, _) = run_spmv_tcp("sock-io", seed, &storm);
        assert_bitwise("io-error-storm", seed, &got, &baseline);
    }
}

#[test]
fn frame_delay_over_sockets_converges_bitwise() {
    let (baseline, _) = run_spmv_tcp("sock-delay-base", 0, &[]);
    for seed in seeds() {
        // Socket-level: stall the framing writer on ~20% of data frames.
        let delay = [(Site::TcpFrame, FaultSpec::delay(2).with_prob(0.20))];
        let (got, _) = run_spmv_tcp("sock-delay", seed, &delay);
        assert_bitwise("frame-delay", seed, &got, &baseline);
    }
}

/// Same plan, same schedule: a storm of disk-read errors and frame delays
/// together, 20 times under seed 1. Every run injects the same number of
/// faults at each site — the hits of one site never shift the draws of the
/// other — and ends bitwise on the fault-free vector.
#[test]
fn the_same_plan_gives_the_same_schedule_every_run() {
    const RUNS: usize = 20;
    let (baseline, _) = run_spmv_tcp("sock-same-base", 0, &[]);
    let schedule = [
        (Site::IoRead, FaultSpec::error().with_prob(0.3)),
        (Site::TcpFrame, FaultSpec::delay(1).with_prob(0.3)),
    ];
    let counts: Vec<(u64, u64)> = (0..RUNS)
        .map(|_| {
            let (got, plan) = run_spmv_tcp("sock-same", 1, &schedule);
            assert_bitwise("same-plan", 1, &got, &baseline);
            (plan.injected(Site::IoRead), plan.injected(Site::TcpFrame))
        })
        .collect();
    assert!(
        counts.iter().all(|c| *c == counts[0]),
        "(io.read, tcp.frame) injections differ between runs: {counts:?}"
    );
}

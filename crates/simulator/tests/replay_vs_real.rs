//! The testbed replay against the runtime it models. On one node, with
//! K = 8, a budget of an eighth of the matrix and one compute thread,
//! `run_testbed` at the same sizes must do what ten real `DoocRuntime` runs
//! of the interleaved plan did to the storage node: the bytes it read from
//! disk, the blocks it evicted and the bytes it spilled — which is none.

use dooc_core::{DoocConfig, DoocRuntime};
use dooc_linalg::spmv_app::{ReductionPlan, SpmvAppBuilder, SpmvExecutor, SyncPolicy};
use dooc_simulator::testbed::{run_testbed, PolicyKind, TestbedParams};
use dooc_sparse::blockgrid::BlockGrid;
use dooc_sparse::genmat::GapGenerator;
use std::sync::Arc;

const K: u64 = 8;
const N: u64 = 2048;
const ITERATIONS: u64 = 4;
const RUNS: u64 = 10;

/// The matrix every run stages: its total file bytes and non-zeros.
struct Staged {
    bytes: u64,
    nnz: u64,
}

/// One real run with the runtime seeded by `seed`: the node's disk read
/// bytes, evictions and spilled bytes.
fn real_run(seed: u64) -> (Staged, [u64; 3]) {
    let cfg = DoocConfig::in_temp_dirs("replay-vs-real", 1)
        .expect("scratch dir")
        .threads_per_node(1)
        .seed(seed);
    let grid = BlockGrid::new(K, N);
    let blocks =
        SpmvAppBuilder::stage(&cfg.scratch_dirs, grid, &GapGenerator::with_d(3), 42, |_| 0)
            .expect("stage");
    let staged = Staged {
        bytes: blocks.iter().map(|b| b.bytes).sum(),
        nnz: blocks.iter().map(|b| b.nnz).sum(),
    };
    let app = SpmvAppBuilder::new(grid, ITERATIONS, blocks)
        .reduction(ReductionPlan::LocalAggregation)
        .sync(SyncPolicy::None)
        .persist_final(false);
    app.stage_initial_vector(&cfg.scratch_dirs, &vec![1.0; N as usize])
        .expect("stage x0");
    let (graph, external, geometry) = app.build();
    let mut cfg = cfg.memory_budget(staged.bytes / 8);
    for (name, len, bs) in geometry {
        cfg = cfg.with_geometry(name, len, bs);
    }
    let report = DoocRuntime::new(cfg.clone())
        .run(graph, external, Arc::new(SpmvExecutor))
        .expect("run");
    if let Some(base) = cfg.scratch_dirs[0].parent() {
        std::fs::remove_dir_all(base).ok();
    }
    let s = report.node_stats[0];
    (staged, [s.disk_read_bytes, s.evictions, s.disk_write_bytes])
}

/// The replay's value falls inside the real runs' range; where that range
/// is narrower than 5% of its median, within 5% of the median.
fn agrees(what: &str, replay: u64, mut real: Vec<u64>) {
    real.sort_unstable();
    let (min, max) = (real[0], real[real.len() - 1]);
    let median = real[real.len() / 2] as f64;
    let ok = if ((max - min) as f64) < 0.05 * median {
        (replay as f64 - median).abs() <= 0.05 * median
    } else {
        (min..=max).contains(&replay)
    };
    assert!(ok, "{what}: replay {replay}, real runs {real:?}");
}

#[test]
fn replay_matches_real_runs_on_one_node() {
    let mut staged = None;
    let mut real: [Vec<u64>; 3] = Default::default();
    for seed in 0..RUNS {
        let (s, counts) = real_run(seed);
        for (all, c) in real.iter_mut().zip(counts) {
            all.push(c);
        }
        staged = Some(s);
    }
    let staged = staged.expect("ten runs");

    let cells = K * K;
    let mut p = TestbedParams::paper(1);
    p.iterations = ITERATIONS;
    p.sub_per_side = K;
    p.submatrix_bytes = staged.bytes / cells;
    p.nnz_per_sub = staged.nnz / cells;
    p.subvector_bytes = N / K * 8;
    p.memory_budget = staged.bytes / 8;
    p.prefetch_window = DoocConfig::new(Vec::new()).prefetch_window;
    // The runtime leaves every block to the LRU: nothing is evicted by name.
    p.cross_iteration_reuse = true;
    // A real load is a page-cache copy that lands long before the multiply
    // it overlaps ends, so a prefetched cell is resident when the worker next
    // asks. The replay's disk is made as fast.
    p.gpfs_bw = 1e15;
    p.client_bw = 1e15;
    let r = run_testbed(&p, PolicyKind::Interleaved);

    let [reads, evictions, spills] = real;
    eprintln!(
        "staged {} B, {} nnz, budget {}",
        staged.bytes, staged.nnz, p.memory_budget
    );
    eprintln!(
        "replay: read {} B, {} evictions, spilled {} B",
        r.disk_read_bytes, r.evictions, r.bytes_spilled
    );
    eprintln!(
        "real:   read {reads:?}\n        evictions {evictions:?}\n        spilled {spills:?}"
    );
    agrees("disk read bytes", r.disk_read_bytes, reads);
    agrees("evictions", r.evictions, evictions);
    // Every input the scheduler is done with is demoted, so reclaim takes
    // consumed matrix cells ahead of the unspilled vectors and partials:
    // nothing is written on either side.
    assert_eq!(r.bytes_spilled, 0, "the replay spilled");
    assert!(
        spills.iter().all(|&s| s == 0),
        "real runs spilled {spills:?}"
    );
    agrees("spilled bytes", r.bytes_spilled, spills);
}

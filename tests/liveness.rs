//! Dead data costs nothing: an intermediate array is deleted — cluster-wide,
//! memory and files — when the last task that reads it completes, and the
//! local scheduler finishes a row before it starts the next, so a partial
//! vector is consumed while it is still resident instead of ageing out of
//! the LRU and being written for nobody.
//!
//! What these tests observe, and why it is enough: `storage:delete` is
//! emitted by the one function that removes an array from a node's map
//! (memory, LRU entries, files) and leaves the tombstone that keeps its
//! name from coming back. So "each node traced exactly one `storage:delete`
//! per intermediate and none for anything else" means every node's map ends
//! with externals and results only; the scratch directories are listed
//! directly.

use dooc::core::{DoocConfig, DoocRuntime, RunReport};
use dooc::filterstream::{ChannelTransport, FaultPlan, Transport};
use dooc::linalg::spmv_app::{
    striped_owner, ReductionPlan, SpmvAppBuilder, SpmvExecutor, StagedBlock, SyncPolicy,
};
use dooc::obs;
use dooc::scheduler::TaskGraph;
use dooc::sparse::blockgrid::BlockGrid;
use dooc::sparse::genmat::GapGenerator;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

mod common;
use common::{cleanup, tcp_mesh};

const K: u64 = 4;
const N: u64 = 2048;
const ITERS: u64 = 3;
const MAT_SEED: u64 = 11;

/// The obs recorder is process-global: one traced run at a time.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn x0() -> Vec<f64> {
    (0..N).map(|i| (i % 13) as f64 - 5.5).collect()
}

struct Staged {
    base: DoocConfig,
    app: SpmvAppBuilder,
    blocks: Vec<StagedBlock>,
}

fn stage(tag: &str, nnodes: usize, reduction: ReductionPlan, sync: SyncPolicy) -> Staged {
    let base = DoocConfig::in_temp_dirs(tag, nnodes).expect("cfg");
    let grid = BlockGrid::new(K, N);
    // ~30 non-zeros per row of a cell: a cell is ~60x a vector piece, as in
    // the benchmark's headline workload.
    let gen = GapGenerator::with_d(16);
    let blocks = SpmvAppBuilder::stage(
        &base.scratch_dirs,
        grid,
        &gen,
        MAT_SEED,
        striped_owner(nnodes as u64),
    )
    .expect("stage matrices");
    let app = SpmvAppBuilder::new(grid, ITERS, blocks.clone())
        .reduction(reduction)
        .sync(sync);
    app.stage_initial_vector(&base.scratch_dirs, &x0())
        .expect("stage x0");
    Staged { base, app, blocks }
}

fn config_for(dirs: Vec<PathBuf>, geometry: &[(String, u64, u64)], budget: u64) -> DoocConfig {
    let mut cfg = DoocConfig::new(dirs).memory_budget(budget);
    for (name, len, bs) in geometry {
        cfg = cfg.with_geometry(name.clone(), *len, *bs);
    }
    cfg
}

/// The arrays of a graph by lifetime: intermediates (produced by one task,
/// read by another) and results (produced, read by nobody).
fn lifetimes(graph: &TaskGraph) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut read = BTreeSet::new();
    for id in graph.ids() {
        for d in &graph.task(id).inputs {
            read.insert(d.array.clone());
        }
    }
    let mut intermediates = BTreeSet::new();
    let mut results = BTreeSet::new();
    for id in graph.ids() {
        for d in &graph.task(id).outputs {
            if read.contains(&d.array) {
                intermediates.insert(d.array.clone());
            } else {
                results.insert(d.array.clone());
            }
        }
    }
    (intermediates, results)
}

/// Runs `run` with tracing on and returns its value, the arrays each node
/// traced a `storage:delete` for (in order, repeats kept), and how far the
/// `worker.arrays_deleted` counter moved.
fn traced<T>(run: impl FnOnce() -> T) -> (T, BTreeMap<i64, Vec<String>>, u64) {
    let deleted_by_workers = obs::metrics::counter("worker.arrays_deleted");
    obs::take_events();
    // Instants are never sampled; the per-message spans are not needed.
    obs::enable_sampled(64);
    let before = deleted_by_workers.get();
    let out = run();
    let after = deleted_by_workers.get();
    obs::disable();
    let snap = obs::take_events();
    assert_eq!(snap.dropped, 0, "the trace is complete");
    let mut deletes: BTreeMap<i64, Vec<String>> = BTreeMap::new();
    for (_, e) in &snap.events {
        if e.name == "storage:delete" {
            let detail = e.arg.as_deref().expect("storage:delete names its array");
            let array = detail.split(' ').next().expect("array name first");
            deletes.entry(e.node).or_default().push(array.to_string());
        }
    }
    (out, deletes, after - before)
}

/// Every node deleted every intermediate exactly once and nothing else, and
/// each scratch directory holds the staged externals and the persisted
/// results only.
fn assert_only_externals_and_results_remain(
    label: &str,
    staged: &Staged,
    graph: &TaskGraph,
    deletes: &BTreeMap<i64, Vec<String>>,
    deleted_by_workers: u64,
) {
    let (intermediates, results) = lifetimes(graph);
    let nnodes = staged.base.scratch_dirs.len();
    assert_eq!(
        deleted_by_workers,
        intermediates.len() as u64,
        "{label}: one worker delete per intermediate"
    );
    assert_eq!(deletes.len(), nnodes, "{label}: every node saw the deletes");
    for (node, names) in deletes {
        let mut sorted = names.clone();
        sorted.sort();
        let want: Vec<String> = intermediates.iter().cloned().collect();
        assert_eq!(
            sorted, want,
            "{label}: node {node} drops each intermediate exactly once, and only those"
        );
    }
    for (node, dir) in staged.base.scratch_dirs.iter().enumerate() {
        let files: BTreeSet<String> = std::fs::read_dir(dir)
            .expect("scratch dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        // Staged here: this node's cells and its rows' pieces of x0.
        let mut want: BTreeSet<String> = staged
            .blocks
            .iter()
            .filter(|b| b.node as usize == node)
            .map(|b| BlockGrid::file_name(b.coord))
            .collect();
        for u in (0..K).filter(|u| (*u as usize) % nnodes == node) {
            want.insert(BlockGrid::vector_name(0, u));
            let result = BlockGrid::vector_name(ITERS, u);
            assert!(results.contains(&result));
            want.insert(format!("{result}@0"));
            want.insert(format!("{result}@meta"));
        }
        // A piece of x0 fetched from its owner and later evicted leaves a
        // spilled copy: an external like any other, it never dies.
        let others_x0 = |f: &String| {
            (0..K).any(|u| {
                let name = BlockGrid::vector_name(0, u);
                *f == format!("{name}@0") || *f == format!("{name}@meta")
            })
        };
        let unexpected: Vec<&String> = files.difference(&want).filter(|f| !others_x0(f)).collect();
        let missing: Vec<&String> = want.difference(&files).collect();
        assert!(
            unexpected.is_empty() && missing.is_empty(),
            "{label}: node {node} keeps {unexpected:?} and lacks {missing:?}"
        );
    }
}

fn assert_bitwise(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{label} diverged at x[{i}]: {g:?} != {w:?}"
        );
    }
}

/// The matrix does not fit (three of its four rows do), so every iteration
/// evicts and re-reads — and yet the only bytes written are the results:
/// every partial vector and every superseded iterate is consumed and deleted
/// while it is still in memory. (Before deletion existed, each of them aged
/// out of the LRU behind the matrix stream and was spilled.)
#[test]
fn out_of_core_run_writes_only_what_it_persists() {
    let _g = gate();
    let staged = stage(
        "live-1n",
        1,
        ReductionPlan::LocalAggregation,
        SyncPolicy::IterationBarrier,
    );
    let (graph, external, geometry) = staged.app.build();
    let matrix_bytes: u64 = staged.blocks.iter().map(|b| b.bytes).sum();
    let largest = staged.blocks.iter().map(|b| b.bytes).max().expect("cells");
    let budget = matrix_bytes - 7 * largest / 2;
    let cfg = config_for(staged.base.scratch_dirs.clone(), &geometry, budget);
    let (report, deletes, deleted_by_workers): (RunReport, _, _) = traced(|| {
        DoocRuntime::new(cfg)
            .run(graph.clone(), external, Arc::new(SpmvExecutor))
            .expect("run")
    });
    let stats = &report.node_stats[0];
    assert!(
        stats.evictions > 0 && stats.disk_read_bytes > matrix_bytes,
        "the run is out of core: {stats:?}"
    );
    // The 8-byte barrier tokens are the exception that shows the rule: no
    // task reads their bytes, so nothing touches them, and the LRU scan pushes
    // them out ahead of every clean matrix cell.
    let result_bytes = 8 * N;
    let tokens = 8 * (ITERS - 1);
    assert!(
        (result_bytes..=result_bytes + tokens).contains(&stats.disk_write_bytes),
        "no partial vector and no superseded iterate is written, only the final \
         vector ({result_bytes} bytes): {stats:?}"
    );
    assert_only_externals_and_results_remain(
        "one node",
        &staged,
        &graph,
        &deletes,
        deleted_by_workers,
    );
    let x = staged
        .app
        .collect_final_vector(&staged.base.scratch_dirs)
        .expect("final vector");
    let reference = staged
        .app
        .reference_result(&GapGenerator::with_d(16), MAT_SEED, &x0());
    for (g, w) in x.iter().zip(&reference) {
        assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
    }
    cleanup(&staged.base);
}

const PLANS: [(&str, ReductionPlan); 2] = [
    ("rowroot", ReductionPlan::RowRoot),
    ("localagg", ReductionPlan::LocalAggregation),
];
const POLICIES: [(&str, SyncPolicy); 3] = [
    ("none", SyncPolicy::None),
    ("iter", SyncPolicy::IterationBarrier),
    ("phase", SyncPolicy::PhaseBarriers),
];

/// Two nodes, each a thread holding its own transport. The budget holds
/// about half of a node's cells, so intermediates do get spilled here and
/// their files have to go too; partials cross the peer stream, so the copy a
/// reader fetched is dropped by the producer's `DeleteNotice`. Row-striped
/// ownership keeps a row's partials on one node, so both reduction plans sum
/// in the same order and all six graphs agree bitwise.
fn two_nodes_delete_everywhere(transport: &str, mesh: impl Fn() -> Vec<Arc<dyn Transport>>) {
    let _g = gate();
    let mut oracle: Option<Vec<f64>> = None;
    for (plan_name, plan) in PLANS {
        for (sync_name, sync) in POLICIES {
            let label = format!("{transport}/{plan_name}/{sync_name}");
            let staged = stage(
                &format!("live-{transport}-{plan_name}-{sync_name}"),
                2,
                plan,
                sync,
            );
            let (graph, external, geometry) = staged.app.build();
            let per_node: u64 = staged.blocks.iter().map(|b| b.bytes).sum::<u64>() / 2;
            let ((), deletes, deleted_by_workers) = traced(|| {
                let handles: Vec<_> = mesh()
                    .into_iter()
                    .map(|t| {
                        let cfg =
                            config_for(staged.base.scratch_dirs.clone(), &geometry, per_node / 2);
                        let graph = graph.clone();
                        let external = external.clone();
                        std::thread::spawn(move || {
                            DoocRuntime::new(cfg)
                                .run_distributed(graph, external, Arc::new(SpmvExecutor), t)
                                .expect("distributed run");
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("node thread");
                }
            });
            assert_only_externals_and_results_remain(
                &label,
                &staged,
                &graph,
                &deletes,
                deleted_by_workers,
            );
            let x = staged
                .app
                .collect_final_vector(&staged.base.scratch_dirs)
                .expect("final vector");
            match &oracle {
                None => oracle = Some(x),
                Some(want) => assert_bitwise(&label, &x, want),
            }
            cleanup(&staged.base);
        }
    }
}

#[test]
fn two_nodes_over_channels_delete_everywhere_and_agree_bitwise() {
    two_nodes_delete_everywhere("chan", || {
        ChannelTransport::cluster(2)
            .into_iter()
            .map(|t| Arc::new(t) as Arc<dyn Transport>)
            .collect()
    });
}

#[test]
fn two_nodes_over_tcp_delete_everywhere_and_agree_bitwise() {
    two_nodes_delete_everywhere("tcp", || tcp_mesh(2, FaultPlan::default()));
}

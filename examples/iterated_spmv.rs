//! The paper's experiment (§IV–V) at laptop scale: iterated SpMV over a K×K
//! grid of binary CRS sub-matrix files, executed out-of-core by the real
//! middleware on 4 simulated nodes, and verified against the in-core
//! reference product.
//!
//! ```sh
//! cargo run --release --example iterated_spmv
//! ```

#![forbid(unsafe_code)]

use dooc::core::{DoocConfig, DoocRuntime};
use dooc::linalg::spmv_app::{
    tiled_owner, ReductionPlan, SpmvAppBuilder, SpmvExecutor, SyncPolicy,
};
use dooc::sparse::blockgrid::BlockGrid;
use dooc::sparse::genmat::GapGenerator;
use std::sync::Arc;

fn main() {
    let nnodes = 4usize;
    let k = 4u64; // 4x4 grid of sub-matrices, one 2x2 tile per node
    let n = 2000u64; // global matrix dimension
    let iterations = 4u64;
    let seed = 2012;

    let config = DoocConfig::in_temp_dirs("iterated-spmv", nnodes)
        .expect("temp dirs")
        .memory_budget(4 << 20) // smaller than the matrix: forces out-of-core
        .threads_per_node(2)
        .prefetch_window(2);

    // Generate the paper's synthetic workload: gaps between consecutive
    // non-zeros uniform in [1, 2d], d chosen for the target density.
    let grid = BlockGrid::new(k, n);
    let gen = GapGenerator::for_target_nnz(n / k, n / k, 40 * (n / k));
    println!(
        "staging {}x{} sub-matrix files (d = {}) across {} nodes...",
        k,
        k,
        gen.d(),
        nnodes
    );
    let blocks = SpmvAppBuilder::stage(
        &config.scratch_dirs,
        grid,
        &gen,
        seed,
        tiled_owner(k, nnodes as u64),
    )
    .expect("stage sub-matrices");
    let total_nnz: u64 = blocks.iter().map(|b| b.nnz).sum();
    let total_bytes: u64 = blocks.iter().map(|b| b.bytes).sum();
    println!("matrix: {n} rows, {total_nnz} non-zeros, {total_bytes} bytes on disk");

    // Table IV's configuration: interleaving + per-node aggregation.
    let app = SpmvAppBuilder::new(grid, iterations, blocks)
        .reduction(ReductionPlan::LocalAggregation)
        .sync(SyncPolicy::None);
    let x0: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.01).cos()).collect();
    app.stage_initial_vector(&config.scratch_dirs, &x0)
        .expect("stage x0");

    let (graph, external, geometry) = app.build();
    println!(
        "task DAG: {} tasks ({} multiplies, {} reductions)",
        graph.len(),
        graph
            .ids()
            .filter(|&i| graph.task(i).kind == "multiply")
            .count(),
        graph
            .ids()
            .filter(|&i| graph.task(i).kind.starts_with("sum"))
            .count(),
    );

    let mut config2 = config.clone();
    for (name, len, bs) in geometry {
        config2 = config2.with_geometry(name, len, bs);
    }
    let report = DoocRuntime::new(config2)
        .run(graph, external, Arc::new(SpmvExecutor))
        .expect("out-of-core run");

    println!("\ncompleted in {:?}", report.elapsed);
    for (node, st) in report.node_stats.iter().enumerate() {
        println!(
            "  node{node}: {:6.1} MB read from disk, {:5.1} MB from peers, {} evictions",
            st.disk_read_bytes as f64 / 1e6,
            st.peer_recv_bytes as f64 / 1e6,
            st.evictions
        );
    }
    println!(
        "aggregate read bandwidth: {:.1} MB/s",
        report.read_bandwidth() / 1e6
    );
    println!("\nexecution timeline:");
    print!("{}", dooc::core::render_trace_gantt(&report, 72));

    // Verify against the in-core reference.
    let got = app
        .collect_final_vector(&config.scratch_dirs)
        .expect("result");
    let want = app.reference_result(&gen, seed, &x0);
    let max_rel = got
        .iter()
        .zip(&want)
        .map(|(g, w)| (g - w).abs() / w.abs().max(1.0))
        .fold(0.0f64, f64::max);
    println!("max relative error vs in-core reference: {max_rel:.2e}");
    assert!(max_rel < 1e-9, "out-of-core result must match");
    println!("out-of-core result matches the in-core product ✓");

    for d in &config.scratch_dirs {
        std::fs::remove_dir_all(d).ok();
    }
}

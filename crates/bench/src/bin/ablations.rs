//! Ablation studies for the design decisions DESIGN.md calls out.

use dooc_bench::gantt;
use dooc_bench::tablefmt::Table;
use dooc_scheduler::{assign_affinity, assign_round_robin, OrderPolicy};
use dooc_simulator::testbed::{run_testbed, PolicyKind, TestbedParams};

fn scaled(nnodes: usize) -> TestbedParams {
    // 1000x-reduced workload: same shape, fast enough to sweep.
    let mut p = TestbedParams::paper(nnodes);
    p.submatrix_bytes /= 1000;
    p.nnz_per_sub /= 1000;
    p.subvector_bytes /= 1000;
    p.memory_budget /= 1000;
    p
}

fn main() {
    println!("# DOoC ablation studies\n");

    // 1. Affinity vs round-robin placement: bytes moved across nodes.
    {
        use dooc_linalg::spmv_app::{tiled_owner, SpmvAppBuilder, StagedBlock, SyncPolicy};
        use dooc_sparse::blockgrid::BlockGrid;
        let k = 10u64;
        let nnodes = 4u64;
        let owner = tiled_owner(k, nnodes);
        let grid = BlockGrid::new(k, k * 100);
        let blocks: Vec<StagedBlock> = grid
            .coords()
            .map(|coord| StagedBlock {
                coord,
                node: owner(coord),
                bytes: 1_000_000,
                nnz: 10_000,
            })
            .collect();
        let app = SpmvAppBuilder::new(grid, 4, blocks)
            .sync(SyncPolicy::None)
            .persist_final(false);
        let (graph, external, _) = app.build();
        let aff = assign_affinity(&graph, &external, nnodes).expect("placed");
        let rr = assign_round_robin(&graph, nnodes);
        println!("## global placement: affinity vs round-robin (4 nodes, 10x10 grid, 4 iters)");
        println!(
            "remote input bytes: affinity {:.1} MB, round-robin {:.1} MB ({}x more)\n",
            aff.remote_input_bytes(&graph, &external) as f64 / 1e6,
            rr.remote_input_bytes(&graph, &external) as f64 / 1e6,
            rr.remote_input_bytes(&graph, &external)
                / aff.remote_input_bytes(&graph, &external).max(1)
        );
    }

    // 2. Local reordering: FIFO vs data-aware loads (Fig. 5 numbers).
    {
        println!("## local reordering: matrix loads, 3 nodes x 3x3 grid");
        let mut t = Table::new(&["iterations", "FIFO loads", "data-aware loads"]);
        for iters in [2u64, 4, 8] {
            let a = gantt::chart(OrderPolicy::Fifo, 3, iters);
            let b = gantt::chart(OrderPolicy::DataAware, 3, iters);
            t.row(vec![
                format!("{iters}"),
                format!("{}", a.loads),
                format!("{}", b.loads),
            ]);
        }
        println!("{}", t.render());
    }

    // 3. Prefetch window sweep (scaled testbed, 4 nodes).
    {
        println!("## prefetch window sweep (scaled testbed, 4 nodes, interleaved)");
        let mut t = Table::new(&["window", "time (s)", "non-overlap %"]);
        for w in [0usize, 1, 2, 4, 8] {
            let mut p = scaled(4);
            p.prefetch_window = w;
            let r = run_testbed(&p, PolicyKind::Interleaved);
            t.row(vec![
                format!("{w}"),
                format!("{:.3}", r.time_s),
                format!("{:.0}", 100.0 * r.non_overlapped),
            ]);
        }
        println!("{}", t.render());
    }

    // 4. Cross-iteration matrix reuse (the paper's system never reused).
    {
        println!("## cross-iteration sub-matrix reuse (scaled testbed, 4 nodes)");
        let mut t = Table::new(&["reuse", "time (s)", "bytes read (MB)"]);
        for reuse in [false, true] {
            let mut p = scaled(4);
            p.cross_iteration_reuse = reuse;
            // Reuse needs cache headroom to be visible: give it room for
            // half the node's working set.
            if reuse {
                p.memory_budget *= 3;
            }
            let r = run_testbed(&p, PolicyKind::Interleaved);
            t.row(vec![
                format!("{reuse}"),
                format!("{:.3}", r.time_s),
                format!("{:.1}", r.bytes_read as f64 / 1e6),
            ]);
        }
        println!("{}", t.render());
    }

    // 5. Reduction plan at scale (already Tables III/IV; scaled here).
    {
        println!("## policy comparison at 9 nodes (scaled)");
        let mut t = Table::new(&["policy", "time (s)", "non-overlap %"]);
        for (pk, label) in [
            (PolicyKind::Simple, "simple (Table III)"),
            (PolicyKind::Interleaved, "interleaved (Table IV)"),
        ] {
            let r = run_testbed(&scaled(9), pk);
            t.row(vec![
                label.to_string(),
                format!("{:.3}", r.time_s),
                format!("{:.0}", 100.0 * r.non_overlapped),
            ]);
        }
        println!("{}", t.render());
    }
}

//! Quickstart: run a tiny task DAG out-of-core on a two-node DOoC cluster.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! The application declares tasks by their input/output arrays; DOoC derives
//! the DAG, places tasks on the nodes holding their data, schedules them
//! data-aware, and moves bytes through the distributed storage layer (with
//! spill-to-disk when a node's memory budget is exceeded).

#![forbid(unsafe_code)]

use dooc::core::{
    DoocConfig, DoocRuntime, ExecOutcome, TaskExecutor, TaskGraph, TaskSpec, WorkerContext,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The application's compute logic: one implementation per task kind.
struct VectorOps;

impl TaskExecutor for VectorOps {
    fn execute(&self, task: &TaskSpec, ctx: &mut WorkerContext) -> ExecOutcome {
        match task.kind.as_str() {
            // y = 2 * x
            "double" => {
                let x = ctx.read_f64s(&task.inputs[0].array)?;
                let y: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
                ctx.write_f64s(&task.outputs[0].array, &y)
            }
            // z = sum of all inputs, persisted to disk so we can check it
            "reduce" => {
                let mut acc: Option<Vec<f64>> = None;
                for input in &task.inputs {
                    let x = ctx.read_f64s(&input.array)?;
                    match &mut acc {
                        None => acc = Some(x),
                        Some(a) => a.iter_mut().zip(&x).for_each(|(a, b)| *a += b),
                    }
                }
                let z = acc.ok_or("no inputs")?;
                ctx.write_f64s(&task.outputs[0].array, &z)?;
                let out = task.outputs[0].array.clone();
                ctx.storage().persist(&out).map_err(|e| e.to_string())
            }
            other => Err(format!("unknown task kind '{other}'")),
        }
    }
}

fn main() {
    // Two simulated nodes, each with its own scratch directory.
    let config = DoocConfig::in_temp_dirs("quickstart", 2)
        .expect("temp dirs")
        .memory_budget(1 << 20)
        .threads_per_node(2);

    // Stage input vectors as raw f64 files, one per node.
    let stage = |node: usize, name: &str, xs: &[f64]| {
        let raw: Vec<u8> = xs.iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(config.scratch_dirs[node].join(name), raw).expect("stage");
    };
    stage(0, "u", &[1.0, 2.0, 3.0]);
    stage(1, "v", &[10.0, 20.0, 30.0]);

    // Declare the computation: double each vector where it lives, then
    // reduce the results (DOoC figures out the dependencies itself).
    let graph = TaskGraph::new(vec![
        TaskSpec::new("du", "double")
            .input("u", 24)
            .output("du", 24),
        TaskSpec::new("dv", "double")
            .input("v", 24)
            .output("dv", 24),
        TaskSpec::new("total", "reduce")
            .input("du", 24)
            .input("dv", 24)
            .output("total", 24),
    ])
    .expect("acyclic, single-producer task graph");

    // Tell the global scheduler where the staged files are.
    let external = HashMap::from([("u".to_string(), 0u64), ("v".to_string(), 1u64)]);

    let report = DoocRuntime::new(config.clone())
        .run(graph, external, Arc::new(VectorOps))
        .expect("run to completion");

    println!(
        "executed {} tasks in {:?}",
        report.trace.len(),
        report.elapsed
    );
    for e in &report.trace {
        println!("  node{} ran {:10} ({})", e.node, e.name, e.kind);
    }
    println!(
        "bytes: {} read from disk, {} moved between nodes",
        report.total_disk_read_bytes(),
        report.total_peer_bytes()
    );

    // Read the persisted result back.
    let reducer = report
        .trace
        .iter()
        .find(|e| e.kind == "reduce")
        .expect("ran");
    let raw = std::fs::read(config.scratch_dirs[reducer.node as usize].join("total@0"))
        .expect("persisted result");
    let total: Vec<f64> = raw
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    println!("result: {total:?} (expected [22, 44, 66])");
    assert_eq!(total, vec![22.0, 44.0, 66.0]);

    for d in &config.scratch_dirs {
        std::fs::remove_dir_all(d).ok();
    }
}

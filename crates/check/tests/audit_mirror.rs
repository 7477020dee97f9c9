//! Static ⊇ dynamic mirror for the residency audit: on randomized small
//! graphs executed end-to-end through the real runtime, the static
//! peak-residency bound (`dooc_scheduler::audit::audit_residency`) must
//! dominate the grant-ledger high watermark every storage node actually
//! observed (`NodeStats::pinned_peak_bytes`).
//!
//! This is the soundness half of the audit's admission-control story: a
//! `peak_bytes` the real execution can exceed would make the pre-run
//! overcommit check meaningless. The dynamic peak counts bytes pinned by
//! in-flight tasks; in-flight tasks are pairwise concurrent, hence an
//! antichain of the order the audit maximizes over — so each node's
//! watermark must sit at or below the whole-graph bound.

use dooc_core::{DoocConfig, DoocRuntime, ExecOutcome, TaskExecutor, TaskGraph, TaskSpec};
use dooc_core::{TaskId, WorkerContext};
use dooc_scheduler::audit::audit_residency;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Elementwise-sum executor: every task reads all of its input vectors,
/// adds them, and writes the single output. Uniform vector length keeps
/// arbitrary fan-in shapes well-formed.
struct SumOps;

impl TaskExecutor for SumOps {
    fn execute(&self, task: &TaskSpec, ctx: &mut WorkerContext) -> ExecOutcome {
        let mut acc: Option<Vec<f64>> = None;
        for input in &task.inputs {
            let x = ctx.read_f64s(&input.array)?;
            match &mut acc {
                None => acc = Some(x),
                Some(a) => {
                    for (ai, xi) in a.iter_mut().zip(&x) {
                        *ai += xi;
                    }
                }
            }
        }
        ctx.write_f64s(&task.outputs[0].array, &acc.ok_or("sum with no inputs")?)
    }
}

/// A layered random DAG over uniform `elems`-long f64 vectors: layer 0
/// reads the staged external `in`, each later task reads a seeded subset
/// (at least one) of the previous layer's outputs.
fn layered_graph(widths: &[usize], elems: usize, seed: u64) -> TaskGraph {
    let bytes = (elems * 8) as u64;
    let mut rng = seed;
    let mut next = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rng >> 33
    };
    let mut tasks = Vec::new();
    let mut prev: Vec<String> = vec!["in".to_string()];
    for (l, &w) in widths.iter().enumerate() {
        let mut outs = Vec::new();
        for i in 0..w {
            let out = format!("a_{l}_{i}");
            let mut t = TaskSpec::new(format!("t_{l}_{i}"), "sum").output(&out, bytes);
            let forced = next() as usize % prev.len();
            for (j, p) in prev.iter().enumerate() {
                if j == forced || next() % 2 == 0 {
                    t = t.input(p.clone(), bytes);
                }
            }
            outs.push(out);
            tasks.push(t);
        }
        prev = outs;
    }
    TaskGraph::new(tasks).expect("layered construction is acyclic")
}

fn stage_input(cfg: &DoocConfig, elems: usize) {
    let mut raw = Vec::with_capacity(8 * elems);
    for i in 0..elems {
        raw.extend_from_slice(&(i as f64).to_le_bytes());
    }
    std::fs::write(cfg.scratch_dirs[0].join("in"), raw).expect("stage input");
}

fn cleanup(cfg: &DoocConfig) {
    for d in &cfg.scratch_dirs {
        std::fs::remove_dir_all(d).ok();
        if let Some(parent) = d.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// Runs the graph for real and checks every node's pinned high watermark
/// against the static bound. Returns the watermarks for vacuity checks.
fn assert_static_dominates(tag: &str, graph: TaskGraph, nnodes: usize) -> Vec<u64> {
    let stat = audit_residency(&graph).expect("generated graphs audit clean");
    assert!(
        stat.exact,
        "layered test graphs are far below the exact limit"
    );

    let cfg = DoocConfig::in_temp_dirs(tag, nnodes).expect("cfg");
    stage_input(&cfg, graph.task(TaskId(0)).inputs[0].bytes as usize / 8);
    let report = DoocRuntime::new(cfg.clone())
        .run(graph, HashMap::from([("in".into(), 0)]), Arc::new(SumOps))
        .expect("run");
    cleanup(&cfg);

    let peaks: Vec<u64> = report
        .node_stats
        .iter()
        .map(|s| s.pinned_peak_bytes)
        .collect();
    for (node, &peak) in peaks.iter().enumerate() {
        assert!(
            peak <= stat.peak_bytes,
            "node {node} pinned {peak} bytes > static bound {} — \
             the residency audit is unsound on this graph",
            stat.peak_bytes
        );
    }
    peaks
}

#[test]
fn chain_watermark_is_observed_and_bounded() {
    // Deterministic non-vacuity check: a 3-task chain must actually pin
    // something (the instrumentation is live), and stay under the bound.
    let graph = layered_graph(&[1, 1, 1], 64, 7);
    let peaks = assert_static_dominates("audit-mirror-chain", graph, 1);
    assert!(
        peaks[0] >= 64 * 8,
        "no pinned bytes recorded ({peaks:?}) — watermark plumbing is dead"
    );
}

#[test]
fn two_node_watermarks_bounded() {
    let graph = layered_graph(&[2, 2], 32, 11);
    assert_static_dominates("audit-mirror-2node", graph, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized mirror: static `peak_bytes` ≥ every node's observed
    /// pinned high watermark, across random layered shapes and fan-ins.
    #[test]
    fn static_peak_dominates_dynamic_watermark(
        widths in proptest::collection::vec(1usize..4, 1..4),
        elems in 1usize..16,
        seed in any::<u64>(),
    ) {
        let graph = layered_graph(&widths, elems, seed);
        let tag = format!("audit-mirror-{seed:x}-{elems}");
        assert_static_dominates(&tag, graph, 1);
    }
}

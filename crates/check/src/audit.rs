//! Workspace-facing wrapper around the static graph auditor
//! (`dooc_scheduler::audit`): builds the shipping SpMV graphs without
//! staging any files, constructs the seeded-bug negative twins, and hands
//! each verdict to the `dooc-audit` bin as an [`AuditOutcome`].

use dooc_core::runtime_lane_specs;
use dooc_linalg::spmv_app::{SpmvAppBuilder, StagedBlock, SyncPolicy};
use dooc_scheduler::{audit, AuditError, AuditReport, LaneSpec, TaskGraph, TaskSpec};
use dooc_sparse::{BlockCoord, BlockGrid};

/// One audited graph: the label, the graph's fingerprint, and either the
/// report or the typed rejection.
#[derive(Clone, Debug)]
pub struct AuditOutcome {
    /// Human-readable graph label (e.g. `spmv-none k=4 n=2000`).
    pub graph: String,
    /// The graph's [`TaskGraph::fingerprint`] — the graph's share of the
    /// runtime bootstrap digest, letting CI correlate reports across
    /// distributed digest variants.
    pub digest: u64,
    /// The audit verdict.
    pub result: Result<AuditReport, AuditError>,
}

/// Builds the iterated-SpMV task graph under the given sync policy without
/// touching disk: staged-block descriptors are synthesized (round-robin
/// placement, uniform sizes) since the audit only consumes the graph
/// structure and byte weights, never the data.
pub fn spmv_graph(sync: SyncPolicy, k: u64, n: u64, iters: u64, nnodes: u64) -> TaskGraph {
    let grid = BlockGrid::new(k, n);
    let per_block = 8 * n.div_ceil(k); // one f64 sub-vector's worth per cell
    let blocks: Vec<StagedBlock> = (0..k)
        .flat_map(|u| (0..k).map(move |v| (u, v)))
        .map(|(u, v)| StagedBlock {
            coord: BlockCoord { u, v },
            node: (u * k + v) % nnodes.max(1),
            bytes: per_block * 4, // sparse payload estimate; exact value irrelevant
            nnz: 2 * n.div_ceil(k),
        })
        .collect();
    let (graph, _ext, _geom) = SpmvAppBuilder::new(grid, iters, blocks).sync(sync).build();
    graph
}

/// Audits a graph against the runtime's default budget and the exact lane
/// specs `DoocRuntime::run` would wire for it.
pub fn audit_graph(label: &str, graph: &TaskGraph, budget: u64, nnodes: u64) -> AuditOutcome {
    AuditOutcome {
        graph: label.to_string(),
        digest: graph.fingerprint(),
        result: audit(graph, budget, &runtime_lane_specs(graph, nnodes)),
    }
}

/// Seeded bug: a graph whose largest single-task working set exceeds the
/// budget returned alongside it — an [`AuditError::Overcommit`].
pub fn seeded_overcommit() -> (TaskGraph, u64) {
    let g = TaskGraph::new(vec![TaskSpec::new("big", "k")
        .input("huge", 48 << 20)
        .output("out", 48 << 20)])
    .expect("single oversized task");
    (g, 64 << 20)
}

/// Seeded bug: a cyclic lane sized below its worst-case outstanding bound —
/// an [`AuditError::LaneDeadlock`]. Returns a clean graph plus the broken
/// lane table.
pub fn seeded_lane_deadlock() -> (TaskGraph, Vec<LaneSpec>) {
    let g = TaskGraph::new(vec![TaskSpec::new("t", "k")
        .input("in", 8)
        .output("out", 8)])
    .expect("trivial graph");
    let lanes = vec![LaneSpec {
        name: "done".into(),
        capacity: 2,
        bound: 40,
        cyclic: true,
    }];
    (g, lanes)
}

/// Runs the seeded-bug negatives and checks each fails on the *intended*
/// analysis. Returns `(name, caught_by_intended_analysis)` per twin — CI
/// asserts all are `true`.
pub fn selftest() -> Vec<(&'static str, bool)> {
    let budget = 256 << 20;
    let (big, small_budget) = seeded_overcommit();
    let overcommit = matches!(
        audit(&big, small_budget, &[]),
        Err(AuditError::Overcommit { .. })
    );
    let (clean, lanes) = seeded_lane_deadlock();
    let lane_deadlock = matches!(
        audit(&clean, budget, &lanes),
        Err(AuditError::LaneDeadlock { .. })
    );
    vec![("overcommit", overcommit), ("lane-deadlock", lane_deadlock)]
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICIES: [SyncPolicy; 3] = [
        SyncPolicy::None,
        SyncPolicy::IterationBarrier,
        SyncPolicy::PhaseBarriers,
    ];

    #[test]
    fn every_sync_policy_audits_clean_and_barriers_lengthen_the_critical_path() {
        let [none, iteration, phase] = POLICIES.map(|sync| {
            let g = spmv_graph(sync, 4, 2000, 4, 4);
            let report = audit_graph("spmv", &g, 256 << 20, 4)
                .result
                .unwrap_or_else(|e| panic!("{sync:?} must audit clean: {e}"));
            assert!(report.exact);
            assert!(report.peak_bytes > 0);
            report.critical_path
        });
        // Multiply, sum, next multiply, ... : two per iteration at least,
        // and every barrier task sits on the longest chain.
        assert!(
            8 <= none && none < iteration && iteration < phase,
            "{none} {iteration} {phase}"
        );
    }

    #[test]
    fn tiny_budget_matches_shipping_example() {
        // examples/iterated_spmv.rs runs this very graph with a 4 MiB
        // budget deliberately smaller than the matrix; the audit must admit
        // it (out-of-core execution beyond the budget is the point — only
        // a single task's pinned set is a hard floor).
        let g = spmv_graph(SyncPolicy::None, 4, 2000, 4, 4);
        assert!(audit_graph("spmv-none", &g, 4 << 20, 4).result.is_ok());
    }

    #[test]
    fn digests_differ_between_policies_and_agree_per_graph() {
        let none = spmv_graph(SyncPolicy::None, 4, 2000, 4, 4);
        let barrier = spmv_graph(SyncPolicy::IterationBarrier, 4, 2000, 4, 4);
        assert_ne!(none.fingerprint(), barrier.fingerprint());
        // Same parameters → same graph → same digest: every process of a
        // distributed run reports the same fingerprint, which is what CI
        // correlates the digest variants on.
        let again = spmv_graph(SyncPolicy::None, 4, 2000, 4, 4);
        assert_eq!(none.fingerprint(), again.fingerprint());
    }

    #[test]
    fn selftest_catches_every_twin() {
        for (name, ok) in selftest() {
            assert!(ok, "seeded negative '{name}' not caught by its analysis");
        }
    }
}

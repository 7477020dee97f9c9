//! Static task-graph audit: pre-run verification of the properties the
//! runtime otherwise only discovers dynamically (ROADMAP item 2 groundwork).
//!
//! The paper's middleware receives the whole task DAG up front, so almost
//! every runtime failure mode is statically decidable before a single block
//! is read. A [`TaskGraph`] is acyclic by construction, so it cannot stall;
//! what remains to prove are its resource bounds, in two whole-graph
//! analyses:
//!
//! * **Peak-residency bound** ([`audit_residency`]) — the grant-ledger
//!   high-watermark under worst-case scheduler reordering. A running task
//!   pins its inputs (read pins) for its whole execution and holds its
//!   outputs in memory until each block's one write seals it; the bound
//!   charges both, so it is an upper bound on the read pins the ledger
//!   counts (a write pins nothing). Tasks that can run concurrently are
//!   exactly the antichains of the DAG's precedence order. The bound is therefore the
//!   maximum-weight antichain of the order, computed exactly by the classic
//!   min-flow-with-lower-bounds reduction, together with the longest chain
//!   ([`AuditReport::critical_path`]) and the widest (unweighted) antichain.
//!   The runtime compares the per-task component against the per-node
//!   storage budget — a task whose own working set cannot fit is rejected
//!   with [`AuditError::Overcommit`] (no schedule or eviction policy can
//!   save it: pinned blocks are not reclaimable).
//!
//! * **Channel-capacity deadlock freedom** ([`audit_lanes`]) — the runtime
//!   declares its bounded lanes as [`LaneSpec`]s (capacity plus a
//!   worst-case outstanding-message bound derived from the graph). A lane
//!   on a communication cycle (e.g. the worker↔worker broadcast lanes) can
//!   only deadlock if a send blocks, and a send can only block if more
//!   messages than `capacity` are outstanding — so `bound ≤ capacity` on
//!   every cyclic lane proves full-cycle waits impossible.
//!
//! [`audit`] runs both and is what `DoocRuntime::run` calls before
//! assembling the cluster.

use crate::task::{TaskGraph, TaskId};
use std::collections::HashMap;

/// Exact max-weight-antichain computation runs Dinic on a network of
/// `2n + 2` nodes and `5n + |E|` edges; beyond this many tasks the
/// residency sweep falls back to the conservative sum-of-all-weights bound
/// and flags the report as inexact.
const EXACT_ANTICHAIN_LIMIT: usize = 2048;

/// One bounded lane of the runtime's stream wiring, as declared by the
/// component that sizes it. `bound` is the worst-case number of messages
/// that can be outstanding in the lane before the receiver's next drain;
/// `cyclic` marks lanes on a communication cycle (a broadcast group wired
/// back to itself, or any loop in the stream topology), where a blocked
/// send can participate in a full-cycle wait.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneSpec {
    /// Lane name (e.g. `done`).
    pub name: String,
    /// Configured channel capacity in messages.
    pub capacity: u64,
    /// Worst-case outstanding messages, derived from the graph.
    pub bound: u64,
    /// Does the lane sit on a communication cycle?
    pub cyclic: bool,
}

/// The audit's per-graph result: the statically derived resource envelope
/// the admission controller of ROADMAP item 2 consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditReport {
    /// Grant-ledger high-watermark in bytes under worst-case reordering:
    /// the maximum-weight antichain of the precedence order, weighting each
    /// task by its pinned working set (distinct input + output arrays).
    pub peak_bytes: u64,
    /// Length (task count) of the longest precedence chain — the minimum
    /// number of sequential steps any schedule needs.
    pub critical_path: usize,
    /// Cardinality of the widest antichain — the maximum number of tasks
    /// any schedule can have in flight simultaneously.
    pub widest_antichain: usize,
    /// The largest single-task working set and the task holding it: the
    /// irreducible per-node residency no eviction policy can shrink.
    pub max_task_bytes: u64,
    /// Name of the task with the largest working set.
    pub max_task: String,
    /// `false` when the graph exceeded [`EXACT_ANTICHAIN_LIMIT`] and
    /// `peak_bytes`/`widest_antichain` are the conservative fallback.
    pub exact: bool,
}

/// A statically detected graph defect. Each variant is caught by exactly
/// one analysis; the seeded-bug twins in the tests pin that mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditError {
    /// A single task's pinned working set exceeds the per-node storage
    /// budget: pinned blocks are not reclaimable, so no schedule or
    /// eviction policy can run this task within budget.
    Overcommit {
        /// The oversized task.
        task: String,
        /// Its working-set bytes (distinct input + output arrays).
        bytes: u64,
        /// The per-node budget it exceeds.
        budget: u64,
    },
    /// A bounded lane on a communication cycle can hold fewer messages
    /// than the graph can leave outstanding, so a full-cycle wait (every
    /// sender blocked on a full lane) is not statically excluded.
    LaneDeadlock {
        /// The undersized lane.
        lane: String,
        /// Its configured capacity.
        capacity: u64,
        /// The worst-case outstanding-message bound that must fit.
        required: u64,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Overcommit {
                task,
                bytes,
                budget,
            } => write!(
                f,
                "task '{task}' pins {bytes} bytes but the per-node budget is {budget}: \
                 no schedule fits"
            ),
            AuditError::LaneDeadlock {
                lane,
                capacity,
                required,
            } => write!(
                f,
                "lane '{lane}' holds {capacity} messages but the graph can leave {required} \
                 outstanding on a cycle"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// Convenience alias for audit results.
pub type AuditResult<T> = std::result::Result<T, AuditError>;

/// Runs both analyses: the residency sweep checked against `budget`
/// (per-node bytes) and the lane-capacity check. This is the entry point
/// `DoocRuntime::run` gates admission on.
pub fn audit(graph: &TaskGraph, budget: u64, lanes: &[LaneSpec]) -> AuditResult<AuditReport> {
    let report = audit_residency(graph)?;
    if report.max_task_bytes > budget {
        return Err(AuditError::Overcommit {
            task: report.max_task.clone(),
            bytes: report.max_task_bytes,
            budget,
        });
    }
    audit_lanes(lanes)?;
    Ok(report)
}

/// A task's working set: distinct input and output arrays, each counted
/// once at its largest declared size. Bounds the worker's pins from above:
/// whole-array read views pin the inputs (transient pipelined reads pin
/// less, never more), and the outputs, which a write does not pin, are
/// counted as the memory they occupy while the task writes them.
fn task_weight(graph: &TaskGraph, id: TaskId) -> u64 {
    let t = graph.task(id);
    let mut seen: HashMap<&str, u64> = HashMap::new();
    for d in t.inputs.iter().chain(t.outputs.iter()) {
        let e = seen.entry(d.array.as_str()).or_insert(0);
        *e = (*e).max(d.bytes);
    }
    seen.values().sum()
}

/// Residency sweep: computes the [`AuditReport`] envelope over the DAG's
/// precedence order.
pub fn audit_residency(graph: &TaskGraph) -> AuditResult<AuditReport> {
    let n = graph.len();
    let weights: Vec<u64> = graph.ids().map(|id| task_weight(graph, id)).collect();
    let (max_task_bytes, max_task) = graph
        .ids()
        .map(|id| (weights[id.0 as usize], graph.task(id).name.clone()))
        .max_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.cmp(&a.1)))
        .unwrap_or((0, String::new()));

    if n == 0 {
        return Ok(AuditReport {
            peak_bytes: 0,
            critical_path: 0,
            widest_antichain: 0,
            max_task_bytes,
            max_task,
            exact: true,
        });
    }

    // Longest chain by dynamic programming over a topological order
    // (`TaskGraph::new` admits only acyclic graphs, so one always exists).
    let order = graph.topo_order().unwrap_or_default();
    let mut depth = vec![1usize; n];
    for &u in order.iter().rev() {
        for &v in graph.succs(u) {
            depth[u.0 as usize] = depth[u.0 as usize].max(1 + depth[v.0 as usize]);
        }
    }
    let critical_path = depth.iter().copied().max().unwrap_or(0);

    if n > EXACT_ANTICHAIN_LIMIT {
        return Ok(AuditReport {
            peak_bytes: weights.iter().sum(),
            critical_path,
            widest_antichain: n,
            max_task_bytes,
            max_task,
            exact: false,
        });
    }

    // One network, two weightings: the byte-weighted peak and the
    // unit-weighted width share the flow topology.
    let net = AntichainNet::build(graph);
    let peak_bytes = net.max_weight(&weights);
    let ones = vec![1u64; n];
    let widest_antichain = net.max_weight(&ones) as usize;

    Ok(AuditReport {
        peak_bytes,
        critical_path,
        widest_antichain,
        max_task_bytes,
        max_task,
        exact: true,
    })
}

/// Residual arc capacity standing in for "unbounded" (large enough that
/// no augmenting path ever saturates it, small enough not to overflow
/// when bottlenecks are added back).
const FLOW_INF: u64 = u64::MAX / 4;

/// Min-flow network for maximum-weight-antichain queries over the partial
/// order generated by a DAG, built once per graph and solved once per
/// weight vector (`audit_residency` asks twice: byte weights for the peak,
/// unit weights for the width — the topology is identical).
///
/// Reduction: split every task `v` into `v_in → v_out` with lower bound
/// `w(v)`, wire `u_out → v_in` for every *direct* edge `u → v`, route the
/// trivial feasible flow (Σw, one private chain per task), then push as
/// much flow as possible *back* from sink to source through the residual
/// network. What cannot be pushed back is the min flow, which equals the
/// max-weight antichain (Dilworth).
///
/// Direct edges suffice — no transitive closure: every `v_in → v_out` arc
/// has infinite capacity, so a flow path realizes the chain `u < w` by
/// running *through* any intermediate `v` (and conversely every S→T path
/// visits a chain of the order). Min flow on the DAG therefore equals min
/// flow on its closure, and the network stays at `5n + |E|` edge pairs.
struct AntichainNet {
    n: usize,
    nodes: usize,
    /// Target of each directed residual edge; edge `e ^ 1` reverses `e`.
    edge_to: Vec<usize>,
    /// Capacity template: INF arcs filled in, the two per-task weight arcs
    /// (edge ids `10i` and `10i + 2`) left 0 for [`Self::max_weight`].
    cap_template: Vec<u64>,
    /// CSR adjacency: edge ids incident to `v` (forward and reverse) are
    /// `adj[adj_off[v]..adj_off[v + 1]]`.
    adj_off: Vec<usize>,
    adj: Vec<usize>,
}

impl AntichainNet {
    // Residual network nodes: 0 = S, 1 = T, 2+2i = v_in(i), 3+2i = v_out(i).
    // Max-flow runs from T back to S. Arcs (with residual capacities):
    //   T -> v_out    cap w(v)  (undo the v_out -> T feasible flow)
    //   v_in -> S     cap w(v)  (undo the S -> v_in feasible flow)
    //   v_in -> v_out cap INF   (raise flow above the lower bound)
    //   u_out -> v_in cap INF   (route through a precedence edge)
    //   S -> v_in, v_out -> T cap INF (raise the outer arcs)
    // plus the implicit reverse-residual arcs max-flow maintains itself.
    const S: usize = 0;
    const T: usize = 1;

    fn v_in(i: usize) -> usize {
        2 + 2 * i
    }

    fn v_out(i: usize) -> usize {
        3 + 2 * i
    }

    fn build(graph: &TaskGraph) -> Self {
        let n = graph.len();
        let nodes = 2 + 2 * n;
        let dag_edges: usize = graph.ids().map(|u| graph.succs(u).len()).sum();
        let pairs = 5 * n + dag_edges;
        let mut edge_to = Vec::with_capacity(2 * pairs);
        let mut cap_template = Vec::with_capacity(2 * pairs);
        let mut edge_from = Vec::with_capacity(2 * pairs);
        let mut push = |a: usize, b: usize, cap: u64| {
            edge_from.push(a);
            edge_to.push(b);
            cap_template.push(cap);
            edge_from.push(b);
            edge_to.push(a);
            cap_template.push(0);
        };
        for i in 0..n {
            push(Self::T, Self::v_out(i), 0); // weight arc, edge id 10i
            push(Self::v_in(i), Self::S, 0); // weight arc, edge id 10i + 2
            push(Self::v_in(i), Self::v_out(i), FLOW_INF);
            push(Self::S, Self::v_in(i), FLOW_INF);
            push(Self::v_out(i), Self::T, FLOW_INF);
        }
        for u in graph.ids() {
            for v in graph.succs(u) {
                push(
                    Self::v_out(u.0 as usize),
                    Self::v_in(v.0 as usize),
                    FLOW_INF,
                );
            }
        }
        // Counting-sort the edge list into CSR adjacency.
        let mut adj_off = vec![0usize; nodes + 1];
        for &a in &edge_from {
            adj_off[a + 1] += 1;
        }
        for i in 0..nodes {
            adj_off[i + 1] += adj_off[i];
        }
        let mut cursor = adj_off.clone();
        let mut adj = vec![0usize; edge_from.len()];
        for (e, &a) in edge_from.iter().enumerate() {
            adj[cursor[a]] = e;
            cursor[a] += 1;
        }
        Self {
            n,
            nodes,
            edge_to,
            cap_template,
            adj_off,
            adj,
        }
    }

    /// Maximum total `weights` over any antichain of the order. Runs Dinic
    /// on a fresh copy of the capacity template with the per-task lower
    /// bounds set to `weights`, then reads the antichain
    /// `{ v : v_out ∈ R, v_in ∉ R }` (R = residual-reachable from T) off
    /// the final min cut.
    fn max_weight(&self, weights: &[u64]) -> u64 {
        let mut cap = self.cap_template.clone();
        for (i, &w) in weights.iter().enumerate().take(self.n) {
            cap[10 * i] = w;
            cap[10 * i + 2] = w;
        }

        // Dinic max-flow from T to S.
        let mut level = vec![-1i32; self.nodes];
        let mut it = vec![0usize; self.nodes];
        let mut queue: Vec<usize> = Vec::with_capacity(self.nodes);
        let mut path: Vec<usize> = Vec::with_capacity(16); // edge indices
        loop {
            // BFS levels.
            for l in level.iter_mut() {
                *l = -1;
            }
            level[Self::T] = 0;
            queue.clear();
            queue.push(Self::T);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for &e in &self.adj[self.adj_off[u]..self.adj_off[u + 1]] {
                    let v = self.edge_to[e];
                    if cap[e] > 0 && level[v] < 0 {
                        level[v] = level[u] + 1;
                        queue.push(v);
                    }
                }
            }
            if level[Self::S] < 0 {
                break;
            }
            it.copy_from_slice(&self.adj_off[..self.nodes]);
            // Iterative DFS blocking flow.
            loop {
                path.clear();
                let mut node = Self::T;
                let mut advanced = true;
                while node != Self::S && advanced {
                    advanced = false;
                    while it[node] < self.adj_off[node + 1] {
                        let e = self.adj[it[node]];
                        let v = self.edge_to[e];
                        if cap[e] > 0 && level[v] == level[node] + 1 {
                            path.push(e);
                            node = v;
                            advanced = true;
                            break;
                        }
                        it[node] += 1;
                    }
                    if !advanced {
                        break;
                    }
                }
                if node != Self::S {
                    // Dead end: retreat (or no more augmenting paths).
                    match path.pop() {
                        Some(e) => {
                            // The tail node has no admissible arcs; exhaust
                            // the edge that led here and retry from its
                            // origin.
                            let from = self.edge_to[e ^ 1];
                            it[from] += 1;
                            // Reset the walk (simple but correct: path
                            // lengths are short — at most 4 + chain hops).
                            continue;
                        }
                        None => break,
                    }
                }
                let bottleneck = path.iter().map(|&e| cap[e]).min().unwrap_or(0);
                if bottleneck == 0 {
                    break;
                }
                for &e in &path {
                    cap[e] -= bottleneck;
                    cap[e ^ 1] += bottleneck;
                }
            }
        }

        // Min cut: R = reachable from T in the final residual. The antichain
        // is { v : v_out ∈ R, v_in ∉ R }; its weight is Σw − maxflow, which
        // we compute directly from the cut for robustness.
        let mut in_r = vec![false; self.nodes];
        in_r[Self::T] = true;
        queue.clear();
        queue.push(Self::T);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &e in &self.adj[self.adj_off[u]..self.adj_off[u + 1]] {
                let v = self.edge_to[e];
                if cap[e] > 0 && !in_r[v] {
                    in_r[v] = true;
                    queue.push(v);
                }
            }
        }
        (0..self.n)
            .filter(|&i| in_r[Self::v_out(i)] && !in_r[Self::v_in(i)])
            .map(|i| weights[i])
            .sum()
    }
}

/// Lane-capacity deadlock check: every cyclic bounded lane must hold its
/// worst-case outstanding-message bound without a send ever blocking.
pub fn audit_lanes(lanes: &[LaneSpec]) -> AuditResult<()> {
    for lane in lanes {
        if lane.cyclic && lane.bound > lane.capacity {
            return Err(AuditError::LaneDeadlock {
                lane: lane.name.clone(),
                capacity: lane.capacity,
                required: lane.bound,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;

    /// The pipelined iterated pattern of `spmv_app` on one block chain:
    /// per iteration a multiply reading the previous iteration's vector,
    /// then a sum producing this iteration's vector.
    fn iterated_chain(iters: u32) -> TaskGraph {
        let mut tasks = Vec::new();
        for i in 1..=iters {
            tasks.push(
                TaskSpec::new(format!("p_{i}"), "multiply")
                    .input(format!("x_{}", i - 1), 64)
                    .output(format!("p_{i}"), 64),
            );
            tasks.push(
                TaskSpec::new(format!("x_{i}"), "sum")
                    .input(format!("p_{i}"), 64)
                    .output(format!("x_{i}"), 64),
            );
        }
        TaskGraph::new(tasks).expect("valid chain")
    }

    #[test]
    fn iterated_chain_audits_clean() {
        let r = audit_residency(&iterated_chain(4)).expect("residency");
        assert!(r.exact);
        // The cross-iteration edges serialize the chain: one task in flight.
        assert_eq!(r.widest_antichain, 1, "{r:?}");
        assert_eq!(r.critical_path, 8);
        assert_eq!(r.peak_bytes, 128);
        assert_eq!(r.max_task_bytes, 128);
    }

    #[test]
    fn diamond_antichain() {
        let g = TaskGraph::new(vec![
            TaskSpec::new("a", "k").output("A", 10),
            TaskSpec::new("b", "k").input("A", 10).output("B", 30),
            TaskSpec::new("c", "k").input("A", 10).output("C", 20),
            TaskSpec::new("d", "k")
                .input("B", 30)
                .input("C", 20)
                .output("D", 10),
        ])
        .expect("diamond");
        let r = audit_residency(&g).expect("residency");
        // b (10+30) and c (10+20) run concurrently: 70 bytes pinned.
        assert_eq!(r.peak_bytes, 70, "{r:?}");
        assert_eq!(r.widest_antichain, 2);
        assert_eq!(r.critical_path, 3);
        assert_eq!(r.max_task_bytes, 60, "{r:?}");
        assert_eq!(r.max_task, "d");
    }

    #[test]
    fn independent_tasks_sum() {
        let g = TaskGraph::new(vec![
            TaskSpec::new("a", "k").input("ea", 5).output("A", 5),
            TaskSpec::new("b", "k").input("eb", 7).output("B", 7),
            TaskSpec::new("c", "k").input("ec", 9).output("C", 9),
        ])
        .expect("independent");
        let r = audit_residency(&g).expect("residency");
        assert_eq!(r.peak_bytes, 2 * (5 + 7 + 9));
        assert_eq!(r.widest_antichain, 3);
        assert_eq!(r.critical_path, 1);
    }

    #[test]
    fn duplicate_array_counted_once_in_weight() {
        // In-place style: the same array as input and output pins once.
        let g = TaskGraph::new(vec![TaskSpec::new("a", "k").input("X", 8).output("X", 8)])
            .expect("in-place");
        let r = audit_residency(&g).expect("residency");
        assert_eq!(r.max_task_bytes, 8);
    }

    // --- seeded-bug twins -------------------------------------------------

    /// Seeded bug (overcommit): a single task pinning more than the budget.
    #[test]
    fn overcommit_detected() {
        let g = TaskGraph::new(vec![TaskSpec::new("big", "k")
            .input("huge", 1 << 20)
            .output("out", 1 << 20)])
        .expect("graph");
        let err = audit(&g, 1 << 20, &[]).expect_err("over budget");
        match err {
            AuditError::Overcommit {
                task,
                bytes,
                budget,
            } => {
                assert_eq!(task, "big");
                assert_eq!(bytes, 2 << 20);
                assert_eq!(budget, 1 << 20);
            }
            other => panic!("wrong analysis caught it: {other}"),
        }
        // Exactly at budget is admitted (the tiny-budget e2e test runs
        // 64-byte working sets against a 64-byte budget).
        assert!(audit(&g, 2 << 20, &[]).is_ok());
    }

    /// Seeded bug (lane deadlock): a cyclic lane sized below its bound.
    #[test]
    fn undersized_cyclic_lane_detected() {
        let lanes = [
            LaneSpec {
                name: "done".into(),
                capacity: 20,
                bound: 16,
                cyclic: true,
            },
            LaneSpec {
                name: "events".into(),
                capacity: 8,
                bound: 40,
                cyclic: true,
            },
        ];
        let err = audit_lanes(&lanes).expect_err("undersized");
        match err {
            AuditError::LaneDeadlock {
                lane,
                capacity,
                required,
            } => {
                assert_eq!(lane, "events");
                assert_eq!(capacity, 8);
                assert_eq!(required, 40);
            }
            other => panic!("wrong analysis caught it: {other}"),
        }
        // Acyclic lanes may be undersized (a blocked send cannot cycle).
        let acyclic = [LaneSpec {
            name: "requests".into(),
            capacity: 1,
            bound: 100,
            cyclic: false,
        }];
        assert!(audit_lanes(&acyclic).is_ok());
    }

    #[test]
    fn audit_runs_both() {
        let g = iterated_chain(3);
        let lane = |capacity| LaneSpec {
            name: "done".into(),
            capacity,
            bound: g.len() as u64,
            cyclic: true,
        };
        let r = audit(&g, 1 << 20, &[lane(g.len() as u64 + 16)]).expect("clean");
        assert_eq!(r.critical_path, 6);
        assert!(matches!(
            audit(&g, 100, &[lane(g.len() as u64 + 16)]),
            Err(AuditError::Overcommit { .. })
        ));
        assert!(matches!(
            audit(&g, 1 << 20, &[lane(1)]),
            Err(AuditError::LaneDeadlock { .. })
        ));
    }
}

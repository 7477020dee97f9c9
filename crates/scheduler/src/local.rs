//! The local scheduler: per-node ordering, splitting, prefetching.
//!
//! "The local scheduler on each node receives tasks from the global
//! scheduler, and splits them (if possible) to match the parallelism
//! available on the node. All tasks that do not have any unprocessed
//! predecessors are marked as ready. The local scheduler periodically
//! queries the state of the storage to know which data are available in
//! memory and which are not. When a computing filter is free, a task which
//! is ready and whose data input are available in memory is sent to the
//! computing filter. The local scheduler makes sure that there are a given
//! number of ready tasks whose data are in memory by sending sufficient
//! prefetch requests to the storage layer."
//!
//! The data-aware pick (prefer the ready task with the most resident input
//! bytes) is what turns the naive per-iteration sweep of Fig. 5(a) into the
//! back-and-forth traversal of Fig. 5(b): after finishing the last multiply
//! of iteration *i*, the only task with its (large) matrix input resident is
//! the matching multiply of iteration *i+1*, so the next iteration runs
//! backwards "automatically … without requiring any effort or input from the
//! application programmer".

use crate::task::{ReadyTracker, TaskGraph, TaskId};
use std::collections::HashSet;

/// How the local scheduler orders ready tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OrderPolicy {
    /// Submission (FIFO) order — the "regular" plan of Fig. 5(a); ablation
    /// baseline.
    Fifo,
    /// Prefer ready tasks with the most resident input bytes (ties: FIFO) —
    /// the DOoC behaviour, yielding Fig. 5(b).
    #[default]
    DataAware,
}

/// The storage-map oracle the local scheduler queries. Implemented over a
/// `StorageClient::map()` snapshot in live runs, or over a model in the
/// simulator and tests.
pub trait MemoryOracle {
    /// Is the array fully resident in this node's memory?
    fn resident(&self, array: &str) -> bool;
}

impl MemoryOracle for HashSet<String> {
    fn resident(&self, array: &str) -> bool {
        self.contains(array)
    }
}

/// Per-node scheduling state over the global [`TaskGraph`].
///
/// The driver feeds *cluster-wide* completions via
/// [`LocalScheduler::on_complete`] (remote completions matter: a local task
/// may depend on a remote one) and asks for work with
/// [`LocalScheduler::next_task`].
pub struct LocalScheduler {
    policy: OrderPolicy,
    /// Tasks assigned to this node.
    mine: HashSet<TaskId>,
    tracker: ReadyTracker,
    /// Ready-but-unscheduled local tasks, in readiness order.
    ready: Vec<TaskId>,
    /// Number of outstanding prefetches to aim for.
    prefetch_window: usize,
    /// Tasks handed out but not yet completed.
    running: HashSet<TaskId>,
    /// Node id used when tracing scheduling decisions (-1 when unknown).
    node: i64,
}

impl LocalScheduler {
    /// Creates the scheduler for the node owning `mine`.
    pub fn new(
        graph: &TaskGraph,
        mine: impl IntoIterator<Item = TaskId>,
        policy: OrderPolicy,
    ) -> Self {
        let tracker = ReadyTracker::new(graph);
        let mine: HashSet<TaskId> = mine.into_iter().collect();
        let ready = tracker
            .initially_ready()
            .into_iter()
            .filter(|t| mine.contains(t))
            .collect();
        Self {
            policy,
            mine,
            tracker,
            ready,
            prefetch_window: 2,
            running: HashSet::new(),
            node: -1,
        }
    }

    /// Sets the prefetch window (number of upcoming tasks whose inputs are
    /// kept warm).
    pub fn with_prefetch_window(mut self, w: usize) -> Self {
        self.prefetch_window = w;
        self
    }

    /// Sets the node id attached to traced scheduling decisions.
    pub fn with_node(mut self, node: i64) -> Self {
        self.node = node;
        self
    }

    /// Records a completion (local or remote); newly ready *local* tasks
    /// enter the ready queue.
    pub fn on_complete(&mut self, graph: &TaskGraph, id: TaskId) {
        self.running.remove(&id);
        for t in self.tracker.complete(graph, id) {
            if self.mine.contains(&t) {
                self.ready.push(t);
            }
        }
    }

    /// Number of ready local tasks.
    pub fn ready_count(&self) -> usize {
        self.ready.len()
    }

    /// Are all this node's tasks done?
    pub fn idle(&self) -> bool {
        self.ready.is_empty() && self.running.is_empty()
    }

    /// Is every task in the graph complete?
    pub fn graph_done(&self) -> bool {
        self.tracker.all_done()
    }

    /// Score of a task under the data-aware policy: resident input bytes.
    fn score(graph: &TaskGraph, oracle: &dyn MemoryOracle, id: TaskId) -> u64 {
        graph
            .task(id)
            .inputs
            .iter()
            .filter(|d| oracle.resident(&d.array))
            .map(|d| d.bytes)
            .sum()
    }

    /// Picks the next task for a free computing filter, or `None` if no
    /// local task is ready. Data-aware policy prefers the ready task with
    /// the most resident input bytes; FIFO takes readiness order.
    pub fn next_task(&mut self, graph: &TaskGraph, oracle: &dyn MemoryOracle) -> Option<TaskId> {
        if self.ready.is_empty() {
            return None;
        }
        let idx = match self.policy {
            OrderPolicy::Fifo => 0,
            OrderPolicy::DataAware => {
                let mut best = 0usize;
                let mut best_score = Self::score(graph, oracle, self.ready[0]);
                for (i, &t) in self.ready.iter().enumerate().skip(1) {
                    let s = Self::score(graph, oracle, t);
                    if s > best_score {
                        best = i;
                        best_score = s;
                    }
                }
                if best != 0 && dooc_obs::enabled() {
                    // Data-aware reorder: a later-ready task jumped the queue
                    // because more of its inputs are resident.
                    dooc_obs::metrics::counter("sched.reorders").inc();
                    let picked = self.ready[best];
                    dooc_obs::instant_arg(
                        dooc_obs::Category::Scheduler,
                        "sched:reorder",
                        self.node,
                        || {
                            format!(
                                "{} over {} ({best_score} resident input bytes)",
                                graph.task(picked).name,
                                graph.task(self.ready[0]).name
                            )
                        },
                    );
                }
                best
            }
        };
        let t = self.ready.remove(idx);
        self.running.insert(t);
        Some(t)
    }

    /// Returns a handed-out task to the *front* of the ready queue: its
    /// worker died (or was crashed by fault injection) before reporting
    /// completion. Replay is safe because task inputs are immutable arrays —
    /// re-reading them yields the bytes the first attempt saw. Returns
    /// `false` (and does nothing) if the task was not running.
    pub fn requeue(&mut self, id: TaskId) -> bool {
        if !self.running.remove(&id) {
            return false;
        }
        self.ready.insert(0, id);
        if dooc_obs::enabled() {
            dooc_obs::metrics::counter("sched.requeues").inc();
            dooc_obs::instant_arg(
                dooc_obs::Category::Scheduler,
                "sched:requeue",
                self.node,
                move || format!("task {} requeued for re-execution", id.0),
            );
        }
        true
    }

    /// The order the scheduler currently *plans* to run its ready tasks in
    /// (best-score first under data-aware). Prefetch planning peeks at this.
    pub fn planned_order(&self, graph: &TaskGraph, oracle: &dyn MemoryOracle) -> Vec<TaskId> {
        let mut order: Vec<TaskId> = self.ready.clone();
        if self.policy == OrderPolicy::DataAware {
            // Stable sort keeps FIFO order among equal scores.
            order.sort_by_key(|&t| std::cmp::Reverse(Self::score(graph, oracle, t)));
        }
        order
    }

    /// Arrays to prefetch now: the non-resident inputs of the next
    /// `prefetch_window` planned tasks, in plan order, deduplicated.
    /// "The local scheduler makes sure that there are a given number of
    /// ready tasks whose data are in memory."
    pub fn prefetch_candidates(&self, graph: &TaskGraph, oracle: &dyn MemoryOracle) -> Vec<String> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for t in self
            .planned_order(graph, oracle)
            .into_iter()
            .take(self.prefetch_window)
        {
            for d in &graph.task(t).inputs {
                if !oracle.resident(&d.array) && seen.insert(d.array.clone()) {
                    out.push(d.array.clone());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;

    /// Iterated SpMV on one node, 3 sub-matrices, 2 iterations — the Fig. 5
    /// setting. Tasks: mul(i, v) reads M_v (big) and x_{i-1} (small),
    /// produces p_i_v; sum(i) reads the three p's, produces x_i.
    fn iterated_spmv(iters: u64, k: u64) -> TaskGraph {
        let mut tasks = Vec::new();
        for i in 1..=iters {
            for v in 0..k {
                tasks.push(
                    TaskSpec::new(format!("p_{i}_{v}"), "multiply")
                        .input(format!("M_{v}"), 1000)
                        .input(format!("x_{}", i - 1), 8)
                        .output(format!("p_{i}_{v}"), 8)
                        .flops(100)
                        .splittable(),
                );
            }
            let mut sum = TaskSpec::new(format!("x_{i}"), "sum").output(format!("x_{i}"), 8);
            for v in 0..k {
                sum = sum.input(format!("p_{i}_{v}"), 8);
            }
            tasks.push(sum.flops(10));
        }
        TaskGraph::new(tasks).expect("valid")
    }

    /// Oracle: x vectors always resident; exactly one matrix slot.
    struct OneMatrixSlot {
        loaded: std::cell::RefCell<Option<String>>,
        loads: std::cell::RefCell<u64>,
    }

    impl OneMatrixSlot {
        fn new() -> Self {
            Self {
                loaded: None.into(),
                loads: 0u64.into(),
            }
        }
        fn ensure(&self, arrays: &[String]) {
            for a in arrays {
                if a.starts_with("M_") && self.loaded.borrow().as_deref() != Some(a.as_str()) {
                    *self.loaded.borrow_mut() = Some(a.clone());
                    *self.loads.borrow_mut() += 1;
                }
            }
        }
    }

    impl MemoryOracle for OneMatrixSlot {
        fn resident(&self, array: &str) -> bool {
            if array.starts_with("M_") {
                self.loaded.borrow().as_deref() == Some(array)
            } else {
                true // vectors are small and always cached
            }
        }
    }

    /// Runs the whole graph sequentially on one node and counts matrix
    /// loads under the given policy.
    fn run_and_count_loads(policy: OrderPolicy) -> u64 {
        let g = iterated_spmv(2, 3);
        let oracle = OneMatrixSlot::new();
        let mut ls = LocalScheduler::new(&g, g.ids(), policy);
        while let Some(t) = ls.next_task(&g, &oracle) {
            let arrays: Vec<String> = g.task(t).inputs.iter().map(|d| d.array.clone()).collect();
            oracle.ensure(&arrays);
            ls.on_complete(&g, t);
        }
        assert!(ls.graph_done());
        let loads = *oracle.loads.borrow();
        loads
    }

    #[test]
    fn fifo_reloads_every_iteration() {
        // Fig. 5(a): 3 loads per iteration.
        assert_eq!(run_and_count_loads(OrderPolicy::Fifo), 6);
    }

    #[test]
    fn data_aware_discovers_back_and_forth() {
        // Fig. 5(b): 3 loads for the first iteration, 2 for the second —
        // "this plan is automatically discovered and executed by the DOoC
        // middleware".
        assert_eq!(run_and_count_loads(OrderPolicy::DataAware), 5);
    }

    #[test]
    fn data_aware_never_worse_than_fifo_on_longer_chains() {
        for iters in 2..6 {
            let g = iterated_spmv(iters, 3);
            for policy in [OrderPolicy::Fifo, OrderPolicy::DataAware] {
                let oracle = OneMatrixSlot::new();
                let mut ls = LocalScheduler::new(&g, g.ids(), policy);
                while let Some(t) = ls.next_task(&g, &oracle) {
                    let arrays: Vec<String> =
                        g.task(t).inputs.iter().map(|d| d.array.clone()).collect();
                    oracle.ensure(&arrays);
                    ls.on_complete(&g, t);
                }
                let loads = *oracle.loads.borrow();
                match policy {
                    OrderPolicy::Fifo => assert_eq!(loads, 3 * iters),
                    // 3 + 2*(iters-1): the paper's "3 matrix loads for the
                    // first iteration and 2 for each subsequent".
                    OrderPolicy::DataAware => assert_eq!(loads, 3 + 2 * (iters - 1)),
                }
            }
        }
    }

    #[test]
    fn only_local_tasks_are_offered() {
        let g = iterated_spmv(1, 3);
        // Own only multiply 0 (TaskId 0).
        let oracle: HashSet<String> = HashSet::new();
        let mut ls = LocalScheduler::new(&g, [TaskId(0)], OrderPolicy::Fifo);
        assert_eq!(ls.next_task(&g, &oracle), Some(TaskId(0)));
        assert_eq!(ls.next_task(&g, &oracle), None);
        ls.on_complete(&g, TaskId(0));
        assert!(ls.idle());
        assert!(!ls.graph_done(), "remote tasks still pending");
    }

    #[test]
    fn remote_completions_unblock_local_tasks() {
        let g = iterated_spmv(1, 2); // t0, t1 multiplies; t2 sum
        let oracle: HashSet<String> = HashSet::new();
        let mut ls = LocalScheduler::new(&g, [TaskId(2)], OrderPolicy::Fifo);
        assert_eq!(ls.next_task(&g, &oracle), None, "sum blocked");
        ls.on_complete(&g, TaskId(0));
        ls.on_complete(&g, TaskId(1));
        assert_eq!(ls.next_task(&g, &oracle), Some(TaskId(2)));
    }

    #[test]
    fn prefetch_candidates_follow_plan_order() {
        let g = iterated_spmv(1, 3);
        let mut resident: HashSet<String> = HashSet::new();
        resident.insert("x_0".into());
        resident.insert("M_1".into());
        let ls = LocalScheduler::new(&g, g.ids(), OrderPolicy::DataAware).with_prefetch_window(2);
        let pf = ls.prefetch_candidates(&g, &resident);
        // Plan: p_1_1 first (M_1 resident), then p_1_0 (FIFO among zeros):
        // prefetch M_0 (x_0 already resident, M_1 resident).
        assert_eq!(pf, vec!["M_0".to_string()]);
    }

    #[test]
    fn prefetch_window_limits_candidates() {
        let g = iterated_spmv(1, 3);
        let resident: HashSet<String> = ["x_0".to_string()].into_iter().collect();
        let ls = LocalScheduler::new(&g, g.ids(), OrderPolicy::Fifo).with_prefetch_window(1);
        assert_eq!(
            ls.prefetch_candidates(&g, &resident),
            vec!["M_0".to_string()]
        );
        let ls = LocalScheduler::new(&g, g.ids(), OrderPolicy::Fifo).with_prefetch_window(3);
        assert_eq!(
            ls.prefetch_candidates(&g, &resident),
            vec!["M_0".to_string(), "M_1".to_string(), "M_2".to_string()]
        );
    }

    #[test]
    fn requeue_replays_a_running_task() {
        let g = iterated_spmv(1, 2);
        let oracle: HashSet<String> = HashSet::new();
        let mut ls = LocalScheduler::new(&g, g.ids(), OrderPolicy::Fifo);
        let t = ls.next_task(&g, &oracle).expect("ready");
        assert!(ls.requeue(t), "running task goes back to the queue");
        assert_eq!(
            ls.next_task(&g, &oracle),
            Some(t),
            "requeued task is offered first"
        );
        ls.on_complete(&g, t);
        assert!(!ls.requeue(t), "completed task cannot be requeued");
        assert!(
            !ls.requeue(TaskId(999)),
            "never-scheduled task cannot be requeued"
        );
    }

    #[test]
    fn idle_tracks_running_tasks() {
        let g = iterated_spmv(1, 2);
        let oracle: HashSet<String> = HashSet::new();
        let mut ls = LocalScheduler::new(&g, g.ids(), OrderPolicy::Fifo);
        let t = ls.next_task(&g, &oracle).expect("ready");
        assert!(!ls.idle(), "a task is running");
        ls.on_complete(&g, t);
        assert!(!ls.idle(), "more tasks ready");
    }
}

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
//! The data-aware pick prefers the ready task that puts the most
//! already-held bytes to use: its resident input bytes plus, counted twice,
//! the bytes of its consumers' other inputs that already exist. The first
//! term is what turns
//! the naive per-iteration sweep of Fig. 5(a) into the back-and-forth
//! traversal of Fig. 5(b): after finishing the last multiply of iteration
//! *i*, the only task with its (large) matrix input resident is the matching
//! multiply of iteration *i+1*, so the next iteration runs backwards
//! "automatically … without requiring any effort or input from the
//! application programmer". The second term finishes what has been started:
//! once one partial of a row exists, the row's other multiplies outrank the
//! multiplies of untouched rows, and the row's sum — whose output is all
//! that a column of matrix multiplies still waits for — outranks both, so K
//! partials are live at a time instead of K². It counts twice because what
//! a consumer waits with is an intermediate: pushed out of memory it is
//! written *and* read back, where a resident input is only read again. Only
//! a task whose resident inputs outweigh that — a matrix cell larger than
//! the vectors, found in memory — still goes ahead of an open row; a
//! prefetched cell no bigger than a vector piece does not open a second one.
//!
//! The scheduler also owns the one lifetime fact the DAG states: an array
//! lives until the last task that reads it completes, and an output nobody
//! reads is a result. It counts readers per array and reports the arrays
//! that went dead ([`LocalScheduler::take_dead`]) so the worker can delete
//! them instead of leaving them to age out of the LRU and be spilled. It
//! also knows what no task reads *next*: the inputs of a finished task that
//! no ready task reads, nor one its completion makes ready
//! ([`LocalScheduler::idle_inputs`]), which the worker demotes so the
//! storage reclaims them before anything still in use.

use crate::task::{ReadyTracker, TaskGraph, TaskId};
use std::collections::{HashMap, HashSet};

/// How the local scheduler orders ready tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OrderPolicy {
    /// Submission (FIFO) order — the "regular" plan of Fig. 5(a); ablation
    /// baseline.
    Fifo,
    /// Prefer the ready task that puts the most already-held bytes to use —
    /// its resident inputs plus, twice, what its consumers otherwise wait
    /// with (ties: FIFO) — the DOoC behaviour, yielding Fig. 5(b).
    #[default]
    DataAware,
}

/// The storage-map oracle the local scheduler queries. In live runs it is the
/// set `StorageClient::resident()` returns for the tick; the simulator and
/// tests implement it over a model.
pub trait MemoryOracle {
    /// Is the array fully resident in this node's memory?
    fn resident(&self, array: &str) -> bool;
}

impl MemoryOracle for HashSet<String> {
    fn resident(&self, array: &str) -> bool {
        self.contains(array)
    }
}

/// An array produced inside the graph, as the lifetime count sees it.
struct Produced {
    producer: TaskId,
    /// Index into the producer's `outputs`.
    output: usize,
    /// Distinct tasks that read it and have not completed yet.
    readers_left: usize,
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
    /// Node id used when tracing scheduling decisions (-1 when unknown).
    node: i64,
    /// Every array some task produces. Everything below refers to tasks and
    /// arrays by index, resolved once in [`Self::new`], so a tick hashes no
    /// array name for them.
    arrays: Vec<Produced>,
    /// Per task: the produced arrays it reads, as indices into `arrays`.
    reads: Vec<Vec<usize>>,
    /// Per task: the tasks reading its outputs, with the bytes each declares.
    feeds: Vec<Vec<(usize, u64)>>,
    /// Per task: bytes of its inputs that already exist — externals, and
    /// arrays whose producer has completed.
    exists_bytes: Vec<u64>,
    /// Arrays produced on this node whose last reader completed, not yet
    /// handed out by [`Self::take_dead`].
    dead: Vec<usize>,
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
        let mut arrays: Vec<Produced> = Vec::new();
        let mut index: HashMap<&str, usize> = HashMap::new();
        for producer in graph.ids() {
            for (output, d) in graph.task(producer).outputs.iter().enumerate() {
                index.insert(d.array.as_str(), arrays.len());
                arrays.push(Produced {
                    producer,
                    output,
                    readers_left: 0,
                });
            }
        }
        let mut reads = vec![Vec::new(); graph.len()];
        let mut feeds = vec![Vec::new(); graph.len()];
        let mut exists_bytes = vec![0u64; graph.len()];
        // Last task counted as a reader of each array: an array a task
        // lists twice is one reader.
        let mut counted: Vec<TaskId> = arrays.iter().map(|a| a.producer).collect();
        for reader in graph.ids() {
            for d in &graph.task(reader).inputs {
                let Some(&a) = index.get(d.array.as_str()) else {
                    // An external: never deleted, and there from the start.
                    exists_bytes[reader.0 as usize] += d.bytes;
                    continue;
                };
                // A task reading its own output does not keep it alive.
                if counted[a] != reader {
                    counted[a] = reader;
                    reads[reader.0 as usize].push(a);
                    arrays[a].readers_left += 1;
                    feeds[arrays[a].producer.0 as usize].push((reader.0 as usize, d.bytes));
                }
            }
        }
        Self {
            policy,
            mine,
            tracker,
            ready,
            prefetch_window: 2,
            node: -1,
            arrays,
            reads,
            feeds,
            exists_bytes,
            dead: Vec::new(),
        }
    }

    /// Sets the prefetch window: the number of planned tasks, counted from
    /// the one [`Self::next_task`] picks next, whose inputs
    /// [`Self::prefetch_candidates`] names. Window 1 names only that task's
    /// inputs; the default 2 adds the task after it.
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
    /// enter the ready queue, and arrays this completion was the last reader
    /// of go dead.
    pub fn on_complete(&mut self, graph: &TaskGraph, id: TaskId) {
        for t in self.tracker.complete(graph, id) {
            if self.mine.contains(&t) {
                self.ready.push(t);
            }
        }
        let i = id.0 as usize;
        for &(reader, bytes) in &self.feeds[i] {
            self.exists_bytes[reader] += bytes;
        }
        for &a in &self.reads[i] {
            let array = &mut self.arrays[a];
            array.readers_left -= 1;
            if array.readers_left == 0 && self.mine.contains(&array.producer) {
                self.dead.push(a);
            }
        }
    }

    /// The arrays produced on this node that went dead since the last call:
    /// every task that reads them has completed, cluster-wide. A task that
    /// is running but has not completed still counts as a reader. Externals
    /// and outputs no task reads (results) are never reported.
    pub fn take_dead<'g>(&mut self, graph: &'g TaskGraph) -> Vec<&'g str> {
        self.dead
            .drain(..)
            .map(|a| {
                let array = &self.arrays[a];
                graph.task(array.producer).outputs[array.output]
                    .array
                    .as_str()
            })
            .collect()
    }

    /// The inputs of `id`, a local task that just finished and whose
    /// completion has not been recorded yet, that no ready local task
    /// reads — nor a local task this completion makes ready — each once.
    /// Until another task becomes ready and reads one, nothing here runs on
    /// them: the worker tells its storage so, and reclaim takes them before
    /// the blocks the ready tasks need.
    pub fn idle_inputs<'g>(&self, graph: &'g TaskGraph, id: TaskId) -> Vec<&'g str> {
        let readied = graph
            .succs(id)
            .iter()
            .filter(|&&s| self.mine.contains(&s) && self.tracker.pending(s) == 1);
        let next: Vec<TaskId> = self.ready.iter().chain(readied).copied().collect();
        let read_by_ready = |array: &str| {
            next.iter()
                .any(|&t| graph.task(t).inputs.iter().any(|d| d.array == array))
        };
        let mut idle: Vec<&str> = Vec::new();
        for d in &graph.task(id).inputs {
            let array = d.array.as_str();
            if !idle.contains(&array) && !read_by_ready(array) {
                idle.push(array);
            }
        }
        idle
    }

    /// Number of ready local tasks.
    pub fn ready_count(&self) -> usize {
        self.ready.len()
    }

    /// Is every task in the graph complete?
    pub fn graph_done(&self) -> bool {
        self.tracker.all_done()
    }

    /// Score of a task under the data-aware policy: the bytes already held
    /// that running it puts to use — its resident input bytes, plus twice the
    /// bytes of its consumers' other inputs that already exist (the task is
    /// not complete, so its own outputs are not among them; twice, because
    /// losing an intermediate costs a write and a read). A completed sibling
    /// counts there, so a started row outranks an untouched one; so does an
    /// external, so the sum or barrier that releases a column of matrix
    /// multiplies — possibly on other nodes — never waits behind local work.
    fn score(&self, graph: &TaskGraph, oracle: &dyn MemoryOracle, id: TaskId) -> u64 {
        let resident: u64 = graph
            .task(id)
            .inputs
            .iter()
            .filter(|d| oracle.resident(&d.array))
            .map(|d| d.bytes)
            .sum();
        let waiting: u64 = graph
            .succs(id)
            .iter()
            .map(|c| self.exists_bytes[c.0 as usize])
            .sum();
        resident + 2 * waiting
    }

    /// Picks the next task for a free computing filter, or `None` if no
    /// local task is ready. Data-aware policy prefers the ready task with
    /// the highest [score](Self::score); FIFO takes readiness order.
    pub fn next_task(&mut self, graph: &TaskGraph, oracle: &dyn MemoryOracle) -> Option<TaskId> {
        if self.ready.is_empty() {
            return None;
        }
        let idx = match self.policy {
            OrderPolicy::Fifo => 0,
            OrderPolicy::DataAware => {
                let mut best = 0usize;
                let mut best_score = self.score(graph, oracle, self.ready[0]);
                for (i, &t) in self.ready.iter().enumerate().skip(1) {
                    let s = self.score(graph, oracle, t);
                    if s > best_score {
                        best = i;
                        best_score = s;
                    }
                }
                if best != 0 && dooc_obs::enabled() {
                    // Data-aware reorder: a later-ready task jumped the queue
                    // because it puts more already-held bytes to use.
                    dooc_obs::metrics::counter("sched.reorders").inc();
                    let picked = self.ready[best];
                    dooc_obs::instant_arg(
                        dooc_obs::Category::Scheduler,
                        "sched:reorder",
                        self.node,
                        || {
                            format!(
                                "{} over {} ({best_score} held bytes put to use)",
                                graph.task(picked).name,
                                graph.task(self.ready[0]).name
                            )
                        },
                    );
                }
                best
            }
        };
        Some(self.ready.remove(idx))
    }

    /// The order the scheduler currently *plans* to run its ready tasks in
    /// (best-score first under data-aware). Prefetch planning peeks at this.
    pub fn planned_order(&self, graph: &TaskGraph, oracle: &dyn MemoryOracle) -> Vec<TaskId> {
        let mut order: Vec<TaskId> = self.ready.clone();
        if self.policy == OrderPolicy::DataAware {
            // Stable sort keeps FIFO order among equal scores.
            order.sort_by_cached_key(|&t| std::cmp::Reverse(self.score(graph, oracle, t)));
        }
        order
    }

    /// Arrays to prefetch now: the non-resident inputs of the next
    /// `prefetch_window` planned tasks, in plan order, deduplicated.
    /// "The local scheduler makes sure that there are a given number of
    /// ready tasks whose data are in memory."
    ///
    /// The first planned task is the one [`Self::next_task`] returns if
    /// called now with the same oracle, and the worker calls this before it
    /// calls `next_task`: the window counts the task about to start, so
    /// window 1 looks no further ahead than that task.
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

    /// Iterated SpMV over a K×K grid on one node with the barrier between
    /// iterations — the shape `SpmvAppBuilder` builds by default. mul(i,u,v)
    /// reads M_u_v (big), x_{i-1}_v and the previous barrier, produces
    /// p_i_u_v; sum(i,u) reads row u's K partials, produces x_i_u; bar(i)
    /// reads every x_i_u.
    fn grid_spmv(iters: u64, k: u64) -> TaskGraph {
        grid_spmv_of(iters, k, 1000)
    }

    /// [`grid_spmv`] with matrix cells of `cell` bytes beside 8-byte vectors.
    fn grid_spmv_of(iters: u64, k: u64, cell: u64) -> TaskGraph {
        let mut tasks = Vec::new();
        for i in 1..=iters {
            for u in 0..k {
                for v in 0..k {
                    let mut t = TaskSpec::new(format!("p_{i}_{u}_{v}"), "multiply")
                        .input(format!("M_{u}_{v}"), cell)
                        .input(format!("x_{}_{v}", i - 1), 8)
                        .output(format!("p_{i}_{u}_{v}"), 8);
                    if i > 1 {
                        t = t.input(format!("bar_{}", i - 1), 8);
                    }
                    tasks.push(t);
                }
            }
            for u in 0..k {
                let mut sum =
                    TaskSpec::new(format!("x_{i}_{u}"), "sum").output(format!("x_{i}_{u}"), 8);
                for v in 0..k {
                    sum = sum.input(format!("p_{i}_{u}_{v}"), 8);
                }
                tasks.push(sum);
            }
            if i < iters {
                let mut bar =
                    TaskSpec::new(format!("bar_{i}"), "barrier").output(format!("bar_{i}"), 8);
                for u in 0..k {
                    bar = bar.input(format!("x_{i}_{u}"), 8);
                }
                tasks.push(bar);
            }
        }
        TaskGraph::new(tasks).expect("valid")
    }

    /// Splits `p_i_u_v` / `x_i_u` into its indices.
    fn indices(name: &str) -> Vec<u64> {
        name.split('_')
            .skip(1)
            .map(|n| n.parse().expect("index"))
            .collect()
    }

    /// Drains `grid_spmv(3, K)` on one node with no matrix ever resident,
    /// only the `x` pieces of `resident_cols` resident, and partials resident
    /// from the moment they are produced until they are reported dead.
    /// Returns the order tasks ran in and the most partials alive at once.
    fn drain_grid(k: u64, resident_cols: &[u64]) -> (Vec<String>, usize) {
        let g = grid_spmv(3, k);
        let mut resident: HashSet<String> = HashSet::new();
        for v in resident_cols {
            resident.insert(format!("x_0_{v}"));
        }
        let mut ls = LocalScheduler::new(&g, g.ids(), OrderPolicy::DataAware);
        let mut order = Vec::new();
        let mut peak = 0;
        while let Some(t) = ls.next_task(&g, &resident) {
            let spec = g.task(t);
            order.push(spec.name.clone());
            let out = &spec.outputs[0].array;
            let is_kept_x = spec.kind == "sum" && resident_cols.contains(&indices(out)[1]);
            if spec.kind == "multiply" || spec.kind == "barrier" || is_kept_x {
                resident.insert(out.clone());
            }
            ls.on_complete(&g, t);
            peak = peak.max(resident.iter().filter(|a| a.starts_with("p_")).count());
            for dead in ls.take_dead(&g) {
                resident.remove(dead);
            }
        }
        assert!(ls.graph_done());
        (order, peak)
    }

    #[test]
    fn a_started_row_finishes_and_is_summed_before_another_begins() {
        const K: u64 = 4;
        for resident_cols in [&[][..], &[1], &[1, 3], &[0, 1, 2, 3]] {
            let (order, peak) = drain_grid(K, resident_cols);
            assert!(
                peak <= K as usize,
                "x pieces {resident_cols:?} resident: {peak} partials alive at once, \
                 a row holds {K} (a column-major sweep holds {})",
                K * K
            );
            // At most one row is open — started and not yet summed — at a
            // time, in every iteration.
            let mut open: Option<(u64, u64)> = None;
            for name in &order {
                let ix = indices(name);
                match (name.starts_with("p_"), open) {
                    (true, None) => open = Some((ix[0], ix[1])),
                    (true, Some(row)) => assert_eq!(
                        (ix[0], ix[1]),
                        row,
                        "x pieces {resident_cols:?} resident: {name} starts a row \
                         while row {row:?} waits for its sum (order {order:?})"
                    ),
                    (false, Some(row)) if name.starts_with("x_") => {
                        assert_eq!((ix[0], ix[1]), row, "sum of a row that is not open");
                        open = None;
                    }
                    _ => {}
                }
            }
            // Within a row, the multiplies whose x piece is resident go
            // first: residency still decides what the score leaves open.
            let first_row: Vec<u64> = order[..K as usize].iter().map(|n| indices(n)[2]).collect();
            let resident_first = first_row
                .iter()
                .take(resident_cols.len())
                .all(|v| resident_cols.contains(v));
            assert!(
                resident_first,
                "row order {first_row:?} for {resident_cols:?}"
            );
        }
    }

    #[test]
    fn a_resident_matrix_still_outranks_a_started_row() {
        // Row 0 is open (one partial exists), but M_2_1 is in memory: using
        // it now saves a 1000-byte load, finishing row 0 first saves nothing
        // that will not still be there.
        let g = grid_spmv(1, 3);
        let resident: HashSet<String> = ["M_2_1", "x_0_0", "x_0_1", "x_0_2", "p_1_0_0"]
            .into_iter()
            .map(String::from)
            .collect();
        let mut ls = LocalScheduler::new(&g, g.ids(), OrderPolicy::DataAware);
        ls.ready.retain(|&t| g.task(t).name != "p_1_0_0");
        ls.on_complete(&g, TaskId(0));
        let next = ls.next_task(&g, &resident).expect("ready");
        assert_eq!(g.task(next).name, "p_1_2_1");
        let planned = ls.planned_order(&g, &resident);
        assert_eq!(g.task(planned[0]).name, "p_1_0_1", "then row 0 goes on");
    }

    #[test]
    fn a_resident_cell_smaller_than_a_vector_does_not_open_a_second_row() {
        // The long thin matrix: cells (6) smaller than vector pieces (8).
        // Row 0 is open on its column-1 partial; M_2_1 was prefetched beside
        // the resident x_0_1 while the two column-1 multiplies tied. Running
        // p_1_2_1 would use 14 held bytes but put a second row's partials
        // beside the first's, and a partial pushed out is written and read.
        let g = grid_spmv_of(1, 3, 6);
        let resident: HashSet<String> = ["M_2_1", "x_0_1", "p_1_0_1"]
            .into_iter()
            .map(String::from)
            .collect();
        let mut ls = LocalScheduler::new(&g, g.ids(), OrderPolicy::DataAware);
        ls.ready.retain(|&t| g.task(t).name != "p_1_0_1");
        ls.on_complete(&g, TaskId(1));
        let planned = ls.planned_order(&g, &resident);
        let names: Vec<&str> = planned.iter().map(|&t| g.task(t).name.as_str()).collect();
        assert_eq!(names[..3], ["p_1_0_0", "p_1_0_2", "p_1_2_1"]);
    }

    #[test]
    fn arrays_die_with_their_last_reader_and_only_on_the_producers_node() {
        // a -> A -> {b, c}; b -> B (nobody reads it: a result); c reads the
        // external E as well.
        let g = TaskGraph::new(vec![
            TaskSpec::new("a", "k").output("A", 8),
            TaskSpec::new("b", "k").input("A", 8).output("B", 8),
            TaskSpec::new("c", "k")
                .input("A", 8)
                .input("A", 8)
                .input("E", 8)
                .output("C", 8),
            TaskSpec::new("d", "k")
                .input("C", 8)
                .input("D", 8)
                .output("D", 8),
        ])
        .expect("valid");
        let oracle: HashSet<String> = HashSet::new();
        // Node 0 runs a (and d), node 1 runs b and c.
        let mut producer = LocalScheduler::new(&g, [TaskId(0), TaskId(3)], OrderPolicy::Fifo);
        let mut reader = LocalScheduler::new(&g, [TaskId(1), TaskId(2)], OrderPolicy::Fifo);
        producer.on_complete(&g, TaskId(0));
        reader.on_complete(&g, TaskId(0));
        assert_eq!(reader.next_task(&g, &oracle), Some(TaskId(1)));
        producer.on_complete(&g, TaskId(1));
        reader.on_complete(&g, TaskId(1));
        assert!(
            producer.take_dead(&g).is_empty(),
            "c has not read A yet (listing it twice makes c one reader)"
        );
        // c is running but has not completed: A stays.
        assert_eq!(reader.next_task(&g, &oracle), Some(TaskId(2)));
        assert!(producer.take_dead(&g).is_empty());
        producer.on_complete(&g, TaskId(2));
        reader.on_complete(&g, TaskId(2));
        assert_eq!(producer.take_dead(&g), vec!["A"], "last reader done");
        assert!(producer.take_dead(&g).is_empty(), "reported once");
        assert!(
            reader.take_dead(&g).is_empty(),
            "A was produced on the other node, E is external, B is a result"
        );
        producer.on_complete(&g, TaskId(3));
        reader.on_complete(&g, TaskId(3));
        assert_eq!(reader.take_dead(&g), vec!["C"]);
        assert!(
            producer.take_dead(&g).is_empty(),
            "d reading its own output D does not make D an intermediate"
        );
    }

    #[test]
    fn a_consumed_matrix_goes_idle_while_the_vector_it_shares_does_not() {
        // Fig. 5: once p_1_0 completes, nothing ready reads M_0 (p_2_0 waits
        // for x_1), while p_1_1 and p_1_2 still read x_0.
        let g = iterated_spmv(2, 3);
        let none: HashSet<String> = HashSet::new();
        let mut ls = LocalScheduler::new(&g, g.ids(), OrderPolicy::Fifo);
        let first = ls.next_task(&g, &none).expect("ready");
        assert_eq!(g.task(first).name, "p_1_0");
        assert_eq!(ls.idle_inputs(&g, first), vec!["M_0"]);
        ls.on_complete(&g, first);
        let second = ls.next_task(&g, &none).expect("ready");
        ls.on_complete(&g, second);
        let last = ls.next_task(&g, &none).expect("ready");
        assert_eq!(g.task(last).name, "p_1_2");
        assert_eq!(
            ls.idle_inputs(&g, last),
            vec!["M_2", "x_0"],
            "the iteration's last multiply leaves x_0 to nobody"
        );
    }

    #[test]
    fn what_the_finished_task_releases_is_not_idle() {
        // The barrier's inputs are the x pieces the next iteration's
        // multiplies read; its completion makes those multiplies ready, so
        // nothing it read is idle. Each multiply's matrix cell is.
        let g = grid_spmv(2, 2);
        let none: HashSet<String> = HashSet::new();
        let mut ls = LocalScheduler::new(&g, g.ids(), OrderPolicy::DataAware);
        while let Some(t) = ls.next_task(&g, &none) {
            let spec = g.task(t);
            let idle = ls.idle_inputs(&g, t);
            match spec.kind.as_str() {
                "barrier" => assert!(idle.is_empty(), "{} left {idle:?}", spec.name),
                "multiply" => assert!(idle.contains(&spec.inputs[0].array.as_str())),
                _ => {}
            }
            ls.on_complete(&g, t);
        }
        assert!(ls.graph_done());
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
        assert_eq!(ls.ready_count(), 0);
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
    fn window_one_names_only_the_inputs_of_the_task_about_to_start() {
        let g = iterated_spmv(1, 3);
        let resident: HashSet<String> = ["M_2".to_string()].into_iter().collect();
        let mut ls =
            LocalScheduler::new(&g, g.ids(), OrderPolicy::DataAware).with_prefetch_window(1);
        // The worker's order: prefetch candidates first, then the next task.
        let pf = ls.prefetch_candidates(&g, &resident);
        let next = ls.next_task(&g, &resident).expect("a ready multiply");
        assert_eq!(g.task(next).name, "p_1_2", "its matrix is resident");
        let missing: Vec<String> = g
            .task(next)
            .inputs
            .iter()
            .map(|d| d.array.clone())
            .filter(|a| !resident.contains(a))
            .collect();
        assert_eq!(
            pf, missing,
            "window 1 looks no further than the task about to start"
        );
    }
}

//! Task specifications and the data-derived DAG.
//!
//! "Each computation takes some data as an input and outputs some data. Each
//! data is a complete array that is (or will be) stored within the storage
//! layer. The input and output data information is used to derive a DAG of
//! the tasks."

use crate::{Result, SchedError};
use std::collections::HashMap;

/// Identity of a task within one [`TaskGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A reference to a storage-layer array consumed or produced by a task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataRef {
    /// Array name in the storage layer.
    pub array: String,
    /// Size in bytes (drives affinity weighting and transfer accounting).
    pub bytes: u64,
}

impl DataRef {
    /// Creates a reference.
    pub fn new(array: impl Into<String>, bytes: u64) -> Self {
        Self {
            array: array.into(),
            bytes,
        }
    }
}

/// A task: a named computation with declared inputs and outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskSpec {
    /// Human-readable name (e.g. `x_1_0_2` — the paper labels tasks by their
    /// output vector).
    pub name: String,
    /// Application-defined kind tag (e.g. "multiply", "sum"); the executing
    /// filter dispatches on it.
    pub kind: String,
    /// Arrays read.
    pub inputs: Vec<DataRef>,
    /// Arrays written (exactly one producer per array across the graph).
    pub outputs: Vec<DataRef>,
    /// Floating-point operations this task performs (cost model input).
    pub flops: u64,
    /// May the local scheduler split this task by output range "to match the
    /// parallelism available on the node"?
    pub splittable: bool,
    /// Explicit placement override: run on this node regardless of affinity
    /// (how an application encodes a fixed policy such as the paper's
    /// row-root reduction; `None` = let the global scheduler decide).
    pub pin: Option<u64>,
}

impl TaskSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, kind: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            kind: kind.into(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            flops: 0,
            splittable: false,
            pin: None,
        }
    }

    /// Adds an input.
    pub fn input(mut self, array: impl Into<String>, bytes: u64) -> Self {
        self.inputs.push(DataRef::new(array, bytes));
        self
    }

    /// Adds an output.
    pub fn output(mut self, array: impl Into<String>, bytes: u64) -> Self {
        self.outputs.push(DataRef::new(array, bytes));
        self
    }

    /// Sets the flop estimate.
    pub fn flops(mut self, flops: u64) -> Self {
        self.flops = flops;
        self
    }

    /// Marks the task splittable.
    pub fn splittable(mut self) -> Self {
        self.splittable = true;
        self
    }

    /// Pins the task to a node.
    pub fn pin_to(mut self, node: u64) -> Self {
        self.pin = Some(node);
        self
    }

    /// Total input bytes.
    pub fn input_bytes(&self) -> u64 {
        self.inputs.iter().map(|d| d.bytes).sum()
    }
}

/// The task DAG derived from input/output declarations.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    tasks: Vec<TaskSpec>,
    /// Producer of each array (tasks whose outputs include it).
    producer: HashMap<String, TaskId>,
    preds: Vec<Vec<TaskId>>,
    succs: Vec<Vec<TaskId>>,
}

impl TaskGraph {
    /// Derives the DAG. Fails on duplicate producers (immutability requires
    /// a single writer per array) and on cycles.
    pub fn new(tasks: Vec<TaskSpec>) -> Result<Self> {
        let mut producer: HashMap<String, TaskId> = HashMap::new();
        for (i, t) in tasks.iter().enumerate() {
            for out in &t.outputs {
                if producer
                    .insert(out.array.clone(), TaskId(i as u64))
                    .is_some()
                {
                    return Err(SchedError::DuplicateProducer {
                        array: out.array.clone(),
                    });
                }
            }
        }
        let mut preds = vec![Vec::new(); tasks.len()];
        let mut succs = vec![Vec::new(); tasks.len()];
        for (i, t) in tasks.iter().enumerate() {
            for inp in &t.inputs {
                if let Some(&p) = producer.get(&inp.array) {
                    if p.0 as usize != i {
                        preds[i].push(p);
                        succs[p.0 as usize].push(TaskId(i as u64));
                    }
                }
                // Inputs without a producer are external (files on disk).
            }
        }
        for p in &mut preds {
            p.sort_unstable();
            p.dedup();
        }
        for s in &mut succs {
            s.sort_unstable();
            s.dedup();
        }
        let g = Self {
            tasks,
            producer,
            preds,
            succs,
        };
        g.topo_order()?; // cycle check
        Ok(g)
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with the given id.
    pub fn task(&self, id: TaskId) -> &TaskSpec {
        &self.tasks[id.0 as usize]
    }

    /// All task ids in declaration order.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len() as u64).map(TaskId)
    }

    /// FNV-1a fingerprint of every task's name, kind, data declarations,
    /// flop estimate and pin, in declaration order. The runtime's bootstrap
    /// digest and `dooc-audit`'s reports both carry it, so one graph has one
    /// fingerprint in every process and every report.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for t in &self.tasks {
            eat(t.name.as_bytes());
            eat(t.kind.as_bytes());
            for d in t.inputs.iter().chain(&t.outputs) {
                eat(d.array.as_bytes());
                eat(&d.bytes.to_le_bytes());
            }
            eat(&t.flops.to_le_bytes());
            eat(&t.pin.map_or(0, |p| p + 1).to_le_bytes());
        }
        h
    }

    /// Predecessors (tasks producing this task's inputs).
    pub fn preds(&self, id: TaskId) -> &[TaskId] {
        &self.preds[id.0 as usize]
    }

    /// Successors (tasks consuming this task's outputs).
    pub fn succs(&self, id: TaskId) -> &[TaskId] {
        &self.succs[id.0 as usize]
    }

    /// The producer of an array, if it is produced inside this graph.
    pub fn producer_of(&self, array: &str) -> Option<TaskId> {
        self.producer.get(array).copied()
    }

    /// A topological order (Kahn); `Err(Cycle)` if none exists. Ties are
    /// broken by task id, so the order is deterministic.
    pub fn topo_order(&self) -> Result<Vec<TaskId>> {
        let n = self.tasks.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.preds[i].len()).collect();
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<u64>> = (0..n as u64)
            .filter(|&i| indeg[i as usize] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(i)) = heap.pop() {
            order.push(TaskId(i));
            for &s in &self.succs[i as usize] {
                indeg[s.0 as usize] -= 1;
                if indeg[s.0 as usize] == 0 {
                    heap.push(std::cmp::Reverse(s.0));
                }
            }
        }
        if order.len() != n {
            return Err(SchedError::Cycle);
        }
        Ok(order)
    }
}

/// Incremental ready-set tracking: feed completions, get newly ready tasks.
/// "All tasks that do not have any unprocessed predecessors are marked as
/// ready."
#[derive(Clone, Debug)]
pub struct ReadyTracker {
    indeg: Vec<usize>,
    done: Vec<bool>,
}

impl ReadyTracker {
    /// Initializes from a graph.
    pub fn new(graph: &TaskGraph) -> Self {
        Self {
            indeg: graph.ids().map(|i| graph.preds(i).len()).collect(),
            done: vec![false; graph.len()],
        }
    }

    /// Tasks ready at start (no predecessors).
    pub fn initially_ready(&self) -> Vec<TaskId> {
        self.indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| TaskId(i as u64))
            .collect()
    }

    /// Number of `id`'s predecessors that have not completed.
    pub(crate) fn pending(&self, id: TaskId) -> usize {
        self.indeg[id.0 as usize]
    }

    /// Marks `id` complete; returns tasks that became ready.
    pub fn complete(&mut self, graph: &TaskGraph, id: TaskId) -> Vec<TaskId> {
        assert!(!self.done[id.0 as usize], "task {id} completed twice");
        self.done[id.0 as usize] = true;
        let mut newly = Vec::new();
        for &s in graph.succs(id) {
            let d = &mut self.indeg[s.0 as usize];
            *d -= 1;
            if *d == 0 {
                newly.push(s);
            }
        }
        newly
    }

    /// Have all tasks completed?
    pub fn all_done(&self) -> bool {
        self.done.iter().all(|&d| d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        // a -> b, c -> d
        TaskGraph::new(vec![
            TaskSpec::new("a", "k").output("A", 10),
            TaskSpec::new("b", "k").input("A", 10).output("B", 10),
            TaskSpec::new("c", "k").input("A", 10).output("C", 10),
            TaskSpec::new("d", "k")
                .input("B", 10)
                .input("C", 10)
                .output("D", 10),
        ])
        .expect("valid diamond")
    }

    #[test]
    fn dag_edges_derived_from_data() {
        let g = diamond();
        assert_eq!(g.preds(TaskId(0)), &[]);
        assert_eq!(g.preds(TaskId(1)), &[TaskId(0)]);
        assert_eq!(g.preds(TaskId(3)), &[TaskId(1), TaskId(2)]);
        assert_eq!(g.succs(TaskId(0)), &[TaskId(1), TaskId(2)]);
        assert_eq!(g.producer_of("C"), Some(TaskId(2)));
        assert_eq!(g.producer_of("external"), None);
    }

    #[test]
    fn fingerprint_sees_flops_and_pins() {
        let with = |flops: u64, pin: Option<u64>| {
            let mut a = TaskSpec::new("a", "k").output("A", 10).flops(flops);
            a.pin = pin;
            TaskGraph::new(vec![a, TaskSpec::new("b", "k").input("A", 10)])
                .expect("valid")
                .fingerprint()
        };
        assert_eq!(with(5, None), with(5, None));
        assert_ne!(with(5, None), with(6, None));
        assert_ne!(with(5, None), with(5, Some(0)));
        assert_ne!(with(5, Some(0)), with(5, Some(1)));
        assert_ne!(diamond().fingerprint(), with(5, None));
    }

    #[test]
    fn duplicate_producer_rejected() {
        let err = TaskGraph::new(vec![
            TaskSpec::new("a", "k").output("X", 1),
            TaskSpec::new("b", "k").output("X", 1),
        ]);
        assert_eq!(
            err.unwrap_err(),
            SchedError::DuplicateProducer { array: "X".into() }
        );
    }

    #[test]
    fn cycle_rejected() {
        let err = TaskGraph::new(vec![
            TaskSpec::new("a", "k").input("Y", 1).output("X", 1),
            TaskSpec::new("b", "k").input("X", 1).output("Y", 1),
        ]);
        assert_eq!(err.unwrap_err(), SchedError::Cycle);
    }

    #[test]
    fn external_inputs_have_no_edge() {
        let g = TaskGraph::new(vec![TaskSpec::new("m", "k")
            .input("file_on_disk", 100)
            .output("Y", 10)])
        .expect("valid");
        assert_eq!(g.preds(TaskId(0)), &[]);
    }

    #[test]
    fn topo_order_respects_deps() {
        let g = diamond();
        let order = g.topo_order().expect("acyclic");
        let pos: HashMap<TaskId, usize> = order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        for id in g.ids() {
            for &p in g.preds(id) {
                assert!(pos[&p] < pos[&id]);
            }
        }
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn ready_tracker_progression() {
        let g = diamond();
        let mut rt = ReadyTracker::new(&g);
        assert_eq!(rt.initially_ready(), vec![TaskId(0)]);
        let newly = rt.complete(&g, TaskId(0));
        assert_eq!(newly, vec![TaskId(1), TaskId(2)]);
        assert!(rt.complete(&g, TaskId(1)).is_empty(), "d still blocked");
        assert_eq!(rt.complete(&g, TaskId(2)), vec![TaskId(3)]);
        assert!(!rt.all_done());
        rt.complete(&g, TaskId(3));
        assert!(rt.all_done());
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let g = diamond();
        let mut rt = ReadyTracker::new(&g);
        rt.complete(&g, TaskId(0));
        rt.complete(&g, TaskId(0));
    }

    #[test]
    fn self_input_no_self_loop() {
        // A task may list its own output as input (in-place style); no edge.
        let g = TaskGraph::new(vec![TaskSpec::new("a", "k").input("X", 1).output("X", 1)])
            .expect("valid");
        assert!(g.preds(TaskId(0)).is_empty());
    }

    #[test]
    fn builder_accessors() {
        let t = TaskSpec::new("n", "mul")
            .input("A", 5)
            .input("B", 7)
            .output("C", 3)
            .flops(99)
            .splittable();
        assert_eq!(t.input_bytes(), 12);
        assert_eq!(t.flops, 99);
        assert!(t.splittable);
        assert_eq!(t.kind, "mul");
    }
}

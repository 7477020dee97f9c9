//! Cluster assembly and execution.
//!
//! [`DoocRuntime::run`] mounts the full architecture of paper Fig. 2 into a
//! single filter-stream layout:
//!
//! ```text
//!   global scheduler (placement, runs up-front)           ── dooc-scheduler
//!   per node: worker (local scheduler + computing filter) ── this crate
//!   per node: storage filter  ◄──────────► peers          ── dooc-storage
//!   per node: I/O filter (scratch directory)              ── dooc-storage
//! ```
//!
//! then executes the application's task DAG to completion out-of-core.

use crate::report::RunReport;
use crate::worker::{Sinks, TaskExecutor, WorkerFilter};
use crate::{DoocConfig, DoocError, Result};
use bytes::Bytes;
use dooc_filterstream::{Delivery, Layout, NodeId, Runtime, Transport};
use dooc_scheduler::{assign_affinity, TaskGraph};
use dooc_storage::proto::NodeStats;
use dooc_storage::StorageCluster;
use dooc_sync::atomic::AtomicU64;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The DOoC middleware entry point.
pub struct DoocRuntime {
    config: DoocConfig,
}

impl DoocRuntime {
    /// Creates a runtime with the given configuration.
    pub fn new(config: DoocConfig) -> Self {
        Self { config }
    }

    /// Executes a task DAG with every node in this process; streams between
    /// nodes ride the in-process transport, wired exactly as
    /// [`DoocRuntime::run_distributed`] wires one process's node.
    ///
    /// * `graph` — the application's tasks (inputs/outputs declared);
    /// * `external_location` — node hosting each file-backed input array
    ///   (staged in that node's scratch directory before the run);
    /// * `executor` — application logic per task kind.
    pub fn run(
        &self,
        graph: TaskGraph,
        external_location: HashMap<String, u64>,
        executor: Arc<dyn TaskExecutor>,
    ) -> Result<RunReport> {
        self.run_inner(graph, external_location, executor, None)
    }

    /// Executes a task DAG as one process of a multi-process cluster.
    ///
    /// Every process must call this with the *same* graph, external map and
    /// configuration (the scratch-dir vector lists all nodes' directories;
    /// only the entry for `transport.node()` is accessed locally). A digest
    /// of the run-defining inputs is exchanged across the cluster before
    /// assembly, so a mismatched process fails fast instead of deadlocking
    /// mid-run.
    ///
    /// The returned report is this process's view: only the local node's
    /// `node_stats` entry is populated, the trace holds local events, and
    /// stream counters cover local endpoints.
    pub fn run_distributed(
        &self,
        graph: TaskGraph,
        external_location: HashMap<String, u64>,
        executor: Arc<dyn TaskExecutor>,
        transport: Arc<dyn Transport>,
    ) -> Result<RunReport> {
        if self.config.nnodes() != transport.nnodes() {
            return Err(DoocError::Config(format!(
                "config declares {} scratch dirs but transport spans {} nodes",
                self.config.nnodes(),
                transport.nnodes()
            )));
        }
        let digest = run_digest(&self.config, &graph, &external_location);
        let blobs = transport
            .exchange(Bytes::copy_from_slice(&digest.to_le_bytes()))
            .map_err(DoocError::Dataflow)?;
        for (peer, blob) in blobs {
            if blob.as_ref() != digest.to_le_bytes() {
                return Err(DoocError::Config(format!(
                    "bootstrap digest mismatch with {peer}: every process must \
                     run the identical graph, external map and config"
                )));
            }
        }
        self.run_inner(graph, external_location, executor, Some(transport))
    }

    fn run_inner(
        &self,
        graph: TaskGraph,
        external_location: HashMap<String, u64>,
        executor: Arc<dyn TaskExecutor>,
        transport: Option<Arc<dyn Transport>>,
    ) -> Result<RunReport> {
        let nnodes = self.config.nnodes();
        if nnodes == 0 {
            return Err(DoocError::Config("no scratch directories".into()));
        }
        // Static pre-run audit: per-task residency vs the storage budget and
        // lane-capacity deadlock freedom — both decidable from the graph
        // alone, so reject bad jobs before assembling the cluster. The lanes
        // are wired below from the same specs the audit checks.
        let lanes = runtime_lane_specs(&graph, nnodes as u64);
        dooc_scheduler::audit(&graph, self.config.memory_budget, &lanes)
            .map_err(DoocError::Audit)?;
        // Global scheduling: affinity placement.
        let placement = Arc::new(assign_affinity(&graph, &external_location, nnodes as u64)?);

        let geometry = Arc::new(geometry_table(&graph, &self.config.geometry));

        let graph = Arc::new(graph);
        let sinks = Arc::new(Sinks::default());
        let client_base = Arc::new(AtomicU64::new(0));
        let start = Instant::now();

        let mut layout = Layout::new();
        let mut cluster = StorageCluster::build_with(
            &mut layout,
            self.config.scratch_dirs.clone(),
            self.config.memory_budget,
            self.config.seed,
            self.config.recovery.clone(),
            self.config.faults.clone(),
        );

        let nodes: Vec<NodeId> = (0..nnodes).map(NodeId).collect();
        let wf_graph = Arc::clone(&graph);
        let wf_placement = Arc::clone(&placement);
        let wf_geometry = Arc::clone(&geometry);
        let wf_sinks = Arc::clone(&sinks);
        let wf_base = Arc::clone(&client_base);
        let wf_config = self.config.clone();
        let wf_blocks: Vec<_> = (0..nnodes)
            .map(|node| cluster.block_pool(node).clone())
            .collect();
        let workers = layout.add_replicated("worker", nodes, move |i| {
            Box::new(WorkerFilter {
                graph: Arc::clone(&wf_graph),
                placement: Arc::clone(&wf_placement),
                executor: Arc::clone(&executor),
                config: wf_config.clone(),
                geometry: Arc::clone(&wf_geometry),
                client_base: Arc::clone(&wf_base),
                blocks: wf_blocks[i].clone(),
                sinks: Arc::clone(&wf_sinks),
                start,
            })
        });

        // Completion broadcast: every worker (including the sender) sees
        // every completion. `runtime_lane_specs` declares this lane alone;
        // its capacity covers the whole task count so sends never block on
        // a busy peer.
        let done = &lanes[0];
        layout.connect_with(
            workers,
            "done_out",
            workers,
            "done_in",
            Delivery::Broadcast,
            done.capacity as usize,
        );

        let base = cluster.attach_clients(&mut layout, workers, nnodes, "sreq", "srep");
        // Relaxed is enough: the store happens before `Runtime::run` spawns
        // the filter threads, and thread spawn is the happens-before edge
        // that publishes it to the workers' relaxed loads.
        client_base.store(base, dooc_sync::atomic::Ordering::Relaxed);

        let streams = match transport {
            Some(t) => Runtime::run_distributed(layout, t)?,
            None => Runtime::run(layout)?,
        };
        let elapsed = start.elapsed();

        // Shutdown leak audit (debug builds): every buffer enqueued into a
        // port must have been dequeued before the filters exited.
        #[cfg(debug_assertions)]
        {
            let leaks: Vec<String> = streams
                .undrained_ports()
                .iter()
                .map(|p| {
                    format!(
                        "{}: delivered {} received {}",
                        p.name, p.delivered, p.received
                    )
                })
                .collect();
            assert!(
                leaks.is_empty(),
                "stream leak audit: buffers abandoned at shutdown: {leaks:?}"
            );
        }

        let mut trace = std::mem::take(&mut *sinks.trace.lock());
        trace.sort_by_key(|e| e.start);
        let mut node_stats = vec![NodeStats::default(); nnodes];
        for (node, st) in sinks.stats.lock().drain(..) {
            node_stats[node as usize] = st;
        }

        Ok(RunReport {
            elapsed,
            node_stats,
            streams,
            trace,
        })
    }
}

/// The bounded lanes `run_inner` wires, declared for the lane-capacity
/// audit; `run_inner` takes each lane's capacity from here, so the wiring
/// is the audited spec. The worker↔worker completion broadcast loops back
/// to its own senders, so it is a communication cycle: a send must never
/// block, which the audit proves by `bound ≤ capacity`.
///
/// * `done` — one completion message per task, capacity `len + 16`.
///
/// The `done` bound is the task count, so the node count goes unused; the
/// parameter stays because `doocbench` and `dooc-audit` call this signature.
///
/// Public so `dooc-audit` can report on exactly the lanes the runtime will
/// wire for a given graph.
pub fn runtime_lane_specs(graph: &TaskGraph, _nnodes: u64) -> Vec<dooc_scheduler::LaneSpec> {
    let len = graph.len() as u64;
    vec![dooc_scheduler::LaneSpec {
        name: "done".into(),
        capacity: len + 16,
        bound: len,
        cyclic: true,
    }]
}

/// The geometry table every worker registers: `(len, block_size)` per
/// array, the explicit `hints` over single-block defaults derived from the
/// task declarations.
pub fn geometry_table(
    graph: &TaskGraph,
    hints: &[(String, u64, u64)],
) -> HashMap<String, (u64, u64)> {
    let mut geometry: HashMap<String, (u64, u64)> = HashMap::new();
    for id in graph.ids() {
        let task = graph.task(id);
        for d in task.inputs.iter().chain(&task.outputs) {
            geometry
                .entry(d.array.clone())
                .or_insert((d.bytes, d.bytes.max(1)));
        }
    }
    for (name, len, bs) in hints {
        geometry.insert(name.clone(), (*len, *bs));
    }
    geometry
}

/// FNV-1a digest of everything that shapes cluster assembly: node count,
/// storage knobs, geometry hints, the task graph's
/// [fingerprint](TaskGraph::fingerprint) and the external map.
/// Scratch-dir *paths* are deliberately excluded — they legitimately differ
/// across hosts; only their count matters for layout identity.
fn run_digest(
    config: &DoocConfig,
    graph: &TaskGraph,
    external_location: &HashMap<String, u64>,
) -> u64 {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn eat_u64(h: &mut u64, v: u64) {
        eat(h, &v.to_le_bytes());
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    eat(&mut h, b"dooc-run-v3");
    eat_u64(&mut h, config.nnodes() as u64);
    eat_u64(&mut h, config.memory_budget);
    eat_u64(&mut h, config.seed);
    for (name, len, bs) in &config.geometry {
        eat(&mut h, name.as_bytes());
        eat_u64(&mut h, *len);
        eat_u64(&mut h, *bs);
    }
    eat_u64(&mut h, graph.fingerprint());
    let mut ext: Vec<(&String, &u64)> = external_location.iter().collect();
    ext.sort();
    for (name, node) in ext {
        eat(&mut h, name.as_bytes());
        eat_u64(&mut h, *node);
    }
    h
}

//! The Carver SSD-testbed model: paper §V replayed in virtual time.
//!
//! The *logic* is the real middleware's: the task DAG comes from
//! [`dooc_linalg::spmv_app::SpmvAppBuilder`], placement from the real global
//! scheduler, per-node ordering and prefetching from the real
//! [`LocalScheduler`], and every block's residency from one real
//! [`StorageState`] per node. Each node's worker runs the runtime worker's
//! own pass between tasks and step after one ([`between_tasks`],
//! [`after_task`]) against its storage node, and pins a task's inputs in
//! the SpMV executor's own steps ([`SpmvExecutor::pin_steps`]). The replay's
//! own are the delivery of a completion (every scheduler sees it at once)
//! and, in paper mode, the eviction of a consumed sub-matrix. The budget,
//! the LRU, spills, dead-array deletes and peer fetches are the storage
//! node's own. Only *time* is modelled, by the fluid simulator:
//!
//! * every disk read or write a storage node issues is a flow through the
//!   shared GPFS ceiling and the node's GPFS client link ("Data is streamed
//!   from the I/O nodes to the requesting compute nodes using the 4X QDR
//!   InfiniBand interconnect"); its completion goes back to the node;
//! * every block a peer answers a fetch with is a flow through the
//!   sender's and receiver's InfiniBand NICs; control messages take no time;
//! * a task's compute is a timer of `flops/node_flops` or `bytes/sum_bw`
//!   seconds;
//! * a storage node's stall clock ticks every 2 ms of virtual time while
//!   it asks for one, as the storage filter polls it;
//! * per-(node, iteration) lognormal bandwidth jitter models the "noticeable
//!   variation in read bandwidth observed by individual compute nodes" of
//!   the shared GPFS — the mechanism that makes global barriers expensive.
//!
//! Calibration constants (documented in `TestbedParams::paper`) are fitted
//! to Table IV's single-node row; everything else is prediction.

use crate::des::{FluidSim, ResourceId};
use bytes::Bytes;
use dooc_core::geometry_table;
use dooc_core::worker::{after_task, between_tasks, StoragePort};
use dooc_linalg::spmv_app::{ReductionPlan, SpmvAppBuilder, SpmvExecutor, StagedBlock, SyncPolicy};
use dooc_scheduler::{
    assign_affinity, DataRef, LocalScheduler, NodeId, OrderPolicy, TaskGraph, TaskId,
};
use dooc_sparse::blockgrid::{BlockCoord, BlockGrid};
use dooc_storage::node::{Action, DiscoveredBlock};
use dooc_storage::proto::{ClientMsg, IoCmd, IoReply, PeerMsg, Reply};
use dooc_storage::{ArrayMeta, Interval, NodeConfig, StorageState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::convert::Infallible;

/// Which §V experiment policy to replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Table III: simple policy — row-root reduction, barriers after the
    /// SpMV phase and after the reduction.
    Simple,
    /// Table IV: intra-iteration interleaving + per-node aggregation, only
    /// the between-iterations barrier.
    Interleaved,
}

/// Physical and workload parameters of one testbed run.
#[derive(Clone, Debug)]
pub struct TestbedParams {
    /// Compute nodes (perfect square).
    pub nnodes: usize,
    /// SpMV iterations (the paper measures 4).
    pub iterations: u64,
    /// Sub-matrices per node side (5 → a 5×5 block per node).
    pub sub_per_side: u64,
    /// Bytes per sub-matrix file (~4 GB).
    pub submatrix_bytes: u64,
    /// Non-zeros per sub-matrix (12.8e9 / 25).
    pub nnz_per_sub: u64,
    /// Bytes per sub-vector (80 MB: 10 M rows × 8 B).
    pub subvector_bytes: u64,
    /// Aggregate GPFS ceiling, bytes/s (peak 20 GB/s; ~18.5 sustained).
    pub gpfs_bw: f64,
    /// Per-node GPFS client bandwidth, bytes/s.
    pub client_bw: f64,
    /// Per-node InfiniBand bandwidth each direction, bytes/s.
    pub ib_bw: f64,
    /// Whole-node sustained SpMV rate, flops/s (8 cores).
    pub node_flops: f64,
    /// Sum-task processing rate, input bytes/s.
    pub sum_bw: f64,
    /// Storage-node memory budget per node: every block it holds counts.
    pub memory_budget: u64,
    /// Lognormal sigma of per-(node, iteration) read-bandwidth jitter.
    pub jitter_sigma: f64,
    /// Local-scheduler prefetch window.
    pub prefetch_window: usize,
    /// RNG seed (jitter).
    pub seed: u64,
    /// Keep sub-matrices cached across iterations when memory allows. The
    /// paper's measured system re-reads every sub-matrix every iteration
    /// (read volume == iterations × matrix size in every row), so paper
    /// reproduction disables this; enabling it is the `cross-iteration
    /// reuse` ablation, where the DAG scheduler serves several iterations
    /// per load.
    pub cross_iteration_reuse: bool,
    /// Override: sub-matrices per node side when the matrix is larger than
    /// the cluster (the Fig. 7 "star" run: the 36-node matrix on 9 nodes).
    pub grid_k_override: Option<u64>,
}

impl TestbedParams {
    /// The paper's configuration for `nnodes` compute nodes.
    ///
    /// Calibration: `client_bw` 1.42 GB/s and `gpfs_bw` 18.5 GB/s reproduce
    /// the read-bandwidth column (1.4–1.5 at 1 node, plateau ≈18.5 past 16
    /// nodes); `node_flops` 6 GF/s keeps multiply compute hidden behind I/O
    /// (as observed); `sum_bw` 0.35 GB/s makes the un-overlapped reduction
    /// phase of the simple policy cost ≈13% at one node (Table III row 1);
    /// `memory_budget` 14 GB of the node's 24 GB is the storage node's whole
    /// footprint — the sub-matrix being multiplied, up to two more the
    /// prefetch window asks for (a re-ranked plan can ask for a new one
    /// before the last one is used), and every vector and partial — the
    /// rest holds DataCutter buffers and the page cache. It is the smallest
    /// whole-GB budget at which the replay reads each sub-matrix exactly
    /// once per iteration, as measured (read volume == iterations × matrix
    /// size in every row); at 9 GB the third sub-matrix and the partials
    /// push prefetched sub-matrices out before use and reads rise 9–13%;
    /// `jitter_sigma` 0.10 reproduces the growth of non-overlapped time with
    /// node count under barriers.
    pub fn paper(nnodes: usize) -> Self {
        Self {
            nnodes,
            iterations: 4,
            sub_per_side: 5,
            submatrix_bytes: 4_000_000_000,
            nnz_per_sub: 12_800_000_000 / 25,
            subvector_bytes: 80_000_000,
            gpfs_bw: 18.5e9,
            client_bw: 1.42e9,
            ib_bw: 4.0e9,
            node_flops: 6.0e9,
            sum_bw: 0.35e9,
            memory_budget: 14_000_000_000,
            jitter_sigma: 0.10,
            prefetch_window: 2,
            seed: 1,
            cross_iteration_reuse: false,
            grid_k_override: None,
        }
    }

    /// Node grid side (√nnodes).
    pub fn side(&self) -> u64 {
        let s = (self.nnodes as f64).sqrt().round() as u64;
        assert_eq!(s * s, self.nnodes as u64, "nnodes must be a perfect square");
        s
    }

    /// Global sub-matrix grid dimension K.
    pub fn grid_k(&self) -> u64 {
        self.grid_k_override
            .unwrap_or(self.sub_per_side * self.side())
    }

    /// Global matrix dimension (rows).
    pub fn dimension(&self) -> u64 {
        self.grid_k() * (self.subvector_bytes / 8)
    }

    /// Total non-zeros.
    pub fn total_nnz(&self) -> u64 {
        self.grid_k() * self.grid_k() * self.nnz_per_sub
    }

    /// Total matrix bytes.
    pub fn matrix_bytes(&self) -> u64 {
        self.grid_k() * self.grid_k() * self.submatrix_bytes
    }
}

/// Measured outcome of a replayed run (one row of Table III/IV).
#[derive(Clone, Debug)]
pub struct TestbedResult {
    /// Compute nodes used.
    pub nnodes: usize,
    /// Matrix dimension.
    pub dimension: u64,
    /// Total non-zeros.
    pub nnz: u64,
    /// Matrix size in bytes.
    pub matrix_bytes: u64,
    /// Makespan, seconds.
    pub time_s: f64,
    /// Sustained Gflop/s (2·nnz·iterations / time).
    pub gflops: f64,
    /// Aggregate read bandwidth, bytes/s.
    pub read_bw: f64,
    /// Fraction of (node-averaged) time with no filesystem read in flight.
    pub non_overlapped: f64,
    /// CPU-hour cost of one iteration (nnodes × 8 cores).
    pub cpu_hours_per_iter: f64,
    /// Sub-matrix bytes read from the filesystem: the read volume of
    /// Tables III/IV.
    pub bytes_read: u64,
    /// Every byte read from the filesystem: sub-matrices, the initial
    /// vector, and spilled blocks read back.
    pub disk_read_bytes: u64,
    /// Blocks the storage nodes dropped from memory (`NodeStats::evictions`,
    /// summed over nodes).
    pub evictions: u64,
    /// Bytes the storage nodes spilled to the filesystem (the replay
    /// persists nothing, so every write is a spill).
    pub bytes_spilled: u64,
}

impl TestbedResult {
    /// Runtime relative to the minimum achievable time assuming I/O is the
    /// only bottleneck at the 20 GB/s peak (Fig. 6's y-axis).
    pub fn relative_to_optimal_io(&self, peak_bw: f64) -> f64 {
        let optimal = self.bytes_read as f64 / peak_bw;
        self.time_s / optimal
    }
}

/// The storage nodes hold every payload and budget at 1/`BYTE_SCALE` of its
/// size, so a paper-scale node (14 GB) holds 3.4 MB. Time and reported
/// bytes are nominal again: a disk flow carries the nominal size of the
/// block it names, a fetched block's flow its payload times `BYTE_SCALE`.
const BYTE_SCALE: u64 = 4096;

/// Period of a storage node's stall clock while it asks for one: the
/// storage filter's 2 ms poll while `StorageState::needs_tick`.
const TICK_S: f64 = 0.002;

/// What a simulator event delivers when it fires.
enum Pending {
    /// An I/O command's completion, for `node`'s storage.
    Io { node: usize, reply: IoReply },
    /// A peer message whose payload has crossed the InfiniBand.
    Peer { to: usize, msg: PeerMsg },
    /// `node`'s worker finished the compute of its task's current step.
    Compute { node: usize },
    /// `node`'s storage stall-clock tick.
    Tick { node: usize },
}

/// An array of the plan: its nominal size, and the one-block geometry the
/// storage nodes hold it at.
struct Array {
    nominal: u64,
    meta: ArrayMeta,
}

/// The task a node's worker runs, step by step.
struct Running<'a> {
    task: TaskId,
    /// The inputs each step pins ([`SpmvExecutor::pin_steps`]); a barrier's
    /// one step pins nothing.
    steps: Vec<Vec<&'a DataRef>>,
    /// The step under way.
    next: usize,
    /// `ReadReady` replies the step still waits for.
    reads_left: usize,
}

struct VNode<'a> {
    storage: StorageState,
    running: Option<Running<'a>>,
    tick_armed: bool,
    /// Disk reads in flight (for overlap accounting).
    io_active: u64,
    io_time: f64,
    last_change: f64,
    /// Highest iteration index of any task started here (jitter key).
    cur_iter: u64,
    client_link: ResourceId,
    ib_in: ResourceId,
    ib_out: ResourceId,
}

/// Replays one configuration and returns its table row.
pub fn run_testbed(params: &TestbedParams, policy: PolicyKind) -> TestbedResult {
    replay(params, policy, BYTE_SCALE)
}

fn replay(params: &TestbedParams, policy: PolicyKind, scale: u64) -> TestbedResult {
    let k = params.grid_k();
    let side = params.side();
    let per = k / side;
    let owner = move |c: BlockCoord| (c.u / per) * side + (c.v / per);

    // Synthetic staged blocks (no files: sizes and nnz suffice).
    let grid = BlockGrid::new(k, params.dimension());
    let blocks: Vec<StagedBlock> = grid
        .coords()
        .map(|coord| StagedBlock {
            coord,
            node: owner(coord),
            bytes: params.submatrix_bytes,
            nnz: params.nnz_per_sub,
        })
        .collect();
    let app = SpmvAppBuilder::new(grid, params.iterations, blocks);
    let app = match policy {
        PolicyKind::Simple => app
            .reduction(ReductionPlan::RowRoot)
            .sync(SyncPolicy::PhaseBarriers),
        // "Keep only the synchronization between iterations": in pure
        // iterated SpMV that synchronization *is* the x_i data dependency
        // (multiply of iteration i+1 consumes its column's x_i), so no extra
        // barrier task is inserted.
        PolicyKind::Interleaved => app
            .reduction(ReductionPlan::LocalAggregation)
            .sync(SyncPolicy::None),
    }
    .persist_final(false);
    let (graph, external, geometry) = app.build();
    let placement =
        assign_affinity(&graph, &external, params.nnodes as u64).expect("valid SpMV DAG");

    // The geometry table the runtime's workers register, shrunk.
    let arrays: BTreeMap<String, Array> = geometry_table(&graph, &geometry)
        .into_iter()
        .map(|(name, (nominal, block_size))| {
            assert_eq!(
                nominal, block_size,
                "every array of the SpMV plan is one block"
            );
            let len = nominal.div_ceil(scale).max(1);
            let meta = ArrayMeta::new(name.clone(), len, len);
            (name, Array { nominal, meta })
        })
        .collect();
    let largest = arrays.values().map(|a| a.meta.len).max().unwrap_or(0);

    let mut sim = FluidSim::new();
    let gpfs = sim.add_resource(params.gpfs_bw);
    let nnodes = params.nnodes as u64;
    let mut ls: Vec<LocalScheduler> = (0..params.nnodes)
        .map(|n| placement.tasks_of(NodeId(n)))
        .map(|mine| LocalScheduler::new(&graph, mine, OrderPolicy::DataAware))
        .map(|ls| ls.with_prefetch_window(params.prefetch_window))
        .collect();
    let nodes: Vec<VNode> = (0..nnodes)
        .map(|n| {
            // The node's staged files (its sub-matrices, and the pieces of
            // the initial vector it is row root for) sit in its scratch
            // directory.
            let discovered = geometry
                .iter()
                .filter(|(name, _, _)| external[name] == n)
                .map(|(name, _, _)| DiscoveredBlock {
                    meta: arrays[name].meta.clone(),
                    block: 0,
                })
                .collect();
            let cfg = NodeConfig {
                node: n,
                nnodes,
                memory_budget: params.memory_budget / scale,
                seed: params.seed.wrapping_add(n),
            };
            VNode {
                storage: StorageState::new(cfg, discovered),
                running: None,
                tick_armed: false,
                io_active: 0,
                io_time: 0.0,
                last_change: 0.0,
                cur_iter: 1,
                client_link: sim.add_resource(params.client_bw),
                ib_in: sim.add_resource(params.ib_bw),
                ib_out: sim.add_resource(params.ib_bw),
            }
        })
        .collect();

    // Jitter multipliers per (node, iteration).
    let mut rng = StdRng::seed_from_u64(params.seed);
    let jitter: Vec<Vec<f64>> = (0..params.nnodes)
        .map(|_| {
            (0..=params.iterations)
                .map(|_| {
                    // Box-Muller from two uniforms.
                    let u1: f64 = rng.gen_range(1e-12..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    (params.jitter_sigma * z).exp()
                })
                .collect()
        })
        .collect();

    let mut r = Replay {
        params,
        graph: &graph,
        scale,
        sim,
        gpfs,
        nodes,
        arrays,
        zeros: Bytes::from(vec![0u8; largest as usize]),
        jitter,
        pending: HashMap::new(),
        next_tag: 0,
        next_req: 0,
        bytes_read: 0,
        disk_read_bytes: 0,
        bytes_spilled: 0,
        completed: 0,
    };

    // Every worker registers the whole geometry table with its node.
    let metas: Vec<ArrayMeta> = r.arrays.values().map(|a| a.meta.clone()).collect();
    for n in 0..params.nnodes {
        for meta in &metas {
            r.send(n, ClientMsg::Register { meta: meta.clone() });
        }
    }
    for n in 0..params.nnodes {
        r.step(&mut ls, n);
    }

    let total_tasks = graph.len();
    while r.completed < total_tasks {
        let Some(event) = r.sim.next_event() else {
            panic!(
                "simulation deadlock: {}/{total_tasks} tasks done (policy {policy:?}, {} nodes)",
                r.completed, params.nnodes
            );
        };
        match r
            .pending
            .remove(&event.tag())
            .expect("every event is pending")
        {
            Pending::Io { node, reply } => {
                match &reply {
                    IoReply::ReadDone { array, .. } => {
                        r.io_edge(node, -1);
                        r.disk_read_bytes += r.arrays[array].nominal;
                        if is_matrix(array) {
                            r.bytes_read += r.arrays[array].nominal;
                        }
                    }
                    IoReply::WriteDone { array, .. } => r.bytes_spilled += r.arrays[array].nominal,
                    IoReply::Error { .. } => unreachable!("the modelled disk does not fail"),
                }
                let actions = r.nodes[node].storage.handle_io(reply);
                r.perform_async(node, actions);
            }
            Pending::Peer { to, msg } => {
                let actions = r.nodes[to].storage.handle_peer(msg);
                r.perform_async(to, actions);
            }
            Pending::Compute { node } => r.end_step(&mut ls, node),
            Pending::Tick { node } => {
                r.nodes[node].tick_armed = false;
                let actions = r.nodes[node].storage.on_tick();
                r.perform_async(node, actions);
            }
        }
    }

    let time_s = r.sim.now();
    // Close out I/O accounting.
    let non_overlap_per_node: Vec<f64> = r
        .nodes
        .iter_mut()
        .map(|vn| {
            if vn.io_active > 0 {
                vn.io_time += time_s - vn.last_change;
            }
            1.0 - vn.io_time / time_s
        })
        .collect();
    let non_overlapped = non_overlap_per_node.iter().sum::<f64>() / params.nnodes as f64;
    // "We extracted the bandwidth obtained by the filesystem I/O components
    // from the logs": bytes over the time spent reading, not over makespan.
    let mean_io_time = r.nodes.iter().map(|vn| vn.io_time).sum::<f64>() / params.nnodes as f64;
    let evictions = r.nodes.iter().map(|vn| vn.storage.stats().evictions).sum();

    let flops = 2.0 * params.total_nnz() as f64 * params.iterations as f64;
    TestbedResult {
        nnodes: params.nnodes,
        dimension: params.dimension(),
        nnz: params.total_nnz(),
        matrix_bytes: params.matrix_bytes(),
        time_s,
        gflops: flops / time_s / 1e9,
        read_bw: r.bytes_read as f64 / mean_io_time.max(1e-9),
        non_overlapped,
        cpu_hours_per_iter: params.nnodes as f64 * 8.0 * time_s / params.iterations as f64 / 3600.0,
        bytes_read: r.bytes_read,
        disk_read_bytes: r.disk_read_bytes,
        evictions,
        bytes_spilled: r.bytes_spilled,
    }
}

fn is_matrix(array: &str) -> bool {
    array.ends_with(".crs")
}

/// The iteration a task belongs to (x_i_..., q_i_..., bar_mul_i, bar_iter_i).
fn task_iter(name: &str, iterations: u64) -> u64 {
    name.split('_')
        .find_map(|p| p.parse::<u64>().ok())
        .unwrap_or(1)
        .min(iterations)
}

/// The whole of a one-block array.
fn whole(meta: &ArrayMeta) -> Interval {
    Interval::new(0, meta.len)
}

/// The replay's state: the simulator, one worker and storage node per
/// virtual node, and what is in flight between them.
struct Replay<'a> {
    params: &'a TestbedParams,
    graph: &'a TaskGraph,
    scale: u64,
    sim: FluidSim,
    gpfs: ResourceId,
    nodes: Vec<VNode<'a>>,
    arrays: BTreeMap<String, Array>,
    /// Every payload is a slice of this buffer.
    zeros: Bytes,
    jitter: Vec<Vec<f64>>,
    pending: HashMap<u64, Pending>,
    next_tag: u64,
    next_req: u64,
    /// Nominal bytes: sub-matrices read, everything read, spilled.
    bytes_read: u64,
    disk_read_bytes: u64,
    bytes_spilled: u64,
    completed: usize,
}

impl Replay<'_> {
    fn req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    fn park(&mut self, pending: Pending) -> u64 {
        self.next_tag += 1;
        self.pending.insert(self.next_tag, pending);
        self.next_tag
    }

    fn flow(&mut self, bytes: f64, path: Vec<ResourceId>, pending: Pending) {
        let tag = self.park(pending);
        self.sim.start_flow(bytes, path, tag);
    }

    fn timer(&mut self, seconds: f64, pending: Pending) {
        let tag = self.park(pending);
        self.sim.start_timer(seconds, tag);
    }

    fn io_edge(&mut self, n: usize, delta: i64) {
        let now = self.sim.now();
        let vn = &mut self.nodes[n];
        if vn.io_active > 0 {
            vn.io_time += now - vn.last_change;
        }
        vn.last_change = now;
        vn.io_active = (vn.io_active as i64 + delta).max(0) as u64;
    }

    /// A request node `n` answers at once; returns the answer.
    fn call(&mut self, n: usize, msg: ClientMsg) -> Reply {
        let actions = self.nodes[n].storage.handle_client(msg);
        let mut replies = self.perform(n, actions);
        assert_eq!(replies.len(), 1, "one answer to a synchronous request");
        replies.pop().expect("one answer")
    }

    /// A message with no answer, or whose answer (read data) may come later.
    fn send(&mut self, n: usize, msg: ClientMsg) {
        let actions = self.nodes[n].storage.handle_client(msg);
        self.perform_async(n, actions);
    }

    fn perform_async(&mut self, n: usize, actions: Vec<Action>) {
        let replies = self.perform(n, actions);
        assert!(replies.is_empty(), "unsolicited replies: {replies:?}");
    }

    /// Carries out node `n`'s actions and every action they cascade into on
    /// other nodes. Read data goes to the waiting task; a disk command is a
    /// flow through GPFS and the node's client link, a peer message that
    /// carries a block a flow through the InfiniBand, and any other peer
    /// message is handled at once. Returns the other replies to `n`'s
    /// worker.
    fn perform(&mut self, n: usize, actions: Vec<Action>) -> Vec<Reply> {
        let mut queue: VecDeque<(usize, Action)> = actions.into_iter().map(|a| (n, a)).collect();
        let mut replies = Vec::new();
        while let Some((at, action)) = queue.pop_front() {
            match action {
                Action::Reply {
                    client,
                    reply: Reply::ReadReady { .. },
                } => self.read_ready(client as usize),
                Action::Reply {
                    client,
                    reply: Reply::Err { error, .. },
                } => panic!("storage node {at} refused worker {client}: {error}"),
                Action::Reply { client, reply } => {
                    assert_eq!(client as usize, n, "reply to a worker that did not ask");
                    replies.push(reply);
                }
                Action::Peer { node, msg } => {
                    let to = node as usize;
                    let payload = match &msg {
                        PeerMsg::FetchFound { data, .. } => Some(data.len() as u64 * self.scale),
                        _ => None,
                    };
                    match payload {
                        Some(bytes) => {
                            let path = vec![self.nodes[at].ib_out, self.nodes[to].ib_in];
                            self.flow(bytes as f64, path, Pending::Peer { to, msg });
                        }
                        None => {
                            let actions = self.nodes[to].storage.handle_peer(msg);
                            queue.extend(actions.into_iter().map(|a| (to, a)));
                        }
                    }
                }
                Action::Io(IoCmd::Read { array, block, len }) => {
                    let vn = &self.nodes[at];
                    let mult = self.jitter[at][vn.cur_iter as usize];
                    let path = vec![self.gpfs, vn.client_link];
                    let bytes = self.arrays[&array].nominal as f64 * mult;
                    let data = self.zeros.slice(..len as usize);
                    self.io_edge(at, 1);
                    let reply = IoReply::ReadDone { array, block, data };
                    self.flow(bytes, path, Pending::Io { node: at, reply });
                }
                Action::Io(IoCmd::Write {
                    array, block, data, ..
                }) => {
                    let path = vec![self.gpfs, self.nodes[at].client_link];
                    let bytes = self.arrays[&array].nominal as f64;
                    let reply = IoReply::WriteDone {
                        array,
                        block,
                        bytes: data.len() as u64,
                    };
                    self.flow(bytes, path, Pending::Io { node: at, reply });
                }
                // Removing files takes no modelled time, and its completion
                // finds the array gone.
                Action::Io(IoCmd::DeleteFiles { .. }) => {}
            }
        }
        for m in 0..self.nodes.len() {
            if !self.nodes[m].tick_armed && self.nodes[m].storage.needs_tick() {
                self.nodes[m].tick_armed = true;
                self.timer(TICK_S, Pending::Tick { node: m });
            }
        }
        replies
    }

    /// `n`'s worker, with no task, runs its pass between tasks and starts
    /// the task it picks, if any. With none, it waits for the next
    /// completion.
    fn step(&mut self, ls: &mut [LocalScheduler], n: usize) {
        let graph = self.graph;
        let port = &mut NodePort(self, n);
        let Ok(Some(task)) = between_tasks(&mut ls[n], graph, port) else {
            return;
        };
        let spec = graph.task(task);
        let vn = &mut self.nodes[n];
        vn.cur_iter = vn
            .cur_iter
            .max(task_iter(&spec.name, self.params.iterations));
        let mut steps = SpmvExecutor::pin_steps(spec);
        if steps.is_empty() {
            steps.push(Vec::new());
        }
        vn.running = Some(Running {
            task,
            steps,
            next: 0,
            reads_left: 0,
        });
        self.begin_step(n);
    }

    /// The modelled compute of `n`'s step under way: a multiply's flops at
    /// the node's rate, a partial's bytes at the sum rate, 0.1 ms otherwise.
    fn seconds(&self, n: usize) -> f64 {
        let running = self.nodes[n].running.as_ref().expect("a running task");
        let spec = self.graph.task(running.task);
        match spec.kind.as_str() {
            "multiply" => spec.flops as f64 / self.params.node_flops,
            "sum" | "sum_final" => {
                let pinned = &running.steps[running.next];
                pinned.iter().map(|d| d.bytes).sum::<u64>() as f64 / self.params.sum_bw
            }
            _ => 1e-4,
        }
    }

    /// Reads the inputs of `n`'s next step; it computes once all are served.
    fn begin_step(&mut self, n: usize) {
        let running = self.nodes[n].running.as_mut().expect("a running task");
        let inputs = running.steps[running.next].clone();
        running.reads_left = inputs.len();
        if inputs.is_empty() {
            self.timer(self.seconds(n), Pending::Compute { node: n });
        }
        for d in inputs {
            let req = self.req();
            let iv = whole(&self.arrays[&d.array].meta);
            let (client, array) = (n as u64, d.array.clone());
            self.send(
                n,
                ClientMsg::ReadReq {
                    req,
                    client,
                    array,
                    iv,
                },
            );
        }
    }

    fn read_ready(&mut self, n: usize) {
        let running = self.nodes[n]
            .running
            .as_mut()
            .expect("read data answers a running task");
        running.reads_left -= 1;
        if running.reads_left == 0 {
            self.timer(self.seconds(n), Pending::Compute { node: n });
        }
    }

    /// `n`'s step finished computing: its inputs are released (and, without
    /// cross-iteration reuse, a consumed sub-matrix evicted), then the next
    /// step begins or the task finishes.
    fn end_step(&mut self, ls: &mut [LocalScheduler], n: usize) {
        let running = self.nodes[n].running.as_mut().expect("a running task");
        let inputs = std::mem::take(&mut running.steps[running.next]);
        running.next += 1;
        let more = running.next < running.steps.len();
        for d in inputs {
            let (array, iv) = (d.array.clone(), whole(&self.arrays[&d.array].meta));
            let msg = ClientMsg::ReleaseRead {
                array: array.clone(),
                iv,
                checked: false,
            };
            self.send(n, msg);
            // Paper mode, where the replay departs from the executor: the
            // measured system re-read every sub-matrix every iteration, so a
            // consumed one is dropped by explicit memory management (§III-B)
            // rather than left to the LRU.
            if !self.params.cross_iteration_reuse && is_matrix(&array) {
                self.send(n, ClientMsg::Evict { array });
            }
        }
        if more {
            self.begin_step(n);
        } else {
            self.finish(ls, n);
        }
    }

    /// Creates and writes one array on node `n`, as a task's output is.
    fn write(&mut self, n: usize, array: &str) {
        let client = n as u64;
        let meta = self.arrays[array].meta.clone();
        let iv = whole(&meta);
        let data = self.zeros.slice(..meta.len as usize);
        let req = self.req();
        let created = self.call(n, ClientMsg::Create { req, client, meta });
        assert!(matches!(created, Reply::Created { .. }));
        let req = self.req();
        let array = array.to_string();
        let msg = ClientMsg::Write {
            req,
            client,
            array,
            iv,
            data,
        };
        assert!(matches!(self.call(n, msg), Reply::WriteSealed { .. }));
    }

    /// `n`'s task ran its last step: its outputs are written, the worker
    /// runs its step after a task, and every node's scheduler sees the
    /// completion at once. Every idle worker wakes.
    fn finish(&mut self, ls: &mut [LocalScheduler], n: usize) {
        let graph = self.graph;
        let running = self.nodes[n].running.take().expect("a running task");
        for out in &graph.task(running.task).outputs {
            self.write(n, &out.array);
        }
        let Ok(()) = after_task(&ls[n], graph, running.task, &mut NodePort(self, n));
        self.completed += 1;
        for l in ls.iter_mut() {
            l.on_complete(graph, running.task);
        }
        for m in 0..self.nodes.len() {
            if self.nodes[m].running.is_none() {
                self.step(ls, m);
            }
        }
    }
}

/// Node `.1`'s storage as its worker's pass sees it: a request is answered
/// at once, and a refused one is a fault of the replay.
struct NodePort<'r, 'a>(&'r mut Replay<'a>, usize);

impl StoragePort for NodePort<'_, '_> {
    type Error = Infallible;

    fn delete(&mut self, array: &str) -> Result<(), Infallible> {
        let (req, client) = (self.0.req(), self.1 as u64);
        let array = array.to_string();
        let msg = ClientMsg::Delete { req, client, array };
        assert!(matches!(self.0.call(self.1, msg), Reply::Deleted { .. }));
        Ok(())
    }

    fn resident(&mut self) -> Result<HashSet<String>, Infallible> {
        let (req, client) = (self.0.req(), self.1 as u64);
        let msg = ClientMsg::Resident { req, client };
        let Reply::Resident { arrays, .. } = self.0.call(self.1, msg) else {
            panic!("the resident query is answered with the resident set");
        };
        Ok(arrays.into_iter().collect())
    }

    fn prefetch(&mut self, array: String) -> Result<(), Infallible> {
        self.0.send(self.1, ClientMsg::Prefetch { array });
        Ok(())
    }

    fn demote(&mut self, array: &str) -> Result<(), Infallible> {
        let array = array.to_string();
        self.0.send(self.1, ClientMsg::Demote { array });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(nnodes: usize) -> TestbedParams {
        // Scaled-down workload for fast tests (same shape, 1000x smaller).
        // Memory holds ~5 sub-matrices so the replay pipelines without the
        // cache-thrash regime (which multiplies event counts and only
        // matters for the full-scale paper configuration).
        let mut p = TestbedParams::paper(nnodes);
        p.submatrix_bytes /= 1000;
        p.nnz_per_sub /= 1000;
        p.subvector_bytes /= 1000;
        p.memory_budget = 5 * p.submatrix_bytes + 50 * p.subvector_bytes;
        p
    }

    #[test]
    fn single_node_is_io_bound() {
        let p = small(1);
        let r = run_testbed(&p, PolicyKind::Interleaved);
        // All 25 sub-matrices x 4 iterations must be read (no reuse at this
        // budget/matrix ratio), so time ≈ bytes / client_bw.
        let expected = r.bytes_read as f64 / p.client_bw;
        assert!(
            r.time_s >= expected * 0.95,
            "time {} < io bound {expected}",
            r.time_s
        );
        assert!(
            r.time_s <= expected * 1.45,
            "time {} far above io bound {expected}",
            r.time_s
        );
        // Cross-iteration reuse may save a few loads, but most of the
        // working set exceeds memory and must be re-read every iteration.
        assert!(r.bytes_read >= 4 * 25 * p.submatrix_bytes * 6 / 10);
        assert!(
            r.bytes_read <= 4 * 25 * p.submatrix_bytes,
            "cannot read more than the naive sweep"
        );
    }

    #[test]
    fn read_bandwidth_plateaus_with_many_nodes() {
        let r9 = run_testbed(&small(9), PolicyKind::Interleaved);
        let r16 = run_testbed(&small(16), PolicyKind::Interleaved);
        let p = small(1);
        // 9 nodes: below the ceiling, ~9x client bw (scaled).
        assert!(
            r9.read_bw < 9.2 * p.client_bw && r9.read_bw > 0.7 * 9.0 * p.client_bw,
            "9-node bw {} vs client {}",
            r9.read_bw,
            p.client_bw
        );
        // 16 nodes: the shared ceiling binds (16 x client > gpfs). The
        // bytes/io-time metric can exceed the ceiling slightly when nodes'
        // read bursts do not fully coincide (each burst runs at the client
        // rate), so allow ~10% headroom.
        assert!(
            r16.read_bw <= p.gpfs_bw * 1.10,
            "16-node bw {} far above ceiling {}",
            r16.read_bw,
            p.gpfs_bw
        );
        assert!(r16.read_bw > 0.65 * p.gpfs_bw, "16-node bw {}", r16.read_bw);
    }

    #[test]
    fn simple_policy_slower_with_more_non_overlap() {
        let ps = small(9);
        let simple = run_testbed(&ps, PolicyKind::Simple);
        let inter = run_testbed(&ps, PolicyKind::Interleaved);
        assert!(
            simple.time_s > inter.time_s,
            "simple {} vs interleaved {}",
            simple.time_s,
            inter.time_s
        );
        assert!(
            simple.non_overlapped > inter.non_overlapped,
            "non-overlap simple {} vs interleaved {}",
            simple.non_overlapped,
            inter.non_overlapped
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let p = small(4);
        let a = run_testbed(&p, PolicyKind::Interleaved);
        let b = run_testbed(&p, PolicyKind::Interleaved);
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.bytes_read, b.bytes_read);
    }

    #[test]
    fn star_run_grid_override() {
        // The 36-node matrix on 9 nodes: more sub-matrices per node, longer
        // run, but better bandwidth-per-node utilization.
        let mut p = small(9);
        p.grid_k_override = Some(30);
        let r = run_testbed(&p, PolicyKind::Interleaved);
        assert_eq!(r.dimension, 30 * (p.subvector_bytes / 8));
        assert!(r.bytes_read >= 4 * 900 * p.submatrix_bytes * 9 / 10);
    }

    /// The storage nodes run at a byte scale; the replay's time and read
    /// volume must not depend on it, with or without spills.
    #[test]
    fn the_byte_scale_does_not_move_the_replay() {
        let mut tight = small(4);
        tight.memory_budget = 2 * tight.submatrix_bytes + 10 * tight.subvector_bytes;
        tight.cross_iteration_reuse = true;
        for (p, policy) in [
            (small(1), PolicyKind::Interleaved),
            (small(4), PolicyKind::Simple),
            (tight, PolicyKind::Interleaved),
        ] {
            let a = replay(&p, policy, BYTE_SCALE);
            let b = replay(&p, policy, BYTE_SCALE / 2);
            let close = |x: f64, y: f64| (x - y).abs() <= 0.005 * x.max(y);
            assert!(
                close(a.time_s, b.time_s) && close(a.bytes_read as f64, b.bytes_read as f64),
                "{policy:?} on {} nodes: {a:?} vs {b:?}",
                p.nnodes
            );
        }
    }

    #[test]
    fn cpu_hours_formula() {
        let p = small(4);
        let r = run_testbed(&p, PolicyKind::Interleaved);
        let expect = 4.0 * 8.0 * r.time_s / p.iterations as f64 / 3600.0;
        assert!((r.cpu_hours_per_iter - expect).abs() < 1e-9);
    }
}

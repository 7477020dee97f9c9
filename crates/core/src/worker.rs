//! The per-node worker filter: local scheduler + computing filter.
//!
//! Each node runs one worker. The worker owns the node's
//! [`LocalScheduler`], queries the storage map ("periodically queries the
//! state of the storage to know which data are available in memory"), issues
//! prefetches, executes ready tasks through the application's
//! [`TaskExecutor`], and broadcasts completions to every other worker so all
//! local schedulers observe cluster-wide DAG progress.

use crate::report::TraceEvent;
use crate::DoocConfig;
use bytes::Bytes;
use dooc_filterstream::{DataBuffer, Filter, FilterContext, NodeId};
use dooc_obs::metrics::{counter, histogram, Counter, Gauge, Histogram};
use dooc_obs::Category;
use dooc_scheduler::{LocalScheduler, Placement, TaskGraph, TaskId, TaskSpec};
use dooc_sparse::ComputePool;
use dooc_storage::client::MapDelta;
use dooc_storage::meta::{ArrayMeta, Interval};
use dooc_storage::proto::{BlockAvail, NodeStats};
use dooc_storage::{BlockPool, PoolBuf, ReadGuard, SealTicket, StorageClient, WriteTicket};
use dooc_sync::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Worker-layer metric handles, resolved once (the registry lookup takes a
/// lock; the per-event updates are gated relaxed atomics).
struct WorkerObs {
    tasks_executed: &'static Counter,
    /// Only bumped by the faultline re-execution path, but registered
    /// unconditionally so metric dumps have a uniform schema.
    #[cfg_attr(not(feature = "faultline"), allow(dead_code))]
    tasks_reexecuted: &'static Counter,
    input_bytes: &'static Counter,
    arrays_deleted: &'static Counter,
    prefetch_requests: &'static Counter,
    pipeline_occupancy: &'static Histogram,
    ready_tasks: &'static Gauge,
}

fn obs() -> &'static WorkerObs {
    static O: OnceLock<WorkerObs> = OnceLock::new();
    O.get_or_init(|| WorkerObs {
        tasks_executed: counter("worker.tasks_executed"),
        tasks_reexecuted: counter("worker.tasks_reexecuted"),
        input_bytes: counter("worker.input_bytes"),
        arrays_deleted: counter("worker.arrays_deleted"),
        prefetch_requests: counter("sched.prefetch_requests"),
        pipeline_occupancy: histogram("worker.pipeline_occupancy"),
        ready_tasks: dooc_obs::metrics::gauge("sched.ready_tasks"),
    })
}

/// Marker carried by the error string of an injected `worker.task.crash`
/// fault. The worker filter recognises it (via [`is_injected_crash`]) and
/// re-executes the task instead of failing the run, as long as the dead
/// attempt had not started writing outputs.
pub const WORKER_CRASH_MARKER: &str = "worker crashed (injected fault)";

/// Whether a task error is an injected worker crash (re-executable).
pub fn is_injected_crash(message: &str) -> bool {
    message.contains(WORKER_CRASH_MARKER)
}

/// How many times one task may be re-executed after injected crashes before
/// the failure is surfaced to the application.
pub const TASK_RETRY_MAX: u32 = 3;

/// Maximum block reads/writes a [`WorkerContext`] keeps in flight while
/// pipelining an array operation. Bounds reply-stream occupancy well below
/// the storage stream capacity so a huge array can never wedge the
/// request/reply loop, while still collapsing a K-block array's latency from
/// K round trips to ~1.
const PIPELINE_WINDOW: usize = 256;

/// Outcome of one task execution (application-level error as a string).
pub type ExecOutcome = std::result::Result<(), String>;

/// Application logic: how to run each task kind against the storage layer.
pub trait TaskExecutor: Send + Sync {
    /// Executes one task: read the declared inputs, compute, write the
    /// declared outputs.
    fn execute(&self, task: &TaskSpec, ctx: &mut WorkerContext<'_>) -> ExecOutcome;
}

/// A pinned, zero-copy view of a whole array: one [`ReadGuard`] per block,
/// straight out of the storage layer's sealed buffers. The blocks stay
/// pinned (unreclaimable) until the view drops, so hold views only for the
/// duration of one task.
pub struct ArrayView {
    name: String,
    blocks: Vec<(Interval, ReadGuard)>,
    total: u64,
}

impl ArrayView {
    /// Total length in bytes.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The array name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pinned blocks in offset order.
    pub fn blocks(&self) -> &[(Interval, ReadGuard)] {
        &self.blocks
    }

    /// Whether every block carries the checked mark: a task released these
    /// resident bytes as checked ([`ArrayView::mark_checked`]) since they
    /// were last installed, and none of them has left memory since.
    pub fn checked(&self) -> bool {
        self.blocks.iter().all(|(_, g)| g.checked())
    }

    /// Records that the caller checked the whole array: when the view drops,
    /// every block is released as checked.
    pub fn mark_checked(&mut self) {
        for (_, g) in &mut self.blocks {
            g.mark_checked();
        }
    }

    /// The whole array as one [`Bytes`], for kernels that compute straight
    /// from the stored representation: a single-block array lends its
    /// storage buffer (a reference count, nothing copied — keep the view
    /// alive while computing, its guard is what keeps the block resident
    /// and charged to the budget); an array that spans several blocks is
    /// assembled once in a buffer of the node's pool, and the copy is
    /// charged to `ctx`'s `copied_bytes`.
    pub fn contiguous(&self, ctx: &mut WorkerContext<'_>) -> Bytes {
        match self.blocks.as_slice() {
            [(_, only)] => only.bytes().clone(),
            _ => {
                ctx.copied_bytes += self.total;
                let mut out = ctx.output_buffer(self.total as usize);
                for (_, b) in &self.blocks {
                    out.extend_from_slice(b);
                }
                out.freeze()
            }
        }
    }

    /// Assembles a contiguous copy (for consumers that need one flat slice).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total as usize);
        for (_, b) in &self.blocks {
            out.extend_from_slice(b);
        }
        out
    }

    /// Decodes the view as little-endian `f64`s directly out of the pinned
    /// block buffers — no intermediate flat byte buffer. Values straddling a
    /// block boundary (block size not a multiple of 8) are stitched through
    /// an 8-byte carry.
    pub fn decode_f64s(&self) -> std::result::Result<Vec<f64>, String> {
        if !self.total.is_multiple_of(8) {
            return Err(format!(
                "array '{}' length {} not f64-aligned",
                self.name, self.total
            ));
        }
        let mut out = Vec::with_capacity((self.total / 8) as usize);
        let mut carry = [0u8; 8];
        let mut filled = 0usize;
        for (_, block) in &self.blocks {
            let mut rest: &[u8] = block;
            if filled > 0 {
                let need = (8 - filled).min(rest.len());
                carry[filled..filled + need].copy_from_slice(&rest[..need]);
                filled += need;
                rest = &rest[need..];
                if filled < 8 {
                    continue; // block exhausted before the carry filled
                }
                out.push(f64::from_le_bytes(carry));
            }
            let aligned = rest.len() - rest.len() % 8;
            for c in rest[..aligned].chunks_exact(8) {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                out.push(f64::from_le_bytes(b));
            }
            let tail = &rest[aligned..];
            carry[..tail.len()].copy_from_slice(tail);
            filled = tail.len();
        }
        debug_assert_eq!(filled, 0, "total is 8-aligned");
        Ok(out)
    }
}

/// Everything a task execution can touch.
pub struct WorkerContext<'a> {
    /// Node executing the task.
    pub node: u64,
    /// Threads available for splittable kernels.
    pub threads: usize,
    client: &'a mut StorageClient,
    geometry: &'a HashMap<String, (u64, u64)>,
    pool: &'a ComputePool,
    /// The node's buffer pool; `None` for a context built without a node
    /// around it, whose buffers are plain allocations.
    blocks: Option<&'a BlockPool>,
    /// Input bytes read during this execution (for the trace).
    pub(crate) input_bytes: u64,
    /// Bytes memcpy'd between storage buffers and task-local buffers during
    /// this execution (the data-plane copy traffic the zero-copy paths
    /// avoid; reported by the bench harness).
    pub(crate) copied_bytes: u64,
    /// Whether this execution started writing outputs. An injected crash is
    /// only re-executable while this is false: inputs are immutable, but a
    /// half-written output would make the replay's `create` collide.
    pub(crate) wrote_outputs: bool,
    /// Model builds: [`Self::read_array`] deliberately leaks the read grant
    /// of this block index (`mem::forget` of its guard) instead of dropping
    /// it — seeded bug for the grant-leak negative exploration test in
    /// dooc-check.
    #[cfg(feature = "model")]
    pub leak_read_grant_of_block: Option<u64>,
}

impl<'a> WorkerContext<'a> {
    /// Builds a context around a storage client. Public so benches and
    /// integration tests can drive the worker data plane without standing up
    /// a full worker filter.
    pub fn new(
        node: u64,
        threads: usize,
        client: &'a mut StorageClient,
        geometry: &'a HashMap<String, (u64, u64)>,
        pool: &'a ComputePool,
    ) -> Self {
        Self {
            node,
            threads,
            client,
            geometry,
            pool,
            blocks: None,
            input_bytes: 0,
            copied_bytes: 0,
            wrote_outputs: false,
            #[cfg(feature = "model")]
            leak_read_grant_of_block: None,
        }
    }

    /// Takes this context's output buffers from `blocks`, the pool of the
    /// node it runs on (see [`WorkerContext::output_buffer`]).
    pub fn with_block_pool(mut self, blocks: &'a BlockPool) -> Self {
        self.blocks = Some(blocks);
        self
    }

    /// Consults the `worker.task.crash` failpoint: `Fire` (or `Error`) kills
    /// this task attempt with [`WORKER_CRASH_MARKER`], `Delay` stalls it.
    /// Compiled to nothing without the `faultline` feature.
    fn maybe_crash(&self) -> std::result::Result<(), String> {
        #[cfg(feature = "faultline")]
        match dooc_faultline::fail::at("worker.task.crash") {
            Some(dooc_faultline::Fault::Delay(ms)) => {
                dooc_sync::thread::sleep(Duration::from_millis(ms));
            }
            Some(_) => return Err(WORKER_CRASH_MARKER.to_string()),
            None => {}
        }
        Ok(())
    }

    /// Direct access to the storage client (for advanced patterns: async
    /// reads, partial intervals, persist).
    pub fn storage(&mut self) -> &mut StorageClient {
        self.client
    }

    /// How the node's kernels split across its cores.
    pub fn pool(&self) -> &ComputePool {
        self.pool
    }

    /// An empty buffer with room for `len` bytes, from the node's pool: fill
    /// it and pass `buf.freeze()` to [`WorkerContext::write_bytes`], which
    /// hands it to the storage layer as the block itself. The allocation
    /// returns to the pool when the block's last reference is gone.
    pub fn output_buffer(&self, len: usize) -> PoolBuf {
        match self.blocks {
            Some(pool) => pool.take(len),
            None => PoolBuf::unpooled(len),
        }
    }

    /// Input bytes read so far during this execution.
    pub fn input_bytes(&self) -> u64 {
        self.input_bytes
    }

    /// Bytes copied between storage and task buffers so far.
    pub fn copied_bytes(&self) -> u64 {
        self.copied_bytes
    }

    /// The registered geometry `(len, block_size)` of an array, if known.
    pub fn geometry_of(&self, name: &str) -> Option<(u64, u64)> {
        self.geometry.get(name).copied()
    }

    fn geom(&self, name: &str) -> Option<(u64, u64)> {
        self.geometry.get(name).copied()
    }

    fn meta_of(&self, name: &str) -> std::result::Result<ArrayMeta, String> {
        let (len, bs) = self
            .geom(name)
            .ok_or_else(|| format!("unknown geometry for array '{name}'"))?;
        Ok(ArrayMeta::new(name, len, bs))
    }

    /// Core pipelined read: issues up to [`PIPELINE_WINDOW`] block reads
    /// ahead of the wait, handing `consume(block, guard)` each block's pin
    /// in block order while later requests are already in flight — a K-block
    /// array costs ~1 round trip of latency instead of K. The pin lives as
    /// long as `consume` keeps the [`ReadGuard`]: a copy-out drops it on the
    /// spot (the window then recycles pins at its own rate), a view keeps it.
    fn read_blocks_pinned<F>(
        &mut self,
        meta: &ArrayMeta,
        mut consume: F,
    ) -> std::result::Result<(), String>
    where
        F: FnMut(u64, ReadGuard),
    {
        // Crash before any request is issued: no ticket is in flight, so the
        // replayed attempt starts from a clean reply stream.
        self.maybe_crash()?;
        let _span = dooc_obs::span(Category::Worker, "worker:read", self.node as i64);
        let name = &meta.name;
        let nblocks = meta.nblocks();
        let mut tickets: VecDeque<(u64, dooc_storage::ReadTicket)> =
            VecDeque::with_capacity(PIPELINE_WINDOW.min(nblocks as usize));
        let mut next = 0u64;
        while next < nblocks.min(PIPELINE_WINDOW as u64) {
            let iv = Interval::new(meta.block_start(next), meta.block_len(next));
            let t = self
                .client
                .read_async(name, iv)
                .map_err(|e| format!("read {name}[{next}]: {e}"))?;
            tickets.push_back((next, t));
            next += 1;
        }
        let mut batched_bytes = 0u64;
        while let Some((b, t)) = tickets.pop_front() {
            // Sampled 1-in-8: the occupancy distribution is stationary
            // within a read, and 4 relaxed RMWs per block showed up in the
            // obs-enabled overhead budget.
            if b & 7 == 0 {
                obs().pipeline_occupancy.record(tickets.len() as u64 + 1);
            }
            let guard = self
                .client
                .wait_read(t)
                .map_err(|e| format!("read {name}[{b}]: {e}"))?;
            // Refill the window before touching the payload so the storage
            // filter works on the next block while we consume this one.
            if next < nblocks {
                let iv = Interval::new(meta.block_start(next), meta.block_len(next));
                let t = self
                    .client
                    .read_async(name, iv)
                    .map_err(|e| format!("read {name}[{next}]: {e}"))?;
                tickets.push_back((next, t));
                next += 1;
            }
            self.input_bytes += guard.len() as u64;
            batched_bytes += guard.len() as u64;
            consume(b, guard);
        }
        // One relaxed add per array read instead of one per block.
        obs().input_bytes.add(batched_bytes);
        Ok(())
    }

    fn count_input(&mut self, n: u64) {
        self.input_bytes += n;
        obs().input_bytes.add(n);
    }

    /// Reads an entire array into a fresh buffer. Block requests are
    /// pipelined; each block is pinned only while being copied out.
    pub fn read_array(&mut self, name: &str) -> std::result::Result<Vec<u8>, String> {
        let meta = self.meta_of(name)?;
        let mut out = Vec::with_capacity(meta.len as usize);
        #[cfg(feature = "model")]
        let leak = self.leak_read_grant_of_block;
        self.read_blocks_pinned(&meta, |_b, guard| {
            out.extend_from_slice(&guard);
            #[cfg(feature = "model")]
            if leak == Some(_b) {
                std::mem::forget(guard);
            }
        })?;
        self.copied_bytes += out.len() as u64;
        Ok(out)
    }

    /// Reads an entire array as a pinned zero-copy [`ArrayView`] (pipelined
    /// block requests, no copy-out). Every block unpins when the view drops.
    pub fn read_view(&mut self, name: &str) -> std::result::Result<ArrayView, String> {
        let meta = self.meta_of(name)?;
        let mut blocks = Vec::with_capacity(meta.nblocks() as usize);
        self.read_blocks_pinned(&meta, |b, guard| {
            blocks.push((Interval::new(meta.block_start(b), meta.block_len(b)), guard));
        })?;
        Ok(ArrayView {
            name: name.to_string(),
            blocks,
            total: meta.len,
        })
    }

    /// Reads a single-block interval zero-copy; the pin is handed back when
    /// the returned guard drops.
    pub fn read_pinned(
        &mut self,
        name: &str,
        iv: Interval,
    ) -> std::result::Result<ReadGuard, String> {
        let guard = self
            .client
            .read(name, iv)
            .map_err(|e| format!("read {name}: {e}"))?;
        self.count_input(guard.len() as u64);
        Ok(guard)
    }

    /// Reads an array of `f64`s (little-endian bytes): pipelined block
    /// requests, values decoded directly out of each block's pinned buffer
    /// (no intermediate flat byte buffer).
    pub fn read_f64s(&mut self, name: &str) -> std::result::Result<Vec<f64>, String> {
        let view = self.read_view(name)?;
        view.decode_f64s()
    }

    /// Creates and fully writes an array from a single [`Bytes`] buffer:
    /// per-block payloads are zero-copy `slice()`s of `data`, and the
    /// grant/seal round trips of all blocks are pipelined.
    pub fn write_bytes(&mut self, name: &str, data: Bytes) -> std::result::Result<(), String> {
        let (len, bs) = self
            .geom(name)
            .unwrap_or((data.len() as u64, data.len().max(1) as u64));
        if len != data.len() as u64 {
            return Err(format!(
                "array '{name}' declared {len} bytes but writing {}",
                data.len()
            ));
        }
        let _span = dooc_obs::span(Category::Worker, "worker:write", self.node as i64);
        self.wrote_outputs = true;
        self.client
            .create(name, len, bs)
            .map_err(|e| format!("create {name}: {e}"))?;
        let meta = ArrayMeta::new(name, len, bs);
        let nblocks = meta.nblocks();
        // Phase 1: request grants ahead, ship each block's slice as soon as
        // its grant lands; phase 2: collect the seals. At most
        // PIPELINE_WINDOW grants plus PIPELINE_WINDOW seals are in flight.
        let mut grants: VecDeque<(u64, WriteTicket)> = VecDeque::new();
        let mut seals: VecDeque<(u64, SealTicket)> = VecDeque::new();
        let mut next = 0u64;
        while next < nblocks.min(PIPELINE_WINDOW as u64) {
            let iv = Interval::new(meta.block_start(next), meta.block_len(next));
            let t = self
                .client
                .write_async(name, iv)
                .map_err(|e| format!("write {name}[{next}]: {e}"))?;
            grants.push_back((next, t));
            next += 1;
        }
        while let Some((b, t)) = grants.pop_front() {
            self.client
                .wait_write_granted(t)
                .map_err(|e| format!("write {name}[{b}]: {e}"))?;
            if next < nblocks {
                let iv = Interval::new(meta.block_start(next), meta.block_len(next));
                let t = self
                    .client
                    .write_async(name, iv)
                    .map_err(|e| format!("write {name}[{next}]: {e}"))?;
                grants.push_back((next, t));
                next += 1;
            }
            let start = meta.block_start(b);
            let blen = meta.block_len(b);
            let payload = data.slice(start as usize..(start + blen) as usize);
            let t = self
                .client
                .release_write_async(name, Interval::new(start, blen), payload)
                .map_err(|e| format!("seal {name}[{b}]: {e}"))?;
            seals.push_back((b, t));
            if seals.len() > PIPELINE_WINDOW {
                if let Some((b, t)) = seals.pop_front() {
                    self.client
                        .wait_write_sealed(t)
                        .map_err(|e| format!("seal {name}[{b}]: {e}"))?;
                }
            }
        }
        while let Some((b, t)) = seals.pop_front() {
            self.client
                .wait_write_sealed(t)
                .map_err(|e| format!("seal {name}[{b}]: {e}"))?;
        }
        Ok(())
    }

    /// Creates and fully writes an array from a borrowed slice (one copy
    /// into a pooled buffer, then zero-copy per-block slices).
    pub fn write_array(&mut self, name: &str, data: &[u8]) -> std::result::Result<(), String> {
        self.copied_bytes += data.len() as u64;
        let mut raw = self.output_buffer(data.len());
        raw.extend_from_slice(data);
        self.write_bytes(name, raw.freeze())
    }

    /// Writes an `f64` array: serialized once into a single pooled buffer,
    /// then sent as zero-copy per-block slices.
    pub fn write_f64s(&mut self, name: &str, xs: &[f64]) -> std::result::Result<(), String> {
        let mut raw = self.output_buffer(8 * xs.len());
        for x in xs {
            raw.extend_from_slice(&x.to_le_bytes());
        }
        self.copied_bytes += raw.len() as u64;
        self.write_bytes(name, raw.freeze())
    }
}

/// Incrementally maintained mirror of the node's availability map.
///
/// Instead of re-fetching (and re-cloning) every array name each worker loop
/// tick, the tracker issues [`StorageClient::map_since`] with its version
/// cursor and folds the returned delta: on a quiescent tick the delta is
/// empty and *nothing* is allocated or cloned. Residency (every block of an
/// array in memory) is recomputed only for arrays the delta touched.
#[derive(Default)]
pub struct ResidencyTracker {
    cursor: u64,
    blocks: HashMap<String, HashMap<u64, BlockAvail>>,
    resident: HashSet<String>,
}

impl ResidencyTracker {
    /// A tracker that has seen nothing (first query returns a full map).
    pub fn new() -> Self {
        Self::default()
    }

    /// The version cursor (the `since` of the next query).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Arrays whose blocks are all resident in this node's memory.
    pub fn resident(&self) -> &HashSet<String> {
        &self.resident
    }

    /// Queries the storage for changes since the last refresh and folds them
    /// in. Returns the updated residency set.
    pub fn refresh(
        &mut self,
        client: &mut StorageClient,
        geometry: &HashMap<String, (u64, u64)>,
    ) -> std::result::Result<&HashSet<String>, String> {
        let delta = client
            .map_since(self.cursor)
            .map_err(|e| format!("map-since query: {e}"))?;
        self.apply(&delta, geometry);
        Ok(&self.resident)
    }

    /// Folds one delta into the mirror. Deltas replace arrays wholesale (the
    /// protocol ships every block of a changed array), so the fold is:
    /// deleted arrays drop, named arrays swap in their new block set, and
    /// residency is recomputed for exactly the touched arrays.
    pub fn apply(&mut self, delta: &MapDelta, geometry: &HashMap<String, (u64, u64)>) {
        if delta.version < self.cursor {
            // Version regression: the storage node crash-restarted and
            // rebuilt its map from scratch (the server answers a from-the-
            // future `since` with a full snapshot). Everything the mirror
            // believed about residency predates the crash — drop it and
            // refold from the snapshot.
            self.blocks.clear();
            self.resident.clear();
        }
        self.cursor = delta.version;
        for a in &delta.deleted {
            self.blocks.remove(a);
            self.resident.remove(a);
        }
        let mut touched: HashSet<&str> = HashSet::new();
        for e in &delta.entries {
            if touched.insert(&e.array) {
                self.blocks.insert(e.array.clone(), HashMap::new());
            }
        }
        for e in &delta.entries {
            if let Some(blocks) = self.blocks.get_mut(&e.array) {
                blocks.insert(e.block, e.state);
            }
        }
        for name in touched {
            let all_in_mem = self.blocks.get(name).is_some_and(|blocks| {
                !blocks.is_empty() && blocks.values().all(|s| *s == BlockAvail::InMemory)
            });
            let complete = all_in_mem
                && match geometry.get(name) {
                    Some(&(len, bs)) => {
                        let nblocks = ArrayMeta::new(name, len, bs).nblocks();
                        self.blocks.get(name).map(|b| b.len() as u64) == Some(nblocks)
                    }
                    None => true, // unknown geometry: all known blocks resident
                };
            if complete {
                self.resident.insert(name.to_string());
            } else {
                self.resident.remove(name);
            }
        }
    }
}

/// Sinks the workers report into (collected by the runtime after the run).
#[derive(Default)]
pub(crate) struct Sinks {
    pub trace: Mutex<Vec<TraceEvent>>,
    pub stats: Mutex<Vec<(u64, NodeStats)>>,
}

pub(crate) struct WorkerFilter {
    pub graph: Arc<TaskGraph>,
    pub placement: Arc<Placement>,
    pub executor: Arc<dyn TaskExecutor>,
    pub config: DoocConfig,
    pub geometry: Arc<HashMap<String, (u64, u64)>>,
    pub client_base: Arc<dooc_sync::atomic::AtomicU64>,
    /// The node's buffer pool (the one its I/O filter reads blocks into).
    pub blocks: BlockPool,
    pub sinks: Arc<Sinks>,
    pub start: Instant,
}

impl Filter for WorkerFilter {
    fn run(&mut self, ctx: &mut FilterContext) -> dooc_filterstream::Result<()> {
        let node = ctx.instance as u64;
        let to_storage = ctx.take_output("sreq")?;
        let from_storage = ctx.take_input("srep")?;
        // Relaxed pairs with the pre-spawn relaxed store in the runtime;
        // the spawn of this filter thread orders the two.
        let base = self.client_base.load(dooc_sync::atomic::Ordering::Relaxed);
        let mut client = StorageClient::new(to_storage, from_storage, ctx.instance, base + node);
        client.set_retry_policy(self.config.client_retry.clone());
        // Geometry on every node: the runtime's table already holds the
        // config's explicit hints over the defaults derived from the graph.
        for (name, (len, bs)) in self.geometry.iter() {
            client
                .register(name, *len, *bs)
                .map_err(|e| ctx.error(format!("register {name}: {e}")))?;
        }

        let mine = self.placement.tasks_of(NodeId(node as usize));
        let mut ls = LocalScheduler::new(&self.graph, mine, self.config.order_policy)
            .with_prefetch_window(self.config.prefetch_window)
            .with_node(node as i64);

        let pool = ComputePool::new(self.config.threads_per_node);
        // Incremental mirror of the storage map: each tick fetches only what
        // changed since the last one.
        let mut tracker = ResidencyTracker::new();

        let done_in = ctx.take_input("done_in")?;
        // Per-task re-execution budget for injected worker crashes.
        #[cfg(feature = "faultline")]
        let mut crash_retries: HashMap<TaskId, u32> = HashMap::new();
        // done_out stays in ctx so close_output semantics apply on exit.
        loop {
            // 1. Drain completion broadcasts.
            while let Some(b) = done_in.try_recv() {
                ls.on_complete(&self.graph, TaskId(b.tag));
            }
            // Arrays produced here whose last reader just completed are
            // deleted cluster-wide, before they can age out of the LRU and
            // be spilled for nobody. Every reader released its pins before
            // it reported completion, so none is held.
            for array in ls.take_dead(&self.graph) {
                client
                    .delete(array)
                    .map_err(|e| ctx.error(format!("delete of dead array '{array}': {e}")))?;
                obs().arrays_deleted.inc();
            }
            if ls.graph_done() {
                break;
            }
            // 2. Storage map delta (the oracle, fetched incrementally; a
            //    quiescent tick allocates nothing).
            let resident = tracker
                .refresh(&mut client, &self.geometry)
                .map_err(|e| ctx.error(e))?;
            // 3. Prefetch the inputs of upcoming tasks.
            for arr in ls.prefetch_candidates(&self.graph, resident) {
                if let Some(&(len, bs)) = self.geometry.get(&arr) {
                    dooc_obs::instant_arg(
                        Category::Scheduler,
                        "sched:prefetch",
                        node as i64,
                        || arr.clone(),
                    );
                    let meta = ArrayMeta::new(arr.clone(), len, bs);
                    for b in 0..meta.nblocks() {
                        obs().prefetch_requests.inc();
                        client
                            .prefetch(&arr, Interval::new(meta.block_start(b), meta.block_len(b)))
                            .map_err(|e| ctx.error(format!("prefetch {arr}: {e}")))?;
                    }
                }
            }
            obs().ready_tasks.set(ls.ready_count() as i64);
            // 4. Run one task, or wait for progress.
            if let Some(t) = ls.next_task(&self.graph, resident) {
                let spec = self.graph.task(t).clone();
                let _task_span = dooc_obs::enabled().then(|| {
                    dooc_obs::span(
                        Category::Worker,
                        dooc_obs::intern(&format!("task:{}", spec.kind)),
                        node as i64,
                    )
                });
                let started = self.start.elapsed();
                let mut wctx = WorkerContext::new(
                    node,
                    self.config.threads_per_node,
                    &mut client,
                    &self.geometry,
                    &pool,
                )
                .with_block_pool(&self.blocks);
                let outcome = self.executor.execute(&spec, &mut wctx);
                #[cfg(feature = "faultline")]
                if let Err(message) = &outcome {
                    if is_injected_crash(message) && !wctx.wrote_outputs {
                        let attempts = crash_retries.entry(t).or_insert(0);
                        if *attempts < TASK_RETRY_MAX {
                            *attempts += 1;
                            let attempt = *attempts;
                            // The attempt died before writing anything:
                            // inputs are immutable, so replaying the task is
                            // safe. Hand it back to the local scheduler.
                            ls.requeue(t);
                            obs().tasks_reexecuted.inc();
                            dooc_obs::instant_arg(
                                Category::Worker,
                                "worker:task_reexec",
                                node as i64,
                                || {
                                    format!(
                                        "task '{}' re-executed after injected crash \
                                         (attempt {attempt}/{TASK_RETRY_MAX})",
                                        spec.name
                                    )
                                },
                            );
                            continue;
                        }
                    }
                }
                outcome.map_err(|message| {
                    ctx.error(format!("task '{}' failed: {message}", spec.name))
                })?;
                obs().tasks_executed.inc();
                let input_bytes = wctx.input_bytes;
                self.sinks.trace.lock().push(TraceEvent {
                    node,
                    task: t,
                    name: spec.name.clone(),
                    kind: spec.kind.clone(),
                    start: started,
                    end: self.start.elapsed(),
                    input_bytes,
                });
                ctx.output("done_out")?.send(DataBuffer::tag_only(t.0))?;
            } else if let Some(b) = done_in.recv_timeout(Duration::from_millis(1)) {
                ls.on_complete(&self.graph, TaskId(b.tag));
            }
        }

        // Report stats, then shut the local storage down.
        if let Ok(stats) = client.stats() {
            self.sinks.stats.lock().push((node, stats));
        }
        client.shutdown().ok();
        ctx.close_output("done_out");
        // Drain remaining broadcasts so no peer blocks on our full lane.
        while done_in.recv().is_some() {}
        // Shutdown grant audit: every grant the tasks took must have been
        // handed back. Checked once the cluster has been told to stop, so a
        // leak fails the run instead of stalling it.
        debug_assert_eq!(
            client.outstanding_grants(),
            0,
            "grant leak: worker {node} finished with unreleased storage grants"
        );
        Ok(())
    }
}

//! The storage filter's protocol state machine.
//!
//! [`StorageState`] is deliberately *synchronous and I/O-free*: every message
//! handler consumes one message and returns the list of [`Action`]s the
//! surrounding filter must perform (reply to a client, message a peer, issue
//! an I/O command). This makes the entire protocol — request logging,
//! write-once enforcement, peer probing, LRU reclamation — unit-testable
//! without threads or a filesystem.
//!
//! Protocol recap (paper §III-B):
//! * "When a request is received, either the storage has all the information
//!   to answer it and it replies immediately, or it logs the request and
//!   replies back when all the relevant information becomes available."
//! * "When a data interval which is not contained in the storage is
//!   requested, since global mapping … is not replicated on each node but
//!   instead partitioned, the storage asks the storage filter on a randomly
//!   selected compute node for this interval. To avoid asking for an
//!   interval multiple times, the storage keeps track of which interval it
//!   has requested from other computing nodes."
//! * "All reading of the data stored on the filesystem are performed
//!   implicitly … the write operations are performed explicitly upon request
//!   of a filter."
//! * "When reclaiming memory, the storage reclaims blocks that are stored on
//!   the disk … and which are not currently used according to the Least
//!   Recently Used policy."

use crate::meta::{ArrayMeta, Interval};
use crate::proto::{BlockAvail, ClientMsg, IoCmd, IoReply, MapEntry, NodeStats, PeerMsg, Reply};
use crate::rangeset::RangeSet;
use crate::StorageError;
use bytes::Bytes;
use dooc_obs::metrics::{counter, Counter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

/// Storage-layer metric handles, resolved once. Forced in
/// [`StorageState::new`] so every counter appears (zeroed) in metric dumps
/// even before its first event.
struct StorageObs {
    bytes_loaded: &'static Counter,
    blocks_loaded: &'static Counter,
    blocks_evicted: &'static Counter,
    blocks_spilled: &'static Counter,
    blocks_sealed: &'static Counter,
    read_hits: &'static Counter,
    read_misses: &'static Counter,
    io_retries: &'static Counter,
    fetch_retries: &'static Counter,
    dead_bytes_dropped: &'static Counter,
}

fn storage_obs() -> &'static StorageObs {
    static O: OnceLock<StorageObs> = OnceLock::new();
    O.get_or_init(|| StorageObs {
        bytes_loaded: counter("storage.bytes_loaded"),
        blocks_loaded: counter("storage.blocks_loaded"),
        blocks_evicted: counter("storage.blocks_evicted"),
        blocks_spilled: counter("storage.blocks_spilled"),
        blocks_sealed: counter("storage.blocks_sealed"),
        read_hits: counter("storage.read_hits"),
        read_misses: counter("storage.read_misses"),
        io_retries: counter("storage.io_retries"),
        fetch_retries: counter("storage.fetch_retries"),
        dead_bytes_dropped: counter("storage.dead_bytes_dropped"),
    })
}

/// Fault-recovery knobs of one storage node. The defaults keep the seed
/// behaviour except for bounded I/O-read retries: fetch deadlines and stall
/// limits are opt-in because a fetch may legitimately wait forever for a
/// producer task that has not run yet.
#[derive(Clone, Debug)]
pub struct RecoveryPolicy {
    /// How many times a failed out-of-core *read* is re-issued before the
    /// waiters get [`StorageError::IoFailed`]. 0 disables retries.
    pub io_retry_max: u32,
    /// Ticks to wait before the first read retry; doubles on every further
    /// attempt (exponential backoff).
    pub io_retry_backoff_ticks: u64,
    /// Ticks an in-flight peer fetch may stay unanswered before the probe is
    /// abandoned and the next random peer is asked. `None` waits forever
    /// (seed behaviour: only an explicit `FetchNotFound` moves on).
    pub fetch_deadline_ticks: Option<u64>,
    /// How many whole stall/retry rounds (every peer denied, tick, re-probe
    /// everyone) a fetch may go through before its waiters get
    /// [`StorageError::Timeout`]. `None` retries forever (seed behaviour).
    pub stall_retry_max: Option<u64>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            io_retry_max: 2,
            io_retry_backoff_ticks: 1,
            fetch_deadline_ticks: None,
            stall_retry_max: None,
        }
    }
}

/// Configuration of one storage node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This node's id (also its peer-stream instance index).
    pub node: u64,
    /// Total number of nodes in the cluster.
    pub nnodes: u64,
    /// Memory budget in bytes; exceeding it triggers reclamation.
    pub memory_budget: u64,
    /// Seed for random peer selection.
    pub seed: u64,
    /// Retry/deadline policy for I/O errors and peer fetches.
    pub recovery: RecoveryPolicy,
}

/// Side effect requested by a handler.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Send a reply to a local client instance.
    Reply {
        /// Destination client instance.
        client: u64,
        /// The reply.
        reply: Reply,
    },
    /// Send a message to a peer storage node.
    Peer {
        /// Destination node id.
        node: u64,
        /// The message.
        msg: PeerMsg,
    },
    /// Issue a command to the local I/O filter.
    Io(IoCmd),
}

/// Resident form of a block. Every form is charged to the budget for the
/// block's full length from the moment it exists.
enum BlockMem {
    /// Write grant over the whole block of a single-block array: nothing is
    /// allocated, the release's own `Bytes` is adopted as the sealed block.
    Reserved,
    /// Being assembled from write intervals; partial reads copy out.
    Building(Vec<u8>),
    /// Fully sealed; reads are zero-copy slices.
    Sealed(Bytes),
}

/// A local read waiting for data ("logged" request).
struct ReadWaiter {
    req: u64,
    client: u64,
    /// Offset within the block.
    off: u64,
    len: u64,
}

/// State of an outstanding remote fetch for one block.
struct FetchState {
    /// Our fetch request id.
    req: u64,
    /// Peers already asked (includes the one currently in flight).
    tried: Vec<u64>,
    /// Ticks the current probe has been in flight (for the optional
    /// [`RecoveryPolicy::fetch_deadline_ticks`] deadline).
    age: u64,
}

/// Deliberately seeded invariant violations for dooc-check's schedule
/// exploration negative tests. Each flag disables one guard the positive
/// exploration tests prove necessary; the explorer must then find an
/// interleaving that turns the missing guard into an observable failure.
/// Without the `model` feature every flag is a compile-time `false`
/// ([`StorageState::bug`]), so real builds carry no extra state or branches.
#[derive(Debug, Default, Clone, Copy)]
pub struct SeededBugs {
    /// Eviction ignores `pins`: blocks with live read guards get dropped.
    pub evict_ignores_pins: bool,
    /// [`StorageState::map_delta`] detects changes but never bumps
    /// `map_version`, so incremental deltas go stale instead of composing.
    pub skip_map_version_bump: bool,
    /// Reclaim drops not-yet-spilled blocks without writing them first,
    /// losing the only copy of the data.
    pub evict_skips_spill: bool,
}

/// A failed out-of-core read scheduled for re-issue at tick `due`.
struct IoRetry {
    due: u64,
    array: String,
    block: u64,
    len: u64,
}

#[derive(Default)]
struct BlockInfo {
    /// Ranges sealed (written + released), block-local coordinates.
    sealed: RangeSet,
    /// Ranges with an outstanding write grant.
    write_granted: RangeSet,
    /// Resident bytes, if any.
    mem: Option<BlockMem>,
    /// A full sealed copy exists in the local scratch directory.
    on_disk: bool,
    /// An I/O read for this block is in flight.
    loading: bool,
    /// An I/O write (spill or persist) for this block is in flight.
    spilling: bool,
    /// Reclaim memory as soon as the in-flight spill completes.
    evict_after_spill: bool,
    /// Active grants (read pins + write grants); pinned blocks are not
    /// reclaimable.
    pins: u64,
    /// LRU clock value of the last access.
    last_use: u64,
    /// Logged local reads waiting for the data.
    read_waiters: Vec<ReadWaiter>,
    /// Peer fetches waiting for this block to seal (req, from_node).
    peer_waiters: Vec<(u64, u64)>,
    /// Outstanding remote fetch, if this node is trying to pull the block.
    fetch: Option<FetchState>,
    /// Availability last reported through a map query (lazy change
    /// detection for [`ClientMsg::MapSince`] deltas).
    last_avail: Option<BlockAvail>,
}

impl BlockInfo {
    fn fully_sealed(&self, block_len: u64) -> bool {
        self.sealed.covered() == block_len
    }

    /// Copies `[off, off+len)` out of the resident buffer, if any.
    fn slice_resident(&self, off: u64, len: u64) -> Option<Bytes> {
        match self.mem.as_ref()? {
            BlockMem::Reserved => None,
            BlockMem::Sealed(b) => Some(b.slice(off as usize..(off + len) as usize)),
            BlockMem::Building(v) => Some(Bytes::copy_from_slice(
                &v[off as usize..(off + len) as usize],
            )),
        }
    }

    fn avail(&self, block_len: u64) -> BlockAvail {
        if self.fully_sealed(block_len) {
            if matches!(self.mem, Some(BlockMem::Sealed(_))) {
                BlockAvail::InMemory
            } else if self.on_disk {
                BlockAvail::OnDisk
            } else {
                // Sealed but only building-buffer resident (transient) or
                // remote; report as in-memory if resident at all.
                if self.mem.is_some() {
                    BlockAvail::InMemory
                } else {
                    BlockAvail::Unwritten
                }
            }
        } else if self.sealed.is_empty() {
            BlockAvail::Unwritten
        } else {
            BlockAvail::Partial
        }
    }
}

struct ArrayInfo {
    meta: ArrayMeta,
    /// Created or discovered on this node (its "home"): reads of unwritten
    /// intervals may be logged here instead of erroring.
    home: bool,
    blocks: HashMap<u64, BlockInfo>,
    /// Pending persist: (req, client, blocks whose disk write is awaited).
    persist: Option<(u64, u64, std::collections::HashSet<u64>)>,
    /// Map version at which any of this array's block availabilities last
    /// changed. Deltas ship at array granularity: a client folding a delta
    /// replaces the array's whole block set, which also makes block re-keys
    /// (placeholder-geometry resolution) expressible.
    avail_version: u64,
    /// Block count at the last map query (detects block additions/removals
    /// that leave every surviving block's availability untouched).
    last_nblocks: usize,
}

impl ArrayInfo {
    fn new(meta: ArrayMeta, home: bool) -> Self {
        Self {
            meta,
            home,
            blocks: HashMap::new(),
            persist: None,
            avail_version: 0,
            last_nblocks: 0,
        }
    }
}

/// A block found in the scratch directory at startup.
#[derive(Clone, Debug)]
pub struct DiscoveredBlock {
    /// Array geometry from the file (single-file arrays) or sidecar.
    pub meta: ArrayMeta,
    /// Block index present on disk.
    pub block: u64,
}

/// The storage node state machine.
pub struct StorageState {
    cfg: NodeConfig,
    arrays: HashMap<String, ArrayInfo>,
    /// Tombstones of deleted arrays, with the map version of the deletion.
    deleted: HashMap<String, u64>,
    /// Monotonic availability-map version; bumped whenever a map query
    /// detects a changed array or an array is deleted. Clients use it as the
    /// `since` cursor of [`ClientMsg::MapSince`].
    map_version: u64,
    /// LRU index: clock value -> (array, block). Values are unique.
    lru: BTreeMap<u64, (String, u64)>,
    clock: u64,
    /// Outstanding fetch request ids -> (array, block).
    fetches: HashMap<u64, (String, u64)>,
    next_fetch_req: u64,
    resident: u64,
    /// Bytes of blocks currently pinned (pins > 0); feeds the
    /// `pinned_peak_bytes` high-watermark in [`NodeStats`] that the static
    /// audit's residency bound must dominate.
    pinned_now: u64,
    stats: NodeStats,
    rng: StdRng,
    /// Fetches that exhausted every peer without an answer: retried on the
    /// next tick ("replies back when all the relevant information becomes
    /// available" — the information may simply not exist *yet*).
    stalled: Vec<(String, u64, u64)>,
    /// Monotonic tick counter ([`Self::on_tick`]); the clock retries and
    /// deadlines are measured against.
    tick: u64,
    /// Failed out-of-core reads awaiting their backoff tick.
    io_retry: Vec<IoRetry>,
    /// Read-retry attempts already spent per block.
    io_attempts: HashMap<(String, u64), u32>,
    /// Completed stall/re-probe rounds per block (for
    /// [`RecoveryPolicy::stall_retry_max`]).
    stall_rounds: HashMap<(String, u64), u64>,
    /// This node's clients are quiescent (local Shutdown consumed).
    local_done: bool,
    /// Number of peers that sent a `Bye`.
    byes: u64,
    /// Seeded invariant violations for negative exploration tests.
    #[cfg(feature = "model")]
    seeded_bugs: SeededBugs,
}

impl StorageState {
    /// Creates a node, registering any blocks discovered in its scratch
    /// directory ("upon start of the system, the storage looks for files in
    /// that directory and records the name of the arrays as well as their
    /// sizes").
    pub fn new(cfg: NodeConfig, discovered: Vec<DiscoveredBlock>) -> Self {
        // Register the storage metrics up front so dumps show them zeroed
        // rather than omitting layers that saw no traffic.
        let _ = storage_obs();
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0xD00C_D00C);
        let mut st = Self {
            cfg,
            arrays: HashMap::new(),
            deleted: HashMap::new(),
            map_version: 0,
            lru: BTreeMap::new(),
            clock: 0,
            fetches: HashMap::new(),
            next_fetch_req: 0,
            resident: 0,
            pinned_now: 0,
            stats: NodeStats::default(),
            rng,
            stalled: Vec::new(),
            tick: 0,
            io_retry: Vec::new(),
            io_attempts: HashMap::new(),
            stall_rounds: HashMap::new(),
            local_done: false,
            byes: 0,
            #[cfg(feature = "model")]
            seeded_bugs: SeededBugs::default(),
        };
        for d in discovered {
            let entry = st
                .arrays
                .entry(d.meta.name.clone())
                .or_insert_with(|| ArrayInfo::new(d.meta.clone(), true));
            let block_len = entry.meta.block_len(d.block);
            let info = entry.blocks.entry(d.block).or_default();
            info.sealed = RangeSet::from_range(0, block_len);
            info.on_disk = true;
        }
        st.stats.budget_bytes = st.cfg.memory_budget;
        st
    }

    /// Plants deliberate bugs for negative schedule-exploration tests.
    #[cfg(feature = "model")]
    pub fn set_seeded_bugs(&mut self, bugs: SeededBugs) {
        self.seeded_bugs = bugs;
    }

    #[cfg(feature = "model")]
    fn bug(&self) -> SeededBugs {
        self.seeded_bugs
    }

    #[cfg(not(feature = "model"))]
    fn bug(&self) -> SeededBugs {
        SeededBugs::default()
    }

    /// Model-build inspection: `(pins, resident_in_memory, on_disk)` for a
    /// block, if known. Exploration tests assert residency invariants (e.g.
    /// "evict never fires under a live guard") against this directly.
    #[cfg(feature = "model")]
    pub fn debug_block(&self, array: &str, block: u64) -> Option<(u64, bool, bool)> {
        let info = self.arrays.get(array)?.blocks.get(&block)?;
        Some((info.pins, info.mem.is_some(), info.on_disk))
    }

    /// Current counters.
    pub fn stats(&self) -> NodeStats {
        let mut s = self.stats;
        s.resident_bytes = self.resident;
        s
    }

    /// Number of bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident
    }

    /// Current availability-map version (monotonic; 0 = nothing reported).
    pub fn map_version(&self) -> u64 {
        self.map_version
    }

    /// Computes the incremental availability map for a client that last saw
    /// version `since` (0 = full snapshot). Changes are detected lazily by
    /// comparing each block's current availability against the one recorded
    /// at the previous query, so handlers never need to stamp versions at
    /// every mutation site. Returns `(version, entries, deleted)`; `entries`
    /// holds *every* block of each changed array (replacement granularity is
    /// the array — see [`ArrayInfo::avail_version`]).
    fn map_delta(&mut self, since: u64) -> (u64, Vec<MapEntry>, Vec<String>) {
        let bugs = self.bug();
        let mut entries = Vec::new();
        for (name, ainfo) in self.arrays.iter_mut() {
            let meta = ainfo.meta.clone();
            let mut changed = ainfo.blocks.len() != ainfo.last_nblocks;
            ainfo.last_nblocks = ainfo.blocks.len();
            for (&b, info) in ainfo.blocks.iter_mut() {
                let now = info.avail(meta.block_len(b));
                if info.last_avail != Some(now) {
                    info.last_avail = Some(now);
                    changed = true;
                }
            }
            if changed && !bugs.skip_map_version_bump {
                self.map_version += 1;
                ainfo.avail_version = self.map_version;
            }
            if ainfo.avail_version > since {
                for (&b, info) in ainfo.blocks.iter() {
                    entries.push(MapEntry {
                        array: name.clone(),
                        block: b,
                        state: info.avail(meta.block_len(b)),
                    });
                }
            }
        }
        entries.sort_by(|a, b| (&a.array, a.block).cmp(&(&b.array, b.block)));
        let mut deleted: Vec<String> = self
            .deleted
            .iter()
            .filter(|(_, &v)| v > since)
            .map(|(a, _)| a.clone())
            .collect();
        deleted.sort();
        (self.map_version, entries, deleted)
    }

    /// Marks the local side quiescent without a Shutdown message (used when
    /// every client link closed, e.g. after a client crash). Returns the
    /// `Bye` broadcast actions if this is the first quiescence signal.
    pub fn force_local_done(&mut self) -> Vec<Action> {
        if self.local_done {
            return Vec::new();
        }
        self.handle_client(ClientMsg::Shutdown)
    }

    /// The whole cluster is quiescent: safe to close peer and I/O links.
    pub fn ready_to_exit(&self) -> bool {
        self.local_done && self.byes == self.cfg.nnodes.saturating_sub(1)
    }

    /// Are any remote fetches stalled awaiting a retry?
    pub fn has_stalled_fetches(&self) -> bool {
        !self.stalled.is_empty()
    }

    /// Is this node at a locally-quiescent point where a fail-stop crash
    /// loses no unrecoverable state? True when no grant is outstanding, no
    /// request is logged, no I/O or fetch is in flight, and every sealed
    /// byte is safe on the local disk. Fault injection
    /// (`storage.node.crash`) only fires at such points: a crash-restart
    /// then forgets nothing that cannot be rebuilt from the scratch
    /// directory, the metadata journal, and peer retries.
    pub fn crash_safe(&self) -> bool {
        if !self.fetches.is_empty()
            || !self.stalled.is_empty()
            || !self.io_retry.is_empty()
            || self.local_done
        {
            return false;
        }
        self.arrays.values().all(|a| {
            a.persist.is_none()
                && a.blocks.iter().all(|(&b, i)| {
                    i.pins == 0
                        && i.write_granted.is_empty()
                        && !i.loading
                        && !i.spilling
                        && i.read_waiters.is_empty()
                        && i.peer_waiters.is_empty()
                        && i.fetch.is_none()
                        && (i.sealed.is_empty()
                            || (i.fully_sealed(a.meta.block_len(b)) && i.on_disk))
                })
        })
    }

    /// Does the state machine need periodic [`Self::on_tick`] calls right
    /// now? True while fetches are stalled, failed reads await their backoff
    /// tick, or in-flight fetches are aging against a deadline.
    pub fn needs_tick(&self) -> bool {
        !self.stalled.is_empty()
            || !self.io_retry.is_empty()
            || (self.cfg.recovery.fetch_deadline_ticks.is_some() && !self.fetches.is_empty())
    }

    /// One step of the recovery clock. Retries every stalled fetch with a
    /// fresh random probe cycle (or times its waiters out once
    /// [`RecoveryPolicy::stall_retry_max`] rounds are spent), re-issues
    /// failed reads whose backoff expired, and abandons in-flight peer
    /// probes older than [`RecoveryPolicy::fetch_deadline_ticks`]. Called
    /// periodically by the storage filter while [`Self::needs_tick`].
    pub fn on_tick(&mut self) -> Vec<Action> {
        self.tick += 1;
        let mut out = Vec::new();
        // Stalled fetches: every peer denied in the last round.
        let stall_max = self.cfg.recovery.stall_retry_max;
        for (array, block, offset) in std::mem::take(&mut self.stalled) {
            let still_wanted = self
                .arrays
                .get(&array)
                .and_then(|a| a.blocks.get(&block))
                .map(|i| !i.read_waiters.is_empty() && i.fetch.is_none() && i.mem.is_none())
                .unwrap_or(false);
            if !still_wanted {
                self.stall_rounds.remove(&(array, block));
                continue;
            }
            let rounds = self
                .stall_rounds
                .entry((array.clone(), block))
                .and_modify(|r| *r += 1)
                .or_insert(1);
            if stall_max.is_some_and(|max| *rounds > max) {
                // The data never appeared anywhere: stop hiding the hang.
                self.stall_rounds.remove(&(array.clone(), block));
                if let Some(info) = self
                    .arrays
                    .get_mut(&array)
                    .and_then(|a| a.blocks.get_mut(&block))
                {
                    for w in info.read_waiters.drain(..) {
                        out.push(Action::Reply {
                            client: w.client,
                            reply: Reply::Err {
                                req: w.req,
                                error: StorageError::Timeout(format!(
                                    "fetch of {array}@{block}: no peer produced the data"
                                )),
                            },
                        });
                    }
                }
                dooc_obs::instant_arg(
                    dooc_obs::Category::Fault,
                    "storage:fetch_timeout",
                    self.cfg.node as i64,
                    || format!("{array}@{block} after {stall_max:?} stall rounds"),
                );
            } else {
                storage_obs().fetch_retries.inc();
                self.start_fetch(array, block, offset, &mut out);
            }
        }
        // Failed reads whose backoff expired: re-issue the I/O command.
        // `loading` stayed true across the backoff, so no duplicate read was
        // started meanwhile.
        let tick = self.tick;
        let due: Vec<IoRetry> = {
            let (due, later) = std::mem::take(&mut self.io_retry)
                .into_iter()
                .partition(|r| r.due <= tick);
            self.io_retry = later;
            due
        };
        for r in due {
            let still_loading = self
                .arrays
                .get(&r.array)
                .and_then(|a| a.blocks.get(&r.block))
                .is_some_and(|i| i.loading);
            if !still_loading {
                self.io_attempts.remove(&(r.array, r.block));
                continue; // deleted or satisfied some other way meanwhile
            }
            storage_obs().io_retries.inc();
            dooc_obs::instant_arg(
                dooc_obs::Category::Fault,
                "storage:io_retry",
                self.cfg.node as i64,
                || format!("{}@{} re-issued", r.array, r.block),
            );
            out.push(Action::Io(IoCmd::Read {
                array: r.array,
                block: r.block,
                len: r.len,
            }));
        }
        // Age in-flight peer probes; past the deadline, treat the silent
        // peer as having answered FetchNotFound and move to the next one.
        if let Some(deadline) = self.cfg.recovery.fetch_deadline_ticks {
            let mut expired = Vec::new();
            for (&req, (array, block)) in self.fetches.iter() {
                if let Some(f) = self
                    .arrays
                    .get_mut(array)
                    .and_then(|a| a.blocks.get_mut(block))
                    .and_then(|i| i.fetch.as_mut())
                {
                    f.age += 1;
                    if f.age >= deadline {
                        expired.push(req);
                    }
                }
            }
            for req in expired {
                storage_obs().fetch_retries.inc();
                dooc_obs::instant_arg(
                    dooc_obs::Category::Fault,
                    "storage:fetch_deadline",
                    self.cfg.node as i64,
                    || format!("fetch req {req} unanswered for {deadline} ticks"),
                );
                self.fetch_setback(req, &mut out);
            }
        }
        out
    }

    // -- LRU bookkeeping ----------------------------------------------------

    fn touch(&mut self, array: &str, block: u64) {
        let Some(info) = self
            .arrays
            .get_mut(array)
            .and_then(|a| a.blocks.get_mut(&block))
        else {
            return; // unknown block: nothing to age
        };
        if info.last_use != 0 {
            self.lru.remove(&info.last_use);
        }
        self.clock += 1;
        info.last_use = self.clock;
        self.lru.insert(self.clock, (array.to_string(), block));
    }

    fn lru_remove(&mut self, last_use: u64) {
        if last_use != 0 {
            self.lru.remove(&last_use);
        }
    }

    fn charge(&mut self, bytes: u64, out: &mut Vec<Action>) {
        self.resident += bytes;
        self.reclaim(out);
    }

    fn discharge(&mut self, bytes: u64) {
        debug_assert!(self.resident >= bytes);
        self.resident -= bytes;
    }

    /// LRU reclamation: walk blocks least-recently-used first; drop sealed,
    /// unpinned, disk-backed blocks; spill sealed, unpinned, *not*-on-disk
    /// blocks through the I/O filter and drop them on completion.
    fn reclaim(&mut self, out: &mut Vec<Action>) {
        if self.resident <= self.cfg.memory_budget {
            return;
        }
        let bugs = self.bug();
        // Projected residency counts in-flight spills as already released.
        let mut projected = self.resident;
        // Walk the LRU in place and stop once `projected` fits: reclaiming
        // costs the victims it takes, not the blocks it keeps. Victims leave
        // the index after the walk (the walk borrows it).
        let mut dropped: Vec<u64> = Vec::new();
        for (&used, (array, block)) in self.lru.iter() {
            let block = *block;
            if projected <= self.cfg.memory_budget {
                break;
            }
            let Some(ainfo) = self.arrays.get_mut(array) else {
                continue;
            };
            let block_len = ainfo.meta.block_len(block);
            let Some(info) = ainfo.blocks.get_mut(&block) else {
                continue;
            };
            if (info.pins > 0 && !bugs.evict_ignores_pins)
                || info.loading
                || !info.fully_sealed(block_len)
            {
                continue;
            }
            match (&info.mem, info.on_disk, info.spilling) {
                (Some(BlockMem::Sealed(_)), true, false) => {
                    info.mem = None;
                    info.last_use = 0;
                    dropped.push(used);
                    self.resident -= block_len;
                    projected -= block_len;
                    self.stats.evictions += 1;
                    storage_obs().blocks_evicted.inc();
                    dooc_obs::instant_arg(
                        dooc_obs::Category::Storage,
                        "storage:evict",
                        self.cfg.node as i64,
                        || format!("{array}@{block} (lru reclaim)"),
                    );
                }
                (Some(BlockMem::Sealed(_)), false, false) if bugs.evict_skips_spill => {
                    info.mem = None;
                    info.last_use = 0;
                    dropped.push(used);
                    self.resident -= block_len;
                    projected -= block_len;
                    self.stats.evictions += 1;
                }
                (Some(BlockMem::Sealed(data)), false, false) => {
                    info.spilling = true;
                    info.evict_after_spill = true;
                    storage_obs().blocks_spilled.inc();
                    out.push(Action::Io(IoCmd::Write {
                        array: array.clone(),
                        block,
                        len: ainfo.meta.len,
                        block_size: ainfo.meta.block_size,
                        data: data.clone(),
                    }));
                    projected -= block_len;
                }
                (Some(BlockMem::Sealed(_)), _, true) => {
                    info.evict_after_spill = true;
                    projected -= block_len;
                }
                _ => {}
            }
        }
        for used in dropped {
            self.lru.remove(&used);
        }
    }

    // -- client messages ----------------------------------------------------

    /// Handles one client request.
    pub fn handle_client(&mut self, msg: ClientMsg) -> Vec<Action> {
        let mut out = Vec::new();
        match msg {
            ClientMsg::Create { req, client, meta } => {
                // A geometry hint (Register) may already sit here; creation
                // upgrades it to home status as long as no data exists here
                // and the geometry agrees.
                let hint_only = self.arrays.get(&meta.name).is_some_and(|a| {
                    !a.home
                        && a.blocks.values().all(|b| {
                            b.sealed.is_empty()
                                && b.write_granted.is_empty()
                                && b.mem.is_none()
                                && !b.on_disk
                        })
                });
                if let Some(a) = self.arrays.get_mut(&meta.name).filter(|_| hint_only) {
                    if a.meta.len != u64::MAX
                        && (a.meta.len != meta.len || a.meta.block_size != meta.block_size)
                    {
                        out.push(Action::Reply {
                            client,
                            reply: Reply::Err {
                                req,
                                error: StorageError::Protocol(format!(
                                    "create of '{}' conflicts with registered geometry",
                                    meta.name
                                )),
                            },
                        });
                    } else {
                        a.meta = meta;
                        a.home = true;
                        out.push(Action::Reply {
                            client,
                            reply: Reply::Created { req },
                        });
                    }
                } else if self.arrays.contains_key(&meta.name)
                    || self.deleted.contains_key(&meta.name)
                {
                    out.push(Action::Reply {
                        client,
                        reply: Reply::Err {
                            req,
                            error: StorageError::AlreadyExists(meta.name),
                        },
                    });
                } else {
                    self.arrays
                        .insert(meta.name.clone(), ArrayInfo::new(meta, true));
                    out.push(Action::Reply {
                        client,
                        reply: Reply::Created { req },
                    });
                }
            }
            ClientMsg::Register { meta } => {
                // Geometry hint: adopt only if unknown or placeholder.
                match self.arrays.get_mut(&meta.name) {
                    Some(a) if a.meta.len == u64::MAX => {
                        let name = meta.name.clone();
                        a.meta = meta;
                        self.redistribute_placeholder_waiters(&name, &mut out);
                    }
                    Some(_) => {}
                    None => {
                        if !self.deleted.contains_key(&meta.name) {
                            self.arrays
                                .insert(meta.name.clone(), ArrayInfo::new(meta, false));
                        }
                    }
                }
            }
            ClientMsg::ReadReq {
                req,
                client,
                array,
                iv,
            } => self.client_read(req, client, array, iv, &mut out),
            ClientMsg::WriteReq {
                req,
                client,
                array,
                iv,
            } => self.client_write(req, client, array, iv, &mut out),
            ClientMsg::ReleaseRead { array, iv } => self.release_read(array, iv),
            ClientMsg::ReleaseWrite {
                req,
                client,
                array,
                iv,
                data,
            } => self.release_write(req, client, array, iv, data, &mut out),
            ClientMsg::Prefetch { array, iv } => self.prefetch(array, iv, &mut out),
            ClientMsg::Persist { req, client, array } => self.persist(req, client, array, &mut out),
            ClientMsg::Delete { req, client, array } => self.delete(req, client, array, &mut out),
            ClientMsg::MapQuery { req, client } => {
                let mut entries = Vec::new();
                for (name, ainfo) in &self.arrays {
                    for (&b, info) in &ainfo.blocks {
                        entries.push(MapEntry {
                            array: name.clone(),
                            block: b,
                            state: info.avail(ainfo.meta.block_len(b)),
                        });
                    }
                }
                entries.sort_by(|a, b| (&a.array, a.block).cmp(&(&b.array, b.block)));
                out.push(Action::Reply {
                    client,
                    reply: Reply::Map { req, entries },
                });
            }
            ClientMsg::MapSince { req, client, since } => {
                // A cursor ahead of our version means the client talked to a
                // previous incarnation of this node (crash + restart): serve
                // a full snapshot so it can rebuild its mirror. The client
                // detects the regression by `version < since`.
                let since = if since > self.map_version { 0 } else { since };
                let (version, entries, deleted) = self.map_delta(since);
                out.push(Action::Reply {
                    client,
                    reply: Reply::MapDelta {
                        req,
                        version,
                        entries,
                        deleted,
                    },
                });
            }
            ClientMsg::StatsQuery { req, client } => {
                out.push(Action::Reply {
                    client,
                    reply: Reply::Stats {
                        req,
                        stats: self.stats(),
                    },
                });
            }
            ClientMsg::Evict { array } => self.explicit_evict(array, &mut out),
            ClientMsg::Shutdown => {
                if !self.local_done {
                    self.local_done = true;
                    for n in 0..self.cfg.nnodes {
                        if n != self.cfg.node {
                            out.push(Action::Peer {
                                node: n,
                                msg: PeerMsg::Bye,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Explicit programmer-driven eviction of an array's resident blocks.
    fn explicit_evict(&mut self, array: String, out: &mut Vec<Action>) {
        let bugs = self.bug();
        let Some(ainfo) = self.arrays.get_mut(&array) else {
            return;
        };
        let meta = ainfo.meta.clone();
        let mut freed: Vec<(u64, u64, u64)> = Vec::new(); // (block, block_len, last_use)
        for (&b, info) in ainfo.blocks.iter_mut() {
            let block_len = meta.block_len(b);
            if (info.pins > 0 && !bugs.evict_ignores_pins)
                || info.loading
                || !info.fully_sealed(block_len)
            {
                continue;
            }
            match (&info.mem, info.on_disk, info.spilling) {
                (Some(BlockMem::Sealed(_)), true, false) => {
                    info.mem = None;
                    freed.push((b, block_len, std::mem::take(&mut info.last_use)));
                }
                (Some(BlockMem::Sealed(data)), false, false) => {
                    info.spilling = true;
                    info.evict_after_spill = true;
                    storage_obs().blocks_spilled.inc();
                    out.push(Action::Io(IoCmd::Write {
                        array: array.clone(),
                        block: b,
                        len: meta.len,
                        block_size: meta.block_size,
                        data: data.clone(),
                    }));
                }
                (Some(BlockMem::Sealed(_)), _, true) => {
                    info.evict_after_spill = true;
                }
                _ => {}
            }
        }
        for (block, len, lu) in freed {
            self.lru_remove(lu);
            self.discharge(len);
            self.stats.evictions += 1;
            storage_obs().blocks_evicted.inc();
            dooc_obs::instant_arg(
                dooc_obs::Category::Storage,
                "storage:evict",
                self.cfg.node as i64,
                || format!("{array}@{block} (explicit)"),
            );
        }
    }

    /// Takes one grant on a block, charging its bytes to the pinned ledger
    /// on the 0 → 1 transition (a block's bytes count once no matter how
    /// many grants hold it) and updating the high-watermark.
    fn pin_block(pinned_now: &mut u64, stats: &mut NodeStats, info: &mut BlockInfo, bytes: u64) {
        if info.pins == 0 {
            *pinned_now += bytes;
            if *pinned_now > stats.pinned_peak_bytes {
                stats.pinned_peak_bytes = *pinned_now;
            }
        }
        info.pins += 1;
    }

    /// Drops one grant, discharging the block's bytes on the 1 → 0
    /// transition.
    fn unpin_block(pinned_now: &mut u64, info: &mut BlockInfo, bytes: u64) {
        if info.pins == 1 {
            *pinned_now = pinned_now.saturating_sub(bytes);
        }
        info.pins = info.pins.saturating_sub(1);
    }

    fn err(client: u64, req: u64, error: StorageError, out: &mut Vec<Action>) {
        out.push(Action::Reply {
            client,
            reply: Reply::Err { req, error },
        });
    }

    fn client_read(
        &mut self,
        req: u64,
        client: u64,
        array: String,
        iv: Interval,
        out: &mut Vec<Action>,
    ) {
        if self.deleted.contains_key(&array) {
            return Self::err(client, req, StorageError::Deleted(array), out);
        }
        match self.arrays.get_mut(&array) {
            Some(ainfo) => {
                let (block, off) = match ainfo.meta.locate(iv) {
                    Ok(x) => x,
                    Err(e) => return Self::err(client, req, e, out),
                };
                let block_len = ainfo.meta.block_len(block);
                let info = ainfo.blocks.entry(block).or_default();
                let sealed_here = info.sealed.covers(off, off + iv.len);
                let resident = if sealed_here {
                    info.slice_resident(off, iv.len)
                } else {
                    None
                };
                if let Some(data) = resident {
                    // Serve immediately.
                    storage_obs().read_hits.inc();
                    Self::pin_block(&mut self.pinned_now, &mut self.stats, info, block_len);
                    out.push(Action::Reply {
                        client,
                        reply: Reply::ReadReady { req, data },
                    });
                    self.touch(&array, block);
                } else if sealed_here && info.on_disk {
                    // Implicit out-of-core read.
                    storage_obs().read_misses.inc();
                    info.read_waiters.push(ReadWaiter {
                        req,
                        client,
                        off,
                        len: iv.len,
                    });
                    if !info.loading {
                        info.loading = true;
                        out.push(Action::Io(IoCmd::Read {
                            array,
                            block,
                            len: block_len,
                        }));
                    }
                } else if ainfo.home || !info.sealed.is_empty() || info.mem.is_some() {
                    // The block lives (or will live) here but the interval is
                    // not written yet: log the request.
                    storage_obs().read_misses.inc();
                    info.read_waiters.push(ReadWaiter {
                        req,
                        client,
                        off,
                        len: iv.len,
                    });
                } else {
                    // Not ours: pull the block from a peer.
                    storage_obs().read_misses.inc();
                    info.read_waiters.push(ReadWaiter {
                        req,
                        client,
                        off,
                        len: iv.len,
                    });
                    self.start_fetch(array, block, iv.offset, out);
                }
            }
            None => {
                // Unknown geometry: remember the *global* interval and probe
                // peers by offset.
                storage_obs().read_misses.inc();
                let ainfo = self.arrays.entry(array.clone()).or_insert_with(|| {
                    // Placeholder geometry: a single huge block; replaced
                    // by the real geometry when a peer answers.
                    ArrayInfo::new(ArrayMeta::new(array.clone(), u64::MAX, u64::MAX), false)
                });
                let info = ainfo.blocks.entry(0).or_default();
                info.read_waiters.push(ReadWaiter {
                    req,
                    client,
                    off: iv.offset,
                    len: iv.len,
                });
                self.start_fetch(array, 0, iv.offset, out);
            }
        }
    }

    /// Begins (or joins) a remote fetch of `array`'s block containing
    /// `offset`. `block` is this node's best guess of the block index (0 if
    /// geometry unknown — re-keyed on reply).
    fn start_fetch(&mut self, array: String, block: u64, offset: u64, out: &mut Vec<Action>) {
        let Some(ainfo) = self.arrays.get_mut(&array) else {
            return; // callers register the array first; a miss is a no-op
        };
        let info = ainfo.blocks.entry(block).or_default();
        if info.fetch.is_some() {
            return; // already in flight — "avoid asking for an interval multiple times"
        }
        let req = self.next_fetch_req;
        self.next_fetch_req += 1;
        let me = self.cfg.node;
        // Pick a random peer.
        let peer = loop {
            let p = self.rng.gen_range(0..self.cfg.nnodes);
            if p != me || self.cfg.nnodes == 1 {
                break p;
            }
        };
        info.fetch = Some(FetchState {
            req,
            tried: vec![peer],
            age: 0,
        });
        self.fetches.insert(req, (array.clone(), block));
        out.push(Action::Peer {
            node: peer,
            msg: PeerMsg::Fetch {
                req,
                from_node: me,
                array,
                offset,
            },
        });
    }

    /// One peer probe of fetch `req` came back empty — by an explicit
    /// `FetchNotFound` or by exceeding the fetch deadline. Try the next
    /// random untried peer; once every peer denied, stall the fetch for the
    /// tick loop ("the data may not exist *yet*").
    fn fetch_setback(&mut self, req: u64, out: &mut Vec<Action>) {
        let Some((array, block)) = self.fetches.get(&req).cloned() else {
            return;
        };
        let me = self.cfg.node;
        let nnodes = self.cfg.nnodes;
        let Some(ainfo) = self.arrays.get_mut(&array) else {
            return;
        };
        let offset = if ainfo.meta.len == u64::MAX {
            // Geometry unknown: waiters hold global offsets.
            ainfo
                .blocks
                .get(&block)
                .and_then(|i| i.read_waiters.first().map(|w| w.off))
                .unwrap_or(0)
        } else {
            ainfo.meta.block_start(block)
        };
        let Some(info) = ainfo.blocks.get_mut(&block) else {
            return;
        };
        let Some(fetch) = info.fetch.as_mut() else {
            return;
        };
        // Try the next random untried peer.
        let untried: Vec<u64> = (0..nnodes)
            .filter(|&n| n != me && !fetch.tried.contains(&n))
            .collect();
        if untried.is_empty() {
            // Every peer denied *right now*: the data may not exist
            // yet (the producing task has not run). Stall the fetch
            // and retry on the next tick, preserving the paper's
            // "reply when the information becomes available"
            // semantics.
            info.fetch = None;
            self.fetches.remove(&req);
            self.stalled.push((array.clone(), block, offset));
        } else {
            let peer = untried[self.rng.gen_range(0..untried.len())];
            fetch.tried.push(peer);
            fetch.age = 0;
            out.push(Action::Peer {
                node: peer,
                msg: PeerMsg::Fetch {
                    req,
                    from_node: me,
                    array: array.clone(),
                    offset,
                },
            });
        }
    }

    /// After learning real geometry for an array that had placeholder
    /// geometry, move waiters parked under block 0 (with *global* offsets) to
    /// their true blocks and fetch any block that now lacks one.
    fn redistribute_placeholder_waiters(&mut self, array: &str, out: &mut Vec<Action>) {
        let Some(ainfo) = self.arrays.get_mut(array) else {
            return;
        };
        let meta = ainfo.meta.clone();
        debug_assert_ne!(meta.len, u64::MAX, "geometry must be real now");
        let parked = ainfo.blocks.remove(&0);
        let had_fetch = parked.as_ref().and_then(|p| p.fetch.as_ref()).is_some();
        if let Some(parked) = parked {
            if let Some(f) = &parked.fetch {
                self.fetches.remove(&f.req);
            }
            if let Some(ainfo) = self.arrays.get_mut(array) {
                for w in parked.read_waiters {
                    let b = w.off / meta.block_size;
                    let local = w.off - meta.block_start(b);
                    ainfo
                        .blocks
                        .entry(b)
                        .or_default()
                        .read_waiters
                        .push(ReadWaiter {
                            req: w.req,
                            client: w.client,
                            off: local,
                            len: w.len,
                        });
                }
            }
        }
        let _ = had_fetch;
        let pending: Vec<(u64, u64)> = self
            .arrays
            .get(array)
            .map(|a| {
                a.blocks
                    .iter()
                    .filter(|(_, i)| !i.read_waiters.is_empty() && i.fetch.is_none())
                    .map(|(&b, _)| (b, meta.block_start(b)))
                    .collect()
            })
            .unwrap_or_default();
        for (b, off) in pending {
            self.start_fetch(array.to_string(), b, off, out);
        }
    }

    fn client_write(
        &mut self,
        req: u64,
        client: u64,
        array: String,
        iv: Interval,
        out: &mut Vec<Action>,
    ) {
        if self.deleted.contains_key(&array) {
            return Self::err(client, req, StorageError::Deleted(array), out);
        }
        let Some(ainfo) = self.arrays.get_mut(&array) else {
            return Self::err(client, req, StorageError::UnknownArray(array), out);
        };
        let (block, off) = match ainfo.meta.locate(iv) {
            Ok(x) => x,
            Err(e) => return Self::err(client, req, e, out),
        };
        let block_len = ainfo.meta.block_len(block);
        // The release of such a grant can be adopted as the block: its
        // `Bytes` is the writer's whole allocation, which eviction then
        // frees. A block of a multi-block array arrives as a slice of the
        // array-sized buffer and a partial interval as a fragment, so those
        // are assembled into memory the block owns.
        let whole_single_block = ainfo.meta.nblocks() == 1 && iv.len == block_len;
        let info = ainfo.blocks.entry(block).or_default();
        if info.sealed.intersects(off, off + iv.len)
            || info.write_granted.intersects(off, off + iv.len)
            || info.on_disk
        {
            return Self::err(
                client,
                req,
                StorageError::Immutability(format!(
                    "interval [{}, {}) of {}[{}] already written or being written",
                    off,
                    off + iv.len,
                    array,
                    block
                )),
                out,
            );
        }
        info.write_granted.insert(off, off + iv.len);
        Self::pin_block(&mut self.pinned_now, &mut self.stats, info, block_len);
        let newly_resident = if info.mem.is_none() {
            info.mem = Some(if whole_single_block {
                BlockMem::Reserved
            } else {
                BlockMem::Building(vec![0u8; block_len as usize])
            });
            true
        } else {
            false
        };
        out.push(Action::Reply {
            client,
            reply: Reply::WriteGranted { req },
        });
        self.touch(&array, block);
        if newly_resident {
            self.charge(block_len, out);
        }
    }

    fn release_read(&mut self, array: String, iv: Interval) {
        let Some(ainfo) = self.arrays.get_mut(&array) else {
            return;
        };
        let Ok((block, _)) = ainfo.meta.locate(iv) else {
            return;
        };
        let block_len = ainfo.meta.block_len(block);
        if let Some(info) = ainfo.blocks.get_mut(&block) {
            Self::unpin_block(&mut self.pinned_now, info, block_len);
        }
    }

    fn release_write(
        &mut self,
        req: u64,
        client: u64,
        array: String,
        iv: Interval,
        data: Bytes,
        out: &mut Vec<Action>,
    ) {
        let Some(ainfo) = self.arrays.get_mut(&array) else {
            return Self::err(client, req, StorageError::UnknownArray(array), out);
        };
        let (block, off) = match ainfo.meta.locate(iv) {
            Ok(x) => x,
            Err(e) => return Self::err(client, req, e, out),
        };
        if data.len() as u64 != iv.len {
            return Self::err(
                client,
                req,
                StorageError::Protocol(format!(
                    "release data length {} != interval length {}",
                    data.len(),
                    iv.len
                )),
                out,
            );
        }
        let block_len = ainfo.meta.block_len(block);
        let meta = ainfo.meta.clone();
        let Some(info) = ainfo.blocks.get_mut(&block) else {
            return Self::err(
                client,
                req,
                StorageError::Protocol("release of unknown block".into()),
                out,
            );
        };
        if !info.write_granted.covers(off, off + iv.len) {
            return Self::err(
                client,
                req,
                StorageError::Protocol(format!(
                    "release of never-granted interval [{}, {})",
                    off,
                    off + iv.len
                )),
                out,
            );
        }
        // A reserved block whose grant comes back only in part is assembled
        // after all.
        if matches!(info.mem, Some(BlockMem::Reserved)) && iv.len < block_len {
            info.mem = Some(BlockMem::Building(vec![0u8; block_len as usize]));
        }
        match info.mem.as_mut() {
            Some(mem @ BlockMem::Reserved) => *mem = BlockMem::Sealed(data),
            Some(BlockMem::Building(buf)) => {
                buf[off as usize..(off + iv.len) as usize].copy_from_slice(&data);
            }
            _ => {
                return Self::err(
                    client,
                    req,
                    StorageError::Protocol("release on non-building block".into()),
                    out,
                )
            }
        }
        info.sealed.insert(off, off + iv.len);
        storage_obs().blocks_sealed.inc();
        Self::unpin_block(&mut self.pinned_now, info, block_len);
        out.push(Action::Reply {
            client,
            reply: Reply::WriteSealed { req },
        });
        // Full seal: freeze and notify peers waiting for the whole block.
        if info.fully_sealed(block_len) {
            if let Some(BlockMem::Building(buf)) = &mut info.mem {
                let buf = std::mem::take(buf);
                info.mem = Some(BlockMem::Sealed(Bytes::from(buf)));
            }
        }
        // Serve any logged reads that are now covered.
        Self::flush_waiters(
            info,
            &meta,
            block,
            &mut self.pinned_now,
            &mut self.stats,
            out,
        );
        self.touch(&array, block);
    }

    /// Serves logged local reads whose interval is sealed and resident, and
    /// peer fetches if the block is fully sealed.
    fn flush_waiters(
        info: &mut BlockInfo,
        meta: &ArrayMeta,
        block: u64,
        pinned_now: &mut u64,
        stats: &mut NodeStats,
        out: &mut Vec<Action>,
    ) {
        let block_len = meta.block_len(block);
        let waiters = std::mem::take(&mut info.read_waiters);
        let mut still_waiting = Vec::new();
        for w in waiters {
            let covered = info.sealed.covers(w.off, w.off + w.len);
            let data = if covered {
                info.slice_resident(w.off, w.len)
            } else {
                None
            };
            match data {
                Some(data) => {
                    Self::pin_block(pinned_now, stats, info, block_len);
                    out.push(Action::Reply {
                        client: w.client,
                        reply: Reply::ReadReady { req: w.req, data },
                    });
                }
                None => still_waiting.push(w),
            }
        }
        info.read_waiters = still_waiting;
        if info.fully_sealed(block_len) {
            if let Some(BlockMem::Sealed(bytes)) = &info.mem {
                for (req, from_node) in info.peer_waiters.drain(..) {
                    stats.peer_sent_bytes += bytes.len() as u64;
                    out.push(Action::Peer {
                        node: from_node,
                        msg: PeerMsg::FetchFound {
                            req,
                            len: meta.len,
                            block_size: meta.block_size,
                            block,
                            data: bytes.clone(),
                        },
                    });
                }
            }
        }
    }

    fn prefetch(&mut self, array: String, iv: Interval, out: &mut Vec<Action>) {
        if self.deleted.contains_key(&array) {
            return;
        }
        let Some(ainfo) = self.arrays.get_mut(&array) else {
            // Unknown array: treat like a read miss without a waiter.
            self.arrays
                .entry(array.clone())
                .or_insert_with(|| {
                    ArrayInfo::new(ArrayMeta::new(array.clone(), u64::MAX, u64::MAX), false)
                })
                .blocks
                .entry(0)
                .or_default();
            self.start_fetch(array, 0, iv.offset, out);
            return;
        };
        let Ok((block, _)) = ainfo.meta.locate(iv) else {
            return; // prefetch is a hint; bad hints are dropped
        };
        let block_len = ainfo.meta.block_len(block);
        let home = ainfo.home;
        let info = ainfo.blocks.entry(block).or_default();
        if info.mem.is_some() || info.loading || info.fetch.is_some() {
            return; // already resident or on its way
        }
        if info.on_disk {
            info.loading = true;
            out.push(Action::Io(IoCmd::Read {
                array,
                block,
                len: block_len,
            }));
        } else if !home && info.sealed.is_empty() {
            self.start_fetch(array, block, iv.offset, out);
        }
        // Home + unwritten: nothing to do until a writer shows up.
    }

    fn persist(&mut self, req: u64, client: u64, array: String, out: &mut Vec<Action>) {
        let Some(ainfo) = self.arrays.get_mut(&array) else {
            return Self::err(client, req, StorageError::UnknownArray(array), out);
        };
        if ainfo.persist.is_some() {
            return Self::err(
                client,
                req,
                StorageError::Protocol("persist already in progress".into()),
                out,
            );
        }
        let meta = ainfo.meta.clone();
        let mut awaited = std::collections::HashSet::new();
        for (&b, info) in ainfo.blocks.iter_mut() {
            let block_len = meta.block_len(b);
            if info.fully_sealed(block_len) && !info.on_disk && !info.spilling {
                if let Some(BlockMem::Sealed(data)) = &info.mem {
                    info.spilling = true;
                    awaited.insert(b);
                    out.push(Action::Io(IoCmd::Write {
                        array: array.clone(),
                        block: b,
                        len: meta.len,
                        block_size: meta.block_size,
                        data: data.clone(),
                    }));
                }
            } else if info.spilling {
                awaited.insert(b); // piggyback on the in-flight spill
            }
        }
        if awaited.is_empty() {
            out.push(Action::Reply {
                client,
                reply: Reply::Persisted { req },
            });
        } else {
            ainfo.persist = Some((req, client, awaited));
        }
    }

    fn delete(&mut self, req: u64, client: u64, array: String, out: &mut Vec<Action>) {
        let Some(ainfo) = self.arrays.get(&array) else {
            return Self::err(client, req, StorageError::UnknownArray(array), out);
        };
        if ainfo.blocks.values().any(|b| b.pins > 0) {
            return Self::err(
                client,
                req,
                StorageError::Immutability(format!("delete of '{array}' while intervals are held")),
                out,
            );
        }
        self.drop_array_local(&array, out);
        for n in 0..self.cfg.nnodes {
            if n != self.cfg.node {
                out.push(Action::Peer {
                    node: n,
                    msg: PeerMsg::DeleteNotice {
                        array: array.clone(),
                    },
                });
            }
        }
        out.push(Action::Reply {
            client,
            reply: Reply::Deleted { req },
        });
    }

    /// Forgets an array on this node — resident bytes, LRU entries, fetches
    /// in flight, files — and leaves a tombstone. Shared by a local delete
    /// and a peer's [`PeerMsg::DeleteNotice`].
    fn drop_array_local(&mut self, array: &str, out: &mut Vec<Action>) {
        self.map_version += 1;
        self.deleted.insert(array.to_string(), self.map_version);
        let Some(ainfo) = self.arrays.remove(array) else {
            return;
        };
        // A spill still in flight lands after this point: the I/O filter
        // runs commands in order, so removing the files behind it is enough.
        let has_files = ainfo.blocks.values().any(|b| b.on_disk || b.spilling);
        let mut dead_bytes = 0;
        for (b, info) in ainfo.blocks {
            let block_len = ainfo.meta.block_len(b);
            if info.mem.is_some() {
                self.discharge(block_len);
                if !info.on_disk && !info.spilling {
                    dead_bytes += block_len;
                }
            }
            if info.pins > 0 {
                // Only a peer's notice can find a pin: the reader's release
                // is queued behind it on another stream and will find no
                // block to discharge.
                self.pinned_now = self.pinned_now.saturating_sub(block_len);
            }
            self.lru_remove(info.last_use);
            if let Some(f) = info.fetch {
                self.fetches.remove(&f.req);
            }
        }
        storage_obs().dead_bytes_dropped.add(dead_bytes);
        dooc_obs::instant_arg(
            dooc_obs::Category::Storage,
            "storage:delete",
            self.cfg.node as i64,
            || format!("{array} ({dead_bytes} bytes dropped unspilled)"),
        );
        if has_files {
            out.push(Action::Io(IoCmd::DeleteFiles {
                array: array.to_string(),
                nblocks: ainfo.meta.nblocks(),
            }));
        }
    }

    // -- peer messages ------------------------------------------------------

    /// Handles one peer message arriving from node `from`.
    pub fn handle_peer(&mut self, from: u64, msg: PeerMsg) -> Vec<Action> {
        let mut out = Vec::new();
        match msg {
            PeerMsg::Fetch {
                req,
                from_node,
                array,
                offset,
            } => {
                debug_assert_eq!(from, from_node, "fetch reply address mismatch");
                match self.arrays.get_mut(&array) {
                    Some(ainfo) if ainfo.meta.len != u64::MAX => {
                        let meta = ainfo.meta.clone();
                        if offset >= meta.len {
                            out.push(Action::Peer {
                                node: from_node,
                                msg: PeerMsg::FetchNotFound { req },
                            });
                            return out;
                        }
                        let block = offset / meta.block_size;
                        let block_len = meta.block_len(block);
                        let info = ainfo.blocks.entry(block).or_default();
                        if let Some(BlockMem::Sealed(bytes)) = &info.mem {
                            self.stats.peer_sent_bytes += bytes.len() as u64;
                            out.push(Action::Peer {
                                node: from_node,
                                msg: PeerMsg::FetchFound {
                                    req,
                                    len: meta.len,
                                    block_size: meta.block_size,
                                    block,
                                    data: bytes.clone(),
                                },
                            });
                            self.touch(&array, block);
                        } else if info.on_disk {
                            info.peer_waiters.push((req, from_node));
                            if !info.loading {
                                info.loading = true;
                                out.push(Action::Io(IoCmd::Read {
                                    array,
                                    block,
                                    len: block_len,
                                }));
                            }
                        } else if ainfo.home
                            || !info.write_granted.is_empty()
                            || !info.sealed.is_empty()
                            || info.mem.is_some()
                        {
                            // Production is local (home, or writes already in
                            // flight): log the request, answer once sealed.
                            info.peer_waiters.push((req, from_node));
                        } else {
                            out.push(Action::Peer {
                                node: from_node,
                                msg: PeerMsg::FetchNotFound { req },
                            });
                        }
                    }
                    _ => {
                        out.push(Action::Peer {
                            node: from_node,
                            msg: PeerMsg::FetchNotFound { req },
                        });
                    }
                }
            }
            PeerMsg::FetchFound {
                req,
                len,
                block_size,
                block,
                data,
            } => {
                let Some((array, local_key)) = self.fetches.remove(&req) else {
                    return out; // stale (array deleted meanwhile)
                };
                self.stall_rounds.remove(&(array.clone(), block));
                self.stall_rounds.remove(&(array.clone(), local_key));
                self.stats.peer_recv_bytes += data.len() as u64;
                let Some(ainfo) = self.arrays.get_mut(&array) else {
                    return out;
                };
                // Learn the real geometry if we had a placeholder, then move
                // waiters parked under the placeholder key to their real
                // blocks.
                let had_placeholder = ainfo.meta.len == u64::MAX;
                if had_placeholder {
                    ainfo.meta = ArrayMeta::new(array.clone(), len, block_size);
                }
                let meta = ainfo.meta.clone();
                if had_placeholder {
                    // Remove the placeholder entry entirely; waiter offsets
                    // in it are global.
                    let parked = ainfo.blocks.remove(&local_key);
                    if let Some(parked) = parked {
                        for w in parked.read_waiters {
                            let b = w.off / meta.block_size;
                            let local = w.off - meta.block_start(b);
                            ainfo
                                .blocks
                                .entry(b)
                                .or_default()
                                .read_waiters
                                .push(ReadWaiter {
                                    req: w.req,
                                    client: w.client,
                                    off: local,
                                    len: w.len,
                                });
                        }
                    }
                }
                let block_len = meta.block_len(block);
                let info = ainfo.blocks.entry(block).or_default();
                info.fetch = None;
                debug_assert_eq!(data.len() as u64, block_len);
                let newly = info.mem.is_none();
                info.mem = Some(BlockMem::Sealed(data));
                info.sealed = RangeSet::from_range(0, block_len);
                Self::flush_waiters(
                    info,
                    &meta,
                    block,
                    &mut self.pinned_now,
                    &mut self.stats,
                    &mut out,
                );
                self.touch(&array, block);
                if newly {
                    self.charge(block_len, &mut out);
                }
                if had_placeholder {
                    // Waiters redistributed to *other* blocks need their own
                    // fetches.
                    let pending: Vec<(u64, u64)> = self
                        .arrays
                        .get(&array)
                        .map(|a| {
                            a.blocks
                                .iter()
                                .filter(|(&b, i)| {
                                    b != block && !i.read_waiters.is_empty() && i.fetch.is_none()
                                })
                                .map(|(&b, _)| (b, meta.block_start(b)))
                                .collect()
                        })
                        .unwrap_or_default();
                    for (b, off) in pending {
                        self.start_fetch(array.clone(), b, off, &mut out);
                    }
                }
            }
            PeerMsg::FetchNotFound { req } => self.fetch_setback(req, &mut out),
            PeerMsg::Bye => {
                self.byes += 1;
            }
            PeerMsg::DeleteNotice { array } => self.drop_array_local(&array, &mut out),
        }
        out
    }

    // -- I/O completions ----------------------------------------------------

    /// Handles one I/O filter completion.
    pub fn handle_io(&mut self, reply: IoReply) -> Vec<Action> {
        let mut out = Vec::new();
        match reply {
            IoReply::ReadDone { array, block, data } => {
                self.stats.disk_read_bytes += data.len() as u64;
                storage_obs().bytes_loaded.add(data.len() as u64);
                storage_obs().blocks_loaded.inc();
                self.io_attempts.remove(&(array.clone(), block));
                let Some(ainfo) = self.arrays.get_mut(&array) else {
                    return out; // deleted while loading
                };
                let meta = ainfo.meta.clone();
                let Some(info) = ainfo.blocks.get_mut(&block) else {
                    return out;
                };
                info.loading = false;
                let newly = info.mem.is_none();
                info.mem = Some(BlockMem::Sealed(data));
                info.sealed = RangeSet::from_range(0, meta.block_len(block));
                Self::flush_waiters(
                    info,
                    &meta,
                    block,
                    &mut self.pinned_now,
                    &mut self.stats,
                    &mut out,
                );
                self.touch(&array, block);
                if newly {
                    self.charge(meta.block_len(block), &mut out);
                }
            }
            IoReply::WriteDone {
                array,
                block,
                bytes,
            } => {
                self.stats.disk_write_bytes += bytes;
                let bugs = self.bug();
                let Some(ainfo) = self.arrays.get_mut(&array) else {
                    return out;
                };
                let meta = ainfo.meta.clone();
                let mut evicted = None;
                if let Some(info) = ainfo.blocks.get_mut(&block) {
                    info.spilling = false;
                    info.on_disk = true;
                    if info.evict_after_spill
                        && (info.pins == 0 || bugs.evict_ignores_pins)
                        && info.mem.take().is_some()
                    {
                        info.evict_after_spill = false;
                        evicted = Some(info.last_use);
                        info.last_use = 0;
                    }
                }
                if let Some((req, client, mut awaited)) = ainfo.persist.take() {
                    awaited.remove(&block);
                    if awaited.is_empty() {
                        out.push(Action::Reply {
                            client,
                            reply: Reply::Persisted { req },
                        });
                    } else {
                        ainfo.persist = Some((req, client, awaited));
                    }
                }
                if let Some(lu) = evicted {
                    self.lru_remove(lu);
                    self.discharge(meta.block_len(block));
                    self.stats.evictions += 1;
                    storage_obs().blocks_evicted.inc();
                    dooc_obs::instant_arg(
                        dooc_obs::Category::Storage,
                        "storage:evict",
                        self.cfg.node as i64,
                        || format!("{array}@{block} (after spill)"),
                    );
                }
            }
            IoReply::Error {
                array,
                block,
                message,
            } => self.io_error(array, block, message, &mut out),
        }
        out
    }

    /// An I/O command failed. Read failures go through the bounded-retry
    /// policy: `loading` stays true across the backoff (new readers keep
    /// parking as waiters instead of issuing duplicate reads) and the read
    /// is re-issued on a later tick; once [`RecoveryPolicy::io_retry_max`]
    /// attempts are spent, waiters get [`StorageError::IoFailed`] and peers
    /// a `FetchNotFound`. Write (spill/persist) failures are not retried —
    /// the block is still resident, so nothing was lost — but a pending
    /// persist awaiting the block fails instead of hanging.
    fn io_error(&mut self, array: String, block: u64, message: String, out: &mut Vec<Action>) {
        let policy = self.cfg.recovery.clone();
        let Some(ainfo) = self.arrays.get_mut(&array) else {
            return; // deleted while in flight (also covers DeleteFiles errors)
        };
        let block_len = ainfo.meta.block_len(block);
        let Some(info) = ainfo.blocks.get_mut(&block) else {
            return;
        };
        if info.loading {
            let key = (array.clone(), block);
            let attempt = *self.io_attempts.get(&key).unwrap_or(&0);
            if attempt < policy.io_retry_max {
                self.io_attempts.insert(key, attempt + 1);
                let backoff = policy.io_retry_backoff_ticks.max(1) << attempt.min(32);
                self.io_retry.push(IoRetry {
                    due: self.tick + backoff,
                    array: array.clone(),
                    block,
                    len: block_len,
                });
                dooc_obs::instant_arg(
                    dooc_obs::Category::Fault,
                    "storage:io_error",
                    self.cfg.node as i64,
                    || {
                        format!(
                            "{array}@{block}: {message} (retry {}/{} in {backoff} ticks)",
                            attempt + 1,
                            policy.io_retry_max
                        )
                    },
                );
                return;
            }
            // Retries exhausted (or disabled): this node's final verdict.
            self.io_attempts.remove(&key);
            info.loading = false;
            let attempts = attempt + 1;
            for w in info.read_waiters.drain(..) {
                out.push(Action::Reply {
                    client: w.client,
                    reply: Reply::Err {
                        req: w.req,
                        error: StorageError::IoFailed(format!(
                            "{array}@{block}: {message} ({attempts} attempts)"
                        )),
                    },
                });
            }
            for (req, from_node) in info.peer_waiters.drain(..) {
                out.push(Action::Peer {
                    node: from_node,
                    msg: PeerMsg::FetchNotFound { req },
                });
            }
            return;
        }
        // Write path: clear the in-flight spill and surface the error to a
        // pending persist instead of letting it wait forever.
        info.spilling = false;
        info.evict_after_spill = false;
        if let Some((req, client, awaited)) = ainfo.persist.take() {
            if awaited.contains(&block) {
                out.push(Action::Reply {
                    client,
                    reply: Reply::Err {
                        req,
                        error: StorageError::Io(format!("persist of {array}@{block}: {message}")),
                    },
                });
            } else {
                ainfo.persist = Some((req, client, awaited));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(node: u64, nnodes: u64, budget: u64) -> NodeConfig {
        NodeConfig {
            node,
            nnodes,
            memory_budget: budget,
            seed: 42,
            recovery: RecoveryPolicy {
                // Unit tests drive the state machine message by message;
                // retries would force every I/O-error test through the tick
                // loop, so keep the seed behaviour unless a test opts in.
                io_retry_max: 0,
                ..RecoveryPolicy::default()
            },
        }
    }

    fn state(budget: u64) -> StorageState {
        StorageState::new(cfg(0, 1, budget), vec![])
    }

    fn create(st: &mut StorageState, name: &str, len: u64, bs: u64) {
        let acts = st.handle_client(ClientMsg::Create {
            req: 1000,
            client: 0,
            meta: ArrayMeta::new(name, len, bs),
        });
        assert!(
            matches!(
                &acts[..],
                [Action::Reply {
                    reply: Reply::Created { .. },
                    ..
                }]
            ),
            "create failed: {acts:?}"
        );
    }

    fn write_all(st: &mut StorageState, name: &str, iv: Interval, byte: u8) -> Vec<Action> {
        let mut acts = st.handle_client(ClientMsg::WriteReq {
            req: 1,
            client: 0,
            array: name.into(),
            iv,
        });
        assert!(
            matches!(
                acts.first(),
                Some(Action::Reply {
                    reply: Reply::WriteGranted { .. },
                    ..
                })
            ),
            "grant failed: {acts:?}"
        );
        // Keep any grant-time side effects (e.g. eviction spills) visible to
        // the caller alongside the release actions.
        acts.remove(0);
        let mut rel = st.handle_client(ClientMsg::ReleaseWrite {
            req: 2,
            client: 0,
            array: name.into(),
            iv,
            data: Bytes::from(vec![byte; iv.len as usize]),
        });
        acts.append(&mut rel);
        acts
    }

    #[test]
    fn create_then_write_then_read() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 32);
        let acts = write_all(&mut st, "a", Interval::new(0, 32), 7);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Reply {
                reply: Reply::WriteSealed { .. },
                ..
            }
        )));
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: 3,
            client: 5,
            array: "a".into(),
            iv: Interval::new(4, 8),
        });
        match &acts[..] {
            [Action::Reply {
                client: 5,
                reply: Reply::ReadReady { data, .. },
            }] => assert_eq!(&data[..], &[7u8; 8]),
            other => panic!("expected ReadReady, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 32);
        let acts = st.handle_client(ClientMsg::Create {
            req: 9,
            client: 0,
            meta: ArrayMeta::new("a", 64, 32),
        });
        assert!(matches!(
            &acts[..],
            [Action::Reply {
                reply: Reply::Err {
                    error: StorageError::AlreadyExists(_),
                    ..
                },
                ..
            }]
        ));
    }

    #[test]
    fn double_write_is_immutability_error() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        let acts = st.handle_client(ClientMsg::WriteReq {
            req: 5,
            client: 0,
            array: "a".into(),
            iv: Interval::new(0, 32),
        });
        assert!(matches!(
            &acts[..],
            [Action::Reply {
                reply: Reply::Err {
                    error: StorageError::Immutability(_),
                    ..
                },
                ..
            }]
        ));
    }

    #[test]
    fn overlapping_write_grants_rejected() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 64);
        let acts = st.handle_client(ClientMsg::WriteReq {
            req: 1,
            client: 0,
            array: "a".into(),
            iv: Interval::new(0, 16),
        });
        assert!(matches!(
            &acts[..],
            [Action::Reply {
                reply: Reply::WriteGranted { .. },
                ..
            }]
        ));
        let acts = st.handle_client(ClientMsg::WriteReq {
            req: 2,
            client: 0,
            array: "a".into(),
            iv: Interval::new(8, 16),
        });
        assert!(matches!(
            &acts[..],
            [Action::Reply {
                reply: Reply::Err {
                    error: StorageError::Immutability(_),
                    ..
                },
                ..
            }]
        ));
        // Disjoint grant on the same block is fine.
        let acts = st.handle_client(ClientMsg::WriteReq {
            req: 3,
            client: 0,
            array: "a".into(),
            iv: Interval::new(16, 16),
        });
        assert!(matches!(
            &acts[..],
            [Action::Reply {
                reply: Reply::WriteGranted { .. },
                ..
            }]
        ));
    }

    #[test]
    fn read_before_write_is_logged_then_served() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 32, 32);
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: 7,
            client: 3,
            array: "a".into(),
            iv: Interval::new(0, 8),
        });
        assert!(acts.is_empty(), "request must be logged, got {acts:?}");
        let acts = write_all(&mut st, "a", Interval::new(0, 32), 9);
        let read = acts.iter().find_map(|a| match a {
            Action::Reply {
                client: 3,
                reply: Reply::ReadReady { req: 7, data },
            } => Some(data.clone()),
            _ => None,
        });
        assert_eq!(&read.expect("logged read served")[..], &[9u8; 8]);
    }

    #[test]
    fn partial_seal_serves_covered_reads_only() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 32, 32);
        // Two logged reads: one inside the first half, one in the second.
        st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 0,
            array: "a".into(),
            iv: Interval::new(0, 16),
        });
        st.handle_client(ClientMsg::ReadReq {
            req: 2,
            client: 0,
            array: "a".into(),
            iv: Interval::new(16, 16),
        });
        let acts = write_all(&mut st, "a", Interval::new(0, 16), 4);
        let served: Vec<u64> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Reply {
                    reply: Reply::ReadReady { req, .. },
                    ..
                } => Some(*req),
                _ => None,
            })
            .collect();
        assert_eq!(served, vec![1], "only the covered read is served");
        let acts = write_all(&mut st, "a", Interval::new(16, 16), 5);
        let served: Vec<u64> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Reply {
                    reply: Reply::ReadReady { req, .. },
                    ..
                } => Some(*req),
                _ => None,
            })
            .collect();
        assert_eq!(served, vec![2]);
    }

    /// Runs a MapSince query and unpacks the reply.
    fn map_delta_of(st: &mut StorageState, since: u64) -> (u64, Vec<MapEntry>, Vec<String>) {
        let acts = st.handle_client(ClientMsg::MapSince {
            req: 900,
            client: 0,
            since,
        });
        match &acts[..] {
            [Action::Reply {
                reply:
                    Reply::MapDelta {
                        version,
                        entries,
                        deleted,
                        ..
                    },
                ..
            }] => (*version, entries.clone(), deleted.clone()),
            other => panic!("expected MapDelta, got {other:?}"),
        }
    }

    fn full_map(st: &mut StorageState) -> Vec<MapEntry> {
        let acts = st.handle_client(ClientMsg::MapQuery {
            req: 901,
            client: 0,
        });
        match &acts[..] {
            [Action::Reply {
                reply: Reply::Map { entries, .. },
                ..
            }] => entries.clone(),
            other => panic!("expected Map, got {other:?}"),
        }
    }

    /// Folds one delta into a client-side mirror (array-granularity
    /// replacement, deletions drop the whole array).
    fn fold_delta(
        mirror: &mut HashMap<String, BTreeMap<u64, BlockAvail>>,
        entries: &[MapEntry],
        deleted: &[String],
    ) {
        for a in deleted {
            mirror.remove(a);
        }
        let mut touched: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for en in entries {
            if touched.insert(&en.array) {
                mirror.insert(en.array.clone(), BTreeMap::new());
            }
        }
        for en in entries {
            if let Some(blocks) = mirror.get_mut(&en.array) {
                blocks.insert(en.block, en.state);
            }
        }
    }

    fn flatten(mirror: &HashMap<String, BTreeMap<u64, BlockAvail>>) -> Vec<MapEntry> {
        let mut v: Vec<MapEntry> = mirror
            .iter()
            .flat_map(|(a, blocks)| {
                blocks.iter().map(|(&b, &s)| MapEntry {
                    array: a.clone(),
                    block: b,
                    state: s,
                })
            })
            .collect();
        v.sort_by(|a, b| (&a.array, a.block).cmp(&(&b.array, b.block)));
        v
    }

    #[test]
    fn map_since_zero_is_full_snapshot() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        create(&mut st, "b", 16, 16);
        let (v, entries, deleted) = map_delta_of(&mut st, 0);
        assert!(v > 0, "changes must have bumped the version");
        assert_eq!(entries, full_map(&mut st));
        assert!(deleted.is_empty());
    }

    #[test]
    fn map_since_version_monotonic_and_quiescent() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 32);
        let (v1, _, _) = map_delta_of(&mut st, 0);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        let (v2, e2, _) = map_delta_of(&mut st, v1);
        assert!(v2 >= v1, "map version must be monotonic");
        assert!(
            e2.iter().any(|e| e.array == "a" && e.block == 0),
            "the sealed block must appear in the delta: {e2:?}"
        );
        // No changes since v2: the delta is empty and the version stable.
        let (v3, e3, d3) = map_delta_of(&mut st, v2);
        assert_eq!(v3, v2);
        assert!(e3.is_empty(), "quiescent delta must be empty: {e3:?}");
        assert!(d3.is_empty());
    }

    #[test]
    fn map_since_deltas_compose_to_full_map() {
        let mut st = state(1 << 20);
        let mut mirror: HashMap<String, BTreeMap<u64, BlockAvail>> = HashMap::new();
        let mut cursor = 0u64;
        let step = |st: &mut StorageState,
                    mirror: &mut HashMap<String, BTreeMap<u64, BlockAvail>>,
                    cursor: &mut u64| {
            let (v, entries, deleted) = map_delta_of(st, *cursor);
            assert!(v >= *cursor, "version went backwards");
            fold_delta(mirror, &entries, &deleted);
            *cursor = v;
            assert_eq!(
                flatten(mirror),
                full_map(st),
                "delta ∘ base must equal the full map"
            );
        };
        step(&mut st, &mut mirror, &mut cursor);
        create(&mut st, "a", 96, 32);
        step(&mut st, &mut mirror, &mut cursor);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        write_all(&mut st, "a", Interval::new(32, 16), 2);
        step(&mut st, &mut mirror, &mut cursor);
        create(&mut st, "b", 32, 32);
        write_all(&mut st, "b", Interval::new(0, 32), 3);
        // Persist then evict: b's block transitions InMemory -> OnDisk.
        let acts = st.handle_client(ClientMsg::Persist {
            req: 50,
            client: 0,
            array: "b".into(),
        });
        for a in acts {
            if let Action::Io(IoCmd::Write { array, block, .. }) = a {
                st.handle_io(IoReply::WriteDone {
                    array,
                    block,
                    bytes: 32,
                });
            }
        }
        st.handle_client(ClientMsg::Evict { array: "b".into() });
        step(&mut st, &mut mirror, &mut cursor);
        // Finish a, then delete it.
        write_all(&mut st, "a", Interval::new(48, 16), 4);
        write_all(&mut st, "a", Interval::new(64, 32), 5);
        step(&mut st, &mut mirror, &mut cursor);
        let acts = st.handle_client(ClientMsg::Delete {
            req: 60,
            client: 0,
            array: "a".into(),
        });
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Reply {
                reply: Reply::Deleted { .. },
                ..
            }
        )));
        let before = cursor;
        let (v, entries, deleted) = map_delta_of(&mut st, cursor);
        assert!(v > before, "deletion must bump the version");
        assert_eq!(deleted, vec!["a".to_string()]);
        fold_delta(&mut mirror, &entries, &deleted);
        cursor = v;
        assert_eq!(flatten(&mirror), full_map(&mut st));
        let _ = cursor;
    }

    #[test]
    fn release_of_ungranted_interval_is_protocol_error() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 32, 32);
        let acts = st.handle_client(ClientMsg::ReleaseWrite {
            req: 1,
            client: 0,
            array: "a".into(),
            iv: Interval::new(0, 8),
            data: Bytes::from(vec![0u8; 8]),
        });
        assert!(matches!(
            &acts[..],
            [Action::Reply {
                reply: Reply::Err {
                    error: StorageError::Protocol(_),
                    ..
                },
                ..
            }]
        ));
    }

    #[test]
    fn interval_spanning_blocks_rejected() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 32);
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 0,
            array: "a".into(),
            iv: Interval::new(30, 4),
        });
        assert!(matches!(
            &acts[..],
            [Action::Reply {
                reply: Reply::Err {
                    error: StorageError::BadInterval { .. },
                    ..
                },
                ..
            }]
        ));
    }

    fn grant(st: &mut StorageState, name: &str, iv: Interval) {
        let acts = st.handle_client(ClientMsg::WriteReq {
            req: 1,
            client: 0,
            array: name.into(),
            iv,
        });
        assert!(
            matches!(
                acts.first(),
                Some(Action::Reply {
                    reply: Reply::WriteGranted { .. },
                    ..
                })
            ),
            "grant failed: {acts:?}"
        );
    }

    /// Releases the granted `iv` with `data` and returns the bytes a
    /// whole-interval read of it is then served.
    fn release_then_read(st: &mut StorageState, name: &str, iv: Interval, data: Bytes) -> Bytes {
        st.handle_client(ClientMsg::ReleaseWrite {
            req: 2,
            client: 0,
            array: name.into(),
            iv,
            data,
        });
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: 3,
            client: 0,
            array: name.into(),
            iv,
        });
        st.handle_client(ClientMsg::ReleaseRead {
            array: name.into(),
            iv,
        });
        match &acts[..] {
            [Action::Reply {
                reply: Reply::ReadReady { data, .. },
                ..
            }] => data.clone(),
            other => panic!("expected ReadReady, got {other:?}"),
        }
    }

    /// The zero-copy contract of the write path: the `Bytes` a worker
    /// releases over the whole block of a single-block array *is* the sealed
    /// block — what readers are lent and what a spill hands the I/O filter —
    /// and the grant charged the budget without allocating anything.
    #[test]
    fn whole_block_release_into_a_single_block_array_is_adopted() {
        let mut st = state(1 << 20);
        create(&mut st, "v", 4096, 4096);
        grant(&mut st, "v", Interval::new(0, 4096));
        assert_eq!(st.resident_bytes(), 4096, "charged at grant");
        assert_eq!(st.stats().pinned_peak_bytes, 4096);
        let written = Bytes::from(vec![3u8; 4096]);
        let read = release_then_read(&mut st, "v", Interval::new(0, 4096), written.clone());
        assert_eq!(read.as_ptr(), written.as_ptr(), "adopted, not copied");
        assert_eq!(st.resident_bytes(), 4096, "one copy of the block exists");
        let mut acts = Vec::new();
        st.explicit_evict("v".into(), &mut acts);
        match &acts[..] {
            [Action::Io(IoCmd::Write { data, .. })] => {
                assert_eq!(
                    data.as_ptr(),
                    written.as_ptr(),
                    "the spill writes that allocation"
                )
            }
            other => panic!("expected one spill, got {other:?}"),
        }
    }

    /// A grant over a whole single block that comes back in pieces is still
    /// assembled correctly (no buffer was reserved for it at grant time).
    #[test]
    fn partial_release_of_a_whole_block_grant_is_assembled() {
        let mut st = state(1 << 20);
        create(&mut st, "v", 64, 64);
        grant(&mut st, "v", Interval::new(0, 64));
        for (off, byte) in [(32u64, 2u8), (0, 1)] {
            let acts = st.handle_client(ClientMsg::ReleaseWrite {
                req: 2,
                client: 0,
                array: "v".into(),
                iv: Interval::new(off, 32),
                data: Bytes::from(vec![byte; 32]),
            });
            assert!(
                matches!(
                    acts.first(),
                    Some(Action::Reply {
                        reply: Reply::WriteSealed { .. },
                        ..
                    })
                ),
                "{acts:?}"
            );
        }
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: 3,
            client: 0,
            array: "v".into(),
            iv: Interval::new(0, 64),
        });
        match &acts[..] {
            [Action::Reply {
                reply: Reply::ReadReady { data, .. },
                ..
            }] => {
                assert_eq!(&data[..32], &[1u8; 32]);
                assert_eq!(&data[32..], &[2u8; 32]);
            }
            other => panic!("expected ReadReady, got {other:?}"),
        }
        assert_eq!(st.resident_bytes(), 64);
    }

    /// Blocks of a multi-block array arrive as slices of the writer's
    /// array-sized buffer, so each is copied into memory the block owns:
    /// evicting one block then frees exactly that block.
    #[test]
    fn whole_block_release_into_a_two_block_array_is_copied() {
        let mut st = state(1 << 20);
        create(&mut st, "m", 96, 64);
        let array = Bytes::from((0..96u8).collect::<Vec<u8>>());
        grant(&mut st, "m", Interval::new(0, 64));
        let b0 = release_then_read(&mut st, "m", Interval::new(0, 64), array.slice(0..64));
        grant(&mut st, "m", Interval::new(64, 32));
        let b1 = release_then_read(&mut st, "m", Interval::new(64, 32), array.slice(64..96));
        assert_eq!((&b0[..], &b1[..]), (&array[..64], &array[64..]));
        assert_ne!(b0.as_ptr(), array.as_ptr(), "block 0 owns its memory");
        assert_eq!(st.stats().resident_bytes, 96);
        // Drop block 0 only: spill it, then reclaim on completion.
        st.cfg.memory_budget = 32;
        let mut acts = Vec::new();
        st.reclaim(&mut acts);
        assert!(
            matches!(&acts[..], [Action::Io(IoCmd::Write { block: 0, .. })]),
            "LRU block 0 spills first: {acts:?}"
        );
        st.handle_io(IoReply::WriteDone {
            array: "m".into(),
            block: 0,
            bytes: 64,
        });
        assert_eq!(
            st.stats().resident_bytes,
            32,
            "evicting block 0 freed exactly block_len(0); block 1 stays"
        );
        assert_eq!(st.stats().evictions, 1);
    }

    #[test]
    fn lru_eviction_spills_then_drops() {
        // Budget of one block: writing a second block must spill the first.
        let mut st = state(32);
        create(&mut st, "a", 64, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        assert_eq!(st.resident_bytes(), 32);
        let acts = write_all(&mut st, "a", Interval::new(32, 32), 2);
        // Budget exceeded: the LRU (block 0) must be spilled via Io.
        let spill = acts.iter().find_map(|a| match a {
            Action::Io(IoCmd::Write { array, block, .. }) => Some((array.clone(), *block)),
            _ => None,
        });
        assert_eq!(spill, Some(("a".into(), 0)), "LRU block spilled");
        assert_eq!(st.resident_bytes(), 64, "memory freed only on completion");
        let acts = st.handle_io(IoReply::WriteDone {
            array: "a".into(),
            block: 0,
            bytes: 32,
        });
        assert!(acts.is_empty());
        assert_eq!(st.resident_bytes(), 32, "block 0 dropped after spill");
        assert_eq!(st.stats().evictions, 1);
    }

    #[test]
    fn evicted_block_reloaded_from_disk() {
        let mut st = state(32);
        create(&mut st, "a", 64, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        write_all(&mut st, "a", Interval::new(32, 32), 2);
        st.handle_io(IoReply::WriteDone {
            array: "a".into(),
            block: 0,
            bytes: 32,
        });
        // Read of block 0 now requires an implicit out-of-core read.
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: 9,
            client: 1,
            array: "a".into(),
            iv: Interval::new(0, 32),
        });
        assert!(matches!(
            &acts[..],
            [Action::Io(IoCmd::Read { block: 0, .. })]
        ));
        let acts = st.handle_io(IoReply::ReadDone {
            array: "a".into(),
            block: 0,
            data: Bytes::from(vec![1u8; 32]),
        });
        // The reload evicts block 1 (budget) and serves the read.
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Reply {
                client: 1,
                reply: Reply::ReadReady { req: 9, .. }
            }
        )));
        assert_eq!(st.stats().disk_read_bytes, 32);
    }

    #[test]
    fn pinned_blocks_are_not_evicted() {
        let mut st = state(32);
        create(&mut st, "a", 64, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        // Pin block 0 with a read.
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 0,
            array: "a".into(),
            iv: Interval::new(0, 32),
        });
        assert!(matches!(
            &acts[..],
            [Action::Reply {
                reply: Reply::ReadReady { .. },
                ..
            }]
        ));
        // Write block 1: over budget, but block 0 is pinned -> no spill of it
        // is allowed to drop it; it may spill (to prepare) but not evict.
        let acts = write_all(&mut st, "a", Interval::new(32, 32), 2);
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, Action::Io(IoCmd::Write { block: 0, .. }))),
            "pinned block must not be spill-evicted: {acts:?}"
        );
        assert_eq!(st.resident_bytes(), 64);
        // Release the pin; next pressure event can evict it.
        st.handle_client(ClientMsg::ReleaseRead {
            array: "a".into(),
            iv: Interval::new(0, 32),
        });
    }

    #[test]
    fn discovered_blocks_read_from_disk() {
        let st = StorageState::new(
            cfg(0, 1, 1 << 20),
            vec![DiscoveredBlock {
                meta: ArrayMeta::new("m", 100, 100),
                block: 0,
            }],
        );
        let mut st = st;
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 0,
            array: "m".into(),
            iv: Interval::new(0, 100),
        });
        assert!(matches!(
            &acts[..],
            [Action::Io(IoCmd::Read {
                block: 0,
                len: 100,
                ..
            })]
        ));
        let acts = st.handle_io(IoReply::ReadDone {
            array: "m".into(),
            block: 0,
            data: Bytes::from(vec![3u8; 100]),
        });
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Reply {
                reply: Reply::ReadReady { .. },
                ..
            }
        )));
    }

    #[test]
    fn concurrent_reads_share_one_io() {
        let mut st = StorageState::new(
            cfg(0, 1, 1 << 20),
            vec![DiscoveredBlock {
                meta: ArrayMeta::new("m", 64, 64),
                block: 0,
            }],
        );
        let a1 = st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 0,
            array: "m".into(),
            iv: Interval::new(0, 8),
        });
        let a2 = st.handle_client(ClientMsg::ReadReq {
            req: 2,
            client: 1,
            array: "m".into(),
            iv: Interval::new(8, 8),
        });
        assert_eq!(a1.len(), 1, "one io read");
        assert!(a2.is_empty(), "second read joins the in-flight io");
        let acts = st.handle_io(IoReply::ReadDone {
            array: "m".into(),
            block: 0,
            data: Bytes::from(vec![1u8; 64]),
        });
        let served = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Reply {
                        reply: Reply::ReadReady { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(served, 2);
    }

    #[test]
    fn remote_read_probes_random_peers_until_found() {
        let mut st = StorageState::new(cfg(0, 4, 1 << 20), vec![]);
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 0,
            array: "remote".into(),
            iv: Interval::new(0, 8),
        });
        let (first_peer, fetch_req) = match &acts[..] {
            [Action::Peer {
                node,
                msg: PeerMsg::Fetch { req, .. },
            }] => (*node, *req),
            other => panic!("expected a peer fetch, got {other:?}"),
        };
        assert_ne!(first_peer, 0, "never asks itself");
        // First peer misses.
        let acts = st.handle_peer(first_peer, PeerMsg::FetchNotFound { req: fetch_req });
        let second_peer = match &acts[..] {
            [Action::Peer {
                node,
                msg: PeerMsg::Fetch { .. },
            }] => *node,
            other => panic!("expected a retry, got {other:?}"),
        };
        assert_ne!(second_peer, first_peer, "tried peers are excluded");
        // Second peer answers with the block.
        let acts = st.handle_peer(
            second_peer,
            PeerMsg::FetchFound {
                req: fetch_req,
                len: 16,
                block_size: 16,
                block: 0,
                data: Bytes::from(vec![8u8; 16]),
            },
        );
        let data = acts.iter().find_map(|a| match a {
            Action::Reply {
                reply: Reply::ReadReady { req: 1, data },
                ..
            } => Some(data.clone()),
            _ => None,
        });
        assert_eq!(&data.expect("read served")[..], &[8u8; 8]);
        assert_eq!(st.stats().peer_recv_bytes, 16);
    }

    #[test]
    fn remote_read_stalls_after_all_peers_deny_then_retries() {
        let mut st = StorageState::new(cfg(0, 3, 1 << 20), vec![]);
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 0,
            array: "ghost".into(),
            iv: Interval::new(0, 8),
        });
        let req = match &acts[..] {
            [Action::Peer {
                msg: PeerMsg::Fetch { req, .. },
                ..
            }] => *req,
            other => panic!("expected fetch, got {other:?}"),
        };
        let acts = st.handle_peer(1, PeerMsg::FetchNotFound { req });
        assert!(matches!(&acts[..], [Action::Peer { .. }]), "second probe");
        let acts = st.handle_peer(2, PeerMsg::FetchNotFound { req });
        assert!(acts.is_empty(), "no error: fetch stalls ({acts:?})");
        assert!(st.has_stalled_fetches());
        // A tick restarts the probe cycle.
        let acts = st.on_tick();
        assert!(
            matches!(
                &acts[..],
                [Action::Peer {
                    msg: PeerMsg::Fetch { .. },
                    ..
                }]
            ),
            "tick reprobes: {acts:?}"
        );
        assert!(!st.has_stalled_fetches());
    }

    #[test]
    fn duplicate_fetches_are_suppressed() {
        let mut st = StorageState::new(cfg(0, 2, 1 << 20), vec![]);
        st.register_for_test("r", 64, 32);
        let a1 = st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 0,
            array: "r".into(),
            iv: Interval::new(0, 8),
        });
        let a2 = st.handle_client(ClientMsg::ReadReq {
            req: 2,
            client: 0,
            array: "r".into(),
            iv: Interval::new(8, 8),
        });
        assert_eq!(
            a1.iter()
                .filter(|a| matches!(a, Action::Peer { .. }))
                .count(),
            1
        );
        assert!(
            a2.iter().all(|a| !matches!(a, Action::Peer { .. })),
            "same-block fetch deduplicated: {a2:?}"
        );
        // Different block -> its own fetch.
        let a3 = st.handle_client(ClientMsg::ReadReq {
            req: 3,
            client: 0,
            array: "r".into(),
            iv: Interval::new(32, 8),
        });
        assert_eq!(
            a3.iter()
                .filter(|a| matches!(a, Action::Peer { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn peer_fetch_served_from_memory() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 32, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 6);
        let acts = st.handle_peer(
            1,
            PeerMsg::Fetch {
                req: 77,
                from_node: 1,
                array: "a".into(),
                offset: 0,
            },
        );
        match &acts[..] {
            [Action::Peer {
                node: 1,
                msg:
                    PeerMsg::FetchFound {
                        req: 77,
                        len: 32,
                        block_size: 32,
                        block: 0,
                        data,
                    },
            }] => assert_eq!(&data[..], &[6u8; 32]),
            other => panic!("expected FetchFound, got {other:?}"),
        }
        assert_eq!(st.stats().peer_sent_bytes, 32);
    }

    #[test]
    fn peer_fetch_of_unwritten_home_block_is_queued() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 32, 32);
        let acts = st.handle_peer(
            1,
            PeerMsg::Fetch {
                req: 5,
                from_node: 1,
                array: "a".into(),
                offset: 0,
            },
        );
        assert!(acts.is_empty(), "queued, not answered: {acts:?}");
        let acts = write_all(&mut st, "a", Interval::new(0, 32), 2);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Peer {
                node: 1,
                msg: PeerMsg::FetchFound { req: 5, .. }
            }
        )));
    }

    #[test]
    fn peer_fetch_of_unknown_array_is_not_found() {
        let mut st = state(1 << 20);
        let acts = st.handle_peer(
            1,
            PeerMsg::Fetch {
                req: 5,
                from_node: 1,
                array: "nope".into(),
                offset: 0,
            },
        );
        assert!(matches!(
            &acts[..],
            [Action::Peer {
                node: 1,
                msg: PeerMsg::FetchNotFound { req: 5 }
            }]
        ));
    }

    #[test]
    fn delete_broadcasts_and_tombstones() {
        let mut st = StorageState::new(cfg(0, 3, 1 << 20), vec![]);
        create(&mut st, "a", 32, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        let acts = st.handle_client(ClientMsg::Delete {
            req: 1,
            client: 0,
            array: "a".into(),
        });
        let notices = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Peer {
                        msg: PeerMsg::DeleteNotice { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(notices, 2, "both peers notified");
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Reply {
                reply: Reply::Deleted { .. },
                ..
            }
        )));
        assert_eq!(st.resident_bytes(), 0);
        // Subsequent access errors with Deleted.
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: 2,
            client: 0,
            array: "a".into(),
            iv: Interval::new(0, 8),
        });
        assert!(matches!(
            &acts[..],
            [Action::Reply {
                reply: Reply::Err {
                    error: StorageError::Deleted(_),
                    ..
                },
                ..
            }]
        ));
    }

    #[test]
    fn reclaim_takes_the_oldest_blocks_and_only_as_many_as_it_needs() {
        // Four disk-backed blocks resident in a budget of four; one more
        // block arrives. Exactly the least recently used one goes.
        let found = (0..5)
            .map(|b| DiscoveredBlock {
                meta: ArrayMeta::new("m", 160, 32),
                block: b,
            })
            .collect();
        let mut st = StorageState::new(cfg(0, 1, 128), found);
        let load = |st: &mut StorageState, b: u64| {
            st.handle_client(ClientMsg::Prefetch {
                array: "m".into(),
                iv: Interval::new(32 * b, 32),
            });
            st.handle_io(IoReply::ReadDone {
                array: "m".into(),
                block: b,
                data: Bytes::from(vec![b as u8; 32]),
            })
        };
        for b in [2, 0, 3, 1] {
            load(&mut st, b);
        }
        assert_eq!((st.resident_bytes(), st.stats().evictions), (128, 0));
        load(&mut st, 4);
        assert_eq!((st.resident_bytes(), st.stats().evictions), (128, 1));
        let in_memory = |st: &StorageState, b: u64| st.arrays["m"].blocks[&b].mem.is_some();
        assert!(!in_memory(&st, 2), "the oldest block went");
        assert!([0, 3, 1, 4].iter().all(|&b| in_memory(&st, b)));
        assert_eq!(st.lru.len(), 4, "the victim left the LRU index");
    }

    #[test]
    fn delete_drops_unspilled_bytes_and_removes_files_of_a_spill_in_flight() {
        let mut st = state(64);
        // "mem" never leaves memory: deleting it touches no file.
        create(&mut st, "mem", 32, 32);
        write_all(&mut st, "mem", Interval::new(0, 32), 1);
        let acts = st.handle_client(ClientMsg::Delete {
            req: 1,
            client: 0,
            array: "mem".into(),
        });
        assert!(
            !acts.iter().any(|a| matches!(a, Action::Io(_))),
            "nothing on disk, nothing to remove: {acts:?}"
        );
        assert_eq!(st.resident_bytes(), 0);
        // "spill" has three blocks; the third write pushes block 0 out, and
        // the delete arrives while that spill is still at the I/O filter.
        create(&mut st, "spill", 96, 32);
        write_all(&mut st, "spill", Interval::new(0, 32), 1);
        write_all(&mut st, "spill", Interval::new(32, 32), 2);
        let acts = write_all(&mut st, "spill", Interval::new(64, 32), 3);
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Io(IoCmd::Write { block: 0, .. }))));
        let acts = st.handle_client(ClientMsg::Delete {
            req: 2,
            client: 0,
            array: "spill".into(),
        });
        assert!(
            acts.contains(&Action::Io(IoCmd::DeleteFiles {
                array: "spill".into(),
                nblocks: 3
            })),
            "the file the spill is about to create is removed behind it: {acts:?}"
        );
        assert_eq!(st.resident_bytes(), 0);
        assert!(st.lru.is_empty());
        // The spill's completion finds no array and changes nothing.
        assert!(st
            .handle_io(IoReply::WriteDone {
                array: "spill".into(),
                block: 0,
                bytes: 32
            })
            .is_empty());
        assert_eq!(st.resident_bytes(), 0);
        // Tombstones: the names cannot come back, by creation or by hint.
        for name in ["mem", "spill"] {
            let acts = st.handle_client(ClientMsg::Create {
                req: 3,
                client: 0,
                meta: ArrayMeta::new(name, 32, 32),
            });
            assert!(matches!(
                &acts[..],
                [Action::Reply {
                    reply: Reply::Err {
                        error: StorageError::AlreadyExists(_),
                        ..
                    },
                    ..
                }]
            ));
            st.handle_client(ClientMsg::Register {
                meta: ArrayMeta::new(name, 32, 32),
            });
        }
        assert!(st.arrays.is_empty());
        let (_, entries, deleted) = map_delta_of(&mut st, 0);
        assert!(entries.is_empty());
        assert_eq!(deleted, vec!["mem".to_string(), "spill".to_string()]);
    }

    #[test]
    fn delete_notice_under_a_live_pin_settles_the_pinned_ledger() {
        // A reader's release travels on the client stream, the notice on the
        // peer stream: the notice can overtake the release.
        let mut st = StorageState::new(cfg(1, 2, 1 << 20), vec![]);
        create(&mut st, "a", 32, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 0,
            array: "a".into(),
            iv: Interval::new(0, 32),
        });
        assert_eq!(st.pinned_now, 32);
        let acts = st.handle_peer(u64::MAX, PeerMsg::DeleteNotice { array: "a".into() });
        assert!(acts.is_empty(), "memory only: {acts:?}");
        assert_eq!((st.pinned_now, st.resident_bytes()), (0, 0));
        st.handle_client(ClientMsg::ReleaseRead {
            array: "a".into(),
            iv: Interval::new(0, 32),
        });
        assert_eq!(st.pinned_now, 0, "the late release finds nothing to unpin");
    }

    #[test]
    fn delete_while_pinned_rejected() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 32, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 0,
            array: "a".into(),
            iv: Interval::new(0, 8),
        });
        let acts = st.handle_client(ClientMsg::Delete {
            req: 2,
            client: 0,
            array: "a".into(),
        });
        assert!(matches!(
            &acts[..],
            [Action::Reply {
                reply: Reply::Err {
                    error: StorageError::Immutability(_),
                    ..
                },
                ..
            }]
        ));
    }

    #[test]
    fn persist_writes_sealed_blocks_and_replies_when_done() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        write_all(&mut st, "a", Interval::new(32, 32), 2);
        let acts = st.handle_client(ClientMsg::Persist {
            req: 9,
            client: 0,
            array: "a".into(),
        });
        let writes = acts
            .iter()
            .filter(|a| matches!(a, Action::Io(IoCmd::Write { .. })))
            .count();
        assert_eq!(writes, 2);
        assert!(
            !acts.iter().any(|a| matches!(
                a,
                Action::Reply {
                    reply: Reply::Persisted { .. },
                    ..
                }
            )),
            "not persisted yet"
        );
        let acts = st.handle_io(IoReply::WriteDone {
            array: "a".into(),
            block: 0,
            bytes: 32,
        });
        assert!(acts.is_empty());
        let acts = st.handle_io(IoReply::WriteDone {
            array: "a".into(),
            block: 1,
            bytes: 32,
        });
        assert!(matches!(
            &acts[..],
            [Action::Reply {
                reply: Reply::Persisted { req: 9 },
                ..
            }]
        ));
        assert_eq!(st.stats().disk_write_bytes, 64);
    }

    #[test]
    fn persist_of_already_persisted_is_immediate() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 32, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        st.handle_client(ClientMsg::Persist {
            req: 1,
            client: 0,
            array: "a".into(),
        });
        st.handle_io(IoReply::WriteDone {
            array: "a".into(),
            block: 0,
            bytes: 32,
        });
        let acts = st.handle_client(ClientMsg::Persist {
            req: 2,
            client: 0,
            array: "a".into(),
        });
        assert!(matches!(
            &acts[..],
            [Action::Reply {
                reply: Reply::Persisted { req: 2 },
                ..
            }]
        ));
    }

    #[test]
    fn map_query_reports_states() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        st.handle_client(ClientMsg::WriteReq {
            req: 1,
            client: 0,
            array: "a".into(),
            iv: Interval::new(32, 16),
        });
        st.handle_client(ClientMsg::ReleaseWrite {
            req: 2,
            client: 0,
            array: "a".into(),
            iv: Interval::new(32, 16),
            data: Bytes::from(vec![1u8; 16]),
        });
        let acts = st.handle_client(ClientMsg::MapQuery { req: 3, client: 0 });
        match &acts[..] {
            [Action::Reply {
                reply: Reply::Map { entries, .. },
                ..
            }] => {
                assert_eq!(entries.len(), 2);
                assert_eq!(entries[0].state, BlockAvail::InMemory);
                assert_eq!(entries[1].state, BlockAvail::Partial);
            }
            other => panic!("expected map, got {other:?}"),
        }
    }

    #[test]
    fn io_error_fails_waiters() {
        // Retries disabled (see `cfg`): the first error is final and typed.
        let mut st = StorageState::new(
            cfg(0, 1, 1 << 20),
            vec![DiscoveredBlock {
                meta: ArrayMeta::new("m", 64, 64),
                block: 0,
            }],
        );
        st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 2,
            array: "m".into(),
            iv: Interval::new(0, 8),
        });
        let acts = st.handle_io(IoReply::Error {
            array: "m".into(),
            block: 0,
            message: "bad sector".into(),
        });
        assert!(matches!(
            &acts[..],
            [Action::Reply {
                client: 2,
                reply: Reply::Err {
                    req: 1,
                    error: StorageError::IoFailed(_)
                }
            }]
        ));
    }

    #[test]
    fn io_error_retries_then_succeeds() {
        let recovery = RecoveryPolicy {
            io_retry_max: 2,
            ..RecoveryPolicy::default()
        };
        let mut st = StorageState::new(
            NodeConfig {
                recovery,
                ..cfg(0, 1, 1 << 20)
            },
            vec![DiscoveredBlock {
                meta: ArrayMeta::new("m", 64, 64),
                block: 0,
            }],
        );
        st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 2,
            array: "m".into(),
            iv: Interval::new(0, 8),
        });
        // First error: absorbed, retry scheduled, nothing surfaces.
        let acts = st.handle_io(IoReply::Error {
            array: "m".into(),
            block: 0,
            message: "bad sector".into(),
        });
        assert!(acts.is_empty(), "error absorbed by retry: {acts:?}");
        assert!(st.needs_tick());
        // Backoff is 1 tick: the next tick re-issues the read.
        let acts = st.on_tick();
        assert!(
            matches!(
                &acts[..],
                [Action::Io(IoCmd::Read {
                    block: 0,
                    len: 64,
                    ..
                })]
            ),
            "expected re-issued read, got {acts:?}"
        );
        // The retried read succeeds and serves the parked waiter.
        let acts = st.handle_io(IoReply::ReadDone {
            array: "m".into(),
            block: 0,
            data: Bytes::from(vec![9u8; 64]),
        });
        assert!(
            acts.iter().any(|a| matches!(
                a,
                Action::Reply {
                    client: 2,
                    reply: Reply::ReadReady { req: 1, .. }
                }
            )),
            "waiter served after retry: {acts:?}"
        );
        assert!(!st.needs_tick());
    }

    #[test]
    fn io_error_exhausts_retries_into_iofailed() {
        let recovery = RecoveryPolicy {
            io_retry_max: 1,
            ..RecoveryPolicy::default()
        };
        let mut st = StorageState::new(
            NodeConfig {
                recovery,
                ..cfg(0, 1, 1 << 20)
            },
            vec![DiscoveredBlock {
                meta: ArrayMeta::new("m", 64, 64),
                block: 0,
            }],
        );
        st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 2,
            array: "m".into(),
            iv: Interval::new(0, 8),
        });
        assert!(st
            .handle_io(IoReply::Error {
                array: "m".into(),
                block: 0,
                message: "bad sector".into(),
            })
            .is_empty());
        let acts = st.on_tick();
        assert!(matches!(&acts[..], [Action::Io(IoCmd::Read { .. })]));
        // Second failure exhausts the single retry: typed, final error.
        let acts = st.handle_io(IoReply::Error {
            array: "m".into(),
            block: 0,
            message: "bad sector".into(),
        });
        match &acts[..] {
            [Action::Reply {
                client: 2,
                reply:
                    Reply::Err {
                        req: 1,
                        error: StorageError::IoFailed(m),
                    },
            }] => assert!(m.contains("2 attempts"), "attempt count in '{m}'"),
            other => panic!("expected IoFailed, got {other:?}"),
        }
    }

    #[test]
    fn stall_rounds_exhaust_into_timeout() {
        let recovery = RecoveryPolicy {
            stall_retry_max: Some(2),
            ..RecoveryPolicy::default()
        };
        let mut st = StorageState::new(
            NodeConfig {
                recovery,
                ..cfg(0, 2, 1 << 20)
            },
            vec![],
        );
        // Remote read: probe peer 1, which denies -> stall.
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 0,
            array: "ghost".into(),
            iv: Interval::new(0, 8),
        });
        let fetch_req = |acts: &[Action]| match acts {
            [Action::Peer {
                msg: PeerMsg::Fetch { req, .. },
                ..
            }] => *req,
            other => panic!("expected fetch, got {other:?}"),
        };
        let mut req = fetch_req(&acts);
        // Two full stall/retry rounds are allowed ...
        for _ in 0..2 {
            assert!(st.handle_peer(1, PeerMsg::FetchNotFound { req }).is_empty());
            assert!(st.has_stalled_fetches());
            let acts = st.on_tick();
            req = fetch_req(&acts);
        }
        // ... the third denial times the waiter out on the next tick.
        assert!(st.handle_peer(1, PeerMsg::FetchNotFound { req }).is_empty());
        let acts = st.on_tick();
        assert!(
            matches!(
                &acts[..],
                [Action::Reply {
                    client: 0,
                    reply: Reply::Err {
                        req: 1,
                        error: StorageError::Timeout(_)
                    }
                }]
            ),
            "expected timeout, got {acts:?}"
        );
    }

    #[test]
    fn fetch_deadline_moves_to_next_peer() {
        let recovery = RecoveryPolicy {
            fetch_deadline_ticks: Some(2),
            ..RecoveryPolicy::default()
        };
        let mut st = StorageState::new(
            NodeConfig {
                recovery,
                ..cfg(0, 3, 1 << 20)
            },
            vec![],
        );
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 0,
            array: "ghost".into(),
            iv: Interval::new(0, 8),
        });
        let first_peer = match &acts[..] {
            [Action::Peer {
                node,
                msg: PeerMsg::Fetch { .. },
            }] => *node,
            other => panic!("expected fetch, got {other:?}"),
        };
        assert!(st.needs_tick(), "deadline arms the tick loop");
        // The probed peer stays silent (crashed): after the deadline the
        // probe is abandoned and the other peer is asked.
        assert!(st.on_tick().is_empty(), "first tick only ages the probe");
        let acts = st.on_tick();
        match &acts[..] {
            [Action::Peer {
                node,
                msg: PeerMsg::Fetch { .. },
            }] => assert_ne!(*node, first_peer, "silent peer not re-probed"),
            other => panic!("expected fetch to next peer, got {other:?}"),
        }
    }

    #[test]
    fn spill_error_fails_pending_persist() {
        let mut st = state(1 << 20);
        create(&mut st, "p", 32, 32);
        write_all(&mut st, "p", Interval::new(0, 32), 3);
        let acts = st.handle_client(ClientMsg::Persist {
            req: 9,
            client: 1,
            array: "p".into(),
        });
        assert!(
            matches!(&acts[..], [Action::Io(IoCmd::Write { .. })]),
            "persist spills: {acts:?}"
        );
        let acts = st.handle_io(IoReply::Error {
            array: "p".into(),
            block: 0,
            message: "disk full".into(),
        });
        assert!(
            matches!(
                &acts[..],
                [Action::Reply {
                    client: 1,
                    reply: Reply::Err {
                        req: 9,
                        error: StorageError::Io(_)
                    }
                }]
            ),
            "persist fails instead of hanging: {acts:?}"
        );
    }

    #[test]
    fn register_then_read_maps_blocks_correctly() {
        let mut st = StorageState::new(cfg(0, 2, 1 << 20), vec![]);
        st.handle_client(ClientMsg::Register {
            meta: ArrayMeta::new("r", 64, 32),
        });
        // Read of second block probes with an offset inside that block.
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 0,
            array: "r".into(),
            iv: Interval::new(40, 8),
        });
        match &acts[..] {
            [Action::Peer {
                msg: PeerMsg::Fetch { offset, .. },
                ..
            }] => assert_eq!(*offset / 32, 1, "fetch addressed inside block 1"),
            other => panic!("expected fetch, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_handshake_requires_all_byes() {
        let mut st = StorageState::new(cfg(0, 3, 1 << 20), vec![]);
        assert!(!st.ready_to_exit());
        let acts = st.handle_client(ClientMsg::Shutdown);
        let byes = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Peer {
                        msg: PeerMsg::Bye,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(byes, 2, "bye broadcast to both peers");
        assert!(!st.ready_to_exit(), "waits for peers");
        st.handle_peer(1, PeerMsg::Bye);
        assert!(!st.ready_to_exit());
        st.handle_peer(2, PeerMsg::Bye);
        assert!(st.ready_to_exit());
        // Idempotent quiescence.
        assert!(st.force_local_done().is_empty());
    }

    #[test]
    fn single_node_shutdown_is_immediate() {
        let mut st = state(1 << 20);
        assert!(!st.ready_to_exit());
        let acts = st.handle_client(ClientMsg::Shutdown);
        assert!(acts.is_empty());
        assert!(st.ready_to_exit());
    }

    impl StorageState {
        /// Test helper: register geometry as a non-home array.
        fn register_for_test(&mut self, name: &str, len: u64, bs: u64) {
            self.handle_client(ClientMsg::Register {
                meta: ArrayMeta::new(name, len, bs),
            });
        }
    }
}

#[cfg(test)]
mod evict_tests {
    use super::*;

    #[test]
    fn explicit_evict_drops_disk_backed_and_spills_dirty() {
        let mut st = StorageState::new(
            NodeConfig {
                node: 0,
                nnodes: 1,
                memory_budget: 1 << 20,
                seed: 1,
                recovery: RecoveryPolicy::default(),
            },
            vec![],
        );
        st.handle_client(ClientMsg::Create {
            req: 0,
            client: 0,
            meta: ArrayMeta::new("a", 64, 32),
        });
        for b in 0..2u64 {
            st.handle_client(ClientMsg::WriteReq {
                req: 1,
                client: 0,
                array: "a".into(),
                iv: Interval::new(b * 32, 32),
            });
            st.handle_client(ClientMsg::ReleaseWrite {
                req: 2,
                client: 0,
                array: "a".into(),
                iv: Interval::new(b * 32, 32),
                data: Bytes::from(vec![b as u8; 32]),
            });
        }
        // Persist block 0 so it is disk-backed; block 1 stays dirty.
        st.handle_client(ClientMsg::Persist {
            req: 3,
            client: 0,
            array: "a".into(),
        });
        st.handle_io(IoReply::WriteDone {
            array: "a".into(),
            block: 0,
            bytes: 32,
        });
        st.handle_io(IoReply::WriteDone {
            array: "a".into(),
            block: 1,
            bytes: 32,
        });
        assert_eq!(st.resident_bytes(), 64);
        let acts = st.handle_client(ClientMsg::Evict { array: "a".into() });
        // Both blocks are now on disk, so eviction drops both immediately.
        assert!(acts.is_empty(), "{acts:?}");
        assert_eq!(st.resident_bytes(), 0);
        assert_eq!(st.stats().evictions, 2);
        // Reads go back through the I/O filter.
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: 5,
            client: 0,
            array: "a".into(),
            iv: Interval::new(0, 32),
        });
        assert!(matches!(
            &acts[..],
            [Action::Io(IoCmd::Read { block: 0, .. })]
        ));
    }

    #[test]
    fn explicit_evict_spills_unspilled_blocks_first() {
        let mut st = StorageState::new(
            NodeConfig {
                node: 0,
                nnodes: 1,
                memory_budget: 1 << 20,
                seed: 1,
                recovery: RecoveryPolicy::default(),
            },
            vec![],
        );
        st.handle_client(ClientMsg::Create {
            req: 0,
            client: 0,
            meta: ArrayMeta::new("a", 32, 32),
        });
        st.handle_client(ClientMsg::WriteReq {
            req: 1,
            client: 0,
            array: "a".into(),
            iv: Interval::new(0, 32),
        });
        st.handle_client(ClientMsg::ReleaseWrite {
            req: 2,
            client: 0,
            array: "a".into(),
            iv: Interval::new(0, 32),
            data: Bytes::from(vec![7u8; 32]),
        });
        let acts = st.handle_client(ClientMsg::Evict { array: "a".into() });
        assert!(
            matches!(&acts[..], [Action::Io(IoCmd::Write { block: 0, .. })]),
            "dirty block must spill: {acts:?}"
        );
        assert_eq!(st.resident_bytes(), 32, "freed only after the spill lands");
        st.handle_io(IoReply::WriteDone {
            array: "a".into(),
            block: 0,
            bytes: 32,
        });
        assert_eq!(st.resident_bytes(), 0);
    }

    #[test]
    fn evict_skips_pinned_blocks() {
        let mut st = StorageState::new(
            NodeConfig {
                node: 0,
                nnodes: 1,
                memory_budget: 1 << 20,
                seed: 1,
                recovery: RecoveryPolicy::default(),
            },
            vec![],
        );
        st.handle_client(ClientMsg::Create {
            req: 0,
            client: 0,
            meta: ArrayMeta::new("a", 32, 32),
        });
        st.handle_client(ClientMsg::WriteReq {
            req: 1,
            client: 0,
            array: "a".into(),
            iv: Interval::new(0, 32),
        });
        st.handle_client(ClientMsg::ReleaseWrite {
            req: 2,
            client: 0,
            array: "a".into(),
            iv: Interval::new(0, 32),
            data: Bytes::from(vec![7u8; 32]),
        });
        st.handle_client(ClientMsg::ReadReq {
            req: 3,
            client: 0,
            array: "a".into(),
            iv: Interval::new(0, 32),
        });
        let acts = st.handle_client(ClientMsg::Evict { array: "a".into() });
        assert!(acts.is_empty(), "pinned block untouched: {acts:?}");
        assert_eq!(st.resident_bytes(), 32);
    }
}

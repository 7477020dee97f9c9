//! The storage filter's protocol state machine.
//!
//! [`StorageState`] is deliberately *synchronous and I/O-free*: every message
//! handler consumes one message and returns the list of [`Action`]s the
//! surrounding filter must perform (reply to a client, message a peer, issue
//! an I/O command). This makes the entire protocol — request logging,
//! write-once enforcement, peer probing, LRU reclamation — unit-testable
//! without threads or a filesystem, and lets `dooc-check`'s model checker
//! explore the real node rather than a copy of it.
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
//!
//! One concern per file, each transition written once:
//! * this file — the node's state and its four entry points
//!   ([`StorageState::handle_client`], [`StorageState::handle_peer`],
//!   [`StorageState::handle_io`], [`StorageState::on_tick`]), array
//!   creation, the availability map, array deletion, and what a failed
//!   I/O command answers (the I/O filter has already retried a read, so
//!   its error is final);
//! * `grants` — the block's one write, read pins, logged reads;
//! * `residency` — what a block costs in memory (`BlockMem`), the budget,
//!   the LRU with its cold region for demoted blocks, and the only two ways
//!   a block leaves memory: `evict_block` and `spill_block`;
//! * `fetch` — peer lookup: serving and issuing probes, stalls (the one
//!   job of the `on_tick` clock), and resolving placeholder geometry.

mod fetch;
mod grants;
mod residency;
#[cfg(test)]
mod testkit;

use crate::meta::ArrayMeta;
use crate::proto::{ClientMsg, IoCmd, IoReply, NodeStats, PeerMsg, Reply};
use crate::StorageError;
use bytes::Bytes;
use dooc_obs::metrics::{counter, Counter};
use fetch::FetchState;
use rand::rngs::StdRng;
use rand::SeedableRng;
use residency::{BlockMem, LruKey};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::OnceLock;

/// Storage-layer metric handles, resolved once. Forced in
/// [`StorageState::new`] so every counter appears (zeroed) in metric dumps
/// even before its first event.
pub(crate) struct StorageObs {
    bytes_loaded: &'static Counter,
    blocks_loaded: &'static Counter,
    blocks_evicted: &'static Counter,
    blocks_spilled: &'static Counter,
    blocks_sealed: &'static Counter,
    blocks_demoted: &'static Counter,
    read_hits: &'static Counter,
    read_misses: &'static Counter,
    /// Read retries, counted by the I/O filter.
    pub(crate) io_retries: &'static Counter,
    fetch_retries: &'static Counter,
    dead_bytes_dropped: &'static Counter,
}

pub(crate) fn storage_obs() -> &'static StorageObs {
    static O: OnceLock<StorageObs> = OnceLock::new();
    O.get_or_init(|| StorageObs {
        bytes_loaded: counter("storage.bytes_loaded"),
        blocks_loaded: counter("storage.blocks_loaded"),
        blocks_evicted: counter("storage.blocks_evicted"),
        blocks_spilled: counter("storage.blocks_spilled"),
        blocks_sealed: counter("storage.blocks_sealed"),
        blocks_demoted: counter("storage.blocks_demoted"),
        read_hits: counter("storage.read_hits"),
        read_misses: counter("storage.read_misses"),
        io_retries: counter("storage.io_retries"),
        fetch_retries: counter("storage.fetch_retries"),
        dead_bytes_dropped: counter("storage.dead_bytes_dropped"),
    })
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

/// A local read waiting for data ("logged" request).
#[derive(Clone, Hash)]
struct ReadWaiter {
    req: u64,
    client: u64,
    /// Offset within the block (global while the geometry is a placeholder).
    off: u64,
    len: u64,
}

/// Deliberately seeded invariant violations for the negative tests of
/// dooc-check's protocol model checker. Each flag disables one guard the
/// positive tests prove necessary; the checker must then find an
/// interleaving that turns the missing guard into an observable failure.
/// A node starts with every flag off and only
/// [`StorageState::set_seeded_bugs`] turns one on; what a real node pays for
/// them is two `bool` reads, one on the evict path and one on the spill path.
#[derive(Debug, Default, Clone, Copy)]
pub struct SeededBugs {
    /// Eviction ignores `pins`: blocks with live read guards get dropped.
    pub evict_ignores_pins: bool,
    /// Eviction (reclaim or `Evict`) drops not-yet-spilled blocks without
    /// writing them first, losing the only copy of the data.
    pub evict_skips_spill: bool,
}

#[derive(Clone, Default, Hash)]
struct BlockInfo {
    /// The sealed bytes, while resident.
    mem: Option<BlockMem>,
    /// A full sealed copy exists in the local scratch directory.
    on_disk: bool,
    /// An I/O read for this block is in flight.
    loading: bool,
    /// An I/O write (spill or persist) for this block is in flight.
    spilling: bool,
    /// Reclaim memory as soon as the in-flight spill completes.
    evict_after_spill: bool,
    /// Read pins; pinned blocks are not reclaimable.
    pins: u64,
    /// Where the block is filed in the LRU index, if it is.
    lru: Option<LruKey>,
    /// Logged local reads waiting for the data.
    read_waiters: Vec<ReadWaiter>,
    /// Peer fetches waiting for this block to seal (req, from_node).
    peer_waiters: Vec<(u64, u64)>,
    /// Outstanding remote fetch, if this node is trying to pull the block.
    fetch: Option<FetchState>,
}

impl BlockInfo {
    /// Lends `[off, off+len)` of the sealed resident bytes, if any, with the
    /// block's checked mark.
    fn slice_resident(&self, off: u64, len: u64) -> Option<(Bytes, bool)> {
        let mem = self.mem.as_ref()?;
        Some((
            mem.data.slice(off as usize..(off + len) as usize),
            mem.checked,
        ))
    }
}

#[derive(Clone)]
struct ArrayInfo {
    meta: ArrayMeta,
    /// Created or discovered on this node (its "home"): reads of unwritten
    /// intervals may be logged here instead of erroring.
    home: bool,
    blocks: HashMap<u64, BlockInfo>,
    /// Pending persist: (req, client, blocks whose disk write is awaited).
    persist: Option<(u64, u64, HashSet<u64>)>,
}

impl ArrayInfo {
    fn new(meta: ArrayMeta, home: bool) -> Self {
        Self {
            meta,
            home,
            blocks: HashMap::new(),
            persist: None,
        }
    }

    /// Unknown geometry: a single huge block, so waiters keep *global*
    /// offsets until a peer's answer or a `Register` brings the real one.
    fn placeholder(name: &str) -> Self {
        Self::new(ArrayMeta::new(name, u64::MAX, u64::MAX), false)
    }

    fn is_placeholder(&self) -> bool {
        self.meta.len == u64::MAX
    }

    /// Every block of the array is here, fully sealed and in memory.
    fn resident(&self) -> bool {
        !self.is_placeholder()
            && self.blocks.len() as u64 == self.meta.nblocks()
            && self.blocks.values().all(|b| b.mem.is_some())
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
#[derive(Clone)]
pub struct StorageState {
    cfg: NodeConfig,
    arrays: HashMap<String, ArrayInfo>,
    /// Tombstones of deleted arrays: a deleted name cannot come back.
    deleted: HashSet<String>,
    /// LRU index: `(warm, clock)` -> (array, block). Cold (demoted) blocks
    /// sort before every warm one, each region oldest first; keys are
    /// unique.
    lru: BTreeMap<LruKey, (String, u64)>,
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
    /// This node's clients are quiescent (local Shutdown consumed).
    local_done: bool,
    /// Number of peers that sent a `Bye`.
    byes: u64,
    /// Seeded invariant violations for the model checker's negative tests.
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
            deleted: HashSet::new(),
            lru: BTreeMap::new(),
            clock: 0,
            fetches: HashMap::new(),
            next_fetch_req: 0,
            resident: 0,
            pinned_now: 0,
            stats: NodeStats::default(),
            rng,
            stalled: Vec::new(),
            local_done: false,
            byes: 0,
            seeded_bugs: SeededBugs::default(),
        };
        for d in discovered {
            let entry = st
                .arrays
                .entry(d.meta.name.clone())
                .or_insert_with(|| ArrayInfo::new(d.meta.clone(), true));
            entry.blocks.entry(d.block).or_default().on_disk = true;
        }
        st.stats.budget_bytes = st.cfg.memory_budget;
        st
    }

    /// Plants deliberate bugs for the model checker's negative tests.
    #[doc(hidden)]
    pub fn set_seeded_bugs(&mut self, bugs: SeededBugs) {
        self.seeded_bugs = bugs;
    }

    fn bug(&self) -> SeededBugs {
        self.seeded_bugs
    }

    /// Inspection for checkers: `(pins, resident_in_memory, on_disk)` for a
    /// block, if known. Checkers assert residency invariants (e.g. "evict
    /// never fires under a live guard") against this directly.
    pub fn debug_block(&self, array: &str, block: u64) -> Option<(u64, bool, bool)> {
        let info = self.arrays.get(array)?.blocks.get(&block)?;
        Some((info.pins, info.mem.is_some(), info.on_disk))
    }

    /// Fingerprint over every field of the node, maps hashed in key order:
    /// two nodes with equal fingerprints answer every future message alike.
    /// The model checker deduplicates states by it.
    pub fn fingerprint(&self) -> u64 {
        use rand::RngCore;
        use std::hash::{Hash, Hasher};
        fn sorted<K: Ord, V>(m: &HashMap<K, V>) -> Vec<(&K, &V)> {
            let mut v: Vec<_> = m.iter().collect();
            v.sort_unstable_by(|a, b| a.0.cmp(b.0));
            v
        }
        // Destructured so a new field cannot be left out silently; `cfg`
        // and `seeded_bugs` are fixed for the node's life.
        let Self {
            cfg: _,
            arrays,
            deleted,
            lru,
            clock,
            fetches,
            next_fetch_req,
            resident,
            pinned_now,
            stats,
            rng,
            stalled,
            local_done,
            byes,
            seeded_bugs: _,
        } = self;
        let mut h = std::hash::DefaultHasher::new();
        for (name, a) in sorted(arrays) {
            let ArrayInfo {
                meta,
                home,
                blocks,
                persist,
            } = a;
            (name, meta, home).hash(&mut h);
            sorted(blocks).hash(&mut h);
            let persist = persist.as_ref().map(|(req, client, awaited)| {
                let mut awaited: Vec<_> = awaited.iter().collect();
                awaited.sort_unstable();
                (req, client, awaited)
            });
            persist.hash(&mut h);
        }
        let mut deleted: Vec<_> = deleted.iter().collect();
        deleted.sort_unstable();
        deleted.hash(&mut h);
        (lru, clock, next_fetch_req, resident, pinned_now).hash(&mut h);
        (stats, sorted(fetches), rng.clone().next_u64()).hash(&mut h);
        (stalled, local_done, byes).hash(&mut h);
        h.finish()
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

    /// Is the ledger clean? True when no block is pinned, no reader or peer
    /// waits, no load, spill, persist or fetch is in flight, the
    /// node has not shut down, and every sealed byte is on the local disk —
    /// the state a node returns to once every request it took has been
    /// answered and released.
    pub fn is_quiescent(&self) -> bool {
        if !self.fetches.is_empty() || !self.stalled.is_empty() || self.local_done {
            return false;
        }
        self.arrays.values().all(|a| {
            a.persist.is_none()
                && a.blocks.values().all(|i| {
                    i.pins == 0
                        && !i.loading
                        && !i.spilling
                        && i.read_waiters.is_empty()
                        && i.peer_waiters.is_empty()
                        && i.fetch.is_none()
                        && (i.mem.is_none() || i.on_disk)
                })
        })
    }

    /// Does the state machine need periodic [`Self::on_tick`] calls right
    /// now? True while fetches are stalled.
    pub fn needs_tick(&self) -> bool {
        !self.stalled.is_empty()
    }

    /// One step of the stall clock: retries every stalled fetch with a
    /// fresh random probe cycle. Called periodically by the storage filter
    /// while [`Self::needs_tick`].
    pub fn on_tick(&mut self) -> Vec<Action> {
        let mut out = Vec::new();
        self.retry_stalled(&mut out);
        out
    }

    // -- client messages ----------------------------------------------------

    /// Handles one client request.
    pub fn handle_client(&mut self, msg: ClientMsg) -> Vec<Action> {
        let mut out = Vec::new();
        match msg {
            ClientMsg::Create { req, client, meta } => self.create(req, client, meta, &mut out),
            ClientMsg::Register { meta } => self.register(meta, &mut out),
            ClientMsg::ReadReq {
                req,
                client,
                array,
                iv,
            } => self.client_read(req, client, array, iv, &mut out),
            ClientMsg::Write {
                req,
                client,
                array,
                iv,
                data,
            } => self.write(req, client, array, iv, data, &mut out),
            ClientMsg::ReleaseRead { array, iv, checked } => self.release_read(array, iv, checked),
            ClientMsg::Prefetch { array } => self.prefetch(array, &mut out),
            ClientMsg::Persist { req, client, array } => self.persist(req, client, array, &mut out),
            ClientMsg::Delete { req, client, array } => self.delete(req, client, array, &mut out),
            ClientMsg::Resident { req, client } => {
                let arrays = self
                    .arrays
                    .iter()
                    .filter(|(_, a)| a.resident())
                    .map(|(name, _)| name.clone())
                    .collect();
                out.push(Action::Reply {
                    client,
                    reply: Reply::Resident { req, arrays },
                });
            }
            ClientMsg::StatsQuery { req, client } => {
                let stats = self.stats();
                out.push(Action::Reply {
                    client,
                    reply: Reply::Stats { req, stats },
                });
            }
            ClientMsg::Evict { array } => self.explicit_evict(&array, &mut out),
            ClientMsg::Demote { array } => self.demote(&array),
            ClientMsg::Shutdown => {
                if !self.local_done {
                    self.local_done = true;
                    for n in (0..self.cfg.nnodes).filter(|&n| n != self.cfg.node) {
                        out.push(Action::Peer {
                            node: n,
                            msg: PeerMsg::Bye,
                        });
                    }
                }
            }
        }
        out
    }

    fn create(&mut self, req: u64, client: u64, meta: ArrayMeta, out: &mut Vec<Action>) {
        // A geometry hint (Register) may already sit here; creation upgrades
        // it to home status as long as no data exists here and the geometry
        // agrees.
        let hint_only = self
            .arrays
            .get(&meta.name)
            .is_some_and(|a| !a.home && a.blocks.values().all(BlockInfo::unwritten));
        if let Some(a) = self.arrays.get_mut(&meta.name).filter(|_| hint_only) {
            if a.is_placeholder() {
                // Reads parked under the unknown geometry move to their
                // blocks, where they wait for the local writes.
                a.home = true;
                let name = meta.name.clone();
                self.resolve_placeholder(&name, meta, 0, None, out);
            } else if a.meta.len != meta.len || a.meta.block_size != meta.block_size {
                let msg = format!(
                    "create of '{}' conflicts with registered geometry",
                    meta.name
                );
                return Self::err(client, req, StorageError::Protocol(msg), out);
            } else {
                a.home = true;
            }
        } else if self.arrays.contains_key(&meta.name) || self.deleted.contains(&meta.name) {
            return Self::err(client, req, StorageError::AlreadyExists(meta.name), out);
        } else {
            self.arrays
                .insert(meta.name.clone(), ArrayInfo::new(meta, true));
        }
        out.push(Action::Reply {
            client,
            reply: Reply::Created { req },
        });
    }

    /// Geometry hint: adopted only if the array is unknown or placeholder.
    fn register(&mut self, meta: ArrayMeta, out: &mut Vec<Action>) {
        match self.arrays.get(&meta.name) {
            Some(a) if a.is_placeholder() => {
                let name = meta.name.clone();
                self.resolve_placeholder(&name, meta, 0, None, out);
            }
            Some(_) => {}
            None if self.deleted.contains(&meta.name) => {}
            None => {
                self.arrays
                    .insert(meta.name.clone(), ArrayInfo::new(meta, false));
            }
        }
    }

    fn err(client: u64, req: u64, error: StorageError, out: &mut Vec<Action>) {
        out.push(Action::Reply {
            client,
            reply: Reply::Err { req, error },
        });
    }

    /// The array's info, inserting placeholder geometry for a name never
    /// seen (a read or prefetch of data that lives elsewhere).
    fn array_or_placeholder<'a>(
        arrays: &'a mut HashMap<String, ArrayInfo>,
        array: &str,
    ) -> Option<&'a mut ArrayInfo> {
        if !arrays.contains_key(array) {
            arrays.insert(array.to_string(), ArrayInfo::placeholder(array));
        }
        arrays.get_mut(array)
    }

    fn delete(&mut self, req: u64, client: u64, array: String, out: &mut Vec<Action>) {
        let Some(ainfo) = self.arrays.get(&array) else {
            return Self::err(client, req, StorageError::UnknownArray(array), out);
        };
        if ainfo.blocks.values().any(|b| b.pins > 0) {
            let m = format!("delete of '{array}' while intervals are held");
            return Self::err(client, req, StorageError::Immutability(m), out);
        }
        self.drop_array_local(&array, out);
        for n in (0..self.cfg.nnodes).filter(|&n| n != self.cfg.node) {
            out.push(Action::Peer {
                node: n,
                msg: PeerMsg::DeleteNotice {
                    array: array.clone(),
                },
            });
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
        self.deleted.insert(array.to_string());
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
            self.lru_remove(info.lru);
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

    // -- peer messages and I/O completions ----------------------------------

    /// Handles one peer message. Messages that need an answer carry their
    /// reply address (`PeerMsg::Fetch::from_node`).
    pub fn handle_peer(&mut self, msg: PeerMsg) -> Vec<Action> {
        let mut out = Vec::new();
        match msg {
            PeerMsg::Fetch {
                req,
                from_node,
                array,
                offset,
            } => self.serve_fetch(req, from_node, array, offset, &mut out),
            PeerMsg::FetchFound {
                req,
                len,
                block_size,
                block,
                data,
            } => self.fetch_found(req, len, block_size, block, data, &mut out),
            PeerMsg::FetchNotFound { req } => self.fetch_setback(req, &mut out),
            PeerMsg::Bye => self.byes += 1,
            PeerMsg::DeleteNotice { array } => self.drop_array_local(&array, &mut out),
        }
        out
    }

    /// Handles one I/O filter completion.
    pub fn handle_io(&mut self, reply: IoReply) -> Vec<Action> {
        let mut out = Vec::new();
        match reply {
            IoReply::ReadDone { array, block, data } => {
                self.stats.disk_read_bytes += data.len() as u64;
                storage_obs().bytes_loaded.add(data.len() as u64);
                storage_obs().blocks_loaded.inc();
                self.install_sealed(&array, block, data, &mut out);
            }
            IoReply::WriteDone {
                array,
                block,
                bytes,
            } => self.spill_done(&array, block, bytes, &mut out),
            IoReply::Error {
                array,
                block,
                message,
            } => self.io_error(array, block, message, &mut out),
        }
        out
    }

    /// The I/O filter's final answer that a command failed. A failed load
    /// fails its waiters with [`StorageError::IoFailed`] and its peers'
    /// fetches with `FetchNotFound`. A failed write (spill or persist) is
    /// not retried — the block is still resident, so nothing was lost —
    /// but a persist awaiting the block fails instead of hanging.
    fn io_error(&mut self, array: String, block: u64, message: String, out: &mut Vec<Action>) {
        let Some(ainfo) = self.arrays.get_mut(&array) else {
            return; // deleted while in flight (also covers DeleteFiles errors)
        };
        let Some(info) = ainfo.blocks.get_mut(&block) else {
            return;
        };
        if info.loading {
            info.loading = false;
            for w in info.read_waiters.drain(..) {
                let m = format!("{array}@{block}: {message}");
                Self::err(w.client, w.req, StorageError::IoFailed(m), out);
            }
            for (req, node) in info.peer_waiters.drain(..) {
                out.push(Action::Peer {
                    node,
                    msg: PeerMsg::FetchNotFound { req },
                });
            }
            return;
        }
        info.spilling = false;
        info.evict_after_spill = false;
        if let Some((req, client, awaited)) = ainfo.persist.take() {
            if awaited.contains(&block) {
                let m = format!("persist of {array}@{block}: {message}");
                Self::err(client, req, StorageError::Io(m), out);
            } else {
                ainfo.persist = Some((req, client, awaited));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;
    use crate::meta::Interval;

    #[test]
    fn duplicate_create_rejected() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 32);
        let acts = st.handle_client(ClientMsg::Create {
            req: 9,
            client: 0,
            meta: ArrayMeta::new("a", 64, 32),
        });
        assert!(matches!(error(&acts), StorageError::AlreadyExists(_)));
    }

    #[test]
    fn resident_lists_exactly_the_fully_resident_arrays() {
        let mut st = StorageState::new(cfg(0, 2, 1 << 20), vec![]);
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // A partial write: nothing written, then one block of two.
        create(&mut st, "a", 64, 32);
        assert_eq!(resident_of(&mut st), names(&[]));
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        assert_eq!(resident_of(&mut st), names(&[]));
        // Written: every block sealed and in memory.
        write_all(&mut st, "a", Interval::new(32, 32), 1);
        create(&mut st, "b", 32, 32);
        write_all(&mut st, "b", Interval::new(0, 32), 2);
        assert_eq!(resident_of(&mut st), names(&["a", "b"]));
        // Spilled and evicted: on disk only.
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
        assert_eq!(resident_of(&mut st), names(&["a", "b"]), "spilled, kept");
        st.handle_client(ClientMsg::Evict { array: "b".into() });
        assert_eq!(resident_of(&mut st), names(&["a"]));
        // Reloaded: listed again once the load lands, not while it is out.
        let acts = read(&mut st, 7, 0, "b", Interval::new(0, 32));
        let [Action::Io(IoCmd::Read { array, block, .. })] = &acts[..] else {
            panic!("expected one load: {acts:?}");
        };
        let (array, block) = (array.clone(), *block);
        assert_eq!(resident_of(&mut st), names(&["a"]), "load in flight");
        let acts = st.handle_io(IoReply::ReadDone {
            array,
            block,
            data: Bytes::from(vec![2; 32]),
        });
        assert_eq!(served(&acts), vec![7]);
        unpin(&mut st, "b", Interval::new(0, 32));
        assert_eq!(resident_of(&mut st), names(&["a", "b"]));
        // Deleted (the peer is told, too).
        delete(&mut st, "a");
        assert_eq!(resident_of(&mut st), names(&["b"]));
        // A peer-hinted placeholder: a read of a name this node never saw
        // parks on unknown geometry while the peers are asked for it.
        let acts = read(&mut st, 8, 0, "elsewhere", Interval::new(0, 8));
        assert!(
            acts.iter().any(|a| matches!(a, Action::Peer { .. })),
            "{acts:?}"
        );
        assert!(st.arrays["elsewhere"].is_placeholder());
        assert_eq!(resident_of(&mut st), names(&["b"]));
    }

    #[test]
    fn delete_broadcasts_and_tombstones() {
        let mut st = StorageState::new(cfg(0, 3, 1 << 20), vec![]);
        create(&mut st, "a", 32, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        let acts = delete(&mut st, "a");
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
        assert!(matches!(
            acts.last(),
            Some(Action::Reply {
                reply: Reply::Deleted { .. },
                ..
            })
        ));
        assert_eq!(st.resident_bytes(), 0);
        // Subsequent access errors with Deleted.
        let acts = read(&mut st, 2, 0, "a", Interval::new(0, 8));
        assert!(matches!(error(&acts), StorageError::Deleted(_)));
    }

    #[test]
    fn delete_drops_unspilled_bytes_and_removes_files_of_a_spill_in_flight() {
        let mut st = state(64);
        // "mem" never leaves memory: deleting it touches no file.
        create(&mut st, "mem", 32, 32);
        write_all(&mut st, "mem", Interval::new(0, 32), 1);
        let acts = delete(&mut st, "mem");
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
        let acts = delete(&mut st, "spill");
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
        let done = IoReply::WriteDone {
            array: "spill".into(),
            block: 0,
            bytes: 32,
        };
        assert!(st.handle_io(done).is_empty());
        assert_eq!(st.resident_bytes(), 0);
        // Tombstones: the names cannot come back, by creation or by hint.
        for name in ["mem", "spill"] {
            let acts = st.handle_client(ClientMsg::Create {
                req: 3,
                client: 0,
                meta: ArrayMeta::new(name, 32, 32),
            });
            assert!(matches!(error(&acts), StorageError::AlreadyExists(_)));
            st.handle_client(ClientMsg::Register {
                meta: ArrayMeta::new(name, 32, 32),
            });
        }
        assert!(st.arrays.is_empty());
        assert!(resident_of(&mut st).is_empty());
        assert_eq!(st.deleted, HashSet::from(["mem".into(), "spill".into()]));
    }

    #[test]
    fn delete_notice_under_a_live_pin_settles_the_pinned_ledger() {
        // A reader's release travels on the client stream, the notice on the
        // peer stream: the notice can overtake the release.
        let mut st = StorageState::new(cfg(1, 2, 1 << 20), vec![]);
        create(&mut st, "a", 32, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        read(&mut st, 1, 0, "a", Interval::new(0, 32));
        assert_eq!(st.pinned_now, 32);
        let acts = st.handle_peer(PeerMsg::DeleteNotice { array: "a".into() });
        assert!(acts.is_empty(), "memory only: {acts:?}");
        assert_eq!((st.pinned_now, st.resident_bytes()), (0, 0));
        unpin(&mut st, "a", Interval::new(0, 32));
        assert_eq!(st.pinned_now, 0, "the late release finds nothing to unpin");
    }

    #[test]
    fn delete_while_pinned_rejected() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 32, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        read(&mut st, 1, 0, "a", Interval::new(0, 8));
        let acts = delete(&mut st, "a");
        assert!(matches!(error(&acts), StorageError::Immutability(_)));
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
        st.handle_peer(PeerMsg::Bye);
        assert!(!st.ready_to_exit());
        st.handle_peer(PeerMsg::Bye);
        assert!(st.ready_to_exit());
        // Idempotent quiescence.
        assert!(st.force_local_done().is_empty());
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
    fn single_node_shutdown_is_immediate() {
        let mut st = state(1 << 20);
        assert!(!st.ready_to_exit());
        assert!(st.handle_client(ClientMsg::Shutdown).is_empty());
        assert!(st.ready_to_exit());
    }
}

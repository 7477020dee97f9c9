//! Explicit-state model checker for the storage request/release protocol.
//!
//! The storage node (`dooc-storage::node`) is a single-threaded server, so
//! its behaviour is fully described by the *interleaving* of the messages it
//! processes: write requests, write releases (seals), read requests, read
//! releases, reclaim (LRU eviction) and disk-load completions. This module
//! builds a bounded abstraction of that protocol — [`NCLIENTS`] clients and
//! [`NBLOCKS`] blocks, each client running a short fixed script — and
//! explores **every** reachable interleaving by breadth-first search over
//! the (hashable, finite) state space, checking the protocol invariants on
//! every state:
//!
//! 1. pin refcounts are never negative, and are balanced (zero) at
//!    quiescence;
//! 2. no read is ever served from a block whose write has not been released
//!    (sealed);
//! 3. at most one writer holds a grant per block;
//! 4. reclaim never evicts a pinned block (`pins > 0` implies resident);
//! 5. every blocked read is eventually answered once its producer releases
//!    (no client is still parked at quiescence);
//! 6. the incremental map protocol (`MapSince`/`MapDelta`) is monotonic: a
//!    delta's version is never below the client's cursor;
//! 7. deltas compose: folding every delta a client received always yields
//!    exactly the node's current availability map at the moment of the last
//!    query — no changed block is ever omitted;
//! 8. every blocking wait is paired with a timeout transition: when the
//!    event a parked client waits for *fails* (the model's `LoadError`),
//!    the node must arm a recovery transition (`RetryLoad` — the real
//!    system's backoff tick) that can still end the wait. A failed load
//!    with nothing armed is a latent hang.
//!
//! Because the healthy model has no violations, [`BugConfig`] can seed
//! specific protocol bugs (skip a release, grant two writers, evict a
//! pinned block, forget to flush parked waiters, serve an unsealed read,
//! forget a version bump on an availability change, drop the timeout
//! transition after a failed load) to prove the checker finds them — each
//! returns a [`Violation`] carrying the full action trace from the initial
//! state.

use std::collections::{HashMap, VecDeque};

/// Number of clients in the bounded model.
pub const NCLIENTS: usize = 2;
/// Number of blocks in the bounded model.
pub const NBLOCKS: usize = 2;

/// One protocol operation in a client's script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `WriteReq`: ask for the write grant on a block.
    StartWrite(usize),
    /// `ReleaseWrite`: ship the data and seal the block.
    SealWrite(usize),
    /// `ReadReq`: ask for a pinned read of a block.
    StartRead(usize),
    /// `ReleaseRead`: unpin the block.
    ReleaseRead(usize),
    /// `MapSince(cursor)`: ask for the availability changes since the
    /// client's version cursor and fold the delta into a local mirror.
    MapSince,
}

/// Deliberately seeded protocol bugs, for negative tests of the checker.
/// All `false` models the protocol as implemented.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BugConfig {
    /// Clients advance past `ReleaseRead` without unpinning — breaks
    /// refcount balance at quiescence.
    pub skip_release: bool,
    /// A second `WriteReq` on a block being written is granted instead of
    /// parked — breaks the single-writer invariant.
    pub allow_double_grant: bool,
    /// Reclaim may evict a block with a nonzero pin count — breaks the
    /// pinned-blocks-stay-resident invariant.
    pub evict_pinned: bool,
    /// Seal and load events do not re-serve parked waiters (the
    /// `flush_waiters` call is skipped) — leaves readers blocked forever.
    pub skip_flush_waiters: bool,
    /// A read of a resident-but-unsealed block is served immediately —
    /// exposes bytes of an unreleased write.
    pub serve_unsealed_read: bool,
    /// An availability change detected during `MapSince` does not bump the
    /// map version — the changed block is left out of the delta and the
    /// client's mirror silently diverges from the node's map.
    pub skip_version_bump: bool,
    /// A failed load does not arm the retry/timeout transition (the real
    /// system's `io_retry` backoff entry is forgotten) — the parked reader's
    /// blocking wait can never end: a latent hang.
    pub no_timeout_transition: bool,
}

/// Block availability as reported by the map protocol (the model's
/// `BlockAvail`), derived from the block's protocol state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Avail {
    /// Created, nothing written.
    Unwritten,
    /// A write grant is outstanding (the block is charged to the budget).
    Partial,
    /// Sealed and resident in memory.
    InMemory,
    /// Sealed and spilled to disk.
    OnDisk,
}

/// One block of the abstract storage node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
struct Block {
    /// Outstanding write grants (the invariant says at most one).
    writers: u8,
    /// Write released; contents immutable from here on.
    sealed: bool,
    /// A copy lives in the node's memory.
    resident: bool,
    /// A copy lives on the node's scratch disk.
    on_disk: bool,
    /// Pinned-read refcount (signed so a broken protocol can go negative).
    pins: i8,
    /// Poison flag: a read was served while the block was unsealed.
    served_unsealed: bool,
    /// An in-flight load of this block failed (disk error injected by the
    /// node's nondeterministic `LoadError` action).
    load_failed: bool,
    /// The failure armed a retry/timeout transition (`RetryLoad` enabled).
    /// Invariant 8: `load_failed` without `timeout_armed` is a latent hang.
    timeout_armed: bool,
    /// Last availability observed by a map query (the node's lazy change
    /// detection state).
    last_avail: Option<Avail>,
    /// Map version at which this block's availability last changed.
    avail_version: u8,
}

impl Block {
    /// Availability as the map protocol reports it.
    fn avail(&self) -> Avail {
        if self.sealed {
            if self.resident {
                Avail::InMemory
            } else {
                Avail::OnDisk
            }
        } else if self.writers > 0 || self.resident {
            Avail::Partial
        } else {
            Avail::Unwritten
        }
    }
}

/// The map-querying client's incremental-snapshot state: its version cursor
/// and its mirror of the node's availability map, plus poison flags set when
/// a completed query exposes a protocol violation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
struct Mapper {
    cursor: u8,
    mirror: [Option<Avail>; NBLOCKS],
    /// A completed `MapSince` left the mirror different from the node's map.
    stale: bool,
    /// A delta carried a version below the client's cursor.
    nonmonotonic: bool,
}

/// One client: its program counter into the script and whether its current
/// operation is parked waiting for a node event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
struct Client {
    pc: u8,
    blocked: bool,
}

/// A global protocol state (hashable — the BFS visited-set key).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct State {
    blocks: [Block; NBLOCKS],
    clients: [Client; NCLIENTS],
    /// Global monotonic map version (bumped on detected availability
    /// changes).
    map_version: u8,
    /// Incremental-snapshot state of the map-querying client.
    mapper: Mapper,
}

/// The bounded model: a bug configuration plus one script per client.
#[derive(Clone, Debug)]
pub struct Model {
    /// Seeded bugs (all-false is the faithful protocol).
    pub bug: BugConfig,
    scripts: [Vec<Op>; NCLIENTS],
}

impl Model {
    /// The standard scenario: client `c` writes and seals block `c`, then
    /// reads (and releases) both blocks. Covers write/seal/read/release,
    /// cross-client reads of each other's blocks, parked reads served by a
    /// later seal, and — interleaved with the system's reclaim/load actions
    /// — eviction and reload of every block.
    pub fn standard(bug: BugConfig) -> Self {
        let script = |own: usize| {
            vec![
                Op::StartWrite(own),
                Op::SealWrite(own),
                Op::StartRead(0),
                Op::ReleaseRead(0),
                Op::StartRead(1),
                Op::ReleaseRead(1),
            ]
        };
        Self {
            bug,
            scripts: [script(0), script(1)],
        }
    }

    /// A contention scenario: both clients write block 0. The second
    /// `StartWrite` must park until the first seals — unless
    /// [`BugConfig::allow_double_grant`] is seeded, which the single-writer
    /// invariant then catches.
    pub fn write_contention(bug: BugConfig) -> Self {
        let script = vec![
            Op::StartWrite(0),
            Op::SealWrite(0),
            Op::StartRead(0),
            Op::ReleaseRead(0),
        ];
        Self {
            bug,
            scripts: [script.clone(), script],
        }
    }

    /// The map-protocol scenario: client 0 writes, seals, reads and releases
    /// both blocks while client 1 issues repeated `MapSince` queries — with
    /// the node's reclaim/load actions interleaved, every availability
    /// transition (`Unwritten → Partial → InMemory ↔ OnDisk`) races the
    /// incremental snapshot. Checks version monotonicity and that deltas
    /// always compose to the full map.
    pub fn map_protocol(bug: BugConfig) -> Self {
        Self {
            bug,
            scripts: [
                vec![
                    Op::StartWrite(0),
                    Op::SealWrite(0),
                    Op::StartRead(0),
                    Op::ReleaseRead(0),
                    Op::StartWrite(1),
                    Op::SealWrite(1),
                    Op::StartRead(1),
                    Op::ReleaseRead(1),
                ],
                vec![Op::MapSince, Op::MapSince, Op::MapSince],
            ],
        }
    }

    fn op(&self, s: &State, c: usize) -> Option<Op> {
        self.scripts[c].get(s.clients[c].pc as usize).copied()
    }

    /// Attempts client `c`'s current operation on `s`. Returns `true` and
    /// advances the pc if the node can serve it now; returns `false` if the
    /// request parks (the node registers a waiter).
    fn attempt(&self, s: &mut State, c: usize) -> bool {
        let Some(op) = self.op(s, c) else {
            return false;
        };
        match op {
            Op::StartWrite(b) => {
                let blk = &mut s.blocks[b];
                if blk.sealed {
                    // Arrays are immutable: a write request for a sealed
                    // block is refused with an error reply, and the client
                    // abandons the write (skipping its seal too).
                    s.clients[c].pc += 2;
                    s.clients[c].blocked = false;
                    true
                } else if blk.writers == 0 || self.bug.allow_double_grant {
                    blk.writers += 1;
                    blk.resident = true; // charged from the grant on
                    self.advance(s, c);
                    true
                } else {
                    false
                }
            }
            Op::SealWrite(b) => {
                let blk = &mut s.blocks[b];
                blk.writers = blk.writers.saturating_sub(1);
                blk.sealed = true;
                self.advance(s, c);
                self.flush(s);
                true
            }
            Op::StartRead(b) => {
                let blk = &mut s.blocks[b];
                if blk.sealed && blk.resident {
                    blk.pins += 1;
                    self.advance(s, c);
                    true
                } else if !blk.sealed && blk.resident && self.bug.serve_unsealed_read {
                    blk.pins += 1;
                    blk.served_unsealed = true;
                    self.advance(s, c);
                    true
                } else {
                    // Sealed-but-evicted waits for a Load; unsealed waits
                    // for the Seal. Either way the node parks the request.
                    false
                }
            }
            Op::ReleaseRead(b) => {
                if !self.bug.skip_release {
                    s.blocks[b].pins -= 1;
                }
                self.advance(s, c);
                true
            }
            Op::MapSince => {
                // The node's lazy change detection (`StorageState::map_delta`):
                // compare each block's current availability with the last
                // observed one, bump the version on change, and ship every
                // block stamped after the client's cursor. Served
                // immediately — a map query never parks.
                let since = s.mapper.cursor;
                for b in 0..NBLOCKS {
                    let now = s.blocks[b].avail();
                    if s.blocks[b].last_avail != Some(now) {
                        s.blocks[b].last_avail = Some(now);
                        if !self.bug.skip_version_bump {
                            s.map_version += 1;
                        }
                        s.blocks[b].avail_version = s.map_version;
                    }
                    if s.blocks[b].avail_version > since {
                        s.mapper.mirror[b] = Some(now);
                    }
                }
                if s.map_version < since {
                    s.mapper.nonmonotonic = true;
                }
                s.mapper.cursor = s.map_version;
                // Delta composition: folding the delta must leave the mirror
                // identical to the node's current map.
                if (0..NBLOCKS).any(|b| s.mapper.mirror[b] != Some(s.blocks[b].avail())) {
                    s.mapper.stale = true;
                }
                self.advance(s, c);
                true
            }
        }
    }

    fn advance(&self, s: &mut State, c: usize) {
        s.clients[c].pc += 1;
        s.clients[c].blocked = false;
    }

    /// Re-serves parked waiters after a node event (seal or load) — the
    /// model's `flush_waiters`. Loops to a fixpoint because serving one
    /// waiter can unblock another.
    fn flush(&self, s: &mut State) {
        if self.bug.skip_flush_waiters {
            return;
        }
        loop {
            let mut progressed = false;
            for c in 0..NCLIENTS {
                if s.clients[c].blocked && self.attempt(s, c) {
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// All enabled transitions from `s`: each unparked client attempting
    /// its next operation, plus the node's own nondeterministic actions
    /// (reclaim an evictable block; load an on-disk block a reader waits
    /// for).
    fn successors(&self, s: &State) -> Vec<(String, State)> {
        let mut out = Vec::new();
        for c in 0..NCLIENTS {
            if s.clients[c].blocked {
                continue; // parked: only a node event can wake it
            }
            let Some(op) = self.op(s, c) else {
                continue; // script complete
            };
            let mut next = s.clone();
            let label = if self.attempt(&mut next, c) {
                format!("client{c}: {op:?}")
            } else {
                next.clients[c].blocked = true;
                format!("client{c}: {op:?} (parked)")
            };
            out.push((label, next));
        }
        for b in 0..NBLOCKS {
            let blk = &s.blocks[b];
            // Reclaim: spill-and-evict a sealed, writer-free resident block.
            if blk.resident
                && blk.sealed
                && blk.writers == 0
                && (blk.pins == 0 || self.bug.evict_pinned)
            {
                let mut next = s.clone();
                next.blocks[b].on_disk = true;
                next.blocks[b].resident = false;
                out.push((format!("node: Reclaim(block{b})"), next));
            }
            // Load: bring an evicted block back for a parked reader.
            let wanted = (0..NCLIENTS)
                .any(|c| s.clients[c].blocked && self.op(s, c) == Some(Op::StartRead(b)));
            if blk.on_disk && !blk.resident && blk.sealed && wanted && !blk.load_failed {
                let mut next = s.clone();
                next.blocks[b].resident = true;
                self.flush(&mut next);
                out.push((format!("node: Load(block{b})"), next));
                // The same load can instead fail (disk error). The healthy
                // node arms a retry/timeout transition in the same step; the
                // seeded bug forgets it — leaving the parked reader's wait
                // with no transition that can ever end it.
                let mut next = s.clone();
                next.blocks[b].load_failed = true;
                next.blocks[b].timeout_armed = !self.bug.no_timeout_transition;
                out.push((format!("node: LoadError(block{b})"), next));
            }
            // RetryLoad: the armed timeout fires (the real system's backoff
            // tick re-issuing the read); the wait ends one way or the other.
            if blk.load_failed && blk.timeout_armed {
                let mut next = s.clone();
                next.blocks[b].load_failed = false;
                next.blocks[b].timeout_armed = false;
                next.blocks[b].resident = true;
                self.flush(&mut next);
                out.push((format!("node: RetryLoad(block{b})"), next));
            }
        }
        out
    }

    /// Checks the per-state safety invariants; `Some(name)` on violation.
    fn violated_invariant(&self, s: &State) -> Option<&'static str> {
        // A parked read whose block is sealed and resident should have been
        // served by the flush at the event that made it serviceable; such a
        // state is only reachable when a flush was skipped. (The liveness
        // half of "every blocked read is eventually answered": checking it
        // as a state invariant also catches starvation hidden inside
        // reclaim/load cycles that never quiesce.)
        for c in 0..NCLIENTS {
            if s.clients[c].blocked {
                if let Some(Op::StartRead(b)) = self.op(s, c) {
                    if s.blocks[b].sealed && s.blocks[b].resident {
                        return Some("reads-answered");
                    }
                }
            }
        }
        if s.mapper.nonmonotonic {
            return Some("map-version-monotonic");
        }
        if s.mapper.stale {
            return Some("map-delta-composes");
        }
        for blk in &s.blocks {
            // Invariant 8: a failed load someone is blocked on must have a
            // timeout/retry transition armed, or the wait can never end.
            if blk.load_failed && !blk.timeout_armed {
                return Some("wait-timeout-armed");
            }
            if blk.pins < 0 {
                return Some("negative-refcount");
            }
            if blk.writers > 1 {
                return Some("single-writer");
            }
            if blk.served_unsealed {
                return Some("no-unsealed-read");
            }
            if blk.pins > 0 && !blk.resident {
                return Some("no-evict-pinned");
            }
        }
        None
    }

    /// Checks the quiescence invariants on a terminal state (no enabled
    /// transitions); `Some(name)` on violation.
    fn violated_terminal_invariant(&self, s: &State) -> Option<&'static str> {
        for c in 0..NCLIENTS {
            if s.clients[c].blocked || self.op(s, c).is_some() {
                return Some("reads-answered");
            }
        }
        if s.blocks.iter().any(|b| b.pins != 0) {
            return Some("balanced-at-quiescence");
        }
        None
    }
}

/// Exploration summary of a run with no invariant violations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct states reached.
    pub states: usize,
    /// Transitions taken (including ones leading to already-seen states).
    pub transitions: usize,
    /// Terminal (quiescent) states.
    pub terminals: usize,
}

/// A found invariant violation: which invariant, the offending state, and
/// the full action trace from the initial state that reaches it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Name of the violated invariant.
    pub invariant: &'static str,
    /// Debug rendering of the violating state.
    pub state: String,
    /// Action labels from the initial state to the violation.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "invariant '{}' violated after:", self.invariant)?;
        for step in &self.trace {
            writeln!(f, "  {step}")?;
        }
        write!(f, "state: {}", self.state)
    }
}

/// Upper bound on explored states; the bounded models stay far below this,
/// so hitting it indicates a modelling error rather than a big state space.
const STATE_LIMIT: usize = 1_000_000;

/// Exhaustively explores every interleaving of `model` by BFS, checking the
/// safety invariants on every reachable state and the quiescence invariants
/// on every terminal state.
pub fn explore(model: &Model) -> Result<ExploreStats, Violation> {
    let init = State::default();
    let mut arena: Vec<State> = vec![init.clone()];
    // state -> index in arena; preds[i] = (parent index, action label).
    let mut seen: HashMap<State, usize> = HashMap::from([(init, 0)]);
    let mut preds: Vec<Option<(usize, String)>> = vec![None];
    let mut frontier: VecDeque<usize> = VecDeque::from([0]);
    let mut transitions = 0usize;
    let mut terminals = 0usize;

    let trace_to = |preds: &[Option<(usize, String)>], mut i: usize| {
        let mut t = Vec::new();
        while let Some((p, label)) = &preds[i] {
            t.push(label.clone());
            i = *p;
        }
        t.reverse();
        t
    };

    if let Some(inv) = model.violated_invariant(&arena[0]) {
        return Err(Violation {
            invariant: inv,
            state: format!("{:?}", arena[0]),
            trace: Vec::new(),
        });
    }

    while let Some(idx) = frontier.pop_front() {
        let succs = model.successors(&arena[idx]);
        if succs.is_empty() {
            terminals += 1;
            if let Some(inv) = model.violated_terminal_invariant(&arena[idx]) {
                return Err(Violation {
                    invariant: inv,
                    state: format!("{:?}", arena[idx]),
                    trace: trace_to(&preds, idx),
                });
            }
            continue;
        }
        for (label, next) in succs {
            transitions += 1;
            if seen.contains_key(&next) {
                continue;
            }
            let ni = arena.len();
            assert!(
                ni < STATE_LIMIT,
                "state space exceeded {STATE_LIMIT} states"
            );
            seen.insert(next.clone(), ni);
            arena.push(next);
            preds.push(Some((idx, label)));
            if let Some(inv) = model.violated_invariant(&arena[ni]) {
                return Err(Violation {
                    invariant: inv,
                    state: format!("{:?}", arena[ni]),
                    trace: trace_to(&preds, ni),
                });
            }
            frontier.push_back(ni);
        }
    }

    Ok(ExploreStats {
        states: arena.len(),
        transitions,
        terminals,
    })
}

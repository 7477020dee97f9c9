//! Bounded model checker over the real storage node.
//!
//! The storage node ([`StorageState`]) is a single-threaded server, so its
//! behaviour is fully described by the interleaving of the messages it
//! handles. This module explores every interleaving of a small scenario — a
//! few clients, each running a short script of [`ClientMsg`]s against one
//! node whose memory budget is one block — by breadth-first search over
//! states made of
//!
//! * a clone of the node itself,
//! * each client's script position and the read pins it holds, and
//! * the I/O commands the node issued that have not completed, plus the
//!   scratch disk they write to.
//!
//! A step is one of: an unparked client sends its next message; one
//! outstanding I/O command completes or fails. A failure is the I/O
//! filter's final answer (it retries a read before it answers), and with
//! one node no fetch can stall, so the node's clock never runs and is not a
//! step. Every transition is the node's own handler —
//! nothing here decides what the node does — so the checker cannot drift
//! from the code it checks. States are deduplicated by the node's
//! `fingerprint()` and the model's own fields.
//!
//! Invariants, read off the replies, `debug_block` and the outstanding I/O:
//!
//! * `negative-refcount` — the node never holds fewer pins on a block than
//!   read pins its clients hold (a release would underflow);
//! * `balanced-at-quiescence` — at quiescence no pin is left;
//! * `no-unsealed-read` — a read is served only from a sealed block, and
//!   with the bytes its writer released;
//! * `single-writer` — a block is sealed by one write only: no write is
//!   answered `WriteSealed` on a block a client already saw sealed;
//! * `no-evict-pinned` — a pinned block is resident;
//! * `reads-answered` — a sealed block stays readable (resident, on disk, or
//!   on its way there), a read parked on a resident sealed block has been
//!   served, and at quiescence every client finished its script;
//! * `resident-is-truth` — the node names the array resident exactly when
//!   every block is one a client saw sealed and `debug_block` reports in
//!   memory;
//! * `parked-read-progresses` — a read parked on a block that must come from
//!   disk has that read in flight;
//! * `checked-dies-with-residency` — a read is served with the checked mark
//!   only if a client released the block as checked after the block's last
//!   install (its seal or a load): the mark never outlives the bytes.
//!
//! The negative twins plant the node's own [`SeededBugs`], or give a client
//! a script that never releases its pin; each must come back as a
//! [`Violation`] carrying the shortest step trace from the initial state.

use bytes::Bytes;
use dooc_storage::node::{Action, SeededBugs};
use dooc_storage::proto::{ClientMsg, IoCmd, IoReply, Reply};
use dooc_storage::{ArrayMeta, Interval, NodeConfig, StorageError, StorageState};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};

/// The scenario array.
const ARRAY: &str = "a";
/// Blocks of the scenario array.
pub const NBLOCKS: u64 = 2;
/// Bytes per block; the node's memory budget is one block, so a second
/// resident block forces reclaim.
const BLOCK: u64 = 8;

/// One message in a client's script. Every write and read covers a whole
/// block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// `Write` with the block's bytes.
    Write(u64),
    /// `ReadReq`; a failed read skips the `Release` that follows.
    Read(u64),
    /// `ReleaseRead`.
    Release(u64),
    /// `ReleaseRead` marking the bytes checked.
    ReleaseChecked(u64),
    /// `Evict` the array.
    Evict,
    /// `Demote` the array: its resident blocks go to the cold end of the
    /// LRU.
    Demote,
    /// `Resident`: which arrays are fully in memory.
    Resident,
}

/// A scenario: the node's seeded bugs and one script per client.
#[derive(Clone, Debug)]
pub struct Model {
    /// Bugs planted in the node (all off is the node as shipped).
    pub bugs: SeededBugs,
    scripts: Vec<Vec<Op>>,
}

impl Model {
    /// Client `c` writes block `c`, then reads and releases both blocks,
    /// marking block 0 checked; a third client evicts the array once, at
    /// any point.
    pub fn standard(bugs: SeededBugs) -> Self {
        let script = |own| {
            use Op::*;
            vec![Write(own), Read(0), ReleaseChecked(0), Read(1), Release(1)]
        };
        Self {
            bugs,
            scripts: vec![script(0), script(1), vec![Op::Evict]],
        }
    }

    /// Both clients write block 0, then read it. Arrays are write-once: the
    /// node refuses the second writer, whichever comes second.
    pub fn write_contention(bugs: SeededBugs) -> Self {
        use Op::*;
        let script = vec![Write(0), Read(0), Release(0)];
        Self {
            bugs,
            scripts: vec![script.clone(), script],
        }
    }

    /// Client 0 writes, reads and releases both blocks while client 1 asks
    /// `Resident` three times and a third client evicts once: every
    /// residency transition races the query.
    pub fn resident_protocol(bugs: SeededBugs) -> Self {
        use Op::*;
        let writer = vec![Write(0), Read(0), Release(0), Write(1), Read(1), Release(1)];
        Self {
            bugs,
            scripts: vec![writer, vec![Resident; 3], vec![Evict]],
        }
    }

    /// Client 0 writes both blocks; client 1 reads and releases both; a
    /// third client demotes the array twice, at any point: while a read pin
    /// is held, while a block is dirty (sealed, not yet spilled), while a
    /// spill or load is out. Demotion changes only which block reclaim
    /// takes first, never whether it may take it.
    pub fn demote_protocol(bugs: SeededBugs) -> Self {
        use Op::*;
        Self {
            bugs,
            scripts: vec![
                vec![Write(0), Write(1)],
                vec![Read(0), Release(0), Read(1), Release(1)],
                vec![Demote, Demote],
            ],
        }
    }

    /// The same scenario with client `c` never releasing its read pins.
    pub fn without_releases(mut self, c: usize) -> Self {
        self.scripts[c].retain(|op| !matches!(op, Op::Release(_) | Op::ReleaseChecked(_)));
        self
    }
}

/// A client's progress and holdings.
#[derive(Clone, Debug, Default, Hash)]
struct Client {
    pc: usize,
    /// `script[pc]` was sent and awaits its reply.
    parked: bool,
    /// Blocks this client holds a read pin on.
    pinned: Vec<u64>,
    /// A write of this client was refused.
    refused: bool,
}

/// One explored state.
#[derive(Clone)]
struct State {
    node: StorageState,
    clients: Vec<Client>,
    /// I/O commands issued and not yet completed.
    io: Vec<IoCmd>,
    /// The scratch disk: block files written so far.
    disk: BTreeMap<u64, Bytes>,
    /// Blocks some client saw sealed.
    sealed: [bool; NBLOCKS as usize],
    /// Blocks a client released as checked since their last install.
    marked: [bool; NBLOCKS as usize],
    /// Some read was served with the checked mark.
    mark_seen: bool,
    /// Some `Resident` answer named the array.
    listed: bool,
}

impl State {
    fn key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.node.fingerprint().hash(&mut h);
        self.clients.hash(&mut h);
        let mut io: Vec<String> = self.io.iter().map(|c| format!("{c:?}")).collect();
        io.sort_unstable();
        (io, &self.disk, self.sealed, self.marked).hash(&mut h);
        (self.mark_seen, self.listed).hash(&mut h);
        h.finish()
    }

    fn summary(&self) -> String {
        let blocks: Vec<_> = (0..NBLOCKS)
            .map(|b| self.node.debug_block(ARRAY, b))
            .collect();
        format!(
            "blocks (pins, resident, on_disk) {blocks:?}; sealed {:?}; marked {:?}; io {:?}; \
             clients {:?}",
            self.sealed, self.marked, self.io, self.clients
        )
    }
}

fn iv(b: u64) -> Interval {
    Interval::new(b * BLOCK, BLOCK)
}

/// The bytes a writer releases into block `b`.
fn fill(b: u64) -> Bytes {
    Bytes::from(vec![b as u8 + 1; BLOCK as usize])
}

fn req_of(c: usize, pc: usize) -> u64 {
    ((c as u64) << 32) | pc as u64
}

/// Whether the array should be resident now, from what the node holds
/// (`debug_block`) and what the clients saw sealed.
fn expected_resident(s: &State) -> bool {
    (0..NBLOCKS).all(|b| {
        s.sealed[b as usize] && s.node.debug_block(ARRAY, b).is_some_and(|(_, mem, _)| mem)
    })
}

type Outcome = Result<(), &'static str>;

impl Model {
    fn op(&self, s: &State, c: usize) -> Option<Op> {
        self.scripts[c].get(s.clients[c].pc).copied()
    }

    fn initial(&self) -> State {
        let cfg = NodeConfig {
            node: 0,
            nnodes: 1,
            memory_budget: BLOCK,
            seed: 1,
        };
        let mut node = StorageState::new(cfg, Vec::new());
        node.set_seeded_bugs(self.bugs);
        let created = node.handle_client(ClientMsg::Create {
            req: u64::MAX,
            client: 0,
            meta: ArrayMeta::new(ARRAY, NBLOCKS * BLOCK, BLOCK),
        });
        assert!(
            matches!(
                &created[..],
                [Action::Reply {
                    reply: Reply::Created { .. },
                    ..
                }]
            ),
            "{created:?}"
        );
        State {
            node,
            clients: vec![Client::default(); self.scripts.len()],
            io: Vec::new(),
            disk: BTreeMap::new(),
            sealed: [false; NBLOCKS as usize],
            marked: [false; NBLOCKS as usize],
            mark_seen: false,
            listed: false,
        }
    }

    /// Client `c` sends `script[pc]`.
    fn send(&self, s: &mut State, c: usize, op: Op) -> Outcome {
        let (req, client, array) = (req_of(c, s.clients[c].pc), c as u64, ARRAY.to_string());
        if let Op::ReleaseChecked(b) = op {
            s.marked[b as usize] = true;
        }
        let cl = &mut s.clients[c];
        let msg = match op {
            Op::Write(b) => ClientMsg::Write {
                req,
                client,
                array,
                iv: iv(b),
                data: fill(b),
            },
            Op::Read(b) => ClientMsg::ReadReq {
                req,
                client,
                array,
                iv: iv(b),
            },
            Op::Release(b) | Op::ReleaseChecked(b) => {
                cl.pinned.retain(|&p| p != b);
                ClientMsg::ReleaseRead {
                    array,
                    iv: iv(b),
                    checked: matches!(op, Op::ReleaseChecked(_)),
                }
            }
            Op::Evict => ClientMsg::Evict { array },
            Op::Demote => ClientMsg::Demote { array },
            Op::Resident => ClientMsg::Resident { req, client },
        };
        if matches!(
            op,
            Op::Release(_) | Op::ReleaseChecked(_) | Op::Evict | Op::Demote
        ) {
            cl.pc += 1; // no reply
        } else {
            cl.parked = true;
        }
        let acts = s.node.handle_client(msg);
        self.absorb(s, acts)
    }

    /// Queues the node's I/O commands and delivers its replies.
    fn absorb(&self, s: &mut State, acts: Vec<Action>) -> Outcome {
        for a in acts {
            match a {
                Action::Io(cmd) => s.io.push(cmd),
                Action::Peer { node, msg } => panic!("single-node model sent {msg:?} to {node}"),
                Action::Reply { client, reply } => self.deliver(s, client as usize, reply)?,
            }
        }
        Ok(())
    }

    fn deliver(&self, s: &mut State, c: usize, reply: Reply) -> Outcome {
        let pc = s.clients[c].pc;
        let op = self.op(s, c);
        assert!(
            s.clients[c].parked && reply.req() == req_of(c, pc),
            "client{c} got {reply:?} while not waiting for it"
        );
        // A failed read skips the matching release.
        let skip = |next: &[Op]| {
            1 + usize::from(
                self.scripts[c]
                    .get(pc + 1)
                    .is_some_and(|op| next.contains(op)),
            )
        };
        let advance = match (op, reply) {
            (Some(Op::Write(b)), Reply::WriteSealed { .. }) => {
                if s.sealed[b as usize] {
                    return Err("single-writer");
                }
                s.sealed[b as usize] = true;
                s.marked[b as usize] = false; // the seal installs the bytes
                1
            }
            (
                Some(Op::Write(_)),
                Reply::Err {
                    error: StorageError::Immutability(_),
                    ..
                },
            ) => {
                s.clients[c].refused = true;
                1
            }
            (Some(Op::Read(b)), Reply::ReadReady { data, checked, .. }) => {
                if !s.sealed[b as usize] || data != fill(b) {
                    return Err("no-unsealed-read");
                }
                if checked && !s.marked[b as usize] {
                    return Err("checked-dies-with-residency");
                }
                s.mark_seen |= checked;
                s.clients[c].pinned.push(b);
                1
            }
            (
                Some(Op::Read(b)),
                Reply::Err {
                    error: StorageError::IoFailed(_),
                    ..
                },
            ) => skip(&[Op::Release(b), Op::ReleaseChecked(b)]),
            (Some(Op::Resident), Reply::Resident { arrays, .. }) => {
                let listed = arrays.iter().any(|a| a == ARRAY);
                if listed != expected_resident(s) || arrays.iter().any(|a| a != ARRAY) {
                    return Err("resident-is-truth");
                }
                s.listed |= listed;
                1
            }
            (op, reply) => panic!("client{c}: unexpected {reply:?} to {op:?}"),
        };
        let cl = &mut s.clients[c];
        cl.parked = false;
        cl.pc += advance;
        Ok(())
    }

    /// Outstanding I/O command `i` completes (`ok`) or fails.
    fn finish_io(&self, s: &mut State, i: usize, ok: bool) -> Outcome {
        let cmd = s.io.remove(i);
        let reply = match cmd {
            IoCmd::Read { array, block, .. } if ok => {
                let data = s.disk.get(&block).cloned();
                let data = data.unwrap_or_else(|| panic!("read of block {block} never written"));
                s.marked[block as usize] = false; // the load installs the bytes
                IoReply::ReadDone { array, block, data }
            }
            IoCmd::Write {
                array, block, data, ..
            } if ok => {
                let bytes = data.len() as u64;
                s.disk.insert(block, data);
                IoReply::WriteDone {
                    array,
                    block,
                    bytes,
                }
            }
            IoCmd::DeleteFiles { .. } => panic!("the scenarios delete nothing"),
            IoCmd::Read { array, block, .. } | IoCmd::Write { array, block, .. } => {
                IoReply::Error {
                    array,
                    block,
                    message: "injected".into(),
                }
            }
        };
        let acts = s.node.handle_io(reply);
        self.absorb(s, acts)
    }

    /// Every step enabled in `s`, with its label and outcome.
    fn steps(&self, s: &State) -> Vec<(String, State, Outcome)> {
        let mut out = Vec::new();
        for c in 0..s.clients.len() {
            let Some(op) = self.op(s, c).filter(|_| !s.clients[c].parked) else {
                continue;
            };
            let mut next = s.clone();
            let outcome = self.send(&mut next, c, op);
            out.push((format!("client{c}: {op:?}"), next, outcome));
        }
        for i in 0..s.io.len() {
            for ok in [true, false] {
                let mut next = s.clone();
                let outcome = self.finish_io(&mut next, i, ok);
                let verb = if ok { "done" } else { "failed" };
                out.push((format!("io: {:?} {verb}", s.io[i]), next, outcome));
            }
        }
        out
    }

    /// The per-state invariants.
    fn violated(&self, s: &State) -> Option<&'static str> {
        for b in 0..NBLOCKS {
            let held = s.clients.iter().flat_map(|c| &c.pinned);
            let held = held.filter(|&&x| x == b).count() as u64;
            let (pins, resident, on_disk) = s.node.debug_block(ARRAY, b).unwrap_or_default();
            if pins < held {
                return Some("negative-refcount");
            }
            if pins > 0 && !resident {
                return Some("no-evict-pinned");
            }
            let sealed = s.sealed[b as usize];
            let io_on = |write| {
                s.io.iter().any(|cmd| match cmd {
                    IoCmd::Write { block, .. } => write && *block == b,
                    IoCmd::Read { block, .. } => !write && *block == b,
                    IoCmd::DeleteFiles { .. } => false,
                })
            };
            if sealed && !resident && !on_disk && !io_on(true) {
                return Some("reads-answered"); // the only copy is gone
            }
            let parked_reader = (0..s.clients.len())
                .any(|c| s.clients[c].parked && self.op(s, c) == Some(Op::Read(b)));
            if parked_reader && sealed && resident {
                return Some("reads-answered");
            }
            if parked_reader && sealed && on_disk && !io_on(false) {
                return Some("parked-read-progresses");
            }
        }
        None
    }

    /// The invariants of a state with no enabled step.
    fn violated_at_quiescence(&self, s: &State) -> Option<&'static str> {
        let unfinished = |c: usize| s.clients[c].parked || self.op(s, c).is_some();
        if (0..s.clients.len()).any(unfinished) {
            return Some("reads-answered");
        }
        let pinned = (0..NBLOCKS).any(|b| s.node.debug_block(ARRAY, b).is_some_and(|d| d.0 > 0));
        pinned.then_some("balanced-at-quiescence")
    }
}

/// Exploration summary of a run with no invariant violations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct states reached.
    pub states: usize,
    /// Steps taken (including ones leading to already-seen states).
    pub transitions: usize,
    /// Quiescent states: every script done, no I/O outstanding.
    pub terminals: usize,
    /// Quiescent states in which some client's write had been refused.
    pub refused: usize,
    /// Quiescent states in which some read was served with the checked
    /// mark (so `checked-dies-with-residency` was tested, not vacuous).
    pub marked: usize,
    /// Quiescent states in which some `Resident` answer named the array (so
    /// `resident-is-truth` was tested on both answers, not one).
    pub listed: usize,
}

/// A found invariant violation: which invariant, the offending state, and
/// the step trace from the initial state that reaches it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Name of the violated invariant.
    pub invariant: &'static str,
    /// Rendering of the violating state.
    pub state: String,
    /// Step labels from the initial state to the violation.
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

/// Upper bound on explored states; the scenarios stay far below it, so
/// hitting it indicates a modelling error rather than a big state space.
const STATE_LIMIT: usize = 1_000_000;

/// Explores every interleaving of `model` by BFS, checking the per-state
/// invariants on every reachable state and the quiescence invariants on
/// every state with no enabled step.
pub fn explore(model: &Model) -> Result<ExploreStats, Violation> {
    let init = model.initial();
    // preds[i] = (parent index, step label) of the i-th state reached.
    let mut preds: Vec<Option<(usize, String)>> = vec![None];
    let mut seen: HashSet<u64> = HashSet::from([init.key()]);
    let mut frontier: VecDeque<(usize, State)> = VecDeque::from([(0, init)]);
    let mut stats = ExploreStats {
        states: 1,
        transitions: 0,
        terminals: 0,
        refused: 0,
        marked: 0,
        listed: 0,
    };
    let violation = |preds: &[Option<(usize, String)>], mut i: usize, invariant, s: &State| {
        let mut trace = Vec::new();
        while let Some((p, label)) = &preds[i] {
            trace.push(label.clone());
            i = *p;
        }
        trace.reverse();
        Violation {
            invariant,
            state: s.summary(),
            trace,
        }
    };
    while let Some((idx, s)) = frontier.pop_front() {
        let steps = model.steps(&s);
        if steps.is_empty() {
            stats.terminals += 1;
            stats.refused += usize::from(s.clients.iter().any(|c| c.refused));
            stats.marked += usize::from(s.mark_seen);
            stats.listed += usize::from(s.listed);
            if let Some(inv) = model.violated_at_quiescence(&s) {
                return Err(violation(&preds, idx, inv, &s));
            }
            continue;
        }
        for (label, next, outcome) in steps {
            stats.transitions += 1;
            let broken = outcome.err().or_else(|| model.violated(&next));
            if !seen.insert(next.key()) && broken.is_none() {
                continue;
            }
            let ni = preds.len();
            assert!(
                ni < STATE_LIMIT,
                "state space exceeded {STATE_LIMIT} states"
            );
            preds.push(Some((idx, label)));
            if let Some(inv) = broken {
                return Err(violation(&preds, ni, inv, &next));
            }
            stats.states += 1;
            frontier.push_back((ni, next));
        }
    }
    Ok(stats)
}

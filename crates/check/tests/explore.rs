//! dooc-shuttle exploration tests over the *real* runtime types.
//!
//! Each harness here drives genuine production structures — `StorageState`'s
//! grant ledger and LRU reclaim, the worker's `ResidencyTracker`, the
//! `StorageClient` ↔ storage event-loop protocol and the worker's pipelined
//! read window — under the virtual cooperative scheduler, and asserts an
//! invariant that must hold on *every* interleaving. Each positive test has
//! a seeded-bug twin: with one real guard disabled (`SeededBugs` in
//! `storage::node`) or one real `ReadGuard` forgotten
//! (`leak_read_grant_of_block` in `core::worker`) the explorer must find a
//! failing schedule, and replaying its token must
//! reproduce the exact same failure and event sequence.
//!
//! Run with `cargo test -p dooc-check --features model -- explore`.

#![cfg(feature = "model")]

use bytes::Bytes;
use dooc_check::explore::{explore, replay, ExploreOpts, FailureCase, ScheduleToken};
use dooc_core::ResidencyTracker;
use dooc_filterstream::{NodeId, StreamReader, StreamSet, StreamWriter};
use dooc_storage::node::{Action, SeededBugs};
use dooc_storage::proto::{ClientMsg, IoCmd, IoReply, Reply};
use dooc_storage::{ArrayMeta, Interval, MapDelta, NodeConfig, RecoveryPolicy, StorageState};
use dooc_sync::model::FailureKind;
use dooc_sync::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Harness: a single storage node driven directly (no streams), with an
// in-memory scratch disk. Every `Action::Io` the handlers emit is serviced
// immediately and its completion folded back in, so one `client()` call
// settles into a quiescent state; the interleavings under exploration are
// the ones between *tasks* contending on the `dooc_sync::Mutex` wrapping it.
// ---------------------------------------------------------------------------

struct Node {
    state: StorageState,
    disk: HashMap<(String, u64), Bytes>,
    next_req: u64,
}

impl Node {
    fn new(memory_budget: u64, bugs: SeededBugs) -> Self {
        let cfg = NodeConfig {
            node: 0,
            nnodes: 1,
            memory_budget,
            seed: 7,
            recovery: RecoveryPolicy::default(),
        };
        let mut state = StorageState::new(cfg, Vec::new());
        state.set_seeded_bugs(bugs);
        Self {
            state,
            disk: HashMap::new(),
            next_req: 1,
        }
    }

    fn fresh(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Sends one client message and settles every resulting action,
    /// returning the replies produced along the way.
    fn client(&mut self, msg: ClientMsg) -> Vec<Reply> {
        let acts = self.state.handle_client(msg);
        self.settle(acts)
    }

    fn settle(&mut self, acts: Vec<Action>) -> Vec<Reply> {
        let mut replies = Vec::new();
        let mut work: VecDeque<Action> = acts.into();
        while let Some(a) = work.pop_front() {
            match a {
                Action::Reply { reply, .. } => replies.push(reply),
                Action::Peer { .. } => panic!("single-node harness saw a peer message"),
                Action::Io(IoCmd::Read { array, block, .. }) => {
                    let data = self
                        .disk
                        .get(&(array.clone(), block))
                        .unwrap_or_else(|| panic!("io read of {array}[{block}] not on disk"))
                        .clone();
                    work.extend(
                        self.state
                            .handle_io(IoReply::ReadDone { array, block, data }),
                    );
                }
                Action::Io(IoCmd::Write {
                    array, block, data, ..
                }) => {
                    let bytes = data.len() as u64;
                    self.disk.insert((array.clone(), block), data);
                    work.extend(self.state.handle_io(IoReply::WriteDone {
                        array,
                        block,
                        bytes,
                    }));
                }
                Action::Io(IoCmd::DeleteFiles { array, .. }) => {
                    self.disk.retain(|(a, _), _| *a != array);
                }
            }
        }
        replies
    }

    fn create(&mut self, name: &str, len: u64, bs: u64) {
        let req = self.fresh();
        let r = self.client(ClientMsg::Create {
            req,
            client: 0,
            meta: ArrayMeta::new(name, len, bs),
        });
        assert!(
            matches!(r.as_slice(), [Reply::Created { .. }]),
            "create {name}: {r:?}"
        );
    }

    fn write_block(&mut self, name: &str, iv: Interval, data: Bytes) {
        let req = self.fresh();
        let r = self.client(ClientMsg::WriteReq {
            req,
            client: 0,
            array: name.to_string(),
            iv,
        });
        assert!(
            matches!(r.as_slice(), [Reply::WriteGranted { .. }]),
            "write grant {name}: {r:?}"
        );
        let req = self.fresh();
        let r = self.client(ClientMsg::ReleaseWrite {
            req,
            client: 0,
            array: name.to_string(),
            iv,
            data,
        });
        assert!(
            matches!(r.as_slice(), [Reply::WriteSealed { .. }]),
            "write seal {name}: {r:?}"
        );
    }

    /// Read grant for one interval; the caller owns the pin until it sends
    /// `ReleaseRead`. The reply must be synchronous: in this single-node
    /// harness every sealed block is in memory or on the in-memory disk.
    fn read_block(&mut self, name: &str, iv: Interval) -> Bytes {
        let req = self.fresh();
        let r = self.client(ClientMsg::ReadReq {
            req,
            client: 0,
            array: name.to_string(),
            iv,
        });
        match r.as_slice() {
            [Reply::ReadReady { data, .. }] => data.clone(),
            other => panic!("read {name}@{iv:?}: expected ReadReady, got {other:?}"),
        }
    }

    fn release_pin(&mut self, name: &str, iv: Interval) {
        let r = self.client(ClientMsg::ReleaseRead {
            array: name.to_string(),
            iv,
            checked: false,
        });
        assert!(r.is_empty(), "release_pin replied {r:?}");
    }

    fn map_since(&mut self, since: u64) -> MapDelta {
        let req = self.fresh();
        let r = self.client(ClientMsg::MapSince {
            req,
            client: 0,
            since,
        });
        match r.as_slice() {
            [Reply::MapDelta {
                version,
                entries,
                deleted,
                ..
            }] => MapDelta {
                version: *version,
                entries: entries.clone(),
                deleted: deleted.clone(),
            },
            other => panic!("map_since({since}): expected MapDelta, got {other:?}"),
        }
    }
}

/// Checks that replaying a failure's token reproduces the exact failing
/// interleaving: same failure kind and the same visible-event sequence.
fn assert_replay_reproduces(case: &FailureCase, f: impl Fn() + Send + Sync + 'static) {
    let outcome = replay(&case.token, f);
    let failure = outcome
        .failure
        .as_ref()
        .unwrap_or_else(|| panic!("replaying {} did not fail", case.token));
    assert_eq!(failure.kind, case.failure.kind, "replayed failure kind");
    assert_eq!(outcome.events, case.events, "replayed event sequence");
}

fn quick() -> ExploreOpts {
    ExploreOpts {
        seeds: 32,
        dfs_budget: 192,
        ..ExploreOpts::default()
    }
}

// ---------------------------------------------------------------------------
// Engine self-tests: deadlock detection and token round-trip.
// ---------------------------------------------------------------------------

fn two_locks(reversed: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let peer = dooc_sync::thread::spawn(move || {
            if reversed {
                let _gb = b2.lock();
                let _ga = a2.lock();
            } else {
                let _ga = a2.lock();
                let _gb = b2.lock();
            }
        });
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        peer.join().expect("peer task");
    }
}

#[test]
fn explore_consistent_lock_order_is_clean() {
    explore("two_locks", quick(), two_locks(false)).assert_clean("two_locks");
}

#[test]
fn explore_finds_ab_ba_deadlock_and_token_replays() {
    let report = explore("two_locks[ab-ba]", quick(), two_locks(true));
    let case = report.expect_failure("two_locks[ab-ba]");
    assert_eq!(case.failure.kind, FailureKind::Deadlock);
    assert_replay_reproduces(case, two_locks(true));
}

#[test]
fn explore_schedule_token_round_trips() {
    let t = ScheduleToken(vec![0, 1, 0, 2]);
    let s = t.to_string();
    assert_eq!(s, "dooc-shuttle:v1:0.1.0.2");
    assert_eq!(s.parse::<ScheduleToken>().expect("parse"), t);
    assert_eq!(
        "dooc-shuttle:v1:".parse::<ScheduleToken>().expect("empty"),
        ScheduleToken::default()
    );
    assert!("bogus".parse::<ScheduleToken>().is_err());
    assert!("dooc-shuttle:v1:0.x".parse::<ScheduleToken>().is_err());
}

// ---------------------------------------------------------------------------
// 1. Grant ledger: eviction must never fire on a block with a live read
//    grant. A reader pins a block while a second task asks for an explicit
//    evict; on every interleaving the pinned block must stay resident.
// ---------------------------------------------------------------------------

fn evict_vs_pin(bugs: SeededBugs) -> impl Fn() + Send + Sync + 'static {
    move || {
        let iv = Interval::new(0, 8);
        let node = Arc::new(Mutex::new(Node::new(1 << 20, bugs)));
        {
            let mut n = node.lock();
            n.create("a", 8, 8);
            n.write_block("a", iv, Bytes::from(vec![0xAB; 8]));
        }
        let n2 = Arc::clone(&node);
        let evictor = dooc_sync::thread::spawn(move || {
            n2.lock().client(ClientMsg::Evict {
                array: "a".to_string(),
            });
        });
        {
            let mut n = node.lock();
            let data = n.read_block("a", iv);
            assert_eq!(&data[..], &[0xAB; 8], "granted bytes");
        }
        {
            let n = node.lock();
            let (pins, in_mem, _) = n.state.debug_block("a", 0).expect("block 0 exists");
            assert!(
                pins == 0 || in_mem,
                "evicted a pinned block: {pins} live read grant(s) but no resident bytes"
            );
        }
        node.lock().release_pin("a", iv);
        evictor.join().expect("evictor");
    }
}

#[test]
fn explore_evict_respects_live_read_grants() {
    explore("evict_vs_pin", quick(), evict_vs_pin(SeededBugs::default()))
        .assert_clean("evict_vs_pin");
}

#[test]
fn explore_catches_seeded_evict_ignoring_pins() {
    let bugs = SeededBugs {
        evict_ignores_pins: true,
        ..SeededBugs::default()
    };
    let report = explore("evict_vs_pin[bug]", quick(), evict_vs_pin(bugs));
    let case = report.expect_failure("evict_vs_pin[bug]");
    assert_eq!(case.failure.kind, FailureKind::Panic);
    assert!(
        case.failure.message.contains("evicted a pinned block"),
        "{}",
        case.failure.message
    );
    assert_replay_reproduces(case, evict_vs_pin(bugs));
}

// ---------------------------------------------------------------------------
// 2. LRU reclaim: spill-before-drop. A two-block array overflows a
//    one-block memory budget while a concurrent reader pins and releases
//    block 0; whatever the schedule, a block whose resident copy was
//    reclaimed must exist on disk, and every block must stay readable.
// ---------------------------------------------------------------------------

fn reclaim_spills_first(bugs: SeededBugs) -> impl Fn() + Send + Sync + 'static {
    move || {
        let iv0 = Interval::new(0, 8);
        let iv1 = Interval::new(8, 8);
        let node = Arc::new(Mutex::new(Node::new(8, bugs)));
        {
            let mut n = node.lock();
            n.create("a", 16, 8);
            n.write_block("a", iv0, Bytes::from(vec![1; 8]));
        }
        let n2 = Arc::clone(&node);
        let reader = dooc_sync::thread::spawn(move || {
            {
                let mut n = n2.lock();
                let data = n.read_block("a", iv0);
                assert_eq!(&data[..], &[1; 8], "block 0 bytes");
            }
            n2.lock().release_pin("a", iv0);
        });
        // Writing block 1 exceeds the budget and triggers reclaim of
        // whichever block is not pinned at that moment.
        node.lock().write_block("a", iv1, Bytes::from(vec![2; 8]));
        reader.join().expect("reader");
        let mut n = node.lock();
        for b in 0..2u64 {
            let (pins, in_mem, on_disk) = n.state.debug_block("a", b).expect("block exists");
            assert_eq!(pins, 0, "all grants released");
            assert!(
                in_mem || on_disk,
                "block {b} lost: reclaimed from memory without a disk copy"
            );
        }
        for (b, fill) in [(iv0, 1u8), (iv1, 2u8)] {
            let data = n.read_block("a", b);
            assert_eq!(&data[..], &[fill; 8], "block readable after reclaim");
            n.release_pin("a", b);
        }
    }
}

#[test]
fn explore_reclaim_spills_before_dropping() {
    explore(
        "reclaim_spill",
        quick(),
        reclaim_spills_first(SeededBugs::default()),
    )
    .assert_clean("reclaim_spill");
}

#[test]
fn explore_catches_seeded_spill_skip() {
    let bugs = SeededBugs {
        evict_skips_spill: true,
        ..SeededBugs::default()
    };
    let report = explore("reclaim_spill[bug]", quick(), reclaim_spills_first(bugs));
    let case = report.expect_failure("reclaim_spill[bug]");
    assert_eq!(case.failure.kind, FailureKind::Panic);
    assert_replay_reproduces(case, reclaim_spills_first(bugs));
}

// ---------------------------------------------------------------------------
// 3. Map snapshots: incremental `map_since` deltas folded through the real
//    `ResidencyTracker` must compose to the truth while two writers bump
//    the map version concurrently with the tracker's interim refreshes.
// ---------------------------------------------------------------------------

fn map_deltas_compose(bugs: SeededBugs) -> impl Fn() + Send + Sync + 'static {
    move || {
        let geometry: HashMap<String, (u64, u64)> = [
            ("a".to_string(), (16u64, 8u64)),
            ("b".to_string(), (8u64, 8u64)),
        ]
        .into_iter()
        .collect();
        let node = Arc::new(Mutex::new(Node::new(1 << 20, bugs)));
        let wa = {
            let n = Arc::clone(&node);
            dooc_sync::thread::spawn(move || {
                n.lock().create("a", 16, 8);
                n.lock()
                    .write_block("a", Interval::new(0, 8), Bytes::from(vec![1; 8]));
                n.lock()
                    .write_block("a", Interval::new(8, 8), Bytes::from(vec![2; 8]));
            })
        };
        let wb = {
            let n = Arc::clone(&node);
            dooc_sync::thread::spawn(move || {
                n.lock().create("b", 8, 8);
                n.lock()
                    .write_block("b", Interval::new(0, 8), Bytes::from(vec![3; 8]));
            })
        };
        let mut tracker = ResidencyTracker::new();
        // Interim refreshes race the writers: each folds whatever changed
        // since the tracker's cursor, exercising delta composition mid-write.
        for _ in 0..2 {
            let delta = node.lock().map_since(tracker.cursor());
            tracker.apply(&delta, &geometry);
        }
        wa.join().expect("writer a");
        wb.join().expect("writer b");
        let delta = node.lock().map_since(tracker.cursor());
        tracker.apply(&delta, &geometry);
        assert!(
            tracker.resident().contains("a") && tracker.resident().contains("b"),
            "incrementally folded deltas missed sealed arrays: resident = {:?}",
            tracker.resident()
        );
        // The folded mirror must agree with a from-scratch full snapshot.
        let mut fresh = ResidencyTracker::new();
        let full = node.lock().map_since(0);
        fresh.apply(&full, &geometry);
        assert_eq!(
            tracker.resident(),
            fresh.resident(),
            "incremental fold diverged from the full snapshot"
        );
    }
}

#[test]
fn explore_map_since_deltas_compose_under_concurrent_bumps() {
    explore(
        "map_delta",
        quick(),
        map_deltas_compose(SeededBugs::default()),
    )
    .assert_clean("map_delta");
}

#[test]
fn explore_catches_seeded_map_version_skip() {
    let bugs = SeededBugs {
        skip_map_version_bump: true,
        ..SeededBugs::default()
    };
    let report = explore("map_delta[bug]", quick(), map_deltas_compose(bugs));
    let case = report.expect_failure("map_delta[bug]");
    assert_eq!(case.failure.kind, FailureKind::Panic);
    assert!(
        case.failure.message.contains("missed sealed arrays"),
        "{}",
        case.failure.message
    );
    assert_replay_reproduces(case, map_deltas_compose(bugs));
}

// ---------------------------------------------------------------------------
// 4. Worker pipeline window over the real protocol: a `StorageClient`
//    talking across real streams to a storage event loop running as a
//    second task. After `read_array` drains the pipelined ticket window,
//    every read grant must have been handed back.
// ---------------------------------------------------------------------------

/// The storage side of harness 4: a `StorageState` event loop servicing one
/// client over real streams, with an in-memory disk (mirrors the
/// `StorageFilter`/`IoFilter` pair without their layout plumbing).
fn serve(reqs: StreamReader, replies: StreamWriter) {
    let cfg = NodeConfig {
        node: 0,
        nnodes: 1,
        memory_budget: 1 << 20,
        seed: 7,
        recovery: RecoveryPolicy::default(),
    };
    let mut state = StorageState::new(cfg, Vec::new());
    let mut disk: HashMap<(String, u64), Bytes> = HashMap::new();
    while let Some(buf) = reqs.recv() {
        let msg = ClientMsg::decode(&buf).expect("client msg decodes");
        let mut work: VecDeque<Action> = state.handle_client(msg).into();
        while let Some(a) = work.pop_front() {
            match a {
                Action::Reply { reply, .. } => {
                    replies
                        .send_to(NodeId(0), reply.encode())
                        .expect("reply send");
                }
                Action::Peer { .. } => panic!("single-node server saw a peer message"),
                Action::Io(IoCmd::Read { array, block, .. }) => {
                    let data = disk.get(&(array.clone(), block)).expect("on disk").clone();
                    work.extend(state.handle_io(IoReply::ReadDone { array, block, data }));
                }
                Action::Io(IoCmd::Write {
                    array, block, data, ..
                }) => {
                    let bytes = data.len() as u64;
                    disk.insert((array.clone(), block), data);
                    work.extend(state.handle_io(IoReply::WriteDone {
                        array,
                        block,
                        bytes,
                    }));
                }
                Action::Io(IoCmd::DeleteFiles { array, .. }) => {
                    disk.retain(|(a, _), _| *a != array);
                }
            }
        }
    }
}

fn pipeline_window(leak: Option<u64>) -> impl Fn() + Send + Sync + 'static {
    move || {
        let (to_srv, srv_in) = StreamSet::standalone("sreq", 8);
        let (srv_out, from_srv) = StreamSet::standalone("srep", 8);
        let server = dooc_sync::thread::spawn(move || serve(srv_in, srv_out));
        let mut client = dooc_storage::StorageClient::new(to_srv, from_srv, 0, 0);
        client.create("x", 24, 8).expect("create");
        for b in 0..3u64 {
            client
                .write("x", Interval::new(b * 8, 8), Bytes::from(vec![b as u8; 8]))
                .expect("write block");
        }
        let geometry: HashMap<String, (u64, u64)> =
            [("x".to_string(), (24u64, 8u64))].into_iter().collect();
        let pool = dooc_sparse::ComputePool::new(1);
        {
            let mut wc = dooc_core::WorkerContext::new(0, 1, &mut client, &geometry, &pool);
            wc.leak_read_grant_of_block = leak;
            let data = wc.read_array("x").expect("read_array");
            assert_eq!(data.len(), 24, "assembled array length");
            for b in 0..3usize {
                assert!(
                    data[b * 8..(b + 1) * 8].iter().all(|&x| x == b as u8),
                    "block {b} bytes"
                );
            }
        }
        assert_eq!(
            client.outstanding_grants(),
            0,
            "pipeline window finished with a read grant still outstanding"
        );
        drop(client);
        server.join().expect("server");
    }
}

#[test]
fn explore_pipeline_window_returns_every_grant() {
    explore("pipeline_window", quick(), pipeline_window(None)).assert_clean("pipeline_window");
}

#[test]
fn explore_catches_seeded_grant_leak() {
    let report = explore("pipeline_window[bug]", quick(), pipeline_window(Some(1)));
    let case = report.expect_failure("pipeline_window[bug]");
    assert_eq!(case.failure.kind, FailureKind::Panic);
    assert!(
        case.failure.message.contains("grant still outstanding"),
        "{}",
        case.failure.message
    );
    assert_replay_reproduces(case, pipeline_window(Some(1)));
}

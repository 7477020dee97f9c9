//! Property-based tests of the storage layer's core invariants, driven
//! against the synchronous state machine (no threads, fully deterministic).

use bytes::Bytes;
use dooc_storage::meta::{ArrayMeta, Interval};
use dooc_storage::node::{Action, DiscoveredBlock, NodeConfig, StorageState};
use dooc_storage::proto::{ClientMsg, IoCmd, IoReply, Reply};
use proptest::prelude::*;

fn cfg(budget: u64) -> NodeConfig {
    NodeConfig {
        node: 0,
        nnodes: 1,
        memory_budget: budget,
        seed: 7,
    }
}

proptest! {
    /// Writing the whole blocks of a multi-block array, in any order, seals
    /// each of them, and every read — of a whole block or part of one —
    /// returns exactly the written bytes.
    #[test]
    fn write_any_order_read_back(perm in proptest::sample::subsequence((0..8u64).collect::<Vec<_>>(), 8)) {
        // perm is a subsequence but we need a permutation; derive one by
        // appending the missing items.
        let mut order: Vec<u64> = perm.clone();
        for i in 0..8 {
            if !order.contains(&i) {
                order.push(i);
            }
        }
        let mut st = StorageState::new(cfg(1 << 20), vec![]);
        st.handle_client(ClientMsg::Create {
            req: 0,
            client: 0,
            meta: ArrayMeta::new("a", 60, 8),
        });
        let block = |i: u64| Interval::new(i * 8, if i == 7 { 4 } else { 8 });
        let fill = |i: u64, b: u64| (i * 16 + b) as u8;
        for (step, &i) in order.iter().enumerate() {
            let iv = block(i);
            let acts = st.handle_client(ClientMsg::Write {
                req: 100 + step as u64,
                client: 0,
                array: "a".into(),
                iv,
                data: Bytes::from((0..iv.len).map(|b| fill(i, b)).collect::<Vec<u8>>()),
            });
            let sealed = matches!(
                acts.first(),
                Some(Action::Reply { reply: Reply::WriteSealed { .. }, .. })
            );
            prop_assert!(sealed, "write refused at step {}", step);
        }
        // Each block whole, then its second half, sees the written bytes.
        for i in 0..8u64 {
            let whole = block(i);
            let half = Interval::new(whole.offset + whole.len / 2, whole.len - whole.len / 2);
            for (k, iv) in [whole, half].into_iter().enumerate() {
                let req = 1000 + 2 * i + k as u64;
                let acts = st.handle_client(ClientMsg::ReadReq {
                    req,
                    client: 0,
                    array: "a".into(),
                    iv,
                });
                let data = acts.iter().find_map(|a| match a {
                    Action::Reply { reply: Reply::ReadReady { req: r, data, .. }, .. } if *r == req => {
                        Some(data.clone())
                    }
                    _ => None,
                });
                let data = data.expect("sealed block readable");
                let want: Vec<u8> = (iv.offset - whole.offset..iv.end() - whole.offset)
                    .map(|b| fill(i, b))
                    .collect();
                prop_assert_eq!(&data[..], &want[..], "block {} read {:?}", i, iv);
            }
        }
    }

    /// No sequence of writes can write a byte twice: a write is sealed
    /// only over a whole block that has none yet, so of two writes the
    /// second is sealed only if both are whole blocks and different ones.
    #[test]
    fn no_double_write(a in 0u64..60, la in 1u64..12, b in 0u64..60, lb in 1u64..12) {
        let mut st = StorageState::new(cfg(1 << 20), vec![]);
        st.handle_client(ClientMsg::Create {
            req: 0,
            client: 0,
            meta: ArrayMeta::new("a", 64, 8),
        });
        let whole = |off: u64, len: u64| off.is_multiple_of(8) && len == 8;
        let mut sealed = Vec::new();
        for (req, (off, len)) in [(a, la), (b, lb)].into_iter().enumerate() {
            let acts = st.handle_client(ClientMsg::Write {
                req: req as u64,
                client: 0,
                array: "a".into(),
                iv: Interval::new(off, len),
                data: Bytes::from(vec![req as u8; len as usize]),
            });
            sealed.push(matches!(
                acts.first(),
                Some(Action::Reply { reply: Reply::WriteSealed { .. }, .. })
            ));
        }
        let first = whole(a, la);
        let second = whole(b, lb) && !(first && a == b);
        prop_assert_eq!(sealed, vec![first, second], "a=[{},{}) b=[{},{})", a, a+la, b, b+lb);
    }

    /// Memory accounting: resident bytes never exceed budget + one block
    /// (the transient overshoot before eviction completes), and spills are
    /// issued whenever the budget is exceeded with evictable blocks.
    #[test]
    fn budget_respected_with_spills(nblocks in 2u64..8, budget_blocks in 1u64..4) {
        let bs = 64u64;
        let budget = budget_blocks * bs;
        let mut st = StorageState::new(cfg(budget), vec![]);
        st.handle_client(ClientMsg::Create {
            req: 0,
            client: 0,
            meta: ArrayMeta::new("a", nblocks * bs, bs),
        });
        let mut pending_spills: Vec<(String, u64)> = Vec::new();
        for i in 0..nblocks {
            let iv = Interval::new(i * bs, bs);
            let acts = st.handle_client(ClientMsg::Write {
                req: 1,
                client: 0,
                array: "a".into(),
                iv,
                data: Bytes::from(vec![i as u8; bs as usize]),
            });
            for a in &acts {
                if let Action::Io(IoCmd::Write { array, block, .. }) = a {
                    pending_spills.push((array.clone(), *block));
                }
            }
            // Complete spills immediately (synchronous disk).
            for (array, block) in pending_spills.drain(..) {
                st.handle_io(IoReply::WriteDone {
                    array,
                    block,
                    bytes: bs,
                });
            }
            prop_assert!(
                st.resident_bytes() <= budget + bs,
                "resident {} budget {}",
                st.resident_bytes(),
                budget
            );
        }
    }
}

/// Reads logged before any write are all served after the block seals, in
/// request order, with correct data.
#[test]
fn logged_reads_fifo_served() {
    let mut st = StorageState::new(cfg(1 << 20), vec![]);
    st.handle_client(ClientMsg::Create {
        req: 0,
        client: 0,
        meta: ArrayMeta::new("a", 32, 32),
    });
    for r in 0..5u64 {
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: r,
            client: r,
            array: "a".into(),
            iv: Interval::new(r, 4),
        });
        assert!(acts.is_empty());
    }
    let acts = st.handle_client(ClientMsg::Write {
        req: 101,
        client: 0,
        array: "a".into(),
        iv: Interval::new(0, 32),
        data: Bytes::from((0..32u8).collect::<Vec<_>>()),
    });
    let served: Vec<u64> = acts
        .iter()
        .filter_map(|a| match a {
            Action::Reply {
                reply: Reply::ReadReady { req, data, .. },
                ..
            } => {
                assert_eq!(data[0], *req as u8, "data starts at the request offset");
                Some(*req)
            }
            _ => None,
        })
        .collect();
    assert_eq!(served, vec![0, 1, 2, 3, 4]);
}

proptest! {
    /// Fault interleavings: a script of disk-read failures, applied to an
    /// arbitrary stream of out-of-core reads, never corrupts the grant
    /// ledger. Each scripted failure is the I/O filter's final answer (it
    /// has retried already). Every request terminates — `ReadReady` (then
    /// released) or a typed [`StorageError::IoFailed`] — and afterwards the
    /// node is back at a quiescent point: no pinned block, no `loading` flag
    /// stuck ([`StorageState::is_quiescent`] checks exactly that ledger).
    #[test]
    fn injected_read_failures_preserve_ledger(
        nblocks in 1u64..4,
        reqs in proptest::collection::vec((0u64..4, 0u64..3), 1..12),
        failures in proptest::collection::vec(any::<bool>(), 1..24),
    ) {
        let bs = 64u64;
        let discovered: Vec<DiscoveredBlock> = (0..nblocks)
            .map(|b| DiscoveredBlock {
                meta: ArrayMeta::new("m", nblocks * bs, bs),
                block: b,
            })
            .collect();
        let mut st = StorageState::new(cfg(1 << 20), discovered);

        // The failure script decides each emitted `IoCmd::Read`'s fate.
        let mut script = failures.iter().cycle();
        let mut answered = vec![0usize; reqs.len()];
        let mut queue: std::collections::VecDeque<Action> = Default::default();
        let mut drive = |st: &mut StorageState,
                         queue: &mut std::collections::VecDeque<Action>,
                         answered: &mut [usize],
                         acts: Vec<Action>| {
            queue.extend(acts);
            let mut steps = 0usize;
            while let Some(act) = queue.pop_front() {
                steps += 1;
                assert!(steps < 10_000, "action cascade did not terminate");
                match act {
                    Action::Io(IoCmd::Read { array, block, len }) => {
                        let reply = if *script.next().expect("cyclic") {
                            IoReply::Error {
                                array,
                                block,
                                message: "injected read failure".into(),
                            }
                        } else {
                            IoReply::ReadDone {
                                array,
                                block,
                                data: Bytes::from(vec![block as u8 + 1; len as usize]),
                            }
                        };
                        queue.extend(st.handle_io(reply));
                    }
                    Action::Io(_) => {} // spill/persist traffic: irrelevant here
                    Action::Reply { reply: Reply::ReadReady { req, data, .. }, .. } => {
                        answered[req as usize] += 1;
                        let (blk, _) = reqs[req as usize];
                        let block = blk % nblocks;
                        assert_eq!(data[0], block as u8 + 1, "read served wrong block");
                        let rel = st.handle_client(ClientMsg::ReleaseRead {
                            array: "m".into(),
                            iv: Interval::new(block * bs, bs),
                            checked: false,
                        });
                        queue.extend(rel);
                    }
                    Action::Reply { reply: Reply::Err { req, error }, .. } => {
                        answered[req as usize] += 1;
                        assert!(
                            matches!(error, dooc_storage::StorageError::IoFailed(_)),
                            "read failure must surface as IoFailed, got {error:?}"
                        );
                    }
                    Action::Reply { .. } | Action::Peer { .. } => {}
                }
            }
        };

        for (req, &(blk, client)) in reqs.iter().enumerate() {
            let block = blk % nblocks;
            let acts = st.handle_client(ClientMsg::ReadReq {
                req: req as u64,
                client,
                array: "m".into(),
                iv: Interval::new(block * bs, bs),
            });
            drive(&mut st, &mut queue, &mut answered, acts);
        }

        for (req, n) in answered.iter().enumerate() {
            prop_assert_eq!(*n, 1, "request {} answered {} times", req, n);
        }
        // Ledger clean: no pins, no loading/spilling block,
        // no parked waiter, nothing unevictable.
        prop_assert!(
            st.is_quiescent(),
            "node not quiescent after fault interleaving (leaked pin/loading state)"
        );
    }
}

/// Startup discovery + read path: discovered blocks are immediately
/// readable through the implicit out-of-core read.
#[test]
fn discovery_read_path() {
    let mut st = StorageState::new(
        cfg(1 << 20),
        vec![
            DiscoveredBlock {
                meta: ArrayMeta::new("m", 128, 64),
                block: 0,
            },
            DiscoveredBlock {
                meta: ArrayMeta::new("m", 128, 64),
                block: 1,
            },
        ],
    );
    let acts = st.handle_client(ClientMsg::ReadReq {
        req: 1,
        client: 0,
        array: "m".into(),
        iv: Interval::new(64, 64),
    });
    assert!(matches!(
        &acts[..],
        [Action::Io(IoCmd::Read {
            block: 1,
            len: 64,
            ..
        })]
    ));
}

//! Peer lookup over the partitioned global map: serving other nodes'
//! fetches, probing random peers for blocks this node lacks (one probe in
//! flight per block), stalling when every peer denied and re-probing on the
//! tick, and resolving the placeholder geometry of an array first met
//! through a read.

use super::{storage_obs, Action, BlockMem, ReadWaiter, StorageState};
use crate::meta::{ArrayMeta, Interval};
use crate::proto::PeerMsg;
use bytes::Bytes;
use rand::Rng;

/// State of an outstanding remote fetch for one block.
#[derive(Clone, Hash)]
pub(super) struct FetchState {
    /// Our fetch request id.
    pub(super) req: u64,
    /// Peers already asked (includes the one currently in flight).
    tried: Vec<u64>,
}

/// Why a `FetchFound` answer cannot be installed, if it cannot: it must
/// describe a real block of the array, carry exactly that block's bytes,
/// and — when this node knows the geometry — agree with it and be the block
/// that was asked for.
fn bad_answer(
    known: &ArrayMeta,
    asked: u64,
    found: &ArrayMeta,
    block: u64,
    data_len: u64,
) -> Option<String> {
    if found.block_size == 0 {
        return Some("zero block size".into());
    }
    if block >= found.nblocks() {
        return Some(format!("block {block} of {} blocks", found.nblocks()));
    }
    if data_len != found.block_len(block) {
        return Some(format!(
            "{data_len} bytes for a {}-byte block",
            found.block_len(block)
        ));
    }
    let placeholder = known.len == u64::MAX;
    if !placeholder && (known.len, known.block_size, asked) != (found.len, found.block_size, block)
    {
        return Some(format!(
            "block {block} of ({}, {}) answers block {asked} of ({}, {})",
            found.len, found.block_size, known.len, known.block_size
        ));
    }
    None
}

impl StorageState {
    /// A peer asks for the block holding `offset`: answer from memory, load
    /// it from disk, log the request if the block is produced here, or deny.
    pub(super) fn serve_fetch(
        &mut self,
        req: u64,
        from_node: u64,
        array: String,
        offset: u64,
        out: &mut Vec<Action>,
    ) {
        let not_found = Action::Peer {
            node: from_node,
            msg: PeerMsg::FetchNotFound { req },
        };
        let Some(ainfo) = self.arrays.get_mut(&array).filter(|a| !a.is_placeholder()) else {
            return out.push(not_found);
        };
        if offset >= ainfo.meta.len {
            return out.push(not_found);
        }
        let meta = &ainfo.meta;
        let block = offset / meta.block_size;
        let block_len = meta.block_len(block);
        let info = ainfo.blocks.entry(block).or_default();
        if let Some(BlockMem { data: bytes, .. }) = &info.mem {
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
            info.load(array, block, block_len, out);
        } else if ainfo.home {
            // Production is local: log the request, answer once written.
            info.peer_waiters.push((req, from_node));
        } else {
            out.push(not_found);
        }
    }

    /// Begins (or joins) a remote fetch of `array`'s block containing
    /// `offset`. `block` is this node's best guess of the block index (0 if
    /// geometry unknown — re-keyed on reply). A node with no peer fetches
    /// nothing: its reads stay logged until a local `Create` and write
    /// serve them.
    pub(super) fn start_fetch(
        &mut self,
        array: String,
        block: u64,
        offset: u64,
        out: &mut Vec<Action>,
    ) {
        if self.cfg.nnodes == 1 {
            return;
        }
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
        let peer = loop {
            let p = self.rng.gen_range(0..self.cfg.nnodes);
            if p != me {
                break p;
            }
        };
        info.fetch = Some(FetchState {
            req,
            tried: vec![peer],
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
    /// `FetchNotFound` or an unusable answer. Try the
    /// next random untried peer; once every peer denied, stall the fetch
    /// for the tick loop ("the data may not exist *yet*").
    pub(super) fn fetch_setback(&mut self, req: u64, out: &mut Vec<Action>) {
        let Some((array, block)) = self.fetches.get(&req).cloned() else {
            return;
        };
        let me = self.cfg.node;
        let nnodes = self.cfg.nnodes;
        let Some(ainfo) = self.arrays.get_mut(&array) else {
            return;
        };
        let offset = if ainfo.is_placeholder() {
            // Geometry unknown: waiters hold global offsets.
            let first = ainfo
                .blocks
                .get(&block)
                .and_then(|i| i.read_waiters.first());
            first.map_or(0, |w| w.off)
        } else {
            ainfo.meta.block_start(block)
        };
        let Some(fetch) = ainfo.blocks.get_mut(&block).and_then(|i| i.fetch.as_mut()) else {
            return;
        };
        let untried: Vec<u64> = (0..nnodes)
            .filter(|&n| n != me && !fetch.tried.contains(&n))
            .collect();
        if untried.is_empty() {
            // Every peer denied *right now*: the data may not exist yet (the
            // producing task has not run). Stall and retry on the next tick,
            // preserving "reply when the information becomes available".
            if let Some(info) = ainfo.blocks.get_mut(&block) {
                info.fetch = None;
            }
            self.fetches.remove(&req);
            self.stalled.push((array, block, offset));
        } else {
            let peer = untried[self.rng.gen_range(0..untried.len())];
            fetch.tried.push(peer);
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
    }

    /// A peer answered fetch `req` with a block. Answers from outside the
    /// node are checked before anything is installed: an unusable one
    /// counts as a failed probe.
    pub(super) fn fetch_found(
        &mut self,
        req: u64,
        len: u64,
        block_size: u64,
        block: u64,
        data: Bytes,
        out: &mut Vec<Action>,
    ) {
        let Some((array, asked)) = self.fetches.get(&req).cloned() else {
            return; // stale: answered already or array deleted
        };
        let Some(ainfo) = self.arrays.get(&array) else {
            return;
        };
        let found = ArrayMeta {
            name: array.clone(),
            len,
            block_size,
        };
        if let Some(why) = bad_answer(&ainfo.meta, asked, &found, block, data.len() as u64) {
            dooc_obs::instant_arg(
                dooc_obs::Category::Fault,
                "storage:bad_fetch",
                self.cfg.node as i64,
                || format!("{array} fetch req {req}: {why}"),
            );
            return self.fetch_setback(req, out);
        }
        let placeholder = ainfo.is_placeholder();
        self.fetches.remove(&req);
        self.stats.peer_recv_bytes += data.len() as u64;
        if placeholder {
            self.resolve_placeholder(&array, found, asked, Some((block, data)), out);
        } else {
            self.install_sealed(&array, block, data, out);
        }
    }

    /// Real geometry arrived for an array known only by a placeholder —
    /// from a `Register` hint, a local `Create` or with a peer's block.
    /// Moves the reads parked under block `parked` (global offsets) to their
    /// real blocks, refusing each that the geometry shows is not inside one
    /// block, installs the block that came with the geometry, if any, and —
    /// unless the array is produced here — fetches every other block that
    /// now has waiters but no fetch.
    pub(super) fn resolve_placeholder(
        &mut self,
        array: &str,
        meta: ArrayMeta,
        parked: u64,
        found: Option<(u64, Bytes)>,
        out: &mut Vec<Action>,
    ) {
        let Some(ainfo) = self.arrays.get_mut(array) else {
            return;
        };
        ainfo.meta = meta;
        if let Some(parked) = ainfo.blocks.remove(&parked) {
            if let Some(f) = &parked.fetch {
                self.fetches.remove(&f.req);
            }
            for w in parked.read_waiters {
                match ainfo.meta.locate(Interval::new(w.off, w.len)) {
                    Ok((b, off)) => {
                        let waiters = &mut ainfo.blocks.entry(b).or_default().read_waiters;
                        waiters.push(ReadWaiter { off, ..w });
                    }
                    Err(e) => Self::err(w.client, w.req, e, out),
                }
            }
        }
        if let Some((block, data)) = found {
            self.install_sealed(array, block, data, out);
        }
        let Some(ainfo) = self.arrays.get(array).filter(|a| !a.home) else {
            return;
        };
        let mut pending: Vec<(u64, u64)> = ainfo
            .blocks
            .iter()
            .filter(|(_, i)| !i.read_waiters.is_empty() && i.fetch.is_none())
            .map(|(&b, _)| (b, ainfo.meta.block_start(b)))
            .collect();
        pending.sort_unstable();
        for (b, off) in pending {
            self.start_fetch(array.to_string(), b, off, out);
        }
    }

    /// Retries every stalled fetch that still has readers, of an array not
    /// produced here, with a fresh probe cycle: the data may simply not
    /// exist yet.
    pub(super) fn retry_stalled(&mut self, out: &mut Vec<Action>) {
        for (array, block, offset) in std::mem::take(&mut self.stalled) {
            let still_wanted = self
                .arrays
                .get(&array)
                .filter(|a| !a.home)
                .and_then(|a| a.blocks.get(&block))
                .is_some_and(|i| {
                    !i.read_waiters.is_empty() && i.fetch.is_none() && i.mem.is_none()
                });
            if still_wanted {
                storage_obs().fetch_retries.inc();
                self.start_fetch(array, block, offset, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{Action, StorageState};
    use crate::meta::{ArrayMeta, Interval};
    use crate::proto::{ClientMsg, PeerMsg, Reply};
    use crate::StorageError;
    use bytes::Bytes;
    use std::collections::BTreeMap;

    fn node(nnodes: u64) -> StorageState {
        StorageState::new(cfg(0, nnodes, 1 << 20), vec![])
    }

    /// The single action, which must be a peer fetch: `(peer, req, offset)`.
    fn probe(acts: &[Action]) -> (u64, u64, u64) {
        match acts {
            [Action::Peer {
                node,
                msg: PeerMsg::Fetch { req, offset, .. },
            }] => (*node, *req, *offset),
            other => panic!("expected one peer fetch, got {other:?}"),
        }
    }

    fn found(req: u64, len: u64, block_size: u64, block: u64, data: usize) -> PeerMsg {
        PeerMsg::FetchFound {
            req,
            len,
            block_size,
            block,
            data: Bytes::from(vec![8u8; data]),
        }
    }

    fn peer_fetch(st: &mut StorageState, array: &str) -> Vec<Action> {
        st.handle_peer(PeerMsg::Fetch {
            req: 5,
            from_node: 1,
            array: array.into(),
            offset: 0,
        })
    }

    #[test]
    fn remote_read_probes_random_peers_until_found() {
        let mut st = node(4);
        let (first, req, _) = probe(&read(&mut st, 1, 0, "remote", Interval::new(0, 8)));
        assert_ne!(first, 0, "never asks itself");
        let (second, _, _) = probe(&st.handle_peer(PeerMsg::FetchNotFound { req }));
        assert_ne!(second, first, "tried peers are excluded");
        let acts = st.handle_peer(found(req, 16, 16, 0, 16));
        assert_eq!(&read_data(&acts, 1).expect("read served")[..], &[8u8; 8]);
        assert_eq!(st.stats().peer_recv_bytes, 16);
    }

    #[test]
    fn remote_read_stalls_after_all_peers_deny_then_retries() {
        let mut st = node(3);
        let (_, req, _) = probe(&read(&mut st, 1, 0, "ghost", Interval::new(0, 8)));
        probe(&st.handle_peer(PeerMsg::FetchNotFound { req }));
        let acts = st.handle_peer(PeerMsg::FetchNotFound { req });
        assert!(acts.is_empty(), "no error: fetch stalls ({acts:?})");
        assert!(st.needs_tick());
        // A tick restarts the probe cycle.
        probe(&st.on_tick());
        assert!(!st.needs_tick());
    }

    /// A one-node cluster has no peer to ask: a read of a name not yet
    /// created stays logged, with nothing sent and no clock to run, until
    /// the local `Create` and write serve it.
    #[test]
    fn a_lone_node_logs_a_read_of_an_uncreated_name_until_its_write() {
        let mut st = node(1);
        let acts = read(&mut st, 1, 0, "later", Interval::new(8, 8));
        assert!(acts.is_empty(), "no fetch, not even to itself: {acts:?}");
        assert!(!st.needs_tick());
        create(&mut st, "later", 32, 32);
        let acts = write_all(&mut st, "later", Interval::new(0, 32), 4);
        assert_eq!(&read_data(&acts, 1).expect("served")[..], &[4u8; 8]);
        assert!(!st.needs_tick());
    }

    #[test]
    fn duplicate_fetches_are_suppressed() {
        let mut st = node(2);
        st.handle_client(ClientMsg::Register {
            meta: ArrayMeta::new("r", 64, 32),
        });
        probe(&read(&mut st, 1, 0, "r", Interval::new(0, 8)));
        let again = read(&mut st, 2, 0, "r", Interval::new(8, 8));
        assert!(again.is_empty(), "same-block fetch deduplicated: {again:?}");
        // Different block -> its own fetch.
        probe(&read(&mut st, 3, 0, "r", Interval::new(32, 8)));
    }

    #[test]
    fn peer_fetch_served_from_memory() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 32, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 6);
        match &peer_fetch(&mut st, "a")[..] {
            [Action::Peer {
                node: 1,
                msg:
                    PeerMsg::FetchFound {
                        req: 5,
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
        let acts = peer_fetch(&mut st, "a");
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
        assert!(matches!(
            &peer_fetch(&mut st, "nope")[..],
            [Action::Peer {
                node: 1,
                msg: PeerMsg::FetchNotFound { req: 5 }
            }]
        ));
    }

    #[test]
    fn register_then_read_maps_blocks_correctly() {
        let mut st = node(2);
        st.handle_client(ClientMsg::Register {
            meta: ArrayMeta::new("r", 64, 32),
        });
        // Read of second block probes with an offset inside that block.
        let (_, _, offset) = probe(&read(&mut st, 1, 0, "r", Interval::new(40, 8)));
        assert_eq!(offset / 32, 1, "fetch addressed inside block 1");
    }

    /// Where the logged reads of `array` wait: block -> (req, block offset).
    fn layout(st: &StorageState, array: &str) -> BTreeMap<u64, Vec<(u64, u64)>> {
        st.arrays[array]
            .blocks
            .iter()
            .filter(|(_, i)| !i.read_waiters.is_empty())
            .map(|(&b, i)| (b, i.read_waiters.iter().map(|w| (w.req, w.off)).collect()))
            .collect()
    }

    fn fetched_offsets(acts: &[Action]) -> Vec<u64> {
        let mut v: Vec<u64> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Peer {
                    msg: PeerMsg::Fetch { offset, .. },
                    ..
                } => Some(*offset),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// Both ways real geometry reaches a placeholder array — a `Register`
    /// hint and a peer's answer — go through one re-key: the parked reads
    /// land in the same blocks at the same offsets and the same blocks are
    /// fetched next, except the block the answer itself brought.
    #[test]
    fn register_and_fetch_found_re_key_parked_reads_alike() {
        let parked = || {
            let mut st = node(3);
            let (_, req, _) = probe(&read(&mut st, 1, 0, "r", Interval::new(40, 8)));
            assert!(read(&mut st, 2, 0, "r", Interval::new(70, 8)).is_empty());
            (st, req)
        };
        let (mut hinted, _) = parked();
        let by_register = hinted.handle_client(ClientMsg::Register {
            meta: ArrayMeta::new("r", 96, 32),
        });
        assert_eq!(
            layout(&hinted, "r"),
            BTreeMap::from([(1, vec![(1, 8)]), (2, vec![(2, 6)])])
        );
        assert_eq!(fetched_offsets(&by_register), vec![32, 64]);

        let (mut answered, req) = parked();
        let by_answer = answered.handle_peer(found(req, 96, 32, 1, 32));
        assert_eq!(
            served(&by_answer),
            vec![1],
            "the answered block serves its read"
        );
        let mut expected = layout(&hinted, "r");
        expected.remove(&1);
        assert_eq!(layout(&answered, "r"), expected);
        assert_eq!(fetched_offsets(&by_answer), vec![64]);
    }

    /// A node that asked for block 1 of a (64, 32) array — or, with
    /// `known == false`, for offset 40 of an array it has never seen —
    /// receives `answer`: it must be refused as a failed probe, the next
    /// peer asked, nothing installed.
    fn rejects(known: bool, answer: impl FnOnce(u64) -> PeerMsg) {
        let mut st = node(3);
        if known {
            st.handle_client(ClientMsg::Register {
                meta: ArrayMeta::new("r", 64, 32),
            });
        }
        let (first, req, _) = probe(&read(&mut st, 1, 0, "r", Interval::new(40, 8)));
        let (next, again, _) = probe(&st.handle_peer(answer(req)));
        assert_eq!(again, req, "the same fetch moves on");
        assert_ne!(next, first, "to the next peer");
        assert_eq!((st.stats().peer_recv_bytes, st.resident_bytes()), (0, 0));
    }

    #[test]
    fn fetch_found_with_zero_block_size_is_a_failed_probe() {
        rejects(false, |req| found(req, 64, 0, 1, 32));
    }

    #[test]
    fn fetch_found_past_the_last_block_is_a_failed_probe() {
        rejects(true, |req| found(req, 64, 32, 2, 32));
    }

    #[test]
    fn fetch_found_with_the_wrong_byte_count_is_a_failed_probe() {
        rejects(true, |req| found(req, 64, 32, 1, 16));
    }

    #[test]
    fn fetch_found_contradicting_known_geometry_is_a_failed_probe() {
        rejects(true, |req| found(req, 128, 32, 1, 32));
    }

    /// The request ids among `acts` refused as bad intervals.
    fn bad_intervals(acts: &[Action]) -> Vec<u64> {
        acts.iter()
            .filter_map(|a| match a {
                Action::Reply {
                    reply:
                        Reply::Err {
                            req,
                            error: StorageError::BadInterval { .. },
                        },
                    ..
                } => Some(*req),
                _ => None,
            })
            .collect()
    }

    /// A read parked under placeholder geometry passed no real bounds
    /// check. Whichever way the real geometry arrives — a peer's answer, a
    /// `Register` hint — a parked read that straddles a block boundary or
    /// runs past the array's end is refused then, and only the reads inside
    /// one block are kept and served.
    #[test]
    fn parked_reads_the_real_geometry_rules_out_are_bad_intervals() {
        let parked = || {
            let mut st = node(2);
            let (_, req, _) = probe(&read(&mut st, 1, 0, "r", Interval::new(28, 8)));
            assert!(read(&mut st, 2, 0, "r", Interval::new(60, 8)).is_empty());
            assert!(read(&mut st, 3, 0, "r", Interval::new(4, 8)).is_empty());
            (st, req)
        };
        let (mut answered, req) = parked();
        let acts = answered.handle_peer(found(req, 64, 32, 0, 32));
        assert_eq!(bad_intervals(&acts), vec![1, 2], "{acts:?}");
        assert_eq!(served(&acts), vec![3]);
        assert_eq!(layout(&answered, "r"), BTreeMap::new());

        let (mut hinted, _) = parked();
        let acts = hinted.handle_client(ClientMsg::Register {
            meta: ArrayMeta::new("r", 64, 32),
        });
        assert_eq!(bad_intervals(&acts), vec![1, 2], "{acts:?}");
        assert_eq!(layout(&hinted, "r"), BTreeMap::from([(0, vec![(3, 4)])]));
        assert_eq!(fetched_offsets(&acts), vec![0]);
    }

    /// Creating an array this node first met through a read makes it the
    /// array's home: the parked reads move to their real blocks (or are
    /// refused), nothing more is fetched, not even the stalled fetch on the
    /// next tick, and the local write serves them.
    #[test]
    fn create_of_an_array_known_only_from_a_read_re_keys_its_parked_reads() {
        let mut st = node(2);
        let (_, req, _) = probe(&read(&mut st, 1, 0, "x", Interval::new(4, 8)));
        assert!(read(&mut st, 2, 0, "x", Interval::new(28, 8)).is_empty());
        assert!(st.handle_peer(PeerMsg::FetchNotFound { req }).is_empty());
        assert!(st.needs_tick());
        let acts = st.handle_client(ClientMsg::Create {
            req: 9,
            client: 0,
            meta: ArrayMeta::new("x", 64, 32),
        });
        assert_eq!(bad_intervals(&acts), vec![2], "{acts:?}");
        assert_eq!(fetched_offsets(&acts), Vec::<u64>::new());
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Reply {
                reply: Reply::Created { req: 9 },
                ..
            }
        )));
        assert_eq!(layout(&st, "x"), BTreeMap::from([(0, vec![(1, 4)])]));
        assert!(st.on_tick().is_empty());
        assert!(!st.needs_tick());
        let acts = write_all(&mut st, "x", Interval::new(0, 32), 5);
        assert_eq!(&read_data(&acts, 1).expect("served")[..], &[5u8; 8]);
    }
}
